//! Workspace-level guarantees of the sweep engine (the contract DESIGN.md
//! documents): for every scenario in the registry, parallel and pooled
//! execution are invisible in the output — byte for byte — and the
//! quick-scale outcome export matches its committed golden.

use perf_isolation::experiments::sweep::{all_scenarios, run_pool};
use perf_isolation::Scale;

/// The concatenated `outcomes_jsonl` of `all_scenarios(Scale::Quick)`, in
/// registry order.
const QUICK_OUTCOMES_GOLDEN: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/crates/experiments/tests/goldens/sweep_outcomes_quick.jsonl"
));

#[test]
fn every_scenario_is_byte_identical_across_thread_counts() {
    for scenario in all_scenarios(Scale::Quick) {
        let serial = scenario.run_boxed(1);
        assert_eq!(
            serial.stats.len(),
            scenario.cell_count(),
            "[{}] one stat per cell",
            serial.name
        );
        for threads in [2usize, 4, 8] {
            let parallel = scenario.run_boxed(threads);
            assert_eq!(
                serial.text, parallel.text,
                "[{}] rendered report diverged at {threads} threads",
                serial.name
            );
            assert_eq!(
                serial.outcomes_jsonl, parallel.outcomes_jsonl,
                "[{}] outcome export diverged at {threads} threads",
                serial.name
            );
        }
    }
}

#[test]
fn pooled_execution_is_byte_identical_to_per_scenario_runs() {
    let scenarios = all_scenarios(Scale::Quick);
    let separate: Vec<_> = scenarios.iter().map(|s| s.run_boxed(1)).collect();
    let all: String = separate.iter().map(|o| o.outcomes_jsonl.as_str()).collect();
    assert!(
        all == QUICK_OUTCOMES_GOLDEN,
        "quick-scale outcome export diverged from the golden \
         sweep_outcomes_quick.jsonl; first differing line: {:?}",
        QUICK_OUTCOMES_GOLDEN
            .lines()
            .zip(all.lines())
            .enumerate()
            .find(|(_, (g, a))| g != a)
            .map(|(i, (g, a))| format!("line {}: golden={g:?} actual={a:?}", i + 1))
    );
    for threads in [1usize, 4] {
        let pooled = run_pool(&scenarios, threads);
        assert_eq!(pooled.len(), separate.len());
        for (a, b) in separate.iter().zip(&pooled) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                a.text, b.text,
                "[{}] pooled report diverged at {threads} threads",
                a.name
            );
            assert_eq!(
                a.outcomes_jsonl, b.outcomes_jsonl,
                "[{}] pooled outcome export diverged at {threads} threads",
                a.name
            );
        }
    }
}
