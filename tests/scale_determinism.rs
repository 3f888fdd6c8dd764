//! Determinism at machine scale: the cpu-scale sweep's exports are
//! byte-identical however many worker threads produce them, and the
//! per-CPU scheduler's steal/loan decisions replay exactly across runs
//! of the same 128-CPU machine.

use perf_isolation::core::{Scheme, SpuId};
use perf_isolation::experiments::scaling::CpuScaleScenario;
use perf_isolation::experiments::sweep::{run_scenario, Render};
use perf_isolation::kernel::{metrics_jsonl, Kernel, MachineConfig, Program};
use perf_isolation::sim::{SimDuration, SimTime};
use perf_isolation::Scale;

#[test]
fn scale_sweep_is_byte_identical_at_1_vs_4_threads() {
    // The 8/32/128-CPU ladder (512 is covered by the scaling unit
    // tests; capping keeps this integration test fast).
    let scenario = CpuScaleScenario::capped(Scale::Quick, 128);
    let serial = run_scenario(&scenario, 1);
    let parallel = run_scenario(&scenario, 4);
    assert_eq!(
        serial.outcomes_jsonl, parallel.outcomes_jsonl,
        "cpu-scale outcome export diverged at 4 threads"
    );
    assert_eq!(
        serial.report.render(),
        parallel.report.render(),
        "cpu-scale rendered report diverged at 4 threads"
    );
    assert!(
        serial.report.isolation_violations().is_empty(),
        "isolation violated: {:?}",
        serial.report.isolation_violations()
    );
}

/// Boots the 128-CPU steal-heavy machine: 32 SPUs of equal entitlement
/// (4 CPUs each), odd SPUs oversubscribed to twice their entitlement,
/// so idle even-SPU CPUs keep lending to (and revoking from) their
/// overloaded neighbours.
fn boot_steal_machine() -> Kernel {
    let (cfg, set) = MachineConfig::builder()
        .topology(128, 768, 1)
        .scheme(Scheme::PIso)
        .spus(32, 1)
        .build_with_spus()
        .expect("steal machine config is valid");
    let mut k = Kernel::new(cfg, set);
    let prog = Program::builder("steal-job")
        .compute(SimDuration::from_millis(240), 8)
        .build();
    for s in 0..32u32 {
        let jobs = if s % 2 == 0 { 1 } else { 8 };
        for j in 0..jobs {
            k.spawn_at(
                SpuId::user(s),
                prog.clone(),
                Some(&format!("steal-s{s}-{j}")),
                SimTime::ZERO,
            );
        }
    }
    k
}

#[test]
fn steal_decisions_replay_byte_identically_across_runs() {
    let run = || {
        let mut k = boot_steal_machine();
        let m = k.run(SimTime::from_secs(60));
        assert!(m.completed);
        (metrics_jsonl(&m), m)
    };
    let (a_jsonl, a) = run();
    let (b_jsonl, b) = run();
    // Every counter — dispatches, preemptions, loans, IPIs — and every
    // job response replays exactly; any nondeterministic steal pick
    // would show up here as a diverging schedule.
    assert_eq!(a_jsonl, b_jsonl, "steal-heavy run diverged across runs");
    assert_eq!(a.end_time, b.end_time);
    // The machine actually exercised the cross-SPU lending path.
    assert!(
        a.obsv.counters.get("sched.loans") > 0,
        "expected idle-CPU loans on the uneven machine"
    );
}
