//! Drives every experiment matrix in the repo — the paper's static
//! tables plus all nine simulated harnesses — through the sweep
//! engine, and exports the per-cell outcomes and sweep counters under
//! `results/`.
//!
//! All ten matrices' cells are drained by **one** worker pool
//! (`sweep::run_pool`), so there is no barrier between matrices. Every
//! cell is simulated on every run, and the output is byte-identical
//! for any `--threads` value; only the timing lines (which go to
//! stdout, never into result files) vary between runs.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example paper_tables -- [--quick] [--threads N]
//! cargo run --release --example paper_tables -- --quick --compare-threads 4
//! ```
//!
//! `--compare-threads N` is the CI mode: it runs the full matrix twice
//! (serial, then N workers), asserts the outputs are byte-identical,
//! and prints the measured speedup. Unknown flags and malformed values
//! are rejected with a usage line and exit status 2.

use std::time::Instant;

use perf_isolation::experiments::report::export;
use perf_isolation::experiments::sweep::{self, Flag, SweepOutput};
use perf_isolation::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!(
                "paper_tables: {e}\n{}",
                sweep::usage("paper_tables", &FLAGS)
            );
            std::process::exit(2);
        }
    };
    if let Some(n) = opts.compare_threads {
        compare(opts.scale, n);
        return;
    }

    let mut outcomes = String::new();
    let mut counters = String::new();
    for out in sweep::run_pool(&sweep::all_scenarios(opts.scale), opts.threads) {
        println!("{}", out.text);
        println!("[{}] per-cell timing:\n{}", out.name, out.timing_summary());
        outcomes.push_str(&out.outcomes_jsonl);
        counters.push_str(&out.counters_jsonl());
    }
    export(
        "results",
        &[
            ("sweep_outcomes.jsonl", &outcomes),
            ("sweep_counters.jsonl", &counters),
        ],
    )
    .expect("write results/");
}

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Opts {
    scale: Scale,
    threads: usize,
    compare_threads: Option<usize>,
}

/// The flags `paper_tables` takes: the standard pair plus
/// `--compare-threads N`.
const FLAGS: [Flag; 3] = [
    sweep::QUICK,
    sweep::THREADS,
    Flag::Count("--compare-threads"),
];

/// Parses the command line with the shared example parser; every
/// argument must be a known flag, and `--threads` / `--compare-threads`
/// take a count either as the next argument or after `=`.
fn parse_args(args: &[String]) -> Result<Opts, String> {
    let cli = sweep::parse_args(args, &FLAGS)?;
    let compare_threads = cli.count("--compare-threads");
    if compare_threads == Some(0) {
        return Err("--compare-threads must be at least 1".to_string());
    }
    Ok(Opts {
        scale: cli.scale(),
        threads: cli.threads(),
        compare_threads,
    })
}

/// Runs every scenario serially and then with `threads` workers,
/// asserts byte-identical output, and prints the speedup.
fn compare(scale: Scale, threads: usize) {
    let run_all = |threads: usize| -> (Vec<SweepOutput>, f64) {
        let start = Instant::now();
        let outputs = sweep::run_pool(&sweep::all_scenarios(scale), threads);
        (outputs, start.elapsed().as_secs_f64())
    };

    println!("sweep comparison at scale={}", scale.label());
    let (serial, serial_wall) = run_all(1);
    let (parallel, parallel_wall) = run_all(threads);

    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(
            a.text, b.text,
            "[{}] parallel report text diverged from serial",
            a.name
        );
        assert_eq!(
            a.outcomes_jsonl, b.outcomes_jsonl,
            "[{}] parallel outcome export diverged from serial",
            a.name
        );
        println!("[{}] per-cell timing ({threads} threads):", b.name);
        println!("{}", b.timing_summary());
    }
    let cells: usize = serial.iter().map(|o| o.stats.len()).sum();
    println!(
        "{cells} cells: serial {serial_wall:.2}s, {threads} threads {parallel_wall:.2}s \
         -> speedup {:.2}x (outputs byte-identical)",
        serial_wall / parallel_wall
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_to_a_serial_full_scale_run() {
        let opts = parse(&[]).unwrap();
        assert_eq!(
            opts,
            Opts {
                scale: Scale::Full,
                threads: 1,
                compare_threads: None
            }
        );
    }

    #[test]
    fn compare_threads_takes_a_separate_or_inline_count() {
        assert_eq!(
            parse(&["--quick", "--compare-threads", "4"])
                .unwrap()
                .compare_threads,
            Some(4)
        );
        let opts = parse(&["--compare-threads=3"]).unwrap();
        assert_eq!(opts.compare_threads, Some(3));
        assert_eq!(opts.scale, Scale::Full);
    }

    #[test]
    fn malformed_compare_threads_is_rejected() {
        for bad in [
            &["--compare-threads", "bogus"][..],
            &["--compare-threads=bogus"],
            &["--compare-threads"],
            &["--compare-threads", "0"],
            &["--compare-threads", "-2"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn threads_takes_a_count() {
        assert_eq!(parse(&["--threads", "8"]).unwrap().threads, 8);
        assert_eq!(parse(&["--threads=2"]).unwrap().threads, 2);
        assert!(parse(&["--threads", "many"]).is_err());
        assert!(parse(&["--threads"]).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected() {
        for bad in [&["--no-cache"][..], &["--quik"], &["quick"], &["--quick=1"]] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }
}
