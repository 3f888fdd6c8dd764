//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Repeats one workload, built from `--seed`, for `--seconds` of host
//! time, checks every repetition, prints each metric as
//! `metric <name> <value> <unit>` and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured in
//! child processes run one after another until the budget is spent; each
//! child times one repetition, and [`across_children`] folds them. On a
//! shared virtual machine host time differs between processes as well as
//! over time, so a single process would report its own luck, not the
//! program.
//!
//! With `--trace 1` the metrics are the per-layer ones, measured in this
//! process: repetitions rotate through traced, untraced and
//! observability-off runs, and the traced repetitions' spans are written
//! to `.bench_out/spans-<workload>-<seed>.jsonl`.

use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use perfbench::layers::LAYERS;
use perfbench::metrics::{end_to_end, per_layer, Metric, Traced};
use perfbench::spans::Recorder;
use perfbench::stats::median;
use perfbench::workloads::{rep, Obsv, Rep, Size, Workload};

/// Fewest timed repetitions of each kind in a traced run.
const MIN_TRACED_REPS: usize = 3;

/// Fewest child processes in an untraced run.
const MIN_CHILDREN: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Set in a child process, which times one repetition.
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<Option<&str>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or(format!("{flag} needs a value")),
        }
    };
    let need = |flag: &str| get(flag)?.ok_or(format!("missing {flag}"));
    let workload = need("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = need("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = need("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match need("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let child = argv.iter().any(|a| a == "--child");
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        child,
    })
}

/// Peak resident set of this process in MB, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A repetition's failures: its own gate, plus any difference from the
/// reference repetition's simulated results.
fn failures(r: &Rep, reference: &Rep) -> Vec<String> {
    let mut out = r.failures.clone();
    if r.digests != reference.digests {
        out.push("exports differ from the first repetition".to_string());
    }
    if r.counts != reference.counts
        || r.victim_p99_ms != reference.victim_p99_ms
        || r.victim_slo_miss_frac != reference.victim_slo_miss_frac
    {
        out.push("simulated results differ from the first repetition".to_string());
    }
    out
}

/// Everything one process measured.
struct Measured {
    /// The first timed repetition with observability on; every later one
    /// must reproduce its simulated results.
    reference: Rep,
    untraced: Vec<Rep>,
    traced: Vec<Traced>,
    obsv_off: Vec<Rep>,
    spans: Recorder,
    attempted: usize,
    failed: usize,
}

/// Runs a short warm-up repetition (checked, not timed), then timed
/// repetitions until `budget` has passed and each kind has `min_reps`.
/// Traced runs rotate through traced, untraced and observability-off
/// repetitions, so host drift hits each kind alike.
fn measure(w: Workload, seed: u64, budget: Duration, trace: bool, min_reps: usize) -> Measured {
    let warm = rep(w, seed, Size::Short, Obsv::On, &mut Recorder::new(false));
    let mut attempted = 1;
    let mut failed = usize::from(!warm.failures.is_empty());
    for f in &warm.failures {
        eprintln!("perfbench: warm-up failed: {f}");
    }
    let mut spans = Recorder::new(trace);
    let mut reference: Option<Rep> = None;
    let (mut untraced, mut traced, mut obsv_off) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    for i in 0.. {
        let enough = if trace {
            untraced.len().min(traced.len()).min(obsv_off.len()) >= min_reps
        } else {
            untraced.len() >= min_reps
        };
        if enough && start.elapsed() >= budget {
            break;
        }
        let kind = if trace { i % 3 } else { 0 };
        let obsv = if kind == 2 { Obsv::Off } else { Obsv::On };
        attempted += 1;
        let (r, self_s) = if kind == 1 {
            let mark = spans.mark();
            let r = rep(w, seed, Size::Full, obsv, &mut spans);
            (r, Some(spans.self_times(mark)))
        } else {
            (
                rep(w, seed, Size::Full, obsv, &mut Recorder::new(false)),
                None,
            )
        };
        // Observability-off repetitions render different exports; they
        // pass on their own gate.
        let errs = match (obsv, &reference) {
            (Obsv::Off, _) => r.failures.clone(),
            (Obsv::On, Some(reference)) => failures(&r, reference),
            (Obsv::On, None) => {
                reference = Some(r.clone());
                r.failures.clone()
            }
        };
        if !errs.is_empty() {
            failed += 1;
            for e in &errs {
                eprintln!("perfbench: repetition {i} failed: {e}");
            }
        }
        match (self_s, obsv) {
            (Some(self_s), _) => traced.push(Traced { rep: r, self_s }),
            (None, Obsv::Off) => obsv_off.push(r),
            (None, Obsv::On) => untraced.push(r),
        }
    }
    Measured {
        reference: reference.expect("at least one repetition with observability on"),
        untraced,
        traced,
        obsv_off,
        spans,
        attempted,
        failed,
    }
}

fn digest_lines(w: Workload, r: &Rep) -> Vec<String> {
    let mut out: Vec<String> = r
        .digests
        .iter()
        .map(|(name, d)| format!("digest {} {name} {d:016x}", w.name()))
        .collect();
    out.push(format!("digest {} all {:016x}", w.name(), r.digest()));
    out
}

fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    )
}

fn print_result(lines: &[String], metrics: &[Metric], attempted: usize, failed: usize) {
    for l in lines {
        println!("{l}");
    }
    for m in metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(failed == 0, attempted, failed, metrics));
}

/// A child process: one timed repetition after the warm-up, reported as
/// lines the parent parses.
fn child(args: &Args) -> Result<(), String> {
    let m = measure(args.workload, args.seed, Duration::ZERO, false, 1);
    let metrics = end_to_end(&m.untraced, peak_rss_mb()?);
    for l in digest_lines(args.workload, &m.reference) {
        println!("{l}");
    }
    println!("child {} {}", m.attempted, m.failed);
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    Ok(())
}

/// One child's report.
struct ChildReport {
    digests: Vec<String>,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

fn parse_child(stdout: &str) -> Result<ChildReport, String> {
    let mut report = ChildReport {
        digests: Vec::new(),
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
    };
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("bad child line {line:?}");
        match f.as_slice() {
            ["digest", ..] => report.digests.push(line.to_string()),
            ["child", a, b] => {
                report.attempted = a.parse().map_err(|_| bad())?;
                report.failed = b.parse().map_err(|_| bad())?;
            }
            ["metric", name, value, unit] => {
                let unit = ["s", "MB", "ms", "ratio"]
                    .into_iter()
                    .find(|u| u == unit)
                    .ok_or_else(bad)?;
                report.metrics.push(Metric {
                    name: name.to_string(),
                    unit,
                    value: value.parse().map_err(|_| bad())?,
                });
            }
            _ => return Err(bad()),
        }
    }
    Ok(report)
}

/// Folds one metric's per-child values into the run's value.
///
/// Other tenants of the host only ever add host time. On the host this
/// benchmark was built on, a process runs either fast or 30-70% slower
/// for its whole life, and the share of slow processes comes and goes
/// over minutes: the median over a run's children moved by 20% and more
/// between runs, while the fastest child stayed within a few percent. So
/// `wall_s`, `run_s` and `export_s` are the fastest child's. `setup_s`
/// stays the median over children, so that work moved into set-up shows
/// however noisy the host; the other metrics barely differ between
/// children.
fn across_children(name: &str, values: &[f64]) -> f64 {
    match name {
        "wall_s" | "run_s" | "export_s" => values.iter().copied().fold(f64::INFINITY, f64::min),
        _ => median(values),
    }
}

/// The untraced run: child processes one after another until the budget
/// is spent; see [`across_children`] for how their values combine.
fn forked(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reports = Vec::new();
    while reports.len() < MIN_CHILDREN || start.elapsed() < budget {
        let out = Command::new(&exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0", "--child"])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("starting a child: {e}"))?;
        if !out.status.success() {
            return Err(format!("a child exited with {}", out.status));
        }
        reports.push(parse_child(&String::from_utf8_lossy(&out.stdout))?);
    }
    let first = &reports[0];
    let mut attempted = 0;
    let mut failed = 0;
    for r in &reports {
        attempted += r.attempted;
        failed += r.failed;
        let sim = |r: &ChildReport| -> Vec<f64> {
            r.metrics
                .iter()
                .filter(|m| m.name.starts_with("victim_"))
                .map(|m| m.value)
                .collect()
        };
        if r.digests != first.digests || sim(r) != sim(first) {
            eprintln!("perfbench: children disagree on the simulated results");
            failed += 1;
        }
    }
    let metrics: Vec<Metric> = first
        .metrics
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = reports.iter().map(|r| r.metrics[i].value).collect();
            Metric {
                value: across_children(&m.name, &values),
                ..m.clone()
            }
        })
        .collect();
    let mut lines = first.digests.clone();
    lines.push(format!(
        "reps {} children {} attempted {attempted}",
        args.workload.name(),
        reports.len()
    ));
    print_result(&lines, &metrics, attempted, failed);
    Ok(())
}

/// The traced run, in this process.
fn traced(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let m = measure(w, args.seed, budget, true, MIN_TRACED_REPS);
    let run_id = format!("{}-{}-{}", w.name(), args.seed, std::process::id());
    let path = format!(".bench_out/spans-{}-{}.jsonl", w.name(), args.seed);
    std::fs::create_dir_all(".bench_out")
        .and_then(|()| std::fs::write(&path, m.spans.to_jsonl(&run_id)))
        .map_err(|e| format!("writing {path}: {e}"))?;
    let mut lines = digest_lines(w, &m.reference);
    lines.push(format!(
        "spans {path} ({} spans, run {run_id}); reps traced {} untraced {} obsv-off {}",
        m.spans.spans().len(),
        m.traced.len(),
        m.untraced.len(),
        m.obsv_off.len()
    ));
    for row in LAYERS {
        lines.push(format!(
            "layer {:?} metrics {} moves {} on {}",
            row.layer,
            row.metrics.join(","),
            row.moves.join(","),
            row.on
        ));
    }
    let metrics = per_layer(&m.traced, &m.untraced, &m.obsv_off);
    print_result(&lines, &metrics, m.attempted, m.failed);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paging_io|scale512> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = match (args.child, args.trace) {
        (true, _) => child(&args),
        (false, false) => forked(&args),
        (false, true) => traced(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
