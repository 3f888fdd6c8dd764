//! The benchmark's metrics: names, units, and how each is computed from
//! a run's repetitions.

use std::collections::BTreeMap;

use crate::stats::median;
use crate::workloads::{Counts, Rep};

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, matching `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit, such as `s` or `count`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn med(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics: host-time medians over `reps`, the process's
/// peak resident memory, and the simulated victim results (identical in
/// every repetition of a seed).
///
/// # Panics
///
/// Panics if `reps` is empty.
pub fn end_to_end(reps: &[Rep], peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        metric("wall_s", "s", med(reps, |r| r.wall_s)),
        metric("setup_s", "s", med(reps, |r| r.setup_s)),
        metric("run_s", "s", med(reps, |r| r.run_s)),
        metric("export_s", "s", med(reps, |r| r.export_s)),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("victim_p99_ms", "ms", reps[0].victim_p99_ms),
        metric(
            "victim_slo_miss_frac",
            "ratio",
            reps[0].victim_slo_miss_frac,
        ),
    ]
}

/// Every span the repetitions open. A leaf's self time is reported as
/// `<span>_s`; a parent's as `<span>.self_s`; the root's as
/// `trace.uncovered_s`, the part of `wall_s` no layer span covers.
pub const SPANS: [&str; 21] = [
    "rep",
    "setup",
    "config",
    "kernel.boot",
    "sim.arrivals",
    "workloads.program",
    "workloads.pmake_build",
    "workloads.spawn_stream",
    "kernel.spawn",
    "kernel.run",
    "export",
    "export.metrics_jsonl",
    "export.counters_jsonl",
    "export.series_jsonl",
    "export.interference_jsonl",
    "export.slo_jsonl",
    "export.requests_jsonl",
    "export.interference_matrix_json",
    "export.chrome_trace_json",
    "check",
    "teardown",
];

/// The metric name that carries a span's self time.
pub fn span_metric(span: &str) -> String {
    match span {
        "rep" => "trace.uncovered_s".to_string(),
        "setup" | "export" => format!("{span}.self_s"),
        _ => format!("{span}_s"),
    }
}

/// `num / den` in nanoseconds per operation, or 0 when nothing was
/// counted.
fn ns_per(secs: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        secs * 1e9 / ops as f64
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One traced repetition with its per-span self times in seconds.
pub struct Traced {
    /// The repetition.
    pub rep: Rep,
    /// Self time per span name.
    pub self_s: BTreeMap<&'static str, f64>,
}

impl Traced {
    fn span(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }
}

/// The per-layer metrics: self time per span, cost per operation, the
/// run's counts, and the overheads of tracing (traced vs `untraced`
/// wall time) and of observability (`untraced` vs `obsv_off` run time).
///
/// # Panics
///
/// Panics if any slice is empty.
pub fn per_layer(traced: &[Traced], untraced: &[Rep], obsv_off: &[Rep]) -> Vec<Metric> {
    let tmed = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let c: &Counts = &traced[0].rep.counts;
    let mut out: Vec<Metric> = SPANS
        .iter()
        .map(|&s| metric(span_metric(s), "s", tmed(&|t| t.span(s))))
        .collect();
    let spawn_s = |t: &Traced| t.span("kernel.spawn") + t.span("workloads.spawn_stream");
    out.extend([
        metric(
            "kernel.boot_ns_per_frame",
            "ns",
            tmed(&|t| ns_per(t.span("kernel.boot"), c.frames)),
        ),
        metric(
            "kernel.spawn_ns_per_proc",
            "ns",
            tmed(&|t| ns_per(spawn_s(t), c.spawned)),
        ),
        metric(
            "sim.arrivals_ns_per_arrival",
            "ns",
            tmed(&|t| ns_per(t.span("sim.arrivals"), c.arrivals)),
        ),
        metric(
            "run.ns_per_dispatch",
            "ns",
            tmed(&|t| ns_per(t.rep.run_s, c.dispatches)),
        ),
        metric(
            "run.ns_per_start",
            "ns",
            tmed(&|t| ns_per(t.rep.run_s, c.spawned)),
        ),
        metric(
            "run.ns_per_major_fault",
            "ns",
            tmed(&|t| ns_per(t.rep.run_s, c.major_faults)),
        ),
        metric(
            "run.ns_per_disk_request",
            "ns",
            tmed(&|t| ns_per(t.rep.run_s, c.disk_requests)),
        ),
        metric(
            "run.ns_per_audit_check",
            "ns",
            tmed(&|t| ns_per(t.rep.run_s, c.audit_checks)),
        ),
        metric(
            "export.chrome_ns_per_event",
            "ns",
            tmed(&|t| ns_per(t.span("export.chrome_trace_json"), c.trace_events)),
        ),
        metric("export.bytes", "bytes", c.export_bytes as f64),
        metric("sched.dispatches", "count", c.dispatches as f64),
        metric("sched.loans", "count", c.loans as f64),
        metric("sched.ipis", "count", c.ipis as f64),
        metric("sched.preemptions", "count", c.preemptions as f64),
        metric("vm.major_faults", "count", c.major_faults as f64),
        metric("vm.swap_outs", "count", c.swap_outs as f64),
        metric("vm.denials", "count", c.denials as f64),
        metric("disk.requests", "count", c.disk_requests as f64),
        metric("audit.checks", "count", c.audit_checks as f64),
        metric(
            "cache.hit_ratio",
            "ratio",
            ratio(c.cache_hits, c.cache_hits + c.cache_misses),
        ),
        metric(
            "locks.contended_ratio",
            "ratio",
            ratio(c.lock_contended, c.lock_acquires),
        ),
        metric(
            "obsv.overhead_ratio",
            "ratio",
            med(untraced, |r| r.run_s) / med(obsv_off, |r| r.run_s),
        ),
        metric(
            "trace.overhead_s",
            "s",
            tmed(&|t| t.rep.wall_s) - med(untraced, |r| r.wall_s),
        ),
    ]);
    out
}
