//! The unified Scenario API and deterministic parallel sweep engine.
//!
//! Every experiment matrix in this crate — the paper's figures and
//! tables as well as the extensions — is a *sweep*: a set of
//! independent simulation cells (scheme × configuration, policy ×
//! workload, …) whose outcomes are reduced into one report. The
//! [`Scenario`] trait captures that shape once, and [`run_scenario`]
//! executes any scenario with:
//!
//! * **Parallel fan-out** — cells are distributed over a scoped
//!   `std::thread` worker pool (the `threads` argument). Each cell is
//!   an isolated deterministic simulation, so cells can run in any
//!   order on any thread.
//! * **Deterministic merge** — outcomes land in a slot indexed by the
//!   cell's position in [`Scenario::cells`]'s declared order, never in
//!   completion order. Reduction and rendering therefore see exactly
//!   the sequence a serial run would produce, making parallel output
//!   *byte-identical* to serial output.
//! * **Per-cell counters** — wall-clock per cell is reported through
//!   the existing `obsv` counter registry and its JSONL exporter
//!   ([`SweepRun::counters_jsonl`]).
//!
//! Every cell is simulated on every run: nothing is cached, so every
//! number comes from the code as it stands.
//!
//! # Examples
//!
//! ```no_run
//! use experiments::sweep::all_scenarios;
//! use experiments::Scale;
//!
//! for s in all_scenarios(Scale::Quick) {
//!     let out = s.run_boxed(4);
//!     println!("{}", out.text);
//! }
//! ```

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use smp_kernel::export::{json_escape, json_num};
use smp_kernel::{CounterRegistry, ObsvReport};

use crate::Scale;

// ---------------------------------------------------------------------------
// Outcome values
// ---------------------------------------------------------------------------

/// A structured cell outcome: the closed data model every [`Outcome`]
/// encodes into for the JSON export stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A float.
    F(f64),
    /// An unsigned integer.
    U(u64),
    /// A boolean.
    B(bool),
    /// A string.
    S(String),
    /// An ordered list.
    L(Vec<Value>),
}

impl Value {
    /// Builds a list value.
    pub fn list(items: Vec<Value>) -> Value {
        Value::L(items)
    }

    /// The float inside, if this is a float.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F(x) => Some(*x),
            _ => None,
        }
    }

    /// The integer inside, if this is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U(x) => Some(*x),
            _ => None,
        }
    }

    /// The items inside, if this is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::L(items) => Some(items),
            _ => None,
        }
    }

    /// JSON rendering, for the sweep's outcome export stream. Floats go
    /// through [`json_num`] (non-finite → `null`); the decimal form
    /// round-trips (Rust's shortest-representation `Display`).
    pub fn to_json(&self) -> String {
        match self {
            Value::F(x) => json_num(*x),
            Value::U(x) => x.to_string(),
            Value::B(x) => x.to_string(),
            Value::S(s) => format!("\"{}\"", json_escape(s)),
            Value::L(items) => {
                let inner: Vec<String> = items.iter().map(Value::to_json).collect();
                format!("[{}]", inner.join(","))
            }
        }
    }
}

/// A cell outcome that the sweep exports, one JSON line per cell.
pub trait Outcome: Send + 'static {
    /// Encodes the outcome as a [`Value`].
    fn encode(&self) -> Value;
}

impl Outcome for f64 {
    fn encode(&self) -> Value {
        Value::F(*self)
    }
}

impl Outcome for String {
    fn encode(&self) -> Value {
        Value::S(self.clone())
    }
}

/// [`Value`] is its own outcome — the escape hatch for scenarios whose
/// cells measure different things (e.g. the ablation matrix).
impl Outcome for Value {
    fn encode(&self) -> Value {
        self.clone()
    }
}

// ---------------------------------------------------------------------------
// The Scenario trait
// ---------------------------------------------------------------------------

/// One experiment matrix: a named set of independent cells and a
/// reduction of their outcomes into a report.
///
/// Implementations must keep two properties the engine builds on:
///
/// 1. **Cell independence** — [`run_cell`](Self::run_cell) reads only
///    `self` and the cell; cells may run concurrently in any order.
/// 2. **Determinism** — equal cells produce equal outcomes (the
///    simulations are pure functions of their inputs).
pub trait Scenario {
    /// One point of the matrix.
    type Cell: Send + Sync + 'static;
    /// The measurement a cell produces.
    type Outcome: Outcome;
    /// The reduced result (usually an existing `*Result` type).
    type Report;

    /// Stable scenario name (the `scenario` field of the export).
    fn name(&self) -> &'static str;

    /// The cells in their canonical (declared) order. The merge order —
    /// and therefore all rendered output — follows this order exactly.
    fn cells(&self) -> Vec<Self::Cell>;

    /// A short, unique key for a cell (e.g. `"piso-unbalanced"`).
    fn cell_key(&self, cell: &Self::Cell) -> String;

    /// Runs one cell to its outcome.
    fn run_cell(&self, cell: &Self::Cell) -> Self::Outcome;

    /// Reduces the outcomes (in [`cells`](Self::cells) order) to the
    /// report.
    fn reduce(&self, outcomes: Vec<Self::Outcome>) -> Self::Report;
}

/// A report that can be rendered for humans — required for the
/// type-erased [`AnyScenario`] driver.
pub trait Render {
    /// The text tables / figures for this report.
    fn render(&self) -> String;
}

// ---------------------------------------------------------------------------
// Run products
// ---------------------------------------------------------------------------

/// Wall-clock accounting for one executed cell.
#[derive(Clone, Debug)]
pub struct CellStat {
    /// The cell's key.
    pub key: String,
    /// Wall-clock time spent simulating the cell.
    pub wall: Duration,
}

/// The product of [`run_scenario`]: the reduced report plus per-cell
/// accounting and the deterministic outcome export.
#[derive(Clone, Debug)]
pub struct SweepRun<R> {
    /// The scenario's reduced report.
    pub report: R,
    /// Per-cell stats in cell order. Wall-clock values vary run to run;
    /// they never feed the report or the JSONL export.
    pub stats: Vec<CellStat>,
    /// One JSON line per cell (`scenario`, `cell`, `outcome`) in cell
    /// order — deterministic, byte-identical however the sweep ran.
    pub outcomes_jsonl: String,
}

impl<R> SweepRun<R> {
    /// Sweep counters through the existing `obsv` registry: total cells,
    /// total and per-cell wall-clock (µs).
    pub fn counters(&self) -> CounterRegistry {
        stats_counters(&self.stats)
    }

    /// The counters as JSONL via the existing exporter
    /// ([`smp_kernel::counters_jsonl`]).
    pub fn counters_jsonl(&self) -> String {
        stats_counters_jsonl(&self.stats)
    }

    /// Human-readable per-cell timing lines (wall-clock is
    /// run-dependent; for logs and CI, not for result files).
    pub fn timing_summary(&self) -> String {
        stats_timing_summary(&self.stats)
    }
}

fn stats_counters(stats: &[CellStat]) -> CounterRegistry {
    let mut c = CounterRegistry::new();
    c.set("sweep.cells", stats.len() as u64);
    let total: Duration = stats.iter().map(|s| s.wall).sum();
    c.set("sweep.wall_us", total.as_micros() as u64);
    for s in stats {
        c.set(
            &format!("sweep.cell.{}.wall_us", s.key),
            s.wall.as_micros() as u64,
        );
    }
    c
}

fn stats_counters_jsonl(stats: &[CellStat]) -> String {
    let report = ObsvReport {
        counters: stats_counters(stats),
        ..ObsvReport::default()
    };
    smp_kernel::counters_jsonl(&report)
}

fn stats_timing_summary(stats: &[CellStat]) -> String {
    let mut out = String::new();
    let total: Duration = stats.iter().map(|s| s.wall).sum();
    for s in stats {
        out.push_str(&format!(
            "  {:<28} {:>9.1} ms\n",
            s.key,
            s.wall.as_secs_f64() * 1e3
        ));
    }
    out.push_str(&format!(
        "  {:<28} {:>9.1} ms  ({} cells)\n",
        "total",
        total.as_secs_f64() * 1e3,
        stats.len()
    ));
    out
}

// ---------------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------------

/// The scenario's cell keys in declared order.
///
/// # Panics
///
/// Panics if two cells share a key.
fn cell_keys<S: Scenario>(scenario: &S, cells: &[S::Cell]) -> Vec<String> {
    let keys: Vec<String> = cells.iter().map(|c| scenario.cell_key(c)).collect();
    for (i, k) in keys.iter().enumerate() {
        assert!(
            !keys[..i].contains(k),
            "scenario {}: duplicate cell key {k:?}",
            scenario.name()
        );
    }
    keys
}

/// Runs jobs `0..n` on up to `threads` scoped workers (0 or 1 runs them
/// serially on the calling thread) and returns each job's result with
/// its wall-clock, in job order whatever order they finished in.
fn fan_out<T: Send>(
    n: usize,
    threads: usize,
    job: impl Fn(usize) -> T + Sync,
) -> Vec<(T, Duration)> {
    let timed = |i| {
        let start = Instant::now();
        let out = job(i);
        (out, start.elapsed())
    };
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        return (0..n).map(timed).collect();
    }
    let slots: Vec<Mutex<Option<(T, Duration)>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().expect("no worker panics holding a slot") = Some(timed(i));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("no worker panics holding a slot")
                .expect("worker filled every slot")
        })
        .collect()
}

/// Merges timed outcomes (in declared cell order) into the report, the
/// per-cell stats and the outcome export.
fn merge<S: Scenario>(
    scenario: &S,
    keys: Vec<String>,
    timed: impl IntoIterator<Item = (S::Outcome, Duration)>,
) -> SweepRun<S::Report> {
    let name = scenario.name();
    let mut outcomes = Vec::with_capacity(keys.len());
    let mut stats = Vec::with_capacity(keys.len());
    let mut outcomes_jsonl = String::new();
    for ((outcome, wall), key) in timed.into_iter().zip(keys) {
        outcomes_jsonl.push_str(&format!(
            "{{\"scenario\":\"{}\",\"cell\":\"{}\",\"outcome\":{}}}\n",
            json_escape(name),
            json_escape(&key),
            outcome.encode().to_json()
        ));
        outcomes.push(outcome);
        stats.push(CellStat { key, wall });
    }
    SweepRun {
        report: scenario.reduce(outcomes),
        stats,
        outcomes_jsonl,
    }
}

/// Executes a scenario on `threads` workers and reduces it to its
/// report.
///
/// Output is byte-identical for any thread count: outcomes merge in
/// declared cell order, and wall-clock only ever lands in
/// [`SweepRun::stats`].
///
/// # Panics
///
/// Panics if two cells share a key, or if a worker panics (cell
/// assertion failures propagate).
pub fn run_scenario<S>(scenario: &S, threads: usize) -> SweepRun<S::Report>
where
    S: Scenario + Sync,
{
    let cells = scenario.cells();
    let keys = cell_keys(scenario, &cells);
    let timed = fan_out(cells.len(), threads, |i| scenario.run_cell(&cells[i]));
    merge(scenario, keys, timed)
}

// ---------------------------------------------------------------------------
// Type-erased scenarios for uniform drivers
// ---------------------------------------------------------------------------

/// The type-erased product of a sweep: what a generic driver (the
/// `paper_tables` example, the determinism tests, CI) consumes.
#[derive(Clone, Debug)]
pub struct SweepOutput {
    /// The scenario's name.
    pub name: &'static str,
    /// The rendered report ([`Render::render`]).
    pub text: String,
    /// The deterministic per-cell outcome export
    /// ([`SweepRun::outcomes_jsonl`]).
    pub outcomes_jsonl: String,
    /// Per-cell stats in cell order.
    pub stats: Vec<CellStat>,
}

impl SweepOutput {
    /// The counters as JSONL via [`smp_kernel::counters_jsonl`].
    pub fn counters_jsonl(&self) -> String {
        stats_counters_jsonl(&self.stats)
    }

    /// Human-readable per-cell timing lines.
    pub fn timing_summary(&self) -> String {
        stats_timing_summary(&self.stats)
    }
}

/// A cell outcome with its concrete type erased, so cells of different
/// scenarios can share one worker pool. [`AnyScenario::assemble`]
/// downcasts it back to the scenario's [`Scenario::Outcome`].
pub type ErasedOutcome = Box<dyn Any + Send>;

/// One type-erased, ready-to-run cell: simulates the cell and returns
/// its outcome. Produced by [`AnyScenario::erased_jobs`], consumed by
/// [`run_pool`].
pub type ErasedJob<'s> = Box<dyn Fn() -> ErasedOutcome + Send + Sync + 's>;

/// Object-safe face of [`Scenario`], for heterogeneous scenario lists.
/// Blanket-implemented for every `Scenario` whose report is
/// [`Render`]able.
pub trait AnyScenario: Sync {
    /// The scenario's stable name.
    fn scenario_name(&self) -> &'static str;

    /// How many cells the scenario fans out.
    fn cell_count(&self) -> usize;

    /// Runs the sweep on `threads` workers and renders the report.
    fn run_boxed(&self, threads: usize) -> SweepOutput;

    /// The scenario's cells as self-contained jobs, in declared order.
    ///
    /// # Panics
    ///
    /// Panics if two cells share a key (same contract as
    /// [`run_scenario`]).
    fn erased_jobs(&self) -> Vec<ErasedJob<'_>>;

    /// Rebuilds the full [`SweepOutput`] from the jobs' results, handed
    /// back in the same declared order.
    ///
    /// # Panics
    ///
    /// Panics if a result is not this scenario's outcome type.
    fn assemble(&self, results: Vec<(ErasedOutcome, Duration)>) -> SweepOutput;
}

impl<S> AnyScenario for S
where
    S: Scenario + Sync,
    S::Report: Render,
{
    fn scenario_name(&self) -> &'static str {
        self.name()
    }

    fn cell_count(&self) -> usize {
        self.cells().len()
    }

    fn run_boxed(&self, threads: usize) -> SweepOutput {
        render(self, run_scenario(self, threads))
    }

    fn erased_jobs(&self) -> Vec<ErasedJob<'_>> {
        let cells = self.cells();
        // Reject duplicate keys before any cell runs.
        cell_keys(self, &cells);
        cells
            .into_iter()
            .map(|cell| {
                Box::new(move || Box::new(self.run_cell(&cell)) as ErasedOutcome) as ErasedJob
            })
            .collect()
    }

    fn assemble(&self, results: Vec<(ErasedOutcome, Duration)>) -> SweepOutput {
        let keys = cell_keys(self, &self.cells());
        assert_eq!(
            results.len(),
            keys.len(),
            "scenario {}: one result per cell",
            self.name()
        );
        let timed = results.into_iter().map(|(outcome, wall)| {
            let outcome = outcome
                .downcast::<S::Outcome>()
                .expect("erased outcome is the scenario's outcome type");
            (*outcome, wall)
        });
        render(self, merge(self, keys, timed))
    }
}

fn render<S: Scenario>(scenario: &S, run: SweepRun<S::Report>) -> SweepOutput
where
    S::Report: Render,
{
    SweepOutput {
        name: scenario.name(),
        text: run.report.render(),
        outcomes_jsonl: run.outcomes_jsonl,
        stats: run.stats,
    }
}

/// Runs many scenarios' cells through **one** worker pool of `threads`
/// workers.
///
/// Byte-for-byte equivalent to calling [`AnyScenario::run_boxed`] on
/// each scenario in turn, but without a barrier between matrices:
/// workers drain a single global work list, so the wall-clock floor is
/// the longest *cell*, not the longest *matrix*. Outcomes cross the
/// pool as [`ErasedOutcome`]s and are reassembled per scenario in
/// declared cell order.
pub fn run_pool(scenarios: &[Box<dyn AnyScenario>], threads: usize) -> Vec<SweepOutput> {
    let per_scenario: Vec<Vec<ErasedJob>> = scenarios.iter().map(|s| s.erased_jobs()).collect();
    let flat: Vec<&ErasedJob> = per_scenario.iter().flatten().collect();
    let mut timed = fan_out(flat.len(), threads, |i| flat[i]()).into_iter();
    scenarios
        .iter()
        .zip(&per_scenario)
        .map(|(scenario, jobs)| scenario.assemble(timed.by_ref().take(jobs.len()).collect()))
        .collect()
}

/// Every harness in this crate as a type-erased scenario, in the order
/// the paper presents its artefacts. This is the matrix the
/// `paper_tables` example and the determinism tests drive.
pub fn all_scenarios(scale: Scale) -> Vec<Box<dyn AnyScenario>> {
    vec![
        Box::new(crate::tables::TablesScenario),
        Box::new(crate::pmake8::Pmake8Scenario { scale }),
        Box::new(crate::cpu_iso::CpuIsoScenario { scale }),
        Box::new(crate::mem_iso::MemIsoScenario { scale }),
        Box::new(crate::disk_bw::DiskBwScenario::both(scale)),
        Box::new(crate::fault_isolation::FaultIsolationScenario { scale }),
        Box::new(crate::lock_leakage::LockLeakageScenario { scale }),
        Box::new(crate::net_bw::NetBwScenario { scale }),
        Box::new(crate::scaling::ScalingScenario::standard(scale)),
        Box::new(crate::ablation::AblationScenario::standard(scale)),
        Box::new(crate::overload::OverloadScenario::seed(scale)),
        Box::new(crate::consolidation::ConsolidationScenario::seed(scale)),
    ]
}

/// The `core` bench's end-to-end matrix: identical to [`all_scenarios`]
/// except the overload matrix runs at its shrunk bench-tier horizon —
/// same scheme × policy × load shape, a quarter of the arrivals. The
/// quick-scale overload cells dominated the tracked sweep's wall clock
/// while contributing no extra coverage to the perf baseline; the
/// `paper_tables` exports keep using [`all_scenarios`] unchanged.
pub fn bench_scenarios(scale: Scale) -> Vec<Box<dyn AnyScenario>> {
    let mut v = all_scenarios(scale);
    let i = v
        .iter()
        .position(|s| s.scenario_name() == "overload")
        .expect("overload scenario present");
    v[i] = Box::new(crate::overload::OverloadScenario::bench(scale));
    v
}

// ---------------------------------------------------------------------------
// Example command lines
// ---------------------------------------------------------------------------

/// A command-line flag an example accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flag {
    /// A bare switch, e.g. `--quick`.
    Switch(&'static str),
    /// A non-negative count, as the next argument or after `=`.
    Count(&'static str),
    /// Free text (e.g. a path), as the next argument or after `=`.
    Text(&'static str),
}

impl Flag {
    /// The flag as typed, e.g. `"--threads"`.
    pub const fn name(self) -> &'static str {
        match self {
            Flag::Switch(n) | Flag::Count(n) | Flag::Text(n) => n,
        }
    }
}

/// `--quick`: run at [`Scale::Quick`] (see [`Cli::scale`]).
pub const QUICK: Flag = Flag::Switch("--quick");
/// `--threads N`: sweep worker-pool size (see [`Cli::threads`]).
pub const THREADS: Flag = Flag::Count("--threads");
/// The flags every experiment example takes.
pub const STANDARD: [Flag; 2] = [QUICK, THREADS];

/// A parsed example command line: the flags given, in order, with
/// their values (`None` for switches). Counts were checked at parse
/// time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cli {
    given: Vec<(&'static str, Option<String>)>,
}

impl Cli {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == flag)
    }

    /// The last value given for `flag`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find(|(n, _)| *n == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The last count given for the [`Flag::Count`] `flag`.
    pub fn count(&self, flag: &str) -> Option<usize> {
        self.value(flag)
            .map(|v| v.parse().expect("counts are checked when parsed"))
    }

    /// [`Scale::Quick`] with `--quick`, else [`Scale::Full`].
    pub fn scale(&self) -> Scale {
        if self.has(QUICK.name()) {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// The `--threads` count; 1 (serial) by default.
    pub fn threads(&self) -> usize {
        self.count(THREADS.name()).unwrap_or(1)
    }
}

/// Parses an example's arguments (program name excluded) against the
/// `flags` it accepts. Every argument must be one of them; a switch
/// takes no value, and a count must parse as one.
pub fn parse_args(args: &[String], flags: &[Flag]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        let unknown = || format!("unknown argument {arg:?}");
        let flag = *flags
            .iter()
            .find(|f| f.name() == name)
            .ok_or_else(unknown)?;
        let value = match flag {
            Flag::Switch(_) if inline.is_some() => return Err(unknown()),
            Flag::Switch(_) => None,
            Flag::Count(_) | Flag::Text(_) => Some(
                inline
                    .or_else(|| iter.next().map(String::as_str))
                    .ok_or(format!("{name} needs a value"))?,
            ),
        };
        if let (Flag::Count(_), Some(v)) = (flag, value) {
            v.parse::<usize>()
                .map_err(|_| format!("{name} expects a count, not {v:?}"))?;
        }
        cli.given.push((flag.name(), value.map(str::to_string)));
    }
    Ok(cli)
}

/// The usage line for example `name` taking `flags`.
pub fn usage(name: &str, flags: &[Flag]) -> String {
    let mut line = format!("usage: {name}");
    for f in flags {
        match f {
            Flag::Switch(n) => line.push_str(&format!(" [{n}]")),
            Flag::Count(n) => line.push_str(&format!(" [{n} N]")),
            Flag::Text(n) => line.push_str(&format!(" [{n} VALUE]")),
        }
    }
    line
}

/// Parses the process's arguments for example `name`; on a bad
/// command line prints the error and the usage line to stderr and
/// exits with status 2.
pub fn args_or_exit(name: &str, flags: &[Flag]) -> Cli {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_args(&args, flags).unwrap_or_else(|e| {
        eprintln!("{name}: {e}\n{}", usage(name, flags));
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy scenario: squares each cell value, reduce = sum.
    struct Squares(Vec<u64>);

    struct Sum(u64);

    impl Render for Sum {
        fn render(&self) -> String {
            format!("sum={}\n", self.0)
        }
    }

    impl Scenario for Squares {
        type Cell = u64;
        type Outcome = f64;
        type Report = Sum;

        fn name(&self) -> &'static str {
            "squares"
        }
        fn cells(&self) -> Vec<u64> {
            self.0.clone()
        }
        fn cell_key(&self, cell: &u64) -> String {
            format!("cell{cell}")
        }
        fn run_cell(&self, cell: &u64) -> f64 {
            (*cell * *cell) as f64
        }
        fn reduce(&self, outcomes: Vec<f64>) -> Sum {
            Sum(outcomes.iter().map(|&x| x as u64).sum())
        }
    }

    #[test]
    fn parallel_matches_serial_byte_for_byte() {
        let s = Squares(vec![1, 2, 3, 4, 5, 6, 7]);
        let serial = run_scenario(&s, 1);
        for threads in [2, 4, 8] {
            let par = run_scenario(&s, threads);
            assert_eq!(par.report.render(), serial.report.render());
            assert_eq!(par.outcomes_jsonl, serial.outcomes_jsonl);
        }
        assert_eq!(serial.report.0, 1 + 4 + 9 + 16 + 25 + 36 + 49);
    }

    #[test]
    fn pooled_execution_matches_per_scenario_runs() {
        let pool: Vec<Box<dyn AnyScenario>> = vec![
            Box::new(Squares(vec![1, 2, 3])),
            Box::new(Squares(vec![4, 5, 6, 7])),
        ];
        let serial: Vec<SweepOutput> = pool.iter().map(|s| s.run_boxed(1)).collect();
        for threads in [1, 2, 8] {
            let pooled = run_pool(&pool, threads);
            assert_eq!(pooled.len(), serial.len());
            for (a, b) in serial.iter().zip(&pooled) {
                assert_eq!(a.text, b.text, "pooled report text diverged");
                assert_eq!(a.outcomes_jsonl, b.outcomes_jsonl, "pooled export diverged");
                assert_eq!(a.stats.len(), b.stats.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate cell key")]
    fn duplicate_cell_keys_panic() {
        run_scenario(&Squares(vec![2, 2]), 1);
    }

    #[test]
    fn counters_report_cells_and_wall_clock() {
        let run = run_scenario(&Squares(vec![1, 2, 3]), 1);
        let c = run.counters();
        assert_eq!(c.get("sweep.cells"), 3);
        let jsonl = run.counters_jsonl();
        assert!(jsonl.contains("sweep.cells"));
        assert!(jsonl.contains("sweep.wall_us"));
        assert!(jsonl.contains("sweep.cell.cell2.wall_us"));
        let timing = run.timing_summary();
        assert!(timing.contains("cell1") && timing.contains("total"));
    }

    #[test]
    fn threads_parses_both_forms_and_rejects_garbage() {
        let parse = |v: &[&str]| {
            parse_args(
                &v.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
                &STANDARD,
            )
        };
        assert_eq!(parse(&["--threads", "4"]).unwrap().threads(), 4);
        assert_eq!(parse(&["--threads=8"]).unwrap().threads(), 8);
        assert_eq!(parse(&["--quick"]).unwrap().threads(), 1);
        assert_eq!(parse(&["--quick"]).unwrap().scale(), Scale::Quick);
        assert_eq!(parse(&[]).unwrap().scale(), Scale::Full);
        for bad in [
            &["--threads", "bogus"][..],
            &["--threads=bogus"],
            &["--threads"],
            &["--threads", "-1"],
            &["--quik"],
            &["--quick=1"],
            &["quick"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }

    #[test]
    fn example_flags_extend_the_standard_set() {
        let flags = [
            QUICK,
            THREADS,
            Flag::Switch("--cpu-scale"),
            Flag::Text("--out"),
        ];
        let args = [
            "--cpu-scale",
            "--out",
            "a.jsonl",
            "--out=b.jsonl",
            "--threads",
            "2",
        ];
        let cli = parse_args(&args.map(String::from), &flags).unwrap();
        assert!(cli.has("--cpu-scale"));
        assert_eq!(cli.value("--out"), Some("b.jsonl"));
        assert_eq!(cli.threads(), 2);
        assert!(parse_args(&["--cpu-scale".to_string()], &STANDARD).is_err());
        assert_eq!(
            usage("demo", &flags),
            "usage: demo [--quick] [--threads N] [--cpu-scale] [--out VALUE]"
        );
    }
}
