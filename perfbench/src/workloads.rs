//! The benchmark workloads and one repetition of each.
//!
//! A repetition builds a machine through the public API, runs it,
//! renders its exports and checks the outputs. Each call into a layer is
//! timed from outside, inside a [`Recorder`] span named after the layer.
//! Both workloads are open loops in simulated time: arrivals come
//! from plans generated from the workload seed before the run starts.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use event_sim::{ArrivalProcess, Fnv64, SimDuration, SimTime, SplitMix64};
use smp_kernel::export::{
    chrome_trace_json, counters_jsonl, interference_jsonl, interference_matrix_json, metrics_jsonl,
    requests_jsonl, series_jsonl, slo_jsonl,
};
use smp_kernel::{Kernel, MachineConfig, Program, RunMetrics};
use spu_core::{Scheme, SpuId, SpuSet};
use workloads::{PmakeConfig, ServiceConfig};

use crate::spans::Recorder;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// PIso under memory pressure with pmake file traffic and a
    /// cache-reading victim, every observability layer on: vm, disk,
    /// bufcache, locks, obsv and export.
    PagingIo,
    /// 512 CPUs x 1024 SPUs: boot and the wake/revocation scan.
    Scale512,
}

impl Workload {
    /// Every workload, in presentation order.
    pub const ALL: [Workload; 2] = [Workload::PagingIo, Workload::Scale512];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PagingIo => "paging_io",
            Workload::Scale512 => "scale512",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How much simulated work one repetition does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark size.
    Full,
    /// A fraction of it, for the benchmark's own tests.
    Short,
}

/// Which optional machinery a repetition turns on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Obsv {
    /// The workload's observability set (SLO tracking everywhere; on
    /// `paging_io` also attribution, sampling and a bounded trace).
    On,
    /// Everything off; used only to measure observability overhead.
    Off,
}

/// Counts read from the run's counter registry and the benchmark's own
/// bookkeeping. All are deterministic for a seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Frames the booted machine manages.
    pub frames: u64,
    /// Processes spawned before the run (requests included).
    pub spawned: u64,
    /// Arrivals in every generated plan.
    pub arrivals: u64,
    /// Victim requests spawned.
    pub requests: u64,
    pub dispatches: u64,
    pub loans: u64,
    pub ipis: u64,
    pub preemptions: u64,
    pub major_faults: u64,
    pub swap_outs: u64,
    pub denials: u64,
    pub disk_requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub lock_acquires: u64,
    pub lock_contended: u64,
    pub audit_checks: u64,
    /// Kernel trace events handed to the Chrome exporter.
    pub trace_events: u64,
    /// Bytes rendered by every exporter.
    pub export_bytes: u64,
}

/// Host times and outputs of one repetition.
#[derive(Clone, Debug)]
pub struct Rep {
    /// The whole repetition.
    pub wall_s: f64,
    /// Config, boot, files, arrival generation and spawn.
    pub setup_s: f64,
    /// Inside `Kernel::run`.
    pub run_s: f64,
    /// Rendering every export.
    pub export_s: f64,
    /// Simulated p99 victim response time, ms.
    pub victim_p99_ms: f64,
    /// Share of victim requests over their deadline, shed or unfinished.
    pub victim_slo_miss_frac: f64,
    pub counts: Counts,
    /// FNV-1a digest per exporter, in rendering order.
    pub digests: Vec<(&'static str, u64)>,
    /// Correctness-gate failures; empty when the repetition passed.
    pub failures: Vec<String>,
}

impl Rep {
    /// One digest over every export.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for &(name, d) in &self.digests {
            h.write_str(name);
            h.write_u64(d);
        }
        h.finish()
    }
}

/// What a workload's setup hands to the rest of the repetition.
struct Built {
    kernel: Kernel,
    cap: SimTime,
    spawned: u64,
    arrivals: u64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

type Exporter = fn(&Kernel, &RunMetrics) -> String;

/// The exporters every machine renders, in order, named as spans.
const EXPORTS: [(&str, Exporter); 8] = [
    ("export.metrics_jsonl", |_, m| metrics_jsonl(m)),
    ("export.counters_jsonl", |_, m| counters_jsonl(&m.obsv)),
    ("export.series_jsonl", |_, m| series_jsonl(&m.obsv)),
    ("export.interference_jsonl", |_, m| {
        interference_jsonl(&m.obsv)
    }),
    ("export.slo_jsonl", |_, m| slo_jsonl(&m.obsv)),
    ("export.requests_jsonl", |_, m| requests_jsonl(&m.obsv)),
    ("export.interference_matrix_json", |_, m| {
        interference_matrix_json(&m.obsv.interference)
    }),
    ("export.chrome_trace_json", |k, m| {
        chrome_trace_json(k.trace(), k.spus(), &m.obsv)
    }),
];

impl Workload {
    /// Independent machines per repetition, each with its own plans.
    /// More machines give the victim percentile more samples, so it
    /// varies less from seed to seed.
    pub fn machines(self) -> usize {
        match self {
            Workload::PagingIo => 2,
            Workload::Scale512 => 4,
        }
    }
}

/// Runs one repetition of `w` with inputs generated from `seed`:
/// [`Workload::machines`] machines, one after another.
pub fn rep(w: Workload, seed: u64, size: Size, obsv: Obsv, rec: &mut Recorder) -> Rep {
    let t0 = Instant::now();
    rec.open("rep");
    // Every plan and offset seed derives from the workload seed.
    let mut seeds = SplitMix64::new(seed);
    let (mut setup_s, mut run_s, mut export_s) = (0.0, 0.0, 0.0);
    let mut counts = Counts::default();
    let mut hashers: Vec<Fnv64> = EXPORTS.iter().map(|_| Fnv64::new()).collect();
    let mut victims = Victims::default();
    let mut failures = Vec::new();
    for _ in 0..w.machines() {
        let t = Instant::now();
        rec.open("setup");
        let built = match w {
            Workload::PagingIo => paging_io(&mut seeds, size, obsv, rec),
            Workload::Scale512 => scale512(&mut seeds, size, obsv, rec),
        };
        rec.close();
        setup_s += secs(t);
        let Built {
            mut kernel,
            cap,
            spawned,
            arrivals,
        } = built;

        let t = Instant::now();
        let m = rec.span("kernel.run", || kernel.run(cap));
        run_s += secs(t);

        let t = Instant::now();
        rec.open("export");
        for ((name, render), h) in EXPORTS.iter().zip(&mut hashers) {
            let out = rec.span(name, || render(&kernel, &m));
            counts.export_bytes += out.len() as u64;
            h.write_bytes(out.as_bytes());
        }
        rec.close();
        export_s += secs(t);

        rec.span("check", || {
            failures.extend(gate(&kernel, &m, &mut victims));
            counts.add(&kernel, &m, spawned, arrivals);
        });
        rec.span("teardown", || drop((kernel, m)));
    }
    rec.close();
    if victims.responses_ms.is_empty() {
        failures.push("no victim request was served".to_string());
    }
    victims.responses_ms.sort_by(f64::total_cmp);
    counts.requests = victims.requests;
    Rep {
        wall_s: secs(t0),
        setup_s,
        run_s,
        export_s,
        victim_p99_ms: nearest_rank(&victims.responses_ms, 99.0),
        victim_slo_miss_frac: victims.missed as f64 / victims.requests.max(1) as f64,
        counts,
        digests: EXPORTS
            .iter()
            .zip(&hashers)
            .map(|(&(name, _), h)| (name, h.finish()))
            .collect(),
        failures,
    }
}

impl Counts {
    /// Adds one finished machine's counts.
    fn add(&mut self, k: &Kernel, m: &RunMetrics, spawned: u64, arrivals: u64) {
        let c = &m.obsv.counters;
        self.frames += k.config().total_frames();
        self.spawned += spawned;
        self.arrivals += arrivals;
        self.dispatches += c.get("sched.dispatches");
        self.loans += c.get("sched.loans");
        self.ipis += c.get("sched.ipis");
        self.preemptions += c.get("sched.preemptions");
        self.major_faults += c.get("vm.major_faults");
        self.swap_outs += c.get("vm.swap_outs");
        self.denials += c.get("vm.denials");
        self.disk_requests += (0..k.config().disks.len())
            .map(|i| c.get(&format!("disk.{i}.requests")))
            .sum::<u64>();
        self.cache_hits += c.get("cache.hits");
        self.cache_misses += c.get("cache.misses");
        self.lock_acquires += c.get("locks.acquires");
        self.lock_contended += c.get("locks.contended");
        self.audit_checks += c.get("audit.checks");
        self.trace_events += k.trace().len() as u64;
    }
}

/// Victim request outcomes pooled over a repetition's machines.
#[derive(Default)]
struct Victims {
    requests: u64,
    missed: u64,
    /// Response times of served requests, ms.
    responses_ms: Vec<f64>,
}

/// The correctness gate for one machine; returns its failures and adds
/// its victim requests to `v`. Victims are the jobs spawned as requests
/// (they carry a deadline); every other job is an antagonist. A shed or
/// unfinished request counts as a miss.
fn gate(k: &Kernel, m: &RunMetrics, v: &mut Victims) -> Vec<String> {
    let mut failures = Vec::new();
    let c = &m.obsv.counters;
    // `audit.violations` includes the CPU-partition violations.
    for name in ["audit.violations", "kernel.errors"] {
        if c.get(name) != 0 {
            failures.push(format!("{name} = {}", c.get(name)));
        }
    }
    if !m.completed {
        failures.push("run hit its time cap".to_string());
    }
    if panic::catch_unwind(AssertUnwindSafe(|| k.check_invariants())).is_err() {
        failures.push("check_invariants failed".to_string());
    }
    for j in m.jobs.iter().filter(|j| j.deadline.is_some()) {
        v.requests += 1;
        match j.finished {
            Some(done) if !j.shed => {
                v.responses_ms
                    .push(done.saturating_since(j.started).as_secs_f64() * 1e3);
                if Some(done) > j.deadline {
                    v.missed += 1;
                }
            }
            Some(_) => v.missed += 1,
            None if j.shed => v.missed += 1,
            None => {
                v.missed += 1;
                failures.push(format!("request {} never finished", j.label));
            }
        }
    }
    failures
}

/// Nearest-rank percentile of a sorted slice; 0 when empty.
fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn poisson(rec: &mut Recorder, rate: f64, seed: u64, horizon: SimTime) -> event_sim::ArrivalPlan {
    rec.span("sim.arrivals", || {
        ArrivalProcess::Poisson { rate_per_sec: rate }.generate(seed, horizon)
    })
}

/// PIso on 4 CPUs, 16 MB and 2 disks: a memory hog sweeping more than
/// its share, pmake jobs with file traffic, and a victim whose requests
/// read a table through the buffer cache.
fn paging_io(seeds: &mut SplitMix64, size: Size, obsv: Obsv, rec: &mut Recorder) -> Built {
    let (horizon, sweeps) = match size {
        Size::Full => (SimTime::from_secs(4), 3),
        Size::Short => (SimTime::from_millis(500), 1),
    };
    let cfg = rec.span("config", || {
        MachineConfig::builder()
            .topology(4, 16, 2)
            .scheme(Scheme::PIso)
            .build()
            .expect("valid paging machine")
    });
    let spus = SpuSet::equal_users(3)
        .named(0, "hog")
        .named(1, "pmake")
        .named(2, "web");
    let mut k = rec.span("kernel.boot", || Kernel::new(cfg, spus));
    if obsv == Obsv::On {
        k.enable_attribution();
        k.enable_sampling(SimDuration::from_millis(10));
        k.enable_slo(SimDuration::from_millis(50));
        k.enable_trace(1 << 17);
    }
    let mut spawned = 0u64;
    let mut arrivals = 0u64;

    // The hog: 4,500 pages, more than the machine's user memory, so
    // every sweep faults on every page whatever the other SPUs do. A
    // working set near the memory size would instead page or not
    // depending on the seed.
    let ws = 4500;
    let hog = rec.span("workloads.program", || {
        let mut b = Program::builder("hog").alloc(ws);
        for _ in 0..sweeps {
            b = b.compute(SimDuration::from_millis(40), ws);
        }
        b.build()
    });
    rec.span("kernel.spawn", || {
        k.spawn_at(SpuId::user(0), hog, Some("hog"), SimTime::ZERO)
    });
    spawned += 1;

    // Four pmake jobs on disk 1, one in each half-second slot at a
    // seeded offset: a fixed amount of file work, seeded timing.
    let mut rng = SplitMix64::new(seeds.next_u64());
    for i in 0..4u64 {
        let at = SimTime::from_millis(i * 500 + rng.next_below(500));
        let job = rec.span("workloads.pmake_build", || {
            PmakeConfig::pmake8().build(&mut k, 1)
        });
        let label = format!("pmake-{i}");
        rec.span("kernel.spawn", || {
            k.spawn_at(SpuId::user(1), job, Some(&label), at)
        });
        spawned += 1;
    }

    // The victim: 2 ms requests reading one page of a 512-page table.
    let plan = poisson(rec, 200.0, seeds.next_u64(), horizon);
    arrivals += plan.len() as u64;
    let svc = ServiceConfig {
        cpu_burst: SimDuration::from_millis(2),
        table_pages: 512,
        deadline: SimDuration::from_millis(50),
        seed: seeds.next_u64(),
        ..ServiceConfig::default()
    };
    spawned += rec.span("workloads.spawn_stream", || {
        svc.spawn_stream(&mut k, SpuId::user(2), 1, &plan, "web")
            .len() as u64
    });
    Built {
        kernel: k,
        cap: SimTime::from_secs(600),
        spawned,
        arrivals,
    }
}

/// 512 CPUs, 3 GB, 1,024 equal SPUs: 1,536 spin processes (one or two
/// per SPU) plus a victim request stream on every 64th SPU.
fn scale512(seeds: &mut SplitMix64, size: Size, obsv: Obsv, rec: &mut Recorder) -> Built {
    let (spus_n, cpus, mem_mb, horizon) = match size {
        Size::Full => (1024u32, 512, 3072, SimTime::from_millis(200)),
        Size::Short => (128u32, 64, 384, SimTime::from_millis(100)),
    };
    let (cfg, spus) = rec.span("config", || {
        MachineConfig::builder()
            .topology(cpus, mem_mb, 1)
            .scheme(Scheme::PIso)
            .spus(spus_n as usize, 1)
            .build_with_spus()
            .expect("valid scale machine")
    });
    let mut k = rec.span("kernel.boot", || Kernel::new(cfg, spus));
    if obsv == Obsv::On {
        k.enable_slo(SimDuration::from_millis(30));
    }
    let spin: Arc<Program> = Program::builder("spin")
        .compute(SimDuration::from_millis(40), 0)
        .build();
    let mut spawned = 0u64;
    rec.span("kernel.spawn", || {
        for s in 0..spus_n {
            for _ in 0..(s % 2 + 1) {
                k.spawn_at(SpuId::user(s), spin.clone(), None, SimTime::ZERO);
                spawned += 1;
            }
        }
    });
    let mut arrivals = 0u64;
    for s in (0..spus_n).step_by(64) {
        let plan = poisson(rec, 100.0, seeds.next_u64(), horizon);
        arrivals += plan.len() as u64;
        let svc = ServiceConfig {
            cpu_burst: SimDuration::from_millis(2),
            read_bytes: 0,
            deadline: SimDuration::from_millis(30),
            seed: seeds.next_u64(),
            ..ServiceConfig::default()
        };
        spawned += rec.span("workloads.spawn_stream", || {
            svc.spawn_stream(&mut k, SpuId::user(s), 0, &plan, "vic")
                .len() as u64
        });
    }
    Built {
        kernel: k,
        cap: SimTime::from_secs(30),
        spawned,
        arrivals,
    }
}
