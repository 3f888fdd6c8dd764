//! The incremental SLO sampler against the full scan it replaced.
//!
//! [`SloTally`](crate::policy::SloTally) settles finished jobs and visits
//! only the rest. The oracle here is the old O(jobs) scan, run on the
//! live job table after every sampling instant of the same execution:
//! each SPU's newest sample must equal it exactly. Seeded scenarios cover
//! shedding under every bounded policy, requests spawned ahead of their
//! start times, jobs cut off unfinished by the time cap or by a crashed
//! root, and flat and two-level SPU trees. A failure prints its seed.

use event_sim::{ArrivalProcess, FaultKind, FaultPlan, SimDuration, SimTime, SplitMix64};
use proptest::prelude::*;
use spu_core::{Scheme, ShedPolicy, SpuId};

use crate::event::Event;
use crate::kernel::Kernel;
use crate::metrics::JobRecord;
use crate::obsv::interference::SloSample;
use crate::{MachineConfig, Program, Tuning};

/// The pre-incremental sampler: rescans every job of `spu`.
fn full_scan(jobs: &[JobRecord], spu: SpuId, now: SimTime, target: SimDuration) -> SloSample {
    let mut completed = 0u64;
    let mut violated = 0u64;
    for j in jobs
        .iter()
        .filter(|j| j.spu == spu && j.started <= now && !j.shed)
    {
        match j.finished {
            Some(f) => {
                completed += 1;
                if f.saturating_since(j.started) > target {
                    violated += 1;
                }
            }
            None if now.saturating_since(j.started) > target => violated += 1,
            None => {}
        }
    }
    SloSample {
        at: now,
        completed,
        violated,
    }
}

/// What one scenario exercised, for the coverage assertions.
#[derive(Debug)]
struct Seen {
    policy: ShedPolicy,
    tree: bool,
    samples: usize,
    shed: usize,
    unfinished: usize,
}

/// Checks every SPU's newest sample against the full scan.
fn check(k: &Kernel, target: SimDuration, seed: u64) -> usize {
    for (idx, spu) in k.spus.all_ids().enumerate() {
        let want = full_scan(&k.jobs, spu, k.now, target);
        let got = k.slo[idx].samples.last().copied();
        assert_eq!(
            got,
            Some(want),
            "incremental SLO sample diverged from the full scan for {spu:?} at {:?}; \
             replay with slo_oracle::run_case({seed:#x})",
            k.now
        );
    }
    k.spus.total_count()
}

/// A seeded machine: random scheme, CPU count, flat or two-level tree,
/// admission policy, request streams spawned ahead of time, a tracked
/// batch job per SPU, and sometimes a crash of a running root.
fn scenario(seed: u64) -> (Kernel, SimTime, SimDuration, ShedPolicy) {
    let mut rng = SplitMix64::new(seed);
    let scheme = [Scheme::Smp, Scheme::Quota, Scheme::PIso][rng.next_below(3) as usize];
    let shed_policy = [
        ShedPolicy::None,
        ShedPolicy::TailDrop,
        ShedPolicy::DeadlineAware,
        ShedPolicy::Codel,
    ][rng.next_below(4) as usize];
    let ms = |rng: &mut SplitMix64, lo: u64, hi: u64| {
        SimDuration::from_millis(lo + rng.next_below(hi - lo + 1))
    };
    let horizon = SimTime::from_millis(200 + rng.next_below(200));
    let mut plan = FaultPlan::new();
    if rng.next_below(2) == 1 {
        plan.push(
            SimTime::from_millis(20 + rng.next_below(100)),
            FaultKind::ProcessCrash {
                user_spu: rng.next_below(3) as u32,
            },
        );
    }
    let tuning = Tuning {
        admission_cap: rng.next_below(4) as u32,
        queue_cap: 1 + rng.next_below(4) as u32,
        shed_policy,
        request_timeout: ms(&mut rng, 5, 40),
        ..Tuning::default()
    };
    let builder = MachineConfig::builder()
        .topology(1 + rng.next_below(4) as usize, 32, 1)
        .scheme(scheme)
        .tuning(tuning)
        .fault_plan(plan);
    let builder = if rng.next_below(2) == 1 {
        builder
            .tenant("acme", 2)
            .service("web", 1)
            .service("batch", 1)
            .tenant("globex", 2)
            .service("api", 2)
    } else {
        builder.spus(3, 1)
    };
    let (cfg, spus) = builder.build_with_spus().expect("valid oracle machine");
    let mut k = Kernel::new(cfg, spus);
    let target = ms(&mut rng, 2, 30);
    k.enable_sampling(ms(&mut rng, 1, 10));
    k.enable_slo(target);
    for u in 0..3 {
        let spu = SpuId::user(u);
        let rate = 50.0 + rng.next_below(350) as f64;
        let arrivals =
            ArrivalProcess::Poisson { rate_per_sec: rate }.generate(rng.next_u64(), horizon);
        for &at in arrivals.times() {
            let prog = Program::builder("req")
                .compute(ms(&mut rng, 1, 6), 0)
                .build();
            let deadline = ms(&mut rng, 5, 50);
            k.spawn_request_at(spu, prog, "req", at, deadline);
        }
        let batch = Program::builder("batch")
            .compute(ms(&mut rng, 20, 120), 0)
            .build();
        let at = SimTime::ZERO + ms(&mut rng, 0, 100);
        k.spawn_at(spu, batch, Some("batch"), at);
    }
    // Cap some runs before the last arrivals so jobs end unfinished.
    let cap = horizon + ms(&mut rng, 0, 300);
    (k, cap, target, shed_policy)
}

/// Runs `seed`'s scenario as `Kernel::run` does, checking the sampler
/// after the baseline sample and after every `Sample` event.
fn run_case(seed: u64) -> Seen {
    let (mut k, cap, target, policy) = scenario(seed);
    k.start_run();
    let mut seen = Seen {
        policy,
        tree: k.spus.is_hierarchical(),
        samples: check(&k, target, seed),
        shed: 0,
        unfinished: 0,
    };
    while let Some((at, ev)) = k.events.pop() {
        if at > cap {
            break;
        }
        k.now = at;
        let sample = matches!(ev, Event::Sample);
        k.handle(ev);
        if sample {
            seen.samples += check(&k, target, seed);
        }
        if k.live_procs == 0 {
            break;
        }
    }
    seen.shed = k.jobs.iter().filter(|j| j.shed).count();
    seen.unfinished = k
        .jobs
        .iter()
        .filter(|j| !j.shed && j.finished.is_none())
        .count();
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn incremental_samples_match_the_full_scan(seed in any::<u64>()) {
        let seen = run_case(seed);
        prop_assert!(seen.samples > 0, "seed {seed:#x} took no samples");
    }
}

/// The seeded sweep must reach the cases settling could get wrong:
/// sheds under every bounded policy, jobs left unfinished, both tree
/// shapes.
#[test]
fn oracle_scenarios_cover_shedding_and_unfinished_jobs() {
    let runs: Vec<Seen> = (0..48u64).map(run_case).collect();
    for policy in [
        ShedPolicy::TailDrop,
        ShedPolicy::DeadlineAware,
        ShedPolicy::Codel,
    ] {
        assert!(
            runs.iter().any(|r| r.policy == policy && r.shed > 0),
            "no scenario shed a request under {policy:?}"
        );
    }
    assert!(runs.iter().any(|r| r.unfinished > 0));
    assert!(runs.iter().any(|r| r.tree && r.shed > 0));
    assert!(runs.iter().any(|r| !r.tree && r.shed > 0));
}
