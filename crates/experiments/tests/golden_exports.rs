//! Golden byte-identity tests for experiment exports.
//!
//! The fault/paging fast path is a pure mechanical optimisation: same
//! seed must produce byte-identical exports. These tests pin the
//! `mem_iso` instrumented JSONL series and the `ablation` reserve-*
//! sweep outputs against goldens captured before the refactor.
//!
//! Regenerate with `GOLDEN_REGEN=1 cargo test -p experiments --test
//! golden_exports` — only do this for an intentional semantic change,
//! never to paper over a determinism break.

use experiments::{ablation, mem_iso, Scale};

fn check_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/goldens/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(format!("{}/tests/goldens", env!("CARGO_MANIFEST_DIR"))).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e} (run with GOLDEN_REGEN=1)"));
    assert!(
        expected == actual,
        "{name} diverged from golden — the paging refactor changed \
         simulated behavior. First differing line: {:?}",
        expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a)
            .map(|(i, (e, a))| format!("line {}: golden={e:?} actual={a:?}", i + 1))
    );
}

/// The §4.4 instrumented run: per-SPU (entitled, allowed, used) series
/// JSONL plus the headline metrics must be byte-stable.
#[test]
fn mem_iso_instrumented_export_is_byte_identical() {
    let (m, jsonl) = mem_iso::run_instrumented(Scale::Quick);
    check_golden("mem_iso_series.jsonl", &jsonl);
    let digest = format!(
        "end_time={:?}\nspu1_mean={:?}\nspu2_mean={:?}\nmajor_faults={:?}\nminor_faults={:?}\nswap_outs={:?}\n",
        m.end_time,
        m.mean_response_of_spu(spu_core::SpuId::user(0)),
        m.mean_response_of_spu(spu_core::SpuId::user(1)),
        m.vm.iter().map(|v| v.major_faults).collect::<Vec<_>>(),
        m.vm.iter().map(|v| v.minor_faults).collect::<Vec<_>>(),
        m.vm.iter().map(|v| v.swap_outs).collect::<Vec<_>>(),
    );
    check_golden("mem_iso_metrics.txt", &digest);
}

/// The §3.2 reserve-threshold sweep: every point (responses and
/// swap-out counts) must be byte-stable across the paging refactor.
#[test]
fn ablation_reserve_sweep_is_byte_identical() {
    let pts = ablation::reserve_threshold_sweep(&[0.0, 0.08, 0.16], Scale::Quick);
    let mut out = String::new();
    for p in &pts {
        out.push_str(&format!(
            "reserve={:?} lender_burst={:?} borrower={:?} swap_outs={:?}\n",
            p.reserve_frac, p.lender_burst_response, p.borrower_response, p.lender_swap_outs
        ));
    }
    check_golden("ablation_reserve.txt", &out);
}

/// Every `smp_kernel::export` renderer over one run, in a fixed order.
fn render_all(k: &smp_kernel::Kernel, m: &smp_kernel::RunMetrics) -> Vec<(&'static str, String)> {
    use smp_kernel::export::*;
    vec![
        ("metrics_jsonl", metrics_jsonl(m)),
        ("counters_jsonl", counters_jsonl(&m.obsv)),
        ("series_jsonl", series_jsonl(&m.obsv)),
        ("interference_jsonl", interference_jsonl(&m.obsv)),
        ("slo_jsonl", slo_jsonl(&m.obsv)),
        ("requests_jsonl", requests_jsonl(&m.obsv)),
        (
            "interference_matrix_json",
            interference_matrix_json(&m.obsv.interference),
        ),
        (
            "chrome_trace_json",
            chrome_trace_json(k.trace(), k.spus(), &m.obsv),
        ),
    ]
}

/// One `<run> <exporter> <bytes> <fnv64>` line per rendered export.
fn digest_lines(run: &str, exports: &[(&'static str, String)]) -> String {
    let mut out = String::new();
    for (name, doc) in exports {
        let mut h = event_sim::Fnv64::new();
        h.write_bytes(doc.as_bytes());
        out.push_str(&format!("{run} {name} {} {:016x}\n", doc.len(), h.finish()));
    }
    out
}

/// A small machine with attribution, sampling, SLO tracking and the
/// trace on, cut by its time cap while processes still queue on the
/// root lock. Its trace holds every event kind the Chrome exporter
/// renders, including a lock wait still open when the trace ends.
fn observed_run() -> (smp_kernel::Kernel, smp_kernel::RunMetrics) {
    use event_sim::{FaultKind, FaultPlan, SimDuration, SimTime};
    use smp_kernel::{Kernel, MachineConfig, Program, TraceEvent, Tuning, PAGE_SIZE};
    use spu_core::{Scheme, SpuId, SpuSet};

    let plan = FaultPlan::new()
        .at(
            SimTime::from_millis(30),
            FaultKind::DiskTransientErrors { disk: 1, count: 2 },
        )
        .at(SimTime::from_millis(60), FaultKind::CpuOffline { cpu: 1 })
        .at(SimTime::from_millis(120), FaultKind::CpuOnline { cpu: 1 });
    let cfg = MachineConfig::builder()
        .topology(4, 16, 2)
        .scheme(Scheme::PIso)
        .tuning(Tuning {
            slice: SimDuration::from_millis(2),
            lookup_cost: SimDuration::from_micros(400),
            rw_inode_lock: false,
            ..Tuning::default()
        })
        .fault_plan(plan)
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(3));
    k.enable_attribution();
    k.enable_sampling(SimDuration::from_millis(10));
    k.enable_slo(SimDuration::from_millis(20));
    k.enable_trace(1 << 16);

    // A hog over its memory share: faults, evictions and policy runs.
    let hog = Program::builder("hog")
        .alloc(1600)
        .compute(SimDuration::from_millis(30), 1600)
        .compute(SimDuration::from_millis(30), 1600)
        .build();
    k.spawn_at(SpuId::user(0), hog, Some("hog"), SimTime::ZERO);
    // Readers on disk 1 contending for the root lock, with compute
    // between reads so slices expire and preempt.
    // A warm-up reader pulls the file into the cache first.
    let file = k.create_file(1, 16 * PAGE_SIZE, 0);
    let warm = Program::builder("warm")
        .read(file, 0, 16 * PAGE_SIZE)
        .build();
    k.spawn_at(SpuId::user(1), warm, None, SimTime::ZERO);
    let mut rb = Program::builder("reader");
    for i in 0..80u64 {
        rb = rb
            .read(file, (i % 16) * PAGE_SIZE, 64)
            .compute(SimDuration::from_micros(600), 0);
    }
    let reader = rb.build();
    for j in 0..8u32 {
        k.spawn_at(
            SpuId::user(1 + j % 2),
            reader.clone(),
            Some(&format!("reader-{j}")),
            SimTime::from_millis(20 + u64::from(j) * 3),
        );
    }
    let m = k.run(SimTime::from_millis(200));

    let mut seen = [false; 10];
    let mut open_waits = std::collections::BTreeSet::new();
    for ev in k.trace().iter() {
        let slot = match ev {
            TraceEvent::Dispatch { .. } => 0,
            TraceEvent::Preempt { .. } => 1,
            TraceEvent::Block { .. } => 2,
            TraceEvent::Wake { .. } => 3,
            TraceEvent::Fault { .. } => 4,
            TraceEvent::IoIssue { .. } => 5,
            TraceEvent::PolicyRun { .. } => 6,
            TraceEvent::FaultInjected { .. } => 7,
            TraceEvent::LockWait { pid, .. } => {
                open_waits.insert(*pid);
                8
            }
            TraceEvent::LockGrant { pid, .. } => {
                open_waits.remove(pid);
                9
            }
        };
        seen[slot] = true;
    }
    assert!(
        seen.iter().all(|&s| s),
        "trace misses an event kind: {seen:?}"
    );
    assert!(!open_waits.is_empty(), "no lock wait open at trace end");
    (k, m)
}

/// Admission control on, overloaded and shedding: `requests_jsonl`
/// has rows.
fn admission_run() -> (smp_kernel::Kernel, smp_kernel::RunMetrics) {
    use event_sim::{ArrivalProcess, SimDuration, SimTime};
    use smp_kernel::{Kernel, MachineConfig, Tuning};
    use spu_core::{Scheme, ShedPolicy, SpuId, SpuSet};

    let cfg = MachineConfig::builder()
        .topology(2, 16, 1)
        .scheme(Scheme::PIso)
        .tuning(Tuning {
            admission_cap: 2,
            queue_cap: 4,
            shed_policy: ShedPolicy::TailDrop,
            ..Tuning::default()
        })
        .build()
        .unwrap();
    let mut k = Kernel::new(cfg, SpuSet::equal_users(2));
    k.enable_sampling(SimDuration::from_millis(10));
    k.enable_slo(SimDuration::from_millis(20));
    k.enable_trace(1 << 12);
    let plan = ArrivalProcess::Poisson {
        rate_per_sec: 600.0,
    }
    .generate(7, SimTime::from_millis(300));
    workloads::ServiceConfig::default().spawn_stream(&mut k, SpuId::user(0), 0, &plan, "req");
    let m = k.run(SimTime::from_secs(60));
    assert!(m.completed);
    (k, m)
}

/// Every exporter's bytes, pinned as length + FNV-64 per export, over
/// a fully observed run and an admission-control run. The digests were
/// captured before the exporters were rewritten to stream into one
/// buffer; any change to a rendered byte fails here.
#[test]
fn every_exporter_is_byte_identical() {
    let (k, m) = observed_run();
    let mut out = digest_lines("observed", &render_all(&k, &m));
    let (k, m) = admission_run();
    let exports = render_all(&k, &m);
    let requests = &exports
        .iter()
        .find(|(n, _)| *n == "requests_jsonl")
        .unwrap()
        .1;
    assert!(
        !requests.is_empty(),
        "admission run rendered no request rows"
    );
    out.push_str(&digest_lines("admission", &exports));
    check_golden("exporter_digests.txt", &out);
}
