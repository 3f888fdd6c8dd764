//! Which end-to-end metric each layer's metrics should move, and on
//! which workload. On every other workload the prediction is no change.

/// One row of the layer map.
#[derive(Clone, Copy, Debug)]
pub struct LayerRow {
    /// Layer of the simulator, named after its module.
    pub layer: &'static str,
    /// Per-layer metrics that measure it.
    pub metrics: &'static [&'static str],
    /// End-to-end metrics a change to the layer should move.
    pub moves: &'static [&'static str],
    /// The workload where they should move.
    pub on: &'static str,
}

/// The layer map.
pub const LAYERS: &[LayerRow] = &[
    LayerRow {
        layer: "kernel.boot",
        metrics: &["kernel.boot_s", "kernel.boot_ns_per_frame"],
        moves: &["setup_s", "peak_rss_mb"],
        on: "scale512",
    },
    LayerRow {
        layer: "kernel.spawn / workloads / sim",
        metrics: &[
            "kernel.spawn_s",
            "workloads.spawn_stream_s",
            "kernel.spawn_ns_per_proc",
            "sim.arrivals_s",
            "sim.arrivals_ns_per_arrival",
        ],
        moves: &["setup_s"],
        on: "scale512",
    },
    LayerRow {
        layer: "kernel.run: sched, loans, IPIs, dispatch",
        metrics: &[
            "run.ns_per_dispatch",
            "sched.dispatches",
            "sched.loans",
            "sched.ipis",
            "sched.preemptions",
        ],
        moves: &["run_s", "wall_s", "victim_p99_ms"],
        on: "scale512",
    },
    LayerRow {
        layer: "kernel.run: interpreter, fork/exit",
        metrics: &["kernel.run_s", "run.ns_per_dispatch", "sched.dispatches"],
        moves: &["run_s", "wall_s"],
        on: "paging_io",
    },
    LayerRow {
        layer: "kernel.run: wake placement",
        metrics: &["run.ns_per_start"],
        moves: &["run_s", "wall_s"],
        on: "scale512",
    },
    LayerRow {
        layer: "kernel.run: vm, disk, bufcache, locks",
        metrics: &[
            "run.ns_per_major_fault",
            "run.ns_per_disk_request",
            "vm.major_faults",
            "vm.swap_outs",
            "vm.denials",
            "disk.requests",
            "cache.hit_ratio",
            "locks.contended_ratio",
        ],
        moves: &["run_s", "victim_p99_ms", "victim_slo_miss_frac"],
        on: "paging_io",
    },
    LayerRow {
        layer: "obsv",
        metrics: &["obsv.overhead_ratio"],
        moves: &["run_s"],
        on: "paging_io",
    },
    LayerRow {
        layer: "export",
        metrics: &[
            "export.self_s",
            "export.metrics_jsonl_s",
            "export.counters_jsonl_s",
            "export.series_jsonl_s",
            "export.interference_jsonl_s",
            "export.slo_jsonl_s",
            "export.requests_jsonl_s",
            "export.interference_matrix_json_s",
            "export.chrome_trace_json_s",
            "export.chrome_ns_per_event",
            "export.bytes",
        ],
        moves: &["export_s", "peak_rss_mb"],
        on: "paging_io",
    },
    LayerRow {
        layer: "core audit",
        metrics: &["audit.checks", "run.ns_per_audit_check"],
        moves: &["run_s"],
        on: "all",
    },
];
