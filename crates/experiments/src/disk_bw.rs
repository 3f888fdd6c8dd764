//! The disk-bandwidth experiments (§4.5): Tables 3 and 4.
//!
//! Two-way machine, one *shared* HP 97560 disk with half seek latency
//! ("a scaling factor of two for the disk model"), cold buffer caches,
//! three disk-scheduling policies:
//!
//! * **Pos** — head-position C-SCAN (stock IRIX);
//! * **Iso** — blind fairness, ignoring head position;
//! * **PIso** — the hybrid policy.
//!
//! **Table 3 (pmake-copy)**: SPU1 runs a pmake (scattered requests),
//! SPU2 copies a 20 MB file (sequential requests) on the same disk.
//! Paper: PIso cuts the pmake's response 39% and its per-request wait
//! 76% vs Pos, costs the copy ~23%, and keeps average seek latency near
//! Pos.
//!
//! **Table 4 (big-and-small-copy)**: a 500 KB copy vs a 5 MB copy.
//! Paper: both fairness policies let the small copy finish first, but
//! Iso pays ~30% extra seek latency while PIso's seek stays at the Pos
//! level, giving PIso the best small-copy response (0.28 s vs 0.56 s).

use event_sim::SimTime;
use hp_disk::SchedulerKind;
use smp_kernel::{Kernel, MachineConfig};
use spu_core::{Scheme, SpuId, SpuSet};
use workloads::{copy_job, PmakeConfig};

use crate::report::render_table;
use crate::sweep::{self, Render, Scenario, Value};
use crate::Scale;

/// One row of Table 3 / Table 4.
#[derive(Clone, Copy, Debug)]
pub struct DiskRow {
    /// The disk-scheduling policy.
    pub policy: SchedulerKind,
    /// Response time of the first job (pmake / small copy), seconds.
    pub job_a_response: f64,
    /// Response time of the second job (copy / big copy), seconds.
    pub job_b_response: f64,
    /// Mean per-request queue wait of job A's SPU, milliseconds.
    pub job_a_wait_ms: f64,
    /// Mean per-request queue wait of job B's SPU, milliseconds.
    pub job_b_wait_ms: f64,
    /// Average seek latency across all requests, milliseconds.
    pub avg_seek_ms: f64,
}

/// A full three-policy table.
#[derive(Clone, Debug)]
pub struct DiskTable {
    /// Label of job A (e.g. "Pmk" / "Small").
    pub job_a: &'static str,
    /// Label of job B (e.g. "Cpy" / "Big").
    pub job_b: &'static str,
    /// Rows in Pos/Iso/PIso order.
    pub rows: Vec<DiskRow>,
}

impl DiskTable {
    /// Finds the row for a policy.
    pub fn row(&self, policy: SchedulerKind) -> &DiskRow {
        self.rows
            .iter()
            .find(|r| r.policy == policy)
            .expect("policy present")
    }

    /// Renders in the shape the paper's tables use.
    pub fn format(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.policy.label().to_string(),
                    format!("{:.2}", r.job_a_response),
                    format!("{:.2}", r.job_b_response),
                    format!("{:.1}", r.job_a_wait_ms),
                    format!("{:.1}", r.job_b_wait_ms),
                    format!("{:.1}", r.avg_seek_ms),
                ]
            })
            .collect();
        render_table(
            &[
                "Conf",
                &format!("{} resp (s)", self.job_a),
                &format!("{} resp (s)", self.job_b),
                &format!("{} wait (ms)", self.job_a),
                &format!("{} wait (ms)", self.job_b),
                "Avg seek (ms)",
            ],
            &rows,
        )
    }
}

/// Boots the Table 3 machine (pmake + copy) under one policy.
fn boot_pmake_copy(policy: SchedulerKind, scale: Scale) -> Kernel {
    // §4.5: two-way multiprocessor, one shared disk, seek scaled by 2.
    let cfg = MachineConfig::builder()
        .topology(2, 44, 1)
        .scheme(Scheme::PIso)
        .seek_scale(0.5)
        .disk_scheduler(policy)
        .build()
        .unwrap();
    let mut k = Kernel::new(
        cfg,
        SpuSet::equal_users(2).named(0, "pmake").named(1, "copy"),
    );
    let pmake_cfg = match scale {
        Scale::Full => PmakeConfig::disk_bw(),
        Scale::Quick => PmakeConfig {
            waves: 4,
            ..PmakeConfig::disk_bw()
        },
    };
    let copy_bytes = match scale {
        Scale::Full => 20 * 1024 * 1024,
        Scale::Quick => 6 * 1024 * 1024,
    };
    let p = pmake_cfg.build(&mut k, 0);
    k.spawn_at(SpuId::user(0), p, Some("pmake"), SimTime::ZERO);
    let c = copy_job(&mut k, 0, copy_bytes, 64 * 1024);
    k.spawn_at(SpuId::user(1), c, Some("copy"), SimTime::ZERO);
    k
}

/// Runs the Table 3 workload (pmake + 20 MB copy) under one policy.
pub fn run_pmake_copy(policy: SchedulerKind, scale: Scale) -> DiskRow {
    let mut k = boot_pmake_copy(policy, scale);
    let m = k.run(SimTime::from_secs(600));
    assert!(m.completed, "pmake-copy run hit the time cap");
    DiskRow {
        policy,
        job_a_response: m.mean_response_secs("pmake").expect("pmake job ran"),
        job_b_response: m.mean_response_secs("copy").expect("copy job ran"),
        job_a_wait_ms: m.disks[0].stream(SpuId::user(0)).mean_wait_ms(),
        job_b_wait_ms: m.disks[0].stream(SpuId::user(1)).mean_wait_ms(),
        avg_seek_ms: m.disks[0].mean_seek_ms(),
    }
}

/// Boots the Table 4 machine (big + small copy) under one policy.
fn boot_big_small(policy: SchedulerKind, scale: Scale) -> Kernel {
    let cfg = MachineConfig::builder()
        .topology(2, 44, 1)
        .scheme(Scheme::PIso)
        .seek_scale(0.5)
        .disk_scheduler(policy)
        .build()
        .unwrap();
    let mut k = Kernel::new(
        cfg,
        SpuSet::equal_users(2).named(0, "small").named(1, "big"),
    );
    let (small_bytes, big_bytes) = match scale {
        Scale::Full => (500 * 1024, 5 * 1024 * 1024),
        Scale::Quick => (250 * 1024, 2 * 1024 * 1024),
    };
    // The big copy "happens to issue requests to the disk earlier"
    // (§4.5): spawn it first, small copy a moment later.
    let big = copy_job(&mut k, 0, big_bytes, 64 * 1024);
    k.spawn_at(SpuId::user(1), big, Some("big"), SimTime::ZERO);
    let small = copy_job(&mut k, 0, small_bytes, 64 * 1024);
    k.spawn_at(
        SpuId::user(0),
        small,
        Some("small"),
        SimTime::from_millis(30),
    );
    k
}

/// Runs the Table 4 workload (500 KB copy + 5 MB copy) under one policy.
pub fn run_big_small(policy: SchedulerKind, scale: Scale) -> DiskRow {
    let mut k = boot_big_small(policy, scale);
    let m = k.run(SimTime::from_secs(600));
    assert!(m.completed, "big-small run hit the time cap");
    DiskRow {
        policy,
        job_a_response: m.mean_response_secs("small").expect("small copy ran"),
        job_b_response: m.mean_response_secs("big").expect("big copy ran"),
        job_a_wait_ms: m.disks[0].stream(SpuId::user(0)).mean_wait_ms(),
        job_b_wait_ms: m.disks[0].stream(SpuId::user(1)).mean_wait_ms(),
        avg_seek_ms: m.disks[0].mean_seek_ms(),
    }
}

impl sweep::Outcome for DiskRow {
    fn encode(&self) -> Value {
        Value::list(vec![
            Value::S(self.policy.label().to_string()),
            Value::F(self.job_a_response),
            Value::F(self.job_b_response),
            Value::F(self.job_a_wait_ms),
            Value::F(self.job_b_wait_ms),
            Value::F(self.avg_seek_ms),
        ])
    }
}

/// Which §4.5 workload a cell drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiskWorkload {
    /// Table 3: scattered pmake vs sequential 20 MB copy.
    PmakeCopy,
    /// Table 4: 500 KB copy vs 5 MB copy.
    BigSmall,
}

impl DiskWorkload {
    fn key(self) -> &'static str {
        match self {
            DiskWorkload::PmakeCopy => "pmake-copy",
            DiskWorkload::BigSmall => "big-small",
        }
    }

    fn job_labels(self) -> (&'static str, &'static str) {
        match self {
            DiskWorkload::PmakeCopy => ("Pmk", "Cpy"),
            DiskWorkload::BigSmall => ("Small", "Big"),
        }
    }

    fn title(self) -> &'static str {
        match self {
            DiskWorkload::PmakeCopy => "Table 3: the pmake-copy workload",
            DiskWorkload::BigSmall => "Table 4: the big-and-small-copy workload",
        }
    }
}

/// The disk-bandwidth tables, one per requested workload.
#[derive(Clone, Debug)]
pub struct DiskBwReport {
    /// The workloads, parallel to [`tables`](Self::tables).
    pub workloads: Vec<DiskWorkload>,
    /// Tables in [`DiskBwScenario::workloads`] order.
    pub tables: Vec<DiskTable>,
}

impl Render for DiskBwReport {
    fn render(&self) -> String {
        let mut out = String::new();
        for (workload, table) in self.workloads.iter().zip(&self.tables) {
            out.push_str(workload.title());
            out.push('\n');
            out.push_str(&table.format());
            out.push('\n');
        }
        out
    }
}

/// The disk-bandwidth matrix as a [`Scenario`]: workload × policy.
pub struct DiskBwScenario {
    /// The workloads to run, in output order.
    pub workloads: Vec<DiskWorkload>,
    /// Workload scale.
    pub scale: Scale,
}

impl DiskBwScenario {
    /// Both paper tables (3 and 4).
    pub fn both(scale: Scale) -> Self {
        DiskBwScenario {
            workloads: vec![DiskWorkload::PmakeCopy, DiskWorkload::BigSmall],
            scale,
        }
    }

    /// A single workload's table.
    pub fn single(workload: DiskWorkload, scale: Scale) -> Self {
        DiskBwScenario {
            workloads: vec![workload],
            scale,
        }
    }
}

impl Scenario for DiskBwScenario {
    type Cell = (DiskWorkload, SchedulerKind);
    type Outcome = DiskRow;
    type Report = DiskBwReport;

    fn name(&self) -> &'static str {
        "disk-bw"
    }

    fn cells(&self) -> Vec<Self::Cell> {
        self.workloads
            .iter()
            .flat_map(|&w| SchedulerKind::ALL.iter().map(move |&p| (w, p)))
            .collect()
    }

    fn cell_key(&self, &(workload, policy): &Self::Cell) -> String {
        format!("{}-{}", workload.key(), policy.label().to_lowercase())
    }

    fn run_cell(&self, &(workload, policy): &Self::Cell) -> DiskRow {
        match workload {
            DiskWorkload::PmakeCopy => run_pmake_copy(policy, self.scale),
            DiskWorkload::BigSmall => run_big_small(policy, self.scale),
        }
    }

    fn reduce(&self, outcomes: Vec<DiskRow>) -> DiskBwReport {
        let tables = self
            .workloads
            .iter()
            .zip(outcomes.chunks(SchedulerKind::ALL.len()))
            .map(|(&w, rows)| {
                let (job_a, job_b) = w.job_labels();
                DiskTable {
                    job_a,
                    job_b,
                    rows: rows.to_vec(),
                }
            })
            .collect();
        DiskBwReport {
            workloads: self.workloads.clone(),
            tables,
        }
    }
}

/// Table 3 across all three policies.
pub fn table3(scale: Scale) -> DiskTable {
    let scenario = DiskBwScenario::single(DiskWorkload::PmakeCopy, scale);
    sweep::run_scenario(&scenario, 1)
        .report
        .tables
        .swap_remove(0)
}

/// Table 4 across all three policies.
pub fn table4(scale: Scale) -> DiskTable {
    let scenario = DiskBwScenario::single(DiskWorkload::BigSmall, scale);
    sweep::run_scenario(&scenario, 1)
        .report
        .tables
        .swap_remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shape_matches_paper() {
        let t = table3(Scale::Quick);
        let pos = t.row(SchedulerKind::HeadPosition);
        let piso = t.row(SchedulerKind::Hybrid);
        // PIso improves the pmake's response and per-request wait
        // substantially (paper: 39% and 76%).
        assert!(
            piso.job_a_response < pos.job_a_response * 0.85,
            "pmake: piso={} pos={}",
            piso.job_a_response,
            pos.job_a_response
        );
        assert!(
            piso.job_a_wait_ms < pos.job_a_wait_ms * 0.6,
            "wait: piso={} pos={}",
            piso.job_a_wait_ms,
            pos.job_a_wait_ms
        );
        // The copy pays, but bounded (paper: 23%).
        assert!(
            piso.job_b_response < pos.job_b_response * 1.7,
            "copy cost bounded: piso={} pos={}",
            piso.job_b_response,
            pos.job_b_response
        );
        assert!(piso.job_b_response > pos.job_b_response * 0.99);
    }

    #[test]
    fn table4_shape_matches_paper() {
        let t = table4(Scale::Quick);
        let pos = t.row(SchedulerKind::HeadPosition);
        let iso = t.row(SchedulerKind::BlindFair);
        let piso = t.row(SchedulerKind::Hybrid);
        // Fairness lets the small copy finish much sooner than under Pos.
        assert!(
            piso.job_a_response < pos.job_a_response * 0.8,
            "small: piso={} pos={}",
            piso.job_a_response,
            pos.job_a_response
        );
        // PIso beats blind Iso on the small copy (head position matters).
        assert!(
            piso.job_a_response < iso.job_a_response,
            "piso={} iso={}",
            piso.job_a_response,
            iso.job_a_response
        );
        // Iso pays extra seek latency; PIso stays near Pos (paper: +30%
        // vs ~equal).
        assert!(
            iso.avg_seek_ms > piso.avg_seek_ms * 1.1,
            "seek: iso={} piso={}",
            iso.avg_seek_ms,
            piso.avg_seek_ms
        );
    }
}
