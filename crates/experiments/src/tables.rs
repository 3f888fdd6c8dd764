//! Regeneration of the paper's configuration tables and layout figures:
//! Table 1 (workloads), Table 2 (schemes), and the SPU-layout Figures 1,
//! 4 and 6.

use spu_core::Scheme;

use crate::report::render_table;
use crate::sweep::{Render, Scenario};

/// Table 1: the four workloads with their system parameters and SPU
/// configurations.
pub fn table1() -> String {
    let rows = vec![
        vec![
            "Pmake8".to_string(),
            "8 CPUs, 44 MB, separate fast disks".to_string(),
            "Multiple pmake jobs (two parallel compiles each)".to_string(),
            "Balanced: 8 SPUs (1 job); Unbalanced: 4 SPUs (1 job) + 4 SPUs (2 jobs)".to_string(),
        ],
        vec![
            "CPU isolation".to_string(),
            "8 CPUs, 64 MB, separate fast disks".to_string(),
            "Ocean (4-way), 3 Flashlite, 3 VCS".to_string(),
            "2 SPUs: 1 SPU Ocean; 1 SPU Flashlite and VCS".to_string(),
        ],
        vec![
            "Memory isolation".to_string(),
            "4 CPUs, 16 MB, separate fast disks".to_string(),
            "Multiple pmake jobs (four parallel compiles each)".to_string(),
            "Balanced: 2 SPUs (1 job); Unbalanced: 1 SPU (1 job) + 1 SPU (2 jobs)".to_string(),
        ],
        vec![
            "Disk bandwidth".to_string(),
            "2 CPUs, 44 MB, shared HP97560".to_string(),
            "Pmake and file copy".to_string(),
            "1 SPU pmake, 1 SPU file copy".to_string(),
        ],
    ];
    let mut out = String::from("Table 1: the workloads used for the performance results\n");
    out.push_str(&render_table(
        &[
            "Workload",
            "System parameters",
            "Applications",
            "SPU configuration",
        ],
        &rows,
    ));
    out
}

/// Table 2: the three resource-allocation schemes.
pub fn table2() -> String {
    let rows: Vec<Vec<String>> = Scheme::ALL
        .iter()
        .map(|s| {
            vec![
                format!(
                    "{} ({})",
                    match s {
                        Scheme::Smp => "SMP operating system",
                        Scheme::Quota => "Fixed Quota",
                        Scheme::PIso => "Performance Isolation",
                    },
                    s.label()
                ),
                s.description().to_string(),
            ]
        })
        .collect();
    let mut out = String::from("Table 2: resource allocation schemes\n");
    out.push_str(&render_table(&["Configuration", "Description"], &rows));
    out
}

/// Figure 1: the Pmake8 SPU layouts.
pub fn figure1() -> String {
    let mut out = String::from("Figure 1: SPU configurations for the Pmake8 workload\n");
    let rows = vec![
        vec![
            "Balanced (8 jobs)".to_string(),
            "1 1 1 1 1 1 1 1".to_string(),
        ],
        vec![
            "Unbalanced (12 jobs)".to_string(),
            "1 1 1 1 2 2 2 2".to_string(),
        ],
    ];
    out.push_str(&render_table(
        &["Configuration", "jobs per SPU 1..8"],
        &rows,
    ));
    out
}

/// Figure 4: the CPU-isolation SPU layout.
pub fn figure4() -> String {
    let mut out = String::from("Figure 4: SPU configurations for the CPU isolation workload\n");
    let rows = vec![
        vec![
            "SPU 1".to_string(),
            "4-process Ocean".to_string(),
            "half the machine (4 processors)".to_string(),
        ],
        vec![
            "SPU 2".to_string(),
            "3 VCS + 3 Flashlite".to_string(),
            "half the machine (4 processors)".to_string(),
        ],
    ];
    out.push_str(&render_table(
        &["SPU", "Applications", "Entitlement"],
        &rows,
    ));
    out
}

/// Figure 6: the memory-isolation SPU layouts.
pub fn figure6() -> String {
    let mut out = String::from("Figure 6: SPU configurations for the memory-isolation workload\n");
    let rows = vec![
        vec![
            "Balanced (2 jobs)".to_string(),
            "1 job".to_string(),
            "1 job".to_string(),
        ],
        vec![
            "Unbalanced (3 jobs)".to_string(),
            "1 job".to_string(),
            "2 jobs".to_string(),
        ],
    ];
    out.push_str(&render_table(&["Configuration", "SPU 1", "SPU 2"], &rows));
    out
}

/// The static artefacts as a [`Scenario`]: one cell per table/figure.
/// There is nothing to simulate, but routing them through the sweep
/// engine gives the `paper_tables` driver one uniform scenario list.
pub struct TablesScenario;

/// The rendered tables and figures, in paper order.
#[derive(Clone, Debug)]
pub struct TablesReport {
    /// One rendered section per cell.
    pub sections: Vec<String>,
}

impl Render for TablesReport {
    fn render(&self) -> String {
        self.sections.join("\n")
    }
}

impl Scenario for TablesScenario {
    type Cell = (&'static str, fn() -> String);
    type Outcome = String;
    type Report = TablesReport;

    fn name(&self) -> &'static str {
        "tables"
    }

    fn cells(&self) -> Vec<Self::Cell> {
        vec![
            ("table1", table1 as fn() -> String),
            ("table2", table2),
            ("figure1", figure1),
            ("figure4", figure4),
            ("figure6", figure6),
        ]
    }

    fn cell_key(&self, cell: &Self::Cell) -> String {
        cell.0.to_string()
    }

    fn run_cell(&self, cell: &Self::Cell) -> String {
        (cell.1)()
    }

    fn reduce(&self, outcomes: Vec<String>) -> TablesReport {
        TablesReport { sections: outcomes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_mention_key_facts() {
        let t1 = table1();
        assert!(t1.contains("8 CPUs, 44 MB"));
        assert!(t1.contains("HP97560"));
        assert!(t1.contains("Ocean"));
        let t2 = table2();
        assert!(t2.contains("Good sharing"));
        assert!(t2.contains("Good isola"));
        assert!(t2.contains("PIso"));
    }

    #[test]
    fn layout_figures_render() {
        assert!(figure1().contains("1 1 1 1 2 2 2 2"));
        assert!(figure4().contains("Ocean"));
        assert!(figure6().contains("2 jobs"));
    }
}
