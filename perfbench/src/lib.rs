//! Host-time benchmark of the SPU kernel simulator.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! repeats one workload for `s` seconds of host time and prints every
//! metric by name with its unit, then one JSON summary line. See
//! `README.md` in this directory for the workloads, the metrics and the
//! layer map.

pub mod layers;
pub mod metrics;
pub mod spans;
pub mod stats;
pub mod workloads;
