//! # perf-isolation
//!
//! A reproduction of *"Performance Isolation: Sharing and Isolation in
//! Shared-Memory Multiprocessors"* (Verghese, Gupta, Rosenblum; ASPLOS
//! 1998) as a Rust workspace. This facade crate re-exports the workspace
//! crates under one roof:
//!
//! * [`core`] — the Software Performance Unit (SPU) abstraction
//!   and the sharing policies (the paper's contribution);
//! * [`sim`] — the deterministic discrete-event engine;
//! * [`disk`] — the HP 97560 disk model and request schedulers;
//! * [`kernel`] — the simulated IRIX-style SMP kernel;
//! * [`net`](net_bw) — network-bandwidth isolation (the §3.3/§5
//!   extension);
//! * [`workloads`] — pmake / Ocean / Flashlite / VCS / file-copy
//!   generators (Table 1);
//! * [`experiments`] — one harness per paper table and figure.
//!
//! # Examples
//!
//! See `examples/quickstart.rs` for a complete tour; the short version:
//!
//! ```
//! use perf_isolation::core::Scheme;
//! assert!(Scheme::PIso.enforces_isolation());
//! assert!(Scheme::PIso.shares_idle_resources());
//! ```

pub use event_sim as sim;
pub use experiments;
pub use hp_disk as disk;
pub use net_bw as net;
pub use smp_kernel as kernel;
pub use spu_core as core;
pub use workloads;

// The scenario/sweep API and the named per-cell result structs, at the
// facade root so downstream code can name them without reaching into
// experiment modules.
pub use experiments::mem_iso::MemIsoRun;
pub use experiments::pmake8::Pmake8Run;
pub use experiments::sweep::{
    all_scenarios, run_pool, run_scenario, AnyScenario, Outcome, Render, Scenario, SweepRun,
};
pub use experiments::Scale;
