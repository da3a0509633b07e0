//! End-to-end and per-layer benchmark of the ReSemble reproduction.
//!
//! Three workloads drive the system through its public entry points: two
//! simulation matrices on `runner::run_matrix` and an in-process decision
//! server. An untraced run reports the end-to-end metrics; a traced run
//! wraps the calls into each layer and reports per-layer metrics.
//! `run.py` builds this package and runs one workload.

pub mod dqn;
pub mod layers;
pub mod probe;
pub mod report;
pub mod runtime_journal;
pub mod servewl;
pub mod simwl;

use report::Outcome;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["paper_matrix", "members_sweep", "serve_frozen"];

/// Run `workload` for `seconds`, traced or not.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Option<Outcome> {
    Some(match (workload, traced) {
        ("paper_matrix", false) => simwl::run(&simwl::PAPER_MATRIX, seed, seconds),
        ("paper_matrix", true) => simwl::run_traced(&simwl::PAPER_MATRIX, seed, seconds),
        ("members_sweep", false) => simwl::run(&simwl::MEMBERS_SWEEP, seed, seconds),
        ("members_sweep", true) => simwl::run_traced(&simwl::MEMBERS_SWEEP, seed, seconds),
        ("serve_frozen", false) => servewl::run(seed, seconds),
        ("serve_frozen", true) => servewl::run_traced(seed, seconds),
        _ => return None,
    })
}
