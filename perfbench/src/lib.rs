//! The tnn benchmark: three workloads driven so that no thread parks
//! inside a timed interval, reporting the paper's exact page counters
//! beside wall and CPU time, and a traced run that times each layer from
//! outside. See `README.md` in this directory for what each workload
//! loads and why.

// A benchmark reads the clock by design. The repository's clippy.toml bans
// wall-clock reads for the determinism of the program's own crates.
#![allow(clippy::disallowed_methods)]

pub mod embedded;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod served;
pub mod spans;
pub mod sys;
pub mod workload;

pub use report::{Exact, Report};
pub use workload::{Plan, Workload};

/// Runs one workload for about `seconds` of measured time and returns its
/// report: end-to-end metrics when `trace` is off, per-layer metrics from
/// traced passes (alternating with untraced ones) when it is on. Spans of
/// a traced run are written to `spans_out` when given.
pub fn run(
    workload: Workload,
    plan: &Plan,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<&std::path::Path>,
) -> Report {
    match workload {
        Workload::UniformK2 | Workload::CityK3 => {
            embedded::run(workload, plan, seed, seconds, trace, spans_out)
        }
        Workload::ZipfChurnK2 => served::run(plan, seed, seconds, trace, spans_out),
    }
}
