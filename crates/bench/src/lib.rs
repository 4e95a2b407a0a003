//! # tnn-bench
//!
//! The cross-layer equivalence gates of the TNN broadcast reproduction.
//! Everything lives under `tests/`; this library is empty because Cargo
//! needs a target to hang the integration tests on.
//!
//! - engine ≡ the frozen two-channel pipeline (`engine_equivalence`);
//! - heap-ordered ≡ linear-scan candidate queues (`linear_equivalence`;
//!   this crate's dev-dependencies are the only place the
//!   `linear-reference` feature is enabled);
//! - serve, cache, faults, shards, updates and tracing ≡ the bare engine
//!   (the other `*_equivalence` suites), plus the serving chaos smoke
//!   and soaks (`serve_stress`);
//! - every stats `conserved()` equation (`stats_conservation`) and the
//!   Prometheus metric surface, byte for byte (`metrics_golden`).
//!
//! The paper's own metrics (access time and tune-in time, in pages) are
//! regenerated by the `tnn-sim` binaries. End-to-end and per-layer
//! timings come from the separate `perfbench` package
//! (`python3 perfbench/run.py`).
