//! # tnn-bench
//!
//! The cross-layer equivalence gates of the TNN broadcast reproduction.
//! Everything lives under `tests/`; this library is empty because Cargo
//! needs a target to hang the integration tests on.
//!
//! - engine ≡ the frozen two-channel pipeline (`engine_equivalence`);
//! - the work counters of fixed query pools (`work_golden`), the
//!   routes of fixed queries (`chain_join_golden`) and the shapes of
//!   packed trees (`bulk_load_golden`), each byte-compared with a file
//!   under `tests/golden/`;
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
