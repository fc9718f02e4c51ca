//! The machine-readable bench harness behind the `--check` gates of
//! `ci.sh`. (Host-time performance is measured by the standalone
//! `perfbench/` package, not here.)
//!
//! The [`report`] module backs two dev binaries:
//!
//! * `bench_report` — runs quick experiment presets and writes
//!   `BENCH_elink.json` (`--check` verifies same-seed determinism);
//! * `trace_summary` — renders a [`elink_netsim::JsonlTrace`] event log as
//!   per-node send/deliver/drop tables.
//!
//! The [`scale`] module backs `scale_report`, the 1k→64k fleet-size sweep
//! behind `BENCH_scale.json`: msgs/node and bytes/node curves against the
//! paper's O(N) claim, plus wall-clock for both scheduler backends (the
//! calendar-queue speedup scoreboard).
//!
//! The [`contention`] module backs `contention_report`, the offered-load ×
//! capacity sweep behind `BENCH_contention.json`: the 1k-node serving
//! benchmark over a contention-aware `FairShareLink`, showing the queueing
//! knee (p99 superlinear past saturation).
//!
//! The [`admission`] module backs `admission_report`, the load-admission
//! A/B sweep behind `BENCH_admission.json`: the same cap-64 sweep with the
//! load ladder off vs on, gating that admission bounds the served tail
//! past the knee without losing work or goodput.
//!
//! This crate is deliberately outside simlint's protocol-crate set: it is
//! the one place in the workspace allowed to measure host wall-clock.

#![warn(missing_docs)]

/// The load-admission A/B sweep behind `BENCH_admission.json`.
pub mod admission;
/// The offered-load × capacity contention sweep behind `BENCH_contention.json`.
pub mod contention;
/// Quick experiment presets behind `BENCH_elink.json` and `trace_summary`.
pub mod report;
/// The 1k→64k fleet-size scaling bench behind `BENCH_scale.json`.
pub mod scale;
/// The standing-query push-vs-requery bench behind `BENCH_sub.json`.
pub mod subbench;
