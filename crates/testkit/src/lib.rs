//! # nlft-testkit — the workspace's own test substrate
//!
//! Every build of this workspace is hermetic: no crate outside the
//! repository may appear in the dependency graph (see `tests/hermetic.rs`
//! at the workspace root). That rules out `proptest` and `criterion`, so
//! this crate provides the two pieces of test machinery the workspace
//! needs, built on `std` alone:
//!
//! * [`prop`] — a seeded property-testing harness. Each suite owns a fixed
//!   master seed; every property and case derives its stream from it, so a
//!   failure report always carries the exact seed that reproduces it.
//! * [`mod@bench`] — a wall-clock benchmark runner (warmup, calibrated batch
//!   sizes, min/median/p95 over timed samples), driven by the
//!   `harness = false` bench binaries in `crates/bench/benches/`.
//! * [`json`] — a minimal JSON value type and writer used by the
//!   figure-regeneration artifacts (`paper_figures --json`).
//! * [`rng`] — the xoshiro256++ generator behind the property harness.
//!   Deliberately independent of `nlft-sim`'s `RngStream` so the test
//!   substrate cannot perturb (or be perturbed by) the simulation streams
//!   it is exercising.
//!
//! ## Reproducing a property failure
//!
//! A failing property prints its case seed:
//!
//! ```text
//! property 'event_queue_emits_sorted' failed at case 17/256 (case seed 0x9E3779B97F4A7C15)
//! ```
//!
//! Re-run exactly that case with:
//!
//! ```text
//! NLFT_PROP_SEED=0x9E3779B97F4A7C15 cargo test -p nlft-sim event_queue_emits_sorted
//! ```
//!
//! `NLFT_PROP_CASES=<n>` overrides the per-suite case count (e.g. crank it
//! up for a soak run). A value of either variable that is not a decimal or
//! `0x` hex number panics rather than falling back to the default.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod json;
pub mod prop;
pub mod rng;
