//! # atp-util — hermetic support library for the adaptive token-passing workspace
//!
//! Every other crate in this workspace depends only on `std` and this
//! crate. `atp-util` provides, with zero external dependencies:
//!
//! * [`rng`] — a deterministic seeded PRNG (SplitMix64 for seeding,
//!   xoshiro256\*\* for the stream) behind a `rand`-0.8-shaped trait
//!   surface ([`rng::RngCore`], [`rng::Rng`], [`rng::SeedableRng`]) so
//!   simulation call sites read idiomatically.
//! * [`dist`] — the distributions the simulator draws from: exponential
//!   inter-arrival gaps and Zipf key ranks.
//! * [`buf`] — minimal little-endian byte-buffer traits ([`buf::Buf`],
//!   [`buf::BufMut`]) over `Vec<u8>` / `&[u8]`, replacing the `bytes`
//!   crate in the wire codec.
//! * [`json`] — a tiny hand-rolled JSON writer for run summaries and
//!   bench reports.
//! * [`check`] — a seeded property-testing harness with regression-seed
//!   replay and tape-based shrinking, API-close enough to `proptest`
//!   that the safety suites (prefix property, codec round-trips, TRS
//!   laws) ported over mechanically.
//! * [`metrics`] — deterministic observability primitives: counters,
//!   gauges and HDR-style log-bucketed histograms with *exact merge*,
//!   collected in a name-sorted [`metrics::Registry`] so parallel sweep
//!   shards serialize byte-identically at any thread count.
//! * [`pool`] — a scoped thread pool with an index-ordered, panic-
//!   propagating [`pool::par_map`] (worker count from `ATP_THREADS`),
//!   the fan-out layer under the simulator's parallel sweep executor.
//!
//! The point of the crate is hermeticity: `CARGO_NET_OFFLINE=true
//! cargo build --release && cargo test -q` must pass on a machine with
//! no registry access at all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buf;
pub mod check;
pub mod dist;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod rng;

pub use metrics::{LogHistogram, Registry};
