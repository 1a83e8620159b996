//! # atp-bench — benchmarks
//!
//! Three `cargo bench` targets:
//!
//! * `protocols` — micro/macro benchmarks of the executable plane:
//!   single-grant latency cost, full simulated seconds of each protocol
//!   under load, codec throughput.
//! * `trs` — benchmarks of the formal plane: pattern matching, successor
//!   enumeration, bounded exploration.
//! * `sweep` — the parallel sweep executor, the scheduler and the
//!   large-N scaling points, written to `BENCH_sweep.json` by `ci.sh`.
//!
//! The paper's figures and tables are not benchmarks: `atp all` (the
//! `atp-sim` binary) regenerates them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
