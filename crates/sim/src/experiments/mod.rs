//! One module per paper artifact, each regenerating the same rows/series the
//! paper reports.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig9`] | Figure 9: avg responsiveness vs N under fixed load |
//! | [`fig10`] | Figure 10: avg responsiveness vs load at N = 100 |
//! | [`messages`] | Lemma 6: search forwards per request is O(log N) |
//! | [`fairness`] | Theorem 3: log N-fairness under a hog |
//! | [`worstcase`] | Lemma 4 / Theorem 2: worst-case responsiveness O(N) vs O(log N) |
//! | [`ablation`] | Section 4.4 optimizations, toggled one at a time |
//! | [`failure`] | Section 5: token-loss recovery |
//! | [`drops`] | Section 1's claim that cheap messages affect only performance |
//! | [`partition`] | Section 5 under a hostile link: split/heal + loss + duplication |
//! | [`throughput`] | The introduction's busy-system throughput claim |
//! | [`latency`] | Robustness of the log N vs N separation to delay jitter |
//! | [`geo`] | Distance-priced links vs the paper's unit-delay assumption |
//! | [`shards`] | Sharded multi-token plane: aggregate throughput vs K, rebalance cost |
//!
//! Every experiment has a `Config` with two presets: `Config::paper()` (full
//! scale, what each `atp` artifact command and `atp all` run) and
//! `Config::quick()` (seconds, used by unit tests and `--quick`).

pub mod ablation;
pub mod drops;
pub mod failure;
pub mod fairness;
pub mod fig10;
pub mod fig9;
pub mod geo;
pub mod latency;
pub mod messages;
pub mod partition;
pub mod shards;
pub mod throughput;
pub mod worstcase;
