//! Aggregate throughput of the sharded multi-token plane vs shard count,
//! plus the rebalance cost of ring membership changes.
//!
//! A single token serializes every grant, so one instance's saturation
//! throughput is flat in the client population. Splitting the key space
//! over K shards (one full protocol instance each, see
//! [`crate::shard`]) multiplies the number of concurrently circulating
//! tokens; this table measures how close the aggregate gets to linear in
//! K on a fixed node count, and how many shards move when a node joins
//! or leaves the consistent-hash ring (multi-probe placement moves only
//! the shards the new node wins — about K/n — instead of rehashing
//! everything).

use atp_core::ShardMap;
use atp_util::pool::par_map;

use crate::report::{f2, Table};
use crate::runner::Protocol;
use crate::shard::{KeyDist, ShardPlaneSpec};

/// Parameters of the shard sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Nodes in the plane (every node participates in every shard).
    pub n: usize,
    /// Shard counts to sweep.
    pub shard_counts: Vec<u16>,
    /// Closed-loop client population.
    pub clients: usize,
    /// Measured window in ticks.
    pub horizon: u64,
    /// Key popularity distribution.
    pub key_dist: KeyDist,
    /// Determinism seed.
    pub seed: u64,
}

impl Config {
    /// Full scale.
    pub fn paper() -> Self {
        Config {
            n: 8,
            shard_counts: vec![1, 2, 4, 8],
            clients: 96,
            horizon: 20_000,
            key_dist: KeyDist::Uniform,
            seed: 7,
        }
    }

    /// A seconds-scale preset for tests and the CI smoke.
    pub fn quick() -> Self {
        Config {
            n: 8,
            shard_counts: vec![1, 4],
            clients: 96,
            horizon: 6_000,
            key_dist: KeyDist::Uniform,
            seed: 7,
        }
    }
}

/// One row of the shard-throughput table.
#[derive(Debug, Clone)]
pub struct Point {
    /// Shard count.
    pub shards: u16,
    /// Protocol every shard ran.
    pub protocol: Protocol,
    /// Aggregate grants per 1000 ticks.
    pub grants_per_kilotick: f64,
    /// Aggregate throughput relative to the same protocol at K = 1.
    pub speedup: f64,
    /// Busiest over laziest shard's grant count (1.0 = perfectly even).
    pub imbalance: f64,
}

/// Computes the throughput series — one plane run per (K, protocol),
/// fanned out over `ATP_THREADS` workers. Runs are lockstep-deterministic,
/// so the series is byte-identical at any thread count.
pub fn series(config: &Config) -> Vec<Point> {
    let mut specs = Vec::new();
    for &k in &config.shard_counts {
        for protocol in Protocol::ALL {
            specs.push((k, protocol));
        }
    }
    let summaries = par_map(&specs, |&(k, protocol)| {
        ShardPlaneSpec::new(protocol, config.n, k)
            .with_seed(config.seed)
            .with_horizon(config.horizon)
            .with_clients(config.clients)
            .with_key_dist(config.key_dist)
            .run()
    });
    let mut points: Vec<Point> = Vec::with_capacity(specs.len());
    for ((k, protocol), s) in specs.into_iter().zip(summaries) {
        let tp = s.throughput_per_ktick();
        let base = points
            .iter()
            .find(|p| p.shards == 1 && p.protocol == protocol)
            .map_or(tp, |p| p.grants_per_kilotick);
        let max = s.grants.iter().copied().max().unwrap_or(0) as f64;
        let min = s.grants.iter().copied().min().unwrap_or(0).max(1) as f64;
        points.push(Point {
            shards: k,
            protocol,
            grants_per_kilotick: tp,
            speedup: if base > 0.0 { tp / base } else { 0.0 },
            imbalance: max / min,
        });
    }
    points
}

/// Runs the sweep and renders the throughput table.
pub fn run(config: &Config) -> Table {
    let mut table = Table::new(vec![
        "K",
        "protocol",
        "grants/ktick",
        "speedup",
        "max/min shard",
    ])
    .title(format!(
        "Sharded plane: aggregate saturation throughput vs shard count \
         (n = {}, {} clients, {} keys)",
        config.n,
        config.clients,
        config.key_dist.label()
    ));
    for p in series(config) {
        table.row(vec![
            p.shards.to_string(),
            p.protocol.label().to_string(),
            f2(p.grants_per_kilotick),
            f2(p.speedup),
            f2(p.imbalance),
        ]);
    }
    table.note(
        "each shard is a full protocol instance with its own token; shards never exchange frames",
    );
    table.note(
        "speedup is vs the same protocol at K = 1; linear in K until per-node work dominates",
    );
    table
}

/// Renders the rebalance-cost table: shards moved when node `n` joins a
/// ring of `n` nodes, per shard count. Multi-probe placement moves only
/// the shards the newcomer wins — about K/(n+1) — never unrelated ones.
pub fn rebalance_table(config: &Config) -> Table {
    let mut table = Table::new(vec![
        "K",
        "moved on join",
        "ideal K/(n+1)",
        "moved on leave",
    ])
    .title(format!(
        "Rebalance cost of one membership change (n = {})",
        config.n
    ));
    for &k in &config.shard_counts {
        let mut map = ShardMap::new(k, config.n);
        let joined = map.add_node(config.n as u32);
        let left = map.remove_node(config.n as u32);
        table.row(vec![
            k.to_string(),
            joined.len().to_string(),
            f2(f64::from(k) / (config.n as f64 + 1.0)),
            left.len().to_string(),
        ]);
    }
    table.note("only shards whose multi-probe winner changed move; the rest keep their owner");
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_shards_triple_the_single_token_throughput() {
        let points = series(&Config::quick());
        for protocol in Protocol::ALL {
            let of = |k: u16| {
                points
                    .iter()
                    .find(|p| p.shards == k && p.protocol == protocol)
                    .unwrap()
                    .grants_per_kilotick
            };
            let (t1, t4) = (of(1), of(4));
            assert!(
                t4 >= 3.0 * t1,
                "{}: K=4 must give >= 3x K=1, got {t1:.1} -> {t4:.1}",
                protocol.label()
            );
        }
    }

    #[test]
    fn tables_render() {
        let cfg = Config::quick();
        assert_eq!(run(&cfg).len(), 2 * Protocol::ALL.len());
        assert_eq!(rebalance_table(&cfg).len(), cfg.shard_counts.len());
    }

    #[test]
    fn join_moves_a_small_fraction_of_shards() {
        let cfg = Config::paper();
        for &k in &cfg.shard_counts {
            let mut map = ShardMap::new(k, cfg.n);
            let moved = map.add_node(cfg.n as u32).len();
            assert!(
                moved <= usize::from(k) / 2,
                "K={k}: join moved {moved} shards, expected ~K/(n+1)"
            );
        }
    }
}
