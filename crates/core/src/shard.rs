//! Consistent-hash placement of shards onto nodes.
//!
//! A single token serializes every request — the hard ceiling on
//! horizontal scale. The sharded plane splits the keyspace into `K`
//! independent shards, each running its own instance of a token-passing
//! protocol, and places shard *homes* (the node that mints the shard's
//! token) on a **multi-probe consistent-hash ring**:
//!
//! * every node is hashed **once** onto a `u64` ring — no virtual nodes,
//!   so membership state is `O(N)`, not `O(N · vnodes)`;
//! * every shard is hashed `probes` times; each probe lands somewhere on
//!   the ring and measures the clockwise distance to the nearest node;
//!   the shard is owned by the node achieving the **minimum distance over
//!   all probes** (multi-probe hashing trades lookup cost `O(p log N)`
//!   for the balance that classic single-probe hashing only gets from
//!   hundreds of virtual nodes);
//! * rebalancing is **minimal by construction**: adding a node can only
//!   move shards whose new minimum is achieved *by that node*, and
//!   removing a node can only move shards *it owned* — every other
//!   shard's winning (probe, node) pair still exists with an unchanged
//!   distance, and all other distances can only grow.
//!
//! Placement is a pure function of the membership set, `K` and the probe
//! count: byte-identical on every host, at every thread count, in every
//! replay.
//!
//! ```rust
//! use atp_core::{ShardMap, ShardId};
//!
//! let mut map = ShardMap::new(8, 4); // 8 shards on nodes {0,1,2,3}
//! let s = map.shard_of_key(0xfeed);
//! let home = map.owner(s);
//! let moves = map.add_node(4); // only shards node 4 now wins move
//! assert!(moves.iter().all(|m| m.to == 4));
//! ```

use atp_net::NodeId;

/// SplitMix64 finalizer: a full-avalanche 64-bit mix, the only hash the
/// ring needs. Dependency-free and stable forever (placement bytes are a
/// compatibility surface).
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Domain-separation constants so node placement, shard probes and key
/// hashing can never collide even on equal raw inputs.
const NODE_SALT: u64 = 0x4e4f_4445_5f53_414c; // "NODE_SAL"
const PROBE_SALT: u64 = 0x5052_4f42_455f_5341; // "PROBE_SA"
const KEY_SALT: u64 = 0x4b45_595f_5341_4c54; // "KEY_SALT"

/// Default probe count: enough for a ~1.05× peak-to-mean load ratio
/// (the multi-probe paper's sweet spot) while keeping owner computation
/// trivially cheap at the shard counts the plane uses.
pub const DEFAULT_PROBES: u32 = 21;

/// Identifies one shard of the keyspace, `0..K`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u16);

impl ShardId {
    /// The shard's index as a `usize` (for table lookups).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A point on the `u64` hash ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RingPosition(pub u64);

impl RingPosition {
    /// Clockwise distance from `from` to this position (wrapping).
    #[inline]
    pub fn distance_from(self, from: u64) -> u64 {
        self.0.wrapping_sub(from)
    }
}

/// The membership ring: every node hashed once, kept sorted by position.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ring {
    /// `(position, node)` pairs sorted by position.
    nodes: Vec<(RingPosition, u32)>,
}

impl Ring {
    /// An empty ring.
    pub fn new() -> Self {
        Ring::default()
    }

    /// A ring populated with nodes `0..n`.
    pub fn with_nodes(n: usize) -> Self {
        let mut ring = Ring::new();
        for i in 0..n {
            ring.add(i as u32);
        }
        ring
    }

    /// The position a node always hashes to (pure; membership-independent).
    pub fn position_of(node: u32) -> RingPosition {
        RingPosition(mix64(NODE_SALT ^ u64::from(node)))
    }

    /// Number of member nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: u32) -> bool {
        self.nodes.iter().any(|&(_, id)| id == node)
    }

    /// Member node ids, in ring-position order.
    pub fn members(&self) -> impl Iterator<Item = u32> + '_ {
        self.nodes.iter().map(|&(_, id)| id)
    }

    /// Adds `node`; returns `false` if it was already a member.
    pub fn add(&mut self, node: u32) -> bool {
        if self.contains(node) {
            return false;
        }
        let pos = Ring::position_of(node);
        let at = self.nodes.partition_point(|&(p, id)| (p, id) < (pos, node));
        self.nodes.insert(at, (pos, node));
        true
    }

    /// Removes `node`; returns `false` if it was not a member.
    pub fn remove(&mut self, node: u32) -> bool {
        let before = self.nodes.len();
        self.nodes.retain(|&(_, id)| id != node);
        self.nodes.len() != before
    }

    /// The member closest clockwise from hash point `h` (single probe).
    pub fn successor(&self, h: u64) -> Option<u32> {
        if self.nodes.is_empty() {
            return None;
        }
        let at = self.nodes.partition_point(|&(p, _)| p.0 < h);
        let (_, id) = self.nodes[at % self.nodes.len()];
        Some(id)
    }

    /// Multi-probe owner: the member minimizing the clockwise distance
    /// over all probe points, ties broken by node position then id so the
    /// winner is unique and membership-order independent.
    pub fn owner(&self, probe_points: impl IntoIterator<Item = u64>) -> Option<u32> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut best: Option<(u64, RingPosition, u32)> = None;
        for h in probe_points {
            let at = self.nodes.partition_point(|&(p, _)| p.0 < h);
            let (pos, id) = self.nodes[at % self.nodes.len()];
            let cand = (pos.distance_from(h), pos, id);
            if best.map_or(true, |b| cand < b) {
                best = Some(cand);
            }
        }
        best.map(|(_, _, id)| id)
    }
}

/// One shard changing owner during a membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMove {
    /// The shard that moved.
    pub shard: ShardId,
    /// Previous owner.
    pub from: u32,
    /// New owner.
    pub to: u32,
}

/// The full placement: `K` shards → owning nodes, plus key → shard
/// routing. This is the sharded plane's routing table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    shards: u16,
    probes: u32,
    ring: Ring,
    owners: Vec<u32>,
}

impl ShardMap {
    /// `k` shards placed on nodes `0..n` with [`DEFAULT_PROBES`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `n == 0`.
    pub fn new(k: u16, n: usize) -> Self {
        ShardMap::with_probes(k, n, DEFAULT_PROBES)
    }

    /// `k` shards on nodes `0..n` with an explicit probe count.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `n == 0` or `probes == 0`.
    pub fn with_probes(k: u16, n: usize, probes: u32) -> Self {
        assert!(k > 0, "need at least one shard");
        assert!(n > 0, "need at least one node");
        assert!(probes > 0, "need at least one probe");
        let mut map = ShardMap {
            shards: k,
            probes,
            ring: Ring::with_nodes(n),
            owners: Vec::new(),
        };
        map.owners = (0..k).map(|s| map.compute_owner(ShardId(s))).collect();
        map
    }

    /// Number of shards `K`.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// Probe count per shard.
    pub fn probes(&self) -> u32 {
        self.probes
    }

    /// The membership ring (read-only; mutate via
    /// [`ShardMap::add_node`] / [`ShardMap::remove_node`]).
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The shard a key routes to: a full-avalanche mix of the key, then a
    /// modulo over `K`. Key → shard never changes with membership — only
    /// shard → node does.
    pub fn shard_of_key(&self, key: u64) -> ShardId {
        ShardId((mix64(KEY_SALT ^ key) % u64::from(self.shards)) as u16)
    }

    /// The node owning `shard` (its token home).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn owner(&self, shard: ShardId) -> u32 {
        self.owners[shard.index()]
    }

    /// The node owning the shard `key` routes to.
    pub fn owner_of_key(&self, key: u64) -> u32 {
        self.owner(self.shard_of_key(key))
    }

    /// The owner of `shard` as a [`NodeId`].
    pub fn home(&self, shard: ShardId) -> NodeId {
        NodeId::new(self.owner(shard))
    }

    /// The current owner of every shard, indexed by shard id.
    pub fn owners(&self) -> &[u32] {
        &self.owners
    }

    fn probe_point(&self, shard: ShardId, probe: u32) -> u64 {
        mix64(PROBE_SALT ^ (u64::from(shard.0) << 32) ^ u64::from(probe))
    }

    fn compute_owner(&self, shard: ShardId) -> u32 {
        self.ring
            .owner((0..self.probes).map(|p| self.probe_point(shard, p)))
            .expect("ring is never empty")
    }

    /// Adds `node` to the ring and returns the minimal set of shard
    /// moves. Every returned move has `to == node` — a new member can
    /// only *win* shards, never shuffle them between others.
    pub fn add_node(&mut self, node: u32) -> Vec<ShardMove> {
        if !self.ring.add(node) {
            return Vec::new();
        }
        self.rebalance()
    }

    /// Removes `node` from the ring and returns the minimal set of shard
    /// moves. Every returned move has `from == node` — only the departed
    /// member's shards re-home.
    ///
    /// # Panics
    ///
    /// Panics if removing `node` would empty the ring.
    pub fn remove_node(&mut self, node: u32) -> Vec<ShardMove> {
        if self.ring.len() == 1 && self.ring.contains(node) {
            panic!("cannot remove the last node");
        }
        if !self.ring.remove(node) {
            return Vec::new();
        }
        self.rebalance()
    }

    fn rebalance(&mut self) -> Vec<ShardMove> {
        let mut moves = Vec::new();
        for s in 0..self.shards {
            let shard = ShardId(s);
            let new = self.compute_owner(shard);
            let old = self.owners[shard.index()];
            if new != old {
                self.owners[shard.index()] = new;
                moves.push(ShardMove {
                    shard,
                    from: old,
                    to: new,
                });
            }
        }
        moves
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic() {
        let a = ShardMap::new(16, 5);
        let b = ShardMap::new(16, 5);
        assert_eq!(a.owners(), b.owners());
    }

    #[test]
    fn every_shard_has_exactly_one_member_owner() {
        for n in 1..12 {
            let map = ShardMap::new(32, n);
            for s in 0..32 {
                let owner = map.owner(ShardId(s));
                assert!(map.ring().contains(owner), "owner {owner} not a member");
            }
        }
    }

    #[test]
    fn key_routing_is_membership_independent() {
        let small = ShardMap::new(8, 2);
        let large = ShardMap::new(8, 9);
        for key in 0..200u64 {
            assert_eq!(small.shard_of_key(key), large.shard_of_key(key));
        }
    }

    #[test]
    fn add_only_moves_shards_to_the_new_node() {
        let mut map = ShardMap::new(64, 4);
        let before = map.owners().to_vec();
        let moves = map.add_node(4);
        for m in &moves {
            assert_eq!(m.to, 4, "add moved a shard to a pre-existing node");
            assert_eq!(m.from, before[m.shard.index()]);
        }
        // Unmoved shards kept their owner.
        for s in 0..64u16 {
            let moved = moves.iter().any(|m| m.shard == ShardId(s));
            if !moved {
                assert_eq!(map.owner(ShardId(s)), before[s as usize]);
            }
        }
    }

    #[test]
    fn remove_only_moves_the_departed_nodes_shards() {
        let mut map = ShardMap::new(64, 5);
        let before = map.owners().to_vec();
        let moves = map.remove_node(2);
        for m in &moves {
            assert_eq!(m.from, 2, "remove moved a shard node 2 did not own");
            assert_ne!(m.to, 2);
        }
        for s in 0..64u16 {
            if before[s as usize] != 2 {
                assert_eq!(map.owner(ShardId(s)), before[s as usize]);
            }
        }
    }

    #[test]
    fn add_then_remove_restores_placement() {
        let mut map = ShardMap::new(32, 6);
        let before = map.owners().to_vec();
        map.add_node(99);
        map.remove_node(99);
        assert_eq!(map.owners(), &before[..]);
    }

    #[test]
    fn multi_probe_balances_better_than_single_probe() {
        // With 256 shards on 8 nodes, the multi-probe max load must beat
        // the single-probe max load (that is the whole point of the
        // technique; this also pins the probe loop as actually active).
        let multi = ShardMap::with_probes(256, 8, DEFAULT_PROBES);
        let single = ShardMap::with_probes(256, 8, 1);
        let max_load = |m: &ShardMap| {
            let mut counts = vec![0u32; 8];
            for &o in m.owners() {
                counts[o as usize] += 1;
            }
            counts.into_iter().max().unwrap()
        };
        assert!(max_load(&multi) < max_load(&single));
    }

    #[test]
    fn keys_spread_over_all_shards() {
        let map = ShardMap::new(4, 3);
        let mut seen = [false; 4];
        for key in 0..64u64 {
            seen[map.shard_of_key(key).index()] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    #[should_panic(expected = "last node")]
    fn removing_last_node_panics() {
        let mut map = ShardMap::new(4, 1);
        map.remove_node(0);
    }
}
