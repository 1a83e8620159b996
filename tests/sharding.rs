//! Property tests for the consistent-hash shard map: rebalance
//! minimality over seeded membership churn, single-ownership at every
//! step, and placement byte-identity across `ATP_THREADS`.

use adaptive_token_passing::core::{ShardId, ShardMap};
use adaptive_token_passing::util::pool;
use adaptive_token_passing::util::rng::{Rng, SeedableRng, StdRng};

/// Drives `steps` random add/remove operations against one map, checking
/// after every operation that
///
/// 1. the reported moves are exactly the owner-diff (no unreported churn,
///    no spurious moves),
/// 2. minimality by construction: an add only moves shards *to* the new
///    node, a remove only moves shards *from* the departed one,
/// 3. every shard always has exactly one owner, and it is a live member.
fn churn(seed: u64, shards: u16, steps: u32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n0 = rng.gen_range(1..6usize);
    let mut map = ShardMap::new(shards, n0);
    let mut members: Vec<u32> = (0..n0 as u32).collect();
    let mut next_id = n0 as u32;

    for step in 0..steps {
        let before = map.owners().to_vec();
        let add = members.len() == 1 || rng.gen_range(0..2u32) == 0;
        let (moves, joined, left) = if add {
            let node = next_id;
            next_id += 1;
            members.push(node);
            (map.add_node(node), Some(node), None)
        } else {
            let idx = rng.gen_range(0..members.len());
            let node = members.swap_remove(idx);
            (map.remove_node(node), None, Some(node))
        };
        let after = map.owners().to_vec();

        // (1) Moves are exactly the diff of the placement function.
        let mut diff = 0;
        for s in 0..shards {
            let shard = ShardId(s);
            let (old, new) = (before[shard.index()], after[shard.index()]);
            if old != new {
                diff += 1;
                let mv = moves.iter().find(|m| m.shard == shard).unwrap_or_else(|| {
                    panic!("seed {seed} step {step}: unreported move of {shard}")
                });
                assert_eq!((mv.from, mv.to), (old, new), "seed {seed} step {step}");
            } else {
                assert!(
                    !moves.iter().any(|m| m.shard == shard),
                    "seed {seed} step {step}: spurious move of unchanged {shard}"
                );
            }
        }
        assert_eq!(moves.len(), diff, "seed {seed} step {step}");

        // (2) Minimality: churn is confined to the node that changed.
        if let Some(node) = joined {
            assert!(
                moves.iter().all(|m| m.to == node),
                "seed {seed} step {step}: join of {node} shuffled bystanders: {moves:?}"
            );
        }
        if let Some(node) = left {
            assert!(
                moves.iter().all(|m| m.from == node),
                "seed {seed} step {step}: leave of {node} shuffled bystanders: {moves:?}"
            );
            assert!(
                after.iter().all(|&o| o != node),
                "seed {seed} step {step}: departed {node} still owns a shard"
            );
        }

        // (3) Exactly one owner per shard, always a live member.
        assert_eq!(after.len(), usize::from(shards));
        for (s, &owner) in after.iter().enumerate() {
            assert!(
                members.contains(&owner),
                "seed {seed} step {step}: shard s{s} owned by non-member {owner}"
            );
        }
    }
}

#[test]
fn rebalance_is_minimal_over_seeded_membership_churn() {
    for seed in 0..32u64 {
        churn(seed, 16, 40);
    }
    churn(99, 1, 40);
    churn(100, 64, 40);
}

#[test]
fn add_then_remove_round_trips_the_placement() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..8usize);
        let k = rng.gen_range(1..32u32) as u16;
        let mut map = ShardMap::new(k, n);
        let before = map.owners().to_vec();
        map.add_node(n as u32);
        map.remove_node(n as u32);
        assert_eq!(
            map.owners(),
            &before[..],
            "seed {seed}: join+leave must restore the exact placement"
        );
    }
}

/// Placement is a pure function of (membership, K, probes): computing it
/// under 1 worker and under 4 must be byte-identical — `ATP_THREADS` can
/// never change where a shard lives.
#[test]
fn placement_is_byte_identical_across_thread_counts() {
    let specs: Vec<(u16, usize)> = vec![(1, 3), (8, 5), (16, 2), (64, 9), (128, 33)];
    let place = |&(k, n): &(u16, usize)| -> Vec<u32> { ShardMap::new(k, n).owners().to_vec() };
    let serial = pool::with_threads(1, || pool::par_map(&specs, place));
    let parallel = pool::with_threads(4, || pool::par_map(&specs, place));
    assert_eq!(serial, parallel);
    // And across repeated evaluation inside one process.
    assert_eq!(
        serial,
        pool::with_threads(4, || pool::par_map(&specs, place))
    );
}

/// Key → shard routing is independent of membership: adding or removing
/// nodes re-homes shards but never remaps a key to a different shard.
#[test]
fn keys_never_change_shard_on_membership_churn() {
    let mut map = ShardMap::new(32, 4);
    let keys: Vec<u64> = (0..200).map(|i| i * 0x9e37 + 11).collect();
    let routed: Vec<ShardId> = keys.iter().map(|&k| map.shard_of_key(k)).collect();
    map.add_node(4);
    map.add_node(5);
    map.remove_node(0);
    let after: Vec<ShardId> = keys.iter().map(|&k| map.shard_of_key(k)).collect();
    assert_eq!(routed, after);
}
