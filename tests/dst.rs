//! Deterministic simulation testing: the explorer must catch a planted
//! fault and shrink it to a small deterministic tape, and every checked-in
//! regression tape must replay green.

use adaptive_token_passing::core::{EventSource, RingNode, TokenEvent, TokenNode, Want};
use adaptive_token_passing::net::{MsgClass, NodeId, SimTime, World, WorldConfig};
use adaptive_token_passing::sim::dst::{
    gen_case, replay_tape, run_case, verify_tape, CaseSpace, DstCase, ExploreOutcome, Explorer,
    Focus, Mutation, StrategySpec, TapeFile,
};
use adaptive_token_passing::sim::Protocol;
use adaptive_token_passing::util::check::{shrink_tape, Gen};

/// The headline acceptance check: plant the off-by-one duplicate skip in
/// BinaryNode's order state and require the explorer to (a) find it within
/// the default budget, (b) shrink it to a small tape, and (c) produce a
/// tape that deterministically reproduces the violation.
#[test]
fn planted_mutation_is_found_and_shrunk_to_replayable_tape() {
    let explorer = Explorer::new(Protocol::Binary, 0, Mutation::BadPrefixSkip);
    let cx = match explorer.explore(300) {
        ExploreOutcome::Found(cx) => cx,
        ExploreOutcome::Clean { cases, .. } => {
            panic!("planted bad_prefix_skip not detected in {cases} cases")
        }
    };
    assert!(
        cx.tape.len() <= 32,
        "shrinker left a bloated tape ({} words)",
        cx.tape.len()
    );

    // The minimized tape must reproduce the violation, byte-for-byte
    // deterministically, and only under the mutation.
    let replay = |mutation| replay_tape(CaseSpace::Flat, &cx.tape, Protocol::Binary, mutation);
    let v1 = replay(Mutation::BadPrefixSkip)
        .expect_err("minimized tape must still fail under the mutation");
    let v2 = replay(Mutation::BadPrefixSkip).expect_err("replay must be deterministic");
    assert_eq!(v1.to_string(), v2.to_string());
    assert_eq!(v1.to_string(), cx.violation.to_string());
    replay_tape(CaseSpace::Flat, &cx.tape, Protocol::Binary, Mutation::None)
        .expect("the unmodified protocol must pass the minimized schedule");
}

/// Every tape under `tests/tapes/` replays green: benign tapes pass, and
/// mutation tapes still reproduce their violation (no tape rot).
#[test]
fn checked_in_tapes_replay_green() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/tapes");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("tests/tapes must exist")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "tape"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 6,
        "expected the checked-in regression tapes, found {}",
        paths.len()
    );
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap();
        let tf = TapeFile::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        verify_tape(&tf).unwrap_or_else(|e| panic!("{e}"));
    }
}

/// A small clean sweep per protocol: all per-step oracles hold across
/// adversarial strategies. (ci.sh runs the full-budget campaign.)
#[test]
fn oracles_hold_over_adversarial_schedules() {
    for protocol in Protocol::ALL {
        match Explorer::new(protocol, 7, Mutation::None).explore(40) {
            ExploreOutcome::Clean { cases, .. } => assert_eq!(cases, 40),
            ExploreOutcome::Found(cx) => panic!(
                "{} violated an oracle: {}\n{}",
                protocol.label(),
                cx.violation,
                cx.case_debug
            ),
        }
    }
}

/// The partition adversary alone: every explored case splits the ring and
/// heals it, and the dual-token-after-heal oracle holds alongside the
/// usual ones. (ci.sh runs the full-budget campaign.)
#[test]
fn partition_adversary_oracles_hold() {
    for protocol in Protocol::ALL {
        let explorer = Explorer::new(protocol, 13, Mutation::None).with_focus(Focus::Partition);
        match explorer.explore(15) {
            ExploreOutcome::Clean { cases, .. } => assert_eq!(cases, 15),
            ExploreOutcome::Found(cx) => panic!(
                "{} violated an oracle under partition focus: {}\n{}",
                protocol.label(),
                cx.violation,
                cx.case_debug
            ),
        }
    }
}

/// The checked-in `ring_partition_retransmit` tape pins the tentpole
/// recovery path: a token frame severed mid-partition is recovered by the
/// ack/retransmit machinery once the ring heals — regeneration never
/// fires, and every request is still served.
#[test]
fn severed_token_recovered_by_retransmit_not_regeneration() {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/tapes/ring_partition_retransmit.tape"
    ))
    .expect("pinned tape must exist");
    let tf = TapeFile::from_json(&text).expect("pinned tape must parse");
    assert_eq!(tf.protocol, Protocol::Ring);
    assert_eq!(tf.mutation, Mutation::None);
    verify_tape(&tf).expect("pinned tape must replay green under the DST oracles");

    // Rebuild the exact case and re-run it with the event inspection the
    // DST runner does not expose. The tape was selected to need no
    // adversarial extras, so a default world reproduces it faithfully.
    let mut g = Gen::from_tape(tf.tape.clone());
    let case = gen_case(&mut g, Protocol::Ring, Mutation::None);
    let (at, heal_at, split) = case.partition.expect("tape must carry a partition");
    assert_eq!(case.strategy, StrategySpec::Fifo);
    assert_eq!(case.latency, (1, 1));
    assert_eq!(case.drop_p, 0.0);
    assert_eq!(case.link_loss_p, 0.0);
    assert_eq!(case.link_dup_p, 0.0);
    assert!(case.crash.is_none());

    let mut world: World<RingNode> = World::from_nodes(
        (0..case.n).map(|_| RingNode::new(case.cfg)).collect(),
        WorldConfig::default().seed(case.world_seed),
    );
    for &(t, _, node, payload) in &case.requests {
        world.schedule_external(
            SimTime::from_ticks(t),
            NodeId::new(node),
            Want::new(payload),
        );
    }
    let left: Vec<NodeId> = (0..split).map(NodeId::new).collect();
    let right: Vec<NodeId> = (split..case.n as u32).map(NodeId::new).collect();
    world.schedule_partition(
        SimTime::from_ticks(at),
        SimTime::from_ticks(heal_at),
        &[left, right],
    );
    world.run_until(SimTime::from_ticks(case.horizon()));

    assert!(
        world.stats().severed(MsgClass::Token) > 0,
        "the partition never cut a token frame"
    );
    let mut retransmits = 0u64;
    let mut requested = 0u64;
    let mut granted = 0u64;
    for i in 0..case.n {
        let id = NodeId::new(i as u32);
        retransmits += world.node(id).token_retransmits();
        for ev in world.node_mut(id).take_events() {
            match ev {
                TokenEvent::Regenerated { .. } => {
                    panic!("recovery went through regeneration, not retransmit")
                }
                TokenEvent::Requested { .. } => requested += 1,
                TokenEvent::Granted { .. } => granted += 1,
                _ => {}
            }
        }
    }
    assert!(retransmits > 0, "no retransmit ever fired");
    assert!(requested > 0, "pinned schedule carries no requests");
    assert_eq!(granted, requested, "requests lost with the severed frame");
}

/// What makes a drawn Naimi case worth pinning as a path-reversal
/// regression: a split/heal window, requesters on both sides of the cut
/// (so forwarding chains cross severed links), and enough distinct origins
/// that `last` pointers actually migrate. `need_dup` additionally demands
/// full-strength frame duplication across the heal.
fn qualifies_as_naimi_reversal(case: &DstCase, need_dup: bool) -> bool {
    let Some((_, _, split)) = case.partition else {
        return false;
    };
    if case.protocol != Protocol::Naimi || case.crash.is_some() || case.drop_p != 0.0 {
        return false;
    }
    if need_dup {
        if case.link_dup_p < 1.0 || case.link_loss_p != 0.0 {
            return false;
        }
    } else if case.link_dup_p != 0.0 || case.link_loss_p != 0.0 {
        return false;
    }
    let mut origins: Vec<u32> = case.requests.iter().map(|&(_, _, o, _)| o).collect();
    origins.sort_unstable();
    origins.dedup();
    origins.len() >= 3 && origins.iter().any(|&o| o < split) && origins.iter().any(|&o| o >= split)
}

/// Regenerates the two pinned Naimi split/heal tapes. Ignored by default —
/// run with `--ignored` only when the draw grammar in `gen_case` changes
/// and the checked-in tapes stop rebuilding the intended cases.
///
/// The search scans the seed stream for a qualifying green case, then
/// shrinks its tape with the *qualification itself* as the predicate: the
/// minimized tape is the smallest schedule that is still a green Naimi
/// split/heal run with cross-partition path reversal.
#[test]
#[ignore = "writes tests/tapes/; run manually after a gen_case grammar change"]
fn regenerate_naimi_partition_tapes() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/tapes");
    for (file, need_dup, note) in [
        (
            "naimi_partition_reversal.tape",
            false,
            "green split/heal schedule: requests on both sides of the cut drive \
             path reversal across severed links; retransmit + fencing recover",
        ),
        (
            "naimi_partition_dup.tape",
            true,
            "green split/heal schedule with every frame duplicated: watermarks \
             must absorb the copies while reversal spans the partition",
        ),
    ] {
        let mut found = None;
        for seed in 0..50_000u64 {
            let mut g = Gen::from_seed(seed);
            let case = gen_case(&mut g, Protocol::Naimi, Mutation::None);
            if qualifies_as_naimi_reversal(&case, need_dup) && run_case(&case).is_ok() {
                found = Some(g.tape().to_vec());
                break;
            }
        }
        let tape = found.expect("no qualifying green Naimi case in the seed stream");
        let (tape, _) = shrink_tape(tape, 4_000, |cand| {
            let mut g = Gen::from_tape(cand.to_vec());
            let case = gen_case(&mut g, Protocol::Naimi, Mutation::None);
            (qualifies_as_naimi_reversal(&case, need_dup) && run_case(&case).is_ok())
                .then(|| g.tape().to_vec())
        });
        let tf = TapeFile {
            name: file.trim_end_matches(".tape").to_string(),
            protocol: Protocol::Naimi,
            space: CaseSpace::Flat,
            mutation: Mutation::None,
            note: note.to_string(),
            tape,
        };
        std::fs::write(format!("{dir}/{file}"), tf.to_json() + "\n").unwrap();
    }
}

/// The pinned Naimi tapes rebuild the intended cases — a split/heal window
/// with cross-partition requesters, one clean and one under full frame
/// duplication — and replay green, twice, with identical counters.
#[test]
fn naimi_tapes_pin_split_heal_reversal() {
    for (file, need_dup) in [
        ("naimi_partition_reversal.tape", false),
        ("naimi_partition_dup.tape", true),
    ] {
        let path = format!("{}/tests/tapes/{file}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("pinned naimi tape must exist");
        let tf = TapeFile::from_json(&text).expect("pinned naimi tape must parse");
        assert_eq!(tf.protocol, Protocol::Naimi);
        assert_eq!(tf.mutation, Mutation::None);

        let mut g = Gen::from_tape(tf.tape.clone());
        let case = gen_case(&mut g, Protocol::Naimi, Mutation::None);
        assert!(
            qualifies_as_naimi_reversal(&case, need_dup),
            "{file}: tape no longer rebuilds a qualifying split/heal case \
             (gen_case grammar drift?): {case:#?}"
        );

        let a = run_case(&case).unwrap_or_else(|v| panic!("{file}: replay failed: {v}"));
        let b = run_case(&case).unwrap_or_else(|v| panic!("{file}: second replay failed: {v}"));
        assert_eq!(a.events, b.events, "{file}: replay is not deterministic");
        assert_eq!(a.grants, b.grants, "{file}: replay is not deterministic");
        assert!(a.grants > 0, "{file}: pinned schedule granted nothing");
    }
}
