//! Probabilistic safety checking on instances too large to exhaust: long
//! seeded random reductions of every system, with the invariants checked at
//! every step. Complements the exhaustive checks in the unit tests (which
//! cover n ≤ 3 completely).

use atp_spec::systems::{binary, mp, s1, search, token};
use atp_trs::{random_reduction, Term, Trs, WalkOutcome};

fn walk_ok(
    name: &str,
    trs: &Trs,
    init: Term,
    steps: usize,
    seeds: std::ops::Range<u64>,
    invariant: impl Fn(&Term) -> bool + Copy,
) {
    for seed in seeds {
        match random_reduction(trs, init.clone(), steps, seed, invariant) {
            WalkOutcome::Violated(state) => {
                panic!("{name}: invariant violated (seed {seed}) at {state}")
            }
            WalkOutcome::Completed | WalkOutcome::Stuck(_) => {}
        }
    }
}

#[test]
fn s1_prefix_holds_on_long_walks_n5() {
    walk_ok(
        "S1(5,2)",
        &s1::system(5, 2),
        s1::initial(5),
        400,
        0..12,
        s1::prefix_ok,
    );
}

#[test]
fn token_prefix_holds_on_long_walks_n5() {
    walk_ok(
        "Token(5,2)",
        &token::system(5, 2),
        token::initial(5),
        400,
        0..12,
        token::prefix_ok,
    );
}

#[test]
fn mp_invariants_hold_on_long_walks_n5() {
    let inv = |st: &Term| mp::prefix_ok(st) && mp::token_unique(st);
    walk_ok(
        "MP(5,2)",
        &mp::system(5, 2),
        mp::initial(5),
        400,
        0..10,
        inv,
    );
}

#[test]
fn search_invariants_hold_on_long_walks_n5() {
    let inv = |st: &Term| search::prefix_ok(st) && search::token_unique(st);
    walk_ok(
        "Search(5,1)",
        &search::system(5, 1),
        search::initial(5),
        300,
        0..8,
        inv,
    );
}

#[test]
fn binary_invariants_hold_on_long_walks_n6() {
    let inv = |st: &Term| {
        binary::prefix_ok(st) && binary::token_unique(st) && binary::ranges_positive(st)
    };
    walk_ok(
        "Binary(6,1)",
        &binary::system(6, 1),
        binary::initial(6),
        300,
        0..8,
        inv,
    );
}

#[test]
fn binary_invariants_hold_on_deep_walk_n4() {
    let inv = |st: &Term| binary::prefix_ok(st) && binary::token_unique(st);
    walk_ok(
        "Binary(4,2)",
        &binary::system(4, 2),
        binary::initial(4),
        1_500,
        0..4,
        inv,
    );
}
