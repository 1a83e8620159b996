//! Property-based tests of the term-rewriting engine, on the in-repo
//! `atp_util::check` harness.

use std::collections::BTreeSet;

use atp_trs::{matches, Pat, Rhs, Rule, Term, Trs};
use atp_util::check::{Check, Gen};
use atp_util::rng::Rng;

/// A small recursive term generator (ints, symbols, tuples, seqs, bags up
/// to depth 3 with up to 4 children per node).
fn arb_term_depth(g: &mut Gen, depth: u32) -> Term {
    if depth == 0 || g.gen_range(0u32..3) == 0 {
        if g.gen_bool(0.5) {
            Term::int(g.gen_range(0i64..5))
        } else {
            Term::sym(*g.pick(&["a", "b", "tau"]))
        }
    } else {
        let kids = g.vec(0..4, |g| arb_term_depth(g, depth - 1));
        match g.gen_range(0u32..3) {
            0 => Term::tuple(kids),
            1 => Term::seq(kids),
            _ => Term::bag(kids),
        }
    }
}

fn arb_term(g: &mut Gen) -> Term {
    arb_term_depth(g, 3)
}

fn int_seq(v: &[i64]) -> Term {
    Term::seq(v.iter().copied().map(Term::int).collect())
}

/// Bags are canonical: construction order never matters.
#[test]
fn bag_canonical_under_permutation() {
    Check::new("bag_canonical_under_permutation").run(
        |g| g.vec(0..6, arb_term),
        |items| {
            let forward = Term::bag(items.clone());
            let mut reversed_items = items.clone();
            reversed_items.reverse();
            let reversed = Term::bag(reversed_items);
            assert_eq!(forward, reversed);
        },
    );
}

/// A variable pattern matches anything, binding the whole term.
#[test]
fn variable_matches_everything() {
    Check::new("variable_matches_everything").run(arb_term, |t| {
        let m = matches(&Pat::var("X"), t);
        assert_eq!(m.len(), 1);
        assert_eq!(&m[0]["X"], t);
    });
}

/// Substituting a matched variable back reproduces the term:
/// instantiate ∘ match = id.
#[test]
fn match_then_instantiate_roundtrips() {
    Check::new("match_then_instantiate_roundtrips").run(arb_term, |t| {
        let m = matches(&Pat::var("X"), t);
        let rebuilt = Rhs::var("X").instantiate(&m[0]);
        assert_eq!(&rebuilt, t);
    });
}

/// Picking one element out of a bag yields one match per element occurrence
/// (duplicates give equal substitutions — exactly the multiset semantics of
/// `|`), and every rest has size len-1.
fn bag_single_pick_body(items: &[i64]) {
    let bag = Term::bag(items.iter().copied().map(Term::int).collect());
    let m = matches(&Pat::bag(vec![Pat::var("e")], "rest"), &bag);
    assert_eq!(m.len(), items.len());
    let distinct_substs: BTreeSet<String> = m.iter().map(|s| format!("{s:?}")).collect();
    let mut distinct = items.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct_substs.len(), distinct.len());
    for s in &m {
        assert_eq!(s["rest"].as_bag().unwrap().len(), items.len() - 1);
    }
}

#[test]
fn bag_single_pick_counts() {
    Check::new("bag_single_pick_counts").run(
        |g| g.vec(1..6, |g| g.gen_range(0i64..4)),
        |items| bag_single_pick_body(items),
    );
}

/// Regression: formerly the checked-in proptest seed that shrank to
/// `items = [2, 2]` — duplicated elements must produce one match per
/// *occurrence* but collapse to a single distinct substitution.
#[test]
fn bag_single_pick_duplicate_elements_regression() {
    bag_single_pick_body(&[2, 2]);
}

/// Picking two distinct elements yields k·(k−1) ordered assignments for
/// k distinct values (each unordered pair in both orders).
#[test]
fn bag_double_pick_counts() {
    Check::new("bag_double_pick_counts").run(
        |g| {
            // Distinct values: draw a few then dedup, like proptest's
            // hash_set generator (k may come out as low as 1).
            let raw = g.vec(2..6, |g| g.gen_range(0i64..8));
            raw.into_iter().collect::<BTreeSet<i64>>()
        },
        |items| {
            let k = items.len();
            let bag = Term::bag(items.iter().copied().map(Term::int).collect());
            let m = matches(&Pat::bag(vec![Pat::var("x"), Pat::var("y")], "rest"), &bag);
            assert_eq!(m.len(), k * (k - 1));
            for s in &m {
                assert_ne!(&s["x"], &s["y"]);
            }
        },
    );
}

/// The append operator is associative with the empty sequence as the
/// identity (the paper's `⊕` with `φ_x`).
#[test]
fn append_monoid_laws() {
    Check::new("append_monoid_laws").run(
        |g| {
            let mut v = || g.vec(0..5, |g| g.gen_range(0i64..5));
            (v(), v(), v())
        },
        |(a, b, c)| {
            let (ta, tb, tc) = (int_seq(a), int_seq(b), int_seq(c));
            // Identity.
            assert_eq!(ta.append(&Term::empty_seq()), ta.clone());
            assert_eq!(Term::empty_seq().append(&ta), ta.clone());
            // Associativity.
            assert_eq!(ta.append(&tb).append(&tc), ta.append(&tb.append(&tc)));
        },
    );
}

/// `is_prefix_of` is a partial order: reflexive, antisymmetric (up to
/// equality), transitive.
#[test]
fn prefix_is_partial_order() {
    Check::new("prefix_is_partial_order").run(
        |g| {
            let mut v = || g.vec(0..6, |g| g.gen_range(0i64..3));
            (v(), v(), v())
        },
        |(a, b, c)| {
            let (ta, tb, tc) = (int_seq(a), int_seq(b), int_seq(c));
            assert!(ta.is_prefix_of(&ta));
            if ta.is_prefix_of(&tb) && tb.is_prefix_of(&ta) {
                assert_eq!(&ta, &tb);
            }
            if ta.is_prefix_of(&tb) && tb.is_prefix_of(&tc) {
                assert!(ta.is_prefix_of(&tc));
            }
        },
    );
}

/// Rule application preserves determinism: applying the same rule to the
/// same state twice gives identical successor sets.
#[test]
fn successors_are_deterministic() {
    Check::new("successors_are_deterministic").run(
        |g| g.vec(0..5, |g| g.gen_range(0i64..4)),
        |items| {
            let rule = Rule::new(
                "drop-one",
                Pat::tuple(vec![Pat::bag(vec![Pat::var("e")], "rest")]),
                Rhs::tuple(vec![Rhs::var("rest")]),
            );
            let trs = Trs::new(vec![rule]);
            let state = Term::tuple(vec![Term::bag(
                items.iter().copied().map(Term::int).collect(),
            )]);
            assert_eq!(trs.successors(&state), trs.successors(&state));
        },
    );
}

/// Display never panics and is non-empty (C-DEBUG-NONEMPTY analogue).
#[test]
fn display_is_total() {
    Check::new("display_is_total").run(arb_term, |t| {
        assert!(!t.to_string().is_empty());
    });
}
