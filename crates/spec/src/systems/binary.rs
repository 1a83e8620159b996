//! System BinarySearch (Figure 7): circular rotation + binary search.
//!
//! State `(Q, P, T, I, O, W)` as in System Search, but:
//!
//! * rule 4 rotates the token strictly to `x⁺¹` (the ring restriction);
//! * search messages carry the requester's history and a range: rule 5
//!   mails `(N, H_x, τ_x)` directly across the ring; rule 6 compares the
//!   carried history with the local one (`⊂_C`) to pick clockwise or
//!   counter-clockwise and halves the range — a range-exhausted search is
//!   absorbed (its traps remain);
//! * rule 7 dispatches the token to a trapped requester *decorated* (`ŷ`),
//!   and rule 8 has the requester append its datum and return the token to
//!   the interception point, where rotation resumes.
//!
//! Theorem 1 (the prefix property) is machine-checked here on small
//! instances, along with token uniqueness and the simulation into System
//! Search.

use atp_trs::{Pat, Rhs, Rule, Term, Trs};

use super::common::{
    append_d, inbox_pat, mail, p_pat, p_rhs, q_entry_keep, q_entry_pat, q_entry_reset,
    rule_request, To,
};
use super::mp::{in_flight, map_messages, rule_receive, rule_send, rule_transfer};
use super::mp::{I, O, P, Q, T};
use super::search::{self, rule_grant, searching, trap_insert};
use crate::terms::{bot, field, minus, p_histories, plus, prefix_chain_ok, state_pat, state_rhs};

pub use super::search::initial;

/// State arity: `(Q, P, T, I, O, W)`.
pub const ARITY: usize = 6;

/// `W` field index.
pub const W: usize = 5;

/// An undecorated token message carrying history `h`.
pub fn tok(h: Term) -> Term {
    Term::tuple(vec![Term::sym("tok"), h])
}

/// A decorated (`ŷ`) token message: the receiver must return it after use.
pub fn hat(h: Term) -> Term {
    Term::tuple(vec![Term::sym("hat"), h])
}

/// A search message `(n, H_z, τ_z)` with remaining range `n`.
pub fn gim(n: i64, hz: Term, z: Term) -> Term {
    Term::tuple(vec![Term::sym("gim"), Term::int(n), hz, z])
}

/// A message's tag (`tok`, `hat` or `gim`) and the fields after it.
fn tagged(m: &Term) -> Option<(&str, &[Term])> {
    let t = m.as_tuple()?;
    Some((t.first()?.as_sym()?, &t[1..]))
}

/// Rule 5 (issue a search): mail `(N, H_x, τ_x)` directly across the ring
/// and trap locally; one search outstanding per node.
fn rule_gimme(n: usize) -> Rule {
    let lhs = state_pat(
        ARITY,
        vec![
            (Q, q_entry_pat()),
            (P, p_pat(&[("x", "Hx")])),
            (I, Pat::var("I")),
            (O, Pat::var("O")),
            (W, Pat::var("W")),
        ],
    );
    let across = (n as i64).div_euclid(2) + (n as i64 % 2);
    let rhs = state_rhs(
        ARITY,
        vec![
            (Q, q_entry_keep()),
            (P, p_rhs(vec![("x", Rhs::var("Hx"))])),
            (I, Rhs::var("I")),
            (
                O,
                mail("O|(x,(across,gim))", move |s| {
                    let to = plus(&s["x"], across, n);
                    (to, gim(n as i64, s["Hx"].clone(), s["x"].clone()))
                }),
            ),
            (W, trap_insert("W|(x,x)", |s| s["x"].clone())),
        ],
    );
    Rule::new("5:gimme", lhs, rhs).with_guard(|s| {
        let own = |m: &Term| matches!(tagged(m), Some(("gim", [_, _, z])) if *z == s["x"]);
        !s["d"].as_seq().expect("pending").is_empty() && !searching(s, &s["x"], own)
    })
}

/// Rule 6 (migrate a search): trap locally and forward `(n/2, H_z, τ_z)` to
/// `x⁻ⁿ/²` if `H_x ⊂_C H_z`, else `x⁺ⁿ/²`; a range-exhausted search is
/// absorbed.
fn rule_forward(n: usize, forward: bool) -> Rule {
    let m = Pat::tuple(vec![
        Pat::sym("gim"),
        Pat::var("n"),
        Pat::var("Hz"),
        Pat::var("z"),
    ]);
    let lhs = state_pat(
        ARITY,
        vec![
            (P, p_pat(&[("x", "Hx")])),
            (I, inbox_pat(Pat::Wild, m)),
            (O, Pat::var("O")),
            (W, Pat::var("W")),
        ],
    );
    let out = if forward {
        mail("O|(x,(u,gim/2))", move |s| {
            let half = s["n"].as_int().expect("range") / 2;
            let u = if s["Hx"].is_prefix_of(&s["Hz"]) {
                minus(&s["x"], half, n)
            } else {
                plus(&s["x"], half, n)
            };
            (u, gim(half, s["Hz"].clone(), s["z"].clone()))
        })
    } else {
        Rhs::var("O")
    };
    let rhs = state_rhs(
        ARITY,
        vec![
            (P, p_rhs(vec![("x", Rhs::var("Hx"))])),
            (I, Rhs::var("I")),
            (W, trap_insert("W|(x,z)", |s| s["z"].clone())),
            (O, out),
        ],
    );
    let name = if forward { "6:forward" } else { "6:absorb" };
    Rule::new(name, lhs, rhs)
        .with_guard(move |s| (s["n"].as_int().expect("range") / 2 >= 1) == forward)
}

/// Rule 8 (use and return): the requester receives the decorated token,
/// appends its datum, and immediately returns the token to the sender.
fn rule_use_and_return() -> Rule {
    let lhs = state_pat(
        ARITY,
        vec![
            (Q, q_entry_pat()),
            (P, p_pat(&[("x", "-")])),
            (T, Pat::sym("bot")),
            (
                I,
                inbox_pat(
                    Pat::var("y"),
                    Pat::tuple(vec![Pat::sym("hat"), Pat::var("Hm")]),
                ),
            ),
            (O, Pat::var("O")),
        ],
    );
    let rhs = state_rhs(
        ARITY,
        vec![
            (Q, q_entry_reset()),
            (P, p_rhs(vec![("x", append_d("Hm"))])),
            (T, Rhs::sym("bot")),
            (I, Rhs::var("I")),
            (
                O,
                mail("O|(x,(y,tok))", |s| {
                    (s["y"].clone(), tok(s["Hm"].append(&s["d"])))
                }),
            ),
        ],
    );
    Rule::new("8:use-and-return", lhs, rhs)
}

/// The 8 rules of System BinarySearch for a ring of `n` nodes: Search's
/// rules with the token tagged `tok`, sent only to `x⁺¹` (4) and granted
/// decorated (7), search messages carrying a range (5, 6), and rule 8.
pub fn system(n: usize, b: i64) -> Trs {
    Trs::new(vec![
        rule_request(ARITY, b),
        rule_transfer(ARITY),
        rule_receive(
            ARITY,
            "3:receive",
            Pat::Wild,
            Pat::tuple(vec![Pat::sym("tok"), Pat::var("Hm")]),
        ),
        rule_send(ARITY, "4:rotate", To::Next(n), tok),
        rule_gimme(n),
        rule_forward(n, true),
        rule_forward(n, false),
        rule_grant(Pat::var("z"), hat),
        rule_use_and_return(),
    ])
}

/// Histories in the system: local prefixes, token messages (tok/hat) and
/// the snapshots inside search messages.
fn all_histories(state: &Term) -> Vec<&Term> {
    let mut out = p_histories(field(state, P));
    out.extend(in_flight(state).filter_map(|m| match tagged(m)? {
        ("tok" | "hat", [h]) | ("gim", [_, h, _]) => Some(h),
        _ => None,
    }));
    out
}

/// Theorem 1: the distributed prefix property.
pub fn prefix_ok(state: &Term) -> bool {
    prefix_chain_ok(all_histories(state))
}

/// Token uniqueness (counting decorated and undecorated frames).
pub fn token_unique(state: &Term) -> bool {
    let held = usize::from(field(state, T) != &bot());
    let moving = in_flight(state).filter(|m| matches!(tagged(m), Some(("tok" | "hat", _))));
    held + moving.count() == 1
}

/// Search ranges never go below 1 (rule 6's halving bottoms out).
pub fn ranges_positive(state: &Term) -> bool {
    !in_flight(state).any(
        |m| matches!(tagged(m), Some(("gim", [range, _, _])) if range.as_int().unwrap_or(0) < 1),
    )
}

/// Refinement map into System Search: strip the range and carried history
/// from search messages, erase token decorations, flatten traps.
pub fn to_search(state: &Term) -> Term {
    let strip = |fi: usize| {
        map_messages(field(state, fi), |m| match tagged(m) {
            Some(("tok" | "hat", [h])) => Some(h.clone()),
            Some(("gim", [_, _, z])) => Some(search::tau(z)),
            other => panic!("unknown message kind {other:?}"),
        })
    };
    let w = field(state, W).as_bag().expect("W").iter().map(|entry| {
        let t = entry.as_tuple().expect("trap");
        Term::tuple(vec![t[0].clone(), search::tau(&t[1])])
    });
    Term::tuple(vec![
        field(state, Q).clone(),
        field(state, P).clone(),
        field(state, T).clone(),
        strip(I),
        strip(O),
        Term::bag(w.collect()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_prefix_everywhere;
    use crate::refinement::check_refinement;
    use atp_trs::Explorer;

    /// N = 2 is exhaustible (≈15k states); N = 3 exceeds memory-friendly
    /// bounds (>500k), so it gets *bounded* model checking.
    const EXHAUSTIVE_CAP: usize = 100_000;
    const BOUNDED_CAP: usize = 120_000;

    #[test]
    fn theorem_1_prefix_property_holds_everywhere_n2() {
        let report = check_prefix_everywhere(&system(2, 1), initial(2), prefix_ok, EXHAUSTIVE_CAP);
        assert!(report.holds(), "violation: {:?}", report.violation);
        assert!(report.states() > 500);
    }

    #[test]
    fn token_uniqueness_holds_everywhere_n2() {
        let report =
            check_prefix_everywhere(&system(2, 1), initial(2), token_unique, EXHAUSTIVE_CAP);
        assert!(report.holds(), "violation: {:?}", report.violation);
    }

    #[test]
    fn bounded_check_n3() {
        let inv = |s: &Term| prefix_ok(s) && token_unique(s) && ranges_positive(s);
        let report = check_prefix_everywhere(&system(3, 1), initial(3), inv, BOUNDED_CAP);
        assert!(report.violation_free(), "violation: {:?}", report.violation);
        assert!(
            report.states() >= BOUNDED_CAP,
            "bounded check should fill the cap"
        );
    }

    #[test]
    fn search_ranges_stay_positive_n2() {
        let report =
            check_prefix_everywhere(&system(2, 1), initial(2), ranges_positive, EXHAUSTIVE_CAP);
        assert!(report.holds(), "violation: {:?}", report.violation);
    }

    #[test]
    fn refines_system_search() {
        let graph = Explorer::with_max_states(EXHAUSTIVE_CAP).explore(&system(2, 1), initial(2));
        assert!(!graph.is_truncated());
        // Rule 8 = Search receive + send: abstract paths up to length 2.
        check_refinement(&graph, &search::system(2, 1), to_search, 2)
            .expect("BinarySearch must refine Search");
    }

    #[test]
    fn decorated_grants_occur_and_return() {
        let graph = Explorer::with_max_states(EXHAUSTIVE_CAP).explore(&system(2, 1), initial(2));
        let has_hat = graph.states().iter().any(|s| {
            [I, O].iter().any(|&fi| {
                field(s, fi).as_bag().unwrap().iter().any(|entry| {
                    entry.as_tuple().unwrap()[1].as_tuple().unwrap()[1]
                        .as_tuple()
                        .map(|t| t[0] == Term::sym("hat"))
                        .unwrap_or(false)
                })
            })
        });
        assert!(has_hat, "rule 7 should fire somewhere in the state space");
    }
}
