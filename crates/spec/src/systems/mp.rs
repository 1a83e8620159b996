//! System Message-Passing (Figure 5): no global state, explicit messages.
//!
//! State `(Q, P, T, I, O)`: the global history disappears as state and
//! travels inside token messages. `T` is either the holder's id or the
//! distinguished `⊥` while the token is in transit. The instantaneous
//! holder-to-holder handoff becomes a send rule (3) and a receive rule (4),
//! glued by the transfer rule (2) that models the network.
//!
//! Lemma 3: the prefix property — here, that all local histories and every
//! in-flight history are totally ordered by the prefix relation — holds in
//! every reachable state; we also machine-check **token uniqueness**
//! (exactly one token exists, held or in flight).

use atp_trs::{Pat, Rhs, Rule, Term, Trs};

use super::common::{
    append_d, inbox_pat, mail, p_pat, p_rhs, q_entry_pat, q_entry_reset, rule_request, To,
};
use crate::terms::{
    bot, field, msg, p_histories, p_init, prefix_chain_ok, q_init, state_pat, state_rhs,
};

/// State arity: `(Q, P, T, I, O)`.
pub const ARITY: usize = 5;

/// Positions of the state fields.
pub const Q: usize = 0;
/// `P` field index.
pub const P: usize = 1;
/// `T` field index.
pub const T: usize = 2;
/// `I` field index.
pub const I: usize = 3;
/// `O` field index.
pub const O: usize = 4;

/// Rule 2 (transfer): `(…, I, O|(a,(b,m))) → (…, I|(b,(a,m)), O)`.
pub(crate) fn rule_transfer(arity: usize) -> Rule {
    let lhs = state_pat(
        arity,
        vec![
            (I, Pat::var("I")),
            (
                O,
                Pat::bag(
                    vec![Pat::tuple(vec![
                        Pat::var("a"),
                        Pat::tuple(vec![Pat::var("b"), Pat::var("m")]),
                    ])],
                    "O",
                ),
            ),
        ],
    );
    let rhs = state_rhs(
        arity,
        vec![
            (
                I,
                Rhs::apply("I|(b,(a,m))", |s| {
                    s["I"].bag_insert(msg(s["b"].clone(), s["a"].clone(), s["m"].clone()))
                }),
            ),
            (O, Rhs::var("O")),
        ],
    );
    Rule::new("2:transfer", lhs, rhs)
}

/// Rule 3 (send): the holder appends its data, updates its prefix, and mails
/// the new history to `y`:
/// `(Q|(x,d_x), P|(x,H_x), x, −, O) → (Q|(x,φ_x), P|(x,H_x⊕d_x), ⊥, −, O|(x,(y,H_x⊕d_x)))`.
///
/// `to` names `y` (a peer for `3:send`, the holder for `3:send-self`) and
/// `wrap` builds the token message from the history. Search reuses the rule
/// as its rule 4; BinarySearch's `4:rotate` is it with `y = x⁺¹` and the
/// message tagged `tok`.
pub(crate) fn rule_send(arity: usize, name: &str, to: To, wrap: fn(Term) -> Term) -> Rule {
    let lhs = state_pat(
        arity,
        vec![
            (Q, q_entry_pat()),
            (P, to.p_pat("Hx")),
            (T, Pat::var("x")),
            (O, Pat::var("O")),
        ],
    );
    let rhs = state_rhs(
        arity,
        vec![
            (Q, q_entry_reset()),
            (P, to.p_rhs(append_d("Hx"))),
            (T, Rhs::sym("bot")),
            (
                O,
                mail("O|(x,(y,H⊕d))", move |s| {
                    (to.node(s), wrap(s["Hx"].append(&s["d"])))
                }),
            ),
        ],
    );
    Rule::new(name, lhs, rhs)
}

/// Rule 4 (receive): `(−, P|(x,−), ⊥, I|(x,(y,H)), −) → (−, P|(x,H), x, I, −)`.
///
/// `from` and `m` are the patterns of the sender and the message, and `m`
/// binds the history as `Hm`. Search reuses the rule as its rule 3, guarded
/// to token messages; BinarySearch's takes only messages tagged `tok`.
pub(crate) fn rule_receive(arity: usize, name: &str, from: Pat, m: Pat) -> Rule {
    let lhs = state_pat(
        arity,
        vec![
            (P, p_pat(&[("x", "-")])),
            (T, Pat::sym("bot")),
            (I, inbox_pat(from, m)),
        ],
    );
    let rhs = state_rhs(
        arity,
        vec![
            (P, p_rhs(vec![("x", Rhs::var("Hm"))])),
            (T, Rhs::var("x")),
            (I, Rhs::var("I")),
        ],
    );
    Rule::new(name, lhs, rhs)
}

/// The rules of System Message-Passing: S's rule 1, the transfer rule, the
/// send rule 3 (to a peer or to oneself) and the receive rule 4.
pub fn system(_n: usize, b: i64) -> Trs {
    Trs::new(vec![
        rule_request(ARITY, b),
        rule_transfer(ARITY),
        rule_send(ARITY, "3:send", To::Peer, |h| h),
        rule_send(ARITY, "3:send-self", To::Holder, |h| h),
        rule_receive(ARITY, "4:receive", Pat::var("y"), Pat::var("Hm")),
    ])
}

/// Initial state: node 0 holds the token, no messages in flight.
pub fn initial(n: usize) -> Term {
    Term::tuple(vec![
        q_init(n),
        p_init(n),
        Term::int(0),
        Term::bag(vec![]),
        Term::bag(vec![]),
    ])
}

/// Every message record `(a, (b, m))` of a message bag, as `(a, b, m)`.
pub(crate) fn messages(bag: &Term) -> impl Iterator<Item = (&Term, &Term, &Term)> {
    bag.as_bag().expect("message bag").iter().map(|entry| {
        let t = entry.as_tuple().expect("msg");
        let inner = t[1].as_tuple().expect("msg");
        (&t[0], &inner[0], &inner[1])
    })
}

/// The payload of every message in flight, `I` before `O`.
pub(crate) fn in_flight(state: &Term) -> impl Iterator<Item = &Term> {
    [I, O]
        .into_iter()
        .flat_map(move |fi| messages(field(state, fi)).map(|(_, _, m)| m))
}

/// A message bag rebuilt with every payload mapped through `f`, dropping
/// the messages it maps to `None`.
pub(crate) fn map_messages(bag: &Term, f: impl Fn(&Term) -> Option<Term>) -> Term {
    Term::bag(
        messages(bag)
            .filter_map(|(a, b, m)| f(m).map(|m| msg(a.clone(), b.clone(), m)))
            .collect(),
    )
}

/// The distributed prefix property for MP: all local histories and all
/// in-flight histories (every MP message carries one) are pairwise
/// prefix-comparable.
pub fn prefix_ok(state: &Term) -> bool {
    let mut hs = p_histories(field(state, P));
    hs.extend(in_flight(state));
    prefix_chain_ok(hs)
}

/// Token uniqueness: exactly one token, either held (`T = x`) or in flight
/// (one message).
pub fn token_unique(state: &Term) -> bool {
    let held = usize::from(field(state, T) != &bot());
    held + in_flight(state).count() == 1
}

/// Refinement map into System S1: the global `H` is the longest history
/// anywhere in the system (local or in flight).
pub fn to_s1(state: &Term) -> Term {
    let mut hs = p_histories(field(state, P));
    hs.extend(in_flight(state));
    let h_glob = hs
        .into_iter()
        .max_by_key(|h| h.as_seq().expect("history").len())
        .cloned()
        .unwrap_or_else(Term::empty_seq);
    Term::tuple(vec![
        field(state, Q).clone(),
        h_glob,
        field(state, P).clone(),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_prefix_everywhere;
    use crate::refinement::check_refinement;
    use crate::systems::s1;
    use atp_trs::Explorer;

    #[test]
    fn lemma_3_prefix_property_holds_everywhere() {
        let report = check_prefix_everywhere(&system(3, 1), initial(3), prefix_ok, 200_000);
        assert!(report.holds(), "violation: {:?}", report.violation);
        assert!(report.states() > 100);
    }

    #[test]
    fn token_uniqueness_holds_everywhere() {
        let report = check_prefix_everywhere(&system(3, 1), initial(3), token_unique, 200_000);
        assert!(report.holds(), "violation: {:?}", report.violation);
    }

    #[test]
    fn refines_s1() {
        let graph = Explorer::with_max_states(200_000).explore(&system(2, 1), initial(2));
        assert!(!graph.is_truncated());
        // Send = S1 broadcast (+ the holder's self-copy): 2 abstract steps;
        // receive = S1 copy: 1 step; transfer = stutter.
        check_refinement(&graph, &s1::system(2, 1), to_s1, 2).expect("MP must refine S1");
    }

    #[test]
    fn token_can_visit_every_node() {
        let graph = Explorer::with_max_states(200_000).explore(&system(3, 1), initial(3));
        for node in 0..3 {
            assert!(
                graph
                    .states()
                    .iter()
                    .any(|s| field(s, T) == &Term::int(node)),
                "node {node} never holds the token"
            );
        }
    }
}
