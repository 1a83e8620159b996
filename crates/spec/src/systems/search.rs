//! System Search (Figure 6): non-deterministic token search.
//!
//! State `(Q, P, T, I, O, W)`: a ready node emits a search message (`τ_x`,
//! rule 5) that migrates through the nodes, each of which sets a local trap
//! (rule 6); a holder with a trap sends the token straight to the trapped
//! requester (rule 7).
//!
//! Two bounding/realism refinements are applied, both *restrictions* of the
//! paper's rules (and both matching `atp-core`'s executable plane):
//!
//! * rule 5 keeps one search outstanding per node (Section 4.4's
//!   single-outstanding-request refinement);
//! * rule 7 fires only when the holder has no pending datum of its own —
//!   holders serve themselves before delegating, which is also what makes
//!   rule 7 map onto Message-Passing's send rule (whose append must be a
//!   no-op for the histories to agree);
//! * an absorb variant of rule 6 lets a search message end instead of
//!   migrating forever (required as the image of System BinarySearch's
//!   range-exhausted search, and harmless: traps are the only effect either
//!   way).

use atp_trs::{Pat, Rhs, Rule, Subst, Term, Trs};

use super::common::{inbox_pat, mail, p_pat, p_rhs, q_entry_keep, q_entry_pat, rule_request, To};
use super::mp::{self, in_flight, map_messages, messages, rule_receive, rule_send, rule_transfer};
use super::mp::{I, O, P, Q, T};
use crate::terms::{bot, field, p_histories, prefix_chain_ok, state_pat, state_rhs};

/// State arity: `(Q, P, T, I, O, W)`.
pub const ARITY: usize = 6;

/// `W` field index.
pub const W: usize = 5;

/// The trap symbol `τ_z` as a term.
pub fn tau(z: &Term) -> Term {
    Term::tuple(vec![Term::sym("tau"), z.clone()])
}

/// Whether any node has set the trap `trap` (`(·, trap)` in `W`).
pub(crate) fn traps_contain(w: &Term, trap: &Term) -> bool {
    w.as_bag()
        .expect("W bag")
        .iter()
        .any(|entry| &entry.as_tuple().expect("trap")[1] == trap)
}

/// Whether node `x` has a search outstanding (rule 5 keeps at most one):
/// its own trap `trap` is set, or a message in `I` or `O` is one of its
/// searches. The rule must bind `W`, `I` and `O` whole.
pub(crate) fn searching(s: &Subst, trap: &Term, is_own_search: impl Fn(&Term) -> bool) -> bool {
    traps_contain(&s["W"], trap)
        || [&s["I"], &s["O"]]
            .into_iter()
            .flat_map(messages)
            .any(|(_, _, m)| is_own_search(m))
}

/// `W | (x, trap)`: node `x` sets the trap computed from the match, unless
/// it is already set (trap dedup). The rule must bind `W`.
pub(crate) fn trap_insert(
    name: &str,
    trap: impl Fn(&Subst) -> Term + Send + Sync + 'static,
) -> Rhs {
    Rhs::apply(name, move |s| {
        let entry = Term::tuple(vec![s["x"].clone(), trap(s)]);
        if s["W"].as_bag().expect("W").contains(&entry) {
            s["W"].clone()
        } else {
            s["W"].bag_insert(entry)
        }
    })
}

/// Rule 5 (issue a search): a ready node traps itself and mails `τ_x` to
/// some other node, provided it has no search already outstanding.
fn rule_gimme() -> Rule {
    let lhs = state_pat(
        ARITY,
        vec![
            (Q, q_entry_pat()),
            (P, p_pat(&[("x", "Hx"), ("y", "Hy")])),
            (I, Pat::var("I")),
            (O, Pat::var("O")),
            (W, Pat::var("W")),
        ],
    );
    let rhs = state_rhs(
        ARITY,
        vec![
            (Q, q_entry_keep()),
            (P, p_rhs(vec![("x", Rhs::var("Hx")), ("y", Rhs::var("Hy"))])),
            (I, Rhs::var("I")),
            (O, mail("O|(x,(y,τx))", |s| (s["y"].clone(), tau(&s["x"])))),
            (W, trap_insert("W|(x,τx)", |s| tau(&s["x"]))),
        ],
    );
    Rule::new("5:gimme", lhs, rhs).with_guard(|s| {
        let own = tau(&s["x"]);
        !s["d"].as_seq().expect("pending").is_empty() && !searching(s, &own, |m| *m == own)
    })
}

/// Rule 6 (migrate a search): consume `τ_z`, set the local trap, and either
/// forward to another node `u` (`forward = true`) or absorb the message.
fn rule_forward(forward: bool) -> Rule {
    let entries: &[(&str, &str)] = if forward {
        &[("x", "Hx"), ("u", "Hu")]
    } else {
        &[("x", "Hx")]
    };
    let lhs = state_pat(
        ARITY,
        vec![
            (P, p_pat(entries)),
            (
                I,
                inbox_pat(Pat::Wild, Pat::tuple(vec![Pat::sym("tau"), Pat::var("z")])),
            ),
            (O, Pat::var("O")),
            (W, Pat::var("W")),
        ],
    );
    let out = if forward {
        mail("O|(x,(u,τz))", |s| (s["u"].clone(), tau(&s["z"])))
    } else {
        Rhs::var("O")
    };
    let rhs = state_rhs(
        ARITY,
        vec![
            (
                P,
                p_rhs(entries.iter().map(|&(x, h)| (x, Rhs::var(h))).collect()),
            ),
            (I, Rhs::var("I")),
            (W, trap_insert("W|(x,τz)", |s| tau(&s["z"]))),
            (O, out),
        ],
    );
    Rule::new(if forward { "6:forward" } else { "6:absorb" }, lhs, rhs)
}

/// Rule 7 (grant): a holder with no pending datum of its own serves a
/// requester `z` whose trap it holds (`(x, trap)` in `W`), mailing it the
/// token wrapped by `wrap`.
pub(crate) fn rule_grant(trap: Pat, wrap: fn(Term) -> Term) -> Rule {
    let lhs = state_pat(
        ARITY,
        vec![
            (Q, q_entry_pat()),
            (P, p_pat(&[("x", "Hx")])),
            (T, Pat::var("x")),
            (O, Pat::var("O")),
            (
                W,
                Pat::bag(vec![Pat::tuple(vec![Pat::var("x"), trap])], "W"),
            ),
        ],
    );
    let rhs = state_rhs(
        ARITY,
        vec![
            (Q, q_entry_keep()),
            (P, p_rhs(vec![("x", Rhs::var("Hx"))])),
            (T, Rhs::sym("bot")),
            (
                O,
                mail("O|(x,(z,H))", move |s| {
                    (s["z"].clone(), wrap(s["Hx"].clone()))
                }),
            ),
            (W, Rhs::var("W")),
        ],
    );
    Rule::new("7:grant", lhs, rhs).with_guard(|s| s["d"].as_seq().expect("pending").is_empty())
}

/// The rules of System Search: Message-Passing's rules 1–4 (the receive
/// rule now only takes token messages) and the search rules 5–7.
pub fn system(_n: usize, b: i64) -> Trs {
    Trs::new(vec![
        rule_request(ARITY, b),
        rule_transfer(ARITY),
        rule_receive(ARITY, "3:receive", Pat::var("y"), Pat::var("Hm"))
            .with_guard(|s| is_token(&s["Hm"])),
        rule_send(ARITY, "4:send", To::Peer, |h| h),
        rule_send(ARITY, "4:send-self", To::Holder, |h| h),
        rule_gimme(),
        rule_forward(true),
        rule_forward(false),
        rule_grant(Pat::tuple(vec![Pat::sym("tau"), Pat::var("z")]), |h| h),
    ])
}

/// Initial state: Message-Passing's, with no traps.
pub fn initial(n: usize) -> Term {
    let mut fields = mp::initial(n).as_tuple().expect("state").to_vec();
    fields.push(Term::bag(vec![]));
    Term::tuple(fields)
}

/// Whether a message is a token (a history; search messages carry none).
fn is_token(m: &Term) -> bool {
    matches!(m, Term::Seq(_))
}

/// Distributed prefix property (local histories + in-flight token).
pub fn prefix_ok(state: &Term) -> bool {
    let mut hs = p_histories(field(state, P));
    hs.extend(in_flight(state).filter(|m| is_token(m)));
    prefix_chain_ok(hs)
}

/// Token uniqueness: held or exactly one token message in flight.
pub fn token_unique(state: &Term) -> bool {
    let held = usize::from(field(state, T) != &bot());
    held + in_flight(state).filter(|m| is_token(m)).count() == 1
}

/// Refinement map into Message-Passing: forget `W` and erase search
/// messages.
pub fn to_mp(state: &Term) -> Term {
    let strip = |fi: usize| map_messages(field(state, fi), |m| is_token(m).then(|| m.clone()));
    Term::tuple(vec![
        field(state, Q).clone(),
        field(state, P).clone(),
        field(state, T).clone(),
        strip(I),
        strip(O),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_prefix_everywhere;
    use crate::refinement::check_refinement;
    use crate::systems::mp;
    use atp_trs::Explorer;

    /// N = 2 is exhaustible (≈19k states); N = 3 exceeds memory-friendly
    /// bounds (>500k), so it gets *bounded* model checking.
    const EXHAUSTIVE_CAP: usize = 100_000;
    const BOUNDED_CAP: usize = 120_000;

    #[test]
    fn prefix_property_holds_everywhere_n2() {
        let report = check_prefix_everywhere(&system(2, 1), initial(2), prefix_ok, EXHAUSTIVE_CAP);
        assert!(report.holds(), "violation: {:?}", report.violation);
    }

    #[test]
    fn token_uniqueness_holds_everywhere_n2() {
        let report =
            check_prefix_everywhere(&system(2, 1), initial(2), token_unique, EXHAUSTIVE_CAP);
        assert!(report.holds(), "violation: {:?}", report.violation);
    }

    #[test]
    fn bounded_check_n3() {
        let inv = |s: &Term| prefix_ok(s) && token_unique(s);
        let report = check_prefix_everywhere(&system(3, 1), initial(3), inv, BOUNDED_CAP);
        assert!(report.violation_free(), "violation: {:?}", report.violation);
        assert!(
            report.states() >= BOUNDED_CAP,
            "bounded check should fill the cap"
        );
    }

    #[test]
    fn refines_message_passing() {
        let graph = Explorer::with_max_states(EXHAUSTIVE_CAP).explore(&system(2, 1), initial(2));
        assert!(!graph.is_truncated());
        check_refinement(&graph, &mp::system(2, 1), to_mp, 1).expect("Search must refine MP");
    }

    #[test]
    fn grants_happen_through_traps() {
        // Some reachable state has the token at a node that got it via a
        // grant while traps existed: witness that rule 7 fires.
        let graph = Explorer::with_max_states(EXHAUSTIVE_CAP).explore(&system(2, 1), initial(2));
        let trapped = graph
            .states()
            .iter()
            .any(|s| !field(s, W).as_bag().unwrap().is_empty());
        assert!(trapped, "traps are set");
        // And node 1 (never the initial holder) can end up holding.
        assert!(graph.states().iter().any(|s| field(s, T) == &Term::int(1)));
    }
}
