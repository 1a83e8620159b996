//! System S1 (Figure 3): local prefix histories.
//!
//! State `(Q, H, P)`: the first refinement adds the collection `P` of local
//! history prefixes. Rule 3 copies the global history into any node's local
//! record *"at any time … from a safety point of view, the nodes can perform
//! a copy in any order and at any time"*. Lemma 1: S1 satisfies the prefix
//! property.

use atp_trs::{Pat, Rhs, Rule, Term, Trs};

use super::common::{p_pat, p_rhs, rule_request};
use super::s::rule_broadcast;
use crate::terms::{field, p_histories, p_init, q_init, state_pat, state_rhs};

/// State arity: `(Q, H, P)`.
pub const ARITY: usize = 3;

/// Rule 3: `(−, H, P | (y, −)) → (−, H, P | (y, H))`.
fn rule_copy() -> Rule {
    let lhs = state_pat(ARITY, vec![(1, Pat::var("H")), (2, p_pat(&[("y", "-")]))]);
    let rhs = state_rhs(
        ARITY,
        vec![(1, Rhs::var("H")), (2, p_rhs(vec![("y", Rhs::var("H"))]))],
    );
    Rule::new("3:copy", lhs, rhs)
}

/// The rules of System S1: S's rules 1 and 2 and the copy rule 3.
pub fn system(_n: usize, b: i64) -> Trs {
    Trs::new(vec![
        rule_request(ARITY, b),
        rule_broadcast(ARITY),
        rule_copy(),
    ])
}

/// Initial state: `(||ₓ (x, φₓ), ∅, ||ₓ (x, ∅))`.
pub fn initial(n: usize) -> Term {
    Term::tuple(vec![q_init(n), Term::empty_seq(), p_init(n)])
}

/// Definition 2 for S1: every local history in `P` is a prefix of `H`.
pub fn prefix_ok(state: &Term) -> bool {
    let h = field(state, 1);
    p_histories(field(state, 2))
        .into_iter()
        .all(|hx| hx.is_prefix_of(h))
}

/// The refinement mapping into System S: forget `P` (the proof of Lemma 1:
/// *"The mapping is trivial, just ignore the values of P"*).
pub fn to_s(state: &Term) -> Term {
    Term::tuple(vec![field(state, 0).clone(), field(state, 1).clone()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_prefix_everywhere;
    use crate::refinement::check_refinement;
    use crate::systems::s;
    use atp_trs::Explorer;

    #[test]
    fn lemma_1_prefix_property_holds_everywhere() {
        let report = check_prefix_everywhere(&system(3, 1), initial(3), prefix_ok, 150_000);
        assert!(report.holds(), "violation: {:?}", report.violation);
        assert!(report.states() > 50);
    }

    #[test]
    fn refines_system_s() {
        let graph = Explorer::with_max_states(150_000).explore(&system(3, 1), initial(3));
        assert!(!graph.is_truncated());
        let abs = s::system(3, 1);
        check_refinement(&graph, &abs, to_s, 1).expect("S1 must refine S");
    }

    #[test]
    fn local_histories_can_lag_arbitrarily() {
        let graph = Explorer::with_max_states(150_000).explore(&system(2, 1), initial(2));
        // Some state has H of length 2 while a local history is still empty.
        let lagging = graph.states().iter().any(|st| {
            field(st, 1).as_seq().unwrap().len() == 2
                && p_histories(field(st, 2))
                    .iter()
                    .any(|h| h.as_seq().unwrap().is_empty())
        });
        assert!(lagging, "laggards should be allowed by rule 3's freedom");
    }
}
