//! System Token (Figure 4): broadcasting requires the token.
//!
//! State `(Q, H, P, T)`: rule 2 now fires only at the token holder (`T = x`)
//! and combines S1's broadcast and local-copy rules — the holder appends its
//! data and refreshes its own prefix in one step, then passes the token to
//! an arbitrary node `y`. Lemma 2: the reachable states are a subset of
//! S1's, so the prefix property carries over.

use atp_trs::{Pat, Rhs, Rule, Term, Trs};

use super::common::{append_d, q_entry_pat, q_entry_reset, rule_request, To};
use super::s1;
use crate::terms::{field, p_init, q_init, state_pat, state_rhs};

/// State arity: `(Q, H, P, T)`.
pub const ARITY: usize = 4;

/// Rule 2, S1's rules 2 and 3 in one step at the holder, then the token goes
/// to a peer `y` (`2:broadcast-pass`) or stays (`2:broadcast-keep`):
/// `(Q|(x,d_x), H, P|(x,−), x) → (Q|(x,φ_x), H⊕d_x, P|(x,H⊕d_x), y)`.
fn rule_broadcast_and_pass(name: &str, to: To) -> Rule {
    let lhs = state_pat(
        ARITY,
        vec![
            (0, q_entry_pat()),
            (1, Pat::var("H")),
            (2, to.p_pat("-")),
            (3, Pat::var("x")), // non-linear: T must equal the Q entry's x
        ],
    );
    let rhs = state_rhs(
        ARITY,
        vec![
            (0, q_entry_reset()),
            (1, append_d("H")),
            (2, to.p_rhs(append_d("H"))),
            (3, Rhs::apply("to", move |s| to.node(s))),
        ],
    );
    Rule::new(name, lhs, rhs)
}

/// The rules of System Token: S's rule 1 and the token-guarded rule 2.
pub fn system(_n: usize, b: i64) -> Trs {
    Trs::new(vec![
        rule_request(ARITY, b),
        rule_broadcast_and_pass("2:broadcast-pass", To::Peer),
        rule_broadcast_and_pass("2:broadcast-keep", To::Holder),
    ])
}

/// Initial state: node 0 holds the token.
pub fn initial(n: usize) -> Term {
    Term::tuple(vec![q_init(n), Term::empty_seq(), p_init(n), Term::int(0)])
}

/// Definition 2 for Token: every local history is a prefix of `H` (S1's
/// check; Token keeps `H` and `P` where S1 has them).
pub fn prefix_ok(state: &Term) -> bool {
    s1::prefix_ok(state)
}

/// The refinement mapping into S1: forget `T`.
pub fn to_s1(state: &Term) -> Term {
    Term::tuple(vec![
        field(state, 0).clone(),
        field(state, 1).clone(),
        field(state, 2).clone(),
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
    fn lemma_2_prefix_property_holds_everywhere() {
        let report = check_prefix_everywhere(&system(3, 1), initial(3), prefix_ok, 150_000);
        assert!(report.holds(), "violation: {:?}", report.violation);
    }

    #[test]
    fn refines_s1_with_two_step_paths() {
        // Token's rule 2 is the composition of S1's rules 2 and 3, so a
        // single Token step needs up to two abstract S1 steps.
        let graph = Explorer::with_max_states(150_000).explore(&system(3, 1), initial(3));
        assert!(!graph.is_truncated());
        check_refinement(&graph, &s1::system(3, 1), to_s1, 2).expect("Token must refine S1");
    }

    #[test]
    fn only_the_holder_broadcasts() {
        let graph = Explorer::with_max_states(150_000).explore(&system(2, 1), initial(2));
        // In every edge that grows H, the source state's T matches the node
        // whose datum was appended.
        for &(from, _, to) in graph.edges() {
            let sh = field(&graph.states()[from], 1).as_seq().unwrap().len();
            let th = field(&graph.states()[to], 1).as_seq().unwrap();
            if th.len() > sh {
                let appended_origin = th[sh].as_tuple().unwrap()[1].clone();
                let holder = field(&graph.states()[from], 3).clone();
                assert_eq!(appended_origin, holder);
            }
        }
    }
}
