//! System S (Figure 2): the base abstract protocol.
//!
//! State `(Q, H)`: when a node wishes to broadcast it adds a datum to its
//! `Q` entry (rule 1); broadcasting appends the pending data to the single
//! global history `H` (rule 2). The prefix property is immediate — there are
//! no local copies yet — so the check here is the sanity invariant that `H`
//! never repeats a datum.

use atp_trs::{Pat, Rule, Term, Trs};

use super::common::{append_d, q_entry_pat, q_entry_reset, rule_request};
use crate::terms::{field, q_init, state_pat, state_rhs};

/// State arity: `(Q, H)`.
pub const ARITY: usize = 2;

/// Rule 2: `(Q | (x, d_x), H, …) → (Q, H ⊕ d_x, …)`, for any state that
/// keeps `H` in field 1 (S1 adds `P` after it and reuses the rule).
pub(crate) fn rule_broadcast(arity: usize) -> Rule {
    let lhs = state_pat(arity, vec![(0, q_entry_pat()), (1, Pat::var("H"))]);
    let rhs = state_rhs(arity, vec![(0, q_entry_reset()), (1, append_d("H"))]);
    Rule::new("2:broadcast", lhs, rhs)
}

/// The rules of System S for `n` nodes, each broadcasting at most `b` times.
pub fn system(_n: usize, b: i64) -> Trs {
    Trs::new(vec![rule_request(ARITY, b), rule_broadcast(ARITY)])
}

/// Initial state: `(||ₓ (x, φₓ), ∅)`.
pub fn initial(n: usize) -> Term {
    Term::tuple(vec![q_init(n), Term::empty_seq()])
}

/// The global history `H` of a System S state.
pub fn history(state: &Term) -> &Term {
    field(state, 1)
}

/// System S's safety invariant: every datum appears at most once in `H`
/// (histories only ever grow by fresh data).
pub fn prefix_ok(state: &Term) -> bool {
    let h = history(state).as_seq().expect("H sequence");
    for (i, a) in h.iter().enumerate() {
        if h[i + 1..].contains(a) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::check_prefix_everywhere;
    use atp_trs::Explorer;

    #[test]
    fn exploration_is_finite_and_safe() {
        let report = check_prefix_everywhere(&system(3, 2), initial(3), prefix_ok, 100_000);
        assert!(report.holds(), "violation: {:?}", report.violation);
        assert!(report.states() > 10);
    }

    #[test]
    fn broadcasts_extend_history() {
        let trs = system(2, 1);
        let graph = Explorer::default().explore(&trs, initial(2));
        // Some reachable state has both data in H.
        let full = graph
            .states()
            .iter()
            .find(|s| history(s).as_seq().unwrap().len() == 2);
        assert!(full.is_some(), "both broadcasts should be able to commit");
    }

    #[test]
    fn history_order_is_nondeterministic() {
        let trs = system(2, 1);
        let graph = Explorer::default().explore(&trs, initial(2));
        let orders: std::collections::HashSet<String> = graph
            .states()
            .iter()
            .filter(|s| history(s).as_seq().unwrap().len() == 2)
            .map(|s| history(s).to_string())
            .collect();
        // Both interleavings of the two nodes' data are reachable.
        assert_eq!(orders.len(), 2, "orders: {orders:?}");
    }
}
