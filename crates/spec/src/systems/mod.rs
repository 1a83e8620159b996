//! The six refinement levels, derived from one another as in the paper.
//!
//! Each rule is written once, in the system that introduces it; a later
//! system calls that builder, passing only what its refinement changes (the
//! state arity, where the token goes, how a token message is tagged, the
//! shape of a trap):
//!
//! * **S** — rule 1 (request, [`rule_request`], shared by every level) and
//!   rule 2 (broadcast to the global `H`).
//! * **S1** — S's rules 1 and 2; adds rule 3 (copy `H` into a local `P`
//!   entry).
//! * **Token** — S's rule 1; rule 2 becomes S1's rules 2 and 3 in one step
//!   at the holder, which then passes or keeps the token.
//! * **Message-Passing** — rule 1; adds the transfer rule 2, the send rule 3
//!   (to a peer or to oneself) and the receive rule 4.
//! * **Search** — Message-Passing's rules 1–4, its receive rule guarded to
//!   token messages; adds rules 5 (issue a search), 6 (forward or absorb
//!   it) and 7 (grant to a trapped requester).
//! * **BinarySearch** — Search's rules 1–3 and 7 with the token tagged
//!   (`tok`, and `hat` for a grant), the send rule 4 aimed at `x⁺¹`; rules
//!   5 and 6 rewritten for ranged search messages; adds rule 8 (use the
//!   granted token and return it).

pub mod binary;
mod common;
pub mod mp;
pub mod s;
pub mod s1;
pub mod search;
pub mod token;

pub use common::rule_request;
