//! # atp-spec — the paper's protocol family as executable TRS specifications
//!
//! This crate transcribes the six systems of *"Developing and Refining an
//! Adaptive Token-Passing Strategy"* into the [`atp_trs`] engine, keeping the
//! paper's state shapes and rule structure. As in the paper, each system is
//! derived from its predecessor: a rule it keeps is its predecessor's rule,
//! built by the same function, not a copy.
//!
//! | Module | System | Figure | State | Rules reused from |
//! |---|---|---|---|---|
//! | [`systems::s`] | S | Fig. 2 | `(Q, H)` | — |
//! | [`systems::s1`] | S1 | Fig. 3 | `(Q, H, P)` | S: 1, 2 |
//! | [`systems::token`] | Token | Fig. 4 | `(Q, H, P, T)` | S: 1 |
//! | [`systems::mp`] | Message-Passing | Fig. 5 | `(Q, P, T, I, O)` | S: 1 |
//! | [`systems::search`] | Search | Fig. 6 | `(Q, P, T, I, O, W)` | S: 1; MP: 2, 3 (as 4), 4 (as 3) |
//! | [`systems::binary`] | BinarySearch | Fig. 7 | `(Q, P, T, I, O, W)` | S: 1; MP: 2, 3 (as 4), 4 (as 3); Search: 7, initial state |
//!
//! and then *machine-checks* the paper's safety claims on small instances by
//! exhaustive exploration:
//!
//! * the **prefix property** (Definition 2) holds in every reachable state
//!   of every system — Lemmas 1–3 and Theorem 1;
//! * **token uniqueness** holds in the message-passing systems (at any time
//!   exactly one token exists, held or in flight);
//! * each refinement step simulates its abstraction
//!   ([`refinement::check_refinement`]): every concrete transition maps to a
//!   short path (stutter or ≤ 2 rules) of the abstract system.
//!
//! ## Bounding
//!
//! The paper's systems are infinite-state (rule 1 can fire forever). For
//! exhaustive checking each node is limited to `B` lifetime broadcasts via a
//! generation counter in its `Q` entry, and a node keeps at most one search
//! outstanding — both are *restrictions* (subsets of the behaviours), so
//! safety verified on the restricted system is evidence for the paper's
//! claims, and the unbounded rules remain exercised by `atp-core`'s
//! executable plane.
//!
//! ```rust
//! use atp_spec::systems::s1;
//! use atp_spec::check::check_prefix_everywhere;
//!
//! let report = check_prefix_everywhere(&s1::system(2, 1), s1::initial(2), s1::prefix_ok, 50_000);
//! assert!(report.holds());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod refinement;
pub mod systems;
pub mod terms;
