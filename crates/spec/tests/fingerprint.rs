//! Pins every system's explored state graph bit for bit.
//!
//! The unit tests check invariants and assert only lower bounds on state
//! counts, so a rule that drifted but stayed safe would pass them. Here each
//! system's graph is hashed (FNV-1a, 64 bit) over its rule names in order,
//! every state's `Display` in `Explorer` discovery order, and every edge as
//! `(from, rule name, to)`. A rewrite of the rules that is meant to change
//! nothing must reproduce these numbers exactly; never re-bless them to make
//! a refactor pass.

use atp_spec::systems::{binary, mp, s, s1, search, token};
use atp_trs::{Explorer, Term, Trs};

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Writes a field followed by a separator, so adjacent fields cannot
    /// run into each other.
    fn field(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }
}

/// `(states, edges, hash)` of the graph `trs` reaches from `init`, explored
/// up to `cap` states.
fn fingerprint(trs: &Trs, init: Term, cap: usize) -> (usize, usize, u64) {
    let graph = Explorer::with_max_states(cap).explore(trs, init);
    let names: Vec<&str> = trs.rules().iter().map(|r| r.name()).collect();
    let mut h = Fnv::new();
    for name in &names {
        h.field(name);
    }
    for state in graph.states() {
        h.field(&state.to_string());
    }
    for &(from, rule, to) in graph.edges() {
        h.field(&format!("{from} {} {to}", names[rule]));
    }
    (graph.states().len(), graph.edges().len(), h.0)
}

fn pin(name: &str, trs: &Trs, init: Term, cap: usize, want: (usize, usize, u64)) {
    let got = fingerprint(trs, init, cap);
    assert_eq!(
        got, want,
        "{name}: (states, edges, hash) = ({}, {}, {:#018x}) drifted from the pinned graph",
        got.0, got.1, got.2
    );
}

/// Exhaustive explorations stay well below this.
const ALL: usize = 100_000;

#[test]
fn s_graph_is_pinned() {
    pin(
        "S(3,1)",
        &s::system(3, 1),
        s::initial(3),
        ALL,
        (38, 97, 0xb1b2_f8fb_0c7c_cf74),
    );
}

#[test]
fn s1_graph_is_pinned() {
    pin(
        "S1(3,1)",
        &s1::system(3, 1),
        s1::initial(3),
        ALL,
        (812, 3_008, 0xe262_12db_d180_3701),
    );
}

#[test]
fn token_graph_is_pinned() {
    pin(
        "Token(3,1)",
        &token::system(3, 1),
        token::initial(3),
        ALL,
        (492, 1_764, 0x32c4_fca2_ec12_c708),
    );
}

#[test]
fn mp_graph_is_pinned() {
    pin(
        "MP(3,1)",
        &mp::system(3, 1),
        mp::initial(3),
        ALL,
        (2_226, 4_248, 0x347f_1cfc_241b_075a),
    );
}

#[test]
fn search_graph_is_pinned() {
    pin(
        "Search(2,1)",
        &search::system(2, 1),
        search::initial(2),
        ALL,
        (18_972, 71_518, 0xe7bd_6bcd_d5e8_d339),
    );
    pin(
        "Search(3,1)",
        &search::system(3, 1),
        search::initial(3),
        5_000,
        (5_000, 15_500, 0xcdea_4551_40cf_f15d),
    );
}

#[test]
fn binary_graph_is_pinned() {
    pin(
        "Binary(2,1)",
        &binary::system(2, 1),
        binary::initial(2),
        ALL,
        (14_662, 39_128, 0xb1fa_e794_0860_69e8),
    );
    pin(
        "Binary(3,1)",
        &binary::system(3, 1),
        binary::initial(3),
        5_000,
        (5_000, 9_223, 0x1c4b_c6ec_0cb1_bbc3),
    );
}
