//! Prints reachable state-space sizes for parameter selection.
use atp_spec::systems::{binary, mp, s, s1, search, token};
use atp_trs::Explorer;
use std::time::Instant;

fn size(name: &str, trs: &atp_trs::Trs, init: atp_trs::Term, cap: usize) {
    let t0 = Instant::now();
    let g = Explorer::with_max_states(cap).explore(trs, init);
    println!(
        "{name:<16} states={:<8} edges={:<9} truncated={} ({:?})",
        g.states().len(),
        g.edges().len(),
        g.is_truncated(),
        t0.elapsed()
    );
}

fn main() {
    size("S(3,1)", &s::system(3, 1), s::initial(3), 500_000);
    size("S(3,2)", &s::system(3, 2), s::initial(3), 500_000);
    size("S1(3,1)", &s1::system(3, 1), s1::initial(3), 500_000);
    size(
        "Token(3,1)",
        &token::system(3, 1),
        token::initial(3),
        500_000,
    );
    size("MP(2,1)", &mp::system(2, 1), mp::initial(2), 500_000);
    size("MP(3,1)", &mp::system(3, 1), mp::initial(3), 500_000);
    size(
        "Search(2,1)",
        &search::system(2, 1),
        search::initial(2),
        500_000,
    );
    size(
        "Search(3,1)",
        &search::system(3, 1),
        search::initial(3),
        500_000,
    );
    size(
        "Binary(2,1)",
        &binary::system(2, 1),
        binary::initial(2),
        500_000,
    );
    size(
        "Binary(3,1)",
        &binary::system(3, 1),
        binary::initial(3),
        500_000,
    );
}
