//! Machine-check the paper's safety claims: explore every reachable state of
//! each refinement level on a small instance and verify the prefix property,
//! token uniqueness, and the simulation into the previous level.
//!
//! This is the executable counterpart of the paper's Lemmas 1–3 and
//! Theorem 1.
//!
//! ```sh
//! cargo run --release --example verify_safety
//! ```

use adaptive_token_passing::spec::check::check_prefix_everywhere;
use adaptive_token_passing::spec::refinement::check_refinement;
use adaptive_token_passing::spec::systems::{binary, mp, s, s1, search, token};
use adaptive_token_passing::trs::Explorer;

fn main() {
    let (n, b) = (3, 1);
    println!("== exhaustive safety checking, n = {n}, ≤{b} broadcast/node ==\n");

    println!("{:<18} {:>9}  claim checked", "system", "states");
    println!("{}", "-".repeat(64));

    let r = check_prefix_everywhere(&s::system(n, b), s::initial(n), s::prefix_ok, 500_000);
    println!(
        "{:<18} {:>9}  data uniqueness in H — {}",
        "S",
        r.states(),
        verdict(r.holds())
    );

    let r = check_prefix_everywhere(&s1::system(n, b), s1::initial(n), s1::prefix_ok, 500_000);
    println!(
        "{:<18} {:>9}  Lemma 1 (prefix property) — {}",
        "S1",
        r.states(),
        verdict(r.holds())
    );

    let r = check_prefix_everywhere(
        &token::system(n, b),
        token::initial(n),
        token::prefix_ok,
        500_000,
    );
    println!(
        "{:<18} {:>9}  Lemma 2 (prefix property) — {}",
        "Token",
        r.states(),
        verdict(r.holds())
    );

    let r = check_prefix_everywhere(&mp::system(n, b), mp::initial(n), mp::prefix_ok, 500_000);
    println!(
        "{:<18} {:>9}  Lemma 3 (prefix property) — {}",
        "Message-Passing",
        r.states(),
        verdict(r.holds())
    );
    let r = check_prefix_everywhere(&mp::system(n, b), mp::initial(n), mp::token_unique, 500_000);
    println!(
        "{:<18} {:>9}  token uniqueness — {}",
        "Message-Passing",
        r.states(),
        verdict(r.holds())
    );

    let r = check_prefix_everywhere(
        &search::system(2, b),
        search::initial(2),
        search::prefix_ok,
        100_000,
    );
    println!(
        "{:<18} {:>9}  prefix property (n=2, exhaustive) — {}",
        "Search",
        r.states(),
        verdict(r.holds())
    );
    let r = check_prefix_everywhere(
        &search::system(n, b),
        search::initial(n),
        search::prefix_ok,
        150_000,
    );
    println!(
        "{:<18} {:>9}  prefix property (n=3, bounded) — {}",
        "Search",
        r.states(),
        verdict(r.violation_free())
    );

    let r = check_prefix_everywhere(
        &binary::system(2, b),
        binary::initial(2),
        binary::prefix_ok,
        100_000,
    );
    println!(
        "{:<18} {:>9}  Theorem 1 (n=2, exhaustive) — {}",
        "BinarySearch",
        r.states(),
        verdict(r.holds())
    );
    let r = check_prefix_everywhere(
        &binary::system(n, b),
        binary::initial(n),
        binary::prefix_ok,
        150_000,
    );
    println!(
        "{:<18} {:>9}  Theorem 1 (n=3, bounded) — {}",
        "BinarySearch",
        r.states(),
        verdict(r.violation_free())
    );
    let r = check_prefix_everywhere(
        &binary::system(2, b),
        binary::initial(2),
        binary::token_unique,
        100_000,
    );
    println!(
        "{:<18} {:>9}  token uniqueness (n=2) — {}",
        "BinarySearch",
        r.states(),
        verdict(r.holds())
    );

    println!("\nrefinement chain (every concrete step simulates the abstraction):");
    let g = Explorer::with_max_states(500_000).explore(&s1::system(n, b), s1::initial(n));
    report(
        "S1 ⊑ S",
        check_refinement(&g, &s::system(n, b), s1::to_s, 1).is_ok(),
    );
    let g = Explorer::with_max_states(500_000).explore(&token::system(n, b), token::initial(n));
    report(
        "Token ⊑ S1",
        check_refinement(&g, &s1::system(n, b), token::to_s1, 2).is_ok(),
    );
    let g = Explorer::with_max_states(500_000).explore(&mp::system(2, b), mp::initial(2));
    report(
        "MP ⊑ S1",
        check_refinement(&g, &s1::system(2, b), mp::to_s1, 2).is_ok(),
    );
    let g = Explorer::with_max_states(800_000).explore(&search::system(2, b), search::initial(2));
    report(
        "Search ⊑ MP",
        check_refinement(&g, &mp::system(2, b), search::to_mp, 1).is_ok(),
    );
    let g = Explorer::with_max_states(800_000).explore(&binary::system(2, b), binary::initial(2));
    report(
        "BinarySearch ⊑ Search",
        check_refinement(&g, &search::system(2, b), binary::to_search, 2).is_ok(),
    );
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "HOLDS ✓"
    } else {
        "VIOLATED ✗"
    }
}

fn report(name: &str, ok: bool) {
    println!("  {:<24} {}", name, verdict(ok));
    assert!(ok, "{name} failed");
}
