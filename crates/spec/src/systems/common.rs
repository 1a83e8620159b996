//! Rule fragments shared by several systems.
//!
//! Each system writes a rule as overrides of the whole-state tuple
//! ([`state_pat`], [`state_rhs`]); the helpers here are the pieces those
//! overrides are made of: an entry of `Q`, entries of `P`, a message in `I`
//! and a message mailed into `O`, always named as in the paper (`x` the node
//! acting, `d`/`g` its `Q` entry, `H…` histories, `O` the rest of the mail).

use atp_trs::{Pat, Rhs, Rule, Subst, Term};

use crate::terms::{datum, msg, plus, state_pat, state_rhs};

/// The paper's rule 1 — *"a node wishes to broadcast"* — parameterized by
/// the state arity (every system carries it unchanged, with extra fields).
///
/// `(Q | (x, d_x, g_x), …) → (Q | (x, d_x ⊕ new_x, g_x + 1), …)` if
/// `g_x < b`. The generation counter `g_x` realizes the Section 4.4
/// round-counter bounding so exploration terminates.
pub fn rule_request(arity: usize, b: i64) -> Rule {
    let lhs = state_pat(arity, vec![(0, q_entry_pat())]);
    let rhs = state_rhs(
        arity,
        vec![(
            0,
            q_entry(
                Rhs::apply("d⊕new", |s| {
                    let x = s["x"].as_int().expect("node id");
                    let g = s["g"].as_int().expect("generation");
                    s["d"].append(&datum(x, g + 1))
                }),
                Rhs::apply("g+1", |s| Term::int(s["g"].as_int().expect("gen") + 1)),
            ),
        )],
    );
    Rule::new("1:request", lhs, rhs).with_guard(move |s| s["g"].as_int().expect("generation") < b)
}

/// `Q | (x, d, g)`: node `x`'s entry inside `Q`.
pub fn q_entry_pat() -> Pat {
    Pat::bag(
        vec![Pat::tuple(vec![
            Pat::var("x"),
            Pat::var("d"),
            Pat::var("g"),
        ])],
        "Q",
    )
}

/// `Q | (x, d, g)` rebuilt with the given pending data and generation.
fn q_entry(d: Rhs, g: Rhs) -> Rhs {
    Rhs::bag(vec![Rhs::tuple(vec![Rhs::var("x"), d, g])], "Q")
}

/// The entry put back with its pending data cleared (`d_x := φ_x`), as
/// every broadcast rule does.
pub fn q_entry_reset() -> Rhs {
    q_entry(Rhs::Seq(vec![]), Rhs::var("g"))
}

/// The entry put back unchanged (a rule that only reads `d_x`).
pub fn q_entry_keep() -> Rhs {
    q_entry(Rhs::var("d"), Rhs::var("g"))
}

/// `P | (x₁, H₁) | …`: the named entries of `P`, each a node variable and a
/// history variable; a history named `-` is matched but not read.
pub fn p_pat(entries: &[(&str, &str)]) -> Pat {
    let entry = |&(x, h): &(&str, &str)| {
        let h = if h == "-" { Pat::Wild } else { Pat::var(h) };
        Pat::tuple(vec![Pat::var(x), h])
    };
    Pat::bag(entries.iter().map(entry).collect(), "P")
}

/// `P | (x₁, H₁) | …` rebuilt: each bound node variable with its new history.
pub fn p_rhs(entries: Vec<(&str, Rhs)>) -> Rhs {
    let entries = entries
        .into_iter()
        .map(|(x, h)| Rhs::tuple(vec![Rhs::var(x), h]))
        .collect();
    Rhs::bag(entries, "P")
}

/// `I | (x, (from, m))`: a message `m` that node `x` received from `from`.
pub fn inbox_pat(from: Pat, m: Pat) -> Pat {
    Pat::bag(
        vec![Pat::tuple(vec![Pat::var("x"), Pat::tuple(vec![from, m])])],
        "I",
    )
}

/// `O | (x, (to, m))`: node `x` mails `m` to `to`, both computed from the
/// match. The rule must bind the rest of the mail as `O`.
pub fn mail(name: &str, f: impl Fn(&Subst) -> (Term, Term) + Send + Sync + 'static) -> Rhs {
    Rhs::apply(name, move |s| {
        let (to, m) = f(s);
        s["O"].bag_insert(msg(s["x"].clone(), to, m))
    })
}

/// `H ⊕ d` over the bound history variable `hvar` and the pending data `d`.
pub fn append_d(hvar: &'static str) -> Rhs {
    Rhs::apply("H⊕d", move |s| s[hvar].append(&s["d"]))
}

/// Where a holder hands the token.
#[derive(Clone, Copy)]
pub enum To {
    /// Another node `y`, bound through its `P` entry (`(y, Hy)`, kept).
    Peer,
    /// The holder `x` itself.
    Holder,
    /// The holder's successor `x⁺¹` on a ring of the given size.
    Next(usize),
}

impl To {
    /// The `P` entries the handing rule reads: the holder's, whose history
    /// is bound to `hx`, and the peer's.
    pub fn p_pat(self, hx: &str) -> Pat {
        match self {
            To::Peer => p_pat(&[("x", hx), ("y", "Hy")]),
            To::Holder | To::Next(_) => p_pat(&[("x", hx)]),
        }
    }

    /// Those entries rebuilt: the holder's with history `hx`, the peer's
    /// unchanged.
    pub fn p_rhs(self, hx: Rhs) -> Rhs {
        match self {
            To::Peer => p_rhs(vec![("x", hx), ("y", Rhs::var("Hy"))]),
            To::Holder | To::Next(_) => p_rhs(vec![("x", hx)]),
        }
    }

    /// The node that receives the token.
    pub fn node(self, s: &Subst) -> Term {
        match self {
            To::Peer => s["y"].clone(),
            To::Holder => s["x"].clone(),
            To::Next(n) => plus(&s["x"], 1, n),
        }
    }
}
