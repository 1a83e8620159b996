//! Pattern matching over terms.
//!
//! The paper's conventions: *"identifiers with upper case letters are
//! variables"* (here: [`Pat::Var`]), *"'−', the wild-card term"* (here:
//! [`Pat::Wild`]), and constants match only themselves. Multiset (`|`)
//! patterns pick out distinguished elements and bind the remainder, exactly
//! like the rule notation `Q | (x, d_x)`.

use std::collections::BTreeMap;

use crate::term::Term;

/// A substitution: variable name → matched term.
pub type Subst = BTreeMap<String, Term>;

/// A pattern over [`Term`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pat {
    /// A variable: matches anything; repeated occurrences must agree
    /// (non-linear patterns are supported).
    Var(String),
    /// The wild-card `−`: matches anything without binding.
    Wild,
    /// A constant symbol: matches only itself.
    Sym(String),
    /// An integer constant.
    Int(i64),
    /// A tuple of sub-patterns (arity must match).
    Tuple(Vec<Pat>),
    /// An exact sequence of sub-patterns (length must match). To match a
    /// whole history of unknown length, bind it with [`Pat::Var`].
    Seq(Vec<Pat>),
    /// A multiset pattern `elem₁ | elem₂ | … | Rest`: matches `elems`
    /// against *distinct* bag elements (in every possible way) and binds the
    /// remaining multiset to `rest` (if named).
    Bag {
        /// Patterns for distinguished elements.
        elems: Vec<Pat>,
        /// Variable capturing the rest of the multiset, if any.
        rest: Option<String>,
    },
}

impl Pat {
    /// A variable pattern.
    pub fn var(name: impl Into<String>) -> Pat {
        Pat::Var(name.into())
    }

    /// A constant-symbol pattern.
    pub fn sym(name: impl Into<String>) -> Pat {
        Pat::Sym(name.into())
    }

    /// An integer pattern.
    pub fn int(v: i64) -> Pat {
        Pat::Int(v)
    }

    /// A tuple pattern.
    pub fn tuple(items: Vec<Pat>) -> Pat {
        Pat::Tuple(items)
    }

    /// A bag pattern with distinguished elements and a rest variable.
    pub fn bag(elems: Vec<Pat>, rest: impl Into<String>) -> Pat {
        Pat::Bag {
            elems,
            rest: Some(rest.into()),
        }
    }

    /// A bag pattern that must account for every element (no rest).
    pub fn bag_exact(elems: Vec<Pat>) -> Pat {
        Pat::Bag { elems, rest: None }
    }
}

/// Returns every substitution under which `pat` matches `term`.
///
/// The result is empty when there is no match; multiset patterns can match
/// in several ways and each way yields one substitution.
pub fn matches(pat: &Pat, term: &Term) -> Vec<Subst> {
    let mut out = Vec::new();
    match_into(pat, term, Subst::new(), &mut out);
    out
}

fn bind(mut subst: Subst, name: &str, term: &Term, out: &mut Vec<Subst>) {
    match subst.get(name) {
        Some(existing) if existing != term => {}
        Some(_) => out.push(subst),
        None => {
            subst.insert(name.to_string(), term.clone());
            out.push(subst);
        }
    }
}

fn match_into(pat: &Pat, term: &Term, subst: Subst, out: &mut Vec<Subst>) {
    match pat {
        Pat::Wild => out.push(subst),
        Pat::Var(name) => bind(subst, name, term, out),
        Pat::Sym(s) => {
            if term.as_sym() == Some(s.as_str()) {
                out.push(subst);
            }
        }
        Pat::Int(v) => {
            if term.as_int() == Some(*v) {
                out.push(subst);
            }
        }
        Pat::Tuple(pats) => {
            if let Term::Tuple(items) = term {
                if items.len() == pats.len() {
                    match_all(pats, items, subst, out);
                }
            }
        }
        Pat::Seq(pats) => {
            if let Term::Seq(items) = term {
                if items.len() == pats.len() {
                    match_all(pats, items, subst, out);
                }
            }
        }
        Pat::Bag { elems, rest } => {
            if let Term::Bag(items) = term {
                if elems.len() > items.len() {
                    return;
                }
                let mut used = vec![false; items.len()];
                match_bag(elems, rest.as_deref(), items, &mut used, subst, out);
            }
        }
    }
}

fn match_all(pats: &[Pat], items: &[Term], subst: Subst, out: &mut Vec<Subst>) {
    if pats.is_empty() {
        out.push(subst);
        return;
    }
    let mut partial = Vec::new();
    match_into(&pats[0], &items[0], subst, &mut partial);
    for s in partial {
        match_all(&pats[1..], &items[1..], s, out);
    }
}

fn match_bag(
    elems: &[Pat],
    rest: Option<&str>,
    items: &[Term],
    used: &mut Vec<bool>,
    subst: Subst,
    out: &mut Vec<Subst>,
) {
    if elems.is_empty() {
        let leftover: Vec<Term> = items
            .iter()
            .zip(used.iter())
            .filter(|(_, &u)| !u)
            .map(|(t, _)| t.clone())
            .collect();
        match rest {
            None => {
                if leftover.is_empty() {
                    out.push(subst);
                }
            }
            Some(name) => bind(subst, name, &Term::bag(leftover), out),
        }
        return;
    }
    for i in 0..items.len() {
        if used[i] {
            continue;
        }
        let mut partial = Vec::new();
        match_into(&elems[0], &items[i], subst.clone(), &mut partial);
        if !partial.is_empty() {
            used[i] = true;
            for s in partial {
                match_bag(&elems[1..], rest, items, used, s, out);
            }
            used[i] = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(x: i64, d: &str) -> Term {
        Term::tuple(vec![Term::int(x), Term::sym(d)])
    }

    #[test]
    fn constants_match_themselves_only() {
        assert_eq!(matches(&Pat::sym("tau"), &Term::sym("tau")).len(), 1);
        assert!(matches(&Pat::sym("tau"), &Term::sym("phi")).is_empty());
        assert_eq!(matches(&Pat::int(3), &Term::int(3)).len(), 1);
        assert!(matches(&Pat::int(3), &Term::int(4)).is_empty());
    }

    #[test]
    fn variables_bind_and_wildcards_do_not() {
        let t = Term::int(5);
        let m = matches(&Pat::var("X"), &t);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0]["X"], Term::int(5));
        let m = matches(&Pat::Wild, &t);
        assert_eq!(m.len(), 1);
        assert!(m[0].is_empty());
    }

    #[test]
    fn non_linear_patterns_require_agreement() {
        let p = Pat::tuple(vec![Pat::var("X"), Pat::var("X")]);
        assert_eq!(
            matches(&p, &Term::tuple(vec![Term::int(1), Term::int(1)])).len(),
            1
        );
        assert!(matches(&p, &Term::tuple(vec![Term::int(1), Term::int(2)])).is_empty());
    }

    #[test]
    fn bag_pattern_enumerates_all_choices() {
        // Q | (x, d) against a bag of three pairs: three ways to pick.
        let bag = Term::bag(vec![pair(0, "a"), pair(1, "b"), pair(2, "c")]);
        let p = Pat::bag(vec![Pat::tuple(vec![Pat::var("x"), Pat::var("d")])], "Q");
        let m = matches(&p, &bag);
        assert_eq!(m.len(), 3);
        let xs: Vec<i64> = m.iter().map(|s| s["x"].as_int().unwrap()).collect();
        let mut xs = xs;
        xs.sort_unstable();
        assert_eq!(xs, vec![0, 1, 2]);
        // Rest has the two unchosen pairs.
        for s in &m {
            assert_eq!(s["Q"].as_bag().unwrap().len(), 2);
        }
    }

    #[test]
    fn bag_pattern_picks_distinct_elements() {
        let bag = Term::bag(vec![pair(0, "a"), pair(1, "b")]);
        let p = Pat::bag(
            vec![
                Pat::tuple(vec![Pat::var("x"), Pat::Wild]),
                Pat::tuple(vec![Pat::var("y"), Pat::Wild]),
            ],
            "rest",
        );
        let m = matches(&p, &bag);
        // (x=0,y=1) and (x=1,y=0).
        assert_eq!(m.len(), 2);
        for s in &m {
            assert_ne!(s["x"], s["y"]);
            assert!(s["rest"].as_bag().unwrap().is_empty());
        }
    }

    #[test]
    fn bag_exact_requires_full_coverage() {
        let bag = Term::bag(vec![Term::int(1), Term::int(2)]);
        let p = Pat::bag_exact(vec![Pat::var("a"), Pat::var("b")]);
        assert_eq!(matches(&p, &bag).len(), 2);
        let p_short = Pat::bag_exact(vec![Pat::var("a")]);
        assert!(matches(&p_short, &bag).is_empty());
    }

    #[test]
    fn seq_patterns_are_exact_length() {
        let s = Term::seq(vec![Term::int(1), Term::int(2)]);
        assert_eq!(
            matches(&Pat::Seq(vec![Pat::var("a"), Pat::var("b")]), &s).len(),
            1
        );
        assert!(matches(&Pat::Seq(vec![Pat::var("a")]), &s).is_empty());
    }

    #[test]
    fn tuple_arity_must_match() {
        let t = Term::tuple(vec![Term::int(1)]);
        assert!(matches(&Pat::tuple(vec![Pat::Wild, Pat::Wild]), &t).is_empty());
    }

    #[test]
    fn variable_shared_between_bag_and_field() {
        // (T, Q | (T, d)): the token holder must have a queue entry.
        let state = Term::tuple(vec![
            Term::int(1),
            Term::bag(vec![pair(0, "a"), pair(1, "b")]),
        ]);
        let p = Pat::tuple(vec![
            Pat::var("T"),
            Pat::bag(vec![Pat::tuple(vec![Pat::var("T"), Pat::var("d")])], "Q"),
        ]);
        let m = matches(&p, &state);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0]["d"], Term::sym("b"));
    }
}
