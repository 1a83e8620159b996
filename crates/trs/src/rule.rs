//! Rewrite rules and rule systems.

use std::fmt;
use std::sync::Arc;

use crate::pattern::{matches, Pat, Subst};
use crate::term::Term;

/// A rule guard: a predicate over the matched substitution.
pub type Guard = Arc<dyn Fn(&Subst) -> bool + Send + Sync>;

/// A right-hand-side template, instantiated under a substitution.
///
/// Besides the structural constructors mirroring [`Pat`], [`Rhs::Apply`]
/// embeds a computed term — how operations like the history append `H ⊕ d_x`
/// or the ring arithmetic `x⁺ⁿ/²` enter the otherwise syntactic rules.
#[derive(Clone)]
pub enum Rhs {
    /// Splice the binding of a variable.
    Var(String),
    /// A constant symbol.
    Sym(String),
    /// An integer constant.
    Int(i64),
    /// A tuple of sub-templates.
    Tuple(Vec<Rhs>),
    /// A sequence of sub-templates.
    Seq(Vec<Rhs>),
    /// A bag: the given elements plus (optionally) the contents of a bag
    /// variable spliced in (the `Q | (x, …)` reconstruction).
    Bag {
        /// Element templates.
        elems: Vec<Rhs>,
        /// Bag variable whose elements are merged in.
        rest: Option<String>,
    },
    /// A computed term (named for debuggability).
    Apply(String, Arc<dyn Fn(&Subst) -> Term + Send + Sync>),
}

impl fmt::Debug for Rhs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rhs::Var(v) => write!(f, "Var({v})"),
            Rhs::Sym(s) => write!(f, "Sym({s})"),
            Rhs::Int(v) => write!(f, "Int({v})"),
            Rhs::Tuple(items) => f.debug_tuple("Tuple").field(items).finish(),
            Rhs::Seq(items) => f.debug_tuple("Seq").field(items).finish(),
            Rhs::Bag { elems, rest } => f
                .debug_struct("Bag")
                .field("elems", elems)
                .field("rest", rest)
                .finish(),
            Rhs::Apply(name, _) => write!(f, "Apply({name})"),
        }
    }
}

impl Rhs {
    /// Splice a variable's binding.
    pub fn var(name: impl Into<String>) -> Rhs {
        Rhs::Var(name.into())
    }

    /// A constant symbol.
    pub fn sym(name: impl Into<String>) -> Rhs {
        Rhs::Sym(name.into())
    }

    /// A tuple template.
    pub fn tuple(items: Vec<Rhs>) -> Rhs {
        Rhs::Tuple(items)
    }

    /// A bag template with spliced rest variable.
    pub fn bag(elems: Vec<Rhs>, rest: impl Into<String>) -> Rhs {
        Rhs::Bag {
            elems,
            rest: Some(rest.into()),
        }
    }

    /// A computed term.
    pub fn apply(
        name: impl Into<String>,
        f: impl Fn(&Subst) -> Term + Send + Sync + 'static,
    ) -> Rhs {
        Rhs::Apply(name.into(), Arc::new(f))
    }

    /// Instantiates the template under `subst`.
    ///
    /// # Panics
    ///
    /// Panics if a referenced variable is unbound, or a bag rest variable is
    /// bound to a non-bag — both indicate a malformed rule.
    pub fn instantiate(&self, subst: &Subst) -> Term {
        match self {
            Rhs::Var(name) => subst
                .get(name)
                .unwrap_or_else(|| panic!("unbound variable {name} in rhs"))
                .clone(),
            Rhs::Sym(s) => Term::sym(s.clone()),
            Rhs::Int(v) => Term::int(*v),
            Rhs::Tuple(items) => Term::tuple(items.iter().map(|r| r.instantiate(subst)).collect()),
            Rhs::Seq(items) => Term::seq(items.iter().map(|r| r.instantiate(subst)).collect()),
            Rhs::Bag { elems, rest } => {
                let mut items: Vec<Term> = elems.iter().map(|r| r.instantiate(subst)).collect();
                if let Some(rest) = rest {
                    let bound = subst
                        .get(rest)
                        .unwrap_or_else(|| panic!("unbound bag variable {rest} in rhs"));
                    let Term::Bag(more) = bound else {
                        panic!("bag variable {rest} bound to non-bag {bound}");
                    };
                    items.extend(more.iter().cloned());
                }
                Term::bag(items)
            }
            Rhs::Apply(_, f) => f(subst),
        }
    }
}

/// A guarded rewrite rule `lhs → rhs (if guard)`.
#[derive(Clone)]
pub struct Rule {
    name: String,
    lhs: Pat,
    rhs: Rhs,
    guard: Option<Guard>,
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rule")
            .field("name", &self.name)
            .field("guarded", &self.guard.is_some())
            .finish()
    }
}

impl Rule {
    /// Creates an unguarded rule.
    pub fn new(name: impl Into<String>, lhs: Pat, rhs: Rhs) -> Self {
        Rule {
            name: name.into(),
            lhs,
            rhs,
            guard: None,
        }
    }

    /// Attaches a guard predicate over the matched substitution.
    pub fn with_guard(mut self, guard: impl Fn(&Subst) -> bool + Send + Sync + 'static) -> Self {
        self.guard = Some(Arc::new(guard));
        self
    }

    /// The rule's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All one-step rewrites of `state` by this rule.
    pub fn apply(&self, state: &Term) -> Vec<Term> {
        matches(&self.lhs, state)
            .into_iter()
            .filter(|s| self.guard.as_ref().is_none_or(|g| g(s)))
            .map(|s| self.rhs.instantiate(&s))
            .collect()
    }
}

/// A term rewriting system: a set of rules applied to whole states.
///
/// The paper rewrites the global state tuple, so rule application here is at
/// the root only (sub-term rewriting is not needed and would obscure the
/// state-transition reading).
#[derive(Debug, Clone, Default)]
pub struct Trs {
    rules: Vec<Rule>,
}

impl Trs {
    /// Creates a system from rules.
    pub fn new(rules: Vec<Rule>) -> Self {
        Trs { rules }
    }

    /// The rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// All one-step successors of `state`, deduplicated, with the index of
    /// the rule that produced each.
    pub fn successors(&self, state: &Term) -> Vec<(usize, Term)> {
        let mut out = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            for next in rule.apply(state) {
                if !out.iter().any(|(_, t)| *t == next) {
                    out.push((i, next));
                }
            }
        }
        out
    }

    /// Whether any rule applies to `state`.
    pub fn can_step(&self, state: &Term) -> bool {
        self.rules.iter().any(|r| !r.apply(state).is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// (counter, log) with two rules: inc and record.
    fn demo_trs() -> Trs {
        let inc = Rule::new(
            "inc",
            Pat::tuple(vec![Pat::var("k"), Pat::var("log")]),
            Rhs::tuple(vec![
                Rhs::apply("k+1", |s| Term::int(s["k"].as_int().unwrap() + 1)),
                Rhs::var("log"),
            ]),
        )
        .with_guard(|s| s["k"].as_int().unwrap() < 2);
        let record = Rule::new(
            "record",
            Pat::tuple(vec![Pat::var("k"), Pat::var("log")]),
            Rhs::tuple(vec![
                Rhs::var("k"),
                Rhs::apply("log⊕k", |s| s["log"].append(&s["k"])),
            ]),
        )
        .with_guard(|s| {
            let k = s["k"].as_int().unwrap();
            let log = s["log"].as_seq().unwrap();
            log.last().and_then(Term::as_int) != Some(k)
        });
        Trs::new(vec![inc, record])
    }

    fn init() -> Term {
        Term::tuple(vec![Term::int(0), Term::empty_seq()])
    }

    #[test]
    fn rules_apply_and_respect_guards() {
        let trs = demo_trs();
        let succs = trs.successors(&init());
        assert_eq!(succs.len(), 2); // inc and record both apply
        let stuck = Term::tuple(vec![Term::int(2), Term::seq(vec![Term::int(2)])]);
        // inc guard fails (k = 2), record guard fails (last = k).
        assert!(!trs.can_step(&stuck));
    }

    #[test]
    fn rhs_instantiation_builds_terms() {
        let mut s = Subst::new();
        s.insert("x".into(), Term::int(4));
        s.insert("Q".into(), Term::bag(vec![Term::int(9)]));
        let rhs = Rhs::bag(vec![Rhs::var("x"), Rhs::Int(5)], "Q");
        assert_eq!(
            rhs.instantiate(&s),
            Term::bag(vec![Term::int(4), Term::int(5), Term::int(9)])
        );
        let rhs = Rhs::tuple(vec![Rhs::sym("bot"), Rhs::Seq(vec![Rhs::var("x")])]);
        assert_eq!(
            rhs.instantiate(&s),
            Term::tuple(vec![Term::sym("bot"), Term::seq(vec![Term::int(4)])])
        );
    }

    #[test]
    #[should_panic(expected = "unbound variable")]
    fn unbound_variable_panics() {
        Rhs::var("nope").instantiate(&Subst::new());
    }

    #[test]
    fn successors_deduplicate() {
        // Two bag elements that produce the same successor term.
        let rule = Rule::new("drop", Pat::bag(vec![Pat::Wild], "rest"), Rhs::var("rest"));
        let trs = Trs::new(vec![rule]);
        let state = Term::bag(vec![Term::int(1), Term::int(1)]);
        // Dropping either copy leaves {1}: one successor after dedup.
        assert_eq!(trs.successors(&state).len(), 1);
    }

    #[test]
    fn rule_and_rhs_debug() {
        let rule = demo_trs().rules()[0].clone();
        assert!(format!("{rule:?}").contains("inc"));
        assert!(format!("{:?}", Rhs::apply("f", |_| Term::int(0))).contains("Apply(f)"));
    }
}
