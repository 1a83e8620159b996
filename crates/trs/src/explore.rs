//! Bounded state-space exploration and random reductions.

use std::collections::HashMap;

use atp_util::rng::{Rng, SeedableRng, StdRng};

use crate::rule::Trs;
use crate::term::Term;

/// The reachable-state graph of a bounded exploration.
#[derive(Debug, Clone)]
pub struct Graph {
    states: Vec<Term>,
    index: HashMap<Term, usize>,
    /// Edges `(from, rule index, to)`.
    edges: Vec<(usize, usize, usize)>,
    truncated: bool,
}

impl Graph {
    /// The reachable states (index 0 is the initial state).
    pub fn states(&self) -> &[Term] {
        &self.states
    }

    /// The transition edges `(from, rule, to)` by state index.
    pub fn edges(&self) -> &[(usize, usize, usize)] {
        &self.edges
    }

    /// Index of a state, if reachable.
    pub fn index_of(&self, state: &Term) -> Option<usize> {
        self.index.get(state).copied()
    }

    /// Whether exploration hit the state bound before exhausting the space.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    /// Checks `invariant` on every reachable state; returns the first
    /// violating state, if any.
    pub fn find_violation(&self, invariant: impl Fn(&Term) -> bool) -> Option<&Term> {
        self.states.iter().find(|s| !invariant(s))
    }

    /// Renders the graph in Graphviz DOT format, labelling nodes with their
    /// state terms (truncated to `max_label` characters) and edges with rule
    /// names from `rule_names`.
    ///
    /// Intended for visually debugging small explorations:
    /// `dot -Tsvg graph.dot -o graph.svg`.
    pub fn to_dot(&self, rule_names: &[&str], max_label: usize) -> String {
        use std::fmt::Write as _;
        let mut out =
            String::from("digraph trs {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n");
        for (i, state) in self.states.iter().enumerate() {
            let mut label = state.to_string();
            if label.chars().count() > max_label {
                label = label.chars().take(max_label).collect::<String>() + "…";
            }
            let label = label.replace('"', "'");
            let style = if i == 0 { ", style=bold" } else { "" };
            let _ = writeln!(out, "  s{i} [label=\"{label}\"{style}];");
        }
        for &(from, rule, to) in &self.edges {
            let name = rule_names.get(rule).copied().unwrap_or("?");
            let _ = writeln!(out, "  s{from} -> s{to} [label=\"{name}\", fontsize=8];");
        }
        out.push_str("}\n");
        out
    }

    /// Terminal (stuck) states: no outgoing edges.
    pub fn stuck_states(&self) -> Vec<&Term> {
        let mut has_out = vec![false; self.states.len()];
        for &(from, _, _) in &self.edges {
            has_out[from] = true;
        }
        self.states
            .iter()
            .zip(has_out)
            .filter(|(_, h)| !h)
            .map(|(s, _)| s)
            .collect()
    }
}

/// Bounded breadth-first exploration of a [`Trs`]'s reachable states.
#[derive(Debug, Clone, Copy)]
pub struct Explorer {
    /// Stop after this many distinct states.
    pub max_states: usize,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            max_states: 200_000,
        }
    }
}

impl Explorer {
    /// Creates an explorer with a custom state bound.
    pub fn with_max_states(max_states: usize) -> Self {
        Explorer { max_states }
    }

    /// Explores the reachable graph from `init`.
    pub fn explore(&self, trs: &Trs, init: Term) -> Graph {
        let mut graph = Graph {
            states: vec![init.clone()],
            index: HashMap::from([(init, 0)]),
            edges: Vec::new(),
            truncated: false,
        };
        let mut frontier = vec![0usize];
        while let Some(at) = frontier.pop() {
            let state = graph.states[at].clone();
            for (rule, next) in trs.successors(&state) {
                let to = match graph.index.get(&next) {
                    Some(&i) => i,
                    None => {
                        if graph.states.len() >= self.max_states {
                            graph.truncated = true;
                            continue;
                        }
                        let i = graph.states.len();
                        graph.states.push(next.clone());
                        graph.index.insert(next, i);
                        frontier.push(i);
                        i
                    }
                };
                graph.edges.push((at, rule, to));
            }
        }
        graph
    }
}

/// Outcome of a random reduction (walk).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalkOutcome {
    /// Took all requested steps without violating the invariant.
    Completed,
    /// Reached a stuck state (no rule applicable) after this many steps.
    Stuck(usize),
    /// The invariant failed at this state.
    Violated(Term),
}

/// Performs a seeded random reduction of `steps` rule applications from
/// `init`, checking `invariant` after every step.
///
/// This is the probabilistic counterpart of [`Explorer`] for instances too
/// large to exhaust; the paper's "rewriting strategy" picking among
/// applicable rules is here the uniform random strategy.
pub fn random_reduction(
    trs: &Trs,
    init: Term,
    steps: usize,
    seed: u64,
    invariant: impl Fn(&Term) -> bool,
) -> WalkOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = init;
    if !invariant(&state) {
        return WalkOutcome::Violated(state);
    }
    for step in 0..steps {
        let succs = trs.successors(&state);
        if succs.is_empty() {
            return WalkOutcome::Stuck(step);
        }
        let pick = rng.gen_range(0..succs.len());
        state = succs.into_iter().nth(pick).expect("index in range").1;
        if !invariant(&state) {
            return WalkOutcome::Violated(state);
        }
    }
    WalkOutcome::Completed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pat;
    use crate::rule::{Rhs, Rule};

    /// Counter mod-free: k → k+1 while k < limit.
    fn counter(limit: i64) -> Trs {
        Trs::new(vec![Rule::new(
            "inc",
            Pat::tuple(vec![Pat::var("k")]),
            Rhs::tuple(vec![Rhs::apply("k+1", |s| {
                Term::int(s["k"].as_int().unwrap() + 1)
            })]),
        )
        .with_guard(move |s| s["k"].as_int().unwrap() < limit)])
    }

    fn start() -> Term {
        Term::tuple(vec![Term::int(0)])
    }

    #[test]
    fn exhaustive_exploration_finds_all_states() {
        let graph = Explorer::default().explore(&counter(5), start());
        assert_eq!(graph.states().len(), 6);
        assert_eq!(graph.edges().len(), 5);
        assert!(!graph.is_truncated());
        assert_eq!(graph.stuck_states().len(), 1);
        assert!(graph.index_of(&Term::tuple(vec![Term::int(3)])).is_some());
    }

    #[test]
    fn dot_export_contains_states_and_rules() {
        let graph = Explorer::default().explore(&counter(2), start());
        let dot = graph.to_dot(&["inc"], 40);
        assert!(dot.starts_with("digraph trs {"));
        assert!(dot.contains("s0 ["));
        assert!(dot.contains("s0 -> s1"));
        assert!(dot.contains("inc"));
        assert!(dot.ends_with("}\n"));
        // Long labels are truncated.
        let dot_short = graph.to_dot(&["inc"], 1);
        assert!(dot_short.contains("…"));
    }

    #[test]
    fn truncation_is_reported() {
        let graph = Explorer::with_max_states(3).explore(&counter(100), start());
        assert!(graph.is_truncated());
        assert_eq!(graph.states().len(), 3);
    }

    #[test]
    fn invariant_violations_are_found() {
        let graph = Explorer::default().explore(&counter(5), start());
        let violation = graph.find_violation(|s| s.as_tuple().unwrap()[0].as_int().unwrap() < 4);
        assert!(violation.is_some());
        assert!(graph.find_violation(|_| true).is_none());
    }

    #[test]
    fn random_walk_completes_or_sticks() {
        let trs = counter(10);
        match random_reduction(&trs, start(), 5, 1, |_| true) {
            WalkOutcome::Completed => {}
            other => panic!("expected completion, got {other:?}"),
        }
        match random_reduction(&trs, start(), 100, 1, |_| true) {
            WalkOutcome::Stuck(10) => {}
            other => panic!("expected stuck at 10, got {other:?}"),
        }
    }

    #[test]
    fn random_walk_reports_violation() {
        let trs = counter(10);
        match random_reduction(&trs, start(), 100, 1, |s| {
            s.as_tuple().unwrap()[0].as_int().unwrap() < 3
        }) {
            WalkOutcome::Violated(state) => {
                assert_eq!(state, Term::tuple(vec![Term::int(3)]));
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }
}
