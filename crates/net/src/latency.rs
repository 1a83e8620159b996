//! Message latency.
//!
//! The paper's performance lemmas assume messages are delivered "within
//! bounded delays"; one *message delay* is the unit in which responsiveness
//! is counted. [`Latency::Constant`] with delay 1 is therefore the canonical
//! model for reproducing Figures 9 and 10; the other two stress the
//! protocols under jitter and heterogeneous links.

use atp_util::rng::{Rng, StdRng};

use crate::id::NodeId;

/// How many ticks one message is in flight in a [`World`](crate::World).
///
/// The world checks the value when it is built: a uniform range must satisfy
/// `lo <= hi` and a matrix must have exactly one row per node.
#[derive(Debug, Clone)]
pub enum Latency {
    /// Every message takes exactly this many ticks; `Constant(1)` is the
    /// paper's unit delay and the default.
    Constant(u64),
    /// Delay drawn uniformly from `lo..=hi` per message, from the world's
    /// RNG (bounded asynchrony).
    Uniform {
        /// Shortest delay, in ticks.
        lo: u64,
        /// Longest delay, in ticks.
        hi: u64,
    },
    /// A fixed delay per ordered pair of nodes.
    PerLink(PerLinkLatency),
}

impl Default for Latency {
    fn default() -> Self {
        Latency::Constant(1)
    }
}

impl Latency {
    /// Panics unless this latency can serve a world of `n` nodes.
    pub(crate) fn check(&self, n: usize) {
        match self {
            Latency::Constant(_) => {}
            Latency::Uniform { lo, hi } => {
                assert!(lo <= hi, "uniform latency bounds must satisfy lo <= hi")
            }
            Latency::PerLink(m) => assert!(
                m.n == n,
                "the latency matrix covers {} nodes but the world has {n}",
                m.n
            ),
        }
    }

    /// The flight time of one message `from → to`; only `Uniform` draws.
    pub(crate) fn sample(&self, from: NodeId, to: NodeId, rng: &mut StdRng) -> u64 {
        match self {
            Latency::Constant(d) => *d,
            Latency::Uniform { lo, hi } => rng.gen_range(*lo..=*hi),
            Latency::PerLink(m) => m.link(from, to),
        }
    }
}

/// A full `N×N` matrix of per-link delays.
///
/// Useful for modelling a physical embedding of the logical ring where ring
/// neighbours are close but "across the ring" jumps are long.
#[derive(Debug, Clone)]
pub struct PerLinkLatency {
    n: usize,
    matrix: Vec<u64>,
}

impl PerLinkLatency {
    /// Builds the matrix by evaluating `f(from, to)` for every ordered pair.
    pub fn from_fn(n: usize, mut f: impl FnMut(NodeId, NodeId) -> u64) -> Self {
        let mut matrix = Vec::with_capacity(n * n);
        for from in 0..n {
            for to in 0..n {
                matrix.push(f(NodeId::new(from as u32), NodeId::new(to as u32)));
            }
        }
        PerLinkLatency { n, matrix }
    }

    /// Delay for the ordered pair `(from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn link(&self, from: NodeId, to: NodeId) -> u64 {
        assert!(to.index() < self.n, "node out of range");
        self.matrix[from.index() * self.n + to.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atp_util::rng::SeedableRng;

    #[test]
    fn uniform_stays_in_bounds() {
        let m = Latency::Uniform { lo: 2, hi: 5 };
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let d = m.sample(NodeId::new(0), NodeId::new(1), &mut r);
            assert!((2..=5).contains(&d));
        }
    }

    #[test]
    fn per_link_matrix() {
        let m = PerLinkLatency::from_fn(4, |a, b| (a.index() + 10 * b.index()) as u64);
        assert_eq!(m.link(NodeId::new(2), NodeId::new(3)), 32);
        let mut r = StdRng::seed_from_u64(7);
        assert_eq!(
            Latency::PerLink(m).sample(NodeId::new(1), NodeId::new(0), &mut r),
            1
        );
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn per_link_rejects_an_id_past_the_matrix() {
        // (0, 5) would otherwise read cell (1, 1) of a 4-node matrix.
        let m = PerLinkLatency::from_fn(4, |_, _| 1);
        let _ = m.link(NodeId::new(0), NodeId::new(5));
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn uniform_rejects_inverted_bounds() {
        Latency::Uniform { lo: 5, hi: 2 }.check(4);
    }
}
