//! The link-fault model: control drops, loss and duplication.
//!
//! One model covers both of the paper's communication regimes. The
//! asymmetric regime — cheap control traffic may vanish while
//! token-bearing traffic is reliable (*"the system remains correct even
//! if no 'cheap' message is ever sent"*) — is [`LinkFaults::control_drops`].
//! The hostile regime that breaks the remaining assumption — any class,
//! token frames included, may be lost or **duplicated** — is built with the
//! [`loss`](LinkFaults::loss) / [`duplication`](LinkFaults::duplication)
//! builders, and is the adversary the ack/retransmit and
//! duplicate-suppression machinery in `atp-core` is tested against.
//! Partitions are not link faults: they are scheduled on the world
//! ([`World::schedule_partition`](crate::World::schedule_partition)).
//!
//! ## RNG stream discipline
//!
//! Checked-in DST replay tapes depend on the exact per-message draw
//! order, so the world draws each message's fate from its RNG, one draw
//! per message and fault, in a fixed sequence, and *skips* every draw
//! whose probability is zero:
//!
//! 1. control-drop draw (`Control` class only) — if it fires, the
//!    message is lost and **no further draws happen** for it;
//! 2. loss draw, 3. duplication draw.
//!
//! `LinkFaults::new()` therefore leaves the engine's RNG stream untouched.

use atp_util::rng::{Rng, StdRng};

use crate::event::MsgClass;

/// The seeded link-fault model of a [`World`](crate::World).
///
/// Combines, in draw order, class-asymmetric control drops (a drop ends the
/// draws for that message), loss and duplication. Replay tapes depend on
/// that order. Every probability defaults to zero and a zero probability
/// draws nothing, so the default model faults nothing and leaves the RNG
/// stream untouched.
///
/// ```rust
/// use atp_net::LinkFaults;
/// // The paper's asymmetric regime: 25% of control messages vanish.
/// let cheap_lossy = LinkFaults::control_drops(0.25);
/// // A hostile link: every class lost 10%, duplicated 20%.
/// let hostile = LinkFaults::new().loss(0.1).duplication(0.2);
/// assert_eq!(hostile.loss_p(), 0.1);
/// assert_ne!(cheap_lossy, LinkFaults::new());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkFaults {
    control_loss_p: f64,
    loss_p: f64,
    dup_p: f64,
}

fn check_p(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
    p
}

impl LinkFaults {
    /// A model that does nothing until probabilities are set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops *control* (cheap) messages with probability `p`; token
    /// messages are never touched by this draw.
    ///
    /// With `p = 1.0` no cheap message is ever delivered — the degenerate
    /// regime under which the paper still guarantees safety and
    /// ring-level liveness.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn control_drops(p: f64) -> Self {
        Self::new().control_loss(p)
    }

    /// Sets the control-class drop probability (builder form of
    /// [`LinkFaults::control_drops`]).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn control_loss(mut self, p: f64) -> Self {
        self.control_loss_p = check_p(p);
        self
    }

    /// Loses each message (any class) with probability `p`.
    ///
    /// Token messages are part of the "expensive" plane the paper assumes
    /// arrives correctly (or is resent); a non-zero `p` *falsifies* that
    /// assumption in failure-injection tests.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn loss(mut self, p: f64) -> Self {
        self.loss_p = check_p(p);
        self
    }

    /// Duplicates each message (any class) with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn duplication(mut self, p: f64) -> Self {
        self.dup_p = check_p(p);
        self
    }

    /// The configured control-class drop probability.
    pub fn control_loss_p(&self) -> f64 {
        self.control_loss_p
    }

    /// The configured any-class loss probability.
    pub fn loss_p(&self) -> f64 {
        self.loss_p
    }

    /// The configured duplication probability.
    pub fn duplication_p(&self) -> f64 {
        self.dup_p
    }

    /// Decides the fate of one message of class `class`, drawing in the
    /// order the module docs fix. Returns `(lost, duplicated)`: a
    /// message both lost and duplicated still flies once.
    pub(crate) fn apply(&self, class: MsgClass, rng: &mut StdRng) -> (bool, bool) {
        if class == MsgClass::Control
            && self.control_loss_p > 0.0
            && rng.gen_bool(self.control_loss_p)
        {
            // A control drop ends processing: the loss and duplication
            // draws are skipped so tapes recorded against the former
            // two-model pipeline (drop model, then fault model) replay
            // unchanged.
            return (true, false);
        }
        let lost = self.loss_p > 0.0 && rng.gen_bool(self.loss_p);
        let duplicated = self.dup_p > 0.0 && rng.gen_bool(self.dup_p);
        (lost, duplicated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atp_util::rng::{RngCore, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(5)
    }

    #[test]
    fn default_link_faults_draw_nothing() {
        // With all probabilities zero the model must not consume RNG words,
        // keeping runs byte-identical to a world without faults.
        let m = LinkFaults::new();
        let mut r1 = rng();
        let mut r2 = rng();
        for class in MsgClass::ALL {
            for _ in 0..10 {
                assert_eq!(m.apply(class, &mut r1), (false, false));
            }
        }
        assert_eq!(r1.next_u64(), r2.next_u64(), "RNG stream was disturbed");
    }

    #[test]
    fn control_drops_spare_tokens_and_draw_only_for_control() {
        let m = LinkFaults::control_drops(1.0);
        let mut r = rng();
        let mut untouched = rng();
        for _ in 0..50 {
            // Token frames pass without consuming a draw...
            assert_eq!(m.apply(MsgClass::Token, &mut r), (false, false));
        }
        assert_eq!(r.next_u64(), untouched.next_u64(), "token frames drew RNG");
        // ...while every control message is lost.
        for _ in 0..50 {
            assert_eq!(m.apply(MsgClass::Control, &mut r), (true, false));
        }
    }

    #[test]
    fn control_drop_skips_remaining_draws() {
        // When the control drop fires, loss/dup must not draw — matching
        // the former two-model pipeline where a dropped message never
        // reached the fault model.
        let with_faults = LinkFaults::control_drops(1.0).loss(0.5).duplication(0.5);
        let drops_only = LinkFaults::control_drops(1.0);
        let mut r1 = rng();
        let mut r2 = rng();
        for _ in 0..20 {
            let a = with_faults.apply(MsgClass::Control, &mut r1);
            let b = drops_only.apply(MsgClass::Control, &mut r2);
            assert_eq!(a, b);
        }
        assert_eq!(
            r1.next_u64(),
            r2.next_u64(),
            "extra draws after control drop"
        );
    }

    #[test]
    fn certain_loss_and_duplication_fire_for_both_classes() {
        let m = LinkFaults::new().loss(1.0).duplication(1.0);
        let mut r = rng();
        for class in MsgClass::ALL {
            for _ in 0..20 {
                assert_eq!(m.apply(class, &mut r), (true, true));
            }
        }
    }

    #[test]
    fn rates_roughly_match() {
        let m = LinkFaults::new().duplication(0.5);
        let mut r = rng();
        let dups = (0..2000)
            .filter(|_| m.apply(MsgClass::Token, &mut r).1)
            .count();
        assert!((800..1200).contains(&dups), "dups = {dups}");

        let m = LinkFaults::control_drops(0.5);
        let mut r = rng();
        let losses = (0..2000)
            .filter(|_| m.apply(MsgClass::Control, &mut r).0)
            .count();
        assert!((800..1200).contains(&losses), "losses = {losses}");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_invalid_probability() {
        let _ = LinkFaults::new().loss(-0.1);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn rejects_invalid_control_probability() {
        let _ = LinkFaults::control_drops(1.5);
    }
}
