//! Pluggable delivery strategies: adversarial control over same-instant
//! event ordering.
//!
//! The engine in [`World`](crate::World) is deterministic: events fire in
//! `(time, seq)` order, so each seed explores exactly one interleaving.
//! The paper's safety claims (the prefix property, Theorem 1) are
//! quantified over *all* interleavings, and token protocols are
//! notoriously schedule-sensitive. A [`DeliveryStrategy`] widens the
//! explored space without giving up determinism: whenever several events
//! are scheduled for the same instant, the strategy — not the FIFO
//! tie-break — picks which one fires next. Because strategies only permute
//! *simultaneous* events, every schedule they produce is one the real
//! system could exhibit.
//!
//! The stock strategies cover the adversaries worth naming:
//!
//! * [`Fifo`] — scheduling order (the engine's default, for reference),
//! * [`Lifo`] — newest-first, which maximally reorders request bursts,
//! * [`SeededShuffle`] — a seeded random permutation per tie group,
//! * [`ClassStarve`] — defer one [`MsgClass`] while anything else is
//!   deliverable (starving `Control` delays search traffic; starving
//!   `Token` holds the token in flight while cheap messages race ahead),
//! * [`RecordedChoices`] — replays an explicit choice tape, which is what
//!   the DST explorer shrinks and serializes.
//!
//! A strategy never sees message payloads — only [`ReadyEvent`] metadata —
//! so it cannot forge traffic, only reorder what the protocol already
//! sent.

use crate::event::MsgClass;
use crate::id::NodeId;
use crate::time::SimTime;
use atp_util::rng::{Rng, SeedableRng, StdRng};

/// What a pending event will do when dispatched, stripped of payloads.
///
/// This is the only information a [`DeliveryStrategy`] may use: enough to
/// be adversarial about *ordering*, too little to tamper with *content*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadyKind {
    /// A message delivery.
    Deliver {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// Expensive (token) or cheap (control) traffic.
        class: MsgClass,
    },
    /// A protocol timer firing at `node`.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
    },
    /// An external (workload) stimulus arriving at `node`.
    External {
        /// The stimulated node.
        node: NodeId,
    },
    /// A crash of `node`.
    Crash {
        /// The crashing node.
        node: NodeId,
    },
    /// A recovery of `node`.
    Recover {
        /// The recovering node.
        node: NodeId,
    },
}

/// One event from a group of simultaneous deliverable events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadyEvent {
    /// The engine's scheduling sequence number (lower = scheduled earlier).
    pub seq: u64,
    /// What the event does.
    pub kind: ReadyKind,
}

impl ReadyEvent {
    /// The message class if this is a delivery, else `None`.
    pub fn class(&self) -> Option<MsgClass> {
        match self.kind {
            ReadyKind::Deliver { class, .. } => Some(class),
            _ => None,
        }
    }
}

/// Chooses which of several simultaneous events fires next.
///
/// Installed via [`WorldConfig::strategy`](crate::WorldConfig::strategy).
/// Whenever the event queue holds more than one event for the earliest
/// pending instant, the engine collects them **in scheduling order** and
/// asks the strategy to pick one; the rest stay queued (preserving their
/// original sequence numbers) and the strategy is consulted again for the
/// next pick. With a single ready event the strategy is *not* consulted,
/// so `Fifo` behaves identically to having no strategy at all.
pub trait DeliveryStrategy: std::fmt::Debug {
    /// Picks the index into `ready` of the event to dispatch next.
    ///
    /// `ready` is never empty and is sorted by `seq`. Out-of-range
    /// returns are clamped to the last index by the engine.
    fn choose(&mut self, now: SimTime, ready: &[ReadyEvent]) -> usize;
}

/// Scheduling order — identical to the engine default. Exists so drivers
/// can treat "no adversary" as just another strategy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl DeliveryStrategy for Fifo {
    fn choose(&mut self, _now: SimTime, _ready: &[ReadyEvent]) -> usize {
        0
    }
}

/// Newest-first: always dispatches the most recently scheduled event.
///
/// Against a burst of same-tick requests this reverses the arrival order
/// end to end, the strongest single fixed permutation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lifo;

impl DeliveryStrategy for Lifo {
    fn choose(&mut self, _now: SimTime, ready: &[ReadyEvent]) -> usize {
        ready.len() - 1
    }
}

/// A seeded uniformly random pick per consultation.
///
/// Over a whole tie group this yields a uniformly random permutation
/// (each consultation removes the chosen event, like a Fisher–Yates
/// draw). Same seed ⇒ same schedule, so failures replay exactly.
#[derive(Debug)]
pub struct SeededShuffle {
    rng: StdRng,
}

impl SeededShuffle {
    /// A shuffle strategy whose choices are determined by `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl DeliveryStrategy for SeededShuffle {
    fn choose(&mut self, _now: SimTime, ready: &[ReadyEvent]) -> usize {
        self.rng.gen_range(0..ready.len())
    }
}

/// Defers every event of one [`MsgClass`] while anything else is ready.
///
/// * `ClassStarve::new(MsgClass::Control)` starves the cheap shepherding
///   traffic — the paper's own stress case: the system must stay safe when
///   no cheap message is ever timely.
/// * `ClassStarve::new(MsgClass::Token)` delays the token behind all
///   simultaneous control traffic, maximizing the window in which stale
///   search state can race ahead of possession.
///
/// Non-delivery events (timers, externals, failures) are never deferred.
#[derive(Debug, Clone, Copy)]
pub struct ClassStarve {
    victim: MsgClass,
}

impl ClassStarve {
    /// A strategy that schedules `victim`-class deliveries last.
    pub fn new(victim: MsgClass) -> Self {
        Self { victim }
    }
}

impl DeliveryStrategy for ClassStarve {
    fn choose(&mut self, _now: SimTime, ready: &[ReadyEvent]) -> usize {
        ready
            .iter()
            .position(|ev| ev.class() != Some(self.victim))
            .unwrap_or(0)
    }
}

/// Replays an explicit sequence of choices; the DST tape strategy.
///
/// Each consultation consumes one word and picks `word % ready.len()`;
/// once the tape is exhausted every choice is `0` (FIFO). Both rules
/// matter for shrinking: any word sequence is a valid schedule, and a
/// shorter or smaller tape degrades *toward* the default order, so the
/// tape-editing shrinker in `atp_util::check` can minimize a failing
/// schedule without ever producing an invalid one.
#[derive(Debug, Clone)]
pub struct RecordedChoices {
    words: Vec<u64>,
    pos: usize,
}

impl RecordedChoices {
    /// A strategy replaying `words`, then FIFO.
    pub fn new(words: Vec<u64>) -> Self {
        Self { words, pos: 0 }
    }

    /// How many words have been consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

impl DeliveryStrategy for RecordedChoices {
    fn choose(&mut self, _now: SimTime, ready: &[ReadyEvent]) -> usize {
        let word = self.words.get(self.pos).copied().unwrap_or(0);
        if self.pos < self.words.len() {
            self.pos += 1;
        }
        (word % ready.len() as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliver(seq: u64, class: MsgClass) -> ReadyEvent {
        ReadyEvent {
            seq,
            kind: ReadyKind::Deliver {
                from: NodeId::new(0),
                to: NodeId::new(1),
                class,
            },
        }
    }

    fn timer(seq: u64) -> ReadyEvent {
        ReadyEvent {
            seq,
            kind: ReadyKind::Timer {
                node: NodeId::new(0),
            },
        }
    }

    #[test]
    fn fifo_and_lifo_pick_the_ends() {
        let ready = [
            deliver(0, MsgClass::Token),
            timer(1),
            deliver(2, MsgClass::Control),
        ];
        assert_eq!(Fifo.choose(SimTime::ZERO, &ready), 0);
        assert_eq!(Lifo.choose(SimTime::ZERO, &ready), 2);
    }

    #[test]
    fn seeded_shuffle_is_reproducible_and_in_range() {
        let ready = [
            deliver(0, MsgClass::Token),
            timer(1),
            deliver(2, MsgClass::Control),
        ];
        let picks = |seed: u64| {
            let mut s = SeededShuffle::new(seed);
            (0..32)
                .map(|_| s.choose(SimTime::ZERO, &ready))
                .collect::<Vec<_>>()
        };
        let a = picks(7);
        assert_eq!(a, picks(7));
        assert!(a.iter().all(|&i| i < ready.len()));
        // All three indices show up over 32 draws with overwhelming odds.
        assert!((0..3).all(|i| a.contains(&i)));
    }

    #[test]
    fn class_starve_defers_victim_class() {
        let mut starve_token = ClassStarve::new(MsgClass::Token);
        let ready = [
            deliver(0, MsgClass::Token),
            deliver(1, MsgClass::Token),
            deliver(2, MsgClass::Control),
        ];
        assert_eq!(starve_token.choose(SimTime::ZERO, &ready), 2);
        // Timers are not deliveries; they are never deferred.
        let with_timer = [deliver(0, MsgClass::Token), timer(1)];
        assert_eq!(starve_token.choose(SimTime::ZERO, &with_timer), 1);
        // Nothing but victims ⇒ fall back to FIFO.
        let only_victims = [deliver(0, MsgClass::Token), deliver(1, MsgClass::Token)];
        assert_eq!(starve_token.choose(SimTime::ZERO, &only_victims), 0);
    }

    #[test]
    fn recorded_choices_replay_then_fifo() {
        let mut tape = RecordedChoices::new(vec![5, 1]);
        let ready = [
            deliver(0, MsgClass::Token),
            timer(1),
            deliver(2, MsgClass::Control),
        ];
        assert_eq!(tape.choose(SimTime::ZERO, &ready), 2); // 5 % 3
        assert_eq!(tape.choose(SimTime::ZERO, &ready), 1); // 1 % 3
        assert_eq!(tape.consumed(), 2);
        // Exhausted ⇒ FIFO forever.
        assert_eq!(tape.choose(SimTime::ZERO, &ready), 0);
        assert_eq!(tape.choose(SimTime::ZERO, &ready), 0);
        assert_eq!(tape.consumed(), 2);
    }
}
