//! Internal event-queue machinery and the message-class distinction.

use crate::id::NodeId;
use crate::time::SimTime;

/// The two qualitatively different communication modes of the paper.
///
/// Section 1 distinguishes *expensive* messages, whose delivery guarantees
/// carry the safety argument (the token and the history it bears), from
/// *cheap* messages used only to "shepherd the overall system" toward good
/// performance (search requests, traps, probes, cleanup hints). The system
/// must remain safe even if **no** cheap message is ever delivered.
///
/// [`LinkFaults`](crate::LinkFaults) keys loss behaviour on this class;
/// its `control_drops` constructor drops only [`MsgClass::Control`]
/// traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Expensive, reliable: carries the token (and ordering state).
    Token,
    /// Cheap, lossy-allowed: search/probe/hint traffic that only affects
    /// performance, never safety.
    Control,
}

impl MsgClass {
    /// All classes, for table-driven statistics.
    pub const ALL: [MsgClass; 2] = [MsgClass::Token, MsgClass::Control];

    /// A short label used in statistics tables.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Token => "token",
            MsgClass::Control => "control",
        }
    }
}

/// What a queued event does when it fires.
#[derive(Debug, Clone)]
pub(crate) enum EventKind<M, E> {
    /// Deliver a message to `to`.
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: M,
        class: MsgClass,
    },
    /// Fire a protocol timer at `node`. `epoch` guards against timers that
    /// straddle a crash: a timer set before a crash must not fire after the
    /// node recovered into a fresh incarnation.
    Timer { node: NodeId, kind: u64, epoch: u32 },
    /// Deliver an external stimulus (workload-injected) to `node`.
    External { node: NodeId, ev: E },
    /// Crash `node`.
    Crash { node: NodeId },
    /// Recover `node`.
    Recover { node: NodeId },
}

/// A scheduled event. `seq` is a global monotone counter; the timer wheel
/// fires events in `(time, seq)` order, so simultaneous events fire in
/// scheduling order, which makes runs fully deterministic.
#[derive(Debug)]
pub(crate) struct QueuedEvent<M, E> {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind<M, E>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_labels() {
        assert_eq!(MsgClass::Token.label(), "token");
        assert_eq!(MsgClass::Control.label(), "control");
        assert_eq!(MsgClass::ALL.len(), 2);
    }
}
