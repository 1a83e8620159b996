//! Shared protocol vocabulary: requests, visit stamps, log entries.

use std::fmt;

use atp_net::{NodeId, SimTime};

/// A single token request, unique system-wide.
///
/// Corresponds to one firing of the paper's rule 1 ("a node wishes to
/// broadcast [or enter the critical section]"). `origin` is the requesting
/// node, `seq` its local request counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RequestId {
    /// The requesting node.
    pub origin: NodeId,
    /// The origin's local request sequence number (starts at 1).
    pub seq: u64,
}

impl RequestId {
    /// Creates a request identifier.
    pub fn new(origin: NodeId, seq: u64) -> Self {
        RequestId { origin, seq }
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.origin, self.seq)
    }
}

/// When a node last possessed (or observed) the token.
///
/// This is the executable-plane stand-in for the paper's unbounded local
/// history `P|(x, H)`: Section 4.4 notes that "for the ring protocols the
/// histories can be bounded by introducing the notion of a round and using
/// round counters". The prefix comparison `H ⊂_C H_z` of rule 6 — histories
/// projected onto circular-rotation events — is order-isomorphic to comparing
/// the global visit counter values at each node's last token sighting, so a
/// stamp carries exactly the information rule 6 consumes.
///
/// `VisitStamp::NEVER` (`0`) means the node has never seen the token — the
/// empty history, a prefix of everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VisitStamp(pub u64);

impl VisitStamp {
    /// The empty history: never visited.
    pub const NEVER: VisitStamp = VisitStamp(0);

    /// Returns `true` if this stamp is strictly fresher than `other` — i.e.
    /// `other`'s circulation history is a *proper prefix* of this one's
    /// (`H_other ⊂_C H_self` in the paper's notation).
    pub fn is_fresher_than(self, other: VisitStamp) -> bool {
        self.0 > other.0
    }

    /// Raw counter value.
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for VisitStamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == VisitStamp::NEVER {
            write!(f, "∅")
        } else {
            write!(f, "v{}", self.0)
        }
    }
}

/// One entry of the totally ordered broadcast history `H`.
///
/// The global history of System S is realized as the sequence of log entries
/// committed by successive token holders; `seq` is the position in `H`
/// (starting at 1), `round` the token round in which it was appended (used
/// for the round-counter garbage collection of Section 4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LogEntry {
    /// Position in the global history (1-based, contiguous).
    pub seq: u64,
    /// The node that broadcast this datum.
    pub origin: NodeId,
    /// The datum itself (abstract payload).
    pub payload: u64,
    /// Token round during which the entry was appended.
    pub round: u64,
}

impl fmt::Display for LogEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}:{}={} r{}]",
            self.seq, self.origin, self.payload, self.round
        )
    }
}

/// A token-possession grant, reported through [`TokenEvent`](crate::TokenEvent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The satisfied request.
    pub req: RequestId,
    /// When the requester received the token.
    pub at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_freshness_is_strict() {
        assert!(VisitStamp(5).is_fresher_than(VisitStamp(3)));
        assert!(!VisitStamp(3).is_fresher_than(VisitStamp(5)));
        assert!(!VisitStamp(3).is_fresher_than(VisitStamp(3)));
        assert!(VisitStamp(1).is_fresher_than(VisitStamp::NEVER));
    }

    #[test]
    fn request_id_ordering_is_origin_major() {
        let a = RequestId::new(NodeId::new(0), 9);
        let b = RequestId::new(NodeId::new(1), 1);
        assert!(a < b);
    }

    #[test]
    fn displays() {
        assert_eq!(RequestId::new(NodeId::new(2), 3).to_string(), "n2#3");
        assert_eq!(VisitStamp::NEVER.to_string(), "∅");
        assert_eq!(VisitStamp(4).to_string(), "v4");
        let e = LogEntry {
            seq: 1,
            origin: NodeId::new(0),
            payload: 42,
            round: 2,
        };
        assert_eq!(e.to_string(), "[1:n0=42 r2]");
    }
}
