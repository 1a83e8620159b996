//! Observable protocol events and the external stimulus type.
//!
//! Protocol nodes are passive state machines inside a transport; the harness
//! (metrics, tests, applications) observes them by draining a per-node event
//! buffer after each callback. Events are the *only* channel through which
//! experiments learn about grants, so the responsiveness metric of the
//! paper's Definition 3 is computed purely from this stream.

use std::cell::Cell;

use atp_net::{NodeId, SimTime};

use crate::types::{LogEntry, RequestId};

/// What an external stimulus asks of the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WantKind {
    /// Become ready: acquire the token and broadcast the payload.
    #[default]
    Acquire,
    /// Gracefully leave the group (Section 5's dynamic-membership
    /// extension): announce departure so the rotation routes around this
    /// node without a token loss.
    Leave,
    /// Rejoin the group after a graceful leave.
    Rejoin,
}

/// External stimulus injected by a workload: by default the node becomes
/// *ready* (it now "requires the token", in the paper's terms); the other
/// kinds drive dynamic membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Want {
    /// The datum the node wishes to broadcast once it holds the token.
    pub payload: u64,
    /// What is being asked.
    pub kind: WantKind,
}

impl Want {
    /// A token request carrying `payload`.
    pub fn new(payload: u64) -> Self {
        Want {
            payload,
            kind: WantKind::Acquire,
        }
    }

    /// A graceful-leave announcement.
    pub fn leave() -> Self {
        Want {
            payload: 0,
            kind: WantKind::Leave,
        }
    }

    /// A rejoin announcement.
    pub fn rejoin() -> Self {
        Want {
            payload: 0,
            kind: WantKind::Rejoin,
        }
    }
}

/// Something observable that happened at one protocol node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenEvent {
    /// The node became ready (rule 1 fired): a new request exists.
    Requested {
        /// The new request.
        req: RequestId,
        /// When the node became ready.
        at: SimTime,
    },
    /// The node received the token while ready; the request is satisfied.
    Granted {
        /// The satisfied request.
        req: RequestId,
        /// Grant time.
        at: SimTime,
    },
    /// The node finished using the token: its datum was appended to `H`.
    ///
    /// Each entry of `H` is committed by exactly one node, so this event
    /// reports the global order once per entry, whether or not any node
    /// keeps a copy of the history (`record_log`).
    Released {
        /// The request whose service completed; its origin is the entry's.
        req: RequestId,
        /// Position of the datum in `H` (1-based).
        seq: u64,
        /// The datum.
        payload: u64,
        /// Release time.
        at: SimTime,
    },
    /// The node applied a globally ordered broadcast entry to its local
    /// prefix history `P|(x, H_x)`. Emitted only with `record_log` on: one
    /// per node per entry.
    Delivered {
        /// The applied entry.
        entry: LogEntry,
        /// Delivery time.
        at: SimTime,
    },
    /// The node regenerated a lost token (Section 5 failure handling).
    Regenerated {
        /// The node that minted the replacement token.
        by: NodeId,
        /// The new token generation number.
        generation: u32,
        /// When regeneration happened.
        at: SimTime,
    },
    /// The node discarded a stale token from a superseded generation.
    StaleTokenDiscarded {
        /// The stale generation.
        generation: u32,
        /// When it was discarded.
        at: SimTime,
    },
    /// A search message working on behalf of `req` left this node: a
    /// Gimme send or relay, or a directed probe/reply hop.
    ///
    /// One event per network send, so the per-request count is exactly
    /// the number of times the request was forwarded — the quantity
    /// Lemma 6 bounds by O(log N) for the binary-search strategy.
    SearchForwarded {
        /// The request being searched for.
        req: RequestId,
        /// Encoded wire size of the forwarded message, in bytes.
        bytes: u64,
        /// When the hop was sent.
        at: SimTime,
    },
    /// A token frame was shipped toward the requester to serve `req`.
    TokenDispatched {
        /// The request the token is travelling to serve.
        req: RequestId,
        /// Encoded wire size of the token frame, in bytes.
        bytes: u64,
        /// When the frame was sent.
        at: SimTime,
    },
}

impl TokenEvent {
    /// When the event occurred.
    pub fn at(&self) -> SimTime {
        match *self {
            TokenEvent::Requested { at, .. }
            | TokenEvent::Granted { at, .. }
            | TokenEvent::Released { at, .. }
            | TokenEvent::Delivered { at, .. }
            | TokenEvent::Regenerated { at, .. }
            | TokenEvent::StaleTokenDiscarded { at, .. }
            | TokenEvent::SearchForwarded { at, .. }
            | TokenEvent::TokenDispatched { at, .. } => at,
        }
    }
}

/// Implemented by every protocol node: exposes the buffered [`TokenEvent`]s.
///
/// The transport-side driver drains this after each dispatched callback.
pub trait EventSource {
    /// Removes and returns all buffered events, oldest first.
    fn take_events(&mut self) -> Vec<TokenEvent>;

    /// Drains all buffered events into `out`, oldest first, preserving
    /// `out`'s existing contents and capacity.
    ///
    /// This is the hot-path variant: a driver dispatching millions of
    /// events reuses one buffer instead of materializing a fresh `Vec`
    /// per callback. Implementations backed by an internal buffer should
    /// override the default (which round-trips through [`take_events`])
    /// to move elements directly.
    fn take_events_into(&mut self, out: &mut Vec<TokenEvent>) {
        out.append(&mut self.take_events());
    }

    /// Returns `true` if events are waiting.
    fn has_events(&self) -> bool;
}

/// A simple push buffer used inside node implementations.
///
/// A node holds a buffer only between its first event and the driver's
/// next drain. The buffer is lent: a node's first push takes this thread's
/// spare, and [`EventBuf::take_into`] gives it back, so a driver that drains
/// after every dispatch allocates once per thread, not once per node or per
/// dispatch.
#[derive(Debug, Clone, Default)]
pub(crate) struct EventBuf {
    events: Vec<TokenEvent>,
}

thread_local! {
    /// The buffer the last drained node gave back (empty, with capacity).
    static SPARE: Cell<Vec<TokenEvent>> = const { Cell::new(Vec::new()) };
}

impl EventBuf {
    pub fn push(&mut self, ev: TokenEvent) {
        if self.events.capacity() == 0 {
            self.events = SPARE.take();
        }
        self.events.push(ev);
    }

    pub fn take(&mut self) -> Vec<TokenEvent> {
        std::mem::take(&mut self.events)
    }

    /// Moves all buffered events into `out`, oldest first, and gives this
    /// node's buffer back to the thread's spare: between dispatches a
    /// drained node holds no event capacity.
    pub fn take_into(&mut self, out: &mut Vec<TokenEvent>) {
        if self.events.capacity() == 0 {
            return;
        }
        out.append(&mut self.events);
        SPARE.set(std::mem::take(&mut self.events));
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    #[cfg(test)]
    pub fn capacity(&self) -> usize {
        self.events.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_times_are_accessible() {
        let at = SimTime::from_ticks(9);
        let req = RequestId::new(NodeId::new(1), 1);
        let events = [
            TokenEvent::Requested { req, at },
            TokenEvent::Granted { req, at },
            TokenEvent::Released {
                req,
                seq: 1,
                payload: 0,
                at,
            },
            TokenEvent::Regenerated {
                by: NodeId::new(0),
                generation: 2,
                at,
            },
            TokenEvent::StaleTokenDiscarded { generation: 1, at },
        ];
        for e in events {
            assert_eq!(e.at(), at);
        }
    }

    #[test]
    fn buffer_drains_in_order() {
        let mut buf = EventBuf::default();
        let req = RequestId::new(NodeId::new(0), 1);
        buf.push(TokenEvent::Requested {
            req,
            at: SimTime::ZERO,
        });
        buf.push(TokenEvent::Granted {
            req,
            at: SimTime::from_ticks(1),
        });
        assert!(!buf.is_empty());
        let drained = buf.take();
        assert_eq!(drained.len(), 2);
        assert!(buf.is_empty());
        assert!(matches!(drained[0], TokenEvent::Requested { .. }));
    }

    #[test]
    fn take_into_appends_and_releases_the_buffer() {
        let mut buf = EventBuf::default();
        let req = RequestId::new(NodeId::new(0), 1);
        for t in 0..3 {
            buf.push(TokenEvent::Requested {
                req,
                at: SimTime::from_ticks(t),
            });
        }
        let lent = buf.capacity();
        let mut out = vec![TokenEvent::StaleTokenDiscarded {
            generation: 0,
            at: SimTime::ZERO,
        }];
        buf.take_into(&mut out);
        assert_eq!(out.len(), 4, "existing contents are preserved");
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 0, "a drained buffer holds no heap");
        // The next node to push on this thread gets the same buffer back.
        let mut next = EventBuf::default();
        next.push(TokenEvent::Requested {
            req,
            at: SimTime::from_ticks(9),
        });
        assert_eq!(next.capacity(), lent);
        buf.push(TokenEvent::Requested {
            req,
            at: SimTime::from_ticks(9),
        });
        assert!(!buf.is_empty(), "buffer is reusable after draining");
    }
}
