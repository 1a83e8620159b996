//! Byte-level transport abstraction for hosting nodes outside a `World`.
//!
//! A [`Harness`](crate::Harness) turns node callbacks into plain data; a
//! [`Transport`] moves that data — already encoded to byte frames — between
//! node endpoints. The trait is deliberately byte-level and protocol-blind:
//! wire encoding belongs to the protocol crate, reliability belongs to the
//! protocol's ack/retransmit machinery, and the transport only promises
//! *best-effort, per-link FIFO* delivery, exactly the contract the simulated
//! `World` offers its nodes.
//!
//! Two backends ship here and in [`crate::tcp`]:
//!
//! * [`ChanTransport`] — in-process `std::sync::mpsc` links (the fixture the
//!   cross-transport conformance suite trusts as its reference);
//! * [`crate::tcp::TcpTransport`] — real length-prefixed frames over
//!   loopback TCP sockets, one endpoint per node.
//!
//! Both construct a full mesh of `n` endpoints with
//! [`Transport::endpoints`]; one driver thread then owns every [`Endpoint`]
//! and pumps them all (the virtual-clock driver in `atp-sim`, the runtime's
//! reactor in `atp-core`). Neither backend starts a thread per link: a
//! channel needs none, and a TCP endpoint's one accept thread only
//! identifies new connections, so every frame is written and read by the
//! driver thread itself.

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::Duration;

use crate::id::NodeId;

/// What [`Endpoint::close`] reports, so hosts can assert clean teardown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CloseReport {
    /// Background threads this endpoint ever spawned.
    pub threads_spawned: usize,
    /// Of those, how many were confirmed exited at close time.
    pub threads_joined: usize,
}

impl CloseReport {
    /// True when every spawned thread was joined.
    pub fn is_clean(&self) -> bool {
        self.threads_spawned == self.threads_joined
    }
}

/// One node's attachment to a [`Transport`].
///
/// Sends are *staged* ([`Endpoint::stage`]) and leave in batches on
/// [`Endpoint::flush`] — stream transports amortize syscalls this way, and
/// the channel backend mirrors the semantics so behavior cannot diverge
/// between backends.
pub trait Endpoint: Send {
    /// The node this endpoint belongs to.
    fn id(&self) -> NodeId;

    /// Stages one frame for `to`. Nothing moves until [`Endpoint::flush`].
    fn stage(&mut self, to: NodeId, frame: &[u8]);

    /// Transmits everything staged. Best-effort: a peer that cannot be
    /// reached (even after the backend's reconnect policy) costs the staged
    /// frames, counted in [`Endpoint::frames_lost`] — the protocol's
    /// retransmit layer owns recovery.
    fn flush(&mut self);

    /// Receives the next inbound frame, waiting up to `timeout`.
    fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)>;

    /// Frames dropped on the floor by this endpoint (unreachable peer,
    /// undecodable stream). Zero on a healthy transport.
    fn frames_lost(&self) -> u64;

    /// Whether a hop through this backend costs system calls — a socket
    /// write and a socket read — rather than an in-process hand-off. A host
    /// that batches what it tells its clients should pass a grant on at once
    /// over such a backend: a batch there fills slowly enough to hold the
    /// grant back. Sockets, unless the backend says otherwise.
    fn hops_cost_syscalls(&self) -> bool {
        true
    }

    /// Fault-injection hook: violently severs the endpoint's live
    /// connections *without* shutting it down, as if the process's sockets
    /// all died at once. Subsequent traffic re-establishes links through
    /// the backend's normal reconnect policy. Backends with no severable
    /// state (in-process channels) treat this as a no-op.
    fn sever(&mut self) {}

    /// Shuts the endpoint down and joins its background machinery.
    /// Idempotent; returns what was cleaned up.
    fn close(&mut self) -> CloseReport;
}

/// A family of endpoints constructible as an `n`-node full mesh.
pub trait Transport {
    /// The per-node endpoint type.
    type Endpoint: Endpoint + 'static;

    /// Human label for reports ("chan", "tcp").
    fn label() -> &'static str;

    /// Builds the full mesh: endpoint `i` is node `i`.
    ///
    /// # Errors
    ///
    /// Backends that acquire OS resources (sockets) surface failures here;
    /// the in-process backend is infallible.
    fn endpoints(n: usize) -> std::io::Result<Vec<Self::Endpoint>>;
}

/// The in-process reference backend: one mpsc link per node, frames moved
/// as owned byte vectors. FIFO per link, lossless, no threads.
#[derive(Debug)]
pub struct ChanTransport;

/// [`ChanTransport`]'s endpoint.
#[derive(Debug)]
pub struct ChanEndpoint {
    id: NodeId,
    peers: Vec<Sender<(NodeId, Vec<u8>)>>,
    inbox: Receiver<(NodeId, Vec<u8>)>,
    staged: Vec<(NodeId, Vec<u8>)>,
    lost: u64,
}

impl Transport for ChanTransport {
    type Endpoint = ChanEndpoint;

    fn label() -> &'static str {
        "chan"
    }

    fn endpoints(n: usize) -> std::io::Result<Vec<ChanEndpoint>> {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
        Ok(rxs
            .into_iter()
            .enumerate()
            .map(|(i, inbox)| ChanEndpoint {
                id: NodeId::new(i as u32),
                peers: txs.clone(),
                inbox,
                staged: Vec::new(),
                lost: 0,
            })
            .collect())
    }
}

impl Endpoint for ChanEndpoint {
    fn id(&self) -> NodeId {
        self.id
    }

    fn stage(&mut self, to: NodeId, frame: &[u8]) {
        self.staged.push((to, frame.to_vec()));
    }

    fn flush(&mut self) {
        for (to, frame) in self.staged.drain(..) {
            if self.peers[to.index()].send((self.id, frame)).is_err() {
                // Peer endpoint closed: the link is down, the frame is lost.
                self.lost += 1;
            }
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
        match self.inbox.recv_timeout(timeout) {
            Ok(m) => Some(m),
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => None,
        }
    }

    fn frames_lost(&self) -> u64 {
        self.lost
    }

    fn hops_cost_syscalls(&self) -> bool {
        false
    }

    fn close(&mut self) -> CloseReport {
        // Drop senders so peers observe disconnection; no threads to join.
        self.peers.clear();
        CloseReport::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chan_mesh_moves_staged_frames_in_order() {
        let mut eps = ChanTransport::endpoints(3).expect("infallible");
        let (a, rest) = eps.split_at_mut(1);
        a[0].stage(NodeId::new(2), b"one");
        a[0].stage(NodeId::new(2), b"two");
        a[0].stage(NodeId::new(1), b"three");
        // Nothing moves before flush.
        assert!(rest[1].recv_timeout(Duration::from_millis(1)).is_none());
        a[0].flush();
        assert_eq!(
            rest[1].recv_timeout(Duration::from_millis(100)),
            Some((NodeId::new(0), b"one".to_vec()))
        );
        assert_eq!(
            rest[1].recv_timeout(Duration::from_millis(100)),
            Some((NodeId::new(0), b"two".to_vec()))
        );
        assert_eq!(
            rest[0].recv_timeout(Duration::from_millis(100)),
            Some((NodeId::new(0), b"three".to_vec()))
        );
    }

    #[test]
    fn closed_peer_counts_losses_not_panics() {
        let mut eps = ChanTransport::endpoints(2).expect("infallible");
        let mut victim = eps.pop().expect("two endpoints");
        victim.close();
        drop(victim);
        eps[0].stage(NodeId::new(1), b"into the void");
        eps[0].flush();
        assert_eq!(eps[0].frames_lost(), 1);
        assert!(eps[0].close().is_clean());
    }
}
