//! Application-facing services over a running [`Cluster`]: the two uses the
//! paper names in its abstract — mutual exclusion and totally ordered
//! broadcast ("to multicast to all nodes, or to acquire exclusive access to
//! some shared resource, in the same global order").

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::event::TokenEvent;
use crate::runtime::{Cluster, ClusterConfig};
use atp_net::NodeId;

/// Why a service call failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceError {
    /// The deadline elapsed before the token protocol produced the event.
    TimedOut,
    /// The cluster's event stream closed (cluster shut down).
    Disconnected,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::TimedOut => write!(f, "timed out waiting for the token"),
            ServiceError::Disconnected => write!(f, "cluster event stream closed"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// A leased critical-section entry (see [`TokenService::lock`]).
///
/// The lease expires on its own after the cluster's configured
/// `service_ticks` — the token-holding node releases the token then, whether
/// or not the guard is still alive. This makes the lock crash-safe (a dead
/// client cannot wedge the ring) at the price of lease semantics: work that
/// must stay exclusive has to finish within the lease.
#[derive(Debug)]
pub struct Lease {
    /// The node that held the token for this lease.
    pub node: NodeId,
    /// When the grant was observed (wall clock).
    pub granted_at: Instant,
}

/// A delivered, globally ordered broadcast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Position in the global history `H` (1-based, gap-free).
    pub seq: u64,
    /// The broadcasting node.
    pub origin: NodeId,
    /// The payload.
    pub payload: u64,
}

/// Mutual exclusion and totally ordered broadcast over a threaded
/// token-passing cluster.
///
/// ```rust
/// use atp_core::{TokenService, ClusterConfig};
/// use atp_net::NodeId;
/// use std::time::Duration;
///
/// let service = TokenService::start(ClusterConfig::new(3));
/// // Exclusive access from node 1's perspective:
/// let lease = service.lock(NodeId::new(1), Duration::from_secs(10)).unwrap();
/// assert_eq!(lease.node, NodeId::new(1));
/// // Globally ordered broadcast:
/// service.broadcast(NodeId::new(2), 77).unwrap();
/// let d = service.next_delivery(Duration::from_secs(10)).unwrap();
/// service.shutdown();
/// ```
#[derive(Debug)]
pub struct TokenService {
    cluster: Cluster,
    /// Reorder buffer: the merged event stream interleaves the nodes'
    /// commits, so entries can arrive out of `seq` order.
    pending: std::sync::Mutex<DeliveryBuffer>,
}

#[derive(Debug, Default)]
struct DeliveryBuffer {
    next_seq: u64,
    buffered: BTreeMap<u64, Delivery>,
}

impl TokenService {
    /// Starts a cluster and wraps it.
    pub fn start(config: ClusterConfig) -> Self {
        TokenService {
            cluster: Cluster::start(config),
            pending: std::sync::Mutex::new(DeliveryBuffer {
                next_seq: 1,
                buffered: BTreeMap::new(),
            }),
        }
    }

    /// The underlying cluster (for direct event access).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Acquires the token for `node`, blocking up to `timeout`.
    ///
    /// Returns a [`Lease`]; exclusivity lasts for the cluster's configured
    /// `service_ticks` lease, after which the token moves on automatically.
    ///
    /// # Errors
    ///
    /// [`ServiceError::TimedOut`] if the grant does not arrive in time;
    /// [`ServiceError::Disconnected`] if the cluster stopped. Events
    /// consumed while waiting (including deliveries) are buffered, not lost.
    pub fn lock(&self, node: NodeId, timeout: Duration) -> Result<Lease, ServiceError> {
        self.cluster.request(node, 0);
        self.wait_for(timeout, |who, ev| {
            matches!(ev, TokenEvent::Granted { .. } if *who == node).then(|| Lease {
                node,
                granted_at: Instant::now(),
            })
        })
    }

    /// Broadcasts `payload` from `node` and waits (up to `timeout`) until it
    /// has been committed to the global order.
    ///
    /// # Errors
    ///
    /// See [`TokenService::lock`].
    pub fn broadcast(&self, node: NodeId, payload: u64) -> Result<(), ServiceError> {
        self.cluster.request(node, payload);
        self.wait_for(Duration::from_secs(30), |who, ev| {
            matches!(ev, TokenEvent::Released { .. } if *who == node).then_some(())
        })
    }

    /// Returns the next broadcast in **global order** (seq 1, 2, 3, …),
    /// waiting up to `timeout`. Every broadcast is returned exactly once:
    /// it is read from the `Released` event of the one node that committed
    /// it, and no node keeps a copy of the history to report it again.
    ///
    /// # Errors
    ///
    /// See [`TokenService::lock`].
    pub fn next_delivery(&self, timeout: Duration) -> Result<Delivery, ServiceError> {
        // Serve from the reorder buffer first.
        if let Some(d) = self.pop_ready() {
            return Ok(d);
        }
        self.wait_for(timeout, |_, _| self.pop_ready())
    }

    fn buffer_delivery(&self, d: Delivery) {
        let mut buf = self.pending.lock().expect("service buffer poisoned");
        if d.seq >= buf.next_seq {
            buf.buffered.insert(d.seq, d);
        }
    }

    fn pop_ready(&self) -> Option<Delivery> {
        let mut buf = self.pending.lock().expect("service buffer poisoned");
        let seq = buf.next_seq;
        if let Some(d) = buf.buffered.remove(&seq) {
            buf.next_seq += 1;
            Some(d)
        } else {
            None
        }
    }

    /// Waits for an event matching `pick`, buffering the commits seen on
    /// the way.
    fn wait_for<T>(
        &self,
        timeout: Duration,
        pick: impl Fn(&NodeId, &TokenEvent) -> Option<T>,
    ) -> Result<T, ServiceError> {
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(ServiceError::TimedOut);
            }
            match self.cluster.events().recv_timeout(deadline - now) {
                Ok((who, ev)) => {
                    if let TokenEvent::Released {
                        req, seq, payload, ..
                    } = ev
                    {
                        self.buffer_delivery(Delivery {
                            seq,
                            origin: req.origin,
                            payload,
                        });
                    }
                    if let Some(out) = pick(&who, &ev) {
                        return Ok(out);
                    }
                }
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    return Err(ServiceError::TimedOut)
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(ServiceError::Disconnected)
                }
            }
        }
    }

    /// Stops the cluster threads.
    pub fn shutdown(self) {
        self.cluster.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn fast_config(n: usize) -> ClusterConfig {
        ClusterConfig::new(n).with_tick(Duration::from_micros(200))
    }

    #[test]
    fn lock_grants_a_lease() {
        let service = TokenService::start(fast_config(3));
        let lease = service
            .lock(NodeId::new(2), Duration::from_secs(10))
            .expect("lease");
        assert_eq!(lease.node, NodeId::new(2));
        service.shutdown();
    }

    #[test]
    fn broadcasts_are_delivered_in_seq_order() {
        let service = TokenService::start(fast_config(3));
        for (node, payload) in [(0u32, 10u64), (1, 20), (2, 30)] {
            service
                .broadcast(NodeId::new(node), payload)
                .expect("broadcast committed");
        }
        let mut seqs = Vec::new();
        let mut payloads = Vec::new();
        for _ in 0..3 {
            let d = service
                .next_delivery(Duration::from_secs(10))
                .expect("delivery");
            seqs.push(d.seq);
            payloads.push(d.payload);
        }
        assert_eq!(seqs, vec![1, 2, 3]);
        let mut sorted = payloads.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![10, 20, 30]);
        service.shutdown();
    }

    #[test]
    fn each_broadcast_is_delivered_once() {
        // With 4 nodes, one commits the broadcast and none keeps a copy to
        // report it again: next_delivery returns the seq exactly once.
        let service = TokenService::start(fast_config(4));
        service.broadcast(NodeId::new(1), 7).expect("committed");
        let first = service
            .next_delivery(Duration::from_secs(10))
            .expect("first");
        assert_eq!(first.seq, 1);
        // No second delivery for the same seq.
        match service.next_delivery(Duration::from_millis(400)) {
            Err(ServiceError::TimedOut) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        service.shutdown();
    }

    #[test]
    fn timeout_is_reported() {
        let service = TokenService::start(fast_config(2));
        match service.next_delivery(Duration::from_millis(100)) {
            Err(ServiceError::TimedOut) => {}
            other => panic!("expected timeout, got {other:?}"),
        }
        assert_eq!(
            ServiceError::TimedOut.to_string(),
            "timed out waiting for the token"
        );
        service.shutdown();
    }
}
