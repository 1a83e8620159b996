//! Wire-level chaos injection: a seeded, deterministic fault layer that
//! wraps any [`Endpoint`].
//!
//! [`ChaosEndpoint`] interposes one extra [`frame`](crate::frame) framing
//! layer (length prefix + CRC32 trailer) around every staged frame and
//! then, with seeded per-frame probabilities, mutates the framed bytes
//! before they reach the inner transport:
//!
//! * **corruption** — one byte beyond the protected prefix is XOR-flipped;
//!   the CRC32 trailer guarantees the receive side surfaces it as a typed
//!   [`FrameError::BadChecksum`], never as a silently garbled decode;
//! * **truncation** — the CRC trailer is cut short (tail loss on the wire);
//! * **mid-frame disconnect** — the stream is cut inside the payload, the
//!   byte pattern a peer dying mid-`write` produces.
//!
//! On receive the wrapper re-parses its chaos framing. An intact frame is
//! delivered unwrapped; a damaged one is *detected*, counted, and replaced
//! by a **tombstone** — just the frame's protected prefix (a driver's
//! routing envelope survives because injection never touches the first
//! [`ChaosConfig::protect_prefix`] payload bytes). Hosts that account for
//! frames in flight therefore keep exact counts: every staged frame still
//! arrives, either whole or as an attributable tombstone, and every
//! injected fault is matched by a detection counter
//! ([`ChaosCounters::all_accounted_for`]).
//!
//! All fault decisions come from a seeded [`StdRng`] advanced only in
//! `stage` order, so a driver that stages deterministically gets an
//! identical fault pattern on every run — the property the chaos
//! conformance campaign's replay gate depends on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use atp_util::rng::{Rng, SeedableRng, StdRng};

use crate::frame::{write_frame, FrameDecoder, FrameError, FRAME_HEADER_LEN, FRAME_TRAILER_LEN};
use crate::id::NodeId;
use crate::transport::{CloseReport, Endpoint};

/// Per-frame fault probabilities (per mille) and shared knobs for a
/// [`ChaosEndpoint`]. Rates are independent per frame; at most one fault is
/// injected into any single frame.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Seed for the per-endpoint fault stream (mixed with the node id so
    /// endpoints draw independent sequences).
    pub seed: u64,
    /// Per-mille chance a staged frame gets one byte flipped.
    pub corrupt_per_mille: u32,
    /// Per-mille chance a staged frame loses trailer bytes (tail loss).
    pub truncate_per_mille: u32,
    /// Per-mille chance a staged frame is cut mid-payload (disconnect).
    pub disconnect_per_mille: u32,
    /// Payload bytes at the start of every frame that injection never
    /// touches — set to the host's routing-envelope length so damaged
    /// frames remain attributable.
    pub protect_prefix: usize,
}

impl ChaosConfig {
    /// A quiet configuration (no faults) with the given seed.
    pub fn new(seed: u64) -> Self {
        ChaosConfig {
            seed,
            corrupt_per_mille: 0,
            truncate_per_mille: 0,
            disconnect_per_mille: 0,
            protect_prefix: 0,
        }
    }

    /// Sets the byte-corruption rate.
    pub fn corrupt(mut self, per_mille: u32) -> Self {
        self.corrupt_per_mille = per_mille;
        self
    }

    /// Sets the tail-truncation rate.
    pub fn truncate(mut self, per_mille: u32) -> Self {
        self.truncate_per_mille = per_mille;
        self
    }

    /// Sets the mid-frame-disconnect rate.
    pub fn disconnect(mut self, per_mille: u32) -> Self {
        self.disconnect_per_mille = per_mille;
        self
    }

    /// Sets the protected payload prefix length.
    pub fn protect(mut self, prefix: usize) -> Self {
        self.protect_prefix = prefix;
        self
    }
}

/// Injection/detection tallies for one [`ChaosEndpoint`], shared with the
/// host via `Arc` so they stay readable after the endpoint is consumed.
#[derive(Debug, Default)]
pub struct ChaosCounters {
    /// Frames that had a byte flipped on the way out.
    pub injected_corruptions: AtomicU64,
    /// Frames that lost trailer bytes on the way out.
    pub injected_truncations: AtomicU64,
    /// Frames cut mid-payload on the way out.
    pub injected_disconnects: AtomicU64,
    /// Inbound frames rejected by the CRC32 check.
    pub detected_bad_checksums: AtomicU64,
    /// Inbound frames that arrived incomplete.
    pub detected_truncations: AtomicU64,
}

impl ChaosCounters {
    /// True when every injected fault was matched by the corresponding
    /// detection on the receive side: corruptions by `BadChecksum`,
    /// truncations and disconnects by incomplete-frame detection.
    ///
    /// Sum the counters across *all* endpoints of a mesh before asking —
    /// injection happens on the sender, detection on the receiver.
    pub fn all_accounted_for(counters: &[Arc<ChaosCounters>]) -> bool {
        let sum = |f: fn(&ChaosCounters) -> &AtomicU64| -> u64 {
            counters.iter().map(|c| f(c).load(Ordering::Relaxed)).sum()
        };
        sum(|c| &c.injected_corruptions) == sum(|c| &c.detected_bad_checksums)
            && sum(|c| &c.injected_truncations) + sum(|c| &c.injected_disconnects)
                == sum(|c| &c.detected_truncations)
    }
}

/// A fault-injecting wrapper around any [`Endpoint`]. See the module docs
/// for the model.
#[derive(Debug)]
pub struct ChaosEndpoint<E> {
    inner: E,
    cfg: ChaosConfig,
    rng: StdRng,
    counters: Arc<ChaosCounters>,
    scratch: Vec<u8>,
}

impl<E: Endpoint> ChaosEndpoint<E> {
    /// Wraps `inner`, deriving this endpoint's fault stream from
    /// `cfg.seed` and the node id.
    pub fn new(inner: E, cfg: ChaosConfig) -> Self {
        let seed = cfg
            .seed
            .wrapping_add((u64::from(inner.id().raw())).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        ChaosEndpoint {
            inner,
            cfg,
            rng: StdRng::seed_from_u64(seed),
            counters: Arc::new(ChaosCounters::default()),
            scratch: Vec::new(),
        }
    }

    /// A shared handle to this endpoint's tallies.
    pub fn counters(&self) -> Arc<ChaosCounters> {
        Arc::clone(&self.counters)
    }

    /// The wrapped endpoint.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl<E: Endpoint> Endpoint for ChaosEndpoint<E> {
    fn id(&self) -> NodeId {
        self.inner.id()
    }

    fn stage(&mut self, to: NodeId, frame: &[u8]) {
        self.scratch.clear();
        write_frame(&mut self.scratch, frame);
        // The chaos wire image: [len][payload][crc]. Injection keeps the
        // length prefix and the first `protect_prefix` payload bytes intact
        // so a damaged frame still carries its routing envelope.
        let protect_end = FRAME_HEADER_LEN + self.cfg.protect_prefix.min(frame.len());
        let trailer_start = self.scratch.len() - FRAME_TRAILER_LEN;
        let c = self.cfg.corrupt_per_mille;
        let t = c + self.cfg.truncate_per_mille;
        let d = t + self.cfg.disconnect_per_mille;
        let roll = self.rng.gen_range(0..1000u32);
        if roll < c {
            let off = self.rng.gen_range(protect_end..self.scratch.len());
            let mask = self.rng.gen_range(1..=255u8);
            self.scratch[off] ^= mask;
            Self::bump(&self.counters.injected_corruptions);
        } else if roll < t {
            let cut = self
                .rng
                .gen_range(trailer_start.max(protect_end)..self.scratch.len());
            self.scratch.truncate(cut);
            Self::bump(&self.counters.injected_truncations);
        } else if roll < d {
            let cut = if protect_end < trailer_start {
                self.rng.gen_range(protect_end..trailer_start)
            } else {
                // Payload no longer than the protected prefix: the only
                // cuttable bytes are in the trailer.
                self.rng.gen_range(trailer_start..self.scratch.len())
            };
            self.scratch.truncate(cut);
            Self::bump(&self.counters.injected_disconnects);
        }
        let staged = std::mem::take(&mut self.scratch);
        self.inner.stage(to, &staged);
        self.scratch = staged;
    }

    fn flush(&mut self) {
        self.inner.flush();
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
        let (from, wire) = self.inner.recv_timeout(timeout)?;
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        match dec.next_frame() {
            Ok(Some(frame)) => return Some((from, frame)),
            Ok(None) => Self::bump(&self.counters.detected_truncations),
            Err(FrameError::BadChecksum { .. }) => {
                Self::bump(&self.counters.detected_bad_checksums);
            }
            Err(_) => Self::bump(&self.counters.detected_truncations),
        }
        // Damaged: deliver the tombstone — the surviving protected prefix —
        // so the host can attribute the loss and keep inflight counts exact.
        let avail = wire.len().saturating_sub(FRAME_HEADER_LEN);
        let keep = self.cfg.protect_prefix.min(avail);
        Some((
            from,
            wire[FRAME_HEADER_LEN..FRAME_HEADER_LEN + keep].to_vec(),
        ))
    }

    fn frames_lost(&self) -> u64 {
        self.inner.frames_lost()
    }

    fn hops_cost_syscalls(&self) -> bool {
        self.inner.hops_cost_syscalls()
    }

    fn sever(&mut self) {
        self.inner.sever();
    }

    fn close(&mut self) -> CloseReport {
        self.inner.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{ChanTransport, Transport};

    fn chan_pair() -> (
        crate::transport::ChanEndpoint,
        crate::transport::ChanEndpoint,
    ) {
        let mut eps = ChanTransport::endpoints(2).expect("infallible");
        let b = eps.pop().expect("two");
        let a = eps.pop().expect("two");
        (a, b)
    }

    #[test]
    fn quiet_chaos_is_a_transparent_passthrough() {
        let (a, b) = chan_pair();
        let mut a = ChaosEndpoint::new(a, ChaosConfig::new(1));
        let mut b = ChaosEndpoint::new(b, ChaosConfig::new(1));
        a.stage(NodeId::new(1), b"hello");
        a.stage(NodeId::new(1), b"world");
        a.flush();
        assert_eq!(
            b.recv_timeout(Duration::from_millis(200)),
            Some((NodeId::new(0), b"hello".to_vec()))
        );
        assert_eq!(
            b.recv_timeout(Duration::from_millis(200)),
            Some((NodeId::new(0), b"world".to_vec()))
        );
        assert_eq!(
            b.counters().detected_bad_checksums.load(Ordering::Relaxed),
            0
        );
        assert_eq!(b.counters().detected_truncations.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn certain_corruption_is_always_detected_and_tombstoned() {
        let (a, b) = chan_pair();
        let cfg = ChaosConfig::new(7).corrupt(1000).protect(4);
        let mut a = ChaosEndpoint::new(a, cfg);
        let mut b = ChaosEndpoint::new(b, cfg);
        for i in 0..50u8 {
            a.stage(NodeId::new(1), &[0xAA, 0xBB, 0xCC, 0xDD, i, i, i]);
        }
        a.flush();
        for _ in 0..50 {
            let (_, frame) = b
                .recv_timeout(Duration::from_millis(200))
                .expect("tombstone");
            assert_eq!(
                frame,
                vec![0xAA, 0xBB, 0xCC, 0xDD],
                "protected prefix survives"
            );
        }
        let tx = a.counters();
        let rx = b.counters();
        assert_eq!(tx.injected_corruptions.load(Ordering::Relaxed), 50);
        assert_eq!(rx.detected_bad_checksums.load(Ordering::Relaxed), 50);
        assert!(ChaosCounters::all_accounted_for(&[tx, rx]));
    }

    #[test]
    fn truncation_and_disconnect_arrive_as_attributable_tombstones() {
        let (a, b) = chan_pair();
        let cfg = ChaosConfig::new(11)
            .truncate(500)
            .disconnect(500)
            .protect(2);
        let mut a = ChaosEndpoint::new(a, cfg);
        let mut b = ChaosEndpoint::new(b, cfg);
        for i in 0..40u8 {
            a.stage(NodeId::new(1), &[0x11, 0x22, i, i, i, i]);
        }
        a.flush();
        for _ in 0..40 {
            let (_, frame) = b
                .recv_timeout(Duration::from_millis(200))
                .expect("tombstone");
            assert_eq!(
                frame,
                vec![0x11, 0x22],
                "protected prefix survives every cut"
            );
        }
        assert!(ChaosCounters::all_accounted_for(&[
            a.counters(),
            b.counters()
        ]));
        let tx = a.counters();
        assert_eq!(
            tx.injected_truncations.load(Ordering::Relaxed)
                + tx.injected_disconnects.load(Ordering::Relaxed),
            40
        );
    }

    #[test]
    fn fault_pattern_is_identical_across_runs() {
        let tallies = |seed: u64| -> (u64, u64, u64) {
            let (a, b) = chan_pair();
            let cfg = ChaosConfig::new(seed)
                .corrupt(100)
                .truncate(100)
                .disconnect(100)
                .protect(1);
            let mut a = ChaosEndpoint::new(a, cfg);
            let mut b = ChaosEndpoint::new(b, cfg);
            for i in 0..200u8 {
                a.stage(NodeId::new(1), &[7, i, i]);
            }
            a.flush();
            for _ in 0..200 {
                b.recv_timeout(Duration::from_millis(200))
                    .expect("frame or tombstone");
            }
            let c = a.counters();
            (
                c.injected_corruptions.load(Ordering::Relaxed),
                c.injected_truncations.load(Ordering::Relaxed),
                c.injected_disconnects.load(Ordering::Relaxed),
            )
        };
        assert_eq!(tallies(42), tallies(42));
        assert_ne!(
            tallies(42),
            tallies(43),
            "different seeds, different pattern"
        );
    }
}
