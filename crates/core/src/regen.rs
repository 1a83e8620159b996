//! Token-loss detection and regeneration (Section 5).
//!
//! The paper sketches fail-stop handling: a node that needs the token and
//! does not get one "quickly discovers that the token holder has failed
//! (provided a time-out based detection is available)", determines whether
//! the token really was lost, and mints a replacement.
//!
//! The executable realization is a small deterministic state machine run by
//! every ready node:
//!
//! 1. **Suspicion.** While a request is pending, a timer of
//!    [`ProtocolConfig::effective_regen_timeout`](crate::ProtocolConfig::effective_regen_timeout)
//!    ticks runs. If it fires before the grant, the node starts an inquiry.
//! 2. **Inquiry.** The suspecting node asks every node (reliable class —
//!    regeneration is correctness-critical, so these are "expensive"
//!    messages) for its view: last visit stamp, whether it holds the token,
//!    whom it last passed it to, and its applied history length.
//! 3. **Verdict.** After a fixed reply window the node finds the freshest
//!    replier. If someone holds the token, the system is merely slow — wait.
//!    If the freshest replier passed the token to a node that did not reply,
//!    that node is dead and took the token with it — regenerate. If the
//!    freshest stamp did not advance across two consecutive inquiries, the
//!    token is lost in transit — regenerate.
//! 4. **Regeneration.** The suspecting node asks a *deterministically chosen*
//!    node (the first live node after the loss site in ring order) to mint
//!    the next generation carrying the longest applied history any live node
//!    reported. Minting is idempotent per generation, so concurrent
//!    inquiries converge on one new token; frames from superseded
//!    generations are discarded on receipt.
//!
//! ## Generation fencing across partitions
//!
//! Generations are packed as `(epoch << 8) | minter` (see [`make_gen`]): the
//! high bits count regeneration rounds, the low byte identifies the minting
//! node. Two partition sides that each regenerate concurrently therefore mint
//! *distinct*, totally ordered generations — on heal the larger one fences
//! the smaller via the ordinary stale-generation discard, so no two live
//! tokens of the same generation can coexist. The holder of the surviving
//! token keeps broadcasting [`RegenMsg::GenAnnounce`] to excluded nodes until
//! they rejoin, which also retires any stale token still held across the cut.

use std::collections::BTreeMap;

use atp_net::{NodeId, Topology};

use crate::token::TokenFrame;
use crate::types::{LogEntry, VisitStamp};

/// Packs a regeneration epoch and the minting node into one totally ordered
/// generation number: `(epoch << 8) | minter`. Comparing packed generations
/// orders by epoch first, then by minter id, so concurrent regenerations on
/// opposite sides of a partition always produce *different* generations and
/// exactly one survives the heal.
pub fn make_gen(epoch: u32, minter: NodeId) -> u32 {
    (epoch << 8) | (minter.raw() & 0xff)
}

/// The regeneration-epoch part of a packed generation.
pub fn gen_epoch(generation: u32) -> u32 {
    generation >> 8
}

/// The minting-node part of a packed generation (low byte; only meaningful
/// for generations > 0 — the initial token is minted as plain 0).
pub fn gen_minter(generation: u32) -> u32 {
    generation & 0xff
}

/// Failure-handling wire messages, embedded in each protocol's message enum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegenMsg {
    /// "What do you know about the token?" (broadcast by a suspecting node).
    Inquiry {
        /// Generation the inquirer currently believes in.
        generation: u32,
    },
    /// A node's answer to an [`RegenMsg::Inquiry`].
    Reply(RegenReply),
    /// "Please mint generation `new_gen`" (sent to the chosen regenerator).
    Please {
        /// The generation to mint.
        new_gen: u32,
        /// Longest applied history length among live nodes.
        known_seq: u64,
        /// Nodes believed dead (inquiry non-repliers); the minted token
        /// excludes them from rotation.
        dead: Vec<NodeId>,
    },
    /// A recovered node announcing itself; the next token holder readmits it
    /// into the rotation.
    Rejoin,
    /// A graceful departure (Section 5's dynamic-membership extension): the
    /// next token holder excludes the sender from the rotation — no token is
    /// lost and no regeneration is needed.
    Leave,
    /// State transfer: "send me the committed entries from `from_seq` on".
    /// Issued by nodes that detect gaps (they were down longer than the
    /// token's carried window).
    SyncRequest {
        /// First missing history position.
        from_seq: u64,
    },
    /// State-transfer answer: a contiguous run of committed entries.
    /// Empty when the replier keeps no full log (`record_log` off).
    SyncReply {
        /// The entries, sorted by `seq`.
        entries: Vec<LogEntry>,
    },
    /// Acknowledges receipt of a token frame (sent for every arriving frame,
    /// duplicates included, when [`ProtocolConfig::token_acks`](crate::ProtocolConfig::token_acks)
    /// is on). Clears the sender's retransmit state for that transfer.
    TokenAck {
        /// Generation of the acknowledged frame.
        generation: u32,
        /// Transfer sequence of the acknowledged frame.
        transfer_seq: u64,
    },
    /// Generation fencing after a partition heal: the holder of a token with
    /// a non-empty excluded set announces its generation to the excluded
    /// nodes. A node that learns of a newer generation discards any stale
    /// token it still holds and asks to rejoin; a node that knows a *newer*
    /// generation answers with its own announce, fencing the sender instead.
    GenAnnounce {
        /// The announcer's token generation.
        generation: u32,
    },
}

/// Upper bound on entries shipped per [`RegenMsg::SyncReply`].
pub const SYNC_REPLY_MAX: usize = 4096;

/// One node's view of the token, reported during an inquiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegenReply {
    /// The replier's current generation.
    pub generation: u32,
    /// The replier's last visit stamp.
    pub stamp: VisitStamp,
    /// Whether the replier holds the token right now.
    pub holder: bool,
    /// Whom the replier last forwarded the token to (with the stamp it had).
    pub passed_to: Option<NodeId>,
    /// Length of the replier's applied history.
    pub applied_seq: u64,
}

/// What the suspecting node should do after an inquiry concludes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegenVerdict {
    /// The token is alive (or evidence is inconclusive); re-arm the timer.
    Wait {
        /// Who reported holding the token, if anyone — a routing hint the
        /// lazy-search protocol uses to aim its next gimme directly.
        holder: Option<NodeId>,
    },
    /// The token is lost; ask `target` to mint `new_gen`.
    Regenerate {
        /// The node that should mint the replacement.
        target: NodeId,
        /// The generation to mint.
        new_gen: u32,
        /// History length the replacement starts from.
        known_seq: u64,
        /// Nodes believed dead (they did not answer the inquiry).
        dead: Vec<NodeId>,
    },
}

/// Per-node regeneration state machine. Embedded in each protocol node.
#[derive(Debug, Clone, Default)]
pub struct RegenEngine {
    /// Highest token generation this node has witnessed.
    pub generation: u32,
    inquiring: bool,
    /// What an inquiry leaves behind; boxed because a node that never
    /// suspects a loss never needs it.
    inquiry: Option<Box<Inquiry>>,
}

/// The part of [`RegenEngine`] only token loss touches.
#[derive(Debug, Clone, Default)]
struct Inquiry {
    replies: BTreeMap<NodeId, RegenReply>,
    /// Freshest stamp seen at the previous verdict, to detect stalls.
    prev_max_stamp: Option<u64>,
}

impl RegenEngine {
    /// Creates an engine at generation 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Witnesses a generation (from any received frame or regen message).
    /// Returns `true` if this advanced our generation (stale state must be
    /// cleared by the caller).
    pub fn witness(&mut self, generation: u32) -> bool {
        if generation > self.generation {
            self.generation = generation;
            self.inquiring = false;
            if let Some(inq) = self.inquiry.as_mut() {
                inq.replies.clear();
                inq.prev_max_stamp = None;
            }
            true
        } else {
            false
        }
    }

    /// Whether an inquiry is currently collecting replies.
    pub fn is_inquiring(&self) -> bool {
        self.inquiring
    }

    /// Starts an inquiry round (clears any previous replies).
    pub fn start_inquiry(&mut self) {
        self.inquiring = true;
        self.inquiry.get_or_insert_default().replies.clear();
    }

    /// Records a reply. Replies from superseded generations are ignored;
    /// replies from a *newer* generation advance ours and cancel the inquiry
    /// (someone already regenerated).
    pub fn record_reply(&mut self, from: NodeId, reply: RegenReply) {
        if reply.generation > self.generation {
            self.witness(reply.generation);
            return;
        }
        if self.inquiring && reply.generation == self.generation {
            self.inquiry
                .get_or_insert_default()
                .replies
                .insert(from, reply);
        }
    }

    /// Concludes the inquiry and renders a verdict.
    ///
    /// `me`/`my_view` contribute the inquirer's own knowledge so a lone
    /// survivor can still decide.
    pub fn conclude(
        &mut self,
        topology: Topology,
        me: NodeId,
        my_view: RegenReply,
    ) -> RegenVerdict {
        if !self.inquiring {
            return RegenVerdict::Wait { holder: None };
        }
        self.inquiring = false;
        // Packed next generation: bump the epoch, stamp the minter. Two
        // disconnected inquirers picking different minters thus mint
        // different (totally ordered) generations — see [`make_gen`].
        let next_epoch = gen_epoch(self.generation) + 1;
        let next_gen_by = |target: NodeId| make_gen(next_epoch, target);
        let inq = self.inquiry.get_or_insert_default();
        let mut replies = std::mem::take(&mut inq.replies);
        replies.insert(me, my_view);
        let dead = || -> Vec<NodeId> {
            topology
                .iter()
                .filter(|id| !replies.contains_key(id))
                .collect()
        };

        // Someone holds the token: merely slow.
        if let Some(holder) = replies.iter().find_map(|(id, r)| r.holder.then_some(*id)) {
            inq.prev_max_stamp = None;
            return RegenVerdict::Wait {
                holder: Some(holder),
            };
        }

        let (freshest_node, freshest) = replies
            .iter()
            .max_by_key(|(id, r)| (r.stamp, std::cmp::Reverse(*id)))
            .map(|(id, r)| (*id, *r))
            .expect("replies contains at least the inquirer");
        let known_seq = replies.values().map(|r| r.applied_seq).max().unwrap_or(0);

        // Case 1: the freshest node passed the token to someone who did not
        // answer — the holder died with the token.
        if let Some(dst) = freshest.passed_to {
            if !replies.contains_key(&dst) {
                let target = Self::first_live_after(topology, dst, &replies);
                inq.prev_max_stamp = None;
                return RegenVerdict::Regenerate {
                    target,
                    new_gen: next_gen_by(target),
                    known_seq,
                    dead: dead(),
                };
            }
        }

        // Case 2: nobody holds it, the receiver of the last pass is alive but
        // empty-handed, and nothing advanced since the previous inquiry —
        // the frame was dead-lettered in transit.
        let max_stamp = freshest.stamp.value();
        if inq.prev_max_stamp == Some(max_stamp) {
            let target = Self::first_live_after(
                topology,
                freshest.passed_to.unwrap_or(freshest_node),
                &replies,
            );
            inq.prev_max_stamp = None;
            return RegenVerdict::Regenerate {
                target,
                new_gen: next_gen_by(target),
                known_seq,
                dead: dead(),
            };
        }
        inq.prev_max_stamp = Some(max_stamp);
        RegenVerdict::Wait { holder: None }
    }

    /// Deterministic regenerator choice: the first node at or after `start`
    /// (in ring order) that replied to the inquiry.
    fn first_live_after(
        topology: Topology,
        start: NodeId,
        replies: &BTreeMap<NodeId, RegenReply>,
    ) -> NodeId {
        topology
            .iter_from(start)
            .find(|id| replies.contains_key(id))
            .unwrap_or(start)
    }

    /// Handles a [`RegenMsg::Please`]: mints the replacement token if this
    /// node has not already minted this (or a later) generation.
    pub fn mint(
        &mut self,
        new_gen: u32,
        known_seq: u64,
        window: usize,
        dead: Vec<NodeId>,
    ) -> Option<TokenFrame> {
        // Minting witnesses `new_gen`, so a generation minted here before
        // is at or below ours and fails this check: one mint per generation.
        if new_gen <= self.generation {
            return None;
        }
        self.witness(new_gen);
        Some(TokenFrame::regenerate(new_gen, known_seq, window, dead))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reply(gen: u32, stamp: u64, holder: bool, passed_to: Option<u32>, seq: u64) -> RegenReply {
        RegenReply {
            generation: gen,
            stamp: VisitStamp(stamp),
            holder,
            passed_to: passed_to.map(NodeId::new),
            applied_seq: seq,
        }
    }

    #[test]
    fn witness_advances_and_clears() {
        let mut e = RegenEngine::new();
        e.start_inquiry();
        assert!(e.witness(2));
        assert!(!e.is_inquiring());
        assert!(!e.witness(2));
        assert!(!e.witness(1));
        assert_eq!(e.generation, 2);
    }

    #[test]
    fn holder_alive_means_wait() {
        let t = Topology::ring(4);
        let mut e = RegenEngine::new();
        e.start_inquiry();
        e.record_reply(NodeId::new(1), reply(0, 10, true, None, 3));
        let v = e.conclude(t, NodeId::new(0), reply(0, 2, false, None, 1));
        assert_eq!(
            v,
            RegenVerdict::Wait {
                holder: Some(NodeId::new(1))
            }
        );
    }

    #[test]
    fn dead_receiver_triggers_regeneration_at_next_live() {
        let t = Topology::ring(4);
        let mut e = RegenEngine::new();
        e.start_inquiry();
        // n1 passed to n2; n2 never replies (dead). n3 replied.
        e.record_reply(NodeId::new(1), reply(0, 10, false, Some(2), 5));
        e.record_reply(NodeId::new(3), reply(0, 8, false, Some(0), 4));
        let v = e.conclude(t, NodeId::new(0), reply(0, 9, false, None, 2));
        assert_eq!(
            v,
            RegenVerdict::Regenerate {
                target: NodeId::new(3),
                new_gen: make_gen(1, NodeId::new(3)),
                known_seq: 5,
                dead: vec![NodeId::new(2)],
            }
        );
    }

    #[test]
    fn stalled_stamp_across_two_inquiries_regenerates() {
        let t = Topology::ring(3);
        let mut e = RegenEngine::new();
        // First inquiry: in-transit suspicion, wait.
        e.start_inquiry();
        e.record_reply(NodeId::new(1), reply(0, 10, false, Some(2), 5));
        e.record_reply(NodeId::new(2), reply(0, 7, false, None, 5));
        let v = e.conclude(t, NodeId::new(0), reply(0, 9, false, None, 5));
        assert_eq!(v, RegenVerdict::Wait { holder: None });
        // Second inquiry, same picture: regeneration.
        e.start_inquiry();
        e.record_reply(NodeId::new(1), reply(0, 10, false, Some(2), 5));
        e.record_reply(NodeId::new(2), reply(0, 7, false, None, 5));
        let v = e.conclude(t, NodeId::new(0), reply(0, 9, false, None, 5));
        assert_eq!(
            v,
            RegenVerdict::Regenerate {
                target: NodeId::new(2),
                new_gen: make_gen(1, NodeId::new(2)),
                known_seq: 5,
                dead: vec![],
            }
        );
    }

    #[test]
    fn progress_between_inquiries_resets_stall_detector() {
        let t = Topology::ring(3);
        let mut e = RegenEngine::new();
        e.start_inquiry();
        e.record_reply(NodeId::new(1), reply(0, 10, false, Some(2), 5));
        e.record_reply(NodeId::new(2), reply(0, 9, false, None, 5));
        assert_eq!(
            e.conclude(t, NodeId::new(0), reply(0, 2, false, None, 5)),
            RegenVerdict::Wait { holder: None }
        );
        e.start_inquiry();
        // Stamp advanced: the token is moving, keep waiting.
        e.record_reply(NodeId::new(1), reply(0, 12, false, Some(2), 6));
        e.record_reply(NodeId::new(2), reply(0, 11, false, None, 6));
        assert_eq!(
            e.conclude(t, NodeId::new(0), reply(0, 2, false, None, 5)),
            RegenVerdict::Wait { holder: None }
        );
    }

    #[test]
    fn minting_is_idempotent_per_generation() {
        let mut e = RegenEngine::new();
        let g1 = make_gen(1, NodeId::new(3));
        let g2 = make_gen(2, NodeId::new(1));
        let t1 = e.mint(g1, 10, 8, vec![NodeId::new(3)]);
        assert!(t1.is_some());
        let t1 = t1.unwrap();
        assert_eq!(t1.generation, g1);
        assert_eq!(t1.committed(), 10);
        assert!(t1.is_excluded(NodeId::new(3)));
        assert!(e.mint(g1, 10, 8, vec![]).is_none());
        assert!(e.mint(g2, 12, 8, vec![]).is_some());
        assert!(e.mint(g1, 9, 8, vec![]).is_none());
    }

    /// Regression (message duplication): a duplicated `Please` must not mint
    /// a second token of the same generation — the second call is a no-op.
    #[test]
    fn duplicated_please_mints_exactly_one_token() {
        let mut e = RegenEngine::new();
        let g = make_gen(1, NodeId::new(2));
        assert!(e.mint(g, 5, 8, vec![NodeId::new(0)]).is_some());
        assert!(
            e.mint(g, 5, 8, vec![NodeId::new(0)]).is_none(),
            "redelivered mint request minted a duplicate token"
        );
    }

    #[test]
    fn packed_generations_are_totally_ordered_by_epoch_then_minter() {
        let a = make_gen(1, NodeId::new(2));
        let b = make_gen(1, NodeId::new(5));
        let c = make_gen(2, NodeId::new(0));
        assert!(a < b && b < c, "{a} {b} {c}");
        assert_eq!(gen_epoch(c), 2);
        assert_eq!(gen_minter(b), 5);
        // Concurrent partition-side regenerations from the same base epoch
        // always disagree in the low byte, never collide.
        assert_ne!(a, b);
    }

    #[test]
    fn newer_generation_reply_cancels_inquiry() {
        let mut e = RegenEngine::new();
        e.start_inquiry();
        e.record_reply(NodeId::new(1), reply(3, 10, false, None, 5));
        assert!(!e.is_inquiring());
        assert_eq!(e.generation, 3);
    }
}
