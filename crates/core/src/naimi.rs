//! Naimi–Tréhel path-reversal mutual exclusion: dynamic tree + lazy token.
//!
//! Every node keeps a `last` pointer naming the *probable owner* of the
//! token. A requester sends a single Request toward `last` and clears the
//! pointer; each node that relays the Request redirects its own `last` at
//! the requester — the "path reversal" that keeps the tree's average depth
//! O(log N) (Lavault's analysis). The node at the end of the chain either
//! ships the idle token directly or records the requester as its `next`
//! (here: a `waiting` queue, so bursts and fault-time resends cannot strand
//! anyone). Token handoff, duplicate suppression, regeneration and
//! generation fencing reuse the same machinery as the other protocols —
//! the transport layer does not know a new protocol exists.
//!
//! Unlike System Search's gimme walk (O(N) hops along the ring), the
//! request here follows `last` pointers, so the hop count per request is
//! the depth of the dynamic tree: O(log N) on average. This is the
//! standard competitor the paper's BinarySearch must beat on worst-case
//! responsiveness while matching on average cost.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use atp_net::{Context, MsgClass, Node, NodeId, SimTime};

use crate::checkpoint::{Checkpoint, CKPT_NAIMI};
use crate::config::ProtocolConfig;
use crate::event::{EventBuf, EventSource, TokenEvent, Want, WantKind};
use crate::handoff::{decode_retransmit_timer, retransmit_timer_kind, Handoff};
use crate::order::OrderState;
use crate::regen::{RegenEngine, RegenMsg, RegenReply, RegenVerdict};
use crate::token::TokenFrame;
use crate::types::{RequestId, VisitStamp};

/// Messages of the path-reversal protocol.
#[derive(Debug, Clone)]
pub enum NaimiMsg {
    /// A request chasing the token along `last` pointers.
    Request {
        /// The ready node.
        origin: NodeId,
        /// Its request.
        req: RequestId,
        /// Resend counter — lets the duplicate filter distinguish a
        /// deliberate retry from a link-level duplicate of the same send.
        attempt: u32,
        /// Hops taken so far (TTL safety net for fault-time pointer loops).
        hops: u32,
    },
    /// The token, sent directly to a requester or minted at start. The
    /// frame is boxed so moving a `NaimiMsg` through the event queue
    /// copies a pointer, not the frame.
    Token {
        /// The frame itself.
        frame: Box<TokenFrame>,
        /// The request this transfer satisfies (`None` for the initial
        /// placement / regeneration / departure handoff).
        grant_for: Option<RequestId>,
    },
    /// Failure-handling traffic (shared with the other protocols).
    Regen(RegenMsg),
}

const TIMER_SERVICE: u64 = 1;
const TIMER_REGEN: u64 = 3;
const TIMER_INQUIRY: u64 = 4;
// Timer kind 5 (low byte) is the retransmit timer, see `crate::handoff`.
const TIMER_ANNOUNCE: u64 = 6;
const INQUIRY_WINDOW: u64 = 8;

/// Re-announce period for generation fencing while excluded nodes remain.
const ANNOUNCE_PERIOD: u64 = 16;

/// Analytic wire size of a Request: tag 1 + origin 4 + [`RequestId`] 12 +
/// attempt 4 + hops 4 (mirrors `atp_core::codec::naimi_encoded_len`).
const REQUEST_WIRE_BYTES: u64 = 25;

#[derive(Debug)]
struct Outstanding {
    req: RequestId,
    payload: u64,
    made_at: SimTime,
}

/// A queued successor obligation: classic Naimi–Tréhel's `next` pointer,
/// generalized to a queue so fault-time resends cannot overwrite it.
#[derive(Debug, Clone, Copy)]
struct Successor {
    origin: NodeId,
    req: RequestId,
    attempt: u32,
}

#[derive(Debug)]
enum HoldState {
    Idle,
    Serving { req: RequestId, payload: u64 },
}

#[derive(Debug)]
struct Holding {
    token: Box<TokenFrame>,
    state: HoldState,
}

/// One node of the Naimi–Tréhel path-reversal protocol.
#[derive(Debug)]
pub struct NaimiNode {
    cfg: ProtocolConfig,
    events: EventBuf,
    order: OrderState,
    outstanding: VecDeque<Outstanding>,
    /// Successor queue (`next` in the classic formulation).
    waiting: VecDeque<Successor>,
    /// Probable owner (`last`). `None` means this node believes itself to
    /// be the root: it holds the token or sits at the tail of the chain.
    last: Option<NodeId>,
    /// Per-origin high-water mark of processed requests, `(seq, attempt)`.
    /// Requests travel on the cheap channel, which link faults may
    /// duplicate; without this filter a stale duplicate could re-enter the
    /// tree after its request was served and corrupt the successor queue.
    seen: BTreeMap<NodeId, (u64, u32)>,
    next_req_seq: u64,
    last_visit: VisitStamp,
    last_pass: Option<NodeId>,
    holding: Option<Holding>,
    regen: RegenEngine,
    handoff: Handoff<NaimiMsg>,
    rejoining: BTreeSet<NodeId>,
    leaving: BTreeSet<NodeId>,
    departed: bool,
    /// Gap count already covered by an outstanding sync request.
    synced_gaps: u64,
    /// Resend counter for the current front acquisition.
    attempt: u32,
    grants: u64,
    token_sends: u64,
    request_sends: u64,
}

impl NaimiNode {
    /// Creates a node with the given configuration.
    pub fn new(cfg: ProtocolConfig) -> Self {
        NaimiNode {
            order: OrderState::new(cfg.record_log),
            cfg,
            events: EventBuf::default(),
            outstanding: VecDeque::new(),
            waiting: VecDeque::new(),
            last: None,
            seen: BTreeMap::new(),
            next_req_seq: 0,
            last_visit: VisitStamp::NEVER,
            last_pass: None,
            holding: None,
            regen: RegenEngine::new(),
            handoff: Handoff::new(),
            rejoining: BTreeSet::new(),
            leaving: BTreeSet::new(),
            departed: false,
            synced_gaps: 0,
            attempt: 0,
            grants: 0,
            token_sends: 0,
            request_sends: 0,
        }
    }

    /// The node's applied history.
    pub fn order(&self) -> &OrderState {
        &self.order
    }

    /// Captures the node's durable state for crash–restart recovery.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint::capture(
            CKPT_NAIMI,
            &self.order,
            self.next_req_seq,
            self.last_visit,
            self.regen.generation,
            self.handoff.watermark(),
        )
    }

    /// Rebuilds a node from a checkpoint (warm restart). Volatile state —
    /// held token, the waiting queue, the dynamic-tree pointers — starts
    /// empty; drive the restarted node through `on_recover`, never
    /// `on_init`.
    pub fn from_checkpoint(cfg: ProtocolConfig, ck: &Checkpoint) -> Self {
        assert_eq!(ck.protocol, CKPT_NAIMI, "checkpoint from a different protocol");
        let mut node = NaimiNode::new(cfg);
        node.order = ck.restore_order(cfg.record_log);
        node.next_req_seq = ck.next_req_seq;
        node.last_visit = ck.visit_stamp();
        node.regen.witness(ck.generation);
        node.handoff.restore_watermark(ck.watermark);
        node
    }

    /// Total grants received.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Whether this node holds the (idle or in-service) token.
    pub fn holds_token(&self) -> bool {
        self.holding.is_some()
    }

    /// Requests queued locally.
    pub fn outstanding_len(&self) -> usize {
        self.outstanding.len()
    }

    /// Queued successors (`next` obligations) at this node.
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
    }

    /// The probable-owner pointer (`last`), for tests.
    pub fn probable_owner(&self) -> Option<NodeId> {
        self.last
    }

    /// Token messages sent by this node.
    pub fn token_sends(&self) -> u64 {
        self.token_sends
    }

    /// Request messages sent or forwarded by this node.
    pub fn request_sends(&self) -> u64 {
        self.request_sends
    }

    /// Token frames discarded as duplicates (watermark or double
    /// possession) instead of forking possession.
    pub fn duplicate_tokens_discarded(&self) -> u64 {
        self.handoff.duplicates_discarded
    }

    /// Token frames retransmitted after an ack timeout.
    pub fn token_retransmits(&self) -> u64 {
        self.handoff.retransmits
    }

    /// Whether this node has gracefully left the group.
    pub fn is_departed(&self) -> bool {
        self.departed
    }

    /// Current token generation this node has witnessed.
    pub fn generation(&self) -> u32 {
        self.regen.generation
    }

    fn witness_generation(&mut self, generation: u32, at: SimTime) {
        if self.regen.witness(generation) {
            if let Some(h) = &self.holding {
                if h.token.generation < generation {
                    let stale = h.token.generation;
                    self.holding = None;
                    self.events.push(TokenEvent::StaleTokenDiscarded {
                        generation: stale,
                        at,
                    });
                }
            }
        }
    }

    fn handle_token(&mut self, mut token: Box<TokenFrame>, ctx: &mut Context<'_, NaimiMsg>) {
        if token.generation < self.regen.generation {
            self.events.push(TokenEvent::StaleTokenDiscarded {
                generation: token.generation,
                at: ctx.now(),
            });
            return;
        }
        self.witness_generation(token.generation, ctx.now());
        if self.holding.is_some() {
            // Duplicate token of the same generation: a duplicated or
            // retransmitted frame got past the watermark. Discard, count.
            self.handoff.count_duplicate();
            return;
        }
        self.last_visit = token.on_possess(ctx.id(), false);
        self.order.apply_carried(&token, ctx.now(), &mut self.events);
        self.maybe_request_sync(ctx);
        // Drop queued successors whose requests were satisfied elsewhere
        // (a resend raced the original through a different path).
        if !self.waiting.is_empty() {
            let frame_ref = &token;
            self.waiting.retain(|w| !frame_ref.is_satisfied(&w.req));
        }
        for node in std::mem::take(&mut self.rejoining) {
            token.readmit(node);
        }
        for node in std::mem::take(&mut self.leaving) {
            token.exclude(node);
        }
        // Possession ends the current acquisition's retry cycle.
        self.attempt = 0;
        if self.departed {
            // Hand the token to someone still in the group.
            token.exclude(ctx.id());
            self.holding = Some(Holding {
                token,
                state: HoldState::Idle,
            });
            self.hand_off(ctx);
            return;
        }
        self.holding = Some(Holding {
            token,
            state: HoldState::Idle,
        });
        self.announce_generation(ctx);
        self.progress(ctx);
    }

    /// Generation fencing: while the token lists excluded nodes, the holder
    /// periodically tells them which generation is live, so a node isolated
    /// during a partition cannot keep serving a superseded token after heal.
    fn announce_generation(&mut self, ctx: &mut Context<'_, NaimiMsg>) {
        if !self.cfg.regeneration {
            return;
        }
        let Some(h) = &self.holding else { return };
        if h.token.excluded().is_empty() {
            return;
        }
        let generation = h.token.generation;
        let targets: Vec<NodeId> = h.token.excluded().to_vec();
        for node in targets {
            ctx.send(
                node,
                NaimiMsg::Regen(RegenMsg::GenAnnounce { generation }),
                MsgClass::Token,
            );
        }
        ctx.set_timer(ANNOUNCE_PERIOD, TIMER_ANNOUNCE);
    }

    /// Sends (or forwards) a Request and records one search hop for the
    /// span instrumentation — request hops are this protocol's analogue of
    /// the gimme walk, so hop counts land in the same histogram.
    fn send_request(
        &mut self,
        to: NodeId,
        origin: NodeId,
        req: RequestId,
        attempt: u32,
        hops: u32,
        ctx: &mut Context<'_, NaimiMsg>,
    ) {
        self.request_sends += 1;
        self.events.push(TokenEvent::SearchForwarded {
            req,
            bytes: REQUEST_WIRE_BYTES,
            at: ctx.now(),
        });
        ctx.send(
            to,
            NaimiMsg::Request {
                origin,
                req,
                attempt,
                hops,
            },
            MsgClass::Control,
        );
    }

    /// Stamps, records and (if acks are on) tracks an outgoing token frame.
    fn ship_token(
        &mut self,
        to: NodeId,
        mut frame: Box<TokenFrame>,
        grant_for: Option<RequestId>,
        ctx: &mut Context<'_, NaimiMsg>,
    ) {
        self.last_pass = Some(to);
        self.token_sends += 1;
        frame.bump_transfer();
        let generation = frame.generation;
        let transfer_seq = frame.transfer_seq();
        // Wire size per the codec: tag 1 + frame (+ RequestId 12 when
        // granting — the tag byte distinguishes lazy from granting sends).
        let bytes = 1 + frame.encoded_len() as u64 + if grant_for.is_some() { 12 } else { 0 };
        if let Some(req) = grant_for {
            self.events.push(TokenEvent::TokenDispatched {
                req,
                bytes,
                at: ctx.now(),
            });
        }
        let msg = NaimiMsg::Token { frame, grant_for };
        if to != ctx.id() {
            // Self-sends (degenerate one-node group) must pass the watermark.
            self.handoff.observe_send(generation, transfer_seq);
        }
        if self.cfg.token_acks {
            self.handoff.track(to, msg.clone(), generation, transfer_seq);
            ctx.set_timer(
                self.cfg.ack_backoff(0),
                retransmit_timer_kind(transfer_seq, 0),
            );
        }
        ctx.send(to, msg, MsgClass::Token);
    }

    /// Sends the held token to a queued successor if any, otherwise to the
    /// next live ring successor (used by departing holders).
    fn hand_off(&mut self, ctx: &mut Context<'_, NaimiMsg>) {
        while let Some(w) = self.waiting.front() {
            let stale = self
                .holding
                .as_ref()
                .is_none_or(|h| h.token.is_satisfied(&w.req));
            if stale {
                self.waiting.pop_front();
            } else {
                break;
            }
        }
        if let Some(w) = self.waiting.pop_front() {
            self.dispatch_token(w, ctx);
            return;
        }
        let Some(holding) = self.holding.take() else {
            return;
        };
        let succ = holding.token.next_live_successor(ctx.topology(), ctx.id());
        self.ship_token(succ, holding.token, None, ctx);
    }

    fn finish_service(&mut self, req: RequestId, payload: u64, ctx: &mut Context<'_, NaimiMsg>) {
        let holding = self.holding.as_mut().expect("finishing without token");
        let entry = holding.token.append(ctx.id(), payload);
        holding.token.mark_satisfied(req);
        // Like the lazy-token search protocol, possession gaps are
        // unbounded, so the carried window stays unbounded too (the
        // rotating protocols bound it by round counters instead).
        self.order.apply(&[entry], ctx.now(), &mut self.events);
        self.events.push(TokenEvent::Released { req, at: ctx.now() });
    }

    fn progress(&mut self, ctx: &mut Context<'_, NaimiMsg>) {
        loop {
            let Some(holding) = self.holding.as_mut() else {
                return;
            };
            match holding.state {
                HoldState::Serving { .. } => return,
                HoldState::Idle => {
                    if let Some(out) = self.outstanding.pop_front() {
                        self.grants += 1;
                        self.events.push(TokenEvent::Granted {
                            req: out.req,
                            at: ctx.now(),
                        });
                        if self.cfg.service_ticks == 0 {
                            self.finish_service(out.req, out.payload, ctx);
                            continue;
                        }
                        holding.state = HoldState::Serving {
                            req: out.req,
                            payload: out.payload,
                        };
                        ctx.set_timer(self.cfg.service_ticks, TIMER_SERVICE);
                        return;
                    }
                    // Serve the successor queue, skipping satisfied entries.
                    while let Some(w) = self.waiting.front() {
                        if holding.token.is_satisfied(&w.req) {
                            self.waiting.pop_front();
                            continue;
                        }
                        break;
                    }
                    if let Some(w) = self.waiting.pop_front() {
                        self.dispatch_token(w, ctx);
                    }
                    // Otherwise: lazy — keep holding silently.
                    return;
                }
            }
        }
    }

    fn dispatch_token(&mut self, w: Successor, ctx: &mut Context<'_, NaimiMsg>) {
        let Some(holding) = self.holding.take() else {
            return;
        };
        self.ship_token(w.origin, holding.token, Some(w.req), ctx);
        // Classic Naimi–Tréhel holds at most one `next`; extra entries only
        // accumulate under faults (resends that raced a heal). They chase
        // the token to its new holder — re-queued there or forwarded on —
        // with the attempt bumped so the duplicate filter lets them pass.
        for s in std::mem::take(&mut self.waiting) {
            self.send_request(w.origin, s.origin, s.req, s.attempt + 1, 1, ctx);
        }
    }

    fn handle_request(
        &mut self,
        origin: NodeId,
        req: RequestId,
        attempt: u32,
        hops: u32,
        ctx: &mut Context<'_, NaimiMsg>,
    ) {
        if origin == ctx.id() {
            return; // own request came back around a reversed pointer
        }
        // Duplicate filter: process each (origin, seq, attempt) at most
        // once, and never anything older than the newest processed.
        let mark = (req.seq, attempt);
        if self.seen.get(&origin).is_some_and(|&hw| mark <= hw) {
            return;
        }
        self.seen.insert(origin, mark);
        if let Some(h) = &self.holding {
            if h.token.is_satisfied(&req) {
                return; // stale resend of an already-served request
            }
        }
        if self.departed {
            // Relay toward the probable owner without adopting pointers: a
            // departed node is no longer part of the tree.
            if let Some(l) = self.last {
                if (hops as usize) < ctx.topology().len() * 2 {
                    self.send_request(l, origin, req, attempt, hops + 1, ctx);
                }
            } else if self.holding.as_ref().is_some_and(|h| matches!(h.state, HoldState::Idle)) {
                let holding = self.holding.take().expect("just checked");
                self.ship_token(origin, holding.token, Some(req), ctx);
            }
            return;
        }
        if self.holding.is_some() {
            // We are the root with the token: serve now or queue as
            // successor; either way the requester becomes the new probable
            // owner for future requests.
            self.waiting.push_back(Successor {
                origin,
                req,
                attempt,
            });
            self.last = Some(origin);
            self.progress(ctx);
            return;
        }
        match self.last {
            None => {
                // Tail of the chain (requesting, or an orphaned root after
                // a fault): the requester becomes our successor.
                self.waiting.push_back(Successor {
                    origin,
                    req,
                    attempt,
                });
                self.last = Some(origin);
            }
            Some(l) => {
                // Path reversal: forward along the chain, then point at the
                // requester. The TTL only matters under faults — reversal
                // itself cannot loop, because every node on the path is
                // redirected at the origin.
                if (hops as usize) < ctx.topology().len() * 2 {
                    self.send_request(l, origin, req, attempt, hops + 1, ctx);
                }
                self.last = Some(origin);
            }
        }
    }

    fn my_regen_view(&self) -> RegenReply {
        RegenReply {
            generation: self.regen.generation,
            stamp: self.last_visit,
            holder: self.holding.is_some(),
            passed_to: self.last_pass,
            applied_seq: self.order.applied_seq(),
        }
    }

    fn arm_regen_timer(&mut self, ctx: &mut Context<'_, NaimiMsg>) {
        if self.cfg.regeneration {
            let timeout = self.cfg.effective_regen_timeout(ctx.topology().len());
            ctx.set_timer(timeout, TIMER_REGEN);
        }
    }

    fn broadcast_inquiry(&mut self, ctx: &mut Context<'_, NaimiMsg>) {
        self.regen.start_inquiry();
        let me = ctx.id();
        let generation = self.regen.generation;
        for peer in ctx.topology().iter() {
            if peer != me {
                ctx.send(
                    peer,
                    NaimiMsg::Regen(RegenMsg::Inquiry { generation }),
                    MsgClass::Token,
                );
            }
        }
        ctx.set_timer(INQUIRY_WINDOW, TIMER_INQUIRY);
    }

    fn handle_regen(&mut self, from: NodeId, msg: RegenMsg, ctx: &mut Context<'_, NaimiMsg>) {
        match msg {
            RegenMsg::Inquiry { generation } => {
                self.witness_generation(generation, ctx.now());
                let view = self.my_regen_view();
                ctx.send(from, NaimiMsg::Regen(RegenMsg::Reply(view)), MsgClass::Token);
            }
            RegenMsg::Reply(reply) => {
                self.regen.record_reply(from, reply);
            }
            RegenMsg::Please {
                new_gen,
                known_seq,
                dead,
            } => {
                let window = self.cfg.effective_window(ctx.topology().len());
                if let Some(token) = self.regen.mint(new_gen, known_seq, window, dead) {
                    self.events.push(TokenEvent::Regenerated {
                        by: ctx.id(),
                        generation: new_gen,
                        at: ctx.now(),
                    });
                    self.handle_token(Box::new(token), ctx);
                }
            }
            RegenMsg::SyncRequest { from_seq } => {
                let entries = self
                    .order
                    .suffix_from(from_seq, crate::regen::SYNC_REPLY_MAX);
                if !entries.is_empty() {
                    ctx.send(
                        from,
                        NaimiMsg::Regen(RegenMsg::SyncReply { entries }),
                        MsgClass::Token,
                    );
                }
            }
            RegenMsg::SyncReply { entries } => {
                self.order.apply(&entries, ctx.now(), &mut self.events);
            }
            RegenMsg::Rejoin => {
                self.leaving.remove(&from);
                self.rejoining.insert(from);
                if let Some(h) = self.holding.as_mut() {
                    h.token.readmit(from);
                    self.rejoining.remove(&from);
                }
            }
            RegenMsg::Leave => {
                self.rejoining.remove(&from);
                self.leaving.insert(from);
                self.waiting.retain(|w| w.origin != from);
                if let Some(h) = self.holding.as_mut() {
                    h.token.exclude(from);
                    self.leaving.remove(&from);
                }
            }
            RegenMsg::TokenAck {
                generation,
                transfer_seq,
            } => {
                self.handoff.acked(generation, transfer_seq);
            }
            RegenMsg::GenAnnounce { generation } => {
                if generation > self.regen.generation {
                    // We sat out a regeneration (partition, crash): adopt
                    // the live generation and ask the holder to readmit us.
                    self.witness_generation(generation, ctx.now());
                    if !self.departed {
                        ctx.send(from, NaimiMsg::Regen(RegenMsg::Rejoin), MsgClass::Token);
                        // Our request chain may have died with the old
                        // token: aim a fresh resend straight at the holder.
                        self.resend_request(Some(from), ctx);
                        // Successors queued here point into the dead tree;
                        // forward their requests to the live holder too.
                        if self.holding.is_none() {
                            for s in std::mem::take(&mut self.waiting) {
                                self.send_request(from, s.origin, s.req, s.attempt + 1, 1, ctx);
                            }
                        }
                        // Idle nodes repair their probable-owner pointer so
                        // the next acquisition routes into the live tree.
                        if self.holding.is_none() && self.outstanding.is_empty() {
                            self.last = Some(from);
                        }
                    }
                    if !self.outstanding.is_empty() && self.holding.is_none() {
                        self.arm_regen_timer(ctx);
                    }
                } else if generation < self.regen.generation {
                    // The announcer is the stale one: fence it back.
                    ctx.send(
                        from,
                        NaimiMsg::Regen(RegenMsg::GenAnnounce {
                            generation: self.regen.generation,
                        }),
                        MsgClass::Token,
                    );
                }
            }
        }
    }

    /// Requests a state transfer from the cyclic successor when this node
    /// has fallen behind the token's carried window (detected via gap
    /// accounting). The reply fills the local prefix in order, so the
    /// prefix property is never at risk.
    fn maybe_request_sync(&mut self, ctx: &mut Context<'_, NaimiMsg>) {
        let gaps = self.order.gap_events();
        if gaps > self.synced_gaps {
            self.synced_gaps = gaps;
            let succ = ctx.topology().successor(ctx.id());
            ctx.send(
                succ,
                NaimiMsg::Regen(RegenMsg::SyncRequest {
                    from_seq: self.order.applied_seq() + 1,
                }),
                MsgClass::Token,
            );
        }
    }

    fn announce(&mut self, msg: RegenMsg, ctx: &mut Context<'_, NaimiMsg>) {
        let me = ctx.id();
        for peer in ctx.topology().iter() {
            if peer != me {
                ctx.send(peer, NaimiMsg::Regen(msg.clone()), MsgClass::Token);
            }
        }
    }

    /// Re-issues the front request — either straight at a known holder
    /// (inquiry hint) or toward the probable owner. Doubles as
    /// retransmission for requests lost on the cheap channel; the bumped
    /// attempt gets the resend past every duplicate filter on the path.
    fn resend_request(&mut self, holder_hint: Option<NodeId>, ctx: &mut Context<'_, NaimiMsg>) {
        if self.holding.is_some() {
            return;
        }
        let Some(front) = self.outstanding.front() else {
            return;
        };
        let req = front.req;
        let me = ctx.id();
        let to = holder_hint
            .or(self.last)
            .unwrap_or_else(|| ctx.topology().successor(me));
        if to == me {
            return;
        }
        self.attempt += 1;
        let attempt = self.attempt;
        self.send_request(to, me, req, attempt, 1, ctx);
    }
}

impl Node for NaimiNode {
    type Msg = NaimiMsg;
    type Ext = Want;

    fn on_init(&mut self, ctx: &mut Context<'_, NaimiMsg>) {
        let holder = self.cfg.effective_initial_holder(ctx.topology().len());
        if ctx.id().index() == holder as usize {
            let token = TokenFrame::new(self.cfg.effective_window(ctx.topology().len()));
            self.handle_token(Box::new(token), ctx);
        } else {
            // Everyone initially believes the configured holder owns the token.
            self.last = Some(NodeId::new(holder));
        }
    }

    fn on_message(&mut self, from: NodeId, msg: NaimiMsg, ctx: &mut Context<'_, NaimiMsg>) {
        match msg {
            NaimiMsg::Token { frame, .. } => {
                if self.cfg.token_acks {
                    // Ack every receipt, duplicates included: the sender may
                    // be retransmitting because our previous ack was lost.
                    ctx.send(
                        from,
                        NaimiMsg::Regen(RegenMsg::TokenAck {
                            generation: frame.generation,
                            transfer_seq: frame.transfer_seq(),
                        }),
                        MsgClass::Token,
                    );
                }
                if frame.generation >= self.regen.generation
                    && !self.handoff.accept(frame.generation, frame.transfer_seq())
                {
                    return; // duplicate or replayed frame, counted
                }
                self.handle_token(frame, ctx)
            }
            NaimiMsg::Request {
                origin,
                req,
                attempt,
                hops,
            } => self.handle_request(origin, req, attempt, hops, ctx),
            NaimiMsg::Regen(m) => self.handle_regen(from, m, ctx),
        }
    }

    fn on_external(&mut self, ev: Want, ctx: &mut Context<'_, NaimiMsg>) {
        match ev.kind {
            WantKind::Acquire => {}
            WantKind::Leave => {
                self.departed = true;
                self.outstanding.clear();
                self.announce(RegenMsg::Leave, ctx);
                if let Some(h) = self.holding.as_mut() {
                    h.token.exclude(ctx.id());
                    if matches!(h.state, HoldState::Idle) {
                        self.hand_off(ctx);
                    }
                }
                return;
            }
            WantKind::Rejoin => {
                self.departed = false;
                self.announce(RegenMsg::Rejoin, ctx);
                return;
            }
        }
        if self.departed {
            return;
        }
        self.next_req_seq += 1;
        let req = RequestId::new(ctx.id(), self.next_req_seq);
        self.events.push(TokenEvent::Requested { req, at: ctx.now() });
        self.outstanding.push_back(Outstanding {
            req,
            payload: ev.payload,
            made_at: ctx.now(),
        });
        if self.holding.is_some() {
            self.progress(ctx);
            return;
        }
        // One Request per acquisition: the token, once here, serves the
        // whole local queue, so only the transition 0 → 1 goes on the wire.
        if self.outstanding.len() == 1 {
            self.attempt = 0;
            if let Some(l) = self.last.take() {
                self.send_request(l, ctx.id(), req, 0, 1, ctx);
            }
            // `last` was already None: we are tail (a successor obligation
            // is or will be pointing at us) or an orphaned root — either
            // way the regen timer is the backstop.
            self.arm_regen_timer(ctx);
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, NaimiMsg>) {
        if let Some((tseq, attempt)) = decode_retransmit_timer(kind) {
            if self.handoff.timer_due(tseq, attempt) {
                if let Some((to, msg, tseq, next)) =
                    self.handoff.next_attempt(self.cfg.ack_max_retries)
                {
                    ctx.send(to, msg, MsgClass::Token);
                    ctx.set_timer(
                        self.cfg.ack_backoff(next),
                        retransmit_timer_kind(tseq, next),
                    );
                }
            }
            return;
        }
        match kind {
            TIMER_ANNOUNCE => self.announce_generation(ctx),
            TIMER_SERVICE => {
                let Some(holding) = self.holding.as_mut() else {
                    return;
                };
                if let HoldState::Serving { req, payload } = holding.state {
                    holding.state = HoldState::Idle;
                    self.finish_service(req, payload, ctx);
                    self.progress(ctx);
                }
            }
            TIMER_REGEN => {
                if self.holding.is_some() || !self.cfg.regeneration {
                    return;
                }
                let Some(front) = self.outstanding.front() else {
                    return;
                };
                let timeout = self.cfg.effective_regen_timeout(ctx.topology().len());
                let waited = ctx.now().since(front.made_at);
                if waited >= timeout {
                    if !self.regen.is_inquiring() {
                        self.broadcast_inquiry(ctx);
                    }
                } else {
                    ctx.set_timer(timeout - waited, TIMER_REGEN);
                }
            }
            TIMER_INQUIRY => {
                if !self.cfg.regeneration {
                    return;
                }
                let view = self.my_regen_view();
                match self.regen.conclude(ctx.topology(), ctx.id(), view) {
                    RegenVerdict::Wait { holder } => {
                        if !self.outstanding.is_empty() && self.holding.is_none() {
                            self.resend_request(holder, ctx);
                            self.arm_regen_timer(ctx);
                        }
                    }
                    RegenVerdict::Regenerate {
                        target,
                        new_gen,
                        known_seq,
                        dead,
                    } => {
                        if target == ctx.id() {
                            let window = self.cfg.effective_window(ctx.topology().len());
                            if let Some(token) = self.regen.mint(new_gen, known_seq, window, dead)
                            {
                                self.events.push(TokenEvent::Regenerated {
                                    by: ctx.id(),
                                    generation: new_gen,
                                    at: ctx.now(),
                                });
                                self.handle_token(Box::new(token), ctx);
                            }
                        } else {
                            ctx.send(
                                target,
                                NaimiMsg::Regen(RegenMsg::Please {
                                    new_gen,
                                    known_seq,
                                    dead,
                                }),
                                MsgClass::Token,
                            );
                            self.resend_request(Some(target), ctx);
                            self.arm_regen_timer(ctx);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, NaimiMsg>) {
        // A retransmit from before the crash could resurrect a stale token.
        self.handoff.clear_pending();
        if self.holding.take().is_some() {
            self.events.push(TokenEvent::StaleTokenDiscarded {
                generation: self.regen.generation,
                at: ctx.now(),
            });
        }
        // Queued successors died with the crash; their origins' own retry
        // cycles re-route them through the live tree.
        self.waiting.clear();
        if self.cfg.regeneration {
            let me = ctx.id();
            for peer in ctx.topology().iter() {
                if peer != me {
                    ctx.send(peer, NaimiMsg::Regen(RegenMsg::Rejoin), MsgClass::Token);
                }
            }
        }
        if !self.outstanding.is_empty() {
            self.arm_regen_timer(ctx);
        }
    }
}

impl EventSource for NaimiNode {
    fn take_events(&mut self) -> Vec<TokenEvent> {
        self.events.take()
    }

    fn take_events_into(&mut self, out: &mut Vec<TokenEvent>) {
        self.events.take_into(out);
    }

    fn has_events(&self) -> bool {
        !self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atp_net::{LinkFaults, World, WorldConfig};

    fn world(n: usize, cfg: ProtocolConfig) -> World<NaimiNode> {
        World::from_nodes(
            (0..n).map(|_| NaimiNode::new(cfg)).collect(),
            WorldConfig::default(),
        )
    }

    #[test]
    fn idle_system_is_quiescent() {
        let mut w = world(8, ProtocolConfig::default());
        let events = w.run_to_quiescence();
        // No demand: the lazy token never moves, no messages at all.
        assert_eq!(events, 0);
        assert!(w.node(NodeId::new(0)).holds_token());
        assert_eq!(w.stats().total_sent(), 0);
    }

    #[test]
    fn first_request_takes_one_hop_and_one_token_send() {
        let mut w = world(8, ProtocolConfig::default());
        w.schedule_external(SimTime::ZERO, NodeId::new(3), Want::new(1));
        w.run_to_quiescence();
        assert_eq!(w.node(NodeId::new(3)).grants(), 1);
        assert!(w.node(NodeId::new(3)).holds_token(), "token stays lazily");
        // Everyone's `last` starts at node 0: the request goes straight to
        // the holder, one control hop, one token hop.
        assert_eq!(w.stats().sent(MsgClass::Control), 1);
        assert_eq!(w.stats().sent(MsgClass::Token), 1);
    }

    #[test]
    fn path_reversal_redirects_probable_owner() {
        let mut w = world(8, ProtocolConfig::default());
        w.schedule_external(SimTime::ZERO, NodeId::new(3), Want::new(1));
        w.run_to_quiescence();
        // Node 0 relayed nothing (it held the token): it now points at 3.
        assert_eq!(w.node(NodeId::new(0)).probable_owner(), Some(NodeId::new(3)));
        // A later request from 5 routes 5 → 0 → 3: two control hops.
        let t = w.now();
        w.schedule_external(t + 1, NodeId::new(5), Want::new(2));
        w.run_to_quiescence();
        assert_eq!(w.node(NodeId::new(5)).grants(), 1);
        assert_eq!(w.stats().sent(MsgClass::Control), 3);
        // Node 0 was redirected at the newer requester.
        assert_eq!(w.node(NodeId::new(0)).probable_owner(), Some(NodeId::new(5)));
    }

    #[test]
    fn concurrent_requests_chain_through_successor_queue() {
        let mut w = world(8, ProtocolConfig::default());
        w.schedule_external(SimTime::ZERO, NodeId::new(2), Want::new(1));
        w.schedule_external(SimTime::ZERO, NodeId::new(5), Want::new(2));
        w.schedule_external(SimTime::ZERO, NodeId::new(7), Want::new(3));
        w.run_to_quiescence();
        assert_eq!(w.node(NodeId::new(2)).grants(), 1);
        assert_eq!(w.node(NodeId::new(5)).grants(), 1);
        assert_eq!(w.node(NodeId::new(7)).grants(), 1);
        // Exactly one token transfer per grant (plus none for the mint).
        let sends: u64 = (0..8).map(|i| w.node(NodeId::new(i)).token_sends()).sum();
        assert_eq!(sends, 3);
    }

    #[test]
    fn all_requests_served_under_load() {
        let mut w = world(10, ProtocolConfig::default());
        for t in 0..50 {
            w.schedule_external(
                SimTime::from_ticks(t * 2),
                NodeId::new((t % 10) as u32),
                Want::new(t),
            );
        }
        w.run_until(SimTime::from_ticks(2000));
        let grants: u64 = (0..10).map(|i| w.node(NodeId::new(i)).grants()).sum();
        assert_eq!(grants, 50);
        // Prefix property across all nodes.
        let nodes: Vec<_> = (0..10).map(|i| w.node(NodeId::new(i))).collect();
        for a in &nodes {
            for b in &nodes {
                assert!(a.order().is_prefix_of(b.order()) || b.order().is_prefix_of(a.order()));
            }
        }
    }

    #[test]
    fn duplicated_requests_do_not_corrupt_the_queue() {
        // Duplicate EVERY control frame: the per-origin filter must absorb
        // the copies, so each request is still served exactly once.
        let cfg = ProtocolConfig::default();
        let mut w: World<NaimiNode> = World::from_nodes(
            (0..6).map(|_| NaimiNode::new(cfg)).collect(),
            WorldConfig::default().link_faults(LinkFaults::new().duplication(1.0)),
        );
        for t in 0..12 {
            w.schedule_external(
                SimTime::from_ticks(t * 3),
                NodeId::new((t % 6) as u32),
                Want::new(t),
            );
        }
        w.run_until(SimTime::from_ticks(1500));
        let grants: u64 = (0..6).map(|i| w.node(NodeId::new(i)).grants()).sum();
        assert_eq!(grants, 12);
    }

    #[test]
    fn lost_request_stalls_but_safety_holds() {
        // Drop ALL control messages: requests can never find the token.
        // Safety must hold (nobody gets a phantom grant).
        let cfg = ProtocolConfig::default();
        let mut w: World<NaimiNode> = World::from_nodes(
            (0..4).map(|_| NaimiNode::new(cfg)).collect(),
            WorldConfig::default().link_faults(LinkFaults::control_drops(1.0)),
        );
        w.schedule_external(SimTime::ZERO, NodeId::new(2), Want::new(1));
        w.run_to_quiescence();
        assert_eq!(w.node(NodeId::new(2)).grants(), 0);
        assert!(w.node(NodeId::new(0)).holds_token());
    }

    #[test]
    fn holder_crash_recovers_via_regeneration() {
        let cfg = ProtocolConfig::default().with_regeneration(20);
        let mut w = world(4, cfg);
        // Token starts at node 0; crash it immediately.
        w.schedule_crash(SimTime::from_ticks(1), NodeId::new(0));
        w.schedule_external(SimTime::from_ticks(2), NodeId::new(2), Want::new(7));
        w.run_until(SimTime::from_ticks(500));
        assert_eq!(w.node(NodeId::new(2)).grants(), 1);
    }

    #[test]
    fn average_hops_stay_logarithmic_under_scattered_demand() {
        // 64 nodes, scattered single requests: the dynamic tree keeps the
        // average request path well under the O(N) a ring walk would need.
        let n = 64u64;
        let mut w = world(n as usize, ProtocolConfig::default());
        for t in 0..n {
            w.schedule_external(
                SimTime::from_ticks(t * 30),
                NodeId::new(((t * 17) % n) as u32),
                Want::new(t),
            );
        }
        w.run_until(SimTime::from_ticks(n * 30 + 500));
        let grants: u64 = (0..n)
            .map(|i| w.node(NodeId::new(i as u32)).grants())
            .sum();
        assert_eq!(grants, n);
        let hops = w.stats().sent(MsgClass::Control);
        // log2(64) = 6; the average must sit in the logarithmic envelope,
        // far below the ~32 average hops of a linear search.
        assert!(
            hops <= grants * 8,
            "average request path too long: {} hops over {} grants",
            hops,
            grants
        );
    }
}
