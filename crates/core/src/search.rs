//! System Search with the Lemma 5 cyclic restriction: lazy token + linear
//! delegated search.
//!
//! Unlike the rotating ring, the token here *stays where it was last used*.
//! A ready node emits a "gimme" message that walks the ring node-by-node
//! (rules 5 and 6 restricted to cyclic neighbours), leaving a trap `τ` at
//! every node it visits. When the gimme reaches the holder — or when the
//! token later lands on a trapped node — the token is sent *directly* to the
//! requester (rule 7).
//!
//! Responsiveness is O(N) (Lemma 5): the gimme needs at most `N` message
//! delays to find the holder, plus one direct token hop. Message cost per
//! request is O(distance to holder) cheap messages and exactly one token
//! message — the regime where lazy tokens beat perpetual rotation is bursty,
//! *localized* demand.

use std::collections::{BTreeSet, VecDeque};

use atp_net::{Context, MsgClass, Node, NodeId, SimTime};

use crate::checkpoint::{Checkpoint, CKPT_SEARCH};
use crate::config::ProtocolConfig;
use crate::event::{EventBuf, EventSource, TokenEvent, Want, WantKind};
use crate::handoff::{decode_retransmit_timer, retransmit_timer_kind, Handoff};
use crate::order::OrderState;
use crate::regen::{RegenEngine, RegenMsg, RegenReply, RegenVerdict};
use crate::token::TokenFrame;
use crate::types::{RequestId, VisitStamp};

/// Messages of the lazy-token search protocol.
#[derive(Debug, Clone)]
pub enum SearchMsg {
    /// The token, sent directly to a requester or minted at start. The
    /// frame is boxed so moving a `SearchMsg` through the event queue
    /// copies a pointer, not the frame.
    Token {
        /// The frame itself.
        frame: Box<TokenFrame>,
        /// The request this transfer satisfies (`None` for the initial
        /// placement / regeneration).
        grant_for: Option<RequestId>,
    },
    /// A "gimme" walking the ring (rule 5/6 with `y = x⁺¹`).
    Gimme {
        /// The ready node.
        origin: NodeId,
        /// Its request.
        req: RequestId,
        /// Hops taken so far (stops after a full cycle).
        hops: u32,
    },
    /// Failure-handling traffic (Section 5).
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

#[derive(Debug)]
struct Outstanding {
    req: RequestId,
    payload: u64,
    made_at: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct Trap {
    origin: NodeId,
    req: RequestId,
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

/// One node of the lazy-token linear-search protocol.
#[derive(Debug)]
pub struct SearchNode {
    cfg: ProtocolConfig,
    events: EventBuf,
    order: OrderState,
    outstanding: VecDeque<Outstanding>,
    traps: VecDeque<Trap>,
    next_req_seq: u64,
    last_visit: VisitStamp,
    last_pass: Option<NodeId>,
    holding: Option<Holding>,
    regen: RegenEngine,
    handoff: Handoff<SearchMsg>,
    rejoining: BTreeSet<NodeId>,
    leaving: BTreeSet<NodeId>,
    departed: bool,
    /// Gap count already covered by an outstanding sync request.
    synced_gaps: u64,
    grants: u64,
    token_sends: u64,
    gimme_sends: u64,
}

impl SearchNode {
    /// Creates a node with the given configuration.
    pub fn new(cfg: ProtocolConfig) -> Self {
        SearchNode {
            order: OrderState::new(cfg.record_log),
            cfg,
            events: EventBuf::default(),
            outstanding: VecDeque::new(),
            traps: VecDeque::new(),
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
            grants: 0,
            token_sends: 0,
            gimme_sends: 0,
        }
    }

    /// The node's applied history.
    pub fn order(&self) -> &OrderState {
        &self.order
    }

    /// Captures the node's durable state for crash–restart recovery.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint::capture(
            CKPT_SEARCH,
            &self.order,
            self.next_req_seq,
            self.last_visit,
            self.regen.generation,
            self.handoff.watermark(),
        )
    }

    /// Rebuilds a node from a checkpoint (warm restart). Volatile state —
    /// held token, traps, pending transfers, outstanding requests — starts
    /// empty; drive the restarted node through `on_recover`, never
    /// `on_init`.
    pub fn from_checkpoint(cfg: ProtocolConfig, ck: &Checkpoint) -> Self {
        assert_eq!(ck.protocol, CKPT_SEARCH, "checkpoint from a different protocol");
        let mut node = SearchNode::new(cfg);
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

    /// Traps currently set at this node.
    pub fn trap_count(&self) -> usize {
        self.traps.len()
    }

    /// Token messages sent by this node.
    pub fn token_sends(&self) -> u64 {
        self.token_sends
    }

    /// Gimme messages sent or forwarded by this node.
    pub fn gimme_sends(&self) -> u64 {
        self.gimme_sends
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

    fn handle_token(&mut self, mut token: Box<TokenFrame>, ctx: &mut Context<'_, SearchMsg>) {
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
        // Purge traps whose requests were satisfied elsewhere; without this
        // the lingering copies left along every gimme walk accumulate
        // forever under sustained load.
        if !self.traps.is_empty() {
            let frame_ref = &token;
            self.traps.retain(|t| !frame_ref.is_satisfied(&t.req));
        }
        for node in std::mem::take(&mut self.rejoining) {
            token.readmit(node);
        }
        for node in std::mem::take(&mut self.leaving) {
            token.exclude(node);
        }
        if self.departed {
            // Hand the lazy token to someone still in the group.
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
    fn announce_generation(&mut self, ctx: &mut Context<'_, SearchMsg>) {
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
                SearchMsg::Regen(RegenMsg::GenAnnounce { generation }),
                MsgClass::Token,
            );
        }
        ctx.set_timer(ANNOUNCE_PERIOD, TIMER_ANNOUNCE);
    }

    /// Records one search hop for `req` in the event stream (the span
    /// instrumentation behind per-request forward counts). `SearchMsg`
    /// has no binary codec, so the wire size is the analytic size of a
    /// Gimme: tag 1 + origin 4 + [`RequestId`] 12 + hops 4 = 21 bytes.
    fn note_search_hop(&mut self, req: RequestId, ctx: &Context<'_, SearchMsg>) {
        const GIMME_WIRE_BYTES: u64 = 21;
        self.events.push(TokenEvent::SearchForwarded {
            req,
            bytes: GIMME_WIRE_BYTES,
            at: ctx.now(),
        });
    }

    /// Stamps, records and (if acks are on) tracks an outgoing token frame.
    fn ship_token(
        &mut self,
        to: NodeId,
        mut frame: Box<TokenFrame>,
        grant_for: Option<RequestId>,
        ctx: &mut Context<'_, SearchMsg>,
    ) {
        self.last_pass = Some(to);
        self.token_sends += 1;
        frame.bump_transfer();
        let generation = frame.generation;
        let transfer_seq = frame.transfer_seq();
        // Analytic wire size: tag 1 + frame + grant_for option tag 1
        // (+ RequestId 12 when granting).
        let bytes = 2 + frame.encoded_len() as u64 + if grant_for.is_some() { 12 } else { 0 };
        if let Some(req) = grant_for {
            self.events.push(TokenEvent::TokenDispatched {
                req,
                bytes,
                at: ctx.now(),
            });
        }
        let msg = SearchMsg::Token { frame, grant_for };
        if to != ctx.id() {
            // Self-sends (degenerate one-node ring) must pass the watermark.
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

    /// Sends the held token to a trapped requester if any, otherwise to the
    /// next live successor (used by departing holders).
    fn hand_off(&mut self, ctx: &mut Context<'_, SearchMsg>) {
        while let Some(trap) = self.traps.front() {
            let stale = self
                .holding
                .as_ref()
                .is_none_or(|h| h.token.is_satisfied(&trap.req));
            if stale {
                self.traps.pop_front();
            } else {
                break;
            }
        }
        if let Some(trap) = self.traps.pop_front() {
            self.dispatch_token(trap, ctx);
            return;
        }
        let Some(holding) = self.holding.take() else {
            return;
        };
        let succ = holding.token.next_live_successor(ctx.topology(), ctx.id());
        self.ship_token(succ, holding.token, None, ctx);
    }

    fn finish_service(&mut self, req: RequestId, payload: u64, ctx: &mut Context<'_, SearchMsg>) {
        let holding = self.holding.as_mut().expect("finishing without token");
        let entry = holding.token.append(ctx.id(), payload);
        holding.token.mark_satisfied(req);
        // The lazy token has no rounds to GC by, and a node may go
        // arbitrarily long between possessions — so, exactly as in the
        // paper's Figure 6 where the token message carries the complete
        // history H, the carried window is left unbounded here. (The
        // rotating protocols bound it by round counters instead.)
        self.order.apply(&[entry], ctx.now(), &mut self.events);
        self.events.push(TokenEvent::Released { req, at: ctx.now() });
    }

    fn progress(&mut self, ctx: &mut Context<'_, SearchMsg>) {
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
                    // Serve trapped requesters, skipping satisfied traps.
                    while let Some(trap) = self.traps.front() {
                        if holding.token.is_satisfied(&trap.req) {
                            self.traps.pop_front();
                            continue;
                        }
                        break;
                    }
                    if let Some(trap) = self.traps.pop_front() {
                        self.dispatch_token(trap, ctx);
                    }
                    // Otherwise: lazy — keep holding silently.
                    return;
                }
            }
        }
    }

    fn dispatch_token(&mut self, trap: Trap, ctx: &mut Context<'_, SearchMsg>) {
        let Some(holding) = self.holding.take() else {
            return;
        };
        self.ship_token(trap.origin, holding.token, Some(trap.req), ctx);
        // Any other trapped obligations chase the token to its new holder.
        // A trap only catches a token that *lands* here, and the lazy token
        // never returns on its own — so a second gimme trapped while this
        // node was serving would otherwise strand forever. (Stall found by
        // the DST explorer: two gimmes reach a serving holder back-to-back;
        // only the front trap was granted.)
        for t in std::mem::take(&mut self.traps) {
            self.gimme_sends += 1;
            self.note_search_hop(t.req, ctx);
            ctx.send(
                trap.origin,
                SearchMsg::Gimme {
                    origin: t.origin,
                    req: t.req,
                    hops: 1,
                },
                MsgClass::Control,
            );
        }
    }

    fn handle_gimme(
        &mut self,
        origin: NodeId,
        req: RequestId,
        hops: u32,
        ctx: &mut Context<'_, SearchMsg>,
    ) {
        if origin == ctx.id() {
            return; // own gimme came full circle
        }
        if let Some(h) = &self.holding {
            if h.token.is_satisfied(&req) {
                return;
            }
        }
        if self.departed {
            // Relay without trapping.
            let next_hops = hops + 1;
            if (next_hops as usize) < ctx.topology().len() {
                let next = ctx.topology().successor(ctx.id());
                self.gimme_sends += 1;
                self.note_search_hop(req, ctx);
                ctx.send(
                    next,
                    SearchMsg::Gimme {
                        origin,
                        req,
                        hops: next_hops,
                    },
                    MsgClass::Control,
                );
            }
            return;
        }
        if !self.traps.iter().any(|t| t.req == req) {
            self.traps.push_back(Trap { origin, req });
        }
        if self.holding.is_some() {
            self.progress(ctx);
            return;
        }
        // Forward to the cyclic neighbour (rule 6 restricted).
        let next_hops = hops + 1;
        if (next_hops as usize) < ctx.topology().len() {
            let next = ctx.topology().successor(ctx.id());
            self.gimme_sends += 1;
            self.note_search_hop(req, ctx);
            ctx.send(
                next,
                SearchMsg::Gimme {
                    origin,
                    req,
                    hops: next_hops,
                },
                MsgClass::Control,
            );
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

    fn arm_regen_timer(&mut self, ctx: &mut Context<'_, SearchMsg>) {
        if self.cfg.regeneration {
            let timeout = self.cfg.effective_regen_timeout(ctx.topology().len());
            ctx.set_timer(timeout, TIMER_REGEN);
        }
    }

    fn broadcast_inquiry(&mut self, ctx: &mut Context<'_, SearchMsg>) {
        self.regen.start_inquiry();
        let me = ctx.id();
        let generation = self.regen.generation;
        for peer in ctx.topology().iter() {
            if peer != me {
                ctx.send(
                    peer,
                    SearchMsg::Regen(RegenMsg::Inquiry { generation }),
                    MsgClass::Token,
                );
            }
        }
        ctx.set_timer(INQUIRY_WINDOW, TIMER_INQUIRY);
    }

    fn handle_regen(&mut self, from: NodeId, msg: RegenMsg, ctx: &mut Context<'_, SearchMsg>) {
        match msg {
            RegenMsg::Inquiry { generation } => {
                self.witness_generation(generation, ctx.now());
                let view = self.my_regen_view();
                ctx.send(from, SearchMsg::Regen(RegenMsg::Reply(view)), MsgClass::Token);
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
                        SearchMsg::Regen(RegenMsg::SyncReply { entries }),
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
                self.traps.retain(|t| t.origin != from);
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
                    // We sat out a regeneration (partition, crash): adopt the
                    // live generation and ask the holder to readmit us.
                    self.witness_generation(generation, ctx.now());
                    if !self.departed {
                        ctx.send(from, SearchMsg::Regen(RegenMsg::Rejoin), MsgClass::Token);
                        // Our gimme walk may have died with the old token.
                        self.resend_gimme(Some(from), ctx);
                    }
                    if !self.outstanding.is_empty() && self.holding.is_none() {
                        self.arm_regen_timer(ctx);
                    }
                } else if generation < self.regen.generation {
                    // The announcer is the stale one: fence it back.
                    ctx.send(
                        from,
                        SearchMsg::Regen(RegenMsg::GenAnnounce {
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
    fn maybe_request_sync(&mut self, ctx: &mut Context<'_, SearchMsg>) {
        let gaps = self.order.gap_events();
        if gaps > self.synced_gaps {
            self.synced_gaps = gaps;
            let succ = ctx.topology().successor(ctx.id());
            ctx.send(
                succ,
                SearchMsg::Regen(RegenMsg::SyncRequest {
                    from_seq: self.order.applied_seq() + 1,
                }),
                MsgClass::Token,
            );
        }
    }

    fn announce(&mut self, msg: RegenMsg, ctx: &mut Context<'_, SearchMsg>) {
        let me = ctx.id();
        for peer in ctx.topology().iter() {
            if peer != me {
                ctx.send(peer, SearchMsg::Regen(msg.clone()), MsgClass::Token);
            }
        }
    }

    /// Re-issues the front request's gimme — either straight at a known
    /// holder (inquiry hint) or as a fresh walk. Doubles as retransmission
    /// for gimmes lost on the cheap channel.
    fn resend_gimme(&mut self, holder_hint: Option<NodeId>, ctx: &mut Context<'_, SearchMsg>) {
        if self.holding.is_some() {
            return;
        }
        let Some(front) = self.outstanding.front() else {
            return;
        };
        let req = front.req;
        let me = ctx.id();
        let to = holder_hint.unwrap_or_else(|| ctx.topology().successor(me));
        self.gimme_sends += 1;
        self.note_search_hop(req, ctx);
        ctx.send(
            to,
            SearchMsg::Gimme {
                origin: me,
                req,
                hops: 1,
            },
            MsgClass::Control,
        );
    }
}

impl Node for SearchNode {
    type Msg = SearchMsg;
    type Ext = Want;

    fn on_init(&mut self, ctx: &mut Context<'_, SearchMsg>) {
        let holder = self.cfg.effective_initial_holder(ctx.topology().len());
        if ctx.id().index() == holder as usize {
            let token = TokenFrame::new(self.cfg.effective_window(ctx.topology().len()));
            self.handle_token(Box::new(token), ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: SearchMsg, ctx: &mut Context<'_, SearchMsg>) {
        match msg {
            SearchMsg::Token { frame, .. } => {
                if self.cfg.token_acks {
                    // Ack every receipt, duplicates included: the sender may
                    // be retransmitting because our previous ack was lost.
                    ctx.send(
                        from,
                        SearchMsg::Regen(RegenMsg::TokenAck {
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
            SearchMsg::Gimme { origin, req, hops } => self.handle_gimme(origin, req, hops, ctx),
            SearchMsg::Regen(m) => self.handle_regen(from, m, ctx),
        }
    }

    fn on_external(&mut self, ev: Want, ctx: &mut Context<'_, SearchMsg>) {
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
        if !self.cfg.single_outstanding || self.outstanding.len() == 1 {
            let next = ctx.topology().successor(ctx.id());
            self.gimme_sends += 1;
            self.note_search_hop(req, ctx);
            ctx.send(
                next,
                SearchMsg::Gimme {
                    origin: ctx.id(),
                    req,
                    hops: 1,
                },
                MsgClass::Control,
            );
        }
        if self.outstanding.len() == 1 {
            self.arm_regen_timer(ctx);
        }
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, SearchMsg>) {
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
                            self.resend_gimme(holder, ctx);
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
                                SearchMsg::Regen(RegenMsg::Please {
                                    new_gen,
                                    known_seq,
                                    dead,
                                }),
                                MsgClass::Token,
                            );
                            self.resend_gimme(Some(target), ctx);
                            self.arm_regen_timer(ctx);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, SearchMsg>) {
        // A retransmit from before the crash could resurrect a stale token.
        self.handoff.clear_pending();
        if self.holding.take().is_some() {
            self.events.push(TokenEvent::StaleTokenDiscarded {
                generation: self.regen.generation,
                at: ctx.now(),
            });
        }
        self.traps.clear();
        if self.cfg.regeneration {
            let me = ctx.id();
            for peer in ctx.topology().iter() {
                if peer != me {
                    ctx.send(peer, SearchMsg::Regen(RegenMsg::Rejoin), MsgClass::Token);
                }
            }
        }
        if !self.outstanding.is_empty() {
            self.arm_regen_timer(ctx);
        }
    }
}

impl EventSource for SearchNode {
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

    fn world(n: usize, cfg: ProtocolConfig) -> World<SearchNode> {
        World::from_nodes(
            (0..n).map(|_| SearchNode::new(cfg)).collect(),
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
    fn gimme_walks_to_holder_and_token_returns_directly() {
        let mut w = world(8, ProtocolConfig::default());
        w.schedule_external(SimTime::ZERO, NodeId::new(3), Want::new(1));
        w.run_to_quiescence();
        assert_eq!(w.node(NodeId::new(3)).grants(), 1);
        assert!(w.node(NodeId::new(3)).holds_token(), "token stays lazily");
        // Gimme walks 3 → 4 → … → 0? No: walks clockwise 4,5,6,7,0 — the
        // holder is node 0, at clockwise distance 5.
        assert_eq!(w.stats().sent(MsgClass::Control), 5);
        assert_eq!(w.stats().sent(MsgClass::Token), 1);
    }

    #[test]
    fn repeated_bursts_from_same_neighbourhood_are_cheap() {
        let mut w = world(64, ProtocolConfig::default());
        w.schedule_external(SimTime::ZERO, NodeId::new(10), Want::new(1));
        w.run_to_quiescence();
        let after_first = w.stats().sent(MsgClass::Control);
        let t = w.now();
        w.schedule_external(t + 1, NodeId::new(11), Want::new(2));
        w.run_to_quiescence();
        let second_cost = w.stats().sent(MsgClass::Control) - after_first;
        // Token sits at node 10; node 11's gimme walks 64-1 = … no: 11 → 12
        // → … wraps to 10: distance 63. That's the pathology of clockwise
        // walk; the neighbour *behind* is cheap:
        let t = w.now();
        w.schedule_external(t + 1, NodeId::new(10), Want::new(3));
        w.run_to_quiescence();
        assert_eq!(w.node(NodeId::new(10)).grants(), 2);
        assert!(second_cost >= 1);
    }

    #[test]
    fn traps_catch_token_on_later_use() {
        let mut w = world(8, ProtocolConfig::default());
        // Token at 0. Two requesters: node 2 and node 5. Node 2's gimme
        // reaches 0 first (walks 3,4,…,0? no — clockwise from 2: 3..7,0 is
        // distance 6; node 5's walk is 6,7,0: distance 3).
        w.schedule_external(SimTime::ZERO, NodeId::new(2), Want::new(1));
        w.schedule_external(SimTime::ZERO, NodeId::new(5), Want::new(2));
        w.run_to_quiescence();
        assert_eq!(w.node(NodeId::new(2)).grants(), 1);
        assert_eq!(w.node(NodeId::new(5)).grants(), 1);
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
    fn single_outstanding_throttles_gimmes() {
        let cfg = ProtocolConfig::default().with_single_outstanding(true);
        let mut w = world(16, cfg);
        // Node 8 wants 5 times in a burst; only one gimme walk should start.
        for k in 0..5 {
            w.schedule_external(SimTime::from_ticks(k), NodeId::new(8), Want::new(k));
        }
        w.run_to_quiescence();
        assert_eq!(w.node(NodeId::new(8)).grants(), 5);
        // One walk of ≤ 8 hops (8 → … → 0), not five.
        assert!(w.stats().sent(MsgClass::Control) <= 8);
    }

    #[test]
    fn lost_gimme_stalls_but_regeneration_is_not_needed() {
        // Drop ALL control messages: requests can never find the token.
        // Safety must hold (nobody gets a phantom grant).
        let cfg = ProtocolConfig::default();
        let mut w: World<SearchNode> = World::from_nodes(
            (0..4).map(|_| SearchNode::new(cfg)).collect(),
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
}
