//! The plain rotating-token ring: System Message-Passing with rule 3′.
//!
//! The token perpetually circulates `x → x⁺¹`. A node appends its datum (or
//! enters its critical section) only while holding the token, giving O(N)
//! responsiveness (Lemma 4): once some node is ready, at most `N` message
//! delays pass before the token reaches *a* ready node.
//!
//! This is the baseline the paper's simulation study (Figures 9 and 10)
//! compares System BinarySearch against.

use std::collections::{BTreeSet, VecDeque};

use atp_net::{Context, MsgClass, Node, NodeId, SimTime};

use crate::checkpoint::{Checkpoint, CKPT_RING};
use crate::config::ProtocolConfig;
use crate::event::{EventBuf, EventSource, TokenEvent, Want, WantKind};
use crate::handoff::{decode_retransmit_timer, retransmit_timer_kind, Handoff};
use crate::order::OrderState;
use crate::regen::{RegenEngine, RegenMsg, RegenReply, RegenVerdict};
use crate::token::TokenFrame;
use crate::types::{RequestId, VisitStamp};

/// Messages of the ring protocol.
#[derive(Debug, Clone)]
pub enum RingMsg {
    /// The circulating token (always `MsgClass::Token`). Boxed so moving a
    /// `RingMsg` through the event queue copies a pointer, not the frame.
    Token(Box<TokenFrame>),
    /// Failure-handling traffic (Section 5).
    Regen(RegenMsg),
}

const TIMER_SERVICE: u64 = 1;
const TIMER_PASS: u64 = 2;
const TIMER_REGEN: u64 = 3;
const TIMER_INQUIRY: u64 = 4;
// Timer kind 5 (low byte) is the retransmit timer, see `crate::handoff`.
const TIMER_ANNOUNCE: u64 = 6;

/// Re-announce period for generation fencing while excluded nodes remain.
const ANNOUNCE_PERIOD: u64 = 16;

/// Reply-collection window for an inquiry, in ticks (2 round trips at unit
/// delay, with slack for jittery latency models).
const INQUIRY_WINDOW: u64 = 8;

#[derive(Debug)]
struct Outstanding {
    req: RequestId,
    payload: u64,
    made_at: SimTime,
}

#[derive(Debug)]
enum HoldState {
    /// Holding, free to serve or pass.
    Idle,
    /// Pass timer armed (adaptive token speed).
    PassArmed,
    /// Mid-service: timer will fire after the critical section.
    Serving { req: RequestId, payload: u64 },
}

#[derive(Debug)]
struct Holding {
    token: Box<TokenFrame>,
    state: HoldState,
}

/// One node of the rotating-token ring protocol.
///
/// Construct with [`RingNode::new`] and run inside an
/// [`atp_net::World`] (or any transport via [`atp_net::Harness`]). Node 0
/// mints the initial token in `on_init`, matching the paper's initial state
/// where some distinguished node starts with `T = x`.
#[derive(Debug)]
pub struct RingNode {
    cfg: ProtocolConfig,
    events: EventBuf,
    order: OrderState,
    outstanding: VecDeque<Outstanding>,
    next_req_seq: u64,
    last_visit: VisitStamp,
    last_pass: Option<NodeId>,
    holding: Option<Holding>,
    regen: RegenEngine,
    handoff: Handoff<RingMsg>,
    rejoining: BTreeSet<NodeId>,
    leaving: BTreeSet<NodeId>,
    departed: bool,
    /// Gap count already covered by an outstanding sync request.
    synced_gaps: u64,
    grants: u64,
    token_sends: u64,
}

impl RingNode {
    /// Creates a node with the given configuration.
    pub fn new(cfg: ProtocolConfig) -> Self {
        RingNode {
            order: OrderState::new(cfg.record_log),
            cfg,
            events: EventBuf::default(),
            outstanding: VecDeque::new(),
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
        }
    }

    /// Whether this node has gracefully left the group.
    pub fn is_departed(&self) -> bool {
        self.departed
    }

    /// The node's applied history (local prefix of `H`).
    pub fn order(&self) -> &OrderState {
        &self.order
    }

    /// Captures the node's durable state for crash–restart recovery.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint::capture(
            CKPT_RING,
            &self.order,
            self.next_req_seq,
            self.last_visit,
            self.regen.generation,
            self.handoff.watermark(),
        )
    }

    /// Rebuilds a node from a checkpoint (warm restart). Volatile state —
    /// held token, pending transfers, outstanding requests — starts empty;
    /// drive the restarted node through `on_recover`, never `on_init`.
    pub fn from_checkpoint(cfg: ProtocolConfig, ck: &Checkpoint) -> Self {
        assert_eq!(ck.protocol, CKPT_RING, "checkpoint from a different protocol");
        let mut node = RingNode::new(cfg);
        node.order = ck.restore_order(cfg.record_log);
        node.next_req_seq = ck.next_req_seq;
        node.last_visit = ck.visit_stamp();
        node.regen.witness(ck.generation);
        node.handoff.restore_watermark(ck.watermark);
        node
    }

    /// Total grants this node has received.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Requests currently queued locally.
    pub fn outstanding_len(&self) -> usize {
        self.outstanding.len()
    }

    /// Whether this node currently holds the token.
    pub fn holds_token(&self) -> bool {
        self.holding.is_some()
    }

    /// The node's last visit stamp.
    pub fn last_visit(&self) -> VisitStamp {
        self.last_visit
    }

    /// Token-bearing messages this node has sent.
    pub fn token_sends(&self) -> u64 {
        self.token_sends
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

    /// Current token generation this node believes in.
    pub fn generation(&self) -> u32 {
        self.regen.generation
    }

    fn witness_generation(&mut self, generation: u32, at: SimTime) {
        if self.regen.witness(generation) {
            // A held token from a superseded generation is dead weight.
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

    fn handle_token(&mut self, mut token: Box<TokenFrame>, ctx: &mut Context<'_, RingMsg>) {
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
        self.last_visit = token.on_possess(ctx.id(), true);
        self.order.apply_carried(&token, ctx.now(), &mut self.events);
        self.maybe_request_sync(ctx);
        for node in std::mem::take(&mut self.rejoining) {
            token.readmit(node);
        }
        for node in std::mem::take(&mut self.leaving) {
            token.exclude(node);
        }
        if self.departed {
            // Raced departure: exclude ourselves and pass straight on.
            token.exclude(ctx.id());
            self.holding = Some(Holding {
                token,
                state: HoldState::Idle,
            });
            self.send_token(ctx);
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
    fn announce_generation(&mut self, ctx: &mut Context<'_, RingMsg>) {
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
                RingMsg::Regen(RegenMsg::GenAnnounce { generation }),
                MsgClass::Token,
            );
        }
        ctx.set_timer(ANNOUNCE_PERIOD, TIMER_ANNOUNCE);
    }

    fn finish_service(&mut self, req: RequestId, payload: u64, ctx: &mut Context<'_, RingMsg>) {
        let holding = self.holding.as_mut().expect("finishing without token");
        let entry = holding.token.append(ctx.id(), payload);
        holding.token.mark_satisfied(req);
        self.order.apply(&[entry], ctx.now(), &mut self.events);
        self.events.push(TokenEvent::Released {
            req,
            at: ctx.now(),
        });
    }

    /// Serve local requests, then pass the token onward.
    fn progress(&mut self, ctx: &mut Context<'_, RingMsg>) {
        loop {
            let Some(holding) = self.holding.as_mut() else {
                return;
            };
            match holding.state {
                HoldState::Serving { .. } => return,
                HoldState::Idle | HoldState::PassArmed => {
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
                    // Nothing to serve: pass (possibly after an idle hold).
                    let delay = self.cfg.idle_delay(holding.token.idle_rounds());
                    if delay == 0 {
                        self.send_token(ctx);
                    } else if !matches!(holding.state, HoldState::PassArmed) {
                        holding.state = HoldState::PassArmed;
                        ctx.set_timer(delay, TIMER_PASS);
                    }
                    return;
                }
            }
        }
    }

    fn send_token(&mut self, ctx: &mut Context<'_, RingMsg>) {
        let Some(mut holding) = self.holding.take() else {
            return;
        };
        let succ = holding.token.next_live_successor(ctx.topology(), ctx.id());
        self.last_pass = Some(succ);
        self.token_sends += 1;
        holding.token.bump_transfer();
        let generation = holding.token.generation;
        let transfer_seq = holding.token.transfer_seq();
        let msg = RingMsg::Token(holding.token);
        if succ != ctx.id() {
            // Self-sends (degenerate one-node ring) must pass the watermark.
            self.handoff.observe_send(generation, transfer_seq);
        }
        if self.cfg.token_acks {
            self.handoff.track(succ, msg.clone(), generation, transfer_seq);
            ctx.set_timer(
                self.cfg.ack_backoff(0),
                retransmit_timer_kind(transfer_seq, 0),
            );
        }
        ctx.send(succ, msg, MsgClass::Token);
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

    fn arm_regen_timer(&mut self, ctx: &mut Context<'_, RingMsg>) {
        if self.cfg.regeneration {
            let timeout = self.cfg.effective_regen_timeout(ctx.topology().len());
            ctx.set_timer(timeout, TIMER_REGEN);
        }
    }

    fn broadcast_inquiry(&mut self, ctx: &mut Context<'_, RingMsg>) {
        self.regen.start_inquiry();
        let me = ctx.id();
        let generation = self.regen.generation;
        for peer in ctx.topology().iter() {
            if peer != me {
                ctx.send(
                    peer,
                    RingMsg::Regen(RegenMsg::Inquiry { generation }),
                    MsgClass::Token,
                );
            }
        }
        ctx.set_timer(INQUIRY_WINDOW, TIMER_INQUIRY);
    }

    fn handle_regen(&mut self, from: NodeId, msg: RegenMsg, ctx: &mut Context<'_, RingMsg>) {
        match msg {
            RegenMsg::Inquiry { generation } => {
                self.witness_generation(generation, ctx.now());
                let view = self.my_regen_view();
                ctx.send(from, RingMsg::Regen(RegenMsg::Reply(view)), MsgClass::Token);
            }
            RegenMsg::Reply(reply) => {
                let before = self.regen.generation;
                self.regen.record_reply(from, reply);
                if self.regen.generation > before {
                    self.witness_generation(self.regen.generation, ctx.now());
                }
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
                    self.witness_generation(new_gen, ctx.now());
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
                        RingMsg::Regen(RegenMsg::SyncReply { entries }),
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
                        ctx.send(from, RingMsg::Regen(RegenMsg::Rejoin), MsgClass::Token);
                    }
                    if !self.outstanding.is_empty() && self.holding.is_none() {
                        self.arm_regen_timer(ctx);
                    }
                } else if generation < self.regen.generation {
                    // The announcer is the stale one: fence it back.
                    ctx.send(
                        from,
                        RingMsg::Regen(RegenMsg::GenAnnounce {
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
    fn maybe_request_sync(&mut self, ctx: &mut Context<'_, RingMsg>) {
        let gaps = self.order.gap_events();
        if gaps > self.synced_gaps {
            self.synced_gaps = gaps;
            let succ = ctx.topology().successor(ctx.id());
            ctx.send(
                succ,
                RingMsg::Regen(RegenMsg::SyncRequest {
                    from_seq: self.order.applied_seq() + 1,
                }),
                MsgClass::Token,
            );
        }
    }

    fn announce(&mut self, msg: RegenMsg, ctx: &mut Context<'_, RingMsg>) {
        let me = ctx.id();
        for peer in ctx.topology().iter() {
            if peer != me {
                ctx.send(peer, RingMsg::Regen(msg.clone()), MsgClass::Token);
            }
        }
    }
}

impl Node for RingNode {
    type Msg = RingMsg;
    type Ext = Want;

    fn on_init(&mut self, ctx: &mut Context<'_, RingMsg>) {
        let holder = self.cfg.effective_initial_holder(ctx.topology().len());
        if ctx.id().index() == holder as usize {
            let token = Box::new(TokenFrame::new(self.cfg.effective_window(ctx.topology().len())));
            self.handle_token(token, ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: RingMsg, ctx: &mut Context<'_, RingMsg>) {
        match msg {
            RingMsg::Token(frame) => {
                if self.cfg.token_acks {
                    // Ack every receipt, duplicates included: the sender may
                    // be retransmitting because our previous ack was lost.
                    ctx.send(
                        from,
                        RingMsg::Regen(RegenMsg::TokenAck {
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
            RingMsg::Regen(m) => self.handle_regen(from, m, ctx),
        }
    }

    fn on_external(&mut self, ev: Want, ctx: &mut Context<'_, RingMsg>) {
        match ev.kind {
            WantKind::Acquire => {}
            WantKind::Leave => {
                self.departed = true;
                self.outstanding.clear();
                self.announce(RegenMsg::Leave, ctx);
                if let Some(h) = self.holding.as_mut() {
                    h.token.exclude(ctx.id());
                    if matches!(h.state, HoldState::Idle | HoldState::PassArmed) {
                        h.state = HoldState::Idle;
                        self.send_token(ctx);
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
            return; // departed nodes do not request
        }
        self.next_req_seq += 1;
        let req = RequestId::new(ctx.id(), self.next_req_seq);
        self.events.push(TokenEvent::Requested {
            req,
            at: ctx.now(),
        });
        self.outstanding.push_back(Outstanding {
            req,
            payload: ev.payload,
            made_at: ctx.now(),
        });
        if self.outstanding.len() == 1 && self.holding.is_none() {
            self.arm_regen_timer(ctx);
        }
        self.progress(ctx);
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, RingMsg>) {
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
            TIMER_PASS => {
                if let Some(h) = self.holding.as_mut() {
                    if matches!(h.state, HoldState::PassArmed) {
                        h.state = HoldState::Idle;
                        if self.outstanding.is_empty() {
                            self.send_token(ctx);
                        } else {
                            self.progress(ctx);
                        }
                    }
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
                    RegenVerdict::Wait { .. } => {
                        if !self.outstanding.is_empty() && self.holding.is_none() {
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
                                RingMsg::Regen(RegenMsg::Please {
                                    new_gen,
                                    known_seq,
                                    dead,
                                }),
                                MsgClass::Token,
                            );
                            self.arm_regen_timer(ctx);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, RingMsg>) {
        // A retransmit from before the crash could resurrect a stale token.
        self.handoff.clear_pending();
        // Conservative: never resurrect a possibly superseded token.
        if self.holding.take().is_some() {
            self.events.push(TokenEvent::StaleTokenDiscarded {
                generation: self.regen.generation,
                at: ctx.now(),
            });
        }
        if self.cfg.regeneration {
            // Announce recovery so the next token holder readmits us.
            let me = ctx.id();
            for peer in ctx.topology().iter() {
                if peer != me {
                    ctx.send(peer, RingMsg::Regen(RegenMsg::Rejoin), MsgClass::Token);
                }
            }
        }
        if !self.outstanding.is_empty() {
            self.arm_regen_timer(ctx);
        }
    }
}

impl EventSource for RingNode {
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
    use atp_net::{World, WorldConfig};

    fn world(n: usize, cfg: ProtocolConfig) -> World<RingNode> {
        World::from_nodes(
            (0..n).map(|_| RingNode::new(cfg)).collect(),
            WorldConfig::default(),
        )
    }

    fn drain_all(w: &mut World<RingNode>) -> Vec<TokenEvent> {
        let mut out = Vec::new();
        for i in 0..w.len() {
            out.extend(w.node_mut(NodeId::new(i as u32)).take_events());
        }
        out.sort_by_key(|e| e.at());
        out
    }

    #[test]
    fn token_circulates_forever() {
        let mut w = world(4, ProtocolConfig::default());
        w.run_until(SimTime::from_ticks(100));
        // 100 ticks at unit delay: ~100 token hops.
        let sends: u64 = (0..4)
            .map(|i| w.node(NodeId::new(i)).token_sends())
            .sum();
        assert!((95..=101).contains(&sends), "sends = {sends}");
    }

    #[test]
    fn single_request_is_granted_within_n_delays() {
        let mut w = world(8, ProtocolConfig::default());
        w.schedule_external(SimTime::from_ticks(10), NodeId::new(5), Want::new(42));
        w.run_until(SimTime::from_ticks(30));
        let events = drain_all(&mut w);
        let granted_at = events
            .iter()
            .find_map(|e| match e {
                TokenEvent::Granted { at, .. } => Some(*at),
                _ => None,
            })
            .expect("request should be granted");
        assert!(granted_at.since(SimTime::from_ticks(10)) <= 8);
        assert_eq!(w.node(NodeId::new(5)).grants(), 1);
    }

    #[test]
    fn broadcast_reaches_every_node_within_a_round() {
        let mut w = world(5, ProtocolConfig::default());
        w.schedule_external(SimTime::ZERO, NodeId::new(2), Want::new(7));
        w.run_until(SimTime::from_ticks(20));
        for (_, node) in w.nodes() {
            assert_eq!(node.order().applied_seq(), 1, "all nodes deliver");
        }
    }

    #[test]
    fn histories_are_prefixes_of_each_other() {
        let mut w = world(6, ProtocolConfig::default());
        for t in 0..30 {
            w.schedule_external(SimTime::from_ticks(t * 3), NodeId::new((t % 6) as u32), Want::new(t));
        }
        w.run_until(SimTime::from_ticks(300));
        let nodes: Vec<_> = (0..6).map(|i| w.node(NodeId::new(i))).collect();
        for a in &nodes {
            for b in &nodes {
                assert!(
                    a.order().is_prefix_of(b.order()) || b.order().is_prefix_of(a.order()),
                    "prefix property violated"
                );
            }
        }
        assert_eq!(nodes.iter().map(|n| n.grants()).sum::<u64>(), 30);
    }

    #[test]
    fn service_time_holds_the_token() {
        let cfg = ProtocolConfig::default().with_service_ticks(5);
        let mut w = world(3, cfg);
        w.schedule_external(SimTime::ZERO, NodeId::new(1), Want::new(1));
        w.run_until(SimTime::from_ticks(3));
        let held = w.node(NodeId::new(1)).holds_token();
        assert!(held, "node 1 should be serving");
        w.run_until(SimTime::from_ticks(20));
        assert!(!w.node(NodeId::new(1)).holds_token());
        let events = drain_all(&mut w);
        let granted = events.iter().find_map(|e| match e {
            TokenEvent::Granted { at, .. } => Some(*at),
            _ => None,
        });
        let released = events.iter().find_map(|e| match e {
            TokenEvent::Released { at, .. } => Some(*at),
            _ => None,
        });
        assert_eq!(released.unwrap().since(granted.unwrap()), 5);
    }

    #[test]
    fn adaptive_speed_slows_idle_token() {
        let cfg = ProtocolConfig::default()
            .with_adaptive_speed(true)
            .with_max_idle_pass_ticks(8);
        let mut w = world(4, cfg);
        w.run_until(SimTime::from_ticks(400));
        let idle_sends: u64 = (0..4).map(|i| w.node(NodeId::new(i)).token_sends()).sum();
        let mut w2 = world(4, ProtocolConfig::default());
        w2.run_until(SimTime::from_ticks(400));
        let eager_sends: u64 = (0..4).map(|i| w2.node(NodeId::new(i)).token_sends()).sum();
        assert!(
            idle_sends * 2 < eager_sends,
            "adaptive speed should cut idle token traffic: {idle_sends} vs {eager_sends}"
        );
    }

    #[test]
    fn adaptive_speed_serves_mid_hold() {
        let cfg = ProtocolConfig::default()
            .with_adaptive_speed(true)
            .with_max_idle_pass_ticks(1000);
        let mut w = world(2, cfg);
        // Let the token go idle and slow down, then request at the holder.
        w.run_until(SimTime::from_ticks(100));
        let holder = (0..2)
            .map(NodeId::new)
            .find(|id| w.node(*id).holds_token());
        if let Some(holder) = holder {
            let t = w.now();
            w.schedule_external(t, holder, Want::new(9));
            w.run_for(2);
            assert_eq!(w.node(holder).grants(), 1, "served during the idle hold");
        }
    }

    #[test]
    fn crash_of_holder_loses_token_then_regeneration_restores_liveness() {
        let cfg = ProtocolConfig::default()
            .with_service_ticks(6)
            .with_regeneration(20);
        let mut w = world(4, cfg);
        // Node 2 requests at t=0; the token reaches it at t=2 and it serves
        // until t=8. Crash it mid-service: the token dies with it.
        w.schedule_external(SimTime::ZERO, NodeId::new(2), Want::new(1));
        w.run_until(SimTime::from_ticks(4));
        let holder = NodeId::new(2);
        assert!(w.node(holder).holds_token(), "node 2 should be serving");
        let t = w.now();
        w.schedule_crash(t, holder);
        // A surviving node requests.
        let requester = NodeId::new(3);
        w.schedule_external(t + 1, requester, Want::new(5));
        w.run_until(SimTime::from_ticks(400));
        let events = drain_all(&mut w);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TokenEvent::Regenerated { .. })),
            "token should be regenerated"
        );
        assert_eq!(w.node(requester).grants(), 1, "request eventually granted");
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut w = world(5, ProtocolConfig::default());
            for t in 0..20 {
                w.schedule_external(SimTime::from_ticks(t * 2), NodeId::new((t % 5) as u32), Want::new(t));
            }
            w.run_until(SimTime::from_ticks(200));
            drain_all(&mut w)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn duplicated_token_frames_are_discarded_not_double_served() {
        use atp_net::LinkFaults;
        // Every frame is delivered twice: the watermark must swallow the
        // copies, possession must never fork, and service stays exact.
        let mut w: World<RingNode> = World::from_nodes(
            (0..4).map(|_| RingNode::new(ProtocolConfig::default())).collect(),
            WorldConfig::default().link_faults(LinkFaults::new().duplication(1.0)),
        );
        for t in 0..10 {
            w.schedule_external(SimTime::from_ticks(t * 5), NodeId::new((t % 4) as u32), Want::new(t));
        }
        w.run_until(SimTime::from_ticks(200));
        let grants: u64 = (0..4).map(|i| w.node(NodeId::new(i)).grants()).sum();
        assert_eq!(grants, 10, "each request granted exactly once");
        let discarded: u64 = (0..4)
            .map(|i| w.node(NodeId::new(i)).duplicate_tokens_discarded())
            .sum();
        assert!(discarded > 0, "duplicates must be counted, got none");
        let holders = (0..4)
            .filter(|i| w.node(NodeId::new(*i)).holds_token())
            .count();
        assert!(holders <= 1, "possession forked under duplication: {holders}");
    }

    #[test]
    fn lost_token_recovered_by_retransmit_not_regeneration() {
        use atp_net::LinkFaults;
        // 10% token loss, acks on, regeneration OFF: only the ack/retransmit
        // machinery can keep the ring alive. All requests still served.
        let cfg = ProtocolConfig::default().with_token_acks(true);
        let mut w: World<RingNode> = World::from_nodes(
            (0..4).map(|_| RingNode::new(cfg)).collect(),
            WorldConfig::default().link_faults(LinkFaults::new().loss(0.10)),
        );
        for t in 0..8 {
            w.schedule_external(SimTime::from_ticks(t * 20), NodeId::new((t % 4) as u32), Want::new(t));
        }
        w.run_until(SimTime::from_ticks(1200));
        let grants: u64 = (0..4).map(|i| w.node(NodeId::new(i)).grants()).sum();
        assert_eq!(grants, 8, "retransmits must recover every lost handoff");
        let retransmits: u64 = (0..4)
            .map(|i| w.node(NodeId::new(i)).token_retransmits())
            .sum();
        assert!(retransmits > 0, "loss at 10% must trigger retransmits");
        let events = drain_all(&mut w);
        assert!(
            !events.iter().any(|e| matches!(e, TokenEvent::Regenerated { .. })),
            "recovery must come from retransmission, not regeneration"
        );
    }

    #[test]
    fn duplicated_mint_request_does_not_mint_two_tokens_of_same_generation() {
        use atp_net::LinkFaults;
        // Regression (satellite 3): with every message duplicated, the
        // `Please` asking the target to mint a regenerated token arrives
        // twice. Minting is keyed on generation and must stay idempotent —
        // otherwise two same-generation tokens enter circulation and the
        // watermark cannot tell them apart.
        let cfg = ProtocolConfig::default()
            .with_service_ticks(6)
            .with_regeneration(20);
        let mut w: World<RingNode> = World::from_nodes(
            (0..4).map(|_| RingNode::new(cfg)).collect(),
            WorldConfig::default().link_faults(LinkFaults::new().duplication(1.0)),
        );
        w.schedule_external(SimTime::ZERO, NodeId::new(2), Want::new(1));
        w.run_until(SimTime::from_ticks(4));
        assert!(w.node(NodeId::new(2)).holds_token(), "node 2 serving");
        let t = w.now();
        w.schedule_crash(t, NodeId::new(2));
        w.schedule_external(t + 1, NodeId::new(3), Want::new(5));
        w.run_until(SimTime::from_ticks(400));
        let events = drain_all(&mut w);
        let mut minted_gens: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                TokenEvent::Regenerated { generation, .. } => Some(*generation),
                _ => None,
            })
            .collect();
        assert!(!minted_gens.is_empty(), "regeneration must have happened");
        let total = minted_gens.len();
        minted_gens.sort_unstable();
        minted_gens.dedup();
        assert_eq!(
            minted_gens.len(),
            total,
            "a generation was minted more than once"
        );
        assert_eq!(w.node(NodeId::new(3)).grants(), 1, "request served");
    }

    #[test]
    fn token_acks_off_is_byte_identical_to_seed_behavior() {
        // The ack machinery must be pay-for-play: with the default config the
        // message trace is exactly the pre-ack protocol's.
        let mut w = world(4, ProtocolConfig::default());
        w.run_until(SimTime::from_ticks(100));
        let sends: u64 = (0..4).map(|i| w.node(NodeId::new(i)).token_sends()).sum();
        assert!((95..=101).contains(&sends));
        assert_eq!(
            (0..4).map(|i| w.node(NodeId::new(i)).token_retransmits()).sum::<u64>(),
            0
        );
    }
}
