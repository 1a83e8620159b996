//! Token custody: everything a node does *because it may hold or lose the
//! token*, written once for all four protocols.
//!
//! The paper derives Message-Passing → Search → BinarySearch by adding a
//! rule or two about how a request *finds* the token, and states Section 5
//! failure handling once for all of them. The code follows: [`Custody`] is
//! the state every node keeps about the token (history prefix, held frame,
//! generation, handoff watermark, membership changes to apply at the next
//! possession, the local request queue), and [`Custodian`] is the behaviour
//! — token receipt and the possession head, shipping a frame, regeneration,
//! generation fencing, membership, state transfer, retransmission, crash
//! recovery, request intake and checkpointing — as provided methods of a
//! trait the four node types implement. The core also owns what a holder
//! does with the token: one [`HoldState`], one serve step
//! ([`serve`](Custodian::serve)), the service and idle-pass timers, and one
//! queue of requests the token is owed to ([`Owed`]: Search's traps, Naimi's
//! successors, Binary's traps). The lazy protocols share their whole
//! dispatch flow through [`Lazy`]. A protocol file keeps its message enum and
//! its routing rule, and supplies the hooks below; the core calls them at
//! fixed points of the flow (template method: a hook sees the whole node,
//! dispatch is static).
//!
//! | hook | called when | ring | search | binary | naimi |
//! |---|---|---|---|---|---|
//! | [`possess`](Custodian::possess) | a token is minted here (start, regeneration) | hold, serve, rotate | [`Lazy::keep`] | as a `Rotate` arrival | reset `attempt`, [`Lazy::keep`] |
//! | [`enqueue`](Custodian::enqueue) | a local request was admitted | wait for the rotation | gimme walk | halving search | request along `last` |
//! | [`depart`](Custodian::depart) | this node left the group | pass a held token on | [`Lazy::depart_holding`] | drop traps, pass on | [`Lazy::depart_holding`] |
//! | [`resume`](Custodian::resume) | a critical section ended | serve, rotate | [`Lazy::progress`] | serve, rotate, or return the token (rule 8) | [`Lazy::progress`] |
//! | [`redrive`](Custodian::redrive) | an inquiry ended without a grant | — | resend gimme | restart search | resend request |
//! | [`reroute_to`](Custodian::reroute_to) | a newer generation's holder announced itself | — | = redrive | = redrive | + chase owed entries, repair `last` |
//! | [`forget_peer`](Custodian::forget_peer) | a peer left the group | — | its owed entries | — (keeps its traps) | its owed entries |
//!
//! [`Lazy`] adds two hooks for a token that stays where it was last used:
//! how a token message is built ([`token_msg`](Lazy::token_msg)) and how a
//! leftover owed entry chases the token ([`chase`](Lazy::chase)) — a gimme
//! for Search, a `Request` with its attempt bumped for Naimi.

use std::collections::{BTreeSet, VecDeque};

use atp_net::{Context, MsgClass, Node, NodeId, SimTime};

use crate::checkpoint::Checkpoint;
use crate::config::ProtocolConfig;
use crate::event::{EventBuf, TokenEvent, Want, WantKind};
use crate::handoff::{ack_backoff, decode_retransmit_timer, retransmit_timer_kind, Handoff};
use crate::order::OrderState;
use crate::regen::{RegenEngine, RegenMsg, RegenReply, RegenVerdict, SYNC_REPLY_MAX};
use crate::token::TokenFrame;
use crate::types::{RequestId, VisitStamp};
use crate::wire::WireProtocol;

/// Timer kinds. 1 ends a critical section, 2 ends an adaptive idle hold; 5
/// (low byte) is the retransmit timer, see [`crate::handoff`].
const TIMER_SERVICE: u64 = 1;
/// Adaptive-speed idle hold before a rotation pass.
pub const TIMER_PASS: u64 = 2;
const TIMER_REGEN: u64 = 3;
const TIMER_INQUIRY: u64 = 4;
const TIMER_ANNOUNCE: u64 = 6;

/// Re-announce period for generation fencing while excluded nodes remain.
const ANNOUNCE_PERIOD: u64 = 16;

/// Reply-collection window for an inquiry, in ticks (2 round trips at unit
/// delay, with slack for jittery latency models).
const INQUIRY_WINDOW: u64 = 8;

/// Capacity of a new token's satisfied-request window for `n` nodes.
fn satisfied_window(n: usize) -> usize {
    (2 * n).max(8)
}

/// A local request waiting for the token; `route` is the protocol's
/// per-request search bookkeeping.
#[derive(Debug)]
pub struct Outstanding<R> {
    pub(crate) req: RequestId,
    pub(crate) payload: u64,
    pub(crate) made_at: SimTime,
    pub(crate) route: R,
}

/// What a holder is doing with the token.
#[derive(Debug)]
pub(crate) enum HoldState {
    /// Holding, free to serve, dispatch or pass.
    Idle,
    /// Pass timer armed (adaptive token speed; the rotating protocols).
    PassArmed,
    /// Mid-service: the service timer fires after the critical section.
    Serving {
        /// The request in its critical section.
        req: RequestId,
        /// Its datum.
        payload: u64,
        /// The interceptor owed the token's return afterwards (BinarySearch's
        /// rule 8); `None` everywhere else.
        return_to: Option<NodeId>,
    },
}

/// The held token and what the node is doing with it.
#[derive(Debug)]
pub struct Holding {
    pub(crate) token: Box<TokenFrame>,
    pub(crate) state: HoldState,
}

/// A remote request this node owes the token to: a trap (Search,
/// BinarySearch) or a `next` obligation (Naimi–Tréhel).
#[derive(Debug)]
pub(crate) struct Owed {
    pub(crate) origin: NodeId,
    pub(crate) req: RequestId,
    /// Naimi's resend counter; 0 elsewhere.
    pub(crate) attempt: u32,
    /// BinarySearch's search path, origin first (inverse cleanup); empty
    /// elsewhere.
    pub(crate) trail: Vec<NodeId>,
}

/// What every node keeps about the token, whichever way requests find it.
#[derive(Debug)]
pub struct Custody<M, R = ()> {
    pub(crate) cfg: ProtocolConfig,
    pub(crate) events: EventBuf,
    pub(crate) order: OrderState,
    pub(crate) outstanding: VecDeque<Outstanding<R>>,
    /// Remote requests owed the token, in arrival order.
    pub(crate) owed: VecDeque<Owed>,
    pub(crate) holding: Option<Holding>,
    pub(crate) last_visit: VisitStamp,
    pub(crate) departed: bool,
    pub(crate) grants: u64,
    regen: RegenEngine,
    handoff: Handoff<M>,
    next_req_seq: u64,
    last_pass: Option<NodeId>,
    rejoining: BTreeSet<NodeId>,
    leaving: BTreeSet<NodeId>,
    /// Gap count already covered by an outstanding sync request.
    synced_gaps: u64,
    token_sends: u64,
}

impl<M, R> Custody<M, R> {
    pub(crate) fn new(cfg: ProtocolConfig) -> Self {
        Custody {
            order: OrderState::new(cfg.record_log),
            cfg,
            events: EventBuf::default(),
            outstanding: VecDeque::new(),
            owed: VecDeque::new(),
            holding: None,
            last_visit: VisitStamp::NEVER,
            departed: false,
            grants: 0,
            regen: RegenEngine::new(),
            handoff: Handoff::new(),
            next_req_seq: 0,
            last_pass: None,
            rejoining: BTreeSet::new(),
            leaving: BTreeSet::new(),
            synced_gaps: 0,
            token_sends: 0,
        }
    }

    fn witness_generation(&mut self, generation: u32, at: SimTime) {
        if self.regen.witness(generation) {
            // A held token from a superseded generation is dead weight.
            if let Some(stale) = self.holding.as_ref().map(|h| h.token.generation) {
                if stale < generation {
                    self.holding = None;
                    self.events.push(TokenEvent::StaleTokenDiscarded {
                        generation: stale,
                        at,
                    });
                }
            }
        }
    }

    /// Whether an entry for `req` is already owed.
    pub(crate) fn owes(&self, req: RequestId) -> bool {
        self.owed.iter().any(|o| o.req == req)
    }

    /// Pops the first owed entry whose request the held token has not
    /// satisfied (FIFO, as Theorem 2 requires); `None` when not holding.
    pub(crate) fn pop_owed(&mut self) -> Option<Owed> {
        let token = &self.holding.as_ref()?.token;
        while let Some(owed) = self.owed.pop_front() {
            if !token.is_satisfied(&owed.req) {
                return Some(owed);
            }
        }
        None
    }

    /// Rule 4 under adaptive speed: `true` when the held token should pass on
    /// now; otherwise arms the idle-hold pass timer (once).
    pub(crate) fn pass_now(&mut self, ctx: &mut Context<'_, M>) -> bool {
        let Some(h) = self.holding.as_mut() else {
            return false;
        };
        let delay = self.cfg.idle_delay(h.token.idle_rounds());
        if delay == 0 {
            return true;
        }
        if !matches!(h.state, HoldState::PassArmed) {
            h.state = HoldState::PassArmed;
            ctx.set_timer(delay, TIMER_PASS);
        }
        false
    }

    /// `TIMER_PASS` fired: `true` if it found the idle hold it ended.
    pub(crate) fn pass_due(&mut self) -> bool {
        match self.holding.as_mut() {
            Some(h) if matches!(h.state, HoldState::PassArmed) => {
                h.state = HoldState::Idle;
                true
            }
            _ => false,
        }
    }

    fn regen_view(&self) -> RegenReply {
        RegenReply {
            generation: self.regen.generation,
            stamp: self.last_visit,
            holder: self.holding.is_some(),
            passed_to: self.last_pass,
            applied_seq: self.order.applied_seq(),
        }
    }
}

/// A node that keeps token custody through [`Custody`]: the hooks a protocol
/// supplies, and the shared flow built on them.
pub trait Custodian: Node<Ext = Want> {
    /// Per-request search bookkeeping.
    type Route;
    /// Protocol discriminant in checkpoints.
    const CKPT: u8;

    /// The node's custody state.
    fn custody(&self) -> &Custody<Self::Msg, Self::Route>;
    /// The node's custody state, mutably.
    fn custody_mut(&mut self) -> &mut Custody<Self::Msg, Self::Route>;
    /// A node around `custody` with empty routing state.
    fn with_custody(custody: Custody<Self::Msg, Self::Route>) -> Self;
    /// Embeds failure-handling traffic in the protocol's message type.
    fn wrap(msg: RegenMsg) -> Self::Msg;

    /// Takes a token minted here (initial placement or regeneration).
    fn possess(&mut self, token: Box<TokenFrame>, ctx: &mut Context<'_, Self::Msg>);
    /// Queues an admitted local request and starts looking for the token.
    fn enqueue(&mut self, req: RequestId, payload: u64, ctx: &mut Context<'_, Self::Msg>);
    /// This node just left the group: pass a held token on.
    fn depart(&mut self, ctx: &mut Context<'_, Self::Msg>);
    /// A critical section ended on the service timer: go on with the held
    /// token. `return_to` is the interceptor owed its return (rule 8).
    fn resume(&mut self, return_to: Option<NodeId>, ctx: &mut Context<'_, Self::Msg>);
    /// Re-issues the front request's search, at `hint` if a holder is known.
    fn redrive(&mut self, _hint: Option<NodeId>, _ctx: &mut Context<'_, Self::Msg>) {}
    /// The holder of a newer generation announced itself: route toward it.
    fn reroute_to(&mut self, holder: NodeId, ctx: &mut Context<'_, Self::Msg>) {
        self.redrive(Some(holder), ctx);
    }
    /// Drops what is owed to a peer that left the group.
    fn forget_peer(&mut self, peer: NodeId) {
        self.custody_mut().owed.retain(|o| o.origin != peer);
    }

    /// `on_init`: the configured initial holder mints the first token.
    fn init(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let n = ctx.topology().len();
        if ctx.id().index() == self.custody().cfg.effective_initial_holder(n) as usize {
            self.possess(Box::new(TokenFrame::new(satisfied_window(n))), ctx);
        }
    }

    /// Token-frame receipt: acks the frame and checks it against the
    /// duplicate watermark; `false` means drop it.
    fn token_arrived(
        &mut self,
        from: NodeId,
        frame: &TokenFrame,
        ctx: &mut Context<'_, Self::Msg>,
    ) -> bool {
        let c = self.custody_mut();
        if c.cfg.token_acks {
            // Ack every receipt, duplicates included: the sender may be
            // retransmitting because our previous ack was lost.
            ctx.send(
                from,
                Self::wrap(RegenMsg::TokenAck {
                    generation: frame.generation,
                    transfer_seq: frame.transfer_seq(),
                }),
                MsgClass::Token,
            );
        }
        // A superseded frame goes on to be discarded (and reported) by the
        // possession head; a duplicate or replayed one is counted here.
        frame.generation < c.regen.generation
            || c.handoff.accept(frame.generation, frame.transfer_seq())
    }

    /// The possession head: discards a superseded or duplicate frame
    /// (`None`), otherwise stamps the visit, applies the carried history
    /// and the queued membership changes and returns the frame to hold.
    fn take_possession(
        &mut self,
        mut token: Box<TokenFrame>,
        rotational: bool,
        ctx: &mut Context<'_, Self::Msg>,
    ) -> Option<Box<TokenFrame>> {
        let c = self.custody_mut();
        if token.generation < c.regen.generation {
            c.events.push(TokenEvent::StaleTokenDiscarded {
                generation: token.generation,
                at: ctx.now(),
            });
            return None;
        }
        c.witness_generation(token.generation, ctx.now());
        if c.holding.is_some() {
            // Duplicate token of the same generation: a duplicated or
            // retransmitted frame got past the watermark. Discard, count.
            c.handoff.count_duplicate();
            return None;
        }
        c.last_visit = token.on_possess(ctx.id(), rotational);
        c.order.apply_carried(&token, ctx.now(), &mut c.events);
        // Request a state transfer from the cyclic successor when this node
        // has fallen behind the token's carried window (detected via gap
        // accounting). The reply fills the local prefix in order, so the
        // prefix property is never at risk.
        let gaps = c.order.gap_events();
        if gaps > c.synced_gaps {
            c.synced_gaps = gaps;
            ctx.send(
                ctx.topology().successor(ctx.id()),
                Self::wrap(RegenMsg::SyncRequest {
                    from_seq: c.order.applied_seq() + 1,
                }),
                MsgClass::Token,
            );
        }
        for node in std::mem::take(&mut c.rejoining) {
            token.readmit(node);
        }
        for node in std::mem::take(&mut c.leaving) {
            token.exclude(node);
        }
        // Drop owed entries the token satisfied elsewhere; without this the
        // lingering copies left along every search accumulate forever.
        if !c.owed.is_empty() {
            c.owed.retain(|o| !token.is_satisfied(&o.req));
        }
        Some(token)
    }

    /// Holds `token`, idle. A departed node excludes itself instead and gets
    /// `false` back: it must pass the token straight on.
    fn hold(&mut self, mut token: Box<TokenFrame>, ctx: &mut Context<'_, Self::Msg>) -> bool {
        let c = self.custody_mut();
        let staying = !c.departed;
        if !staying {
            token.exclude(ctx.id());
        }
        c.holding = Some(Holding {
            token,
            state: HoldState::Idle,
        });
        if staying {
            self.announce_generation(ctx);
        }
        staying
    }

    /// Generation fencing: while the token lists excluded nodes, the holder
    /// periodically tells them which generation is live, so a node isolated
    /// during a partition cannot keep serving a superseded token after heal.
    fn announce_generation(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let c = self.custody();
        if !c.cfg.regeneration {
            return;
        }
        let Some(h) = &c.holding else { return };
        if h.token.excluded().is_empty() {
            return;
        }
        let generation = h.token.generation;
        for &node in h.token.excluded() {
            ctx.send(
                node,
                Self::wrap(RegenMsg::GenAnnounce { generation }),
                MsgClass::Token,
            );
        }
        ctx.set_timer(ANNOUNCE_PERIOD, TIMER_ANNOUNCE);
    }

    /// The serve step: grants `out`, then finishes it at once (`true`: the
    /// token is free again) or starts its critical section and arms the
    /// service timer (`false`).
    fn serve(
        &mut self,
        out: Outstanding<Self::Route>,
        return_to: Option<NodeId>,
        ctx: &mut Context<'_, Self::Msg>,
    ) -> bool {
        let c = self.custody_mut();
        c.grants += 1;
        c.events.push(TokenEvent::Granted {
            req: out.req,
            at: ctx.now(),
        });
        if c.cfg.service_ticks == 0 {
            self.finish_service(out.req, out.payload, ctx);
            return true;
        }
        let holding = c.holding.as_mut().expect("serving without token");
        holding.state = HoldState::Serving {
            req: out.req,
            payload: out.payload,
            return_to,
        };
        ctx.set_timer(c.cfg.service_ticks, TIMER_SERVICE);
        false
    }

    /// Serves local requests while the held token is free: `true` once the
    /// queue is empty and the token free, `false` when there is no token or
    /// a critical section is running.
    fn serve_locals(&mut self, ctx: &mut Context<'_, Self::Msg>) -> bool {
        loop {
            let c = self.custody_mut();
            match &c.holding {
                Some(h) if !matches!(h.state, HoldState::Serving { .. }) => {}
                _ => return false,
            }
            let Some(out) = c.outstanding.pop_front() else {
                return true;
            };
            if !self.serve(out, None, ctx) {
                return false;
            }
        }
    }

    /// Ends a critical section: appends the datum to the held token, applies
    /// it locally and reports the release.
    fn finish_service(&mut self, req: RequestId, payload: u64, ctx: &mut Context<'_, Self::Msg>) {
        let c = self.custody_mut();
        let holding = c.holding.as_mut().expect("finishing without token");
        let entry = holding.token.append(ctx.id(), payload);
        holding.token.mark_satisfied(req);
        c.order.apply(&[entry], ctx.now(), &mut c.events);
        c.events.push(TokenEvent::Released {
            req,
            seq: entry.seq,
            payload,
            at: ctx.now(),
        });
    }

    /// The ship tail: stamps an outgoing frame, wraps it with `wrap`,
    /// records it in the watermark and (if acks are on) tracks it for
    /// retransmission, then sends it.
    fn ship(
        &mut self,
        to: NodeId,
        mut frame: Box<TokenFrame>,
        wrap: impl FnOnce(&mut Self, Box<TokenFrame>) -> Self::Msg,
        ctx: &mut Context<'_, Self::Msg>,
    ) {
        frame.bump_transfer();
        let generation = frame.generation;
        let transfer_seq = frame.transfer_seq();
        let msg = wrap(self, frame);
        let c = self.custody_mut();
        c.last_pass = Some(to);
        c.token_sends += 1;
        if to != ctx.id() {
            // Self-sends (degenerate one-node ring) must pass the watermark.
            c.handoff.observe_send(generation, transfer_seq);
        }
        if c.cfg.token_acks {
            c.handoff.track(to, msg.clone(), generation, transfer_seq);
            ctx.set_timer(ack_backoff(0), retransmit_timer_kind(transfer_seq, 0));
        }
        ctx.send(to, msg, MsgClass::Token);
    }

    /// Sends one search hop for `req` (a control message) and records it,
    /// with its encoded size, for the span instrumentation.
    fn send_search(
        &mut self,
        to: NodeId,
        req: RequestId,
        msg: Self::Msg,
        ctx: &mut Context<'_, Self::Msg>,
    ) where
        Self: WireProtocol,
    {
        let bytes = Self::msg_encoded_len(&msg) as u64;
        let at = ctx.now();
        let c = self.custody_mut();
        c.events
            .push(TokenEvent::SearchForwarded { req, bytes, at });
        ctx.send(to, msg, MsgClass::Control);
    }

    /// Sends `msg` to every other node.
    fn broadcast(&mut self, msg: RegenMsg, ctx: &mut Context<'_, Self::Msg>) {
        let me = ctx.id();
        for peer in ctx.topology().iter() {
            if peer != me {
                ctx.send(peer, Self::wrap(msg.clone()), MsgClass::Token);
            }
        }
    }

    /// Arms the token-loss suspicion timer (a no-op without regeneration).
    fn arm_regen_timer(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let cfg = &self.custody().cfg;
        if cfg.regeneration {
            let timeout = cfg.effective_regen_timeout(ctx.topology().len());
            ctx.set_timer(timeout, TIMER_REGEN);
        }
    }

    /// Mints generation `new_gen` here unless this node already did.
    fn mint(
        &mut self,
        new_gen: u32,
        known_seq: u64,
        dead: Vec<NodeId>,
        ctx: &mut Context<'_, Self::Msg>,
    ) {
        let c = self.custody_mut();
        let window = satisfied_window(ctx.topology().len());
        if let Some(token) = c.regen.mint(new_gen, known_seq, window, dead) {
            c.events.push(TokenEvent::Regenerated {
                by: ctx.id(),
                generation: new_gen,
                at: ctx.now(),
            });
            self.possess(Box::new(token), ctx);
        }
    }

    /// Section 5 traffic: inquiry, regeneration, membership, state transfer,
    /// handoff acks and generation fencing.
    fn handle_regen(&mut self, from: NodeId, msg: RegenMsg, ctx: &mut Context<'_, Self::Msg>) {
        let c = self.custody_mut();
        match msg {
            RegenMsg::Inquiry { generation } => {
                c.witness_generation(generation, ctx.now());
                let view = c.regen_view();
                ctx.send(from, Self::wrap(RegenMsg::Reply(view)), MsgClass::Token);
            }
            RegenMsg::Reply(reply) => c.regen.record_reply(from, reply),
            RegenMsg::Please {
                new_gen,
                known_seq,
                dead,
            } => self.mint(new_gen, known_seq, dead, ctx),
            RegenMsg::SyncRequest { from_seq } => {
                let entries = c.order.suffix_from(from_seq, SYNC_REPLY_MAX);
                if !entries.is_empty() {
                    ctx.send(
                        from,
                        Self::wrap(RegenMsg::SyncReply { entries }),
                        MsgClass::Token,
                    );
                }
            }
            RegenMsg::SyncReply { entries } => {
                c.order.apply(&entries, ctx.now(), &mut c.events);
            }
            RegenMsg::Rejoin => match c.holding.as_mut() {
                Some(h) => h.token.readmit(from),
                None => {
                    c.leaving.remove(&from);
                    c.rejoining.insert(from);
                }
            },
            RegenMsg::Leave => {
                self.forget_peer(from);
                let c = self.custody_mut();
                match c.holding.as_mut() {
                    Some(h) => h.token.exclude(from),
                    None => {
                        c.rejoining.remove(&from);
                        c.leaving.insert(from);
                    }
                }
            }
            RegenMsg::TokenAck {
                generation,
                transfer_seq,
            } => c.handoff.acked(generation, transfer_seq),
            RegenMsg::GenAnnounce { generation } => {
                if generation > c.regen.generation {
                    // We sat out a regeneration (partition, crash): adopt the
                    // live generation (which retires any token held here),
                    // ask the holder to readmit us, and aim whatever was
                    // looking for the old token at the announcer.
                    c.witness_generation(generation, ctx.now());
                    if !c.departed {
                        ctx.send(from, Self::wrap(RegenMsg::Rejoin), MsgClass::Token);
                        self.reroute_to(from, ctx);
                    }
                    let c = self.custody();
                    if !c.outstanding.is_empty() && c.holding.is_none() {
                        self.arm_regen_timer(ctx);
                    }
                } else if generation < c.regen.generation {
                    // The announcer is the stale one: fence it back.
                    let generation = c.regen.generation;
                    ctx.send(
                        from,
                        Self::wrap(RegenMsg::GenAnnounce { generation }),
                        MsgClass::Token,
                    );
                }
            }
        }
    }

    /// The core's timers: the end of a critical section, retransmission,
    /// generation announce, token-loss suspicion and the inquiry verdict.
    /// Other kinds are ignored.
    fn custody_timer(&mut self, kind: u64, ctx: &mut Context<'_, Self::Msg>) {
        let c = self.custody_mut();
        if let Some((tseq, attempt)) = decode_retransmit_timer(kind) {
            if c.handoff.timer_due(tseq, attempt) {
                if let Some((to, msg, tseq, next)) = c.handoff.next_attempt() {
                    ctx.send(to, msg, MsgClass::Token);
                    ctx.set_timer(ack_backoff(next), retransmit_timer_kind(tseq, next));
                }
            }
            return;
        }
        match kind {
            TIMER_SERVICE => {
                let Some(h) = c.holding.as_mut() else {
                    return;
                };
                if let HoldState::Serving {
                    req,
                    payload,
                    return_to,
                } = h.state
                {
                    h.state = HoldState::Idle;
                    self.finish_service(req, payload, ctx);
                    self.resume(return_to, ctx);
                }
            }
            TIMER_ANNOUNCE => self.announce_generation(ctx),
            TIMER_REGEN => {
                if c.holding.is_some() || !c.cfg.regeneration {
                    return;
                }
                let Some(front) = c.outstanding.front() else {
                    return;
                };
                let timeout = c.cfg.effective_regen_timeout(ctx.topology().len());
                let waited = ctx.now().since(front.made_at);
                if waited < timeout {
                    ctx.set_timer(timeout - waited, TIMER_REGEN);
                } else if !c.regen.is_inquiring() {
                    c.regen.start_inquiry();
                    let generation = c.regen.generation;
                    self.broadcast(RegenMsg::Inquiry { generation }, ctx);
                    ctx.set_timer(INQUIRY_WINDOW, TIMER_INQUIRY);
                }
            }
            TIMER_INQUIRY => {
                if !c.cfg.regeneration {
                    return;
                }
                let view = c.regen_view();
                match c.regen.conclude(ctx.topology(), ctx.id(), view) {
                    RegenVerdict::Wait { holder } => {
                        if !c.outstanding.is_empty() && c.holding.is_none() {
                            // The search itself may have been lost on the
                            // cheap channel: re-issue it.
                            self.redrive(holder, ctx);
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
                            self.mint(new_gen, known_seq, dead, ctx);
                        } else {
                            let please = RegenMsg::Please {
                                new_gen,
                                known_seq,
                                dead,
                            };
                            ctx.send(target, Self::wrap(please), MsgClass::Token);
                            self.redrive(Some(target), ctx);
                            self.arm_regen_timer(ctx);
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// `on_recover`: volatile custody state did not survive the crash.
    fn recover(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let c = self.custody_mut();
        // A retransmit from before the crash could resurrect a stale token.
        c.handoff.clear_pending();
        // Conservative: never resurrect a possibly superseded token.
        if c.holding.take().is_some() {
            c.events.push(TokenEvent::StaleTokenDiscarded {
                generation: c.regen.generation,
                at: ctx.now(),
            });
        }
        // What was owed here did not survive the crash either; the origins'
        // own retry cycles route those requests again.
        c.owed.clear();
        if c.cfg.regeneration {
            // Announce recovery so the next token holder readmits us.
            self.broadcast(RegenMsg::Rejoin, ctx);
        }
        if !self.custody().outstanding.is_empty() {
            self.arm_regen_timer(ctx);
        }
    }

    /// `on_external`: request intake and graceful membership changes.
    fn want(&mut self, ev: Want, ctx: &mut Context<'_, Self::Msg>) {
        let c = self.custody_mut();
        match ev.kind {
            WantKind::Acquire => {
                if c.departed {
                    return; // departed nodes do not request
                }
                c.next_req_seq += 1;
                let req = RequestId::new(ctx.id(), c.next_req_seq);
                c.events.push(TokenEvent::Requested { req, at: ctx.now() });
                self.enqueue(req, ev.payload, ctx);
            }
            WantKind::Leave => {
                c.departed = true;
                c.outstanding.clear();
                self.broadcast(RegenMsg::Leave, ctx);
                self.depart(ctx);
            }
            WantKind::Rejoin => {
                c.departed = false;
                self.broadcast(RegenMsg::Rejoin, ctx);
            }
        }
    }
}

/// A custodian whose token stays where it was last used (System Search,
/// Naimi–Tréhel): the holder serves its own requests, then ships the token
/// straight to the first remote request it owes (rule 7), and every other
/// owed entry chases the token to its new holder. The protocol supplies how
/// a token message is built and how an entry chases; the flow is written
/// here once.
pub(crate) trait Lazy: Custodian + WireProtocol {
    /// The token message carrying `frame`; `grant_for` names the request it
    /// serves.
    fn token_msg(frame: Box<TokenFrame>, grant_for: Option<RequestId>) -> Self::Msg;
    /// Sends a leftover owed entry after the token to its new holder.
    fn chase(&mut self, holder: NodeId, owed: Owed, ctx: &mut Context<'_, Self::Msg>);

    /// Ships `frame` to `to`, recording the dispatch (and its encoded size)
    /// when it serves a request.
    fn send_token(
        &mut self,
        to: NodeId,
        frame: Box<TokenFrame>,
        grant_for: Option<RequestId>,
        ctx: &mut Context<'_, Self::Msg>,
    ) {
        let at = ctx.now();
        let wrap = |node: &mut Self, frame| {
            let msg = Self::token_msg(frame, grant_for);
            if let Some(req) = grant_for {
                let bytes = Self::msg_encoded_len(&msg) as u64;
                let dispatched = TokenEvent::TokenDispatched { req, bytes, at };
                node.custody_mut().events.push(dispatched);
            }
            msg
        };
        self.ship(to, frame, wrap, ctx);
    }

    /// Holds a possessed token and serves; a departed node hands it on.
    /// First the token records how far this node has applied `H` — its
    /// carried window is bounded by that watermark (see [`Lazy::progress`]).
    fn keep(&mut self, mut token: Box<TokenFrame>, ctx: &mut Context<'_, Self::Msg>) {
        let applied = self.custody().order.applied_seq();
        token.ack(ctx.id(), ctx.topology().len(), applied);
        if self.hold(token, ctx) {
            self.progress(ctx);
        } else {
            self.hand_off(ctx);
        }
    }

    /// Serve local requests, then the first owed entry; otherwise keep
    /// holding silently. The lazy token has no rounds to GC by, and a node
    /// may go arbitrarily long between possessions, so the paper's Figure 6
    /// ships the complete history H. Here the token carries only the part
    /// of H some node has not applied: each possession acks the holder's
    /// applied prefix in [`Lazy::keep`], and the frame drops what every
    /// node has acked (the rotating protocols bound it by round counters
    /// instead). A node that has never held this generation acks 0, so a
    /// node the token skips keeps everything it has not seen. A node that
    /// restarts without its state has lost what the floor already cut; it
    /// can get that back only by state transfer (`SyncRequest`).
    fn progress(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        if self.serve_locals(ctx) {
            if let Some(owed) = self.custody_mut().pop_owed() {
                self.dispatch(owed, ctx);
            }
        }
    }

    /// Sends the held token to the first owed entry if any, otherwise to the
    /// next live successor (used by departing holders).
    fn hand_off(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        if let Some(owed) = self.custody_mut().pop_owed() {
            self.dispatch(owed, ctx);
            return;
        }
        let Some(holding) = self.custody_mut().holding.take() else {
            return;
        };
        let succ = holding.token.next_live_successor(ctx.topology(), ctx.id());
        self.send_token(succ, holding.token, None, ctx);
    }

    /// Rule 7: ships the token to `owed`'s origin; the other owed entries
    /// chase it there. An entry only catches a token that *lands* here, and
    /// the lazy token never returns on its own — so a second request owed
    /// while this node was serving would otherwise strand forever.
    fn dispatch(&mut self, owed: Owed, ctx: &mut Context<'_, Self::Msg>) {
        let Some(holding) = self.custody_mut().holding.take() else {
            return;
        };
        self.send_token(owed.origin, holding.token, Some(owed.req), ctx);
        for rest in std::mem::take(&mut self.custody_mut().owed) {
            self.chase(owed.origin, rest, ctx);
        }
    }

    /// The `depart` hook: a held token leaves with this node's exclusion,
    /// at once unless a critical section is running.
    fn depart_holding(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let me = ctx.id();
        if let Some(h) = self.custody_mut().holding.as_mut() {
            h.token.exclude(me);
            if matches!(h.state, HoldState::Idle) {
                self.hand_off(ctx);
            }
        }
    }
}

/// What every token-passing node exposes, whichever protocol it runs.
pub trait TokenNode: Custodian {
    /// The node's applied history (its local prefix of `H`).
    fn order(&self) -> &OrderState {
        &self.custody().order
    }

    /// Total grants this node has received.
    fn grants(&self) -> u64 {
        self.custody().grants
    }

    /// Requests currently queued locally.
    fn outstanding_len(&self) -> usize {
        self.custody().outstanding.len()
    }

    /// Whether this node holds the (idle or in-service) token.
    fn holds_token(&self) -> bool {
        self.custody().holding.is_some()
    }

    /// The node's last visit stamp.
    fn last_visit(&self) -> VisitStamp {
        self.custody().last_visit
    }

    /// Token-bearing messages this node has sent.
    fn token_sends(&self) -> u64 {
        self.custody().token_sends
    }

    /// Token frames discarded as duplicates (watermark or double
    /// possession) instead of forking possession.
    fn duplicate_tokens_discarded(&self) -> u64 {
        self.custody().handoff.duplicates_discarded
    }

    /// Token frames retransmitted after an ack timeout.
    fn token_retransmits(&self) -> u64 {
        self.custody().handoff.retransmits
    }

    /// Highest token generation this node has witnessed.
    fn generation(&self) -> u32 {
        self.custody().regen.generation
    }

    /// Whether this node has gracefully left the group.
    fn is_departed(&self) -> bool {
        self.custody().departed
    }

    /// Captures the node's durable state for crash–restart recovery.
    fn checkpoint(&self) -> Checkpoint {
        let c = self.custody();
        Checkpoint::capture(
            Self::CKPT,
            &c.order,
            c.next_req_seq,
            c.last_visit,
            c.regen.generation,
            c.handoff.watermark(),
        )
    }

    /// Rebuilds a node from a checkpoint (warm restart). Volatile state —
    /// held token, routes, pending transfers, outstanding requests — starts
    /// empty; drive the restarted node through `on_recover`, never
    /// `on_init`.
    fn from_checkpoint(cfg: ProtocolConfig, ck: &Checkpoint) -> Self {
        assert_eq!(
            ck.protocol,
            Self::CKPT,
            "checkpoint from a different protocol"
        );
        let mut c = Custody::new(cfg);
        c.order = ck.restore_order(cfg.record_log);
        c.next_req_seq = ck.next_req_seq;
        c.last_visit = ck.visit_stamp();
        c.regen.witness(ck.generation);
        c.handoff.restore_watermark(ck.watermark);
        Self::with_custody(c)
    }
}

impl<T: Custodian> TokenNode for T {}

impl<T: Custodian> crate::event::EventSource for T {
    fn take_events(&mut self) -> Vec<TokenEvent> {
        self.custody_mut().events.take()
    }

    fn take_events_into(&mut self, out: &mut Vec<TokenEvent>) {
        self.custody_mut().events.take_into(out);
    }

    fn has_events(&self) -> bool {
        !self.custody().events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    //! The hook contract, checked once against a router that only records:
    //! what the four integration suites reach only through a real protocol.

    use super::*;
    use crate::event::EventSource;
    use crate::regen::make_gen;
    use atp_net::{Harness, Topology};

    #[derive(Debug, Clone)]
    enum Msg {
        Token(Box<TokenFrame>),
        Regen(RegenMsg),
    }

    #[derive(Debug, PartialEq)]
    enum Hook {
        Possess,
        Enqueue,
        Depart,
        Resume(Option<NodeId>),
        Redrive(Option<NodeId>),
    }

    /// Holds whatever it is given, routes nothing, records every hook call.
    #[derive(Debug)]
    struct Fake {
        c: Custody<Msg>,
        calls: Vec<Hook>,
    }

    impl Custodian for Fake {
        type Route = ();
        const CKPT: u8 = 0;

        fn custody(&self) -> &Custody<Msg> {
            &self.c
        }
        fn custody_mut(&mut self) -> &mut Custody<Msg> {
            &mut self.c
        }
        fn with_custody(c: Custody<Msg>) -> Self {
            Fake {
                c,
                calls: Vec::new(),
            }
        }
        fn wrap(msg: RegenMsg) -> Msg {
            Msg::Regen(msg)
        }
        fn possess(&mut self, token: Box<TokenFrame>, ctx: &mut Context<'_, Msg>) {
            self.calls.push(Hook::Possess);
            if let Some(token) = self.take_possession(token, false, ctx) {
                self.hold(token, ctx);
            }
        }
        /// Queues the request; a holder serves it at once, on behalf of
        /// interceptor node 3.
        fn enqueue(&mut self, req: RequestId, payload: u64, ctx: &mut Context<'_, Msg>) {
            self.calls.push(Hook::Enqueue);
            let out = Outstanding {
                req,
                payload,
                made_at: ctx.now(),
                route: (),
            };
            if self.c.holding.is_some() {
                self.serve(out, Some(id(3)), ctx);
            } else {
                self.c.outstanding.push_back(out);
            }
        }
        fn depart(&mut self, _ctx: &mut Context<'_, Msg>) {
            self.calls.push(Hook::Depart);
        }
        fn resume(&mut self, return_to: Option<NodeId>, _ctx: &mut Context<'_, Msg>) {
            self.calls.push(Hook::Resume(return_to));
        }
        fn redrive(&mut self, hint: Option<NodeId>, _ctx: &mut Context<'_, Msg>) {
            self.calls.push(Hook::Redrive(hint));
        }
    }

    impl Node for Fake {
        type Msg = Msg;
        type Ext = Want;

        fn on_init(&mut self, ctx: &mut Context<'_, Msg>) {
            self.init(ctx);
        }
        fn on_message(&mut self, from: NodeId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::Token(frame) => {
                    if self.token_arrived(from, &frame, ctx) {
                        self.possess(frame, ctx);
                    }
                }
                Msg::Regen(m) => self.handle_regen(from, m, ctx),
            }
        }
        fn on_external(&mut self, ev: Want, ctx: &mut Context<'_, Msg>) {
            self.want(ev, ctx);
        }
        fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, Msg>) {
            if kind == TIMER_PASS {
                // The fake's whole hold policy: pass to the cyclic successor.
                let holding = self.c.holding.take().expect("passing without token");
                let succ = ctx.topology().successor(ctx.id());
                self.ship(succ, holding.token, |_, frame| Msg::Token(frame), ctx);
            } else {
                self.custody_timer(kind, ctx);
            }
        }
        fn on_recover(&mut self, ctx: &mut Context<'_, Msg>) {
            self.recover(ctx);
        }
    }

    const T0: SimTime = SimTime::ZERO;

    fn id(i: u32) -> NodeId {
        NodeId::new(i)
    }

    /// Node `me` of a 4-ring with regeneration (timeout 50) and acks on;
    /// node 0 mints the initial token.
    fn fake(me: u32) -> Harness<Fake> {
        fake_with(me, ProtocolConfig::default())
    }

    fn fake_with(me: u32, cfg: ProtocolConfig) -> Harness<Fake> {
        let cfg = cfg.with_regeneration(50).with_token_acks(true);
        let mut h = Harness::new(
            id(me),
            Topology::ring(4),
            Fake::with_custody(Custody::new(cfg)),
            1,
        );
        h.init(T0);
        h
    }

    /// Drains the regen messages the last callbacks sent, with their
    /// destinations (token frames are skipped).
    fn sent(h: &mut Harness<Fake>) -> Vec<(NodeId, RegenMsg)> {
        let regen = |o: atp_net::Outbound<Msg>| match o.msg {
            Msg::Regen(m) => Some((o.to, m)),
            Msg::Token(_) => None,
        };
        h.take_outbound().into_iter().filter_map(regen).collect()
    }

    /// Drains the `(delay, kind)` timers the last callbacks armed.
    fn timers(h: &mut Harness<Fake>) -> Vec<(u64, u64)> {
        h.take_timers().iter().map(|t| (t.delay, t.kind)).collect()
    }

    fn regen(h: &mut Harness<Fake>, from: u32, msg: RegenMsg) {
        h.deliver(T0, id(from), Msg::Regen(msg));
    }

    /// A frame as some peer would send it: generation 0, transfer `tseq`.
    fn frame(tseq: u64) -> Box<TokenFrame> {
        let mut f = Box::new(TokenFrame::new(8));
        (0..tseq).for_each(|_| f.bump_transfer());
        f
    }

    #[test]
    fn newer_gen_announce_is_adopted_and_reroutes_toward_the_sender() {
        let newer = make_gen(1, id(3));
        // Idle: adopt, ask the announcer to readmit us, re-drive at it; no
        // request is waiting, so no suspicion timer.
        let mut h = fake(2);
        regen(&mut h, 3, RegenMsg::GenAnnounce { generation: newer });
        assert_eq!(h.node().generation(), newer);
        assert_eq!(sent(&mut h), [(id(3), RegenMsg::Rejoin)]);
        assert_eq!(timers(&mut h), []);
        assert_eq!(h.node().calls, [Hook::Redrive(Some(id(3)))]);

        // A request outstanding and no token held: the timer is armed too.
        let mut h = fake(2);
        h.external(T0, Want::new(7));
        regen(&mut h, 3, RegenMsg::GenAnnounce { generation: newer });
        assert_eq!(timers(&mut h), [(50, TIMER_REGEN)]);
        assert_eq!(h.node().calls, [Hook::Enqueue, Hook::Redrive(Some(id(3)))]);

        // A held token of the old generation is retired by the adoption.
        let mut h = fake(0);
        assert!(h.node().holds_token());
        regen(&mut h, 3, RegenMsg::GenAnnounce { generation: newer });
        assert!(!h.node().holds_token());
        let stale = TokenEvent::StaleTokenDiscarded {
            generation: 0,
            at: T0,
        };
        assert_eq!(h.node_mut().take_events(), [stale]);

        // A departed node adopts the generation but does not ask back in.
        let mut h = fake(2);
        h.external(T0, Want::leave());
        sent(&mut h);
        regen(&mut h, 3, RegenMsg::GenAnnounce { generation: newer });
        assert_eq!(h.node().generation(), newer);
        assert_eq!((sent(&mut h), timers(&mut h)), (vec![], vec![]));
        assert_eq!(h.node().calls, [Hook::Depart]);
    }

    #[test]
    fn older_gen_announce_is_fenced_back_without_touching_routes() {
        let (ours, theirs) = (make_gen(2, id(1)), make_gen(1, id(3)));
        let mut h = fake(2);
        regen(&mut h, 1, RegenMsg::Inquiry { generation: ours });
        sent(&mut h);
        regen(&mut h, 3, RegenMsg::GenAnnounce { generation: theirs });
        let fence = RegenMsg::GenAnnounce { generation: ours };
        assert_eq!(sent(&mut h), [(id(3), fence)]);
        // Our own generation announced back at us changes nothing.
        regen(&mut h, 1, RegenMsg::GenAnnounce { generation: ours });
        assert_eq!((sent(&mut h), timers(&mut h)), (vec![], vec![]));
        assert_eq!(h.node().generation(), ours);
        assert!(h.node().calls.is_empty());
    }

    #[test]
    fn a_duplicated_please_mints_once() {
        let mut h = fake(2);
        let new_gen = make_gen(1, id(2));
        let please = RegenMsg::Please {
            new_gen,
            known_seq: 0,
            dead: vec![id(0)],
        };
        regen(&mut h, 1, please.clone());
        regen(&mut h, 3, please);
        assert_eq!(h.node().calls, [Hook::Possess]);
        assert!(h.node().holds_token());
        assert_eq!(h.node().generation(), new_gen);
        let minted = TokenEvent::Regenerated {
            by: id(2),
            generation: new_gen,
            at: T0,
        };
        assert_eq!(h.node_mut().take_events(), [minted]);
        // The minted token excludes the dead node, so the holder fences it.
        let announce = RegenMsg::GenAnnounce {
            generation: new_gen,
        };
        assert_eq!(sent(&mut h), [(id(0), announce)]);
        assert_eq!(timers(&mut h), [(ANNOUNCE_PERIOD, TIMER_ANNOUNCE)]);
    }

    /// An entry owed to `origin` for its request number `seq`.
    fn owed(origin: u32, seq: u64) -> Owed {
        Owed {
            origin: id(origin),
            req: RequestId::new(id(origin), seq),
            attempt: 0,
            trail: Vec::new(),
        }
    }

    #[test]
    fn a_peers_leave_lands_on_the_held_token_or_waits_for_the_next_one() {
        // Holding: excluded at once, nothing queued, and nothing is owed to
        // the leaver any more.
        let mut h = fake(0);
        h.node_mut()
            .c
            .owed
            .extend([owed(2, 1), owed(1, 1), owed(2, 2)]);
        regen(&mut h, 2, RegenMsg::Leave);
        let c = &h.node().c;
        assert!(c.holding.as_ref().unwrap().token.is_excluded(id(2)));
        assert!(c.leaving.is_empty());
        let left: Vec<_> = c.owed.iter().map(|o| o.origin).collect();
        assert_eq!(left, [id(1)]);
        assert_eq!(h.node().calls, [Hook::Possess]);

        // Not holding: queued, applied by the next possession. A Rejoin in
        // between cancels it.
        let mut h = fake(1);
        regen(&mut h, 2, RegenMsg::Leave);
        regen(&mut h, 3, RegenMsg::Leave);
        regen(&mut h, 3, RegenMsg::Rejoin);
        assert_eq!(h.node().c.leaving, BTreeSet::from([id(2)]));
        h.deliver(T0, id(0), Msg::Token(frame(1)));
        let c = &h.node().c;
        let token = &c.holding.as_ref().unwrap().token;
        assert_eq!(token.excluded(), [id(2)]);
        assert!(c.leaving.is_empty() && c.rejoining.is_empty());
    }

    #[test]
    fn a_retransmit_timer_for_an_acked_transfer_is_inert() {
        let mut h = fake(0);
        h.fire_timer(T0, TIMER_PASS);
        let first_wait = (ack_backoff(0), retransmit_timer_kind(1, 0));
        assert_eq!(timers(&mut h), [first_wait]);
        assert_eq!(h.take_outbound().len(), 1, "the frame itself");

        // Unacked: the timer resends the frame and re-arms with backoff.
        h.fire_timer(T0, first_wait.1);
        assert_eq!(h.take_outbound().len(), 1);
        let second_wait = (ack_backoff(1), retransmit_timer_kind(1, 1));
        assert_eq!(timers(&mut h), [second_wait]);

        // Acked: both the superseded and the current timer do nothing.
        let ack = RegenMsg::TokenAck {
            generation: 0,
            transfer_seq: 1,
        };
        regen(&mut h, 1, ack);
        h.fire_timer(T0, first_wait.1);
        h.fire_timer(T0, second_wait.1);
        assert!(h.take_outbound().is_empty() && h.take_timers().is_empty());
        assert_eq!(h.node().token_retransmits(), 1);
    }

    #[test]
    fn the_service_timer_ends_the_critical_section_and_hands_back_return_to() {
        let mut h = fake_with(0, ProtocolConfig::default().with_service_ticks(5));
        h.node_mut().take_events();
        h.external(T0, Want::new(7));
        let req = RequestId::new(id(0), 1);
        let granted = TokenEvent::Granted { req, at: T0 };
        let requested = TokenEvent::Requested { req, at: T0 };
        assert_eq!(h.node_mut().take_events(), [requested, granted]);
        assert_eq!(timers(&mut h), [(5, TIMER_SERVICE)]);
        let c = &h.node().c;
        let state = &c.holding.as_ref().unwrap().state;
        assert!(matches!(state, HoldState::Serving { return_to: Some(r), .. } if *r == id(3)));

        let at = SimTime::from_ticks(5);
        h.fire_timer(at, TIMER_SERVICE);
        let released = TokenEvent::Released {
            req,
            seq: 1,
            payload: 7,
            at,
        };
        assert!(h.node_mut().take_events().contains(&released));
        assert!(matches!(
            h.node().c.holding.as_ref().unwrap().state,
            HoldState::Idle
        ));
        assert_eq!(h.node().calls[2..], [Hook::Resume(Some(id(3)))]);

        // A second firing finds no critical section and resumes nothing.
        h.fire_timer(at, TIMER_SERVICE);
        assert_eq!(h.node().calls.len(), 3);
    }

    #[test]
    fn recovery_drops_the_token_the_pending_transfer_and_the_owed_entries() {
        let mut h = fake(0);
        h.fire_timer(T0, TIMER_PASS); // transfer 1 to node 1, never acked
        h.external(T0, Want::new(7));
        h.deliver(T0, id(3), Msg::Token(frame(5))); // … and the token is back
        assert!(h.node().holds_token() && h.node().c.handoff.pending().is_some());
        h.node_mut().take_events();
        h.node_mut().calls.clear();
        h.node_mut().c.owed.push_back(owed(2, 1));
        sent(&mut h);
        timers(&mut h);

        h.recover(T0);
        assert!(!h.node().holds_token());
        assert!(h.node().c.handoff.pending().is_none());
        assert!(h.node().c.owed.is_empty());
        assert!(h.node().calls.is_empty());
        let dropped = TokenEvent::StaleTokenDiscarded {
            generation: 0,
            at: T0,
        };
        assert_eq!(h.node_mut().take_events(), [dropped]);
        // Every peer hears the Rejoin, and the waiting request keeps its
        // suspicion timer.
        assert_eq!(sent(&mut h), [1, 2, 3].map(|p| (id(p), RegenMsg::Rejoin)));
        assert_eq!(timers(&mut h), [(50, TIMER_REGEN)]);
        // The pre-crash retransmit timer finds nothing to resend.
        h.fire_timer(T0, retransmit_timer_kind(1, 0));
        assert!(h.take_outbound().is_empty());
    }
}
