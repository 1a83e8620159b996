//! System BinarySearch: circular token rotation **plus** a binary search for
//! the token (Section 4.2) — the paper's primary contribution.
//!
//! The token flows around the ring as usual. When a node wants it, it sends a
//! "gimme" to the node directly across the logical ring. Each receiver lays a
//! local trap and relays the gimme halfway again — clockwise or
//! counter-clockwise depending on whether the token visited it before or
//! after visiting the requester (rule 6's history-prefix comparison `⊂_C`,
//! realized here as a comparison of last-visit stamps; see
//! [`VisitStamp`]). The jump distance halves every hop, so a request is
//! forwarded O(log N) times (Lemma 6). The moving token hits one of the traps
//! within O(log N) further steps, is dispatched straight to the requester
//! (rule 7, the decorated `ŷ`), is used once, and returns to the interception
//! point where rotation resumes (rule 8) — the interceptor acting as a
//! temporary "virtual root of a token-distribution tree".
//!
//! Responsiveness is O(log N) under all loads (Theorem 2, given FIFO trap
//! queues) and the protocol is log N-fair (Theorem 3).
//!
//! The search is the paper's *delegated* search. The Section 4.4 refinements
//! that pay somewhere are selectable through [`ProtocolConfig`]: rotation vs
//! *inverse* trap cleanup, single-outstanding-request throttling, serving the
//! whole local queue on an out-of-band grant, and adaptive token speed.
//! Directed search and the push-pull probe dual were measured and deleted:
//! directed search sent more search messages than delegated search in every
//! regime measured, and the probe dual beat the baseline in none
//! (EXPERIMENTS.md, "Section 4.4"). Token custody (possession, handoff,
//! Section 5 failure handling) is the shared [core](crate::custody); this
//! file is the rotation, rule 8 and the halving search.

use std::collections::VecDeque;

use atp_net::{Context, Node, NodeId};

use crate::checkpoint::CKPT_BINARY;
use crate::config::{ProtocolConfig, TrapCleanup};
use crate::custody::{
    release, Custodian, Custody, HoldState, Holding, Outstanding, Owed, TIMER_PASS,
};
use crate::event::{TokenEvent, Want};
use crate::regen::RegenMsg;
use crate::token::TokenFrame;
use crate::types::{RequestId, VisitStamp};
use crate::wire::WireProtocol;

/// How a token frame is travelling.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenMode {
    /// Normal rotation hop `x → x⁺¹` (rule 4).
    Rotate,
    /// Out-of-band dispatch to a trapped requester (rule 7): serve `for_req`,
    /// then send the token back to `return_to` (the decorated `ŷ`).
    Grant {
        /// The request being satisfied.
        for_req: RequestId,
        /// The interceptor awaiting the token's return.
        return_to: NodeId,
    },
    /// Inverse-cleanup relay hop: the token retraces the search trail toward
    /// the requester, clearing traps en route (Section 4.4).
    CleanupHop {
        /// The request being satisfied.
        for_req: RequestId,
        /// The interceptor awaiting the token's return.
        return_to: NodeId,
        /// Remaining reverse path; the requester sits at index 0.
        trail: Vec<NodeId>,
    },
    /// Return to the interception point after use (rule 8); rotation resumes
    /// there.
    Return,
}

/// A migrating search request (rules 5/6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gimme {
    /// The ready node.
    pub origin: NodeId,
    /// Its request.
    pub req: RequestId,
    /// The origin's visit stamp at request time (its history `H_z` projected
    /// onto circulation events).
    pub origin_stamp: VisitStamp,
    /// The jump distance just taken; the next hop jumps `span / 2`.
    pub span: u32,
    /// Nodes visited so far (origin first), for inverse cleanup.
    pub trail: Vec<NodeId>,
}

/// Messages of System BinarySearch.
#[derive(Debug, Clone)]
pub enum BinaryMsg {
    /// A token frame in some travel mode (always `MsgClass::Token`).
    ///
    /// Boxed: the frame is by far the largest message payload, and keeping
    /// it behind a pointer makes every enqueue/move of a `BinaryMsg` a
    /// small fixed-size copy instead of a ~150-byte memcpy.
    Token {
        /// The frame.
        frame: Box<TokenFrame>,
        /// Travel mode.
        mode: TokenMode,
    },
    /// A migrating search request (delegated search).
    Gimme(Gimme),
    /// Retired with directed search: no node sends it, and a node that
    /// receives one drops it. The wire word stays only because the
    /// benchmark's codec probes still construct it; a later change to the
    /// benchmark retires it.
    DirectedProbe {
        /// The requester running the search.
        origin: NodeId,
        /// Its request.
        req: RequestId,
        /// Jump distance just taken.
        span: u32,
    },
    /// Retired with directed search, like
    /// [`DirectedProbe`](BinaryMsg::DirectedProbe): never sent, dropped on
    /// receipt.
    DirectedReply {
        /// The node that was probed.
        probed: NodeId,
        /// Its last-visit stamp.
        stamp: VisitStamp,
        /// The request the search serves.
        req: RequestId,
        /// Jump distance of the probe being answered.
        span: u32,
    },
    /// Retired with the push-pull probe dual: never sent, dropped on
    /// receipt; kept on the wire for the benchmark's codec probes until a
    /// later change to the benchmark retires it.
    ProbeReq {
        /// Where the token is (replies go here).
        holder: NodeId,
        /// Fan-out jump distance.
        span: u32,
    },
    /// Retired with the push-pull probe dual, like
    /// [`ProbeReq`](BinaryMsg::ProbeReq): never sent, dropped on receipt.
    ProbeHit {
        /// The ready node.
        origin: NodeId,
        /// Its request.
        req: RequestId,
    },
    /// Failure-handling traffic (Section 5).
    Regen(RegenMsg),
}

/// Where a local request's search stands.
#[derive(Debug)]
pub struct Search {
    stamp_at_request: VisitStamp,
    started: bool,
}

/// One node of System BinarySearch.
///
/// See the crate-level documentation for the protocol walk-through and a
/// usage example.
#[derive(Debug)]
pub struct BinaryNode {
    /// Its owed queue holds the traps, each with its search trail.
    c: Custody<BinaryMsg, Search>,
    /// Local requests this possession may still serve before yielding to
    /// traps (fairness: locals arriving mid-possession wait a round).
    quota: usize,
    gimme_sends: u64,
}

impl BinaryNode {
    /// Creates a node with the given configuration.
    pub fn new(cfg: ProtocolConfig) -> Self {
        Self::with_custody(Custody::new(cfg))
    }

    /// Traps currently set at this node.
    pub fn trap_count(&self) -> usize {
        self.c.owed.len()
    }

    /// Search messages sent or relayed.
    pub fn gimme_sends(&self) -> u64 {
        self.gimme_sends
    }

    /// Common possession bookkeeping; returns `false` if the frame was stale
    /// and dropped.
    fn take_token(
        &mut self,
        token: Box<TokenFrame>,
        rotational: bool,
        ctx: &mut Context<'_, BinaryMsg>,
    ) -> bool {
        let Some(token) = self.take_possession(token, rotational, ctx) else {
            return false;
        };
        // Unlike the lazy protocols, a departed node holds (and announces)
        // like any other; the rotational arrivals then pass straight on.
        self.c.holding = Some(Holding {
            token,
            state: HoldState::Idle,
        });
        self.announce_generation(ctx);
        true
    }

    /// Ships a token frame in travel mode `mode`.
    fn ship_token(
        &mut self,
        to: NodeId,
        frame: Box<TokenFrame>,
        mode: TokenMode,
        ctx: &mut Context<'_, BinaryMsg>,
    ) {
        let at = ctx.now();
        let wrap = |node: &mut Self, frame| {
            // A Grant or CleanupHop frame is the token travelling to serve a
            // specific request: record the dispatch (and its wire size) so
            // request spans can separate search time from token flight time.
            let dispatch_req = match &mode {
                TokenMode::Grant { for_req, .. } | TokenMode::CleanupHop { for_req, .. } => {
                    Some(*for_req)
                }
                TokenMode::Rotate | TokenMode::Return => None,
            };
            let msg = BinaryMsg::Token { frame, mode };
            if let Some(req) = dispatch_req {
                let bytes = Self::msg_encoded_len(&msg) as u64;
                node.c
                    .events
                    .push(TokenEvent::TokenDispatched { req, bytes, at });
            }
            msg
        };
        self.ship(to, frame, wrap, ctx);
    }

    /// Serve local quota, then traps, then pass the rotation onward.
    fn progress(&mut self, ctx: &mut Context<'_, BinaryMsg>) {
        self.progress_with(ctx, true);
    }

    /// `serve_traps = false` is used when the token just *returned* from an
    /// out-of-band grant: the paper has rotation resume at the interception
    /// point ("the token continues to flow around the ring again from where
    /// it was first intercepted"), so at most one trap is served per
    /// possession — without this, a trap-rich interceptor ping-pongs the
    /// token inside one neighbourhood and starves the rest of the ring under
    /// sustained load.
    fn progress_with(&mut self, ctx: &mut Context<'_, BinaryMsg>, serve_traps: bool) {
        loop {
            match &self.c.holding {
                Some(h) if !matches!(h.state, HoldState::Serving { .. }) => {}
                _ => return,
            }
            if self.quota == 0 {
                break;
            }
            let Some(out) = self.c.pop_local() else {
                self.quota = 0;
                break;
            };
            self.quota -= 1;
            if !self.serve(out, None, ctx) {
                return;
            }
        }
        // FIFO trap service (required for Theorem 2), skipping traps whose
        // request the token already satisfied.
        if serve_traps {
            if let Some(trap) = self.c.pop_owed() {
                self.dispatch_grant(trap, ctx);
                return;
            }
        }
        // Pass the rotation onward (rule 4), possibly after an adaptive idle
        // hold.
        if self.c.pass_now(ctx) {
            self.send_rotation(ctx);
        }
    }

    fn send_rotation(&mut self, ctx: &mut Context<'_, BinaryMsg>) {
        let Some(holding) = self.c.holding.take() else {
            return;
        };
        let succ = holding.token.next_live_successor(ctx.topology(), ctx.id());
        self.ship_token(succ, holding.token, TokenMode::Rotate, ctx);
        self.maybe_restart_search(ctx);
    }

    /// Under single-outstanding throttling, queued requests never searched;
    /// once the token leaves and a request is still waiting, launch its
    /// search now.
    fn maybe_restart_search(&mut self, ctx: &mut Context<'_, BinaryMsg>) {
        if self.c.holding.is_none() {
            let needs_search = self.c.outstanding.front().is_some_and(|o| !o.route.started);
            if needs_search {
                self.start_search(0, ctx);
            }
        }
    }

    /// Rule 7: send the token to the trapped requester (optionally retracing
    /// the search trail to clean traps en route).
    fn dispatch_grant(&mut self, trap: Owed, ctx: &mut Context<'_, BinaryMsg>) {
        let Some(holding) = self.c.holding.take() else {
            return;
        };
        let me = ctx.id();
        let use_inverse = self.c.cfg.trap_cleanup == TrapCleanup::Inverse && trap.trail.len() > 1;
        if use_inverse {
            // trail = [origin, a, b, …]; reverse route: last → … → origin.
            let mut trail = trap.trail;
            let next = trail.pop().expect("trail.len() > 1");
            let mode = if trail.is_empty() {
                TokenMode::Grant {
                    for_req: trap.req,
                    return_to: me,
                }
            } else {
                TokenMode::CleanupHop {
                    for_req: trap.req,
                    return_to: me,
                    trail,
                }
            };
            self.ship_token(next, holding.token, mode, ctx);
        } else {
            self.ship_token(
                trap.origin,
                holding.token,
                TokenMode::Grant {
                    for_req: trap.req,
                    return_to: me,
                },
                ctx,
            );
        }
        self.maybe_restart_search(ctx);
    }

    /// After an out-of-band service completes: serve more locals if allowed,
    /// otherwise return the token to the interceptor (rule 8).
    fn after_out_of_band(&mut self, return_to: NodeId, ctx: &mut Context<'_, BinaryMsg>) {
        while self.c.cfg.serve_all_on_grant {
            let Some(out) = self.c.pop_local() else {
                break;
            };
            if !self.serve(out, Some(return_to), ctx) {
                return;
            }
        }
        let Some(holding) = self.c.holding.take() else {
            return;
        };
        if return_to == ctx.id() {
            // Degenerate single-node ring: resume rotation locally.
            self.c.holding = Some(holding);
            self.quota = self.c.outstanding.len();
            self.progress(ctx);
            return;
        }
        self.ship_token(return_to, holding.token, TokenMode::Return, ctx);
        self.maybe_restart_search(ctx);
    }

    fn handle_token(
        &mut self,
        frame: Box<TokenFrame>,
        mode: TokenMode,
        ctx: &mut Context<'_, BinaryMsg>,
    ) {
        match mode {
            TokenMode::Rotate => {
                if !self.take_token(frame, true, ctx) {
                    return;
                }
                if self.c.departed {
                    self.exclude_self_and_pass(ctx);
                    return;
                }
                self.quota = self.c.outstanding.len();
                self.progress(ctx);
            }
            TokenMode::Return => {
                if !self.take_token(frame, false, ctx) {
                    return;
                }
                if self.c.departed {
                    self.exclude_self_and_pass(ctx);
                    return;
                }
                self.quota = self.c.outstanding.len();
                self.progress_with(ctx, false);
            }
            TokenMode::Grant { for_req, return_to } => {
                if !self.take_token(frame, false, ctx) {
                    return;
                }
                let pos = self.c.outstanding.iter().position(|o| o.req == for_req);
                let out = pos.and_then(|pos| self.c.outstanding.remove(pos));
                release(&mut self.c.outstanding);
                // `None`: already served by rotation in the meantime, so
                // rule 8 degenerates to an immediate return.
                if out.is_none_or(|out| self.serve(out, Some(return_to), ctx)) {
                    self.after_out_of_band(return_to, ctx);
                }
            }
            TokenMode::CleanupHop {
                for_req,
                return_to,
                mut trail,
            } => {
                if !self.take_token(frame, false, ctx) {
                    return;
                }
                // Remove the trap this relay hop is meant to clean.
                self.c.owed.retain(|t| t.req != for_req);
                release(&mut self.c.owed);
                let holding = self.c.holding.take().expect("just possessed");
                let next = trail.pop().unwrap_or(return_to);
                let mode = if trail.is_empty() {
                    TokenMode::Grant { for_req, return_to }
                } else {
                    TokenMode::CleanupHop {
                        for_req,
                        return_to,
                        trail,
                    }
                };
                self.ship_token(next, holding.token, mode, ctx);
            }
        }
    }

    /// Rule 6's direction choice: clockwise if the requester's circulation
    /// history is a *proper* prefix of ours (the token passed us after
    /// passing the requester, so it lies ahead of us clockwise);
    /// counter-clockwise otherwise — including ties, which is the paper's
    /// `H ⊂_C H_z` branch read with a non-strict prefix (ties only occur
    /// before the first rotation completes, when both histories are empty).
    fn search_direction_cw(&self, origin_stamp: VisitStamp) -> bool {
        self.c.last_visit.is_fresher_than(origin_stamp)
    }

    fn handle_gimme(&mut self, g: Gimme, ctx: &mut Context<'_, BinaryMsg>) {
        if g.origin == ctx.id() {
            return; // a search message found its way home
        }
        if self.c.departed {
            // Relay without trapping: a departed node never intercepts.
            self.relay_gimme(g, ctx);
            return;
        }
        if let Some(h) = &self.c.holding {
            if h.token.is_satisfied(&g.req) {
                return;
            }
        }
        if !self.c.owes(g.req) {
            self.c.owed.push_back(Owed {
                origin: g.origin,
                req: g.req,
                attempt: 0,
                trail: g.trail.clone(),
            });
        }
        if self.c.holding.is_some() {
            // The search found the token: serve (FIFO order preserved).
            self.progress(ctx);
            return;
        }
        self.relay_gimme(g, ctx);
    }

    /// Sends a gimme on by half its last jump (rule 6), in the direction
    /// [`search_direction_cw`](Self::search_direction_cw) picks; a spent
    /// span ends the search here.
    fn relay_gimme(&mut self, g: Gimme, ctx: &mut Context<'_, BinaryMsg>) {
        let span = g.span / 2;
        if span == 0 {
            return;
        }
        let me = ctx.id();
        let next = if self.search_direction_cw(g.origin_stamp) {
            ctx.topology().plus(me, span as u64)
        } else {
            ctx.topology().minus(me, span as u64)
        };
        let mut trail = g.trail;
        trail.push(me);
        self.gimme_sends += 1;
        let req = g.req;
        let msg = BinaryMsg::Gimme(Gimme { span, trail, ..g });
        self.send_search(next, req, msg, ctx);
    }

    fn start_search(&mut self, req_index: usize, ctx: &mut Context<'_, BinaryMsg>) {
        let n = ctx.topology().len();
        if n <= 1 {
            return;
        }
        let me = ctx.id();
        let out = &mut self.c.outstanding[req_index];
        out.route.started = true;
        let span = (n as u64).div_ceil(2) as u32;
        let target = ctx.topology().across(me);
        let req = out.req;
        let stamp = out.route.stamp_at_request;
        self.gimme_sends += 1;
        let msg = BinaryMsg::Gimme(Gimme {
            origin: me,
            req,
            origin_stamp: stamp,
            span,
            trail: vec![me],
        });
        self.send_search(target, req, msg, ctx);
    }

    /// A departed node that ends up possessing the token passes it straight
    /// to its live successor, excluding itself first.
    fn exclude_self_and_pass(&mut self, ctx: &mut Context<'_, BinaryMsg>) {
        if let Some(h) = self.c.holding.as_mut() {
            h.token.exclude(ctx.id());
            h.state = HoldState::Idle;
        }
        self.send_rotation(ctx);
    }
}

impl Custodian for BinaryNode {
    type Route = Search;
    const CKPT: u8 = CKPT_BINARY;
    const LABEL: &'static str = "binary";

    fn custody(&self) -> &Custody<BinaryMsg, Search> {
        &self.c
    }

    fn custody_mut(&mut self) -> &mut Custody<BinaryMsg, Search> {
        &mut self.c
    }

    fn with_custody(mut c: Custody<BinaryMsg, Search>) -> Self {
        if c.cfg.test_bad_prefix_skip {
            c.order.enable_bad_prefix_skip();
        }
        BinaryNode {
            c,
            quota: 0,
            gimme_sends: 0,
        }
    }

    fn wrap(msg: RegenMsg) -> BinaryMsg {
        BinaryMsg::Regen(msg)
    }

    fn possess(&mut self, token: Box<TokenFrame>, ctx: &mut Context<'_, BinaryMsg>) {
        self.handle_token(token, TokenMode::Rotate, ctx);
    }

    fn enqueue(&mut self, req: RequestId, payload: u64, ctx: &mut Context<'_, BinaryMsg>) {
        self.c.outstanding.push_back(Outstanding {
            req,
            payload,
            made_at: ctx.now(),
            route: Search {
                stamp_at_request: self.c.last_visit,
                started: false,
            },
        });
        if let Some(h) = &self.c.holding {
            // Serve immediately if the token is parked here (idle hold).
            if !matches!(h.state, HoldState::Serving { .. }) {
                self.quota += 1;
                self.progress(ctx);
            }
            return;
        }
        let may_search = !self.c.cfg.single_outstanding || self.c.outstanding.len() == 1;
        if may_search {
            let idx = self.c.outstanding.len() - 1;
            self.start_search(idx, ctx);
        }
        if self.c.outstanding.len() == 1 {
            self.arm_regen_timer(ctx);
        }
    }

    fn depart(&mut self, ctx: &mut Context<'_, BinaryMsg>) {
        self.c.owed = VecDeque::new();
        if self.c.holding.is_some() {
            self.exclude_self_and_pass(ctx);
        }
    }

    /// A local critical section resumes the possession; an out-of-band one
    /// sends the token back to its interceptor (rule 8).
    fn resume(&mut self, return_to: Option<NodeId>, ctx: &mut Context<'_, BinaryMsg>) {
        match return_to {
            None => self.progress(ctx),
            Some(to) => self.after_out_of_band(to, ctx),
        }
    }

    /// Re-issues the front request's search: the original gimme may have
    /// been lost on the cheap channel, or died with the old token. The
    /// halving search has no use for a holder hint.
    fn redrive(&mut self, _hint: Option<NodeId>, ctx: &mut Context<'_, BinaryMsg>) {
        if let Some(front) = self.c.outstanding.front_mut() {
            front.route.started = false;
        }
        self.maybe_restart_search(ctx);
    }

    /// Unlike the lazy protocols, a departed peer's traps stay: the token
    /// granted to it comes straight back (rule 8).
    fn forget_peer(&mut self, _peer: NodeId) {}
}

impl Node for BinaryNode {
    type Msg = BinaryMsg;
    type Ext = Want;

    fn on_init(&mut self, ctx: &mut Context<'_, BinaryMsg>) {
        self.init(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: BinaryMsg, ctx: &mut Context<'_, BinaryMsg>) {
        match msg {
            BinaryMsg::Token { frame, mode } => {
                if self.token_arrived(from, &frame, ctx) {
                    self.handle_token(frame, mode, ctx);
                }
            }
            BinaryMsg::Gimme(g) => self.handle_gimme(g, ctx),
            BinaryMsg::DirectedProbe { .. }
            | BinaryMsg::DirectedReply { .. }
            | BinaryMsg::ProbeReq { .. }
            | BinaryMsg::ProbeHit { .. } => {}
            BinaryMsg::Regen(m) => self.handle_regen(from, m, ctx),
        }
    }

    fn on_external(&mut self, ev: Want, ctx: &mut Context<'_, BinaryMsg>) {
        self.want(ev, ctx);
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, BinaryMsg>) {
        if kind != TIMER_PASS {
            self.custody_timer(kind, ctx);
        } else if self.c.pass_due() {
            // Locals that arrived mid-service have no quota: they wait for
            // the next possession (fairness), so the token rotates on
            // instead of re-arming the hold beside them forever.
            if self.c.owed.is_empty() && (self.c.outstanding.is_empty() || self.quota == 0) {
                self.send_rotation(ctx);
            } else {
                self.progress(ctx);
            }
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, BinaryMsg>) {
        self.recover(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventSource, TokenNode};
    use atp_net::{Harness, LinkFaults, MsgClass, SimTime, Topology, World, WorldConfig};

    fn world(n: usize, cfg: ProtocolConfig) -> World<BinaryNode> {
        World::from_nodes(
            (0..n).map(|_| BinaryNode::new(cfg)).collect(),
            WorldConfig::default(),
        )
    }

    fn drain_all(w: &mut World<BinaryNode>) -> Vec<TokenEvent> {
        let mut out = Vec::new();
        for i in 0..w.len() {
            out.extend(w.node_mut(NodeId::new(i as u32)).take_events());
        }
        out.sort_by_key(|e| e.at());
        out
    }

    fn total_grants(w: &World<BinaryNode>) -> u64 {
        (0..w.len())
            .map(|i| w.node(NodeId::new(i as u32)).grants())
            .sum()
    }

    #[test]
    fn token_rotates_when_idle() {
        let mut w = world(8, ProtocolConfig::default());
        w.run_until(SimTime::from_ticks(100));
        let sends: u64 = (0..8).map(|i| w.node(NodeId::new(i)).token_sends()).sum();
        assert!((95..=101).contains(&sends), "sends = {sends}");
    }

    #[test]
    fn single_request_served_quickly() {
        // N = 64: rotation alone would take up to 64 delays; the binary
        // search must beat that decisively from the far side of the ring.
        let mut w = world(64, ProtocolConfig::default());
        // Token starts at 0 rotating; at t=10 it's around node 10. Node 40
        // requests: distance ~30 ahead — rotation alone would take ~30.
        w.schedule_external(SimTime::from_ticks(10), NodeId::new(40), Want::new(1));
        w.run_until(SimTime::from_ticks(40));
        let events = drain_all(&mut w);
        let granted_at = events
            .iter()
            .find_map(|e| match e {
                TokenEvent::Granted { at, .. } => Some(*at),
                _ => None,
            })
            .expect("granted");
        let delay = granted_at.since(SimTime::from_ticks(10));
        assert!(
            delay <= 16,
            "binary search should grant in O(log N) ≈ 6–12 delays, got {delay}"
        );
    }

    #[test]
    fn request_forwarded_o_log_n_times() {
        // Lemma 6: each request is forwarded O(log N) times.
        let mut w = world(128, ProtocolConfig::default());
        w.schedule_external(SimTime::from_ticks(5), NodeId::new(70), Want::new(1));
        w.run_until(SimTime::from_ticks(60));
        let search_msgs = w.stats().sent(MsgClass::Control);
        assert!(
            search_msgs <= 9,
            "log2(128) = 7 forwards expected, got {search_msgs}"
        );
        assert_eq!(total_grants(&w), 1);
    }

    #[test]
    fn token_returns_to_interceptor_after_grant() {
        let mut w = world(16, ProtocolConfig::default());
        w.schedule_external(SimTime::from_ticks(3), NodeId::new(9), Want::new(1));
        w.run_until(SimTime::from_ticks(200));
        // After the grant the token must keep rotating (everyone keeps
        // seeing it). All 16 nodes have fresh-ish stamps.
        let stamps: Vec<u64> = (0..16)
            .map(|i| w.node(NodeId::new(i)).last_visit().value())
            .collect();
        let max = *stamps.iter().max().unwrap();
        for (i, s) in stamps.iter().enumerate() {
            assert!(
                max - s <= 20,
                "node {i} starved of rotation: stamp {s} vs max {max}"
            );
        }
    }

    #[test]
    fn prefix_property_under_load() {
        let mut w = world(12, ProtocolConfig::default());
        for t in 0..60 {
            w.schedule_external(
                SimTime::from_ticks(t * 2),
                NodeId::new((7 * t % 12) as u32),
                Want::new(t),
            );
        }
        w.run_until(SimTime::from_ticks(600));
        assert_eq!(total_grants(&w), 60);
        let nodes: Vec<_> = (0..12).map(|i| w.node(NodeId::new(i))).collect();
        for a in &nodes {
            for b in &nodes {
                assert!(
                    a.order().is_prefix_of(b.order()) || b.order().is_prefix_of(a.order()),
                    "prefix property violated"
                );
            }
        }
    }

    #[test]
    fn saturated_load_serves_everyone_each_round() {
        // All nodes request simultaneously; the token should sweep the ring
        // granting each in turn (throughput of the plain ring is preserved).
        let mut w = world(10, ProtocolConfig::default());
        for i in 0..10 {
            w.schedule_external(SimTime::ZERO, NodeId::new(i), Want::new(i as u64));
        }
        w.run_until(SimTime::from_ticks(100));
        for i in 0..10 {
            assert_eq!(w.node(NodeId::new(i)).grants(), 1, "node {i}");
        }
    }

    #[test]
    fn dropped_search_messages_cost_performance_not_safety() {
        let cfg = ProtocolConfig::default();
        let mut w: World<BinaryNode> = World::from_nodes(
            (0..8).map(|_| BinaryNode::new(cfg)).collect(),
            WorldConfig::default().link_faults(LinkFaults::control_drops(1.0)),
        );
        w.schedule_external(SimTime::from_ticks(1), NodeId::new(5), Want::new(9));
        w.run_until(SimTime::from_ticks(40));
        // All gimmes lost: the rotating token still reaches node 5 within N.
        assert_eq!(total_grants(&w), 1);
        let events = drain_all(&mut w);
        let granted_at = events
            .iter()
            .find_map(|e| match e {
                TokenEvent::Granted { at, .. } => Some(*at),
                _ => None,
            })
            .unwrap();
        assert!(granted_at.since(SimTime::from_ticks(1)) <= 8);
    }

    #[test]
    fn inverse_cleanup_clears_traps_en_route() {
        let cfg = ProtocolConfig::default().with_trap_cleanup(TrapCleanup::Inverse);
        let mut w = world(32, cfg);
        w.schedule_external(SimTime::from_ticks(4), NodeId::new(20), Want::new(1));
        w.run_until(SimTime::from_ticks(200));
        assert_eq!(total_grants(&w), 1);
        // All traps for the satisfied request are gone.
        let traps: usize = (0..32).map(|i| w.node(NodeId::new(i)).trap_count()).sum();
        assert_eq!(traps, 0, "inverse cleanup should leave no stale traps");
    }

    #[test]
    fn rotation_cleanup_eventually_clears_stale_traps() {
        let cfg = ProtocolConfig::default(); // rotation cleanup
        let mut w = world(16, cfg);
        w.schedule_external(SimTime::from_ticks(2), NodeId::new(9), Want::new(1));
        // Give the token two full rounds to sweep traps away.
        w.run_until(SimTime::from_ticks(100));
        let traps: usize = (0..16).map(|i| w.node(NodeId::new(i)).trap_count()).sum();
        assert_eq!(traps, 0);
    }

    #[test]
    fn single_outstanding_throttles_searches() {
        let cfg = ProtocolConfig::default().with_single_outstanding(true);
        let mut w = world(32, cfg);
        for k in 0..6 {
            w.schedule_external(SimTime::from_ticks(k), NodeId::new(20), Want::new(k));
        }
        w.run_until(SimTime::from_ticks(400));
        assert_eq!(w.node(NodeId::new(20)).grants(), 6);
        // The paper's claim: gimme messages never exceed token messages.
        let control = w.stats().sent(MsgClass::Control);
        let token = w.stats().sent(MsgClass::Token);
        assert!(
            control <= token,
            "searches ({control}) must not outnumber token passes ({token})"
        );
        // And the throttle really bites: an unthrottled run sends more.
        let mut w2 = world(32, ProtocolConfig::default());
        for k in 0..6 {
            w2.schedule_external(SimTime::from_ticks(k), NodeId::new(20), Want::new(k));
        }
        w2.run_until(SimTime::from_ticks(400));
        assert!(w2.stats().sent(MsgClass::Control) >= control);
    }

    /// The four retired wire words still decode, so a node can receive one:
    /// it drops it, sending nothing, arming no timer and changing no state.
    #[test]
    fn retired_wire_words_are_dropped() {
        let cfg = ProtocolConfig::default().with_regeneration(40);
        let (me, peer) = (NodeId::new(3), NodeId::new(6));
        let mut h = Harness::new(me, Topology::ring(8), BinaryNode::new(cfg), 1);
        h.init(SimTime::ZERO);
        // State to keep: a request of its own under search (its first,
        // sequence 1), and a trap. A directed reply or a probe once answered
        // exactly this state.
        h.external(SimTime::from_ticks(1), Want::new(7));
        let theirs = RequestId::new(peer, 1);
        let gimme = Gimme {
            origin: peer,
            req: theirs,
            origin_stamp: VisitStamp::NEVER,
            span: 2,
            trail: vec![peer],
        };
        h.deliver(SimTime::from_ticks(2), peer, BinaryMsg::Gimme(gimme));
        assert_eq!(h.node().trap_count(), 1);
        assert!(!h.take_outbound().is_empty());
        assert!(!h.take_timers().is_empty());
        let before = format!("{:?}", h.node());
        let retired = [
            BinaryMsg::DirectedProbe {
                origin: peer,
                req: theirs,
                span: 4,
            },
            BinaryMsg::DirectedReply {
                probed: peer,
                stamp: VisitStamp(5),
                req: RequestId::new(me, 1),
                span: 4,
            },
            BinaryMsg::ProbeReq {
                holder: peer,
                span: 4,
            },
            BinaryMsg::ProbeHit {
                origin: peer,
                req: theirs,
            },
        ];
        for msg in retired {
            let label = format!("{msg:?}");
            h.deliver(SimTime::from_ticks(3), peer, msg);
            assert!(h.take_outbound().is_empty(), "{label} sent a message");
            assert!(h.take_timers().is_empty(), "{label} armed a timer");
            assert_eq!(format!("{:?}", h.node()), before, "{label} changed state");
        }
    }

    #[test]
    fn crash_of_holder_regenerates_and_liveness_returns() {
        let cfg = ProtocolConfig::default()
            .with_service_ticks(6)
            .with_regeneration(30);
        let mut w = world(6, cfg);
        w.schedule_external(SimTime::ZERO, NodeId::new(3), Want::new(1));
        w.run_until(SimTime::from_ticks(5));
        assert!(w.node(NodeId::new(3)).holds_token());
        let t = w.now();
        w.schedule_crash(t, NodeId::new(3));
        w.schedule_external(t + 2, NodeId::new(1), Want::new(2));
        w.run_until(SimTime::from_ticks(600));
        assert_eq!(w.node(NodeId::new(1)).grants(), 1);
        let events = drain_all(&mut w);
        assert!(events
            .iter()
            .any(|e| matches!(e, TokenEvent::Regenerated { .. })));
    }

    #[test]
    fn adaptive_speed_parks_token_and_request_wakes_it() {
        let cfg = ProtocolConfig::default()
            .with_adaptive_speed(true)
            .with_max_idle_pass_ticks(64);
        let mut w = world(8, cfg);
        w.run_until(SimTime::from_ticks(500));
        let slow_sends: u64 = (0..8).map(|i| w.node(NodeId::new(i)).token_sends()).sum();
        assert!(slow_sends < 400, "token should have slowed: {slow_sends}");
        // A request still gets served promptly (trap intercepts the parked
        // token or the search finds the holder).
        let t = w.now();
        w.schedule_external(t, NodeId::new(4), Want::new(1));
        w.run_for(100);
        assert_eq!(total_grants(&w), 1);
    }

    /// The second request reaches the holder mid-service, so this possession
    /// has no quota left for it. With an idle hold, the pass timer must
    /// rotate the token on (the request then searches for it) rather than
    /// re-arm the hold beside the parked request forever.
    #[test]
    fn request_queued_mid_service_is_served_despite_the_idle_hold() {
        let cfg = ProtocolConfig::default()
            .with_service_ticks(1)
            .with_idle_pass_ticks(2);
        let mut w = world(2, cfg);
        for k in 0..2 {
            w.schedule_external(SimTime::ZERO, NodeId::new(0), Want::new(k));
        }
        w.run_until(SimTime::from_ticks(1_000));
        assert_eq!(total_grants(&w), 2);
    }

    #[test]
    fn fairness_no_node_monopolizes_while_another_waits() {
        // Theorem 3 flavor: node 2 hogs (requests continuously), node 6
        // requests once; node 6 must be served within a bounded number of
        // node-2 grants.
        let cfg = ProtocolConfig::default().with_service_ticks(1);
        let mut w = world(8, cfg);
        for k in 0..40 {
            w.schedule_external(SimTime::from_ticks(k * 2), NodeId::new(2), Want::new(k));
        }
        w.schedule_external(SimTime::from_ticks(11), NodeId::new(6), Want::new(99));
        w.run_until(SimTime::from_ticks(400));
        let events = drain_all(&mut w);
        let six_granted = events
            .iter()
            .find_map(|e| match e {
                TokenEvent::Granted { req, at } if req.origin == NodeId::new(6) => Some(*at),
                _ => None,
            })
            .expect("node 6 served");
        let hog_grants_before: usize = events
            .iter()
            .filter(|e| {
                matches!(e, TokenEvent::Granted { req, at }
                    if req.origin == NodeId::new(2)
                        && *at >= SimTime::from_ticks(11)
                        && *at <= six_granted)
            })
            .count();
        assert!(
            hog_grants_before <= 8,
            "hog served {hog_grants_before} times while node 6 waited"
        );
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut w = world(9, ProtocolConfig::default());
            for t in 0..30 {
                w.schedule_external(
                    SimTime::from_ticks(t * 3),
                    NodeId::new((5 * t % 9) as u32),
                    Want::new(t),
                );
            }
            w.run_until(SimTime::from_ticks(300));
            drain_all(&mut w)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn two_node_ring_works() {
        let mut w = world(2, ProtocolConfig::default());
        w.schedule_external(SimTime::from_ticks(1), NodeId::new(1), Want::new(1));
        w.run_until(SimTime::from_ticks(20));
        assert_eq!(total_grants(&w), 1);
    }

    #[test]
    fn single_node_ring_degenerates_gracefully() {
        let mut w = world(1, ProtocolConfig::default());
        w.schedule_external(SimTime::from_ticks(1), NodeId::new(0), Want::new(1));
        w.run_until(SimTime::from_ticks(10));
        assert_eq!(total_grants(&w), 1);
    }
}
