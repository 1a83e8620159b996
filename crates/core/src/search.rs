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
//!
//! Token custody (possession, handoff, Section 5) is the shared
//! [core](crate::custody); this file is rules 5–7: the gimme walk and the
//! traps.

use std::collections::VecDeque;

use atp_net::{Context, MsgClass, Node, NodeId};

use crate::checkpoint::CKPT_SEARCH;
use crate::config::ProtocolConfig;
use crate::custody::{Custodian, Custody, Outstanding, TIMER_SERVICE};
use crate::event::{TokenEvent, Want};
use crate::regen::RegenMsg;
use crate::token::TokenFrame;
use crate::types::RequestId;

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

#[derive(Debug, Clone, Copy)]
struct Trap {
    origin: NodeId,
    req: RequestId,
}

/// What a lazy-token node is doing with the token it holds.
#[derive(Debug, Default)]
pub enum HoldState {
    /// Parked, free to serve or dispatch.
    #[default]
    Idle,
    /// Mid-service: timer will fire after the critical section.
    Serving {
        /// The request in its critical section.
        req: RequestId,
        /// Its datum.
        payload: u64,
    },
}

/// One node of the lazy-token linear-search protocol.
#[derive(Debug)]
pub struct SearchNode {
    c: Custody<SearchMsg, HoldState>,
    traps: VecDeque<Trap>,
    gimme_sends: u64,
}

impl SearchNode {
    /// Creates a node with the given configuration.
    pub fn new(cfg: ProtocolConfig) -> Self {
        Self::with_custody(Custody::new(cfg))
    }

    /// Traps currently set at this node.
    pub fn trap_count(&self) -> usize {
        self.traps.len()
    }

    /// Gimme messages sent or forwarded by this node.
    pub fn gimme_sends(&self) -> u64 {
        self.gimme_sends
    }

    /// Sends one gimme hop for `req` and records it in the event stream
    /// (the span instrumentation behind per-request forward counts).
    /// `SearchMsg` has no binary codec, so the wire size is the analytic
    /// size of a Gimme: tag 1 + origin 4 + [`RequestId`] 12 + hops 4 = 21
    /// bytes.
    fn send_gimme(
        &mut self,
        to: NodeId,
        origin: NodeId,
        req: RequestId,
        hops: u32,
        ctx: &mut Context<'_, SearchMsg>,
    ) {
        const GIMME_WIRE_BYTES: u64 = 21;
        self.gimme_sends += 1;
        self.c.events.push(TokenEvent::SearchForwarded {
            req,
            bytes: GIMME_WIRE_BYTES,
            at: ctx.now(),
        });
        ctx.send(
            to,
            SearchMsg::Gimme { origin, req, hops },
            MsgClass::Control,
        );
    }

    /// Relays a gimme to the cyclic neighbour (rule 6 restricted) unless it
    /// has walked the whole ring.
    fn forward_gimme(
        &mut self,
        origin: NodeId,
        req: RequestId,
        hops: u32,
        ctx: &mut Context<'_, SearchMsg>,
    ) {
        if ((hops + 1) as usize) < ctx.topology().len() {
            let next = ctx.topology().successor(ctx.id());
            self.send_gimme(next, origin, req, hops + 1, ctx);
        }
    }

    /// Ships a token frame, recording the dispatch when it serves a request.
    fn ship_token(
        &mut self,
        to: NodeId,
        frame: Box<TokenFrame>,
        grant_for: Option<RequestId>,
        ctx: &mut Context<'_, SearchMsg>,
    ) {
        if let Some(req) = grant_for {
            // Analytic wire size: tag 1 + frame + grant_for option tag 1 +
            // RequestId 12.
            self.c.events.push(TokenEvent::TokenDispatched {
                req,
                bytes: 14 + frame.encoded_len() as u64,
                at: ctx.now(),
            });
        }
        self.ship(
            to,
            frame,
            |_, frame| SearchMsg::Token { frame, grant_for },
            ctx,
        );
    }

    /// Pops the first trap whose request the held token has not satisfied.
    fn next_trap(&mut self) -> Option<Trap> {
        let token = &self.c.holding.as_ref()?.token;
        while let Some(trap) = self.traps.pop_front() {
            if !token.is_satisfied(&trap.req) {
                return Some(trap);
            }
        }
        None
    }

    /// Sends the held token to a trapped requester if any, otherwise to the
    /// next live successor (used by departing holders).
    fn hand_off(&mut self, ctx: &mut Context<'_, SearchMsg>) {
        if let Some(trap) = self.next_trap() {
            self.dispatch_token(trap, ctx);
            return;
        }
        let Some(holding) = self.c.holding.take() else {
            return;
        };
        let succ = holding.token.next_live_successor(ctx.topology(), ctx.id());
        self.ship_token(succ, holding.token, None, ctx);
    }

    /// Serve local requests, then a trapped requester. The lazy token has no
    /// rounds to GC by, and a node may go arbitrarily long between
    /// possessions — so, exactly as in the paper's Figure 6 where the token
    /// message carries the complete history H, the carried window is left
    /// unbounded. (The rotating protocols bound it by round counters.)
    fn progress(&mut self, ctx: &mut Context<'_, SearchMsg>) {
        loop {
            let Some(holding) = self.c.holding.as_mut() else {
                return;
            };
            match holding.state {
                HoldState::Serving { .. } => return,
                HoldState::Idle => {
                    if let Some(out) = self.c.outstanding.pop_front() {
                        self.c.grants += 1;
                        self.c.events.push(TokenEvent::Granted {
                            req: out.req,
                            at: ctx.now(),
                        });
                        if self.c.cfg.service_ticks == 0 {
                            self.finish_service(out.req, out.payload, ctx);
                            continue;
                        }
                        holding.state = HoldState::Serving {
                            req: out.req,
                            payload: out.payload,
                        };
                        ctx.set_timer(self.c.cfg.service_ticks, TIMER_SERVICE);
                        return;
                    }
                    // Serve trapped requesters, skipping satisfied traps.
                    if let Some(trap) = self.next_trap() {
                        self.dispatch_token(trap, ctx);
                    }
                    // Otherwise: lazy — keep holding silently.
                    return;
                }
            }
        }
    }

    fn dispatch_token(&mut self, trap: Trap, ctx: &mut Context<'_, SearchMsg>) {
        let Some(holding) = self.c.holding.take() else {
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
            self.send_gimme(trap.origin, t.origin, t.req, 1, ctx);
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
        if let Some(h) = &self.c.holding {
            if h.token.is_satisfied(&req) {
                return;
            }
        }
        if self.c.departed {
            // Relay without trapping.
            self.forward_gimme(origin, req, hops, ctx);
            return;
        }
        if !self.traps.iter().any(|t| t.req == req) {
            self.traps.push_back(Trap { origin, req });
        }
        if self.c.holding.is_some() {
            self.progress(ctx);
        } else {
            self.forward_gimme(origin, req, hops, ctx);
        }
    }
}

impl Custodian for SearchNode {
    type Hold = HoldState;
    type Route = ();
    const CKPT: u8 = CKPT_SEARCH;

    fn custody(&self) -> &Custody<SearchMsg, HoldState> {
        &self.c
    }

    fn custody_mut(&mut self) -> &mut Custody<SearchMsg, HoldState> {
        &mut self.c
    }

    fn with_custody(c: Custody<SearchMsg, HoldState>) -> Self {
        SearchNode {
            c,
            traps: VecDeque::new(),
            gimme_sends: 0,
        }
    }

    fn wrap(msg: RegenMsg) -> SearchMsg {
        SearchMsg::Regen(msg)
    }

    fn possess(&mut self, token: Box<TokenFrame>, ctx: &mut Context<'_, SearchMsg>) {
        let Some(token) = self.take_possession(token, false, ctx) else {
            return;
        };
        // Purge traps whose requests were satisfied elsewhere; without this
        // the lingering copies left along every gimme walk accumulate
        // forever under sustained load.
        if !self.traps.is_empty() {
            self.traps.retain(|t| !token.is_satisfied(&t.req));
        }
        if self.hold(token, ctx) {
            self.progress(ctx);
        } else {
            // Departed: hand the lazy token to someone still in the group.
            self.hand_off(ctx);
        }
    }

    fn enqueue(&mut self, req: RequestId, payload: u64, ctx: &mut Context<'_, SearchMsg>) {
        self.c.outstanding.push_back(Outstanding {
            req,
            payload,
            made_at: ctx.now(),
            route: (),
        });
        if self.c.holding.is_some() {
            self.progress(ctx);
            return;
        }
        if !self.c.cfg.single_outstanding || self.c.outstanding.len() == 1 {
            let next = ctx.topology().successor(ctx.id());
            self.send_gimme(next, ctx.id(), req, 1, ctx);
        }
        if self.c.outstanding.len() == 1 {
            self.arm_regen_timer(ctx);
        }
    }

    fn depart(&mut self, ctx: &mut Context<'_, SearchMsg>) {
        if let Some(h) = self.c.holding.as_mut() {
            h.token.exclude(ctx.id());
            if matches!(h.state, HoldState::Idle) {
                self.hand_off(ctx);
            }
        }
    }

    /// Re-issues the front request's gimme — either straight at a known
    /// holder (inquiry hint) or as a fresh walk. Doubles as retransmission
    /// for gimmes lost on the cheap channel.
    fn redrive(&mut self, holder_hint: Option<NodeId>, ctx: &mut Context<'_, SearchMsg>) {
        if self.c.holding.is_some() {
            return;
        }
        let Some(front) = self.c.outstanding.front() else {
            return;
        };
        let req = front.req;
        let me = ctx.id();
        let to = holder_hint.unwrap_or_else(|| ctx.topology().successor(me));
        self.send_gimme(to, me, req, 1, ctx);
    }

    fn forget_peer(&mut self, peer: NodeId) {
        self.traps.retain(|t| t.origin != peer);
    }

    fn forget_routes(&mut self) {
        self.traps.clear();
    }
}

impl Node for SearchNode {
    type Msg = SearchMsg;
    type Ext = Want;

    fn on_init(&mut self, ctx: &mut Context<'_, SearchMsg>) {
        self.init(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: SearchMsg, ctx: &mut Context<'_, SearchMsg>) {
        match msg {
            SearchMsg::Token { frame, .. } => {
                if self.token_arrived(from, &frame, ctx) {
                    self.possess(frame, ctx);
                }
            }
            SearchMsg::Gimme { origin, req, hops } => self.handle_gimme(origin, req, hops, ctx),
            SearchMsg::Regen(m) => self.handle_regen(from, m, ctx),
        }
    }

    fn on_external(&mut self, ev: Want, ctx: &mut Context<'_, SearchMsg>) {
        self.want(ev, ctx);
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, SearchMsg>) {
        match kind {
            TIMER_SERVICE => {
                let Some(holding) = self.c.holding.as_mut() else {
                    return;
                };
                if let HoldState::Serving { req, payload } = holding.state {
                    holding.state = HoldState::Idle;
                    self.finish_service(req, payload, ctx);
                    self.progress(ctx);
                }
            }
            _ => self.custody_timer(kind, ctx),
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, SearchMsg>) {
        self.recover(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TokenNode;
    use atp_net::{LinkFaults, SimTime, World, WorldConfig};

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
