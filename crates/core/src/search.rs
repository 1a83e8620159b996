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
//! Token custody (possession, handoff, Section 5) and the lazy dispatch flow
//! are the shared [core](crate::custody); this file is rules 5–6: the gimme
//! walk that sets the traps.

use atp_net::{Context, Node, NodeId};

use crate::checkpoint::CKPT_SEARCH;
use crate::config::ProtocolConfig;
use crate::custody::{Custodian, Custody, Lazy, Outstanding, Owed};
use crate::event::Want;
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

/// One node of the lazy-token linear-search protocol.
#[derive(Debug)]
pub struct SearchNode {
    c: Custody<SearchMsg>,
    gimme_sends: u64,
}

impl SearchNode {
    /// Creates a node with the given configuration.
    pub fn new(cfg: ProtocolConfig) -> Self {
        Self::with_custody(Custody::new(cfg))
    }

    /// Traps currently set at this node.
    pub fn trap_count(&self) -> usize {
        self.c.owed.len()
    }

    /// Gimme messages sent or forwarded by this node.
    pub fn gimme_sends(&self) -> u64 {
        self.gimme_sends
    }

    /// Sends one gimme hop for `req` and records it in the event stream
    /// (the span instrumentation behind per-request forward counts).
    fn send_gimme(
        &mut self,
        to: NodeId,
        origin: NodeId,
        req: RequestId,
        hops: u32,
        ctx: &mut Context<'_, SearchMsg>,
    ) {
        self.gimme_sends += 1;
        let gimme = SearchMsg::Gimme { origin, req, hops };
        self.send_search(to, req, gimme, ctx);
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
        if !self.c.owes(req) {
            self.c.owed.push_back(Owed {
                origin,
                req,
                attempt: 0,
                trail: Vec::new(),
            });
        }
        if self.c.holding.is_some() {
            self.progress(ctx);
        } else {
            self.forward_gimme(origin, req, hops, ctx);
        }
    }
}

impl Lazy for SearchNode {
    fn token_msg(frame: Box<TokenFrame>, grant_for: Option<RequestId>) -> SearchMsg {
        SearchMsg::Token { frame, grant_for }
    }

    /// A trap left behind re-walks from the new holder as a fresh gimme.
    fn chase(&mut self, holder: NodeId, owed: Owed, ctx: &mut Context<'_, SearchMsg>) {
        self.send_gimme(holder, owed.origin, owed.req, 1, ctx);
    }
}

impl Custodian for SearchNode {
    type Route = ();
    const CKPT: u8 = CKPT_SEARCH;
    const LABEL: &'static str = "search";

    fn custody(&self) -> &Custody<SearchMsg> {
        &self.c
    }

    fn custody_mut(&mut self) -> &mut Custody<SearchMsg> {
        &mut self.c
    }

    fn with_custody(c: Custody<SearchMsg>) -> Self {
        SearchNode { c, gimme_sends: 0 }
    }

    fn wrap(msg: RegenMsg) -> SearchMsg {
        SearchMsg::Regen(msg)
    }

    fn possess(&mut self, token: Box<TokenFrame>, ctx: &mut Context<'_, SearchMsg>) {
        if let Some(token) = self.take_possession(token, false, ctx) {
            self.keep(token, ctx);
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
        self.depart_holding(ctx);
    }

    fn resume(&mut self, _return_to: Option<NodeId>, ctx: &mut Context<'_, SearchMsg>) {
        self.progress(ctx);
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
        self.custody_timer(kind, ctx);
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, SearchMsg>) {
        self.recover(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TokenNode;
    use atp_net::{LinkFaults, MsgClass, SimTime, World, WorldConfig};

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

    #[test]
    fn sync_reply_run_that_is_not_increasing_is_dropped() {
        use crate::order::HistoryDigest;
        use crate::regen::RegenMsg;
        use crate::types::LogEntry;
        let cfg = ProtocolConfig::default();
        assert!(cfg.record_log);
        let mut h = atp_net::Harness::new(
            NodeId::new(3),
            atp_net::Topology::ring(4),
            SearchNode::new(cfg),
            1,
        );
        h.init(SimTime::ZERO);
        let entry = |seq| LogEntry {
            seq,
            origin: NodeId::new(0),
            payload: seq * 10,
            round: 0,
        };
        let reply = |seqs: &[u64]| {
            SearchMsg::Regen(RegenMsg::SyncReply {
                entries: seqs.iter().map(|&s| entry(s)).collect(),
            })
        };
        h.deliver(SimTime::from_ticks(1), NodeId::new(0), reply(&[1, 2, 2]));
        let order = h.node().order();
        assert_eq!(
            (order.applied_seq(), order.digest()),
            (0, HistoryDigest::EMPTY)
        );
        assert!(order.log().is_empty());
        // The well-formed run that follows applies as if nothing came before.
        h.deliver(SimTime::from_ticks(2), NodeId::new(0), reply(&[1, 2]));
        let order = h.node().order();
        let prefix = HistoryDigest::EMPTY.chain(&entry(1)).chain(&entry(2));
        assert_eq!((order.applied_seq(), order.digest()), (2, prefix));
    }
}
