//! Naimi–Tréhel path-reversal mutual exclusion: dynamic tree + lazy token.
//!
//! Every node keeps a `last` pointer naming the *probable owner* of the
//! token. A requester sends a single Request toward `last` and clears the
//! pointer; each node that relays the Request redirects its own `last` at
//! the requester — the "path reversal" that keeps the tree's average depth
//! O(log N) (Lavault's analysis). The node at the end of the chain either
//! ships the idle token directly or records the requester as its `next`
//! (here: the custody core's owed queue, so bursts and fault-time resends
//! cannot strand anyone). Token custody — handoff, duplicate suppression,
//! regeneration, generation fencing — and the lazy dispatch flow are the
//! shared [core](crate::custody), so this file is path reversal only, and
//! the transport layer does not know a new protocol exists.
//!
//! Unlike System Search's gimme walk (O(N) hops along the ring), the
//! request here follows `last` pointers, so the hop count per request is
//! the depth of the dynamic tree: O(log N) on average. This is the
//! standard competitor the paper's BinarySearch must beat on worst-case
//! responsiveness while matching on average cost.

use std::collections::BTreeMap;

use atp_net::{Context, Node, NodeId};

use crate::checkpoint::CKPT_NAIMI;
use crate::config::ProtocolConfig;
use crate::custody::{Custodian, Custody, HoldState, Lazy, Outstanding, Owed};
use crate::event::Want;
use crate::regen::RegenMsg;
use crate::token::TokenFrame;
use crate::types::RequestId;

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

/// One node of the Naimi–Tréhel path-reversal protocol.
///
/// Classic Naimi–Tréhel's `next` pointer is the custody core's owed queue,
/// so fault-time resends cannot overwrite it.
#[derive(Debug)]
pub struct NaimiNode {
    c: Custody<NaimiMsg>,
    /// Probable owner (`last`). `None` means this node believes itself to
    /// be the root: it holds the token or sits at the tail of the chain.
    last: Option<NodeId>,
    /// Per-origin high-water mark of processed requests, `(seq, attempt)`.
    /// Requests travel on the cheap channel, which link faults may
    /// duplicate; without this filter a stale duplicate could re-enter the
    /// tree after its request was served and corrupt the successor queue.
    seen: BTreeMap<NodeId, (u64, u32)>,
    /// Resend counter for the current front acquisition.
    attempt: u32,
    request_sends: u64,
}

impl NaimiNode {
    /// Creates a node with the given configuration.
    pub fn new(cfg: ProtocolConfig) -> Self {
        Self::with_custody(Custody::new(cfg))
    }

    /// The probable-owner pointer (`last`), for tests.
    pub fn probable_owner(&self) -> Option<NodeId> {
        self.last
    }

    /// Request messages sent or forwarded by this node.
    pub fn request_sends(&self) -> u64 {
        self.request_sends
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
        let request = NaimiMsg::Request {
            origin,
            req,
            attempt,
            hops,
        };
        self.send_search(to, req, request, ctx);
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
        if let Some(h) = &self.c.holding {
            if h.token.is_satisfied(&req) {
                return; // stale resend of an already-served request
            }
        }
        if self.c.departed {
            // Relay toward the probable owner without adopting pointers: a
            // departed node is no longer part of the tree.
            if let Some(l) = self.last {
                if (hops as usize) < ctx.topology().len() * 2 {
                    self.send_request(l, origin, req, attempt, hops + 1, ctx);
                }
            } else if self
                .c
                .holding
                .as_ref()
                .is_some_and(|h| matches!(h.state, HoldState::Idle))
            {
                let holding = self.c.holding.take().expect("just checked");
                self.send_token(origin, holding.token, Some(req), ctx);
            }
            return;
        }
        if self.c.holding.is_some() {
            // We are the root with the token: serve now or queue as
            // successor; either way the requester becomes the new probable
            // owner for future requests.
            self.c.owed.push_back(Owed {
                origin,
                req,
                attempt,
                trail: Vec::new(),
            });
            self.last = Some(origin);
            self.progress(ctx);
            return;
        }
        match self.last {
            None => {
                // Tail of the chain (requesting, or an orphaned root after
                // a fault): the requester becomes our successor.
                self.c.owed.push_back(Owed {
                    origin,
                    req,
                    attempt,
                    trail: Vec::new(),
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
}

impl Lazy for NaimiNode {
    fn token_msg(frame: Box<TokenFrame>, grant_for: Option<RequestId>) -> NaimiMsg {
        NaimiMsg::Token { frame, grant_for }
    }

    /// Classic Naimi–Tréhel holds at most one `next`; extra entries only
    /// accumulate under faults (resends that raced a heal). They chase the
    /// token to its new holder — re-queued there or forwarded on — with the
    /// attempt bumped so the duplicate filter lets them pass.
    fn chase(&mut self, holder: NodeId, owed: Owed, ctx: &mut Context<'_, NaimiMsg>) {
        self.send_request(holder, owed.origin, owed.req, owed.attempt + 1, 1, ctx);
    }
}

impl Custodian for NaimiNode {
    type Route = ();
    const CKPT: u8 = CKPT_NAIMI;
    const LABEL: &'static str = "naimi";

    fn custody(&self) -> &Custody<NaimiMsg> {
        &self.c
    }

    fn custody_mut(&mut self) -> &mut Custody<NaimiMsg> {
        &mut self.c
    }

    fn with_custody(c: Custody<NaimiMsg>) -> Self {
        NaimiNode {
            c,
            last: None,
            seen: BTreeMap::new(),
            attempt: 0,
            request_sends: 0,
        }
    }

    fn wrap(msg: RegenMsg) -> NaimiMsg {
        NaimiMsg::Regen(msg)
    }

    fn possess(&mut self, token: Box<TokenFrame>, ctx: &mut Context<'_, NaimiMsg>) {
        if let Some(token) = self.take_possession(token, false, ctx) {
            // Possession ends the current acquisition's retry cycle.
            self.attempt = 0;
            self.keep(token, ctx);
        }
    }

    fn enqueue(&mut self, req: RequestId, payload: u64, ctx: &mut Context<'_, NaimiMsg>) {
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
        // One Request per acquisition: the token, once here, serves the
        // whole local queue, so only the transition 0 → 1 goes on the wire.
        if self.c.outstanding.len() == 1 {
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

    fn depart(&mut self, ctx: &mut Context<'_, NaimiMsg>) {
        self.depart_holding(ctx);
    }

    fn resume(&mut self, _return_to: Option<NodeId>, ctx: &mut Context<'_, NaimiMsg>) {
        self.progress(ctx);
    }

    /// Re-issues the front request — either straight at a known holder
    /// (inquiry hint) or toward the probable owner. Doubles as
    /// retransmission for requests lost on the cheap channel; the bumped
    /// attempt gets the resend past every duplicate filter on the path.
    fn redrive(&mut self, holder_hint: Option<NodeId>, ctx: &mut Context<'_, NaimiMsg>) {
        if self.c.holding.is_some() {
            return;
        }
        let Some(front) = self.c.outstanding.front() else {
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

    fn reroute_to(&mut self, holder: NodeId, ctx: &mut Context<'_, NaimiMsg>) {
        // Our request chain may have died with the old token: aim a fresh
        // resend straight at the holder.
        self.redrive(Some(holder), ctx);
        // Successors queued here point into the dead tree; forward their
        // requests to the live holder too.
        for owed in std::mem::take(&mut self.c.owed) {
            self.chase(holder, owed, ctx);
        }
        // Idle nodes repair their probable-owner pointer so the next
        // acquisition routes into the live tree.
        if self.c.outstanding.is_empty() {
            self.last = Some(holder);
        }
    }
}

impl Node for NaimiNode {
    type Msg = NaimiMsg;
    type Ext = Want;

    fn on_init(&mut self, ctx: &mut Context<'_, NaimiMsg>) {
        let holder = self.c.cfg.effective_initial_holder(ctx.topology().len());
        if ctx.id().index() != holder as usize {
            // Everyone initially believes the configured holder owns the token.
            self.last = Some(NodeId::new(holder));
        }
        self.init(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: NaimiMsg, ctx: &mut Context<'_, NaimiMsg>) {
        match msg {
            NaimiMsg::Token { frame, .. } => {
                if self.token_arrived(from, &frame, ctx) {
                    self.possess(frame, ctx);
                }
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
        self.want(ev, ctx);
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, NaimiMsg>) {
        self.custody_timer(kind, ctx);
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, NaimiMsg>) {
        self.recover(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TokenNode;
    use atp_net::{LinkFaults, MsgClass, SimTime, World, WorldConfig};

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
        assert_eq!(
            w.node(NodeId::new(0)).probable_owner(),
            Some(NodeId::new(3))
        );
        // A later request from 5 routes 5 → 0 → 3: two control hops.
        let t = w.now();
        w.schedule_external(t + 1, NodeId::new(5), Want::new(2));
        w.run_to_quiescence();
        assert_eq!(w.node(NodeId::new(5)).grants(), 1);
        assert_eq!(w.stats().sent(MsgClass::Control), 3);
        // Node 0 was redirected at the newer requester.
        assert_eq!(
            w.node(NodeId::new(0)).probable_owner(),
            Some(NodeId::new(5))
        );
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
        let grants: u64 = (0..n).map(|i| w.node(NodeId::new(i as u32)).grants()).sum();
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
