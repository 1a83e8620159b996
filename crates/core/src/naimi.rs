//! Naimi–Tréhel path-reversal mutual exclusion: dynamic tree + lazy token.
//!
//! Every node keeps a `last` pointer naming the *probable owner* of the
//! token. A requester sends a single Request toward `last` and clears the
//! pointer; each node that relays the Request redirects its own `last` at
//! the requester — the "path reversal" that keeps the tree's average depth
//! O(log N) (Lavault's analysis). The node at the end of the chain either
//! ships the idle token directly or records the requester as its `next`
//! (here: a `waiting` queue, so bursts and fault-time resends cannot strand
//! anyone). Token custody — handoff, duplicate suppression, regeneration,
//! generation fencing — is the shared [core](crate::custody), so this file
//! is path reversal only, and the transport layer does not know a new
//! protocol exists.
//!
//! Unlike System Search's gimme walk (O(N) hops along the ring), the
//! request here follows `last` pointers, so the hop count per request is
//! the depth of the dynamic tree: O(log N) on average. This is the
//! standard competitor the paper's BinarySearch must beat on worst-case
//! responsiveness while matching on average cost.

use std::collections::{BTreeMap, VecDeque};

use atp_net::{Context, MsgClass, Node, NodeId};

use crate::checkpoint::CKPT_NAIMI;
use crate::config::ProtocolConfig;
use crate::custody::{Custodian, Custody, Outstanding, TIMER_SERVICE};
use crate::event::{TokenEvent, Want};
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

/// Analytic wire size of a Request: tag 1 + origin 4 + [`RequestId`] 12 +
/// attempt 4 + hops 4 (mirrors `atp_core::codec::naimi_encoded_len`).
const REQUEST_WIRE_BYTES: u64 = 25;

/// A queued successor obligation: classic Naimi–Tréhel's `next` pointer,
/// generalized to a queue so fault-time resends cannot overwrite it.
#[derive(Debug, Clone, Copy)]
struct Successor {
    origin: NodeId,
    req: RequestId,
    attempt: u32,
}

/// What a node is doing with the token it holds.
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

/// One node of the Naimi–Tréhel path-reversal protocol.
#[derive(Debug)]
pub struct NaimiNode {
    c: Custody<NaimiMsg, HoldState>,
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
    /// Resend counter for the current front acquisition.
    attempt: u32,
    request_sends: u64,
}

impl NaimiNode {
    /// Creates a node with the given configuration.
    pub fn new(cfg: ProtocolConfig) -> Self {
        Self::with_custody(Custody::new(cfg))
    }

    /// Queued successors (`next` obligations) at this node.
    pub fn waiting_len(&self) -> usize {
        self.waiting.len()
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
        self.c.events.push(TokenEvent::SearchForwarded {
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

    /// Ships a token frame, recording the dispatch when it serves a request.
    fn ship_token(
        &mut self,
        to: NodeId,
        frame: Box<TokenFrame>,
        grant_for: Option<RequestId>,
        ctx: &mut Context<'_, NaimiMsg>,
    ) {
        if let Some(req) = grant_for {
            // Wire size per the codec: tag 1 + frame + RequestId 12 (the
            // tag byte distinguishes lazy from granting sends).
            self.c.events.push(TokenEvent::TokenDispatched {
                req,
                bytes: 13 + frame.encoded_len() as u64,
                at: ctx.now(),
            });
        }
        self.ship(
            to,
            frame,
            |_, frame| NaimiMsg::Token { frame, grant_for },
            ctx,
        );
    }

    /// Pops the first queued successor whose request the held token has
    /// not satisfied.
    fn next_successor(&mut self) -> Option<Successor> {
        let token = &self.c.holding.as_ref()?.token;
        while let Some(w) = self.waiting.pop_front() {
            if !token.is_satisfied(&w.req) {
                return Some(w);
            }
        }
        None
    }

    /// Sends the held token to a queued successor if any, otherwise to the
    /// next live ring successor (used by departing holders).
    fn hand_off(&mut self, ctx: &mut Context<'_, NaimiMsg>) {
        if let Some(w) = self.next_successor() {
            self.dispatch_token(w, ctx);
            return;
        }
        let Some(holding) = self.c.holding.take() else {
            return;
        };
        let succ = holding.token.next_live_successor(ctx.topology(), ctx.id());
        self.ship_token(succ, holding.token, None, ctx);
    }

    /// Serve local requests, then a queued successor. Like the lazy-token
    /// search protocol, possession gaps are unbounded, so the carried window
    /// stays unbounded too (the rotating protocols bound it by round
    /// counters instead).
    fn progress(&mut self, ctx: &mut Context<'_, NaimiMsg>) {
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
                    // Serve the successor queue, skipping satisfied entries.
                    if let Some(w) = self.next_successor() {
                        self.dispatch_token(w, ctx);
                    }
                    // Otherwise: lazy — keep holding silently.
                    return;
                }
            }
        }
    }

    fn dispatch_token(&mut self, w: Successor, ctx: &mut Context<'_, NaimiMsg>) {
        let Some(holding) = self.c.holding.take() else {
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
                self.ship_token(origin, holding.token, Some(req), ctx);
            }
            return;
        }
        if self.c.holding.is_some() {
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
}

impl Custodian for NaimiNode {
    type Hold = HoldState;
    type Route = ();
    const CKPT: u8 = CKPT_NAIMI;

    fn custody(&self) -> &Custody<NaimiMsg, HoldState> {
        &self.c
    }

    fn custody_mut(&mut self) -> &mut Custody<NaimiMsg, HoldState> {
        &mut self.c
    }

    fn with_custody(c: Custody<NaimiMsg, HoldState>) -> Self {
        NaimiNode {
            c,
            waiting: VecDeque::new(),
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
        let Some(token) = self.take_possession(token, false, ctx) else {
            return;
        };
        // Drop queued successors whose requests were satisfied elsewhere
        // (a resend raced the original through a different path).
        if !self.waiting.is_empty() {
            self.waiting.retain(|w| !token.is_satisfied(&w.req));
        }
        // Possession ends the current acquisition's retry cycle.
        self.attempt = 0;
        if self.hold(token, ctx) {
            self.progress(ctx);
        } else {
            // Departed: hand the token to someone still in the group.
            self.hand_off(ctx);
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
        if let Some(h) = self.c.holding.as_mut() {
            h.token.exclude(ctx.id());
            if matches!(h.state, HoldState::Idle) {
                self.hand_off(ctx);
            }
        }
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
        for s in std::mem::take(&mut self.waiting) {
            self.send_request(holder, s.origin, s.req, s.attempt + 1, 1, ctx);
        }
        // Idle nodes repair their probable-owner pointer so the next
        // acquisition routes into the live tree.
        if self.c.outstanding.is_empty() {
            self.last = Some(holder);
        }
    }

    fn forget_peer(&mut self, peer: NodeId) {
        self.waiting.retain(|w| w.origin != peer);
    }

    /// Queued successors died with the crash; their origins' own retry
    /// cycles re-route them through the live tree.
    fn forget_routes(&mut self) {
        self.waiting.clear();
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

    fn on_recover(&mut self, ctx: &mut Context<'_, NaimiMsg>) {
        self.recover(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TokenNode;
    use atp_net::{LinkFaults, SimTime, World, WorldConfig};

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
