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
//! The Section 4.4 refinements are all implemented and selectable through
//! [`ProtocolConfig`]: delegated vs *directed* search, rotation vs *inverse*
//! trap cleanup, single-outstanding-request throttling, adaptive token speed,
//! and the push-pull *probe* dual. Token custody (possession, handoff,
//! Section 5 failure handling) is the shared [core](crate::custody); this
//! file is the rotation, rule 8 and the halving search.

use std::collections::VecDeque;

use atp_net::{Context, MsgClass, Node, NodeId};

use crate::checkpoint::CKPT_BINARY;
use crate::config::{ProtocolConfig, SearchMode, TrapCleanup};
use crate::custody::{Custodian, Custody, Holding, Outstanding, TIMER_PASS, TIMER_SERVICE};
use crate::event::{TokenEvent, Want};
use crate::regen::RegenMsg;
use crate::token::TokenFrame;
use crate::types::{RequestId, VisitStamp};

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
    /// Directed-search probe: examine one node, reply to the requester.
    DirectedProbe {
        /// The requester running the search.
        origin: NodeId,
        /// Its request.
        req: RequestId,
        /// Jump distance just taken.
        span: u32,
    },
    /// Directed-search answer carrying the probed node's stamp.
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
    /// Push-pull dual: the idle token holder probes for silent ready nodes.
    ProbeReq {
        /// Where the token is (replies go here).
        holder: NodeId,
        /// Fan-out jump distance.
        span: u32,
    },
    /// A ready node answering a probe: "I want the token".
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

#[derive(Debug, Clone)]
struct Trap {
    origin: NodeId,
    req: RequestId,
    trail: Vec<NodeId>,
}

/// Why a critical section is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceKind {
    /// Serving a local request during a rotational possession.
    Local,
    /// Serving a request granted out-of-band; the token must go back.
    OutOfBand {
        /// The interceptor awaiting the token's return.
        return_to: NodeId,
    },
}

/// What a node is doing with the token it holds.
#[derive(Debug, Default)]
pub enum HoldState {
    /// Holding, free to serve, dispatch or pass.
    #[default]
    Idle,
    /// Pass timer armed (adaptive token speed).
    PassArmed,
    /// Mid-service: timer will fire after the critical section.
    Serving {
        /// The request in its critical section.
        req: RequestId,
        /// Its datum.
        payload: u64,
        /// Whether the token must go back to an interceptor afterwards.
        kind: ServiceKind,
    },
}

/// One node of System BinarySearch.
///
/// See the crate-level documentation for the protocol walk-through and a
/// usage example.
#[derive(Debug)]
pub struct BinaryNode {
    c: Custody<BinaryMsg, HoldState, Search>,
    traps: VecDeque<Trap>,
    /// Local requests this possession may still serve before yielding to
    /// traps (fairness: locals arriving mid-possession wait a round).
    quota: usize,
    gimme_sends: u64,
    probe_sends: u64,
}

impl BinaryNode {
    /// Creates a node with the given configuration.
    pub fn new(cfg: ProtocolConfig) -> Self {
        Self::with_custody(Custody::new(cfg))
    }

    /// Traps currently set at this node.
    pub fn trap_count(&self) -> usize {
        self.traps.len()
    }

    /// Search messages sent or relayed.
    pub fn gimme_sends(&self) -> u64 {
        self.gimme_sends
    }

    /// Probe messages sent or relayed (push-pull dual).
    pub fn probe_sends(&self) -> u64 {
        self.probe_sends
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
        // Rotation cleanup: drop traps for already-satisfied requests.
        if !self.traps.is_empty() {
            self.traps.retain(|t| !token.is_satisfied(&t.req));
        }
        // Unlike the lazy protocols, a departed node holds (and announces)
        // like any other; the rotational arrivals then pass straight on.
        self.c.holding = Some(Holding {
            token,
            state: HoldState::Idle,
        });
        self.announce_generation(ctx);
        true
    }

    /// Records one search hop for `req` in the event stream: the span
    /// instrumentation behind Lemma 6's per-request forward count.
    fn note_search_hop(&mut self, req: RequestId, msg: &BinaryMsg, ctx: &Context<'_, BinaryMsg>) {
        self.c.events.push(TokenEvent::SearchForwarded {
            req,
            bytes: crate::codec::encoded_len(msg) as u64,
            at: ctx.now(),
        });
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
                let bytes = crate::codec::encoded_len(&msg) as u64;
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
            let Some(holding) = self.c.holding.as_mut() else {
                return;
            };
            match holding.state {
                HoldState::Serving { .. } => return,
                HoldState::Idle | HoldState::PassArmed => {
                    if self.quota > 0 {
                        if let Some(out) = self.c.outstanding.pop_front() {
                            self.quota -= 1;
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
                                kind: ServiceKind::Local,
                            };
                            ctx.set_timer(self.c.cfg.service_ticks, TIMER_SERVICE);
                            return;
                        }
                        self.quota = 0;
                    }
                    // FIFO trap service (required for Theorem 2), skipping
                    // traps whose request the token already satisfied.
                    if serve_traps {
                        while let Some(trap) = self.traps.front() {
                            if holding.token.is_satisfied(&trap.req) {
                                self.traps.pop_front();
                            } else {
                                break;
                            }
                        }
                        if let Some(trap) = self.traps.pop_front() {
                            self.dispatch_grant(trap, ctx);
                            return;
                        }
                    }
                    // Push-pull dual: once per idle round (launched at node
                    // 0), ask around whether anyone silently wants the token.
                    if self.c.cfg.probe_on_idle
                        && ctx.id().index() == 0
                        && holding.token.idle_rounds() >= 1
                    {
                        let span = (ctx.topology().len() as u64).div_ceil(2) as u32;
                        let across = ctx.topology().across(ctx.id());
                        self.probe_sends += 1;
                        ctx.send(
                            across,
                            BinaryMsg::ProbeReq {
                                holder: ctx.id(),
                                span,
                            },
                            MsgClass::Control,
                        );
                    }
                    // Pass the rotation onward (rule 4), possibly after an
                    // adaptive idle hold.
                    let delay = self.c.cfg.idle_delay(holding.token.idle_rounds());
                    if delay == 0 {
                        self.send_rotation(ctx);
                    } else if !matches!(holding.state, HoldState::PassArmed) {
                        holding.state = HoldState::PassArmed;
                        ctx.set_timer(delay, TIMER_PASS);
                    }
                    return;
                }
            }
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
    fn dispatch_grant(&mut self, trap: Trap, ctx: &mut Context<'_, BinaryMsg>) {
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
        loop {
            if self.c.cfg.serve_all_on_grant {
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
                    let holding = self.c.holding.as_mut().expect("serving without token");
                    holding.state = HoldState::Serving {
                        req: out.req,
                        payload: out.payload,
                        kind: ServiceKind::OutOfBand { return_to },
                    };
                    ctx.set_timer(self.c.cfg.service_ticks, TIMER_SERVICE);
                    return;
                }
            }
            break;
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
                if let Some(pos) = self.c.outstanding.iter().position(|o| o.req == for_req) {
                    let out = self.c.outstanding.remove(pos).expect("position exists");
                    self.c.grants += 1;
                    self.c.events.push(TokenEvent::Granted {
                        req: out.req,
                        at: ctx.now(),
                    });
                    if self.c.cfg.service_ticks == 0 {
                        self.finish_service(out.req, out.payload, ctx);
                        self.after_out_of_band(return_to, ctx);
                    } else {
                        let holding = self.c.holding.as_mut().expect("just possessed");
                        holding.state = HoldState::Serving {
                            req: out.req,
                            payload: out.payload,
                            kind: ServiceKind::OutOfBand { return_to },
                        };
                        ctx.set_timer(self.c.cfg.service_ticks, TIMER_SERVICE);
                    }
                } else {
                    // Already served by rotation in the meantime: rule 8
                    // degenerates to an immediate return.
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
                self.traps.retain(|t| t.req != for_req);
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
            let next_span = g.span / 2;
            if next_span >= 1 {
                let me = ctx.id();
                let next = if self.search_direction_cw(g.origin_stamp) {
                    ctx.topology().plus(me, next_span as u64)
                } else {
                    ctx.topology().minus(me, next_span as u64)
                };
                let mut trail = g.trail;
                trail.push(me);
                self.gimme_sends += 1;
                let msg = BinaryMsg::Gimme(Gimme {
                    origin: g.origin,
                    req: g.req,
                    origin_stamp: g.origin_stamp,
                    span: next_span,
                    trail,
                });
                self.note_search_hop(g.req, &msg, ctx);
                ctx.send(next, msg, MsgClass::Control);
            }
            return;
        }
        if let Some(h) = &self.c.holding {
            if h.token.is_satisfied(&g.req) {
                return;
            }
        }
        let mut trail = g.trail.clone();
        if !self.traps.iter().any(|t| t.req == g.req) {
            self.traps.push_back(Trap {
                origin: g.origin,
                req: g.req,
                trail: g.trail,
            });
        }
        if self.c.holding.is_some() {
            // The search found the token: serve (FIFO order preserved).
            self.progress(ctx);
            return;
        }
        let next_span = g.span / 2;
        if next_span >= 1 {
            let me = ctx.id();
            let next = if self.search_direction_cw(g.origin_stamp) {
                ctx.topology().plus(me, next_span as u64)
            } else {
                ctx.topology().minus(me, next_span as u64)
            };
            trail.push(me);
            self.gimme_sends += 1;
            let msg = BinaryMsg::Gimme(Gimme {
                origin: g.origin,
                req: g.req,
                origin_stamp: g.origin_stamp,
                span: next_span,
                trail,
            });
            self.note_search_hop(g.req, &msg, ctx);
            ctx.send(next, msg, MsgClass::Control);
        }
    }

    fn handle_directed_probe(
        &mut self,
        origin: NodeId,
        req: RequestId,
        span: u32,
        ctx: &mut Context<'_, BinaryMsg>,
    ) {
        if origin == ctx.id() {
            return;
        }
        if !self.traps.iter().any(|t| t.req == req) {
            let satisfied = self
                .c
                .holding
                .as_ref()
                .is_some_and(|h| h.token.is_satisfied(&req));
            if !satisfied {
                self.traps.push_back(Trap {
                    origin,
                    req,
                    trail: vec![origin],
                });
            }
        }
        if self.c.holding.is_some() {
            self.progress(ctx);
            return;
        }
        let stamp = self.c.last_visit;
        self.gimme_sends += 1;
        let msg = BinaryMsg::DirectedReply {
            probed: ctx.id(),
            stamp,
            req,
            span,
        };
        self.note_search_hop(req, &msg, ctx);
        ctx.send(origin, msg, MsgClass::Control);
    }

    fn handle_directed_reply(
        &mut self,
        probed: NodeId,
        stamp: VisitStamp,
        req: RequestId,
        span: u32,
        ctx: &mut Context<'_, BinaryMsg>,
    ) {
        // Stop if the request was satisfied meanwhile (the saving the paper
        // credits directed search with).
        let Some(out) = self.c.outstanding.iter().find(|o| o.req == req) else {
            return;
        };
        let next_span = span / 2;
        if next_span == 0 {
            return;
        }
        let cw = stamp.is_fresher_than(out.route.stamp_at_request);
        let next = if cw {
            ctx.topology().plus(probed, next_span as u64)
        } else {
            ctx.topology().minus(probed, next_span as u64)
        };
        self.gimme_sends += 1;
        let msg = BinaryMsg::DirectedProbe {
            origin: ctx.id(),
            req,
            span: next_span,
        };
        self.note_search_hop(req, &msg, ctx);
        ctx.send(next, msg, MsgClass::Control);
    }

    fn handle_probe_req(&mut self, holder: NodeId, span: u32, ctx: &mut Context<'_, BinaryMsg>) {
        if let Some(front) = self.c.outstanding.front() {
            let req = front.req;
            ctx.send(
                holder,
                BinaryMsg::ProbeHit {
                    origin: ctx.id(),
                    req,
                },
                MsgClass::Control,
            );
            return;
        }
        let next_span = span / 2;
        if next_span >= 1 {
            let me = ctx.id();
            for next in [
                ctx.topology().plus(me, next_span as u64),
                ctx.topology().minus(me, next_span as u64),
            ] {
                if next != me && next != holder {
                    self.probe_sends += 1;
                    ctx.send(
                        next,
                        BinaryMsg::ProbeReq {
                            holder,
                            span: next_span,
                        },
                        MsgClass::Control,
                    );
                }
            }
        }
    }

    fn handle_probe_hit(
        &mut self,
        origin: NodeId,
        req: RequestId,
        ctx: &mut Context<'_, BinaryMsg>,
    ) {
        if self.traps.iter().any(|t| t.req == req) {
            return;
        }
        if let Some(h) = &self.c.holding {
            if h.token.is_satisfied(&req) {
                return;
            }
        }
        self.traps.push_back(Trap {
            origin,
            req,
            trail: vec![origin],
        });
        if self.c.holding.is_some() {
            self.progress(ctx);
        }
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
        let msg = match self.c.cfg.search_mode {
            SearchMode::Delegated => BinaryMsg::Gimme(Gimme {
                origin: me,
                req,
                origin_stamp: stamp,
                span,
                trail: vec![me],
            }),
            SearchMode::Directed => BinaryMsg::DirectedProbe {
                origin: me,
                req,
                span,
            },
        };
        self.note_search_hop(req, &msg, ctx);
        ctx.send(target, msg, MsgClass::Control);
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
    type Hold = HoldState;
    type Route = Search;
    const CKPT: u8 = CKPT_BINARY;

    fn custody(&self) -> &Custody<BinaryMsg, HoldState, Search> {
        &self.c
    }

    fn custody_mut(&mut self) -> &mut Custody<BinaryMsg, HoldState, Search> {
        &mut self.c
    }

    fn with_custody(mut c: Custody<BinaryMsg, HoldState, Search>) -> Self {
        if c.cfg.test_bad_prefix_skip {
            c.order.enable_bad_prefix_skip();
        }
        BinaryNode {
            c,
            traps: VecDeque::new(),
            quota: 0,
            gimme_sends: 0,
            probe_sends: 0,
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
        self.traps.clear();
        if self.c.holding.is_some() {
            self.exclude_self_and_pass(ctx);
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

    fn forget_routes(&mut self) {
        self.traps.clear();
    }
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
            BinaryMsg::DirectedProbe { origin, req, span } => {
                self.handle_directed_probe(origin, req, span, ctx)
            }
            BinaryMsg::DirectedReply {
                probed,
                stamp,
                req,
                span,
            } => self.handle_directed_reply(probed, stamp, req, span, ctx),
            BinaryMsg::ProbeReq { holder, span } => self.handle_probe_req(holder, span, ctx),
            BinaryMsg::ProbeHit { origin, req } => self.handle_probe_hit(origin, req, ctx),
            BinaryMsg::Regen(m) => self.handle_regen(from, m, ctx),
        }
    }

    fn on_external(&mut self, ev: Want, ctx: &mut Context<'_, BinaryMsg>) {
        self.want(ev, ctx);
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, BinaryMsg>) {
        match kind {
            TIMER_SERVICE => {
                let Some(holding) = self.c.holding.as_mut() else {
                    return;
                };
                if let HoldState::Serving { req, payload, kind } = holding.state {
                    holding.state = HoldState::Idle;
                    self.finish_service(req, payload, ctx);
                    match kind {
                        ServiceKind::Local => self.progress(ctx),
                        ServiceKind::OutOfBand { return_to } => {
                            self.after_out_of_band(return_to, ctx)
                        }
                    }
                }
            }
            TIMER_PASS => {
                if let Some(h) = self.c.holding.as_mut() {
                    if matches!(h.state, HoldState::PassArmed) {
                        h.state = HoldState::Idle;
                        // Locals that arrived mid-service have no quota:
                        // they wait for the next possession (fairness), so
                        // the token rotates on instead of re-arming the
                        // hold beside them forever.
                        if self.traps.is_empty()
                            && (self.c.outstanding.is_empty() || self.quota == 0)
                        {
                            self.send_rotation(ctx);
                        } else {
                            self.progress(ctx);
                        }
                    }
                }
            }
            _ => self.custody_timer(kind, ctx),
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
    use atp_net::{LinkFaults, SimTime, World, WorldConfig};

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
    fn directed_search_also_grants_in_log_time() {
        let cfg = ProtocolConfig::default().with_search_mode(SearchMode::Directed);
        let mut w = world(64, cfg);
        w.schedule_external(SimTime::from_ticks(10), NodeId::new(40), Want::new(1));
        w.run_until(SimTime::from_ticks(60));
        assert_eq!(total_grants(&w), 1);
    }

    #[test]
    fn inverse_cleanup_clears_traps_en_route() {
        let cfg = ProtocolConfig::default().with_trap_cleanup(TrapCleanup::Inverse);
        let mut w = world(32, cfg);
        w.schedule_external(SimTime::from_ticks(4), NodeId::new(20), Want::new(1));
        w.run_until(SimTime::from_ticks(200));
        assert_eq!(total_grants(&w), 1);
        // All traps for the satisfied request are gone.
        let traps: usize = (0..32)
            .map(|i| w.node(NodeId::new(i)).trap_count())
            .sum();
        assert_eq!(traps, 0, "inverse cleanup should leave no stale traps");
    }

    #[test]
    fn rotation_cleanup_eventually_clears_stale_traps() {
        let cfg = ProtocolConfig::default(); // rotation cleanup
        let mut w = world(16, cfg);
        w.schedule_external(SimTime::from_ticks(2), NodeId::new(9), Want::new(1));
        // Give the token two full rounds to sweep traps away.
        w.run_until(SimTime::from_ticks(100));
        let traps: usize = (0..16)
            .map(|i| w.node(NodeId::new(i)).trap_count())
            .sum();
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

    #[test]
    fn probe_on_idle_discovers_silent_requester() {
        // Disable searching by making every request silent? There is no such
        // switch; instead verify probes flow and nothing breaks.
        let cfg = ProtocolConfig::default()
            .with_probe_on_idle(true)
            .with_adaptive_speed(true);
        let mut w = world(16, cfg);
        w.run_until(SimTime::from_ticks(300));
        let probes: u64 = (0..16).map(|i| w.node(NodeId::new(i)).probe_sends()).sum();
        assert!(probes > 0, "idle holder should probe");
        w.schedule_external(w.now(), NodeId::new(11), Want::new(5));
        w.run_for(200);
        assert_eq!(total_grants(&w), 1);
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
