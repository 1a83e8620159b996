//! The plain rotating-token ring: System Message-Passing with rule 3′.
//!
//! The token perpetually circulates `x → x⁺¹`. A node appends its datum (or
//! enters its critical section) only while holding the token, giving O(N)
//! responsiveness (Lemma 4): once some node is ready, at most `N` message
//! delays pass before the token reaches *a* ready node.
//!
//! This is the baseline the paper's simulation study (Figures 9 and 10)
//! compares System BinarySearch against. Requests never look for the token,
//! so the node is the [custody core](crate::custody) plus a hold policy: it
//! implements none of the routing hooks.

use atp_net::{Context, Node, NodeId};

use crate::checkpoint::CKPT_RING;
use crate::config::ProtocolConfig;
use crate::custody::{Custodian, Custody, Outstanding, TIMER_PASS, TIMER_SERVICE};
use crate::event::{TokenEvent, Want};
use crate::regen::RegenMsg;
use crate::token::TokenFrame;
use crate::types::RequestId;

/// Messages of the ring protocol.
#[derive(Debug, Clone)]
pub enum RingMsg {
    /// The circulating token (always `MsgClass::Token`). Boxed so moving a
    /// `RingMsg` through the event queue copies a pointer, not the frame.
    Token(Box<TokenFrame>),
    /// Failure-handling traffic (Section 5).
    Regen(RegenMsg),
}

/// What a ring node is doing with the token it holds.
#[derive(Debug, Default)]
pub enum HoldState {
    /// Holding, free to serve or pass.
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
    },
}

/// One node of the rotating-token ring protocol.
///
/// Construct with [`RingNode::new`] and run inside an
/// [`atp_net::World`] (or any transport via [`atp_net::Harness`]). Node 0
/// mints the initial token in `on_init`, matching the paper's initial state
/// where some distinguished node starts with `T = x`.
#[derive(Debug)]
pub struct RingNode {
    c: Custody<RingMsg, HoldState>,
}

impl RingNode {
    /// Creates a node with the given configuration.
    pub fn new(cfg: ProtocolConfig) -> Self {
        Self::with_custody(Custody::new(cfg))
    }

    /// Serve local requests, then pass the token onward.
    fn progress(&mut self, ctx: &mut Context<'_, RingMsg>) {
        loop {
            let Some(holding) = self.c.holding.as_mut() else {
                return;
            };
            match holding.state {
                HoldState::Serving { .. } => return,
                HoldState::Idle | HoldState::PassArmed => {
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
                    // Nothing to serve: pass (possibly after an idle hold).
                    let delay = self.c.cfg.idle_delay(holding.token.idle_rounds());
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
        let Some(holding) = self.c.holding.take() else {
            return;
        };
        let succ = holding.token.next_live_successor(ctx.topology(), ctx.id());
        self.ship(succ, holding.token, |_, frame| RingMsg::Token(frame), ctx);
    }
}

impl Custodian for RingNode {
    type Hold = HoldState;
    type Route = ();
    const CKPT: u8 = CKPT_RING;

    fn custody(&self) -> &Custody<RingMsg, HoldState> {
        &self.c
    }

    fn custody_mut(&mut self) -> &mut Custody<RingMsg, HoldState> {
        &mut self.c
    }

    fn with_custody(c: Custody<RingMsg, HoldState>) -> Self {
        RingNode { c }
    }

    fn wrap(msg: RegenMsg) -> RingMsg {
        RingMsg::Regen(msg)
    }

    fn possess(&mut self, token: Box<TokenFrame>, ctx: &mut Context<'_, RingMsg>) {
        let Some(token) = self.take_possession(token, true, ctx) else {
            return;
        };
        if self.hold(token, ctx) {
            self.progress(ctx);
        } else {
            // Raced departure: pass straight on.
            self.send_token(ctx);
        }
    }

    fn enqueue(&mut self, req: RequestId, payload: u64, ctx: &mut Context<'_, RingMsg>) {
        self.c.outstanding.push_back(Outstanding {
            req,
            payload,
            made_at: ctx.now(),
            route: (),
        });
        if self.c.outstanding.len() == 1 && self.c.holding.is_none() {
            self.arm_regen_timer(ctx);
        }
        self.progress(ctx);
    }

    fn depart(&mut self, ctx: &mut Context<'_, RingMsg>) {
        if let Some(h) = self.c.holding.as_mut() {
            h.token.exclude(ctx.id());
            if matches!(h.state, HoldState::Idle | HoldState::PassArmed) {
                h.state = HoldState::Idle;
                self.send_token(ctx);
            }
        }
    }
}

impl Node for RingNode {
    type Msg = RingMsg;
    type Ext = Want;

    fn on_init(&mut self, ctx: &mut Context<'_, RingMsg>) {
        self.init(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: RingMsg, ctx: &mut Context<'_, RingMsg>) {
        match msg {
            RingMsg::Token(frame) => {
                if self.token_arrived(from, &frame, ctx) {
                    self.possess(frame, ctx);
                }
            }
            RingMsg::Regen(m) => self.handle_regen(from, m, ctx),
        }
    }

    fn on_external(&mut self, ev: Want, ctx: &mut Context<'_, RingMsg>) {
        self.want(ev, ctx);
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, RingMsg>) {
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
            TIMER_PASS => {
                if let Some(h) = self.c.holding.as_mut() {
                    if matches!(h.state, HoldState::PassArmed) {
                        h.state = HoldState::Idle;
                        if self.c.outstanding.is_empty() {
                            self.send_token(ctx);
                        } else {
                            self.progress(ctx);
                        }
                    }
                }
            }
            _ => self.custody_timer(kind, ctx),
        }
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, RingMsg>) {
        self.recover(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventSource, TokenNode};
    use atp_net::{SimTime, World, WorldConfig};

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
