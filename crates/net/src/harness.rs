//! Embedding a single [`Node`] in a foreign transport.
//!
//! The [`World`](crate::World) engine is the canonical way to run protocol
//! nodes, but the same node implementations can be hosted on *any* transport
//! — OS threads with channels, a real network, a fuzzer. [`Harness`] wraps
//! one node and turns its callback effects into plain data ([`Outbound`] and
//! [`TimerRequest`] values) the host can route however it likes.

use atp_util::rng::{SeedableRng, StdRng};

use crate::context::{Context, Effect};
use crate::event::MsgClass;
use crate::id::{NodeId, Topology};
use crate::node::Node;
use crate::time::SimTime;

/// A message the hosted node wants to send.
#[derive(Debug, Clone)]
pub struct Outbound<M> {
    /// Destination.
    pub to: NodeId,
    /// Payload.
    pub msg: M,
    /// Traffic class (the host decides what reliability each class gets).
    pub class: MsgClass,
    /// Ticks the node wants the message held locally before transmission
    /// (used by the adaptive token-speed optimization).
    pub hold: u64,
}

/// A timer the hosted node wants the host to schedule.
#[derive(Debug, Clone, Copy)]
pub struct TimerRequest {
    /// Delay from "now", in ticks; the host maps ticks to real time.
    pub delay: u64,
    /// Opaque discriminator to pass back to
    /// [`Node::on_timer`].
    pub kind: u64,
}

/// Hosts one [`Node`] outside a [`World`](crate::World).
///
/// The host is responsible for calling the `deliver` / `fire_timer` /
/// `external` methods as its transport produces events, and for draining
/// [`Harness::take_outbound`] / [`Harness::take_timers`] after each call.
///
/// ```rust
/// use atp_net::{Harness, Node, NodeId, Topology, Context, MsgClass, SimTime};
///
/// #[derive(Debug, Default)]
/// struct Echo;
/// impl Node for Echo {
///     type Msg = u8;
///     type Ext = ();
///     fn on_message(&mut self, from: NodeId, msg: u8, ctx: &mut Context<'_, u8>) {
///         ctx.send(from, msg + 1, MsgClass::Control);
///     }
/// }
///
/// let mut h = Harness::new(NodeId::new(0), Topology::ring(2), Echo::default(), 7);
/// h.deliver(SimTime::from_ticks(3), NodeId::new(1), 10);
/// let out = h.take_outbound();
/// assert_eq!(out.len(), 1);
/// assert_eq!(out[0].msg, 11);
/// ```
#[derive(Debug)]
pub struct Harness<N: Node> {
    id: NodeId,
    topology: Topology,
    node: N,
    rng: StdRng,
    effects: Vec<Effect<N::Msg>>,
    outbound: Vec<Outbound<N::Msg>>,
    timers: Vec<TimerRequest>,
    initialized: bool,
}

impl<N: Node> Harness<N> {
    /// Wraps `node` as `id` on `topology`, with a deterministic RNG seed.
    pub fn new(id: NodeId, topology: Topology, node: N, seed: u64) -> Self {
        assert!(topology.contains(id), "id outside topology");
        Harness {
            id,
            topology,
            node,
            rng: StdRng::seed_from_u64(seed),
            effects: Vec::new(),
            outbound: Vec::new(),
            timers: Vec::new(),
            initialized: false,
        }
    }

    /// The hosted node's identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Immutable access to the hosted node.
    pub fn node(&self) -> &N {
        &self.node
    }

    /// Mutable access to the hosted node (event draining, inspection).
    pub fn node_mut(&mut self) -> &mut N {
        &mut self.node
    }

    fn dispatch(&mut self, now: SimTime, f: impl FnOnce(&mut N, &mut Context<'_, N::Msg>)) {
        let mut effects = std::mem::take(&mut self.effects);
        {
            let mut ctx = Context::new(self.id, now, self.topology, &mut effects, &mut self.rng);
            f(&mut self.node, &mut ctx);
        }
        for eff in effects.drain(..) {
            match eff {
                Effect::Send {
                    to,
                    msg,
                    class,
                    extra_delay,
                } => self.outbound.push(Outbound {
                    to,
                    msg,
                    class,
                    hold: extra_delay,
                }),
                Effect::Timer { delay, kind } => self.timers.push(TimerRequest { delay, kind }),
            }
        }
        self.effects = effects;
    }

    /// Runs `on_init` once; later calls are no-ops.
    pub fn init(&mut self, now: SimTime) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        self.dispatch(now, |n, ctx| n.on_init(ctx));
    }

    /// Brings a restarted node back up through [`Node::on_recover`] instead
    /// of `on_init` — the path a crash–restart supervisor must take, since
    /// re-running `on_init` would re-mint tokens the ring already has.
    /// Marks the harness initialized so no later delivery triggers init.
    pub fn recover(&mut self, now: SimTime) {
        self.initialized = true;
        self.dispatch(now, |n, ctx| n.on_recover(ctx));
    }

    /// Delivers a message from `from` to the hosted node.
    pub fn deliver(&mut self, now: SimTime, from: NodeId, msg: N::Msg) {
        self.init(now);
        self.dispatch(now, |n, ctx| n.on_message(from, msg, ctx));
    }

    /// Fires a timer previously requested via [`Harness::take_timers`].
    pub fn fire_timer(&mut self, now: SimTime, kind: u64) {
        self.init(now);
        self.dispatch(now, |n, ctx| n.on_timer(kind, ctx));
    }

    /// Delivers an external stimulus.
    pub fn external(&mut self, now: SimTime, ev: N::Ext) {
        self.init(now);
        self.dispatch(now, |n, ctx| n.on_external(ev, ctx));
    }

    /// Drains messages the node asked to send since the last call.
    pub fn take_outbound(&mut self) -> Vec<Outbound<N::Msg>> {
        std::mem::take(&mut self.outbound)
    }

    /// Drains timers the node asked to schedule since the last call.
    pub fn take_timers(&mut self) -> Vec<TimerRequest> {
        std::mem::take(&mut self.timers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Pinger {
        pings: u32,
    }

    impl Node for Pinger {
        type Msg = &'static str;
        type Ext = ();

        fn on_init(&mut self, ctx: &mut Context<'_, &'static str>) {
            ctx.set_timer(10, 1);
        }

        fn on_message(
            &mut self,
            _from: NodeId,
            _msg: &'static str,
            _ctx: &mut Context<'_, &'static str>,
        ) {
            self.pings += 1;
        }

        fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, &'static str>) {
            if kind == 1 {
                ctx.send(
                    ctx.topology().successor(ctx.id()),
                    "ping",
                    MsgClass::Control,
                );
            }
        }
    }

    #[test]
    fn init_runs_once_and_emits_timer() {
        let mut h = Harness::new(NodeId::new(0), Topology::ring(2), Pinger::default(), 0);
        h.init(SimTime::ZERO);
        h.init(SimTime::ZERO);
        let timers = h.take_timers();
        assert_eq!(timers.len(), 1);
        assert_eq!(timers[0].delay, 10);
        assert_eq!(timers[0].kind, 1);
    }

    #[test]
    fn timer_fires_and_produces_outbound() {
        let mut h = Harness::new(NodeId::new(0), Topology::ring(2), Pinger::default(), 0);
        h.init(SimTime::ZERO);
        h.take_timers();
        h.fire_timer(SimTime::from_ticks(10), 1);
        let out = h.take_outbound();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].to, NodeId::new(1));
        assert_eq!(out[0].msg, "ping");
    }

    #[test]
    fn delivery_reaches_node_state() {
        let mut h = Harness::new(NodeId::new(1), Topology::ring(2), Pinger::default(), 0);
        h.deliver(SimTime::from_ticks(1), NodeId::new(0), "ping");
        assert_eq!(h.node().pings, 1);
    }
}
