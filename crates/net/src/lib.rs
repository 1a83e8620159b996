//! # atp-net — deterministic discrete-event message-passing substrate
//!
//! This crate provides the simulated distributed-computing setting assumed by
//! *"Developing and Refining an Adaptive Token-Passing Strategy"* (Englert,
//! Rudolph, Shvartsman, 2001): a finite set of processors with unique
//! identifiers, fully interconnected, communicating only by message passing,
//! with no shared storage and no global clock visible to the nodes.
//!
//! The paper reasons about safety under *complete asynchrony* and about
//! performance assuming *bounded communication delays* and negligible local
//! computation. Both regimes are expressible here:
//!
//! * [`Latency`] sets per-message delays: constant, uniform `lo..=hi` or a
//!   per-link matrix. Local rule firings cost zero simulated time, matching
//!   Section 4's cost model ("zero time with rules that affect only the
//!   local state … constant time cost with the rules that result in message
//!   passing").
//! * [`LinkFaults`] is the single fault surface: "cheap" control messages
//!   (search requests, probes, hints) may be lost while "expensive"
//!   token-bearing messages are delivered reliably — the two qualitatively
//!   different communication modes of the paper's introduction
//!   ([`LinkFaults::control_drops`]) — or any class may be lost or
//!   duplicated for the hostile regimes the recovery machinery is tested
//!   against.
//! * [`FailurePlan`] schedules crashes and recoveries so the Section 5
//!   token-regeneration extension can be exercised.
//!
//! The engine is **deterministic**: a [`World`] built with the same seed,
//! the same models and the same injected stimuli replays the identical event
//! sequence. Ties in simulated time are broken by a monotone sequence number.
//!
//! ## Quickstart
//!
//! ```rust
//! use atp_net::{Node, NodeId, Context, World, WorldConfig};
//!
//! /// A node that forwards a hop counter around the ring once.
//! #[derive(Debug, Default)]
//! struct Hopper {
//!     seen: Option<u32>,
//! }
//!
//! impl Node for Hopper {
//!     type Msg = u32;
//!     type Ext = ();
//!
//!     fn on_init(&mut self, ctx: &mut Context<'_, u32>) {
//!         if ctx.id().index() == 0 {
//!             let next = ctx.topology().successor(ctx.id());
//!             ctx.send(next, 1, atp_net::MsgClass::Token);
//!         }
//!     }
//!
//!     fn on_message(&mut self, _from: NodeId, hops: u32, ctx: &mut Context<'_, u32>) {
//!         self.seen = Some(hops);
//!         if hops < ctx.topology().len() as u32 {
//!             let next = ctx.topology().successor(ctx.id());
//!             ctx.send(next, hops + 1, atp_net::MsgClass::Token);
//!         }
//!     }
//! }
//!
//! # fn main() {
//! let mut world: World<Hopper> = World::new(8, WorldConfig::default());
//! world.run_to_quiescence();
//! assert_eq!(world.node(NodeId::new(0)).seen, Some(8));
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod context;
mod event;
mod failure;
mod fault;
pub mod frame;
mod harness;
mod id;
mod latency;
mod node;
mod sched;
mod stats;
pub mod tcp;
mod time;
mod trace;
mod transport;
pub mod wheel;
mod world;

pub use chaos::{ChaosConfig, ChaosCounters, ChaosEndpoint};
pub use context::Context;
pub use event::MsgClass;
pub use failure::{FailureEvent, FailurePlan};
pub use fault::LinkFaults;
pub use harness::{Harness, Outbound, TimerRequest};
pub use id::{NodeId, Topology};
pub use latency::{Latency, PerLinkLatency};
pub use node::Node;
pub use sched::{
    ClassStarve, DeliveryStrategy, Fifo, Lifo, ReadyEvent, ReadyKind, RecordedChoices,
    SeededShuffle,
};
pub use stats::NetStats;
pub use tcp::{FlushError, TcpEndpoint, TcpTransport};
pub use time::SimTime;
pub use trace::{TraceEvent, TraceKind, TraceLog};
pub use transport::{ChanEndpoint, ChanTransport, CloseReport, Endpoint, Transport};
pub use wheel::{SchedStats, TimerWheel};
pub use world::{StepOutcome, World, WorldConfig, WorldProfile};
