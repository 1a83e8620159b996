//! # atp-core — executable adaptive token-passing protocols
//!
//! Executable realizations of the protocol family from *"Developing and
//! Refining an Adaptive Token-Passing Strategy"* (Englert, Rudolph,
//! Shvartsman, 2001). Where the sibling crate `atp-spec` keeps the paper's
//! Term-Rewriting-System specifications verbatim for machine-checked safety,
//! this crate provides the deployable protocols — bounded state, explicit
//! messages, failure handling — that the experiments in `atp-sim` measure.
//!
//! ## Protocols
//!
//! | Type | Paper system | Responsiveness |
//! |---|---|---|
//! | [`RingNode`] | Message-Passing + rule 3′ | O(N) (Lemma 4) |
//! | [`SearchNode`] | Search, cyclic restriction | O(N) (Lemma 5) |
//! | [`BinaryNode`] | BinarySearch | O(log N) (Theorem 2) |
//! | [`NaimiNode`] | — (Naimi–Tréhel competitor) | O(log N) average (Lavault) |
//!
//! All of them expose the same interface: they implement
//! [`atp_net::Node`] (message-driven state machines), accept [`Want`]
//! stimuli ("this node now requires the token"), report observable
//! behaviour through [`EventSource`], and answer the same questions about
//! token custody — history, grants, possession, generation, checkpoint —
//! through [`TokenNode`]. What a node does *because it may hold or lose the
//! token* (possession, handoff, Section 5 failure handling, membership) is
//! written once for all four; the protocol modules differ only in how a
//! request finds the token.
//!
//! ## Quickstart
//!
//! ```rust
//! use atp_core::{BinaryNode, ProtocolConfig, Want, EventSource, TokenEvent};
//! use atp_net::{NodeId, SimTime, World, WorldConfig};
//!
//! // 16 nodes running System BinarySearch.
//! let cfg = ProtocolConfig::default();
//! let mut world = World::from_nodes(
//!     (0..16).map(|_| BinaryNode::new(cfg)).collect(),
//!     WorldConfig::default(),
//! );
//! // Node 11 wants the token at t=5.
//! world.schedule_external(SimTime::from_ticks(5), NodeId::new(11), Want::new(42));
//! world.run_until(SimTime::from_ticks(64));
//! let events = world.node_mut(NodeId::new(11)).take_events();
//! assert!(events.iter().any(|e| matches!(e, TokenEvent::Granted { .. })));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod binary;
mod checkpoint;
mod codec;
mod config;
mod custody;
mod event;
mod handoff;
mod naimi;
mod order;
mod regen;
mod ring;
mod runtime;
mod search;
mod service;
mod shard;
mod token;
mod types;
mod wire;

pub use binary::{BinaryMsg, BinaryNode, Gimme, TokenMode};
pub use checkpoint::{Checkpoint, CKPT_BINARY, CKPT_NAIMI, CKPT_RING, CKPT_SEARCH};
pub use codec::{
    decode_binary_msg, decode_naimi_msg, decode_ring_msg, decode_search_msg, decode_shard_frame,
    encode_binary_msg, encode_naimi_msg, encode_ring_msg, encode_search_msg, encode_shard_frame,
    known_binary_tags, known_naimi_tags, known_ring_tags, known_search_tags, known_shard_tags,
    shard_frame_encoded_len, CodecError,
};
pub use config::{ProtocolConfig, TrapCleanup};
pub use custody::TokenNode;
pub use event::{EventSource, TokenEvent, Want};
pub use handoff::{Handoff, PendingTransfer};
pub use naimi::{NaimiMsg, NaimiNode};
pub use order::{HistoryDigest, OrderState};
pub use regen::{gen_epoch, gen_minter, make_gen, RegenEngine, RegenMsg, RegenReply, RegenVerdict};
pub use ring::{RingMsg, RingNode};
pub use runtime::{Cluster, ClusterConfig, ClusterHandle, ShardedCluster, ShardedClusterConfig};
pub use search::{SearchMsg, SearchNode};
pub use service::{Delivery, Lease, ServiceError, TokenService};
pub use shard::{Ring as ShardRing, RingPosition, ShardId, ShardMap, ShardMove, DEFAULT_PROBES};
pub use token::TokenFrame;
pub use types::{Grant, LogEntry, RequestId, VisitStamp};
pub use wire::WireProtocol;
