//! What one simulated node costs in memory: its inline size, and the heap it
//! keeps between dispatches.
//!
//! A `World` holds N nodes in one array, so at N = 10⁶ every byte of a node
//! is a megabyte of resident set. State read only on a fault path (the
//! unacked token transfer, the regeneration inquiry, queued membership
//! changes, a full history log) sits behind one pointer each, and a node
//! drained by its driver keeps no event buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use adaptive_token_passing::core::{
    BinaryNode, EventSource, NaimiNode, ProtocolConfig, RingNode, SearchNode, TokenEvent,
    TokenNode, Want,
};
use adaptive_token_passing::net::{NodeId, SimTime, StepOutcome, World, WorldConfig};

/// Counts the bytes this thread holds on the heap, so tests running on other
/// threads of this binary do not disturb a measurement.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(delta: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + delta));
}

fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are the ones `System` needs; the counting beside it
// allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` via this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        // SAFETY: as for `dealloc`, and our caller upholds `new_size`'s rules.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The largest a node of any protocol may be, inline.
const MAX_NODE_BYTES: usize = 448;

#[test]
fn every_node_type_fits_the_inline_budget() {
    let sizes = [
        ("ring", size_of::<RingNode>()),
        ("search", size_of::<SearchNode>()),
        ("binary", size_of::<BinaryNode>()),
        ("naimi", size_of::<NaimiNode>()),
    ];
    for (label, bytes) in sizes {
        assert!(
            bytes <= MAX_NODE_BYTES,
            "a {label} node is {bytes} B inline, over the {MAX_NODE_BYTES} B budget"
        );
    }
}

const N: usize = 2_000;
const HORIZON: u64 = 4 * N as u64;

/// Heap bytes the nodes of one run keep once it is over, summed over every
/// node but the token holder (whose frame belongs to the token, not the
/// node), and the number of nodes summed.
///
/// One request every 10 ticks at a node picked by a fixed stride, logs off,
/// default unit-latency network, events drained after every dispatch as the
/// runner does: the `sim-scale-n20k` shape at a tenth of N.
fn kept_heap<P: TokenNode>(build: impl Fn(ProtocolConfig) -> P) -> (isize, usize) {
    let cfg = ProtocolConfig::default().with_record_log(false);
    let mut world: World<P> = World::from_nodes(
        (0..N).map(|_| build(cfg)).collect(),
        WorldConfig::default().seed(1),
    );
    for k in 1..HORIZON / 10 {
        let node = NodeId::new((k * 7_919 % N as u64) as u32);
        world.schedule_external(SimTime::from_ticks(10 * k), node, Want::new(k));
    }
    let mut drained: Vec<TokenEvent> = Vec::new();
    while world.now() <= SimTime::from_ticks(HORIZON) {
        match world.step() {
            StepOutcome::Quiescent => break,
            StepOutcome::Consumed { .. } => {}
            StepOutcome::Dispatched { node, .. } => {
                drained.clear();
                world.node_mut(node).take_events_into(&mut drained);
            }
        }
    }
    let (mut kept, mut counted) = (0, 0);
    for i in 0..N {
        let id = NodeId::new(i as u32);
        if world.node(id).holds_token() {
            continue;
        }
        // A fresh node allocates nothing, so dropping the old one frees
        // exactly the heap it kept.
        let before = live_bytes();
        drop(std::mem::replace(world.node_mut(id), build(cfg)));
        kept += before - live_bytes();
        counted += 1;
    }
    (kept, counted)
}

fn heap_per_node<P: TokenNode>(label: &str, build: impl Fn(ProtocolConfig) -> P) -> f64 {
    let fresh_before = live_bytes();
    let fresh = build(ProtocolConfig::default().with_record_log(false));
    assert_eq!(live_bytes(), fresh_before, "a fresh {label} node allocates");
    drop(fresh);
    let (kept, counted) = kept_heap(build);
    let per_node = kept as f64 / counted as f64;
    println!(
        "{label}: {} B inline, {per_node:.1} B heap per node",
        size_of::<P>()
    );
    per_node
}

/// Once drained, a node keeps heap only for what it still has: requests
/// waiting for the token, the traps it owes (Search, BinarySearch, with their
/// search trails) and Naimi's per-origin duplicate filter. Nothing is left
/// from an event buffer, a served request or a fault path. Before nodes
/// released those, the same run kept 128, 1 764, 459 and 234 B per node.
#[test]
fn drained_nodes_keep_heap_only_for_live_state() {
    let ceilings = [
        ("ring", heap_per_node("ring", RingNode::new), 16.0),
        ("search", heap_per_node("search", SearchNode::new), 1_700.0),
        ("binary", heap_per_node("binary", BinaryNode::new), 144.0),
        ("naimi", heap_per_node("naimi", NaimiNode::new), 136.0),
    ];
    for (label, bytes, ceiling) in ceilings {
        assert!(
            bytes <= ceiling,
            "a {label} node keeps {bytes:.1} B of heap, over {ceiling} B"
        );
    }
}
