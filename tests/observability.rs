//! End-to-end checks on the observability layer: Lemma 6's forward bound
//! measured (not inferred) from request-lifecycle spans, golden-file
//! stability of the JSON-lines trace export, exact registry merging
//! across thread counts, and span byte counts taken from the wire codec.

use adaptive_token_passing::sim::obs::{self, TRACE_CAPACITY};
use adaptive_token_passing::sim::runner::{
    run_experiment, run_experiment_traced, ExperimentSpec, NetProfile, Protocol,
};
use adaptive_token_passing::sim::sweep::{run_points, PointSpec, WorkloadSpec};
use adaptive_token_passing::sim::workload::GlobalPoisson;
use adaptive_token_passing::util::pool;
use atp_core::{
    BinaryNode, NaimiNode, ProtocolConfig, RingNode, SearchNode, TokenEvent, Want, WireProtocol,
};
use atp_net::{Harness, MsgClass, NodeId, Outbound, SimTime, Topology};
use std::collections::VecDeque;

/// Lemma 6: under System BinarySearch a request is forwarded O(log N)
/// times. Measured directly: every span's forward count from a pinned
/// N = 128 run must stay within a small constant of log₂ N.
#[test]
fn lemma6_forwards_bounded_by_log_n() {
    let n = 128;
    let spec = ExperimentSpec::new(Protocol::Binary, n, 20_000).with_seed(7);
    let mut wl = GlobalPoisson::new(10.0);
    let (summary, artifacts) = run_experiment_traced(&spec, &mut wl, TRACE_CAPACITY);
    assert!(summary.spans.closed > 100, "need a populated run");
    assert!(!artifacts.spans.is_empty());

    let log2n = (n as f64).log2(); // 7
    let bound = (3.0 * log2n).ceil() as u64; // c = 3 ⇒ 21
    let max = artifacts.spans.iter().map(|s| s.forwards).max().unwrap();
    assert_eq!(
        max, summary.spans.max_forwards,
        "per-span max must agree with the report"
    );
    assert!(
        max <= bound,
        "Lemma 6 violated: max forwards {max} > {bound} (= 3·log2 {n})"
    );
    // And the bound is not vacuous — searches do forward.
    assert!(max >= 1, "no request was ever forwarded");
}

/// The JSON-lines trace export of a pinned seed is byte-stable. Regenerate
/// the golden with `ATP_BLESS=1 cargo test -q --test observability`.
#[test]
fn trace_export_matches_golden() {
    let spec = ExperimentSpec::new(Protocol::Binary, 8, 300)
        .with_seed(3)
        .with_net(NetProfile::unit().latency(1, 2));
    let mut wl = GlobalPoisson::new(12.0);
    let (_, artifacts) = run_experiment_traced(&spec, &mut wl, TRACE_CAPACITY);
    let jsonl = obs::trace_jsonl(&artifacts);
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/span_trace.jsonl");
    if std::env::var_os("ATP_BLESS").is_some() {
        std::fs::write(golden_path, &jsonl).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing — run with ATP_BLESS=1 to create it");
    assert_eq!(
        jsonl, golden,
        "trace export drifted from tests/golden/span_trace.jsonl; \
         if intentional, re-bless with ATP_BLESS=1"
    );
}

/// Acceptance: metrics dumps are byte-identical between ATP_THREADS=1 and
/// ATP_THREADS=8 — the registry merge is exact, so sharding the sweep
/// differently cannot change a single byte.
#[test]
fn merged_metrics_identical_at_1_and_8_threads() {
    let points: Vec<PointSpec> = Protocol::ALL
        .iter()
        .flat_map(|&protocol| {
            (0..3).map(move |k| {
                PointSpec::new(
                    ExperimentSpec::new(protocol, 16, 1_500).with_seed(50 + k),
                    WorkloadSpec::global_poisson(7.0 + k as f64),
                )
            })
        })
        .collect();
    let metrics_json = |threads: usize| {
        pool::with_threads(threads, || {
            obs::merged_registry(&run_points(&points)).to_json()
        })
    };
    let one = metrics_json(1);
    let eight = metrics_json(8);
    assert!(!one.is_empty());
    assert_eq!(one, eight, "metrics artifact differs across thread counts");
}

/// Span records survive the run JSON: the summary embeds the span report
/// with the same counts the raw spans show.
#[test]
fn run_json_embeds_span_report() {
    let spec = ExperimentSpec::new(Protocol::Binary, 16, 2_000).with_seed(11);
    let mut wl = GlobalPoisson::new(9.0);
    let summary = run_experiment(&spec, &mut wl);
    let v = adaptive_token_passing::util::json::parse(&summary.to_json()).expect("run JSON parses");
    let spans = v.get("spans").expect("spans object in run JSON");
    assert_eq!(
        spans.get("closed").and_then(|c| c.as_u64()),
        Some(summary.spans.closed)
    );
    assert_eq!(
        spans.get("max_forwards").and_then(|c| c.as_u64()),
        Some(summary.spans.max_forwards)
    );
}

/// Messages sent and not yet delivered, with their senders.
type InFlight<M> = VecDeque<(NodeId, Outbound<M>)>;

/// After a callback on `host`: every span size it reported
/// (`SearchForwarded`, `TokenDispatched`) must be the encoded length of one
/// message that callback sent. Queues the sends; returns how many sizes
/// were checked and whether a request was granted.
fn audit<P: WireProtocol>(
    host: &mut Harness<P>,
    in_flight: &mut InFlight<P::Msg>,
) -> (usize, bool) {
    let sent = host.take_outbound();
    let mut lens: Vec<u64> = sent
        .iter()
        .map(|o| P::msg_encoded_len(&o.msg) as u64)
        .collect();
    let (mut checked, mut granted) = (0, false);
    for ev in host.node_mut().take_events() {
        match ev {
            TokenEvent::SearchForwarded { bytes, .. }
            | TokenEvent::TokenDispatched { bytes, .. } => {
                let Some(i) = lens.iter().position(|&len| len == bytes) else {
                    panic!("{}: {ev:?} reports {bytes} bytes, sent {lens:?}", P::LABEL);
                };
                lens.swap_remove(i);
                checked += 1;
            }
            TokenEvent::Granted { .. } => granted = true,
            _ => {}
        }
    }
    let from = host.id();
    in_flight.extend(sent.into_iter().map(|o| (from, o)));
    (checked, granted)
}

/// Drives one request at node 5 of an 8-node ring to its grant through
/// `Harness` hosts, delivering control messages before token frames, and
/// audits every callback. Returns how many span sizes were checked.
fn span_sizes_match_the_codec<P: WireProtocol>() -> usize {
    let (n, t) = (8, SimTime::ZERO);
    let mut hosts: Vec<Harness<P>> = (0..n)
        .map(|i| {
            let node = P::build(ProtocolConfig::default());
            Harness::new(NodeId::new(i), Topology::ring(n as usize), node, 1)
        })
        .collect();
    let mut in_flight = VecDeque::new();
    let mut checked = 0;
    for host in &mut hosts {
        host.init(t);
        checked += audit(host, &mut in_flight).0;
    }
    hosts[5].external(t, Want::new(7));
    let (c, mut granted) = audit(&mut hosts[5], &mut in_flight);
    checked += c;
    for _ in 0..1_000 {
        if granted {
            return checked;
        }
        let control = in_flight
            .iter()
            .position(|(_, o)| o.class == MsgClass::Control);
        let (from, o) = in_flight
            .remove(control.unwrap_or(0))
            .expect("a message in flight");
        let host = &mut hosts[o.to.index()];
        host.deliver(t, from, o.msg);
        let (c, g) = audit(host, &mut in_flight);
        checked += c;
        granted |= g;
    }
    panic!("{}: the request was never granted", P::LABEL);
}

/// The rotating ring never searches, so it reports no span sizes.
#[test]
fn ring_reports_no_span_sizes() {
    assert_eq!(span_sizes_match_the_codec::<RingNode>(), 0);
}

#[test]
fn search_span_sizes_are_the_codec_lengths() {
    // The gimme walk 6 → 7 → 0, then the granting token.
    assert_eq!(span_sizes_match_the_codec::<SearchNode>(), 4);
}

#[test]
fn binary_span_sizes_are_the_codec_lengths() {
    assert!(span_sizes_match_the_codec::<BinaryNode>() >= 2);
}

#[test]
fn naimi_span_sizes_are_the_codec_lengths() {
    // One Request to the holder, then the granting token.
    assert_eq!(span_sizes_match_the_codec::<NaimiNode>(), 2);
}
