//! Request-lifecycle spans: per-request phase timings and message/byte
//! counts, reconstructed from the [`TokenEvent`] stream.
//!
//! A span follows one request through its four observable phases:
//!
//! ```text
//! Requested ──(search: Gimme/probe hops)──▶ TokenDispatched ──▶ Granted ──▶ Released
//!            └──────────── wait ────────────────────────────────┘
//! ```
//!
//! The per-span forward count is exactly the number of
//! [`TokenEvent::SearchForwarded`] sends done on the request's behalf —
//! the quantity Lemma 6 bounds by O(log N) for System BinarySearch. The
//! aggregate report folds every span into exact-merge
//! [`LogHistogram`]s, so sweep shards combine byte-identically at any
//! `ATP_THREADS` setting.

use atp_core::{RequestId, TokenEvent};
use atp_net::SimTime;
use atp_util::json::JsonWriter;
use atp_util::metrics::{LogHistogram, Registry};

/// One request's observed lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSpan {
    /// The request.
    pub req: RequestId,
    /// When the origin became ready (rule 1).
    pub requested_at: SimTime,
    /// When the token frame was shipped toward the origin (rule 7), if
    /// the request was served out-of-band.
    pub dispatched_at: Option<SimTime>,
    /// When the origin received the token while ready.
    pub granted_at: Option<SimTime>,
    /// When service completed (the datum was appended to `H`).
    pub released_at: Option<SimTime>,
    /// Network sends done searching on this request's behalf (Lemma 6's
    /// forward count).
    pub forwards: u64,
    /// Total encoded bytes of those search sends.
    pub search_bytes: u64,
    /// Total encoded bytes of token frames dispatched for this request.
    pub token_bytes: u64,
}

impl RequestSpan {
    fn new(req: RequestId, requested_at: SimTime) -> Self {
        RequestSpan {
            req,
            requested_at,
            dispatched_at: None,
            granted_at: None,
            released_at: None,
            forwards: 0,
            search_bytes: 0,
            token_bytes: 0,
        }
    }

    /// Whether the request completed service during the run.
    pub fn is_closed(&self) -> bool {
        self.released_at.is_some()
    }

    /// Serializes this span as one standalone JSON object (no trailing
    /// newline). Field order is fixed, so identical runs export identical
    /// bytes; unreached phases serialize as `null`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("kind");
        w.str("span");
        w.key("node");
        w.u64(self.req.origin.index() as u64);
        w.key("seq");
        w.u64(self.req.seq);
        w.key("requested_at");
        w.u64(self.requested_at.ticks());
        w.key("dispatched_at");
        opt_time(&mut w, self.dispatched_at);
        w.key("granted_at");
        opt_time(&mut w, self.granted_at);
        w.key("released_at");
        opt_time(&mut w, self.released_at);
        w.key("forwards");
        w.u64(self.forwards);
        w.key("search_bytes");
        w.u64(self.search_bytes);
        w.key("token_bytes");
        w.u64(self.token_bytes);
        w.end_obj();
        w.finish()
    }
}

fn opt_time(w: &mut JsonWriter, t: Option<SimTime>) {
    match t {
        Some(t) => w.u64(t.ticks()),
        None => w.null(),
    }
}

/// Accumulates [`RequestSpan`]s from a run's event stream.
///
/// Spans are kept open for the whole run: search hops are recorded at
/// *relay* nodes, whose event buffers drain at their next dispatch — which
/// may happen after the origin's grant — so closing spans eagerly would
/// undercount forwards.
#[derive(Debug, Clone, Default)]
pub struct SpanCollector {
    /// Spans indexed `[origin][seq]`. Every protocol numbers each node's
    /// requests densely from zero, so a two-level vector gives O(1) access
    /// per event where a `BTreeMap<RequestId, _>` paid a pointer-chasing
    /// probe on the dispatch hot path (it dominated drive-loop profiles).
    by_origin: Vec<Vec<Option<RequestSpan>>>,
}

impl SpanCollector {
    /// An empty collector.
    pub fn new() -> Self {
        SpanCollector::default()
    }

    /// The span slot for `req`, created (with `requested_at = at`) on
    /// first touch.
    fn slot(&mut self, req: RequestId, at: SimTime) -> &mut RequestSpan {
        let origin = req.origin.index();
        if origin >= self.by_origin.len() {
            self.by_origin.resize_with(origin + 1, Vec::new);
        }
        let row = &mut self.by_origin[origin];
        let seq = req.seq as usize;
        if seq >= row.len() {
            row.resize(seq + 1, None);
        }
        row[seq].get_or_insert_with(|| RequestSpan::new(req, at))
    }

    /// Feeds one protocol event into the collector.
    ///
    /// Events for unknown requests (e.g. forwards drained after a
    /// truncated run's horizon) create the span on demand so counts stay
    /// exact.
    pub fn on_event(&mut self, ev: &TokenEvent) {
        match *ev {
            TokenEvent::Requested { req, at } => {
                self.slot(req, at).requested_at = at;
            }
            TokenEvent::SearchForwarded { req, bytes, at } => {
                let s = self.slot(req, at);
                s.forwards += 1;
                s.search_bytes += bytes;
            }
            TokenEvent::TokenDispatched { req, bytes, at } => {
                let s = self.slot(req, at);
                // First dispatch wins: a retransmitted frame re-dispatches
                // the same request but the span records the original send.
                s.dispatched_at.get_or_insert(at);
                s.token_bytes += bytes;
            }
            TokenEvent::Granted { req, at } => {
                self.slot(req, at).granted_at.get_or_insert(at);
            }
            TokenEvent::Released { req, at, .. } => {
                self.slot(req, at).released_at.get_or_insert(at);
            }
            TokenEvent::Delivered { .. }
            | TokenEvent::Regenerated { .. }
            | TokenEvent::StaleTokenDiscarded { .. } => {}
        }
    }

    /// Every span created so far, in `(origin, seq)` storage order.
    fn iter(&self) -> impl Iterator<Item = &RequestSpan> {
        self.by_origin.iter().flatten().filter_map(|s| s.as_ref())
    }

    /// All spans, ordered by `(requested_at, req)` — deterministic and
    /// chronological for export.
    pub fn spans(&self) -> Vec<RequestSpan> {
        let mut out: Vec<RequestSpan> = self.iter().copied().collect();
        out.sort_by_key(|s| (s.requested_at, s.req.origin.index(), s.req.seq));
        out
    }

    /// Folds every span into the aggregate report.
    pub fn report(&self) -> SpanReport {
        let mut r = SpanReport::default();
        for s in self.iter() {
            if s.is_closed() {
                r.closed += 1;
            } else {
                r.open += 1;
            }
            r.max_forwards = r.max_forwards.max(s.forwards);
            r.forwards.record(s.forwards);
            r.search_msgs += s.forwards;
            r.search_bytes += s.search_bytes;
            if s.token_bytes > 0 {
                r.dispatch_bytes += s.token_bytes;
                r.dispatches += 1;
            }
            if let Some(g) = s.granted_at {
                r.wait_ticks.record(g.since(s.requested_at));
                match s.dispatched_at {
                    Some(d) => {
                        r.search_ticks.record(d.since(s.requested_at));
                        r.flight_ticks.record(g.since(d));
                    }
                    // Served in rotation: the whole wait was "search".
                    None => r.search_ticks.record(g.since(s.requested_at)),
                }
                if let Some(rel) = s.released_at {
                    r.service_ticks.record(rel.since(g));
                }
            }
        }
        r
    }
}

/// Aggregate of every request span of one run: phase-duration histograms
/// plus per-class message/byte counters. All fields merge exactly, so
/// shard reports combine deterministically.
#[derive(Debug, Clone, Default)]
pub struct SpanReport {
    /// Requests that completed service.
    pub closed: u64,
    /// Requests still in flight at run end.
    pub open: u64,
    /// Largest per-request forward count (Lemma 6's bounded quantity).
    pub max_forwards: u64,
    /// Distribution of per-request forward counts.
    pub forwards: LogHistogram,
    /// Requested → granted durations.
    pub wait_ticks: LogHistogram,
    /// Requested → token-dispatch durations (whole wait when the request
    /// was served by plain rotation).
    pub search_ticks: LogHistogram,
    /// Token-dispatch → granted durations (out-of-band serves only).
    pub flight_ticks: LogHistogram,
    /// Granted → released durations.
    pub service_ticks: LogHistogram,
    /// Search-class sends observed (sum of all forward counts).
    pub search_msgs: u64,
    /// Encoded bytes of those sends.
    pub search_bytes: u64,
    /// Out-of-band token dispatches observed.
    pub dispatches: u64,
    /// Encoded bytes of dispatched token frames.
    pub dispatch_bytes: u64,
}

impl SpanReport {
    /// Merges another report into this one (exact: bucket-wise adds and
    /// counter sums), used when combining sweep shards.
    pub fn merge(&mut self, other: &SpanReport) {
        self.closed += other.closed;
        self.open += other.open;
        self.max_forwards = self.max_forwards.max(other.max_forwards);
        self.forwards.merge(&other.forwards);
        self.wait_ticks.merge(&other.wait_ticks);
        self.search_ticks.merge(&other.search_ticks);
        self.flight_ticks.merge(&other.flight_ticks);
        self.service_ticks.merge(&other.service_ticks);
        self.search_msgs += other.search_msgs;
        self.search_bytes += other.search_bytes;
        self.dispatches += other.dispatches;
        self.dispatch_bytes += other.dispatch_bytes;
    }

    /// Writes this report as a JSON object value into `w` (fixed field
    /// order; histograms as their summary-plus-sparse-bucket form).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.key("closed");
        w.u64(self.closed);
        w.key("open");
        w.u64(self.open);
        w.key("max_forwards");
        w.u64(self.max_forwards);
        w.key("search_msgs");
        w.u64(self.search_msgs);
        w.key("search_bytes");
        w.u64(self.search_bytes);
        w.key("dispatches");
        w.u64(self.dispatches);
        w.key("dispatch_bytes");
        w.u64(self.dispatch_bytes);
        w.key("forwards");
        self.forwards.write_json(w);
        w.key("wait_ticks");
        self.wait_ticks.write_json(w);
        w.key("search_ticks");
        self.search_ticks.write_json(w);
        w.key("flight_ticks");
        self.flight_ticks.write_json(w);
        w.key("service_ticks");
        self.service_ticks.write_json(w);
        w.end_obj();
    }

    /// Folds this report into a metrics [`Registry`] under `span.*` keys.
    pub fn fill_registry(&self, reg: &mut Registry) {
        reg.counter_add("span.closed", self.closed);
        reg.counter_add("span.open", self.open);
        reg.counter_add("span.search.msgs", self.search_msgs);
        reg.counter_add("span.search.bytes", self.search_bytes);
        reg.counter_add("span.dispatch.msgs", self.dispatches);
        reg.counter_add("span.dispatch.bytes", self.dispatch_bytes);
        reg.gauge_max("span.max_forwards", self.max_forwards as i64);
        reg.hist_merge("span.forwards", &self.forwards);
        reg.hist_merge("span.wait_ticks", &self.wait_ticks);
        reg.hist_merge("span.search_ticks", &self.search_ticks);
        reg.hist_merge("span.flight_ticks", &self.flight_ticks);
        reg.hist_merge("span.service_ticks", &self.service_ticks);
    }
}

/// Renders spans as a chrome://tracing-compatible JSON document (the
/// "Trace Event Format"): one complete (`"ph":"X"`) event per reached
/// phase, `pid` 0, `tid` = requesting node, timestamps in ticks.
pub fn chrome_trace_json(spans: &[RequestSpan]) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("displayTimeUnit");
    w.str("ms");
    w.key("traceEvents");
    w.begin_arr();
    for s in spans {
        let tid = s.req.origin.index() as u64;
        let granted = s.granted_at;
        match (s.dispatched_at, granted) {
            (Some(d), _) => {
                chrome_event(&mut w, "search", tid, s, s.requested_at, d);
                if let Some(g) = granted {
                    chrome_event(&mut w, "flight", tid, s, d, g);
                }
            }
            (None, Some(g)) => chrome_event(&mut w, "search", tid, s, s.requested_at, g),
            (None, None) => {}
        }
        if let (Some(g), Some(rel)) = (granted, s.released_at) {
            chrome_event(&mut w, "service", tid, s, g, rel);
        }
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

fn chrome_event(
    w: &mut JsonWriter,
    name: &str,
    tid: u64,
    s: &RequestSpan,
    start: SimTime,
    end: SimTime,
) {
    w.begin_obj();
    w.key("name");
    w.str(name);
    w.key("cat");
    w.str("request");
    w.key("ph");
    w.str("X");
    w.key("ts");
    w.u64(start.ticks());
    w.key("dur");
    w.u64(end.since(start));
    w.key("pid");
    w.u64(0);
    w.key("tid");
    w.u64(tid);
    w.key("args");
    w.begin_obj();
    w.key("seq");
    w.u64(s.req.seq);
    w.key("forwards");
    w.u64(s.forwards);
    w.end_obj();
    w.end_obj();
}

#[cfg(test)]
mod tests {
    use super::*;
    use atp_net::NodeId;

    fn req(node: u32, seq: u64) -> RequestId {
        RequestId::new(NodeId::new(node), seq)
    }

    fn t(ticks: u64) -> SimTime {
        SimTime::from_ticks(ticks)
    }

    fn released(req: RequestId, at: SimTime) -> TokenEvent {
        TokenEvent::Released {
            req,
            seq: 1,
            payload: 0,
            at,
        }
    }

    #[test]
    fn span_follows_full_lifecycle() {
        let mut c = SpanCollector::new();
        let r = req(3, 1);
        c.on_event(&TokenEvent::Requested { req: r, at: t(10) });
        c.on_event(&TokenEvent::SearchForwarded {
            req: r,
            bytes: 30,
            at: t(11),
        });
        c.on_event(&TokenEvent::SearchForwarded {
            req: r,
            bytes: 34,
            at: t(12),
        });
        c.on_event(&TokenEvent::TokenDispatched {
            req: r,
            bytes: 80,
            at: t(14),
        });
        c.on_event(&TokenEvent::Granted { req: r, at: t(16) });
        c.on_event(&released(r, t(18)));
        let spans = c.spans();
        assert_eq!(spans.len(), 1);
        let s = spans[0];
        assert_eq!(s.forwards, 2);
        assert_eq!(s.search_bytes, 64);
        assert_eq!(s.token_bytes, 80);
        assert_eq!(s.dispatched_at, Some(t(14)));
        assert!(s.is_closed());

        let rep = c.report();
        assert_eq!(rep.closed, 1);
        assert_eq!(rep.open, 0);
        assert_eq!(rep.max_forwards, 2);
        assert_eq!(rep.wait_ticks.max(), 6);
        assert_eq!(rep.search_ticks.max(), 4);
        assert_eq!(rep.flight_ticks.max(), 2);
        assert_eq!(rep.service_ticks.max(), 2);
        assert_eq!(rep.search_bytes, 64);
        assert_eq!(rep.dispatch_bytes, 80);
    }

    #[test]
    fn late_relay_forwards_still_count() {
        // A relay's SearchForwarded drains after the origin's Granted.
        let mut c = SpanCollector::new();
        let r = req(0, 1);
        c.on_event(&TokenEvent::Requested { req: r, at: t(0) });
        c.on_event(&TokenEvent::Granted { req: r, at: t(5) });
        c.on_event(&released(r, t(5)));
        c.on_event(&TokenEvent::SearchForwarded {
            req: r,
            bytes: 21,
            at: t(2),
        });
        assert_eq!(c.spans()[0].forwards, 1);
    }

    #[test]
    fn rotation_serve_has_no_flight_phase() {
        let mut c = SpanCollector::new();
        let r = req(1, 1);
        c.on_event(&TokenEvent::Requested { req: r, at: t(0) });
        c.on_event(&TokenEvent::Granted { req: r, at: t(7) });
        let rep = c.report();
        assert_eq!(rep.search_ticks.max(), 7, "whole wait counts as search");
        assert_eq!(rep.flight_ticks.count(), 0);
        assert_eq!(rep.open, 1, "never released");
    }

    #[test]
    fn report_merge_is_exact() {
        let mut a = SpanCollector::new();
        a.on_event(&TokenEvent::Requested {
            req: req(0, 1),
            at: t(0),
        });
        a.on_event(&TokenEvent::Granted {
            req: req(0, 1),
            at: t(3),
        });
        let mut b = SpanCollector::new();
        b.on_event(&TokenEvent::Requested {
            req: req(1, 1),
            at: t(0),
        });
        b.on_event(&TokenEvent::Granted {
            req: req(1, 1),
            at: t(9),
        });

        let mut both = SpanCollector::new();
        for c in [&a, &b] {
            for s in c.spans() {
                both.on_event(&TokenEvent::Requested {
                    req: s.req,
                    at: s.requested_at,
                });
                both.on_event(&TokenEvent::Granted {
                    req: s.req,
                    at: s.granted_at.unwrap(),
                });
            }
        }
        let mut merged = a.report();
        merged.merge(&b.report());
        let mut wa = JsonWriter::new();
        merged.write_json(&mut wa);
        let mut wb = JsonWriter::new();
        both.report().write_json(&mut wb);
        assert_eq!(wa.finish(), wb.finish());
    }

    #[test]
    fn span_json_has_nulls_for_unreached_phases() {
        let mut c = SpanCollector::new();
        c.on_event(&TokenEvent::Requested {
            req: req(2, 1),
            at: t(4),
        });
        let json = c.spans()[0].to_json();
        let v = atp_util::json::parse(&json).unwrap();
        assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("span"));
        assert_eq!(v.get("requested_at").and_then(|k| k.as_u64()), Some(4));
        assert!(v.get("granted_at").is_some_and(|k| k.is_null()));
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut c = SpanCollector::new();
        let r = req(0, 1);
        c.on_event(&TokenEvent::Requested { req: r, at: t(0) });
        c.on_event(&TokenEvent::TokenDispatched {
            req: r,
            bytes: 57,
            at: t(2),
        });
        c.on_event(&TokenEvent::Granted { req: r, at: t(4) });
        c.on_event(&released(r, t(6)));
        let doc = chrome_trace_json(&c.spans());
        let v = atp_util::json::parse(&doc).unwrap();
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3, "search, flight, service");
        assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("X"));
    }

    #[test]
    fn registry_fill_round_trips_counts() {
        let mut c = SpanCollector::new();
        let r = req(0, 1);
        c.on_event(&TokenEvent::Requested { req: r, at: t(0) });
        c.on_event(&TokenEvent::SearchForwarded {
            req: r,
            bytes: 21,
            at: t(1),
        });
        c.on_event(&TokenEvent::Granted { req: r, at: t(2) });
        let mut reg = Registry::new();
        c.report().fill_registry(&mut reg);
        assert_eq!(reg.counter("span.search.bytes"), 21);
        assert_eq!(
            reg.hist("span.forwards").expect("histogram exists").count(),
            1
        );
    }
}
