//! Spans and counts recorded from outside the program: a delegating
//! [`Traced`] protocol node and a delegating [`TracedTransport`], plus the
//! rule that attributes their spans to request windows.
//!
//! Every wrapper call records into a per-thread buffer; a thread hands its
//! buffer over when its endpoint closes, and [`take`] merges them. Nothing
//! here runs during the untraced rounds that produce the end-to-end numbers
//! (the one exception, the frame count of `chaos-recover-chan`, is an integer
//! add with span recording switched off).

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use atp_core::WireProtocol;
use atp_core::{Checkpoint, CodecError, EventSource, OrderState, ProtocolConfig, TokenEvent, Want};
use atp_net::{CloseReport, Context, Endpoint, Node, NodeId, Transport};
use atp_sim::runner::ProtocolNode;

/// Span kinds. The first [`BUSY_KINDS`] are CPU work and enter the busy
/// union; `transport.recv_wait` is waiting and is only listed beside it.
pub const PROTO_STEP: usize = 0;
pub const CODEC_ENCODE: usize = 1;
pub const CODEC_DECODE: usize = 2;
pub const STAGE_FLUSH: usize = 3;
pub const RECV_WAIT: usize = 4;
pub const BUSY_KINDS: usize = 4;
pub const KIND_NAMES: [&str; 5] = [
    "proto.step",
    "codec.encode",
    "codec.decode",
    "transport.stage_flush",
    "transport.recv_wait",
];

/// Requests whose child spans are kept in memory; later requests still feed
/// the counters.
pub const KEPT_REQUESTS: usize = 2_000;

static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Off: wrappers only count. On: they also read the clock around each call.
static SPANS_ON: AtomicBool = AtomicBool::new(false);
/// On: spans are stored, not only summed (the first [`KEPT_REQUESTS`]).
static KEEP_SPANS: AtomicBool = AtomicBool::new(false);
/// What threads whose endpoint has closed recorded, merged.
static SINK: Mutex<ThreadTrace> = Mutex::new(ThreadTrace::new());

thread_local! {
    static REC: RefCell<ThreadTrace> = const { RefCell::new(ThreadTrace::new()) };
    static CUR_NODE: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// Nanoseconds since the process's trace epoch, the one clock every span uses.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Switches clock reads and span storage on or off for every wrapper.
pub fn set_recording(spans_on: bool, keep: bool) {
    now_ns();
    SPANS_ON.store(spans_on, Ordering::Relaxed);
    KEEP_SPANS.store(keep, Ordering::Relaxed);
}

/// Stops storing spans; sums and counts continue.
pub fn stop_keeping() {
    KEEP_SPANS.store(false, Ordering::Relaxed);
}

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: usize,
    pub node: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything one thread (or, after [`take`], the whole pass) recorded.
#[derive(Debug)]
pub struct ThreadTrace {
    pub spans: Vec<Span>,
    /// Summed span durations per kind (all requests, kept or not).
    pub busy_ns: [u64; 5],
    /// Calls per kind.
    pub calls: [u64; 5],
    pub frames: u64,
    pub bytes: u64,
    pub flushes: u64,
    pub recv_timeouts: u64,
    pub token_frames: u64,
    pub token_bytes: u64,
}

impl ThreadTrace {
    const fn new() -> Self {
        ThreadTrace {
            spans: Vec::new(),
            busy_ns: [0; 5],
            calls: [0; 5],
            frames: 0,
            bytes: 0,
            flushes: 0,
            recv_timeouts: 0,
            token_frames: 0,
            token_bytes: 0,
        }
    }

    fn merge(&mut self, mut other: ThreadTrace) {
        self.spans.append(&mut other.spans);
        for k in 0..5 {
            self.busy_ns[k] += other.busy_ns[k];
            self.calls[k] += other.calls[k];
        }
        self.frames += other.frames;
        self.bytes += other.bytes;
        self.flushes += other.flushes;
        self.recv_timeouts += other.recv_timeouts;
        self.token_frames += other.token_frames;
        self.token_bytes += other.token_bytes;
    }
}

/// Merges and clears every thread's buffer, the caller's included.
pub fn take() -> ThreadTrace {
    let mut all = REC.with(|r| r.replace(ThreadTrace::new()));
    let mut sink = SINK
        .lock()
        .expect("no recorder panics while holding the sink");
    all.merge(std::mem::replace(&mut *sink, ThreadTrace::new()));
    all.spans.sort_by_key(|s| s.start_ns);
    all
}

fn hand_over() {
    let mine = REC.with(|r| r.replace(ThreadTrace::new()));
    SINK.lock()
        .expect("no recorder panics while holding the sink")
        .merge(mine);
}

/// Runs `f` as one call of `kind`, timed when the clock is on.
fn timed<R>(kind: usize, f: impl FnOnce() -> R) -> R {
    if !SPANS_ON.load(Ordering::Relaxed) {
        REC.with(|r| r.borrow_mut().calls[kind] += 1);
        return f();
    }
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.calls[kind] += 1;
        r.busy_ns[kind] += end_ns - start_ns;
        if KEEP_SPANS.load(Ordering::Relaxed) {
            let node = CUR_NODE.with(Cell::get);
            r.spans.push(Span {
                kind,
                node,
                start_ns,
                end_ns,
            });
        }
    });
    out
}

/// First bytes of the frames that carry the token, per codec family. The
/// codec exports its tag lists but not which tags are token frames;
/// `probes::tests::token_tags_are_the_token_variants` pins this table to the
/// message types.
pub fn is_token_tag(tag: u8) -> bool {
    matches!(tag, 0x01..=0x04 | 0x30 | 0x38 | 0x39 | 0x41 | 0x42)
}

/// A protocol node that times every step and every codec call of the node it
/// wraps and changes nothing else.
#[derive(Debug)]
pub struct Traced<P>(P);

impl<P: WireProtocol> Traced<P> {
    fn step(
        &mut self,
        ctx: &mut Context<'_, P::Msg>,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Msg>),
    ) {
        CUR_NODE.with(|c| c.set(ctx.id().raw()));
        timed(PROTO_STEP, || f(&mut self.0, ctx));
    }
}

impl<P: WireProtocol> Node for Traced<P> {
    type Msg = P::Msg;
    type Ext = Want;

    fn on_init(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.step(ctx, |n, ctx| n.on_init(ctx));
    }
    fn on_message(&mut self, from: NodeId, msg: P::Msg, ctx: &mut Context<'_, P::Msg>) {
        self.step(ctx, |n, ctx| n.on_message(from, msg, ctx));
    }
    fn on_external(&mut self, ev: Want, ctx: &mut Context<'_, P::Msg>) {
        self.step(ctx, |n, ctx| n.on_external(ev, ctx));
    }
    fn on_timer(&mut self, kind: u64, ctx: &mut Context<'_, P::Msg>) {
        self.step(ctx, |n, ctx| n.on_timer(kind, ctx));
    }
    fn on_crash(&mut self) {
        self.0.on_crash();
    }
    fn on_recover(&mut self, ctx: &mut Context<'_, P::Msg>) {
        self.step(ctx, |n, ctx| n.on_recover(ctx));
    }
}

impl<P: WireProtocol> EventSource for Traced<P> {
    fn take_events(&mut self) -> Vec<TokenEvent> {
        self.0.take_events()
    }
    fn take_events_into(&mut self, out: &mut Vec<TokenEvent>) {
        self.0.take_events_into(out);
    }
    fn has_events(&self) -> bool {
        self.0.has_events()
    }
}

impl<P: WireProtocol> WireProtocol for Traced<P> {
    const LABEL: &'static str = P::LABEL;

    fn build(cfg: ProtocolConfig) -> Self {
        Traced(P::build(cfg))
    }
    fn encode_msg(msg: &P::Msg) -> Vec<u8> {
        let bytes = timed(CODEC_ENCODE, || P::encode_msg(msg));
        if bytes.first().is_some_and(|&tag| is_token_tag(tag)) {
            REC.with(|r| {
                let mut r = r.borrow_mut();
                r.token_frames += 1;
                r.token_bytes += bytes.len() as u64;
            });
        }
        bytes
    }
    fn decode_msg(bytes: &[u8]) -> Result<P::Msg, CodecError> {
        timed(CODEC_DECODE, || P::decode_msg(bytes))
    }
    fn msg_encoded_len(msg: &P::Msg) -> usize {
        P::msg_encoded_len(msg)
    }
    fn order_state(&self) -> &OrderState {
        self.0.order_state()
    }
    fn checkpoint(&self) -> Checkpoint {
        self.0.checkpoint()
    }
    fn restore(cfg: ProtocolConfig, ck: &Checkpoint) -> Self {
        Traced(P::restore(cfg, ck))
    }
}

impl<P: ProtocolNode> ProtocolNode for Traced<P> {
    fn grants_count(&self) -> u64 {
        self.0.grants_count()
    }
    fn applied_len(&self) -> u64 {
        self.0.applied_len()
    }
    fn holds_token_now(&self) -> bool {
        self.0.holds_token_now()
    }
    fn token_generation(&self) -> u32 {
        self.0.token_generation()
    }
    fn dup_discarded_count(&self) -> u64 {
        self.0.dup_discarded_count()
    }
    fn retransmit_count(&self) -> u64 {
        self.0.retransmit_count()
    }
}

/// `T` with every endpoint wrapped in a [`TracedEndpoint`].
#[derive(Debug)]
pub struct TracedTransport<T>(PhantomData<T>);

impl<T: Transport> Transport for TracedTransport<T> {
    type Endpoint = TracedEndpoint<T::Endpoint>;

    fn label() -> &'static str {
        T::label()
    }
    fn endpoints(n: usize) -> std::io::Result<Vec<Self::Endpoint>> {
        Ok(T::endpoints(n)?.into_iter().map(TracedEndpoint).collect())
    }
}

/// An endpoint that counts frames, bytes, flushes and receive time-outs and
/// times `stage`/`flush` (busy) and `recv_timeout` (waiting) of the endpoint
/// it wraps. Closing it hands the closing thread's buffer over.
#[derive(Debug)]
pub struct TracedEndpoint<E>(pub E);

impl<E: Endpoint> Endpoint for TracedEndpoint<E> {
    fn id(&self) -> NodeId {
        self.0.id()
    }
    fn stage(&mut self, to: NodeId, frame: &[u8]) {
        CUR_NODE.with(|c| c.set(self.0.id().raw()));
        REC.with(|r| {
            let mut r = r.borrow_mut();
            r.frames += 1;
            r.bytes += frame.len() as u64;
        });
        timed(STAGE_FLUSH, || self.0.stage(to, frame));
    }
    fn flush(&mut self) {
        CUR_NODE.with(|c| c.set(self.0.id().raw()));
        REC.with(|r| r.borrow_mut().flushes += 1);
        timed(STAGE_FLUSH, || self.0.flush());
    }
    fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
        CUR_NODE.with(|c| c.set(self.0.id().raw()));
        // A zero time-out is a poll, not a wait: the virtual-clock driver
        // makes hundreds per grant, so they are counted and never timed.
        let got = if timeout.is_zero() {
            self.0.recv_timeout(timeout)
        } else {
            timed(RECV_WAIT, || self.0.recv_timeout(timeout))
        };
        if got.is_none() {
            REC.with(|r| r.borrow_mut().recv_timeouts += 1);
        }
        got
    }
    fn frames_lost(&self) -> u64 {
        self.0.frames_lost()
    }
    fn sever(&mut self) {
        self.0.sever();
    }
    fn close(&mut self) -> CloseReport {
        let report = self.0.close();
        hand_over();
        report
    }
}

/// One client request: issue to `Granted`, on the trace clock.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start_ns: u64,
    pub end_ns: u64,
    pub node: u32,
}

/// The request each span belongs to: the latest-issued request whose window
/// contains the span's start, or `None` when no window does. `windows` is in
/// issue order; with one client windows never overlap, with several
/// outstanding the latest-issued one wins.
pub fn attribute(windows: &[Window], spans: &[Span]) -> Vec<Option<usize>> {
    /// Windows of at most this many earlier requests can still be open.
    const MAX_OPEN: usize = 8;
    spans
        .iter()
        .map(|s| {
            let after = windows.partition_point(|w| w.start_ns <= s.start_ns);
            (after.saturating_sub(MAX_OPEN)..after)
                .rev()
                .find(|&i| windows[i].end_ns >= s.start_ns)
        })
        .collect()
}

/// Where the time of the kept requests went, as means per request in ns.
#[derive(Debug, Default, Clone, Copy)]
pub struct Budget {
    pub requests: usize,
    pub latency_ns: f64,
    /// Busy time per kind inside the request's window, clipped to it.
    pub kind_ns: [f64; 5],
    /// Latency minus the union of the busy spans inside the window: wake-ups,
    /// channel hops, poll sleeps.
    pub residual_ns: f64,
    /// Busy union ÷ latency.
    pub accounted_share: f64,
}

/// Splits each kept request's latency into its child spans and the residual.
pub fn budget(windows: &[Window], spans: &[Span], owner: &[Option<usize>]) -> Budget {
    let mut per_request: Vec<Vec<(u64, u64)>> = vec![Vec::new(); windows.len()];
    let mut kind_ns = [0u64; 5];
    for (s, req) in spans.iter().zip(owner) {
        let Some(req) = *req else { continue };
        let end = s.end_ns.min(windows[req].end_ns);
        kind_ns[s.kind] += end - s.start_ns;
        if s.kind < BUSY_KINDS {
            per_request[req].push((s.start_ns, end));
        }
    }
    let mut latency = 0u64;
    let mut union = 0u64;
    for (w, busy) in windows.iter().zip(per_request.iter_mut()) {
        latency += w.end_ns - w.start_ns;
        busy.sort_unstable();
        let mut covered_to = 0u64;
        for &(start, end) in busy.iter() {
            let start = start.max(covered_to);
            if end > start {
                union += end - start;
                covered_to = end;
            }
        }
    }
    let n = windows.len().max(1) as f64;
    Budget {
        requests: windows.len(),
        latency_ns: latency as f64 / n,
        kind_ns: kind_ns.map(|ns| ns as f64 / n),
        residual_ns: (latency - union) as f64 / n,
        accounted_share: if latency == 0 {
            0.0
        } else {
            union as f64 / latency as f64
        },
    }
}

/// Writes request and child spans as JSON lines
/// `{name, start_ns, end_ns, parent, req, node}`; a request span's id is its
/// index, which is what its children name as `parent` and `req`.
pub fn write_jsonl(
    path: &std::path::Path,
    windows: &[Window],
    spans: &[Span],
    owner: &[Option<usize>],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, w) in windows.iter().enumerate() {
        writeln!(
            out,
            "{{\"name\":\"request\",\"start_ns\":{},\"end_ns\":{},\"parent\":null,\"req\":{i},\"node\":{}}}",
            w.start_ns, w.end_ns, w.node
        )?;
    }
    for (s, req) in spans.iter().zip(owner) {
        let req = req.map_or("null".to_string(), |r| r.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{req},\"req\":{req},\"node\":{}}}",
            KIND_NAMES[s.kind], s.start_ns, s.end_ns, s.node
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(start_ns: u64, end_ns: u64) -> Window {
        Window {
            start_ns,
            end_ns,
            node: 0,
        }
    }
    fn s(kind: usize, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            node: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn a_span_belongs_to_the_window_that_contains_its_start() {
        let windows = [w(100, 200), w(210, 300)];
        let spans = [
            s(PROTO_STEP, 50, 120),    // starts before any request
            s(PROTO_STEP, 100, 110),   // on the first window's opening edge
            s(CODEC_ENCODE, 190, 250), // starts in the first, ends in the second
            s(PROTO_STEP, 205, 207),   // in the gap between the two
            s(CODEC_DECODE, 300, 310), // on the second window's closing edge
            s(PROTO_STEP, 301, 305),   // after the last
        ];
        assert_eq!(
            attribute(&windows, &spans),
            [None, Some(0), Some(0), None, Some(1), None]
        );
    }

    #[test]
    fn overlapping_windows_give_the_span_to_the_latest_issued() {
        let windows = [w(100, 400), w(150, 200), w(160, 500)];
        let spans = [
            s(PROTO_STEP, 170, 180),
            s(PROTO_STEP, 250, 260),
            s(PROTO_STEP, 450, 460),
        ];
        assert_eq!(attribute(&windows, &spans), [Some(2), Some(2), Some(2)]);
        let spans = [s(PROTO_STEP, 155, 158), s(PROTO_STEP, 120, 130)];
        assert_eq!(attribute(&windows, &spans), [Some(1), Some(0)]);
    }

    #[test]
    fn budget_rows_and_residual_add_up_to_latency() {
        let windows = [w(0, 100), w(100, 300)];
        let spans = [
            s(PROTO_STEP, 10, 30),
            s(CODEC_ENCODE, 20, 40), // overlaps the step by 10: union 30, rows 40
            s(RECV_WAIT, 0, 90),     // waiting never enters the union
            s(STAGE_FLUSH, 280, 350), // clipped to the window's end: 20
        ];
        let owner = attribute(&windows, &spans);
        let b = budget(&windows, &spans, &owner);
        assert_eq!(b.requests, 2);
        assert_eq!(b.latency_ns, 150.0);
        assert_eq!(b.kind_ns[PROTO_STEP], 10.0);
        assert_eq!(b.kind_ns[CODEC_ENCODE], 10.0);
        assert_eq!(b.kind_ns[STAGE_FLUSH], 10.0);
        assert_eq!(b.kind_ns[RECV_WAIT], 45.0);
        // union = 30 + 20 of 300 ns of latency
        assert_eq!(b.residual_ns, 125.0);
        assert!((b.accounted_share - 50.0 / 300.0).abs() < 1e-12);
    }

    #[test]
    fn wrappers_count_with_the_clock_off_and_time_with_it_on() {
        use atp_net::ChanTransport;
        let mut eps = TracedTransport::<ChanTransport>::endpoints(2).expect("infallible");
        set_recording(false, false);
        eps[0].stage(NodeId::new(1), b"abc");
        eps[0].flush();
        assert!(eps[1].recv_timeout(Duration::from_millis(100)).is_some());
        set_recording(true, true);
        eps[0].stage(NodeId::new(1), b"defg");
        eps[0].flush();
        assert!(eps[1].recv_timeout(Duration::from_millis(100)).is_some());
        assert!(eps[1].recv_timeout(Duration::ZERO).is_none());
        assert!(eps[1].recv_timeout(Duration::from_micros(50)).is_none());
        set_recording(false, false);
        for ep in &mut eps {
            assert!(ep.close().is_clean());
        }
        let t = take();
        assert_eq!(
            (t.frames, t.bytes, t.flushes, t.recv_timeouts),
            (2, 7, 2, 2)
        );
        assert_eq!(t.calls[STAGE_FLUSH], 4);
        // The zero time-out poll is no wait.
        assert_eq!(t.calls[RECV_WAIT], 3);
        // Only the second exchange was timed: stage, flush, the receive that
        // got the frame and the one that timed out.
        assert_eq!(t.spans.iter().filter(|s| s.kind == STAGE_FLUSH).count(), 2);
        assert_eq!(t.spans.iter().filter(|s| s.kind == RECV_WAIT).count(), 2);
        assert!(t.spans.windows(2).all(|p| p[0].start_ns <= p[1].start_ns));
    }
}
