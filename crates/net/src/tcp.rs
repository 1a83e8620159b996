//! Real-socket transport backend: length-prefixed frames over loopback TCP.
//!
//! [`TcpTransport`] implements [`Transport`] with nothing beyond `std::net` —
//! no async runtime, no external crates.
//! Each node's [`TcpEndpoint`] keeps, per peer, one link each way:
//!
//! * a lazy **writer stream**: sends are staged into a per-peer batch buffer
//!   and leave in nonblocking writes at each flush, over a connection
//!   established on first use and re-established with exponential backoff
//!   after failures. What the kernel does not take stays staged for the next
//!   flush, so a flush never blocks on a peer that has not read yet — that
//!   peer may be read by the same thread. Frames that cannot be delivered
//!   even after reconnecting are *lost, counted, and forgotten* — exactly the
//!   contract the protocols' ack/retransmit machinery is built for;
//! * the **inbound streams** the peer connected, nonblocking, each with its
//!   own [`FrameDecoder`]. [`Endpoint::recv_timeout`] reads them on the
//!   caller's thread, through one read buffer per endpoint.
//!
//! The one thread an endpoint starts is its **accept thread**: it reads each
//! new connection's 4-byte hello, refuses ids outside the mesh and hands the
//! stream over. The endpoints of one mesh share, per directed link, a count
//! of the frames staged on it and not yet read. A look reads only the links
//! a frame is in flight on, and a wait blocks, with a deadline, on a link
//! that carries one; nothing sleeps but the reconnect backoff.
//!
//! Teardown is explicit and verifiable: [`TcpEndpoint::close`] severs every
//! socket, wakes the accept loop and joins it with a deadline, reporting
//! spawned/joined counts so tests can assert no thread leaks.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::frame::{write_frame, FrameDecoder, FrameError, FRAME_HEADER_LEN, FRAME_TRAILER_LEN};
use crate::id::NodeId;
use crate::transport::{CloseReport, Endpoint, Transport};

/// Reconnect attempts per flush before the staged frames are declared lost.
const CONNECT_ATTEMPTS: u32 = 5;
/// Backoff base: attempt `k` sleeps `BACKOFF_BASE << k` before retrying.
const BACKOFF_BASE: Duration = Duration::from_millis(1);
/// How long [`TcpEndpoint::close`] waits for the accept thread to confirm
/// exit before declaring a leak.
const JOIN_DEADLINE: Duration = Duration::from_secs(5);
/// How long the accept thread waits for a new connection's hello; shorter
/// than [`JOIN_DEADLINE`], so a silent connection cannot hold up a close.
const HELLO_DEADLINE: Duration = Duration::from_secs(1);
/// Size of an endpoint's read buffer.
const READ_CHUNK: usize = 64 * 1024;

/// The `std::net` loopback backend.
#[derive(Debug)]
pub struct TcpTransport;

/// Typed report from [`TcpEndpoint::try_flush`]: which peers could not be
/// reached even after the reconnect policy, and how many staged frames
/// each failure cost. `flush()` used to swallow this silently — now every
/// writer-side drop is both typed here and counted in
/// [`TcpEndpoint::dropped_frames`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlushError {
    /// `(peer, frames dropped)` for every unreachable peer this flush.
    pub failures: Vec<(NodeId, u64)>,
}

impl FlushError {
    /// Total frames dropped across all failed peers.
    pub fn dropped(&self) -> u64 {
        self.failures.iter().map(|&(_, n)| n).sum()
    }
}

impl std::fmt::Display for FlushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "flush dropped {} frame(s) to unreachable peer(s):",
            self.dropped()
        )?;
        for (peer, n) in &self.failures {
            write!(f, " {}x{}", peer.raw(), n)?;
        }
        Ok(())
    }
}

impl std::error::Error for FlushError {}

impl Transport for TcpTransport {
    type Endpoint = TcpEndpoint;

    fn label() -> &'static str {
        "tcp"
    }

    fn endpoints(n: usize) -> std::io::Result<Vec<TcpEndpoint>> {
        let listeners = (0..n)
            .map(|_| TcpListener::bind(("127.0.0.1", 0)))
            .collect::<std::io::Result<Vec<_>>>()?;
        let addrs = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<std::io::Result<Vec<_>>>()?;
        let mesh = Arc::new(Mesh {
            n,
            in_flight: (0..n * n).map(|_| AtomicU64::new(0)).collect(),
        });
        Ok(listeners
            .into_iter()
            .enumerate()
            .map(|(i, listener)| {
                TcpEndpoint::start(NodeId::new(i as u32), &addrs, listener, Arc::clone(&mesh))
            })
            .collect())
    }
}

/// What the endpoints of one mesh share: per directed link, the frames
/// staged on it and not yet read. A hint for where to read, never a promise:
/// a frame from outside the mesh is not counted, and one lost in flight
/// stays counted until its receiver severs. The counts publish no other
/// data, so every access is `Relaxed`.
#[derive(Debug)]
struct Mesh {
    n: usize,
    /// Indexed `to * n + from`.
    in_flight: Box<[AtomicU64]>,
}

impl Mesh {
    fn link(&self, from: usize, to: NodeId) -> &AtomicU64 {
        &self.in_flight[to.index() * self.n + from]
    }

    /// Takes `frames` off the link's count, stopping at zero.
    fn discount(&self, from: usize, to: NodeId, frames: u64) {
        let _ = self
            .link(from, to)
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                Some(c.saturating_sub(frames))
            });
    }
}

/// What an endpoint shares with its accept thread.
#[derive(Debug, Default)]
struct Accepting {
    shutting_down: AtomicBool,
    /// Connections refused for a hello outside the mesh.
    refused: AtomicU64,
}

/// One peer connection this endpoint reads.
#[derive(Debug)]
struct Inbound {
    stream: TcpStream,
    decoder: FrameDecoder,
}

/// Both directions of one peer link.
#[derive(Debug)]
struct PeerLink {
    addr: SocketAddr,
    /// Writer side, nonblocking once its hello is out.
    stream: Option<TcpStream>,
    /// Staged, already frame-prefixed bytes the kernel has not all taken.
    wbuf: Vec<u8>,
    /// Bytes at the front of `wbuf` the kernel has taken.
    sent: usize,
    /// Whole frames in `wbuf` (loss accounting).
    wbuf_frames: u64,
    /// Streams the peer connected, oldest first: a reconnect's stream is
    /// read once the one before it has ended, so the link stays FIFO.
    inbound: VecDeque<Inbound>,
}

impl PeerLink {
    /// Writes what the kernel takes of the staged bytes, connecting first if
    /// need be. Two passes: an existing stream may be stale (peer reset since
    /// the last flush) — on failure the rest goes over a fresh connection.
    /// `Err` carries the frames lost when neither pass could write.
    fn flush(&mut self, id: NodeId) -> Result<(), u64> {
        for fresh in [false, true] {
            if fresh {
                self.sever_writer();
            }
            if self.stream.is_none() {
                self.stream = connect(self.addr, id);
            }
            let Some(stream) = self.stream.as_mut() else {
                continue;
            };
            if write_some(stream, &self.wbuf, &mut self.sent).is_ok() {
                if self.sent == self.wbuf.len() {
                    self.wbuf.clear();
                    self.sent = 0;
                    self.wbuf_frames = 0;
                } else if self.sent >= self.wbuf.len() / 2 {
                    self.drop_sent();
                }
                return Ok(());
            }
        }
        self.stream = None;
        let lost = self.wbuf_frames;
        self.wbuf.clear();
        self.sent = 0;
        self.wbuf_frames = 0;
        Err(lost)
    }

    /// Drops the frames the kernel has taken whole.
    fn drop_sent(&mut self) {
        let (end, frames) = whole_frames(&self.wbuf, self.sent);
        self.wbuf.drain(..end);
        self.sent -= end;
        self.wbuf_frames -= frames;
    }

    /// Shuts the writer stream. The kernel may have taken part of a frame:
    /// the staged bytes restart at that frame, to go whole over the next
    /// connection.
    fn sever_writer(&mut self) {
        if let Some(s) = self.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        self.drop_sent();
        self.sent = 0;
    }
}

/// One node's TCP attachment. See the module docs for the thread model.
#[derive(Debug)]
pub struct TcpEndpoint {
    id: NodeId,
    /// Indexed by peer.
    links: Vec<PeerLink>,
    mesh: Arc<Mesh>,
    /// Streams the accept thread has identified, not yet taken in.
    handover: Receiver<(NodeId, TcpStream)>,
    accepting: Arc<Accepting>,
    accept: Option<JoinHandle<()>>,
    /// The one buffer every inbound read lands in.
    rbuf: Vec<u8>,
    /// The peer the next look starts at: links take turns.
    next: usize,
    /// Frames dropped: unreachable peers, unframeable inbound streams.
    lost: u64,
    /// Writer-side subset of `lost`: staged frames discarded because the
    /// peer stayed unreachable through every reconnect attempt.
    dropped_frames: u64,
    /// Inbound frames rejected by the CRC32 trailer check (each one also
    /// closes its stream, so a poisoned stream cannot deliver garbage).
    bad_checksums: u64,
    /// Inbound streams that ended mid-frame (peer died while transmitting).
    torn_streams: u64,
    close_report: Option<CloseReport>,
}

impl TcpEndpoint {
    fn start(id: NodeId, addrs: &[SocketAddr], listener: TcpListener, mesh: Arc<Mesh>) -> Self {
        let (handover_tx, handover) = channel();
        let accepting = Arc::new(Accepting::default());
        let accept = spawn_accept(listener, addrs.len(), Arc::clone(&accepting), handover_tx);
        let links = addrs
            .iter()
            .map(|&addr| PeerLink {
                addr,
                stream: None,
                wbuf: Vec::new(),
                sent: 0,
                wbuf_frames: 0,
                inbound: VecDeque::new(),
            })
            .collect();
        TcpEndpoint {
            id,
            links,
            mesh,
            handover,
            accepting,
            accept: Some(accept),
            rbuf: vec![0; READ_CHUNK],
            next: 0,
            lost: 0,
            dropped_frames: 0,
            bad_checksums: 0,
            torn_streams: 0,
            close_report: None,
        }
    }

    /// The address this endpoint's listener is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.links[self.id.index()].addr
    }

    /// Inbound connections that ended mid-frame (peer death during a send).
    pub fn torn_streams(&self) -> u64 {
        self.torn_streams
    }

    /// Staged frames discarded on the writer side because the peer stayed
    /// unreachable through every reconnect attempt. A subset of
    /// [`Endpoint::frames_lost`].
    pub fn dropped_frames(&self) -> u64 {
        self.dropped_frames
    }

    /// Inbound frames whose CRC32 trailer did not match — wire corruption
    /// detected and the carrying connection reset.
    pub fn bad_checksums(&self) -> u64 {
        self.bad_checksums
    }

    /// Like [`Endpoint::flush`], but reports which peers dropped frames
    /// instead of swallowing the failure. The `dropped_frames` and
    /// `frames_lost` counters advance either way.
    pub fn try_flush(&mut self) -> Result<(), FlushError> {
        let mut failures = Vec::new();
        for (peer, link) in self.links.iter_mut().enumerate() {
            if link.wbuf.is_empty() {
                continue;
            }
            if let Err(dropped) = link.flush(self.id) {
                self.lost += dropped;
                self.dropped_frames += dropped;
                self.mesh
                    .discount(self.id.index(), NodeId::new(peer as u32), dropped);
                failures.push((NodeId::new(peer as u32), dropped));
            }
        }
        if failures.is_empty() {
            Ok(())
        } else {
            Err(FlushError { failures })
        }
    }

    /// Violently severs every live socket this endpoint owns — writer links
    /// and accepted inbound connections alike — without shutting the
    /// endpoint down. The listener keeps accepting, so subsequent flushes
    /// reconnect with backoff; anything in flight at the cut is lost.
    ///
    /// This is the fault-injection hook the recovery tests use to model
    /// "the node's sockets died but the process survived".
    pub fn kill_connections(&mut self) {
        self.adopt();
        for link in &mut self.links {
            link.sever_writer();
            for inbound in link.inbound.drain(..) {
                let _ = inbound.stream.shutdown(Shutdown::Both);
                if inbound.decoder.finish().is_err() {
                    self.torn_streams += 1;
                    self.lost += 1;
                }
            }
        }
        for from in 0..self.links.len() {
            self.mesh.link(from, self.id).store(0, Ordering::Relaxed);
        }
    }

    /// Takes in the streams the accept thread has handed over.
    fn adopt(&mut self) {
        while let Ok((from, stream)) = self.handover.try_recv() {
            self.take_in(from, stream);
        }
    }

    fn take_in(&mut self, from: NodeId, stream: TcpStream) {
        if let Some(link) = self.links.get_mut(from.index()) {
            link.inbound.push_back(Inbound {
                stream,
                decoder: FrameDecoder::new(),
            });
        }
    }

    /// The next frame already here, without waiting. Links take turns; a
    /// link's socket is read only if a frame is in flight on it, or if
    /// `everywhere` (before a wait, to find frames no count knows of).
    fn look(&mut self, everywhere: bool) -> Option<(NodeId, Vec<u8>)> {
        self.adopt();
        let n = self.links.len();
        for k in 0..n {
            let peer = (self.next + k) % n;
            let read = everywhere || self.mesh.link(peer, self.id).load(Ordering::Relaxed) > 0;
            if let Some(frame) = self.take(peer, read) {
                self.next = (peer + 1) % n;
                return Some((NodeId::new(peer as u32), frame));
            }
        }
        None
    }

    /// The next frame on `peer`'s oldest stream, reading its socket without
    /// waiting if `read` and nothing is decoded yet. Malformed input never
    /// panics: a stream that ends, fails or stops framing is closed, the
    /// damage counted, and the next stream of the link read.
    fn take(&mut self, peer: usize, read: bool) -> Option<Vec<u8>> {
        loop {
            let inbound = self.links[peer].inbound.front_mut()?;
            match inbound.decoder.next_frame() {
                Ok(Some(frame)) => {
                    self.mesh.discount(peer, self.id, 1);
                    return Some(frame);
                }
                Ok(None) if !read => return None,
                Ok(None) => match inbound.stream.read(&mut self.rbuf) {
                    Ok(0) => self.end_stream(peer),
                    Ok(got) => inbound.decoder.push(&self.rbuf[..got]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => self.end_stream(peer),
                },
                Err(e) => {
                    // Unframeable stream: poison — close and count.
                    // Checksum mismatches get their own counter so chaos
                    // campaigns can account for every injected corruption.
                    if matches!(e, FrameError::BadChecksum { .. }) {
                        self.bad_checksums += 1;
                    }
                    self.lost += 1;
                    let _ = inbound.stream.shutdown(Shutdown::Both);
                    self.links[peer].inbound.pop_front();
                }
            }
        }
    }

    /// Closes `peer`'s oldest stream after its end (EOF or a read error): a
    /// clean end falls on a frame boundary.
    fn end_stream(&mut self, peer: usize) {
        if let Some(inbound) = self.links[peer].inbound.pop_front() {
            if inbound.decoder.finish().is_err() {
                self.torn_streams += 1;
                self.lost += 1;
            }
        }
    }

    /// Blocks until `peer`'s oldest stream brings bytes or ends, or `left`
    /// passes; returns whether bytes came.
    fn read_blocking(&mut self, peer: usize, left: Duration) -> bool {
        let Some(inbound) = self.links[peer].inbound.front_mut() else {
            return false;
        };
        let stream = &mut inbound.stream;
        let got = stream
            .set_nonblocking(false)
            .and_then(|()| stream.set_read_timeout(Some(left)))
            .and_then(|()| stream.read(&mut self.rbuf));
        // A stream that stays blocking would stall every later look: one
        // that cannot switch either way is closed like a failed one.
        match stream.set_nonblocking(true).and(got) {
            Ok(0) => self.end_stream(peer),
            Ok(got) => {
                inbound.decoder.push(&self.rbuf[..got]);
                return true;
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => return true,
            Err(_) => self.end_stream(peer),
        }
        false
    }
}

/// Writes `buf[*sent..]` until the kernel stops taking it. `Ok` also when it
/// stopped short: the rest waits for the next flush.
fn write_some(stream: &mut TcpStream, buf: &[u8], sent: &mut usize) -> std::io::Result<()> {
    while *sent < buf.len() {
        match stream.write(&buf[*sent..]) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(wrote) => *sent += wrote,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Where the last frame of `buf` that ends by byte `upto` ends, and how many
/// frames end there.
fn whole_frames(buf: &[u8], upto: usize) -> (usize, u64) {
    let (mut end, mut frames) = (0, 0);
    while let Some(&[a, b, c, d]) = buf.get(end..end + FRAME_HEADER_LEN) {
        let next =
            end + FRAME_HEADER_LEN + u32::from_le_bytes([a, b, c, d]) as usize + FRAME_TRAILER_LEN;
        if next > upto {
            break;
        }
        (end, frames) = (next, frames + 1);
    }
    (end, frames)
}

/// Connects to `addr` as `id` (the 4-byte hello), retrying with exponential
/// backoff. The stream is nonblocking from then on.
fn connect(addr: SocketAddr, id: NodeId) -> Option<TcpStream> {
    for attempt in 0..CONNECT_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(BACKOFF_BASE * (1 << (attempt - 1)));
        }
        if let Ok(mut stream) = TcpStream::connect(addr) {
            let _ = stream.set_nodelay(true);
            if stream.write_all(&id.raw().to_le_bytes()).is_ok()
                && stream.set_nonblocking(true).is_ok()
            {
                return Some(stream);
            }
        }
    }
    None
}

impl Endpoint for TcpEndpoint {
    fn id(&self) -> NodeId {
        self.id
    }

    fn stage(&mut self, to: NodeId, frame: &[u8]) {
        let link = &mut self.links[to.index()];
        write_frame(&mut link.wbuf, frame);
        link.wbuf_frames += 1;
        self.mesh
            .link(self.id.index(), to)
            .fetch_add(1, Ordering::Relaxed);
    }

    fn flush(&mut self) {
        // Drops are typed and counted by try_flush; the trait-level contract
        // stays best-effort.
        let _ = self.try_flush();
    }

    /// Reads the inbound streams on the calling thread. A wait blocks on one
    /// link a frame is in flight on (or, with none, for a new connection) and
    /// ends at the first bytes it brings: a frame whose tail is still staged
    /// at its writer needs that writer's next flush, which may have to come
    /// from this very thread. The in-flight counts are set by `stage`, so a
    /// frame staged on another thread after a wait began, over a connection
    /// already taken in, is found by the next look, not on arrival.
    fn recv_timeout(&mut self, timeout: Duration) -> Option<(NodeId, Vec<u8>)> {
        if let Some(got) = self.look(false) {
            return Some(got);
        }
        if timeout.is_zero() {
            return None;
        }
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(got) = self.look(true) {
                return Some(got);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            let carrier = (0..self.links.len()).find(|&peer| {
                !self.links[peer].inbound.is_empty()
                    && self.mesh.link(peer, self.id).load(Ordering::Relaxed) > 0
            });
            match carrier {
                Some(peer) => {
                    if self.read_blocking(peer, left) {
                        return self.look(false);
                    }
                }
                None => match self.handover.recv_timeout(left) {
                    Ok((from, stream)) => self.take_in(from, stream),
                    Err(_) => return None,
                },
            }
        }
    }

    fn frames_lost(&self) -> u64 {
        self.lost + self.accepting.refused.load(Ordering::Relaxed)
    }

    fn sever(&mut self) {
        self.kill_connections();
    }

    fn close(&mut self) -> CloseReport {
        if let Some(report) = self.close_report {
            return report;
        }
        self.accepting.shutting_down.store(true, Ordering::SeqCst);
        self.kill_connections();
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr());
        // The accept thread drops its end of the hand-over as it exits.
        let deadline = Instant::now() + JOIN_DEADLINE;
        let exited = loop {
            match self
                .handover
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                Ok((_, stream)) => drop(stream),
                Err(RecvTimeoutError::Disconnected) => break true,
                Err(RecvTimeoutError::Timeout) => break false,
            }
        };
        let joined = match self.accept.take() {
            Some(handle) if exited => usize::from(handle.join().is_ok()),
            _ => 0,
        };
        let report = CloseReport {
            threads_spawned: 1,
            threads_joined: joined,
        };
        self.close_report = Some(report);
        report
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.close();
    }
}

/// The accept loop: identifies each connection by its 4-byte hello and hands
/// it over, refusing ids outside `0..n`, until the endpoint shuts down.
fn spawn_accept(
    listener: TcpListener,
    n: usize,
    accepting: Arc<Accepting>,
    handover: Sender<(NodeId, TcpStream)>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        for conn in listener.incoming() {
            if accepting.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            let Ok(mut stream) = conn else { continue };
            let mut hello = [0u8; 4];
            let _ = stream.set_read_timeout(Some(HELLO_DEADLINE));
            if stream.read_exact(&mut hello).is_err() {
                continue; // disconnected (or silent) before identifying
            }
            let from = u32::from_le_bytes(hello);
            if from as usize >= n {
                accepting.refused.fetch_add(1, Ordering::Relaxed);
                continue; // not a ring member; refuse the stream
            }
            let _ = stream.set_nodelay(true);
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            if handover.send((NodeId::new(from), stream)).is_err() {
                break; // endpoint gone
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_cross_loopback_in_order() {
        let mut eps = TcpTransport::endpoints(2).expect("bind loopback");
        let mut b = eps.pop().expect("two endpoints");
        let mut a = eps.pop().expect("two endpoints");
        a.stage(b.id(), b"first");
        a.stage(b.id(), b"second");
        a.flush();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(5)),
            Some((NodeId::new(0), b"first".to_vec()))
        );
        assert_eq!(
            b.recv_timeout(Duration::from_secs(5)),
            Some((NodeId::new(1 - 1), b"second".to_vec()))
        );
        assert_eq!(a.frames_lost() + b.frames_lost(), 0);
        assert!(a.close().is_clean());
        assert!(b.close().is_clean());
    }

    #[test]
    fn killed_connections_reconnect_on_next_flush() {
        let mut eps = TcpTransport::endpoints(2).expect("bind loopback");
        let mut b = eps.pop().expect("two endpoints");
        let mut a = eps.pop().expect("two endpoints");
        a.stage(b.id(), b"before");
        a.flush();
        assert!(b.recv_timeout(Duration::from_secs(5)).is_some());
        a.kill_connections();
        b.kill_connections();
        a.stage(b.id(), b"after");
        a.flush();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(5)).map(|(_, f)| f),
            Some(b"after".to_vec())
        );
        assert!(a.close().is_clean());
        assert!(b.close().is_clean());
    }

    #[test]
    fn close_is_idempotent_and_joins_everything() {
        let mut eps = TcpTransport::endpoints(3).expect("bind loopback");
        // Open some real connections first.
        let (first, rest) = eps.split_at_mut(1);
        first[0].stage(NodeId::new(1), b"x");
        first[0].stage(NodeId::new(2), b"y");
        first[0].flush();
        assert!(rest[0].recv_timeout(Duration::from_secs(5)).is_some());
        assert!(rest[1].recv_timeout(Duration::from_secs(5)).is_some());
        for ep in eps.iter_mut() {
            let r1 = ep.close();
            assert!(r1.is_clean(), "leaked threads: {r1:?}");
            assert_eq!(ep.close(), r1);
        }
    }

    #[test]
    fn corrupted_wire_byte_is_counted_and_the_stream_severed() {
        let mut eps = TcpTransport::endpoints(2).expect("bind loopback");
        let addr = eps[1].addr();
        let mut peer = TcpStream::connect(addr).expect("connect");
        peer.write_all(&0u32.to_le_bytes()).expect("hello");
        let mut wire = Vec::new();
        write_frame(&mut wire, b"good");
        write_frame(&mut wire, b"mangled");
        let last = wire.len() - 1;
        wire[last] ^= 0xff; // corrupt the second frame's CRC trailer
        peer.write_all(&wire).expect("frames");
        // The intact frame arrives; the corrupted one is detected, counted,
        // and the connection is reset instead of delivering garbage.
        assert_eq!(
            eps[1].recv_timeout(Duration::from_secs(5)),
            Some((NodeId::new(0), b"good".to_vec()))
        );
        assert!(eps[1].recv_timeout(Duration::from_millis(300)).is_none());
        assert_eq!(eps[1].bad_checksums(), 1);
        assert_eq!(eps[1].frames_lost(), 1);
    }

    #[test]
    fn whole_frames_stops_at_the_first_frame_not_all_taken() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"ab");
        let first = wire.len();
        write_frame(&mut wire, b"cdef");
        let second = wire.len();
        write_frame(&mut wire, b"");
        assert_eq!(whole_frames(&wire, 0), (0, 0));
        assert_eq!(whole_frames(&wire, first - 1), (0, 0));
        assert_eq!(whole_frames(&wire, first), (first, 1));
        assert_eq!(whole_frames(&wire, second + 3), (second, 2));
        assert_eq!(whole_frames(&wire, wire.len()), (wire.len(), 3));
        assert_eq!(whole_frames(&wire[..second + 2], usize::MAX), (second, 2));
    }

    /// A writer cut while the kernel holds part of its batch: the frames
    /// already on the old stream are read before the new stream's, and the
    /// frame the kernel took part of goes again, whole, on the new stream.
    #[test]
    fn a_writer_cut_mid_batch_resends_its_partial_frame_whole() {
        const FRAMES: u32 = 4 * 1024;
        let mut eps = TcpTransport::endpoints(2).expect("bind loopback");
        let mut b = eps.pop().expect("two endpoints");
        let mut a = eps.pop().expect("two endpoints");
        let frame = |k: u32| [&k.to_le_bytes()[..], &[7u8; 1021]].concat();
        for k in 0..FRAMES {
            a.stage(b.id(), &frame(k));
        }
        a.flush();
        a.kill_connections();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut next = 0;
        while next < FRAMES {
            assert!(Instant::now() < deadline, "received {next} of {FRAMES}");
            a.flush();
            while let Some((_, got)) = b.recv_timeout(Duration::ZERO) {
                assert_eq!(got, frame(next), "frame {next}");
                next += 1;
            }
        }
        assert_eq!(a.dropped_frames(), 0);
        assert!(b.torn_streams() <= 1);
        assert!(a.close().is_clean());
        assert!(b.close().is_clean());
    }

    /// A wait blocks on the link its frame is staged on and returns when the
    /// writer flushes, not at the deadline.
    #[test]
    fn a_wait_ends_when_the_awaited_frame_is_flushed() {
        let mut eps = TcpTransport::endpoints(2).expect("bind loopback");
        let mut b = eps.pop().expect("two endpoints");
        let mut a = eps.pop().expect("two endpoints");
        a.stage(b.id(), b"first");
        a.flush();
        assert!(b.recv_timeout(Duration::from_secs(5)).is_some());
        a.stage(b.id(), b"second");
        let begun = Instant::now();
        let writer = std::thread::spawn(move || {
            a.flush();
            a
        });
        let got = b.recv_timeout(Duration::from_secs(20));
        assert!(
            begun.elapsed() < Duration::from_secs(10),
            "woke at the deadline"
        );
        assert_eq!(got, Some((NodeId::new(0), b"second".to_vec())));
        let mut a = writer.join().expect("writer thread");
        assert!(a.close().is_clean());
        assert!(b.close().is_clean());
    }

    #[test]
    fn foreign_hello_is_refused() {
        let mut eps = TcpTransport::endpoints(2).expect("bind loopback");
        let addr = eps[1].addr();
        let mut rogue = TcpStream::connect(addr).expect("connect");
        rogue.write_all(&99u32.to_le_bytes()).expect("hello");
        let mut payload = Vec::new();
        write_frame(&mut payload, b"evil");
        rogue.write_all(&payload).expect("frame");
        assert!(eps[1].recv_timeout(Duration::from_millis(300)).is_none());
    }
}
