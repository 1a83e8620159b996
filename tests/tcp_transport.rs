//! The conformance driver of `tests/harness_transport.rs`, now over real
//! loopback TCP sockets: length-prefixed frames, one accept thread per
//! endpoint, every stream read by the thread that drives the endpoints,
//! reconnect-with-backoff — and still grant-for-grant identical to the
//! deterministic `World`, because the driver assigns every frame's virtual
//! arrival before the bytes leave.
//!
//! Four layers of assurance:
//! * a seed × protocol matrix (all four families, two seeds) must match
//!   `World` exactly and tear down without leaking a thread;
//! * severing every socket mid-run must not lose a single request — the
//!   ack/retransmit machinery re-drives the handoff over fresh
//!   connections;
//! * one thread that writes more than the kernel buffers and then reads
//!   never hangs on its own writes;
//! * shutdown is idempotent and accounts for every spawned thread: one
//!   per endpoint, however many links carried traffic.

use adaptive_token_passing::net::{Endpoint, NodeId, TcpEndpoint, TcpTransport, Transport};
use adaptive_token_passing::sim::cluster::{
    run_in_world, run_on_endpoints, run_on_transport, ClusterScript, DriverOptions,
};
use adaptive_token_passing::sim::runner::ProtocolNode;
use atp_core::{BinaryNode, NaimiNode, RingNode, SearchNode};
use std::time::{Duration, Instant};

fn check_tcp_matches_world<P: ProtocolNode>(seed: u64) {
    let script = ClusterScript::reference(seed);
    let world = run_in_world::<P>(&script);
    assert_eq!(
        world.grants.len(),
        script.requests.len(),
        "world must grant every request within the horizon"
    );
    let (tcp, stats) = run_on_transport::<P, TcpTransport>(&script).expect("loopback bind");
    assert_eq!(
        world, tcp,
        "behavior diverged between World and loopback TCP"
    );
    assert!(stats.is_clean(), "transport not clean: {stats:?}");
}

/// The full matrix: every protocol family, two seeds, real sockets, and
/// the outcome must be byte-for-byte what the deterministic engine says.
#[test]
fn tcp_loopback_matches_world_for_every_protocol() {
    for seed in [7, 1003] {
        check_tcp_matches_world::<RingNode>(seed);
        check_tcp_matches_world::<SearchNode>(seed);
        check_tcp_matches_world::<BinaryNode>(seed);
        check_tcp_matches_world::<NaimiNode>(seed);
    }
}

/// Sever every TCP connection mid-run. Frames on the wire at that instant
/// are gone; the driver declares them lost after the grace period and the
/// protocol's ack/retransmit timers (already on the virtual clock) must
/// re-drive the token over freshly reconnected sockets. Every request
/// still gets granted exactly once, histories stay prefix-consistent, and
/// teardown still joins every thread.
#[test]
fn severed_sockets_recover_with_zero_unserved_requests() {
    let mut script = ClusterScript::reference(7);
    // Leave the retransmit machinery room to re-drive lost handoffs.
    script.horizon = 2_000;
    let endpoints = TcpTransport::endpoints(script.n).expect("loopback bind");
    let mut severed = false;
    let opts: DriverOptions<TcpEndpoint> = DriverOptions {
        dup_every_nth_token: None,
        loss_grace: Duration::from_millis(750),
        fault_hook: Some(Box::new(move |eps: &mut [TcpEndpoint], at: u64| {
            if !severed && at >= 25 {
                severed = true;
                for ep in eps.iter_mut() {
                    ep.kill_connections();
                }
            }
        })),
        ..DriverOptions::default()
    };
    let (run, stats) = run_on_endpoints::<BinaryNode, _>(&script, endpoints, opts);
    assert_eq!(
        run.grants.len(),
        script.requests.len(),
        "unserved requests after socket kill: {run:?} ({stats:?})"
    );
    // Exactly-once: origin/seq pairs are unique even though retransmits
    // re-sent token frames.
    let mut keys: Vec<_> = run.grants.iter().map(|&(_, o, s)| (o, s)).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), script.requests.len(), "a request granted twice");
    // Histories agree wherever they are equally long.
    let max = run.histories.iter().map(|&(len, _)| len).max().unwrap();
    let frontier: Vec<_> = run.histories.iter().filter(|&&(l, _)| l == max).collect();
    assert!(frontier.windows(2).all(|w| w[0].1 == w[1].1));
    // Faults may lose frames (that is the point), but never leak threads.
    assert_eq!(stats.decode_errors, 0, "{stats:?}");
    for report in &stats.close_reports {
        assert!(report.is_clean(), "thread leak after faults: {report:?}");
    }
}

/// Close racing an in-flight reconnect backoff: node 0's endpoint is torn
/// down on another thread *while* node 1 is inside `try_flush`'s
/// connect-with-backoff loop toward it. The flush must fail with the typed
/// [`FlushError`] (never hang, never panic), the failed frames must land in
/// the `dropped_frames` counter, and both close reports must still account
/// for every spawned thread.
#[test]
fn close_racing_reconnect_backoff_keeps_thread_accounting_clean() {
    let mut eps = TcpTransport::endpoints(2).expect("loopback bind");
    let mut b = eps.pop().expect("endpoint 1");
    let mut a = eps.pop().expect("endpoint 0");

    // Prime the B→A link so a live writer connection exists before the race.
    b.stage(NodeId::new(0), b"prime");
    b.flush();
    assert!(
        a.recv_timeout(Duration::from_secs(2)).is_some(),
        "primed frame must arrive"
    );

    // Tear down A concurrently with B's flush attempts. B's writes first
    // hit the dying connection, then the reconnect loop finds the listener
    // gone and burns through its backoff schedule. Writes do not block, so
    // a round takes microseconds and a fixed number of rounds could end
    // before the close has run: "eventually" is a wall-clock deadline.
    let closer = std::thread::spawn(move || a.close());
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut flush_err = None;
    let mut round = 0u32;
    while flush_err.is_none() && Instant::now() < deadline {
        b.stage(NodeId::new(0), &round.to_le_bytes());
        flush_err = b.try_flush().err();
        round = round.wrapping_add(1);
    }
    let report_a = closer.join().expect("closer thread must not panic");

    let err = flush_err.expect("flushing to a closed peer must eventually fail");
    assert!(err.dropped() >= 1, "{err:?}");
    assert!(
        err.failures
            .iter()
            .any(|&(id, n)| id == NodeId::new(0) && n >= 1),
        "failure must name the unreachable peer: {err:?}"
    );
    assert!(
        b.dropped_frames() >= err.dropped(),
        "dropped_frames counter must cover the typed failure: {} < {}",
        b.dropped_frames(),
        err.dropped()
    );

    let report_b = b.close();
    assert!(report_a.is_clean(), "node 0 leaked threads: {report_a:?}");
    assert!(report_b.is_clean(), "node 1 leaked threads: {report_b:?}");
}

/// Clean shutdown accounting: a healthy run joins every spawned thread
/// within the close deadline, and closing again is a no-op that reports
/// the same numbers.
#[test]
fn tcp_shutdown_joins_every_thread() {
    let script = ClusterScript::reference(7);
    let (_, stats) = run_on_transport::<BinaryNode, TcpTransport>(&script).expect("loopback bind");
    assert_eq!(stats.close_reports.len(), script.n);
    for report in &stats.close_reports {
        assert!(report.is_clean(), "leaked threads: {report:?}");
        assert!(
            report.threads_spawned > 0,
            "a TCP endpoint that spawned no threads never accepted a connection"
        );
    }
}

/// One thread stages and flushes 8 MiB one way without reading, more than
/// loopback buffers hold, then drains with alternate flushes and zero-wait
/// receives. A flush must not block on a reader that only this thread can
/// run: what the kernel does not take stays staged for the next flush, and
/// every frame arrives once, in order.
#[test]
fn one_thread_writing_past_the_kernel_buffers_never_blocks_itself() {
    const FRAMES: u32 = 8 * 1024;
    const PAYLOAD: usize = 1024;
    let mut eps = TcpTransport::endpoints(2).expect("loopback bind");
    let mut b = eps.pop().expect("endpoint 1");
    let mut a = eps.pop().expect("endpoint 0");
    let frame = |k: u32| {
        let mut f = vec![(k % 251) as u8; PAYLOAD];
        f[..4].copy_from_slice(&k.to_le_bytes());
        f
    };
    for k in 0..FRAMES {
        a.stage(b.id(), &frame(k));
        if k % 256 == 255 {
            a.flush();
        }
    }
    a.flush();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut next = 0u32;
    while next < FRAMES {
        assert!(
            Instant::now() < deadline,
            "drained {next} of {FRAMES} frames"
        );
        a.flush();
        while let Some((from, got)) = b.recv_timeout(Duration::ZERO) {
            assert_eq!(from, a.id());
            assert_eq!(got, frame(next), "frame {next} out of order or damaged");
            next += 1;
        }
    }
    assert_eq!(
        b.recv_timeout(Duration::from_millis(50)),
        None,
        "a frame arrived twice"
    );
    assert_eq!(a.frames_lost() + b.frames_lost(), 0);
    assert!(a.close().is_clean());
    assert!(b.close().is_clean());
}

/// An endpoint starts one thread, its accept loop, whatever its links
/// carry: an 8-node mesh that moved a frame over each of its 56 directed
/// links reports one thread spawned and joined per endpoint.
#[test]
fn a_full_mesh_runs_one_thread_per_endpoint() {
    const N: u32 = 8;
    let mut eps = TcpTransport::endpoints(N as usize).expect("loopback bind");
    for i in 0..N {
        for j in (0..N).filter(|&j| j != i) {
            eps[i as usize].stage(NodeId::new(j), &[i as u8, j as u8]);
        }
        eps[i as usize].flush();
    }
    for (j, ep) in eps.iter_mut().enumerate() {
        let mut from: Vec<u32> = (1..N)
            .map(|_| {
                let (from, frame) = ep.recv_timeout(Duration::from_secs(5)).expect("frame lost");
                assert_eq!(frame, [from.raw() as u8, j as u8]);
                from.raw()
            })
            .collect();
        from.sort_unstable();
        let want: Vec<u32> = (0..N).filter(|&i| i as usize != j).collect();
        assert_eq!(from, want, "one frame from every peer");
    }
    for ep in &mut eps {
        let report = ep.close();
        assert_eq!(report.threads_spawned, 1, "{report:?}");
        assert!(report.is_clean(), "{report:?}");
    }
}
