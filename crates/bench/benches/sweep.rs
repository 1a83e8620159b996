//! Sweep-executor benchmarks (`harness = false`, suite `sweep`).
//!
//! Measures the performance claims of the parallel-executor and scheduler
//! work:
//!
//! 1. **Fan-out**: `fig9`/`fig10` quick-scale series pinned to 1 worker vs
//!    the machine's full worker count (`atp_util::pool::worker_count`). On a
//!    multi-core host the parallel variant should approach `1/cores` of the
//!    serial time; on a single-core host the two are within noise, which the
//!    JSON records honestly (`workers` is part of the benchmark name).
//! 2. **Event-loop cost**: one full `run_experiment` drive at a moderate
//!    size, dominated by the dispatch/drain hot path.
//! 3. **Scheduler**: timer-wheel vs binary-heap push/pop churn at small and
//!    large pending counts — the wheel's `O(1)` near-horizon claim.
//! 4. **Scaling**: single Figure-9-shaped runs at N = 10k/50k/100k, Binary
//!    and Ring, with per-event wall cost and scheduler counters. Cost per
//!    event is flat in N (token possession no longer re-chains the carried
//!    window at every node), so the whole table is ~4 s and smoke runs it
//!    too.
//!
//! CI greps the `{"suite":"sweep",...}` lines from this target's output into
//! `BENCH_sweep.json`; run with `--smoke` for a cheap pass. Unlike the other
//! suites this one keeps a 5-sample warmed floor even under `--smoke`, so
//! the recorded medians are comparable across commits.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use atp_net::TimerWheel;
use atp_sim::experiments::{fig10, fig9, shards};
use atp_sim::{
    run_experiment, run_experiment_profiled, run_points_profiled, ExperimentSpec, GlobalPoisson,
    Protocol,
};
use atp_util::bench::{black_box, Runner};
use atp_util::json::JsonWriter;
use atp_util::pool;
use atp_util::rng::{Rng, SeedableRng, StdRng};

/// Steady-state scheduler churn: `ops` pop-then-repush cycles against a
/// queue pre-loaded with `pending` entries whose times are spread over a
/// `4 * pending`-tick window (mixing in-wheel and overflow residents).
fn wheel_churn(pending: usize, ops: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(42);
    let mut w: TimerWheel<u64> = TimerWheel::with_capacity(pending);
    let mut seq = 0u64;
    for _ in 0..pending {
        w.push(rng.gen_range(0..4 * pending as u64), seq, seq);
        seq += 1;
    }
    let mut acc = 0u64;
    for _ in 0..ops {
        let (t, _, item) = w.pop().expect("non-empty");
        acc = acc.wrapping_add(item);
        w.push(t + rng.gen_range(1u64..64), seq, item);
        seq += 1;
    }
    acc
}

/// The same churn against the pre-wheel scheduler: a min-heap on
/// `(time, seq)`.
fn heap_churn(pending: usize, ops: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(42);
    let mut h: BinaryHeap<Reverse<(u64, u64, u64)>> = BinaryHeap::with_capacity(pending);
    let mut seq = 0u64;
    for _ in 0..pending {
        h.push(Reverse((rng.gen_range(0..4 * pending as u64), seq, seq)));
        seq += 1;
    }
    let mut acc = 0u64;
    for _ in 0..ops {
        let Reverse((t, _, item)) = h.pop().expect("non-empty");
        acc = acc.wrapping_add(item);
        h.push(Reverse((t + rng.gen_range(1u64..64), seq, item)));
        seq += 1;
    }
    acc
}

/// One Figure-9-shaped point at large N: fixed global load (one request
/// per 10 ticks), 4 token rounds. Emits a `{"suite":"sweep",...}` JSON
/// line with wall cost per event and the scheduler counters.
fn large_n_point(protocol: Protocol, n: usize) {
    let spec = ExperimentSpec::new(protocol, n, 4 * n as u64).with_seed(9);
    let mut wl = GlobalPoisson::new(10.0);
    let t0 = Instant::now();
    let (summary, profile) = run_experiment_profiled(&spec, &mut wl);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let steps = profile.steps.max(1);
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("suite");
    w.str("sweep");
    w.key("name");
    w.str(&format!("fig9_large_{:?}_n{n}", protocol).to_lowercase());
    w.key("n");
    w.u64(n as u64);
    w.key("events");
    w.u64(steps);
    w.key("grants");
    w.u64(summary.metrics.grants);
    w.key("wall_ns");
    w.u64(wall_ns);
    w.key("ns_per_event");
    w.u64(wall_ns / steps);
    w.key("pop_ns");
    w.u64(profile.pop_ns);
    w.key("deliver_ns");
    w.u64(profile.deliver_ns);
    w.key("drain_ns");
    w.u64(profile.drain_ns);
    w.key("wheel_cascades");
    w.u64(profile.sched.cascades);
    w.key("overflow_promotions");
    w.u64(profile.sched.overflow_promotions);
    w.key("arena_bytes_reused");
    w.u64(profile.sched.arena_bytes_reused);
    w.key("arena_bytes_allocated");
    w.u64(profile.sched.arena_bytes_allocated);
    w.end_obj();
    println!("{}", w.finish());
    eprintln!(
        "fig9_large {protocol:?} n={n}: {} events, {}ns/event",
        steps,
        wall_ns / steps
    );
}

fn main() {
    let workers = pool::worker_count();
    // Regression-gated suite: keep a warmed 5-sample floor even in smoke
    // mode so recorded medians are comparable across commits.
    let mut r = Runner::from_args("sweep").min_samples(5);

    // Raw fan-out overhead: the pool itself must be far cheaper than one
    // simulation point.
    r.bench("par_map_noop_64", || {
        let items: Vec<u64> = (0..64).collect();
        black_box(pool::par_map(&items, |x| x.wrapping_mul(2654435761)))
    });

    r.bench("fig9_quick_serial", || {
        pool::with_threads(1, || black_box(fig9::series(&fig9::Config::quick())))
    });
    r.bench(&format!("fig9_quick_parallel_{workers}w"), || {
        pool::with_threads(workers, || black_box(fig9::series(&fig9::Config::quick())))
    });

    r.bench("fig10_quick_serial", || {
        pool::with_threads(1, || black_box(fig10::series(&fig10::Config::quick())))
    });
    r.bench(&format!("fig10_quick_parallel_{workers}w"), || {
        pool::with_threads(workers, || {
            black_box(fig10::series(&fig10::Config::quick()))
        })
    });

    // The drive loop itself: dominated by event dispatch + drain, i.e. the
    // scheduler, frame-boxing and reusable-buffer hot path.
    r.bench("drive_binary_n64", || {
        let spec = ExperimentSpec::new(Protocol::Binary, 64, 4_000).with_seed(21);
        let mut wl = GlobalPoisson::new(10.0);
        black_box(run_experiment(&spec, &mut wl).metrics.grants)
    });
    r.bench("drive_ring_n64", || {
        let spec = ExperimentSpec::new(Protocol::Ring, 64, 4_000).with_seed(21);
        let mut wl = GlobalPoisson::new(10.0);
        black_box(run_experiment(&spec, &mut wl).metrics.grants)
    });

    // Scheduler microbenches: pop/push churn against a pre-loaded queue.
    // Each iteration rebuilds the queue (`pending` pushes) and then runs
    // `4 * pending` churn ops, so steady-state churn dominates the build
    // 8:1. The wheel's advantage grows with pending count (heap pops are
    // O(log n)).
    for pending in [1_000usize, 100_000] {
        let ops = 4 * pending as u64;
        let label = format!("{}k", pending / 1_000);
        r.bench(&format!("sched_wheel_churn_{label}_pending"), || {
            black_box(wheel_churn(pending, ops))
        });
        r.bench(&format!("sched_heap_churn_{label}_pending"), || {
            black_box(heap_churn(pending, ops))
        });
    }

    r.finish();

    // Per-phase wall-clock breakdown of the drive loop (pop / deliver /
    // drain) plus scheduler counters, emitted as one extra JSON line for
    // BENCH_sweep.json. Wall time only ever lands here and on stderr —
    // never in compared artifacts.
    let (_, profile) = run_points_profiled(&fig9::points(&fig9::Config::quick()));
    eprintln!("fig9 quick {}", profile.line());
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("suite");
    w.str("sweep");
    w.key("name");
    w.str("profile_fig9_quick_phases");
    w.key("steps");
    w.u64(profile.steps);
    w.key("pop_ns");
    w.u64(profile.pop_ns);
    w.key("deliver_ns");
    w.u64(profile.deliver_ns);
    w.key("drain_ns");
    w.u64(profile.drain_ns);
    w.key("wheel_cascades");
    w.u64(profile.sched.cascades);
    w.key("overflow_promotions");
    w.u64(profile.sched.overflow_promotions);
    w.key("arena_bytes_reused");
    w.u64(profile.sched.arena_bytes_reused);
    w.key("arena_bytes_allocated");
    w.u64(profile.sched.arena_bytes_allocated);
    w.end_obj();
    println!("{}", w.finish());

    // Sharded-plane artifact: aggregate throughput at K = 1 vs K = 4 on
    // the quick preset (binary protocol). The recorded speedup is the
    // acceptance number — ci.sh greps this line into BENCH_sweep.json.
    let shard_cfg = shards::Config::quick();
    let shard_points = shards::series(&shard_cfg);
    let shard_tp = |k: u16| {
        shard_points
            .iter()
            .find(|p| p.shards == k && p.protocol == Protocol::Binary)
            .map_or(0.0, |p| p.grants_per_kilotick)
    };
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("suite");
    w.str("sweep");
    w.key("name");
    w.str("fig_shards_quick");
    w.key("n");
    w.u64(shard_cfg.n as u64);
    w.key("k1_grants_per_ktick");
    w.f64(shard_tp(1));
    w.key("k4_grants_per_ktick");
    w.f64(shard_tp(4));
    w.key("k4_speedup");
    w.f64(if shard_tp(1) > 0.0 {
        shard_tp(4) / shard_tp(1)
    } else {
        0.0
    });
    w.end_obj();
    println!("{}", w.finish());

    // Large-N scaling table (Figure 9 shape); ci.sh gates on the N=10k
    // and N=100k binary rows being present.
    for n in [10_000, 50_000, 100_000] {
        large_n_point(Protocol::Binary, n);
        large_n_point(Protocol::Ring, n);
    }
}
