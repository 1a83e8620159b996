//! End-to-end determinism: a run is a pure function of its seed. The
//! serialized `RunSummary` (a deterministic JSON rendering with fixed field
//! order) must be byte-identical across reruns with the same seed, and the
//! seed must actually matter — different seeds give different traces.

use adaptive_token_passing::sim::experiments::{
    ablation, drops, failure, fairness, fig10, fig9, geo, latency, messages, partition,
    throughput, worstcase,
};
use adaptive_token_passing::sim::runner::{run_experiment, ExperimentSpec, NetProfile, Protocol};
use adaptive_token_passing::sim::sweep::{run_points, PointSpec, WorkloadSpec};
use adaptive_token_passing::sim::workload::GlobalPoisson;
use adaptive_token_passing::util::pool;

fn summary_json(protocol: Protocol, seed: u64) -> String {
    let spec = ExperimentSpec::new(protocol, 24, 4_000)
        .with_seed(seed)
        .with_net(NetProfile::unit().latency(1, 3));
    let mut wl = GlobalPoisson::new(8.0);
    run_experiment(&spec, &mut wl).to_json()
}

/// Same seed, same protocol ⇒ byte-identical summaries, for all three
/// protocols (ring, search, binary).
#[test]
fn same_seed_is_byte_identical() {
    for protocol in Protocol::ALL {
        let a = summary_json(protocol, 42);
        let b = summary_json(protocol, 42);
        assert_eq!(a, b, "{}: summary not reproducible", protocol.label());
        assert!(a.starts_with('{') && a.ends_with('}'), "summary is JSON");
    }
}

/// Different seeds drive different arrival streams and latencies, so the
/// event traces — and hence the summaries — must differ.
#[test]
fn different_seeds_produce_different_traces() {
    for protocol in Protocol::ALL {
        let a = summary_json(protocol, 1);
        let b = summary_json(protocol, 2);
        assert_ne!(a, b, "{}: seed had no effect on the run", protocol.label());
    }
}

/// Reproducibility is per-protocol, not accidental: with everything else
/// fixed, the three protocols disagree with each other.
#[test]
fn protocols_produce_distinct_summaries()
{
    let ring = summary_json(Protocol::Ring, 7);
    let search = summary_json(Protocol::Search, 7);
    let binary = summary_json(Protocol::Binary, 7);
    assert_ne!(ring, search);
    assert_ne!(search, binary);
    assert_ne!(ring, binary);
}

/// The parallel sweep executor must not change results: the Figure 9
/// series values are bitwise identical whether the sweep runs on one
/// worker or eight (the in-process equivalent of `ATP_THREADS=1` vs
/// `ATP_THREADS=8`).
#[test]
fn fig9_series_is_identical_serial_vs_parallel() {
    let cfg = fig9::Config::quick();
    let serial: Vec<(usize, u64, u64)> = pool::with_threads(1, || {
        fig9::series(&cfg)
            .iter()
            .map(|p| (p.n, p.ring.to_bits(), p.binary.to_bits()))
            .collect()
    });
    let parallel = pool::with_threads(8, || {
        fig9::series(&cfg)
            .iter()
            .map(|p| (p.n, p.ring.to_bits(), p.binary.to_bits()))
            .collect::<Vec<_>>()
    });
    assert_eq!(serial, parallel, "Figure 9 series values diverged (bitwise)");
}

/// Every figure/table experiment renders byte-identically on one worker
/// and on eight — the whole reproduction is scheduling-independent, not
/// just the two experiments that happened to be spot-checked.
#[test]
fn all_experiments_render_identically_serial_vs_parallel() {
    macro_rules! check_serial_vs_parallel {
        ($($module:ident),+ $(,)?) => {
            $({
                let cfg = $module::Config::quick();
                let serial = pool::with_threads(1, || $module::run(&cfg).render());
                let parallel = pool::with_threads(8, || $module::run(&cfg).render());
                assert_eq!(
                    serial,
                    parallel,
                    concat!(
                        "rendered ",
                        stringify!($module),
                        " table diverged between 1 and 8 workers"
                    )
                );
            })+
        };
    }
    check_serial_vs_parallel!(
        ablation, drops, failure, fairness, fig10, fig9, geo, latency, messages, partition,
        throughput, worstcase,
    );
}

/// At the `run_points` layer: the full `RunSummary::to_json` strings — every
/// metric, counter and duration — are byte-identical at any worker count.
#[test]
fn run_points_json_is_identical_serial_vs_parallel() {
    let points: Vec<PointSpec> = Protocol::ALL
        .iter()
        .flat_map(|&protocol| {
            (0..4).map(move |k| {
                PointSpec::new(
                    ExperimentSpec::new(protocol, 16, 2_000)
                        .with_seed(100 + k)
                        .with_net(NetProfile::unit().latency(1, 3)),
                    WorkloadSpec::global_poisson(6.0 + k as f64),
                )
            })
        })
        .collect();
    let json = |threads: usize| {
        pool::with_threads(threads, || {
            run_points(&points)
                .iter()
                .map(|s| s.to_json())
                .collect::<Vec<String>>()
        })
    };
    let serial = json(1);
    let parallel = json(8);
    assert_eq!(serial.len(), points.len());
    assert_eq!(serial, parallel, "RunSummary JSON diverged across thread counts");
}

/// FNV-1a-64 of a rendered summary: small enough to pin in source, wide
/// enough that any changed byte changes it.
fn fnv1a64(s: &str) -> u64 {
    fnv1a64_fold(FNV_OFFSET_BASIS, s)
}

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a-64 state `h` over `s`, folding several strings into
/// one hash.
fn fnv1a64_fold(h: u64, s: &str) -> u64 {
    s.bytes()
        .fold(h, |h, b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3))
}

/// Exact-output gate across commits: the in-run gates above compare a run
/// with itself, so a change that alters every run the same way passes them.
/// These hashes of `RunSummary::to_json()` were blessed from the commit
/// *before* the prefix-digest memo and the indexed satisfied window went in;
/// an optimisation of token possession must reproduce them, not re-bless
/// them. The Binary N = 20 000 row is the `sim-scale-n20k` shape (1.6 s on
/// that commit, 0.1 s now); the N = 50 000 rows took 9.9 s and 6.0 s there
/// and about half a second each since possession stopped re-chaining the
/// carried window at every node.
///
/// The token frame's wire format gained the per-node applied watermark (a
/// u32 length, then one u64 per node once a lazy token has been acked), so
/// every row that sizes token dispatches was re-blessed with it; in each,
/// `spans.dispatch_bytes` is the only field that moved. Binary adds the 4
/// bytes of the empty watermark per dispatch (643 634 → 645 110,
/// 978 749 018 → 978 779 006 and 6 112 489 650 → 6 112 564 838). Search and
/// Naimi add 4 + 8·N bytes per dispatch and cut nothing, because in these
/// short sparse runs some node never holds the token, so the ack floor
/// stays 0 (166 280 → 211 688 at N = 64, 13 587 730 → 26 759 022 at
/// N = 2 000). Ring sizes no dispatch and is unchanged.
#[test]
fn summaries_match_hashes_pinned_before_the_possession_caches() {
    let rows: [(Protocol, usize, u64, u64, u64); 7] = [
        (Protocol::Ring, 2_000, 8_000, 1, 0xce89_ffa2_a627_204b),
        // Re-blessed when Search's span sizes came to be taken from the
        // codec: `spans.dispatch_bytes` 166 368 → 166 280, one byte less for
        // each of the 88 granting dispatches; every other field unchanged.
        (Protocol::Search, 64, 1_000, 1, 0x4ebd_6a9d_8731_337c),
        (Protocol::Naimi, 2_000, 8_000, 1, 0x1a19_7ba1_2b26_f00b),
        (Protocol::Binary, 64, 4_000, 7, 0x9a68_82a3_d436_b145),
        (Protocol::Binary, 20_000, 80_000, 1, 0x032b_c2db_b583_5b8a),
        (Protocol::Binary, 50_000, 200_000, 1, 0x0911_ea37_d8e0_18af),
        (Protocol::Ring, 50_000, 200_000, 1, 0x5685_998d_bba1_27eb),
    ];
    for (protocol, n, horizon, seed, want) in rows {
        let spec = ExperimentSpec::new(protocol, n, horizon).with_seed(seed);
        let json = run_experiment(&spec, &mut GlobalPoisson::new(10.0)).to_json();
        let got = fnv1a64(&json);
        assert_eq!(
            got,
            want,
            "{} n={n} horizon={horizon} seed={seed}: got {got:016x}",
            protocol.label()
        );
    }
}

/// Failure-path output pinned across commits. The summaries above pin seven
/// *benign* runs, `verify_tape` only checks pass/fail, and every `ci.sh`
/// `cmp` gate compares a run with itself — so nothing compared what the
/// Section 5 glue (regeneration, membership, handoff acks, recovery) emits
/// from one commit to the next. These FNV-1a-64 hashes were blessed on the
/// commit *before* that glue moved into `atp_core`'s custody core and must
/// be reproduced, not re-blessed: (a) the full network trace of each
/// checked-in tape (the parked-token livelock tape's hash was blessed later,
/// on the commit before the hold state and the serve step moved into the
/// core), (b) per protocol, the traces of 60 generated DST cases
/// (55–58 of each 60 crash, partition or drop) folded into one hash, (c) the
/// rendered failure, partition, ablation and drops tables at quick scale.
#[test]
fn failure_paths_match_hashes_pinned_before_the_custody_core() {
    use adaptive_token_passing::sim::dst::{
        gen_case, replay_tape_traced, run_case_traced, Mutation, TapeFile,
    };
    use adaptive_token_passing::util::check::Gen;
    use adaptive_token_passing::util::rng::{RngCore, SplitMix64};

    // (a) the seven tapes, replayed on the unmodified protocol.
    let tapes: [(&str, u64); 7] = [
        ("binary_bad_prefix_skip", 0x7eaf_2013_03b0_0e37),
        ("binary_parked_token_livelock", 0x93cf_be07_cc14_2231),
        ("naimi_partition_dup", 0x7ece_ef24_c12b_a185),
        ("naimi_partition_reversal", 0x419e_cd96_cbc3_f9f0),
        ("ring_partition_retransmit", 0x688f_3080_a97f_a2a2),
        ("ring_regen_fork", 0xeef5_cf26_2134_389b),
        ("search_trap_strand", 0xf006_aae9_589e_ca5c),
    ];
    for (stem, want) in tapes {
        let path = format!("{}/tests/tapes/{stem}.tape", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).expect("tape file readable");
        let tf = TapeFile::from_json(&text).expect("tape file parses");
        let (_, trace) =
            replay_tape_traced(tf.space, &tf.tape, tf.protocol, Mutation::None, 1 << 20);
        let got = fnv1a64(&trace);
        assert_eq!(got, want, "tape {stem}: got {got:016x}");
    }

    // (b) 60 generated cases per protocol, traces folded into one hash.
    let sweeps: [(Protocol, u64); 4] = [
        (Protocol::Ring, 0x05af_f6da_5f6b_a5ce),
        (Protocol::Search, 0x4ab5_5aa2_d906_71ea),
        (Protocol::Binary, 0x662d_0d75_a1b1_0b52),
        (Protocol::Naimi, 0xd722_134e_47a4_65d9),
    ];
    for (protocol, want) in sweeps {
        let mut sm = SplitMix64::new(21 ^ fnv1a64(protocol.label()));
        let mut got = FNV_OFFSET_BASIS;
        let (mut grants, mut faulty) = (0, 0);
        for _ in 0..60 {
            let mut g = Gen::from_seed(sm.next_u64());
            let case = gen_case(&mut g, protocol, Mutation::None);
            faulty += usize::from(!case.is_benign());
            let (verdict, trace) = run_case_traced(&case, 1 << 18);
            grants += verdict.expect("every generated case passes its oracles").grants;
            got = fnv1a64_fold(got, &trace);
        }
        assert!(faulty >= 55 && grants >= 280, "sweep lost its failure cases");
        assert_eq!(got, want, "{} sweep: got {got:016x}", protocol.label());
    }

    // (c) the rendered failure-path tables.
    let renders: [(&str, String, u64); 4] = [
        ("failure", failure::run(&failure::Config::quick()).render(), 0xad20_659d_28c6_d97f),
        ("partition", partition::run(&partition::Config::quick()).render(), 0xd59a_c7ff_3dce_2754),
        ("ablation", ablation::run(&ablation::Config::quick()).render(), 0x0073_9d3c_ccc9_df32),
        ("drops", drops::run(&drops::Config::quick()).render(), 0x3aa5_a825_79ae_006a),
    ];
    for (name, text, want) in renders {
        let got = fnv1a64(&text);
        assert_eq!(got, want, "{name} table: got {got:016x}");
    }
}
