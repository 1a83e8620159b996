//! Cross-protocol conformance: every `Protocol` variant runs the same
//! (seed × delivery strategy × fault profile) matrix under the full DST
//! oracle set, and the verdicts must agree cell by cell.
//!
//! The DST explorer draws its own cases, so two protocols never see quite
//! the same schedule there. This suite removes that freedom: each matrix
//! cell is one hand-built [`DstCase`] — identical workload, adversary, and
//! fault script — run once per protocol. A protocol that only survives the
//! schedules its own generator happens to draw fails here.

use adaptive_token_passing::core::ProtocolConfig;
use adaptive_token_passing::sim::dst::{run_case, DstCase, StrategySpec};
use adaptive_token_passing::sim::Protocol;

const N: usize = 6;

/// The request script shared by every cell: derived from the seed alone so
/// each seed exercises a different load pattern, with distinct payloads so
/// every request maps to exactly one grant.
fn requests(seed: u64) -> Vec<(u64, u16, u32, u64)> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
    let mut out = Vec::with_capacity(8);
    for k in 0..8u64 {
        // SplitMix-style scramble; cheap and stable across platforms.
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        out.push((x % 120, 0, (x >> 32) as u32 % N as u32, 100 + k));
    }
    out.sort_unstable();
    out
}

/// A named fault script applied on top of the clean base case.
struct FaultProfile {
    name: &'static str,
    apply: fn(&mut DstCase),
}

fn arm_recovery(case: &mut DstCase) {
    case.cfg = case
        .cfg
        .with_token_acks(true)
        .with_regeneration(case.cfg.effective_regen_timeout(case.n));
}

const PROFILES: &[FaultProfile] = &[
    FaultProfile {
        name: "clean",
        apply: |_| {},
    },
    // Every frame duplicated: watermarks must make this free (benign).
    FaultProfile {
        name: "dup-all",
        apply: |c| c.link_dup_p = 1.0,
    },
    // Control-plane drops: searches and traps vanish, the token survives.
    FaultProfile {
        name: "control-drops",
        apply: |c| c.drop_p = 0.3,
    },
    // Whole-link loss, token frames included: acks + regeneration armed.
    FaultProfile {
        name: "token-loss",
        apply: |c| {
            c.link_loss_p = 0.15;
            arm_recovery(c);
        },
    },
    // Scripted split/heal: the dual-token-after-heal oracle arms itself.
    FaultProfile {
        name: "partition",
        apply: |c| {
            c.partition = Some((20, 80, N as u32 / 2));
            arm_recovery(c);
        },
    },
    // Crash the initial holder, recover it later.
    FaultProfile {
        name: "crash-recover",
        apply: |c| {
            c.crash = Some((5, 0, 90));
            c.cfg = c.cfg.with_regeneration(c.cfg.effective_regen_timeout(c.n));
        },
    },
];

fn strategies(seed: u64) -> Vec<StrategySpec> {
    vec![
        StrategySpec::Fifo,
        StrategySpec::Lifo,
        StrategySpec::Shuffle(seed ^ 0xdead_beef),
        StrategySpec::StarveControl,
        StrategySpec::DelayToken,
    ]
}

/// One matrix cell, instantiated for a protocol.
fn cell(protocol: Protocol, seed: u64, strategy: StrategySpec, profile: &FaultProfile) -> DstCase {
    let mut case = DstCase {
        protocol,
        n: N,
        shards: 1,
        holders: vec![0],
        world_seed: seed,
        latency: (1, 1),
        drop_p: 0.0,
        requests: requests(seed),
        crash: None,
        cfg: ProtocolConfig::default(),
        strategy,
        link_loss_p: 0.0,
        link_dup_p: 0.0,
        partition: None,
        fault_shard: 0,
    };
    (profile.apply)(&mut case);
    case
}

/// The conformance matrix: every protocol survives every cell, and within
/// a cell every protocol reaches the same verdict.
///
/// For benign cells (clean, dup-all) the oracles already guarantee full
/// service; this test additionally pins grant-order totality — each of the
/// eight distinct requests is granted exactly once, by every protocol, so
/// the grant sequences are total orders over the same request set.
#[test]
fn all_protocols_agree_on_the_conformance_matrix() {
    for seed in [1u64, 7, 23] {
        for strategy in strategies(seed) {
            for profile in PROFILES {
                let mut grants = Vec::with_capacity(Protocol::ALL.len());
                for protocol in Protocol::ALL {
                    let case = cell(protocol, seed, strategy.clone(), profile);
                    let benign = case.is_benign();
                    let stats = run_case(&case).unwrap_or_else(|v| {
                        panic!(
                            "{} failed cell (seed {seed}, {}, {}): {v}",
                            protocol.label(),
                            strategy.label(),
                            profile.name
                        )
                    });
                    if benign {
                        assert_eq!(
                            stats.grants,
                            case.requests.len() as u64,
                            "{}: benign cell (seed {seed}, {}, {}) must grant every \
                             request exactly once",
                            protocol.label(),
                            strategy.label(),
                            profile.name
                        );
                    }
                    grants.push(stats.grants);
                }
                // Benign cells: identical totality across protocols.
                if profile.name == "clean" || profile.name == "dup-all" {
                    assert!(
                        grants.windows(2).all(|w| w[0] == w[1]),
                        "grant totals diverged across protocols in cell \
                         (seed {seed}, {}, {}): {grants:?}",
                        strategy.label(),
                        profile.name
                    );
                }
            }
        }
    }
}

/// Duplication conformance at full strength, protocol by protocol: with
/// every frame copied, the duplicate-token and prefix oracles must hold
/// and the grant count must not inflate — a duplicated grant would show up
/// here as `grants > requests`.
#[test]
fn duplication_never_inflates_grants() {
    for protocol in Protocol::ALL {
        for seed in [3u64, 11] {
            let case = cell(
                protocol,
                seed,
                StrategySpec::Fifo,
                &FaultProfile {
                    name: "dup-all",
                    apply: |c| c.link_dup_p = 1.0,
                },
            );
            let stats = run_case(&case)
                .unwrap_or_else(|v| panic!("{} (seed {seed}): {v}", protocol.label()));
            assert_eq!(
                stats.grants,
                case.requests.len() as u64,
                "{} (seed {seed}): duplicated frames changed the grant count",
                protocol.label()
            );
        }
    }
}

/// The partition profile must actually partition: the case horizon extends
/// past the heal plus the fencing window, so the dual-token oracle is armed
/// in every partition cell rather than trivially skipped.
#[test]
fn partition_cells_arm_the_heal_oracle() {
    let profile = PROFILES.iter().find(|p| p.name == "partition").unwrap();
    let case = cell(Protocol::Naimi, 1, StrategySpec::Fifo, profile);
    let (_, heal, _) = case.partition.expect("partition profile must split");
    assert!(case.horizon() > heal + case.settle_ticks());
}
