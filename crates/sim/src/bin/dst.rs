//! Deterministic simulation-testing driver.
//!
//! Flags are declared once through `atp_sim::cli::Parser`; `--help`
//! prints the generated usage. `--trace-out FILE` additionally comes from
//! the shared observability surface (`ObsArgs`).
//!
//! `--protocol` restricts exploration to one protocol (by its label:
//! `ring`, `search`, `binary`, `naimi`); tape replay is unaffected — every
//! checked-in tape still replays regardless of its protocol.
//!
//! `--shard-dst` additionally explores the sharded multi-token plane:
//! `--budget` fresh key-addressed cases per protocol, run by the same
//! driver and oracles, where a crash or partition in shard *i* must never
//! block or delay grants in shard *j* (cross-shard isolation). A sharded
//! find is written by `--write-tape` like any other, and its tape replays
//! under `--tapes`.
//!
//! `--trace-out` (with `--tapes`) re-replays every checked-in tape with
//! network tracing on and writes one JSON-lines document: a
//! `{"kind":"tape",...}` header per tape followed by its world trace
//! events. Deterministic — same tapes, same bytes.
//!
//! `--partition` restricts exploration to cases with a partition window
//! (the heal-fencing adversary): every explored case splits the ring,
//! heals it, and must satisfy the dual-token-after-heal oracle on top of
//! the usual ones.
//!
//! Order of business:
//!
//! 1. **Replay** every checked-in `*.tape` under `--tapes DIR` (sorted by
//!    name). Benign tapes must pass; mutation tapes must still fail under
//!    their mutation and pass without it. Any regression fails the run.
//! 2. **Explore** `--budget` fresh `(seed, strategy)` cases per protocol
//!    from base seed `--seed`. A violation is shrunk to a minimal tape,
//!    printed, optionally written to `--write-tape PATH`, and fails the run.
//! 3. With `--demo-mutation`, prove the machinery end-to-end: plant the
//!    `bad_prefix_skip` fault and require the explorer to find and shrink
//!    it within the same budget.
//!
//! Exit status: `0` all green, `1` violation / tape regression / demo miss,
//! `2` usage error.

use atp_sim::cli::Parser;
use atp_sim::dst::{
    replay_tape_traced, verify_tape, CaseSpace, ExploreOutcome, Explorer, Focus, Mutation, TapeFile,
};
use atp_sim::{obs, ObsArgs, Protocol};
use atp_util::json::JsonWriter;
use std::process::ExitCode;

struct Args {
    budget: u32,
    seed: u64,
    tapes: Option<String>,
    demo_mutation: bool,
    write_tape: Option<String>,
    focus: Focus,
    protocol: Option<Protocol>,
    shard_dst: bool,
}

fn parse_args(rest: Vec<String>) -> Result<Args, String> {
    let parser = Parser::new("dst")
        .flag("--budget", "N", "fresh cases to explore per protocol")
        .flag("--seed", "S", "base seed of the case-seed stream")
        .flag("--tapes", "DIR", "replay every *.tape under DIR first")
        .flag("--write-tape", "PATH", "write a found counterexample's minimized tape")
        .flag("--protocol", "ring|search|binary|naimi", "explore only this protocol")
        .switch("--demo-mutation", "plant bad_prefix_skip and require the explorer to find it")
        .switch("--partition", "explore only cases with a partition window")
        .switch("--shard-dst", "also explore the sharded plane with isolation oracles");
    let m = parser.parse(rest)?;
    Ok(Args {
        budget: m.get_num("--budget", 300)?,
        seed: m.get_num("--seed", 0)?,
        tapes: m.get("--tapes").map(str::to_string),
        demo_mutation: m.has("--demo-mutation"),
        write_tape: m.get("--write-tape").map(str::to_string),
        focus: if m.has("--partition") {
            Focus::Partition
        } else {
            Focus::All
        },
        protocol: match m.get("--protocol") {
            None => None,
            Some(_) => Some(m.protocol(Protocol::Binary)?),
        },
        shard_dst: m.has("--shard-dst"),
    })
}

/// Replays every `*.tape` in `dir`; returns the number of regressions
/// plus, when `collect_trace` is set, a JSON-lines trace document (one
/// `{"kind":"tape",...}` header per tape, then its world trace events).
fn replay_tapes(dir: &str, collect_trace: bool) -> Result<(u32, String), String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("--tapes {dir}: {e}"))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "tape"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        println!("tapes: none under {dir}");
        return Ok((0, String::new()));
    }
    let mut regressions = 0u32;
    let mut trace = String::new();
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let tf = TapeFile::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        match verify_tape(&tf) {
            Ok(()) => println!(
                "tape {:<32} {:>6} [{}] ok — {}",
                tf.name,
                tf.protocol.label(),
                tf.mutation.label(),
                tf.note
            ),
            Err(reason) => {
                println!("tape {:<32} REGRESSION: {reason}", tf.name);
                regressions += 1;
            }
        }
        if collect_trace {
            let (verdict, jsonl) = replay_tape_traced(
                tf.space,
                &tf.tape,
                tf.protocol,
                tf.mutation,
                obs::TRACE_CAPACITY,
            );
            let mut w = JsonWriter::new();
            w.begin_obj();
            w.key("kind");
            w.str("tape");
            w.key("name");
            w.str(&tf.name);
            w.key("protocol");
            w.str(tf.protocol.label());
            w.key("mutation");
            w.str(tf.mutation.label());
            w.key("violated");
            w.bool(verdict.is_err());
            w.end_obj();
            trace.push_str(&w.finish());
            trace.push('\n');
            trace.push_str(&jsonl);
        }
    }
    Ok((regressions, trace))
}

fn main() -> ExitCode {
    let obs_args = ObsArgs::parse_env();
    let args = match parse_args(obs_args.rest.clone()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dst: {e}");
            return ExitCode::from(2);
        }
    };
    if (obs_args.trace_out.is_some() && args.tapes.is_none())
        || obs_args.chrome_out.is_some()
        || obs_args.metrics_out.is_some()
    {
        eprintln!("dst: only --trace-out (with --tapes) is wired up here; other obs flags ignored");
    }
    let mut failed = false;

    if let Some(dir) = &args.tapes {
        let collect_trace = obs_args.trace_out.is_some();
        match replay_tapes(dir, collect_trace) {
            Ok((regressions, trace)) => {
                if regressions > 0 {
                    println!("tapes: {regressions} regression(s)");
                    failed = true;
                }
                if let Some(path) = &obs_args.trace_out {
                    if let Err(e) = std::fs::write(path, trace) {
                        eprintln!("dst: --trace-out {path}: {e}");
                        return ExitCode::from(2);
                    }
                    eprintln!("wrote tape replay trace: {path}");
                }
            }
            Err(e) => {
                eprintln!("dst: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let spaces = [
        (CaseSpace::Flat, "explore"),
        (CaseSpace::Sharded, "shard-dst"),
    ];
    for (space, tag) in spaces.into_iter().take(1 + usize::from(args.shard_dst)) {
        for protocol in Protocol::ALL {
            if args.protocol.is_some_and(|only| only != protocol) {
                continue;
            }
            let start = std::time::Instant::now();
            let explorer = Explorer::new(protocol, args.seed, Mutation::None)
                .with_focus(args.focus)
                .with_space(space);
            match explorer.explore(args.budget) {
                ExploreOutcome::Clean {
                    cases,
                    oracle_checks,
                } => println!(
                    "{tag} {:>6}{}: clean — {cases} cases, {oracle_checks} oracle checks, {:.3}s",
                    protocol.label(),
                    if args.focus == Focus::Partition { " [partition]" } else { "" },
                    start.elapsed().as_secs_f64()
                ),
                ExploreOutcome::Found(cx) => {
                    println!(
                        "{tag} {:>6}: VIOLATION — {} (case seed {:#x}, minimized to {} draws \
                         in {} shrink steps)",
                        protocol.label(),
                        cx.violation,
                        cx.case_seed,
                        cx.tape.len(),
                        cx.shrink_iters
                    );
                    println!("{}", cx.case_debug);
                    if let Some(path) = &args.write_tape {
                        let name = path
                            .rsplit('/')
                            .next()
                            .unwrap_or(path)
                            .trim_end_matches(".tape");
                        let tf = TapeFile::from_counterexample(name, &cx);
                        match std::fs::write(path, tf.to_json()) {
                            Ok(()) => println!("wrote minimized tape to {path}"),
                            Err(e) => eprintln!("dst: --write-tape {path}: {e}"),
                        }
                    }
                    failed = true;
                }
            }
        }
    }

    if args.demo_mutation {
        let start = std::time::Instant::now();
        let explorer = Explorer::new(Protocol::Binary, args.seed, Mutation::BadPrefixSkip);
        match explorer.explore(args.budget) {
            ExploreOutcome::Found(cx) => println!(
                "demo: planted '{}' found and shrunk to {} draws ({} shrink steps, {:.3}s) — {}",
                cx.mutation.label(),
                cx.tape.len(),
                cx.shrink_iters,
                start.elapsed().as_secs_f64(),
                cx.violation
            ),
            ExploreOutcome::Clean { cases, .. } => {
                println!(
                    "demo: planted '{}' NOT found in {cases} cases — detector has regressed",
                    Mutation::BadPrefixSkip.label()
                );
                failed = true;
            }
        }
    }

    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
