//! `atpbench` — the repository's benchmark: six pinned workloads, their
//! end-to-end metrics from untraced rounds, and a per-layer cost ledger taken
//! from outside the program. See `README.md` in the package directory.
//!
//! ```text
//! atpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one result line
//! atpbench all [--seed <n>] [--seconds <s>] [--out <dir>]             every workload, both passes
//! atpbench check                                                      the < 10 s self-test
//! ```

#![forbid(unsafe_code)]

mod probes;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use atp_util::json::{self, Value};

use stats::{median, quartiles};
use workloads::{Outcome, Plan, Round, TracedOutcome};

/// `(name, unit)` of every end-to-end metric. The driver's contract has every
/// workload report every one of them, so this list holds the eight of
/// ISSUE 13's thirteen that can be: five mean the same thing on every plane,
/// and three exact counters exist on one plane only (see [`applies`]) and
/// read [`NOT_APPLICABLE`] elsewhere. The other five are times of one plane;
/// a time may not read the same on every run, so they cannot carry such a
/// marker and are reported with the per-layer metrics, on their plane only
/// ([`PLANE_ONLY`]). `BENCHMARK.json` adds direction and bound, and `check`
/// holds the two lists together.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("grants_per_s", "1/s"),
    ("cpu_us_per_grant", "us"),
    ("responsiveness_mean_ticks", "ticks"),
    ("msgs_per_grant", "count"),
    ("recovery_ticks_max", "ticks"),
    ("served_share", "share"),
    ("peak_rss_mb", "MiB"),
];

/// What the result line carries for an end-to-end metric on a workload whose
/// plane has no such quantity: an end-to-end value must be a number and may
/// never be 0. The `metric` lines say `not-applicable` instead.
const NOT_APPLICABLE: f64 = 1.0;

/// ISSUE 13's end-to-end metrics that are wall-clock times of one plane,
/// with that plane's workload prefix. They lead the traced part of
/// [`PER_LAYER`] and come from the untraced round of a `--trace 1` run.
const PLANE_ONLY: [(&str, &str); 5] = [
    ("grant_latency_p50_us", "cluster-"),
    ("grant_latency_p99_us", "cluster-"),
    ("sim_ns_per_event", "sim-"),
    ("sim_us_per_grant", "sim-"),
    ("chaos_scenario_us", "chaos-"),
];

/// Whether `metric` exists on `workload`'s plane: ISSUE 13's assignment of
/// metrics to workloads. Metrics not named here exist everywhere.
fn applies(metric: &str, workload: &str) -> bool {
    let plane = match metric {
        "responsiveness_mean_ticks" | "msgs_per_grant" => "sim-",
        "recovery_ticks_max" => "chaos-",
        _ => PLANE_ONLY
            .iter()
            .find(|(name, _)| *name == metric)
            .map_or("", |&(_, plane)| plane),
    };
    workload.starts_with(plane)
}

/// `(name, unit)` of every per-layer metric. Those the probes measure come
/// first; the rest come from a workload's traced pass and read 0 where the
/// workload's plane has no such layer.
const PER_LAYER: [(&str, &str); 73] = [
    ("order.chain_ns", "ns"),
    ("codec.ring.encode_ns", "ns"),
    ("codec.ring.decode_ns", "ns"),
    ("codec.search.encode_ns", "ns"),
    ("codec.search.decode_ns", "ns"),
    ("codec.binary.encode_ns", "ns"),
    ("codec.binary.decode_ns", "ns"),
    ("codec.naimi.encode_ns", "ns"),
    ("codec.naimi.decode_ns", "ns"),
    ("codec.shard_envelope_ns", "ns"),
    ("checkpoint.to_bytes_ns", "ns"),
    ("checkpoint.from_bytes_ns", "ns"),
    ("checkpoint.restore_ns", "ns"),
    ("checkpoint.bytes", "bytes"),
    ("shardmap.lookup_ns", "ns"),
    ("shardmap.build_ns", "ns"),
    ("tcp.roundtrip_ns", "ns"),
    ("tcp.roundtrip_4k_ns", "ns"),
    ("chan.roundtrip_ns", "ns"),
    ("tcp.mesh_setup_ms", "ms"),
    ("frame.write_ns", "ns"),
    ("frame.decode_ns", "ns"),
    ("frame.decode_torn_ns", "ns"),
    ("crc32.ns_per_kib", "ns/KiB"),
    ("chaos.wrap_ns_per_frame", "ns"),
    ("wheel.churn_ns_per_op_1k", "ns"),
    ("wheel.churn_ns_per_op_100k", "ns"),
    ("shardplane.ns_per_event", "ns"),
    ("shardplane.grants_per_ktick_k1", "1/ktick"),
    ("shardplane.grants_per_ktick_k4", "1/ktick"),
    ("vclock.ns_per_dispatch", "ns"),
    ("grant_latency_p50_us", "us"),
    ("grant_latency_p99_us", "us"),
    ("sim_ns_per_event", "ns"),
    ("sim_us_per_grant", "us"),
    ("chaos_scenario_us", "us"),
    ("host.pinned", "count"),
    ("host.calib_ns", "ns"),
    ("proto.ring.ns_per_event", "ns"),
    ("proto.search.ns_per_event", "ns"),
    ("proto.binary.ns_per_event", "ns"),
    ("proto.naimi.ns_per_event", "ns"),
    ("proto.step_ns_per_grant", "ns"),
    ("proto.forwards_per_grant", "count"),
    ("proto.max_forwards", "count"),
    ("order.deliveries_per_grant", "count"),
    ("order.deliver_share", "share"),
    ("codec.token_frame_bytes", "bytes"),
    ("codec.encode_ns_per_grant", "ns"),
    ("codec.decode_ns_per_grant", "ns"),
    ("codec.search_bytes_per_grant", "bytes"),
    ("codec.dispatch_bytes_per_grant", "bytes"),
    ("shard.skew", "ratio"),
    ("runtime.request_call_ns", "ns"),
    ("runtime.events_per_grant", "count"),
    ("runtime.residual_ns_per_grant", "ns"),
    ("runtime.budget_accounted_share", "share"),
    ("transport.frames_per_grant", "count"),
    ("transport.bytes_per_grant", "bytes"),
    ("transport.flushes_per_grant", "count"),
    ("transport.frames_per_flush", "count"),
    ("transport.stage_flush_ns_per_grant", "ns"),
    ("transport.recv_wait_ns_per_grant", "ns"),
    ("transport.recv_timeouts_per_grant", "count"),
    ("world.pop_ns_per_event", "ns"),
    ("world.deliver_ns_per_event", "ns"),
    ("world.cascades_per_kevent", "count"),
    ("runner.drain_ns_per_event", "ns"),
    ("trace.overhead_share.cluster-tcp-binary", "share"),
    ("trace.overhead_share.cluster-chan-search-idle", "share"),
    ("trace.overhead_share.cluster-sharded-k4-zipf", "share"),
    ("trace.overhead_share.chaos-recover-chan", "share"),
    ("failed_share", "share"),
];
/// How many of [`PER_LAYER`]'s leading entries the probes measure.
const PROBED: usize = 31;

/// `run_seconds` of `BENCHMARK.json`: the default length of a run's timed rounds.
const RUN_SECONDS: f64 = 10.0;

/// A metric of one run: per-round (or per-set-up) values; the reported value
/// is their median. No values: the workload's plane has no such quantity.
struct Metric {
    name: &'static str,
    unit: &'static str,
    values: Vec<f64>,
}

impl Metric {
    fn value(&self) -> f64 {
        if self.values.is_empty() {
            NOT_APPLICABLE
        } else {
            median(&self.values)
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: atpbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n       \
         atpbench all [--seed <n>] [--seconds <s>] [--out <dir>]\n       \
         atpbench check\nworkloads: {}",
        workloads::NAMES.join(" ")
    );
    std::process::exit(2);
}

/// Parsed command line.
struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    probes: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Args {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        probes: true,
        out: Path::new(&target).join("atpbench"),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage()).as_str();
        match arg.as_str() {
            "--workload" => args.workload = Some(value().to_string()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--out" => args.out = PathBuf::from(value()),
            // `all` measures the probes once, in a process of their own.
            "--no-probes" => args.probes = false,
            "all" | "check" | "probes" if args.command.is_none() => {
                args.command = Some(arg.clone())
            }
            _ => usage(),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        usage();
    }
    args
}

/// Re-executes this program under `taskset -c <highest allowed CPU>` unless it
/// is already confined to one CPU. On this 2-vCPU host an unpinned cluster
/// serves 16.7k req/s for its first 1.5 s and 4.4k req/s afterwards; pinned
/// it holds its rate. Without `taskset` the run goes on unpinned and says so
/// in `host.pinned`.
fn pin_to_one_cpu(argv: &[String]) {
    const MARK: &str = "ATPBENCH_PINNED";
    let Some((highest, count)) = stats::cpus_allowed() else {
        return;
    };
    if count == 1 || std::env::var_os(MARK).is_some() {
        return;
    }
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let status = Command::new("taskset")
        .arg("-c")
        .arg(highest.to_string())
        .arg(exe)
        .args(argv)
        .env(MARK, "1")
        .status();
    match status {
        Ok(status) => std::process::exit(status.code().unwrap_or(1)),
        Err(e) => eprintln!("atpbench: taskset unavailable ({e}); running unpinned"),
    }
}

fn host_pinned() -> f64 {
    match stats::cpus_allowed() {
        Some((_, 1)) => 1.0,
        _ => 0.0,
    }
}

/// The end-to-end metrics of an untraced run, one value per round.
fn end_to_end(workload: &str, out: &Outcome) -> Vec<Metric> {
    let per_round = |f: &dyn Fn(&Round) -> f64| out.rounds.iter().map(f).collect::<Vec<f64>>();
    let grants = |r: &Round| r.grants.max(1) as f64;
    let values: [Vec<f64>; 8] = [
        out.setup_s.clone(),
        per_round(&|r| r.grants as f64 / r.wall_s),
        per_round(&|r| r.cpu_s * 1e6 / grants(r)),
        per_round(&|r| r.resp_mean_ticks),
        per_round(&|r| r.msgs as f64 / grants(r)),
        per_round(&|r| r.recovery_ticks_max),
        per_round(&|r| 1.0 - r.failed as f64 / r.attempted.max(1) as f64),
        vec![stats::peak_rss_mb()],
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), values)| Metric {
            name,
            unit,
            values: if applies(name, workload) {
                values
            } else {
                Vec::new()
            },
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    PER_LAYER.iter().find(|(n, _)| *n == name).map_or_else(
        || panic!("{name} is not in the per-layer catalogue"),
        |&(_, unit)| unit,
    )
}

/// One workload, one pass, in this process.
fn run_workload(
    workload: &str,
    plan: &Plan,
    traced: bool,
    probes: bool,
    out_dir: &Path,
) -> (Vec<Metric>, u64, u64) {
    if !workloads::NAMES.contains(&workload) {
        eprintln!("atpbench: unknown workload {workload:?}");
        usage();
    }
    let sim = workload.starts_with("sim-");
    let chaos = workload.starts_with("chaos-");
    if !traced {
        let out = if sim {
            workloads::run_sim(workload, plan)
        } else if chaos {
            workloads::run_chaos(plan)
        } else {
            workloads::run_cluster_workload(workload, plan)
        };
        let attempted = out.rounds.iter().map(|r| r.attempted).sum();
        let failed = out.rounds.iter().map(|r| r.failed).sum();
        println!(
            "workload {workload} seed {} rounds {} ops_attempted {attempted} ops_failed {failed} pinned {}",
            plan.seed,
            out.rounds.len(),
            host_pinned()
        );
        return (end_to_end(workload, &out), attempted, failed);
    }

    let calib_before = stats::calib_ns();
    let TracedOutcome {
        layers,
        attempted,
        failed,
        budget,
    } = if sim {
        workloads::trace_sim(workload, plan)
    } else if chaos {
        workloads::trace_chaos(plan, out_dir)
    } else {
        workloads::trace_cluster_workload(workload, plan, out_dir)
    };
    let calib = (calib_before + stats::calib_ns()) / 2.0;
    println!(
        "workload {workload} seed {} traced ops_attempted {attempted} ops_failed {failed} pinned {}",
        plan.seed,
        host_pinned()
    );
    budget.iter().for_each(|line| println!("{line}"));

    // Every per-layer name is reported; a layer this workload's plane does not
    // have reads 0.
    let mut values: BTreeMap<&str, f64> = PER_LAYER[PROBED..]
        .iter()
        .map(|&(name, _)| (name, 0.0))
        .collect();
    for (name, v) in layers {
        *values
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a traced layer")) = v;
    }
    values.insert("host.pinned", host_pinned());
    values.insert("host.calib_ns", calib);
    values.insert("failed_share", failed as f64 / attempted.max(1) as f64);
    let probed = if probes {
        probes::run(plan.seed, if plan.quick { 20 } else { 1 })
    } else {
        Vec::new()
    };
    let metrics = probed
        .into_iter()
        .chain(
            PER_LAYER[PROBED..]
                .iter()
                .map(|&(name, _)| (name, values[name])),
        )
        .map(|(name, v)| Metric {
            name,
            unit: unit_of(name),
            values: vec![v],
        })
        .collect();
    (metrics, attempted, failed)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        if m.values.is_empty() {
            println!("metric {:<46} {:<8} not-applicable", m.name, m.unit);
            continue;
        }
        let [q1, med, q3] = quartiles(&m.values);
        let min = m.values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = m.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "metric {:<46} {:<8} median={med:<22} q1={q1:<22} q3={q3:<22} min={min:<22} max={max:<22} n={}",
            m.name,
            m.unit,
            m.values.len()
        );
    }
}

/// The result line: the last line of standard output.
fn result_line(metrics: &[Metric], attempted: u64, failed: u64) -> String {
    let mut w = json::JsonWriter::new();
    w.begin_obj();
    w.key("correct");
    w.bool(true);
    w.key("attempted");
    w.u64(attempted.max(1));
    w.key("failed");
    w.u64(failed);
    w.key("metrics");
    w.begin_obj();
    for m in metrics {
        let v = m.value();
        assert!(v.is_finite(), "{} is not finite", m.name);
        w.key(m.name);
        w.begin_obj();
        w.key("value");
        w.f64(v);
        w.key("unit");
        w.str(m.unit);
        w.end_obj();
    }
    w.end_obj();
    w.end_obj();
    w.finish()
}

/// Runs this program again with `args`, echoing its output; returns its
/// result line parsed.
fn child(args: &[String]) -> Value {
    let exe = std::env::current_exe().expect("the running program has a path");
    let mut proc = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| {
            eprintln!("atpbench: cannot start a child run: {e}");
            std::process::exit(1);
        });
    let mut last = String::new();
    for line in BufReader::new(proc.stdout.take().expect("stdout is piped")).lines() {
        let line = line.unwrap_or_default();
        if !line.starts_with('{') {
            println!("  {line}");
        }
        last = line;
    }
    let status = proc.wait().expect("the child was started");
    if !status.success() {
        eprintln!("atpbench: `atpbench {}` failed: {status}", args.join(" "));
        std::process::exit(1);
    }
    json::parse(&last).unwrap_or_else(|e| {
        eprintln!(
            "atpbench: `atpbench {}` printed no result line: {e}",
            args.join(" ")
        );
        std::process::exit(1);
    })
}

fn num(v: &Value) -> f64 {
    match *v {
        Value::Int(i) => i as f64,
        Value::Num(f) => f,
        _ => f64::NAN,
    }
}

/// `(name, value)` of a result line's metrics, in the order printed.
type Values = Vec<(String, f64)>;

fn metrics_of(result: &Value) -> Values {
    match result.get("metrics") {
        Some(Value::Obj(pairs)) => pairs
            .iter()
            .map(|(name, m)| (name.clone(), m.get("value").map_or(f64::NAN, num)))
            .collect(),
        _ => Vec::new(),
    }
}

/// Every workload in a process of its own — untraced, then traced — and the
/// probes in another; prints every metric and writes `all-seed<n>.json`.
fn run_all(args: &Args) {
    let common = |extra: &[&str]| -> Vec<String> {
        let mut v: Vec<String> = extra.iter().map(|s| s.to_string()).collect();
        v.extend([
            "--seed".to_string(),
            args.seed.to_string(),
            "--seconds".to_string(),
            args.seconds.to_string(),
            "--out".to_string(),
            args.out.display().to_string(),
        ]);
        v
    };
    let mut doc = json::JsonWriter::new();
    doc.begin_obj();
    doc.key("seed");
    doc.u64(args.seed);
    doc.key("run_seconds");
    doc.f64(args.seconds);
    doc.key("workloads");
    doc.begin_obj();
    // Per workload: its end-to-end metrics, then its traced ones.
    let mut table: Vec<(&str, Values, Values)> = Vec::new();
    for workload in workloads::NAMES {
        println!("== {workload}: untraced rounds");
        let plain = child(&common(&["--workload", workload, "--trace", "0"]));
        println!("== {workload}: traced pass");
        let traced = child(&common(&[
            "--workload",
            workload,
            "--trace",
            "1",
            "--no-probes",
        ]));
        doc.key(workload);
        doc.begin_obj();
        for (key, result) in [("end_to_end", &plain), ("per_layer", &traced)] {
            doc.key(key);
            doc.begin_obj();
            for (name, v) in metrics_of(result) {
                if applies(&name, workload) {
                    doc.key(&name);
                    doc.f64(v);
                }
            }
            doc.end_obj();
        }
        doc.key("ops_attempted");
        doc.u64(plain.get("attempted").and_then(Value::as_u64).unwrap_or(0));
        doc.key("ops_failed");
        doc.u64(plain.get("failed").and_then(Value::as_u64).unwrap_or(0));
        doc.end_obj();
        table.push((workload, metrics_of(&plain), metrics_of(&traced)));
    }
    doc.end_obj();
    println!("== layer probes");
    let probed = child(&common(&["probes"]));
    doc.key("probes");
    doc.begin_obj();
    for (name, v) in metrics_of(&probed) {
        doc.key(&name);
        doc.f64(v);
    }
    doc.end_obj();
    doc.end_obj();

    println!(
        "== end-to-end medians, seed {}; the last five rows from the traced runs' untraced rounds",
        args.seed
    );
    print!("{:<34}", "metric");
    table.iter().for_each(|(w, ..)| print!(" {w:>24}"));
    println!();
    let row = |name: &str, unit: &str, cell: &dyn Fn(usize) -> Option<f64>| {
        print!("{:<34}", format!("{name} [{unit}]"));
        for (i, (workload, ..)) in table.iter().enumerate() {
            match cell(i).filter(|_| applies(name, workload)) {
                Some(v) => print!(" {v:>24.6}"),
                None => print!(" {:>24}", "n/a"),
            }
        }
        println!();
    };
    for (m, (name, unit)) in END_TO_END.iter().enumerate() {
        row(name, unit, &|i| Some(table[i].1[m].1));
    }
    for (name, _) in PLANE_ONLY {
        row(name, unit_of(name), &|i| {
            let traced = &table[i].2;
            traced.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
        });
    }
    let path = args.out.join(format!("all-seed{}.json", args.seed));
    let written =
        std::fs::create_dir_all(&args.out).and_then(|()| std::fs::write(&path, doc.finish()));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("atpbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(manifest: &Value, list: &str) -> BTreeMap<String, String> {
    manifest
        .get(list)
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// The settings of a manifest's `[profile.release]` table: its `key = value`
/// lines without blanks, sorted.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut settings: Vec<String> = manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| line.split_whitespace().collect())
        .collect();
    settings.sort();
    settings
}

/// The self-test: one short round and one short traced pass of every
/// workload with every correctness gate armed, and the metric names and
/// units they print held against `BENCHMARK.json`, nothing missing and
/// nothing extra.
fn check(out_dir: &Path) {
    let manifest = std::fs::read_to_string("BENCHMARK.json").unwrap_or_else(|e| {
        eprintln!("atpbench check: run from the repository root (BENCHMARK.json: {e})");
        std::process::exit(1);
    });
    let manifest = json::parse(&manifest).unwrap_or_else(|e| {
        eprintln!("atpbench check: BENCHMARK.json: {e}");
        std::process::exit(1);
    });
    let mut problems: Vec<String> = Vec::new();
    let listed: Vec<&str> = manifest
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    if listed != workloads::NAMES {
        problems.push(format!(
            "BENCHMARK.json workloads {listed:?} are not {:?}",
            workloads::NAMES
        ));
    }
    // This package is its own workspace root and so carries a copy of the
    // repository's release profile; the two must not drift apart.
    let profile = |path: &str| std::fs::read_to_string(path).map(|m| release_profile(&m));
    match (profile("Cargo.toml"), profile("atpbench/Cargo.toml")) {
        (Ok(root), Ok(own)) if root == own && !own.is_empty() => {}
        (root, own) => problems.push(format!(
            "[profile.release] of Cargo.toml is {root:?}, of atpbench/Cargo.toml {own:?}"
        )),
    }
    let plan = Plan {
        seed: 1,
        seconds: 1.0,
        quick: true,
    };
    for (i, workload) in workloads::NAMES.into_iter().enumerate() {
        for (traced, list) in [(false, "end_to_end"), (true, "per_layer")] {
            // The probes do not depend on the workload: once is enough.
            let probes = traced && i == 0;
            let (metrics, attempted, _) = run_workload(workload, &plan, traced, probes, out_dir);
            let mut want = declared(&manifest, list);
            if traced && !probes {
                PER_LAYER[..PROBED]
                    .iter()
                    .for_each(|(name, _)| drop(want.remove(*name)));
            }
            if attempted == 0 {
                problems.push(format!("{workload}: nothing attempted"));
            }
            for m in &metrics {
                let v = m.value();
                match want.remove(m.name) {
                    None => problems.push(format!(
                        "{workload}: {} is not in BENCHMARK.json {list}",
                        m.name
                    )),
                    Some(unit) if unit != m.unit => problems.push(format!(
                        "{workload}: {} has unit {}, BENCHMARK.json says {unit}",
                        m.name, m.unit
                    )),
                    Some(_) => {}
                }
                if !v.is_finite() || (!traced && v <= 0.0) {
                    problems.push(format!("{workload}: {} = {v}", m.name));
                }
            }
            for name in want.keys() {
                problems.push(format!(
                    "{workload}: {name} of BENCHMARK.json {list} was not reported"
                ));
            }
        }
    }
    if problems.is_empty() {
        println!("atpbench check: ok");
    } else {
        problems
            .iter()
            .for_each(|p| eprintln!("atpbench check: {p}"));
        std::process::exit(1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    pin_to_one_cpu(&argv);
    let plan = Plan {
        seed: args.seed,
        seconds: args.seconds,
        quick: false,
    };
    match (args.command.as_deref(), &args.workload) {
        (Some("all"), None) => run_all(&args),
        (Some("check"), None) => check(&args.out),
        (Some("probes"), None) => {
            let metrics: Vec<Metric> = probes::run(args.seed, 1)
                .into_iter()
                .map(|(name, v)| Metric {
                    name,
                    unit: unit_of(name),
                    values: vec![v],
                })
                .collect();
            print_metrics(&metrics);
            println!("{}", result_line(&metrics, 1, 0));
        }
        (None, Some(workload)) => {
            let (metrics, attempted, failed) =
                run_workload(workload, &plan, args.trace, args.probes, &args.out);
            print_metrics(&metrics);
            println!("{}", result_line(&metrics, attempted, failed));
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profile_reads_one_table() {
        let manifest = "[package]\nname = \"x\"\n\n# why\n[profile.release]\nlto = \"fat\"\n\
                        # a comment\ncodegen-units=1\n\n[profile.bench]\ndebug = true\n";
        assert_eq!(
            release_profile(manifest),
            ["codegen-units=1", "lto=\"fat\""]
        );
        assert!(release_profile("[package]\nname = \"x\"\n").is_empty());
    }

    #[test]
    fn plane_metrics_apply_to_their_plane_only() {
        assert!(applies("grants_per_s", "sim-fig9-n64"));
        assert!(applies("msgs_per_grant", "sim-scale-n20k"));
        assert!(!applies("msgs_per_grant", "chaos-recover-chan"));
        assert!(applies("recovery_ticks_max", "chaos-recover-chan"));
        assert!(!applies("recovery_ticks_max", "cluster-tcp-binary"));
        assert!(applies("grant_latency_p99_us", "cluster-tcp-binary"));
        assert!(!applies("grant_latency_p99_us", "sim-fig9-n64"));
        // Every plane-only name is a per-layer metric, none an end-to-end one.
        for (name, _) in PLANE_ONLY {
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name));
            assert!(!END_TO_END.iter().any(|(n, _)| *n == name));
        }
    }
}
