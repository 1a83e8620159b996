//! `atp` — the reproduction's one command-line tool: every artifact of the
//! paper's evaluation, the DST driver, the real-transport cluster runner and
//! the trace checker, behind one command table.
//!
//! Usage: `cargo run --release -p atp-sim --bin atp -- <command> [flags]`.
//! `atp` alone or `atp --help` lists the commands; `atp <command> --help`
//! lists that command's flags. Every command declares its flags once on
//! `atp_sim::cli::Parser`, so a flag it does not honour is a usage error
//! (exit 2), never a silent fallback.
//!
//! An artifact command runs at paper scale, or at seconds scale with
//! `--quick`; `atp all [--quick]` prints every artifact, each under a
//! `===== name =====` header. Sweeps fan out over `ATP_THREADS` workers
//! (default: all cores) and stdout is byte-identical at any thread count;
//! timing goes to stderr so stdout stays comparable across runs.

mod cluster;
mod dst;
mod trace_check;

use std::process::ExitCode;
use std::time::Instant;

use atp_sim::cli::Parser;
use atp_sim::experiments::{
    ablation, drops, failure, fairness, fig10, fig9, geo, latency, messages, partition, shards,
    throughput, worstcase,
};
use atp_sim::report::Table;
use atp_sim::{
    obs, run_experiment_traced, ExperimentSpec, GlobalPoisson, ObsArgs, Protocol, RunSummary,
};

/// A parsed command, ready to run.
type Job = Box<dyn FnOnce() -> ExitCode>;

/// A command: parses its flags into a job, or says why it cannot.
type Command = fn(Vec<String>) -> Result<Job, String>;

/// `atp table_$m`: experiment module `$m`, whose only flag is `--quick`.
macro_rules! table {
    ($m:ident) => {
        |argv| {
            table(concat!("table_", stringify!($m)), argv, |quick| {
                $m::run(&if quick {
                    $m::Config::quick()
                } else {
                    $m::Config::paper()
                })
            })
        }
    };
}

/// The paper's artifacts, in the order `atp all` prints them, each with
/// what it reproduces.
const ARTIFACTS: &[(&str, &str, Command)] = &[
    ("fig9", "Figure 9", fig9),
    ("fig10", "Figure 10", fig10),
    ("table_messages", "Lemma 6", table!(messages)),
    ("table_worstcase", "Lemma 4, Theorem 2", table!(worstcase)),
    ("table_fairness", "Theorem 3", table!(fairness)),
    ("table_ablation", "Section 4.4", table!(ablation)),
    ("table_failure", "Section 5", table!(failure)),
    ("table_drops", "Section 1: cheap messages", table!(drops)),
    ("table_partition", "split/heal + loss", table!(partition)),
    ("table_throughput", "busy throughput", table!(throughput)),
    ("table_latency", "bounded delay, jittered", table!(latency)),
    ("table_geo", "unit delay vs distance", table!(geo)),
    ("table_shards", "K independent tokens", table_shards),
];

/// Everything that is not a paper artifact.
const TOOLS: &[(&str, &str, Command)] = &[
    ("all", "every artifact, under headers", all),
    ("dst", "simulation testing", dst::parse),
    ("cluster", "the real runtime", cluster::parse),
    ("trace_check", "validate --trace-out", trace_check::parse),
];

const QUICK: &str = "seconds-scale preset instead of paper scale";

fn usage() -> String {
    let mut s =
        String::from("usage: atp <command> [flags]   (atp <command> --help lists its flags)\n");
    for (title, commands) in [("paper artifacts", ARTIFACTS), ("tools", TOOLS)] {
        s.push_str(&format!("\n{title}:\n"));
        for (name, about, _) in commands {
            s.push_str(&format!("  {name:<18} {about}\n"));
        }
    }
    s
}

/// Parses one command line (the command name, then its flags) into a job.
fn parse(cmd: &str, argv: Vec<String>) -> Result<Job, String> {
    match ARTIFACTS
        .iter()
        .chain(TOOLS)
        .find(|(name, ..)| *name == cmd)
    {
        Some((_, _, command)) => command(argv),
        None => Err("unknown command (try atp --help)".into()),
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        None => {
            eprint!("{}", usage());
            ExitCode::from(2)
        }
        Some("--help" | "-h") => {
            print!("{}", usage());
            ExitCode::SUCCESS
        }
        Some(cmd) => match parse(cmd, args.collect()) {
            Ok(job) => job(),
            Err(e) => {
                eprintln!("atp {cmd}: {e}");
                ExitCode::from(2)
            }
        },
    }
}

/// Runs `f`, reporting its wall time, worker count and the process's peak
/// resident set so far on stderr.
fn timed<T>(name: &str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let peak = peak_rss_mib().map_or(String::new(), |mib| format!(", peak RSS {mib:.1} MiB"));
    eprintln!(
        "{name}: {:.3}s on {} worker(s){peak}",
        start.elapsed().as_secs_f64(),
        atp_util::pool::worker_count()
    );
    out
}

/// The process's peak resident set in MiB (`VmHWM` in `/proc/self/status`);
/// `None` where that cannot be read.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kib: f64 = kib.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

fn table(name: &'static str, argv: Vec<String>, run: fn(bool) -> Table) -> Result<Job, String> {
    let quick = Parser::new(name)
        .switch("--quick", QUICK)
        .parse(argv)?
        .has("--quick");
    Ok(Box::new(move || {
        println!("{}", timed(name, || run(quick)).render());
        ExitCode::SUCCESS
    }))
}

/// `atp all`: every artifact, passed `all`'s own flags (`--quick` or none).
fn all(argv: Vec<String>) -> Result<Job, String> {
    Parser::new("all")
        .switch("--quick", QUICK)
        .parse(argv.clone())?;
    let jobs = ARTIFACTS
        .iter()
        .map(|(name, _, command)| Ok((*name, command(argv.clone())?)))
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Box::new(move || {
        for (name, job) in jobs {
            println!("===== {name} =====");
            let code = job();
            if code != ExitCode::SUCCESS {
                return code;
            }
        }
        ExitCode::SUCCESS
    }))
}

/// A Figure 9/10 job: runs `sweep`, writes what `obs` asks for (the
/// merged metrics, and `traced` re-run under a global Poisson load of mean
/// gap `gap`), then prints the table.
fn fig_job(
    name: &'static str,
    obs: ObsArgs,
    sweep: impl FnOnce() -> (Table, Vec<RunSummary>) + 'static,
    traced: ExperimentSpec,
    gap: f64,
) -> Job {
    Box::new(move || {
        let (table, summaries) = timed(name, sweep);
        let mut written = obs.write_metrics(&obs::merged_registry(&summaries));
        if written.is_ok() && obs.wants_trace() {
            let mut load = GlobalPoisson::new(gap);
            let (_, artifacts) = run_experiment_traced(&traced, &mut load, obs::TRACE_CAPACITY);
            written = obs.write_trace(&artifacts);
        }
        if let Err(e) = written {
            eprintln!("{name}: writing an observability artifact: {e}");
            return ExitCode::from(2);
        }
        println!("{}", table.render());
        ExitCode::SUCCESS
    })
}

/// `--n N` replaces the sweep with one point at ring size N over 4 token
/// rounds, the large-N smoke that drives the timer wheel's overflow and
/// cascade at scale. The traced re-run is the largest BinarySearch point.
fn fig9(argv: Vec<String>) -> Result<Job, String> {
    let m = Parser::new("fig9")
        .switch("--quick", QUICK)
        .flag("--n", "N", "one point at ring size N instead of the sweep")
        .obs_flags()
        .parse(argv)?;
    let config = match (m.get("--n"), m.has("--quick")) {
        (Some(_), true) => return Err("--n replaces the sweep: drop --quick".into()),
        (Some(_), false) => fig9::Config {
            ns: vec![m.get_positive("--n", 1)?],
            mean_gap: 10.0,
            rounds: 4,
            seed: 9,
        },
        (None, true) => fig9::Config::quick(),
        (None, false) => fig9::Config::paper(),
    };
    let n = *config.ns.last().expect("config sweeps at least one n");
    let traced =
        ExperimentSpec::new(Protocol::Binary, n, config.rounds * n as u64).with_seed(config.seed);
    let gap = config.mean_gap;
    let sweep = move || fig9::run_with_summaries(&config);
    Ok(fig_job("fig9", m.obs(), sweep, traced, gap))
}

/// The traced re-run is the lightest-load BinarySearch point.
fn fig10(argv: Vec<String>) -> Result<Job, String> {
    let m = Parser::new("fig10")
        .switch("--quick", QUICK)
        .obs_flags()
        .parse(argv)?;
    let config = if m.has("--quick") {
        fig10::Config::quick()
    } else {
        fig10::Config::paper()
    };
    let traced = ExperimentSpec::new(Protocol::Binary, config.n, config.rounds * config.n as u64)
        .with_seed(config.seed);
    let gap = *config.gaps.last().expect("config sweeps at least one gap");
    let sweep = move || fig10::run_with_summaries(&config);
    Ok(fig_job("fig10", m.obs(), sweep, traced, gap))
}

/// `--shards K` narrows the sweep to K ∈ {1, K}; `--key-dist zipf` skews
/// the key stream so the hot keys' shards carry most of the load.
fn table_shards(argv: Vec<String>) -> Result<Job, String> {
    let m = Parser::new("table_shards")
        .switch("--quick", QUICK)
        .shard_flags()
        .parse(argv)?;
    let mut config = if m.has("--quick") {
        shards::Config::quick()
    } else {
        shards::Config::paper()
    };
    if m.get("--shards").is_some() {
        let k = m.shards(1)?;
        config.shard_counts = if k == 1 { vec![1] } else { vec![1, k] };
    }
    config.key_dist = m.key_dist(config.key_dist)?;
    Ok(Box::new(move || {
        println!(
            "{}",
            timed("table_shards", || shards::run(&config)).render()
        );
        println!("{}", shards::rebalance_table(&config).render());
        ExitCode::SUCCESS
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parses(line: &[&str]) -> Result<Job, String> {
        parse(line[0], line[1..].iter().map(|s| s.to_string()).collect())
    }

    fn rejects(line: &[&str]) -> String {
        match parses(line) {
            Ok(_) => panic!("{line:?} parsed"),
            Err(e) => e,
        }
    }

    #[test]
    fn zero_counts_and_sizes_are_usage_errors() {
        for line in [
            &["cluster", "--requests", "0"][..],
            &["cluster", "--requests", "0", "--shards", "2"],
            &["cluster", "--n", "0"],
            &["fig9", "--n", "0"],
        ] {
            assert!(rejects(line).contains("must be at least 1"), "{line:?}");
        }
    }

    #[test]
    fn missing_values_and_misspelt_flags_are_usage_errors() {
        assert!(rejects(&["fig9", "--n"]).contains("expects a value"));
        assert!(rejects(&["table_fairness", "--quik"]).contains("unknown flag"));
        assert!(rejects(&["nosuch"]).contains("unknown command"));
    }

    #[test]
    fn flags_are_accepted_only_where_honoured() {
        assert!(parses(&["fig9", "--quick", "--trace-out", "t", "--metrics-out", "m"]).is_ok());
        assert!(parses(&["fig10", "--chrome-out", "c"]).is_ok());
        assert!(parses(&["dst", "--tapes", "d", "--trace-out", "t"]).is_ok());
        rejects(&["table_drops", "--metrics-out", "m"]);
        rejects(&["table_shards", "--trace-out", "t"]);
        rejects(&["dst", "--metrics-out", "m"]);
        rejects(&["dst", "--trace-out", "t"]);
        rejects(&["cluster", "--metrics-out", "m"]);
        rejects(&["fig9", "--quick", "--n", "64"]);
        rejects(&["cluster", "--conform", "--requests", "9"]);
        rejects(&["cluster", "--conform", "--chaos"]);
        rejects(&["cluster", "--key-dist", "zipf"]);
        rejects(&["cluster", "--transport", "udp"]);
        rejects(&["trace_check"]);
        rejects(&["trace_check", "a", "b"]);
    }

    #[test]
    fn every_command_parses_its_documented_invocations() {
        for (name, ..) in ARTIFACTS {
            assert!(parses(&[name, "--quick"]).is_ok(), "{name}");
        }
        for line in [
            &["all", "--quick"][..],
            &["fig9", "--n", "100000"],
            &[
                "table_shards",
                "--quick",
                "--shards",
                "4",
                "--key-dist",
                "zipf",
            ],
            &[
                "dst",
                "--budget",
                "210",
                "--tapes",
                "tests/tapes",
                "--demo-mutation",
            ],
            &[
                "dst",
                "--shard-dst",
                "--budget",
                "1000",
                "--protocol",
                "binary",
            ],
            &[
                "cluster",
                "--conform",
                "--protocol",
                "ring",
                "--transport",
                "tcp",
            ],
            &[
                "cluster",
                "--chaos",
                "--protocol",
                "naimi",
                "--transport",
                "chan",
            ],
            &[
                "cluster",
                "--protocol",
                "search",
                "--transport",
                "chan",
                "--requests",
                "4000",
            ],
            &["cluster", "--shards", "4", "--key-dist", "zipf"],
            &["trace_check", "trace.jsonl"],
        ] {
            assert!(parses(line).is_ok(), "{line:?}");
        }
    }

    #[test]
    fn usage_lists_every_command() {
        let u = usage();
        for (name, ..) in ARTIFACTS.iter().chain(TOOLS) {
            assert!(
                u.contains(&format!("  {name} ")),
                "{name} missing from usage"
            );
        }
    }
}
