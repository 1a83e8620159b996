//! Ring vs Search vs BinarySearch under four load profiles — the trade-off
//! story of the paper's introduction, reproduced at the terminal.
//!
//! *"Ring-based protocols maximize throughput in busy systems, but can incur
//! a linear delay … logarithmic, tree-based protocols provide excellent
//! response when the use is bursty but infrequent. Our adaptive scheme
//! provides the best of both."*
//!
//! ```sh
//! cargo run --release --example adaptive_comparison
//! ```

use adaptive_token_passing::sim::report::{f2, Table};
use adaptive_token_passing::sim::runner::{run_experiment, ExperimentSpec, Protocol};
use adaptive_token_passing::sim::workload::{Bursty, GlobalPoisson, Saturated, Workload};

fn main() {
    let n = 64;
    let horizon = 30_000;
    println!("== protocol comparison, n = {n} ==\n");

    type WorkloadFactory = Box<dyn Fn() -> Box<dyn Workload>>;
    let workloads: Vec<(&str, WorkloadFactory)> = vec![
        (
            "saturated (all nodes busy)",
            Box::new(|| Box::new(Saturated::new(1))),
        ),
        (
            "steady (gap 10)",
            Box::new(|| Box::new(GlobalPoisson::new(10.0))),
        ),
        (
            "light (gap 200)",
            Box::new(|| Box::new(GlobalPoisson::new(200.0))),
        ),
        (
            "bursty & infrequent",
            Box::new(|| Box::new(Bursty::new(500.0))),
        ),
    ];

    let mut table = Table::new(vec!["workload", "ring", "search", "binary", "winner"])
        .title("mean responsiveness (ticks; lower is better)");

    for (name, make) in &workloads {
        let mut means = Vec::new();
        for protocol in Protocol::ALL {
            let spec = ExperimentSpec::new(protocol, n, horizon).with_seed(7);
            let mut wl = make();
            let summary = run_experiment(&spec, wl.as_mut());
            means.push(summary.metrics.responsiveness.mean);
        }
        let winner = Protocol::ALL
            .iter()
            .zip(&means)
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(p, _)| p.label())
            .unwrap_or("-");
        table.row(vec![
            name.to_string(),
            f2(means[0]),
            f2(means[1]),
            f2(means[2]),
            winner.to_string(),
        ]);
    }
    table.note("binary should match the ring when busy and the search when idle");
    println!("{}", table.render());
}
