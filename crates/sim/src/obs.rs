//! Observability plumbing for the `atp` commands.
//!
//! A command that honours them declares three flags with
//! [`Parser::obs_flags`](crate::cli::Parser::obs_flags) and reads them
//! back as an [`ObsArgs`]:
//!
//! * `--trace-out FILE` — structured trace export as JSON lines: the
//!   world's bounded network trace (one object per send/deliver/loss/
//!   timer event) followed by one `{"kind":"span",...}` object per
//!   request lifecycle.
//! * `--chrome-out FILE` — the same spans as a chrome://tracing-compatible
//!   document (open in `chrome://tracing` or Perfetto).
//! * `--metrics-out FILE` — the merged metrics [`Registry`] of the run(s)
//!   as JSON. Registries merge exactly, so this artifact is byte-identical
//!   at any `ATP_THREADS` setting and CI `cmp`s it across thread counts.
//!
//! All three artifacts are deterministic; wall-clock profiling is kept
//! separate (stderr / bench output only).

use std::fs;
use std::io;

use atp_util::metrics::Registry;

use crate::runner::{RunArtifacts, RunSummary};
use crate::span::chrome_trace_json;

/// How many of the most recent network trace events a traced run retains.
pub const TRACE_CAPACITY: usize = 1 << 16;

/// Parsed observability flags.
#[derive(Debug, Clone, Default)]
pub struct ObsArgs {
    /// `--trace-out` target, if given.
    pub trace_out: Option<String>,
    /// `--chrome-out` target, if given.
    pub chrome_out: Option<String>,
    /// `--metrics-out` target, if given.
    pub metrics_out: Option<String>,
}

impl ObsArgs {
    /// Whether any trace/span artifact was requested (i.e. the command
    /// should do a traced run).
    pub fn wants_trace(&self) -> bool {
        self.trace_out.is_some() || self.chrome_out.is_some()
    }

    /// Writes the trace artifacts of one traced run to the requested
    /// files (no-ops for flags that were not given).
    pub fn write_trace(&self, artifacts: &RunArtifacts) -> io::Result<()> {
        if let Some(path) = &self.trace_out {
            fs::write(path, trace_jsonl(artifacts))?;
            eprintln!("wrote trace: {path}");
        }
        if let Some(path) = &self.chrome_out {
            fs::write(path, chrome_trace_json(&artifacts.spans))?;
            eprintln!("wrote chrome trace: {path}");
        }
        Ok(())
    }

    /// Writes the metrics registry artifact, if requested.
    pub fn write_metrics(&self, reg: &Registry) -> io::Result<()> {
        if let Some(path) = &self.metrics_out {
            fs::write(path, reg.to_json())?;
            eprintln!("wrote metrics: {path}");
        }
        Ok(())
    }
}

/// Renders a traced run as JSON lines: network trace events first
/// (chronological), then one span object per request (chronological by
/// request time). Every line is a standalone JSON object; identical runs
/// export identical bytes.
pub fn trace_jsonl(artifacts: &RunArtifacts) -> String {
    let mut out = artifacts.net_trace_jsonl.clone();
    for span in &artifacts.spans {
        out.push_str(&span.to_json());
        out.push('\n');
    }
    out
}

/// Merges every summary's observability counters into one [`Registry`].
/// Exact merge: byte-identical however the summaries were sharded.
pub fn merged_registry(summaries: &[RunSummary]) -> Registry {
    let mut reg = Registry::new();
    for s in summaries {
        s.fill_registry(&mut reg);
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_experiment_traced, ExperimentSpec, Protocol};
    use crate::workload::GlobalPoisson;

    #[test]
    fn trace_jsonl_lines_all_parse() {
        let spec = ExperimentSpec::new(Protocol::Binary, 8, 300).with_seed(3);
        let mut wl = GlobalPoisson::new(10.0);
        let (summary, artifacts) = run_experiment_traced(&spec, &mut wl, TRACE_CAPACITY);
        assert!(summary.spans.closed > 0);
        assert!(!artifacts.spans.is_empty());
        let jsonl = trace_jsonl(&artifacts);
        let mut span_lines = 0;
        for line in jsonl.lines() {
            let v = atp_util::json::parse(line).expect("standalone JSON per line");
            if v.get("kind").and_then(|k| k.as_str()) == Some("span") {
                span_lines += 1;
            }
        }
        assert_eq!(span_lines as usize, artifacts.spans.len());
    }

    #[test]
    fn merged_registry_is_shard_order_exact() {
        let mk = |seed| {
            let spec = ExperimentSpec::new(Protocol::Binary, 8, 300).with_seed(seed);
            let mut wl = GlobalPoisson::new(10.0);
            crate::runner::run_experiment(&spec, &mut wl)
        };
        let a = mk(1);
        let b = mk(2);
        let ab = merged_registry(&[a.clone(), b.clone()]);
        let mut ba = Registry::new();
        b.fill_registry(&mut ba);
        a.fill_registry(&mut ba);
        assert_eq!(ab.to_json(), ba.to_json(), "merge is order-independent");
        assert!(ab.counter("run.requests") > 0);
    }
}
