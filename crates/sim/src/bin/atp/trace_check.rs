//! `atp trace_check FILE`: validates a JSON-lines trace artifact
//! (`--trace-out` output).
//!
//! Every line must parse as a standalone JSON object with a string `kind`
//! field; the per-kind counts are printed so CI can eyeball coverage.
//! Exit status: `0` valid, `1` malformed, `2` usage/IO error.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::Job;

/// Takes exactly one argument, the file.
pub fn parse(argv: Vec<String>) -> Result<Job, String> {
    match <[String; 1]>::try_from(argv) {
        Ok([path]) if !path.starts_with('-') => Ok(Box::new(move || check(&path))),
        _ => Err("usage: atp trace_check FILE".into()),
    }
}

fn check(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("trace_check: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    let mut lines = 0u64;
    for (i, line) in text.lines().enumerate() {
        lines += 1;
        let v = match atp_util::json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("trace_check: {path}:{}: bad JSON: {e}", i + 1);
                return ExitCode::from(1);
            }
        };
        let Some(kind) = v.get("kind").and_then(|k| k.as_str()) else {
            eprintln!("trace_check: {path}:{}: missing string field 'kind'", i + 1);
            return ExitCode::from(1);
        };
        *kinds.entry(kind.to_string()).or_default() += 1;
    }
    if lines == 0 {
        eprintln!("trace_check: {path}: empty trace");
        return ExitCode::from(1);
    }
    print!("trace_check: {path}: {lines} line(s) ok —");
    for (kind, count) in &kinds {
        print!(" {kind}:{count}");
    }
    println!();
    ExitCode::SUCCESS
}
