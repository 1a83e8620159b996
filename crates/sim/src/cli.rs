//! The flag parser of the `atp` binary.
//!
//! Each command declares its flags **once** as a [`Parser`] spec, and the
//! usage string, the unknown-flag diagnostics and the value parsing are
//! all generated from that single declaration, so usage and parser cannot
//! disagree. A flag a command does not declare is a usage error, never
//! silently ignored.
//!
//! ```rust
//! use atp_sim::cli::Parser;
//!
//! let parser = Parser::new("demo")
//!     .flag("--n", "N", "ring size")
//!     .switch("--quick", "smaller sweep");
//! let m = parser
//!     .parse(vec!["--n".into(), "12".into(), "--quick".into()])
//!     .unwrap();
//! assert_eq!(m.get_num("--n", 8usize).unwrap(), 12);
//! assert!(m.has("--quick"));
//! assert!(parser.usage().contains("[--n N]"));
//! ```

use crate::obs::ObsArgs;
use crate::runner::Protocol;
use crate::shard::KeyDist;

/// One declared flag: its name, an optional value metavariable, and a
/// help line. The usage string is rendered from these.
#[derive(Debug, Clone, Copy)]
struct Spec {
    name: &'static str,
    metavar: Option<&'static str>,
    help: &'static str,
}

/// A declarative flag parser; construct with [`Parser::new`], declare
/// flags with [`Parser::flag`] / [`Parser::switch`], then [`Parser::parse`].
#[derive(Debug, Clone)]
pub struct Parser {
    prog: &'static str,
    specs: Vec<Spec>,
}

impl Parser {
    /// A parser for the `atp` command named `prog`. `--help`/`-h` are
    /// built in: they print the generated usage and exit 0.
    pub fn new(prog: &'static str) -> Self {
        Parser {
            prog,
            specs: Vec::new(),
        }
    }

    /// Declares a flag that takes a value, e.g. `--n N`.
    pub fn flag(mut self, name: &'static str, metavar: &'static str, help: &'static str) -> Self {
        self.specs.push(Spec {
            name,
            metavar: Some(metavar),
            help,
        });
        self
    }

    /// Declares a bare switch, e.g. `--conform`.
    pub fn switch(mut self, name: &'static str, help: &'static str) -> Self {
        self.specs.push(Spec {
            name,
            metavar: None,
            help,
        });
        self
    }

    /// Declares the sharded-plane flags every shard-aware command shares:
    /// `--shards K` and `--key-dist uniform|zipf`.
    pub fn shard_flags(self) -> Self {
        self.flag("--shards", "K", "number of independent token shards")
            .flag(
                "--key-dist",
                "uniform|zipf",
                "key popularity distribution for key-addressed requests",
            )
    }

    /// Declares the observability flags (see [`crate::obs`]), read back
    /// with [`Matches::obs`]: `--trace-out`, `--chrome-out` and
    /// `--metrics-out`.
    pub fn obs_flags(self) -> Self {
        self.flag("--trace-out", "FILE", "write the traced run as JSON lines")
            .flag(
                "--chrome-out",
                "FILE",
                "write its spans as a chrome://tracing document",
            )
            .flag(
                "--metrics-out",
                "FILE",
                "write the merged metrics registry as JSON",
            )
    }

    /// The generated usage string — the only one there is, so it cannot
    /// drift from the accepted flags.
    pub fn usage(&self) -> String {
        let mut s = format!("usage: atp {}", self.prog);
        for spec in &self.specs {
            match spec.metavar {
                Some(mv) => s.push_str(&format!(" [{} {}]", spec.name, mv)),
                None => s.push_str(&format!(" [{}]", spec.name)),
            }
        }
        s.push('\n');
        for spec in &self.specs {
            let head = match spec.metavar {
                Some(mv) => format!("{} {}", spec.name, mv),
                None => spec.name.to_string(),
            };
            s.push_str(&format!("  {head:<28} {}\n", spec.help));
        }
        s
    }

    /// Parses `argv` (program name already stripped) against the declared
    /// flags. Repeated value flags keep the last occurrence.
    ///
    /// # Errors
    ///
    /// Unknown flags and missing values produce a one-line message.
    pub fn parse(&self, argv: Vec<String>) -> Result<Matches, String> {
        let mut m = Matches {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                print!("{}", self.usage());
                std::process::exit(0);
            }
            let Some(spec) = self.specs.iter().find(|s| s.name == arg) else {
                return Err(format!("unknown flag {arg:?} (try --help)"));
            };
            match spec.metavar {
                Some(_) => {
                    let v = it.next().ok_or_else(|| format!("{arg} expects a value"))?;
                    m.values.retain(|(n, _)| n != &arg);
                    m.values.push((arg, v));
                }
                None => m.switches.push(arg),
            }
        }
        Ok(m)
    }
}

/// Parsed flag values, read back with typed accessors.
#[derive(Debug, Clone)]
pub struct Matches {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Matches {
    /// The raw value of a flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether a switch was given.
    pub fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// A numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Reports the flag name and offending value on parse failure.
    pub fn get_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("{name} expects a number, got {v:?}")),
        }
    }

    /// A count or a size: a numeric flag that must be at least 1.
    ///
    /// # Errors
    ///
    /// As [`Matches::get_num`], and on zero.
    pub fn get_positive<T>(&self, name: &str, default: T) -> Result<T, String>
    where
        T: std::str::FromStr + Default + PartialEq,
    {
        let v = self.get_num(name, default)?;
        if v == T::default() {
            return Err(format!("{name} must be at least 1"));
        }
        Ok(v)
    }

    /// The observability flags (see [`Parser::obs_flags`]).
    pub fn obs(&self) -> ObsArgs {
        let path = |name| self.get(name).map(str::to_string);
        ObsArgs {
            trace_out: path("--trace-out"),
            chrome_out: path("--chrome-out"),
            metrics_out: path("--metrics-out"),
        }
    }

    /// The `--protocol` flag, through [`Protocol::from_label`] — the one
    /// canonical label parser.
    ///
    /// # Errors
    ///
    /// Lists the valid labels on an unknown protocol.
    pub fn protocol(&self, default: Protocol) -> Result<Protocol, String> {
        match self.get("--protocol") {
            None => Ok(default),
            Some(label) => Protocol::from_label(label).ok_or_else(|| {
                format!(
                    "--protocol: unknown '{label}' (expected one of: {})",
                    Protocol::ALL.map(|p| p.label()).join(", ")
                )
            }),
        }
    }

    /// The `--shards` flag (see [`Parser::shard_flags`]).
    ///
    /// # Errors
    ///
    /// Rejects non-numeric and zero shard counts.
    pub fn shards(&self, default: u16) -> Result<u16, String> {
        self.get_positive("--shards", default)
    }

    /// The `--key-dist` flag (see [`Parser::shard_flags`]).
    ///
    /// # Errors
    ///
    /// Rejects anything other than `uniform` or `zipf`.
    pub fn key_dist(&self, default: KeyDist) -> Result<KeyDist, String> {
        match self.get("--key-dist") {
            None => Ok(default),
            Some(label) => KeyDist::from_label(label)
                .ok_or_else(|| format!("--key-dist: unknown '{label}' (uniform|zipf)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parser() -> Parser {
        Parser::new("t")
            .flag("--n", "N", "size")
            .flag("--protocol", "ring|search|binary|naimi", "protocol")
            .switch("--quick", "fast mode")
            .shard_flags()
    }

    #[test]
    fn parses_values_switches_and_defaults() {
        let m = parser()
            .parse(vec![
                "--n".into(),
                "5".into(),
                "--quick".into(),
                "--shards".into(),
                "4".into(),
            ])
            .unwrap();
        assert_eq!(m.get_num("--n", 0usize).unwrap(), 5);
        assert!(m.has("--quick"));
        assert_eq!(m.shards(1).unwrap(), 4);
        assert_eq!(m.get_num("--seed", 7u64).unwrap_or(0), 7, "default");
        assert_eq!(m.key_dist(KeyDist::Uniform).unwrap(), KeyDist::Uniform);
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parser().parse(vec!["--bogus".into()]).is_err());
        assert!(parser().parse(vec!["--n".into()]).is_err(), "missing value");
        let m = parser().parse(vec!["--n".into(), "x".into()]).unwrap();
        assert!(m.get_num("--n", 0usize).is_err());
        let m = parser().parse(vec!["--shards".into(), "0".into()]).unwrap();
        assert!(m.shards(1).is_err());
    }

    #[test]
    fn protocol_goes_through_canonical_labels() {
        let m = parser()
            .parse(vec!["--protocol".into(), "naimi".into()])
            .unwrap();
        assert_eq!(m.protocol(Protocol::Binary).unwrap(), Protocol::Naimi);
        let m = parser()
            .parse(vec!["--protocol".into(), "paxos".into()])
            .unwrap();
        let err = m.protocol(Protocol::Binary).unwrap_err();
        assert!(err.contains("ring, search, binary, naimi"), "{err}");
    }

    #[test]
    fn usage_is_generated_from_the_specs() {
        let u = parser().usage();
        for frag in [
            "[--n N]",
            "[--quick]",
            "[--shards K]",
            "[--key-dist uniform|zipf]",
        ] {
            assert!(u.contains(frag), "usage missing {frag}: {u}");
        }
    }

    #[test]
    fn repeated_value_flags_keep_the_last() {
        let m = parser()
            .parse(vec!["--n".into(), "3".into(), "--n".into(), "9".into()])
            .unwrap();
        assert_eq!(m.get_num("--n", 0usize).unwrap(), 9);
    }
}
