//! A seeded property-testing harness with regression replay and shrinking.
//!
//! Replaces `proptest` for this workspace. A property is a plain
//! panicking closure over a generated value; the harness runs it for a
//! configurable number of seeded cases, and on failure shrinks the
//! counterexample before reporting.
//!
//! ## Model
//!
//! Generation is *tape-based* (the technique Hypothesis popularised):
//! the generator draws `u64`s from a [`Gen`], and every draw is recorded
//! on a tape. Shrinking never manipulates your data structure directly —
//! it edits the tape (deleting chunks, zeroing and halving entries) and
//! re-runs your generator over the edited tape, with exhausted reads
//! returning 0. Because the value is always rebuilt by your own
//! generator, shrunk values are valid by construction: no separate
//! shrinker per type, and `Vec` lengths, index ranges, and cross-field
//! invariants all hold automatically.
//!
//! ## Reproducibility
//!
//! Each case's seed is derived deterministically from a base seed (by
//! default a hash of the property name, so suites are stable run to
//! run). When a case fails, the harness prints its seed; checking in
//! `.regression(seed)` replays that exact case first on every future
//! run, which is how former `proptest-regressions` files are encoded as
//! code.
//!
//! ```
//! use atp_util::check::Check;
//! use atp_util::rng::Rng;
//!
//! Check::new("addition_commutes").cases(32).run(
//!     |g| (g.gen_range(0..1000u64), g.gen_range(0..1000u64)),
//!     |&(a, b)| assert_eq!(a + b, b + a),
//! );
//! ```
//!
//! Environment overrides: `ATP_CHECK_CASES` forces the case count for
//! every suite (useful for a long fuzzing soak), `ATP_CHECK_SEED`
//! overrides the base seed.

use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

use crate::rng::{RngCore, SeedableRng, SplitMix64, StdRng};

/// Random-value source handed to generators. Records every draw on a
/// tape so the harness can shrink by editing and replaying the tape.
///
/// `Gen` implements [`RngCore`], so the whole [`crate::rng::Rng`]
/// surface (`gen_range`, `gen_bool`) is available on it.
pub struct Gen {
    rng: StdRng,
    replay: Option<Vec<u64>>,
    pos: usize,
    tape: Vec<u64>,
}

impl Gen {
    /// A generator drawing fresh randomness from `seed`. Every draw is
    /// recorded; [`Gen::tape`] exposes the record for later replay.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            replay: None,
            pos: 0,
            tape: Vec::new(),
        }
    }

    /// A generator replaying `tape`; draws past the end return 0. This is
    /// how shrunk counterexamples are rebuilt and how external harnesses
    /// (e.g. the DST explorer) replay serialized `.tape` files.
    pub fn from_tape(tape: Vec<u64>) -> Self {
        Self {
            rng: StdRng::seed_from_u64(0),
            replay: Some(tape),
            pos: 0,
            tape: Vec::new(),
        }
    }

    fn live(seed: u64) -> Self {
        Self::from_seed(seed)
    }

    fn replaying(tape: Vec<u64>) -> Self {
        Self::from_tape(tape)
    }

    /// The draws consumed so far, in order. Replaying this exact tape with
    /// [`Gen::from_tape`] rebuilds the identical value.
    pub fn tape(&self) -> &[u64] {
        &self.tape
    }

    fn draw(&mut self) -> u64 {
        let raw = match &self.replay {
            Some(t) => t.get(self.pos).copied().unwrap_or(0),
            None => self.rng.next_u64(),
        };
        self.pos += 1;
        self.tape.push(raw);
        raw
    }

    /// A vector whose length is drawn from `len_range` and whose
    /// elements come from `f`.
    pub fn vec<T>(
        &mut self,
        len_range: std::ops::Range<usize>,
        mut f: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        use crate::rng::Rng;
        let len = self.gen_range(len_range);
        (0..len).map(|_| f(self)).collect()
    }

    /// A uniformly chosen reference into a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        use crate::rng::Rng;
        assert!(!items.is_empty(), "Gen::pick: empty slice");
        let i = self.gen_range(0..items.len());
        &items[i]
    }
}

impl RngCore for Gen {
    fn next_u64(&mut self) -> u64 {
        self.draw()
    }
}

/// Builder for one property check.
pub struct Check {
    name: String,
    cases: u32,
    base_seed: u64,
    regressions: Vec<u64>,
    max_shrink_iters: u32,
}

/// FNV-1a, used to derive a stable per-property default base seed.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Check {
    /// New check named `name` (shown in failure reports; also seeds the
    /// default case stream).
    pub fn new(name: &str) -> Self {
        let base_seed = match std::env::var("ATP_CHECK_SEED") {
            Ok(v) => v.parse().unwrap_or_else(|_| fnv1a(name)),
            Err(_) => fnv1a(name),
        };
        Self {
            name: name.to_string(),
            cases: 64,
            base_seed,
            regressions: Vec::new(),
            max_shrink_iters: 500,
        }
    }

    /// Number of random cases to run (default 64; `ATP_CHECK_CASES`
    /// overrides for every suite).
    pub fn cases(mut self, n: u32) -> Self {
        self.cases = n;
        self
    }

    /// Override the base seed (default: hash of the property name).
    pub fn seed(mut self, s: u64) -> Self {
        self.base_seed = s;
        self
    }

    /// Replay a previously failing case seed before the random cases.
    /// This is the checked-in form of a proptest regressions file.
    pub fn regression(mut self, seed: u64) -> Self {
        self.regressions.push(seed);
        self
    }

    /// Cap on shrink candidate evaluations (default 500).
    pub fn max_shrink_iters(mut self, n: u32) -> Self {
        self.max_shrink_iters = n;
        self
    }

    /// Run the property: for each case, build a value with `gen` and
    /// apply `prop` (which fails by panicking, so plain `assert!` /
    /// `assert_eq!` work). Panics with a shrunk counterexample report on
    /// the first failing case.
    pub fn run<T, G, P>(self, gen: G, prop: P)
    where
        T: Debug,
        G: Fn(&mut Gen) -> T,
        P: Fn(&T),
    {
        let cases = match std::env::var("ATP_CHECK_CASES") {
            Ok(v) => v.parse().unwrap_or(self.cases),
            Err(_) => self.cases,
        };

        // Regression seeds first: a checked-in counterexample must stay
        // fixed forever, so it is always cheap to re-verify.
        let mut seeds: Vec<(u64, bool)> = self.regressions.iter().map(|&s| (s, true)).collect();
        let mut sm = SplitMix64::new(self.base_seed);
        seeds.extend((0..cases).map(|_| (sm.next_u64(), false)));

        for (case_seed, is_regression) in seeds {
            let mut g = Gen::live(case_seed);
            let value = gen(&mut g);
            let tape = std::mem::take(&mut g.tape);
            if let Err(msg) = run_prop(&prop, &value) {
                let (min_tape, iters) = self.shrink(tape, &gen, &prop);
                let mut rg = Gen::replaying(min_tape);
                let min_value = gen(&mut rg);
                let kind = if is_regression { "regression" } else { "case" };
                panic!(
                    "[check] property '{}' failed ({kind} seed {case_seed:#x})\n\
                     original failure: {msg}\n\
                     minimal counterexample (after {iters} shrink steps):\n  {min_value:#?}\n\
                     replay: add `.regression({case_seed:#x})` to this Check",
                    self.name
                );
            }
        }
    }

    /// Shrink `tape` to a smaller one whose generated value still fails
    /// `prop`. Returns the best tape and the number of candidates tried.
    fn shrink<T, G, P>(&self, tape: Vec<u64>, gen: &G, prop: &P) -> (Vec<u64>, u32)
    where
        T: Debug,
        G: Fn(&mut Gen) -> T,
        P: Fn(&T),
    {
        // Re-running the property hundreds of times while shrinking
        // would spray panic messages; silence the hook for the duration.
        let _quiet = silence_panics();
        shrink_tape(tape, self.max_shrink_iters, |cand| {
            let mut g = Gen::replaying(cand.to_vec());
            // The generator itself may panic on a mangled tape (e.g. a
            // helper asserting its own invariant); that candidate is
            // simply invalid, not a property failure.
            let value = panic::catch_unwind(AssertUnwindSafe(|| gen(&mut g))).ok()?;
            if run_prop(prop, &value).is_err() {
                Some(g.tape)
            } else {
                None
            }
        })
    }
}

/// Shrinks a draw tape to a smaller one that still fails, by chunk deletion
/// and per-draw descent toward zero.
///
/// `still_fails` rebuilds a value from a candidate tape and returns
/// `Some(consumed_tape)` if that value still exhibits the failure (the
/// consumed tape may be shorter than the candidate when the rebuilt value
/// needed fewer draws), or `None` if the candidate passes or is invalid.
///
/// A candidate is accepted only if its consumed tape is *strictly smaller*
/// than the current best in (length, lexicographic) order — a well-founded
/// descent, so shrinking terminates even without the `max_iters` cap.
/// Returns the best tape and the number of candidates evaluated.
///
/// [`Check`] shrinks through this; external harnesses with non-panicking
/// failure evaluation (e.g. the DST schedule explorer in `atp-sim`) reuse it
/// directly.
pub fn shrink_tape(
    tape: Vec<u64>,
    max_iters: u32,
    mut still_fails: impl FnMut(&[u64]) -> Option<Vec<u64>>,
) -> (Vec<u64>, u32) {
    let mut best = tape;
    let mut iters = 0u32;

    // Evaluate a candidate tape: Some(tape-as-consumed) if the rebuilt
    // value still fails AND the consumed tape is strictly smaller than
    // `best`.
    let mut accepts = |cand: &[u64], best: &[u64], iters: &mut u32| -> Option<Vec<u64>> {
        if *iters >= max_iters {
            return None;
        }
        *iters += 1;
        let used = still_fails(cand)?;
        let smaller =
            used.len() < best.len() || (used.len() == best.len() && used.as_slice() < best);
        if smaller {
            Some(used)
        } else {
            None
        }
    };

    let mut improved = true;
    while improved && iters < max_iters {
        improved = false;

        // Pass 1: delete chunks of draws, largest first. This is
        // what removes whole elements from generated vectors.
        for size in [8usize, 4, 2, 1] {
            let mut i = 0;
            while i + size <= best.len() && iters < max_iters {
                let mut cand = best.clone();
                cand.drain(i..i + size);
                if let Some(used) = accepts(&cand, &best, &mut iters) {
                    best = used;
                    improved = true;
                    // Same index now holds the next chunk.
                } else {
                    i += 1;
                }
            }
        }

        // Pass 2: shrink individual draws toward zero. Zero is tried
        // first; otherwise binary-descend between the largest known
        // passing value and the smallest known failing one, which
        // lands exactly on threshold counterexamples.
        for i in 0..best.len() {
            // An accepted candidate's consumed tape can be *shorter* than
            // the one it replaced (the rebuilt value needed fewer draws),
            // so re-check the index on every iteration.
            if iters >= max_iters || i >= best.len() {
                break;
            }
            let orig = best[i];
            if orig == 0 {
                continue;
            }
            let mut cand = best.clone();
            cand[i] = 0;
            if let Some(used) = accepts(&cand, &best, &mut iters) {
                best = used;
                improved = true;
                continue;
            }
            let (mut lo, mut hi) = (0u64, orig);
            while lo + 1 < hi && iters < max_iters {
                let mid = lo + (hi - lo) / 2;
                let mut cand = best.clone();
                if i >= cand.len() {
                    break;
                }
                cand[i] = mid;
                if let Some(used) = accepts(&cand, &best, &mut iters) {
                    best = used;
                    improved = true;
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
        }
    }
    (best, iters)
}

fn run_prop<T>(prop: impl Fn(&T), value: &T) -> Result<(), String> {
    match panic::catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(()) => Ok(()),
        Err(payload) => Err(payload_message(payload.as_ref())),
    }
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

// ---- panic-hook silencing ------------------------------------------------
//
// During shrinking the property is expected to panic hundreds of times;
// the default hook would print a backtrace line for each. A process-wide
// hook (installed once) delegates to the original unless the current
// thread has opted into silence.

thread_local! {
    static SILENCED: AtomicBool = const { AtomicBool::new(false) };
}

static INSTALL: Once = Once::new();

fn silence_panics() -> impl Drop {
    INSTALL.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let quiet = SILENCED.with(|s| s.load(Ordering::Relaxed));
            if !quiet {
                prev(info);
            }
        }));
    });
    SILENCED.with(|s| s.store(true, Ordering::Relaxed));
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            SILENCED.with(|s| s.store(false, Ordering::Relaxed));
        }
    }
    Guard
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn passing_property_runs_all_cases() {
        Check::new("sum_bounded").cases(50).run(
            |g| g.vec(0..10, |g| g.gen_range(0..100u64)),
            |v| assert!(v.iter().sum::<u64>() <= 100 * v.len() as u64),
        );
    }

    #[test]
    fn failing_property_is_reported_and_shrunk() {
        let result = panic::catch_unwind(|| {
            Check::new("finds_big_values").cases(200).run(
                |g| g.gen_range(0..1000u64),
                |&v| assert!(v < 500, "value too big"),
            );
        });
        let msg = payload_message(result.expect_err("property must fail").as_ref());
        assert!(
            msg.contains("finds_big_values"),
            "report names the property: {msg}"
        );
        assert!(msg.contains("replay"), "report offers a replay seed: {msg}");
        // Shrinking toward zero must land exactly on the boundary.
        assert!(
            msg.contains("500"),
            "counterexample should shrink to 500: {msg}"
        );
    }

    #[test]
    fn vec_counterexamples_shrink_small() {
        let result = panic::catch_unwind(|| {
            Check::new("no_vec_sums_over_100").cases(200).run(
                |g| g.vec(0..20, |g| g.gen_range(0..50u64)),
                |v| assert!(v.iter().sum::<u64>() <= 100),
            );
        });
        let msg = payload_message(result.expect_err("property must fail").as_ref());
        // The minimal failing vector for sum>100 with elements <50 needs
        // exactly 3 elements; shrinking must not report a 20-element one.
        let elems = msg
            .lines()
            .skip_while(|l| !l.contains("minimal counterexample"))
            .filter(|l| l.trim().ends_with(','))
            .count();
        assert!(elems <= 8, "expected a small shrunk vec, got: {msg}");
    }

    #[test]
    fn regression_seed_replays_identical_value() {
        let seed = 0xDEAD_BEEF_u64;
        let v1 = {
            let mut g = Gen::live(seed);
            g.vec(1..10, |g| g.gen_range(0..1_000_000u64))
        };
        let v2 = {
            let mut g = Gen::live(seed);
            g.vec(1..10, |g| g.gen_range(0..1_000_000u64))
        };
        assert_eq!(v1, v2);
    }

    #[test]
    fn replay_with_zero_tape_yields_minimal_draws() {
        let mut g = Gen::replaying(vec![]);
        assert_eq!(g.gen_range(5..100u64), 5);
        // A zero tape draws the word 0, and `unit_f64(0) == 0.0`, which is
        // below any positive `p` and not below 0.
        assert!(g.gen_bool(0.5));
        assert!(!g.gen_bool(0.0));
    }

    #[test]
    fn pick_returns_element_from_slice() {
        let items = [10, 20, 30];
        let mut g = Gen::live(1);
        for _ in 0..50 {
            assert!(items.contains(g.pick(&items)));
        }
    }
}
