//! Distributions used by the simulator's workload generators.
//!
//! All draws consume a [`crate::rng::RngCore`], so every distribution is
//! deterministic under a fixed seed.

use crate::rng::{unit_f64, RngCore};

/// A uniform draw in `[0, 1)` that is never exactly zero, so `ln()` is
/// finite. Matches the `f64::EPSILON..1.0` convention the workload
/// generators used historically.
#[inline]
pub fn open_unit(rng: &mut dyn RngCore) -> f64 {
    unit_f64(rng.next_u64()).max(f64::EPSILON)
}

/// Exponential variate with the given mean (inverse-CDF method).
///
/// This is the inter-arrival gap of a Poisson process with rate
/// `1.0 / mean`.
pub fn exponential(rng: &mut dyn RngCore, mean: f64) -> f64 {
    assert!(mean > 0.0, "exponential: mean={mean} must be positive");
    -mean * open_unit(rng).ln()
}

/// Zipf-distributed rank in `0..n` with exponent `s` (inverse-CDF over
/// the exact normalized mass function).
///
/// Rank 0 is the hottest item. `s = 0` degenerates to uniform; `s ≈ 1`
/// is the classic web-caching skew. Runtime is `O(n)` per draw — fine
/// for the small `n` (key-universe buckets, shard counts) the workload
/// generators use.
pub fn zipf(rng: &mut dyn RngCore, n: usize, s: f64) -> usize {
    assert!(n > 0, "zipf: n must be positive");
    assert!(s >= 0.0, "zipf: exponent s={s} must be non-negative");
    let norm: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
    let mut u = unit_f64(rng.next_u64()) * norm;
    for k in 1..=n {
        u -= 1.0 / (k as f64).powf(s);
        if u <= 0.0 {
            return k - 1;
        }
    }
    n - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{SeedableRng, StdRng};

    #[test]
    fn exponential_mean_converges() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| exponential(&mut rng, 4.0)).sum();
        let mean = sum / n as f64;
        assert!((3.8..4.2).contains(&mean), "mean={mean}");
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = StdRng::seed_from_u64(15);
        let n = 16;
        let mut counts = vec![0u32; n];
        for _ in 0..20_000 {
            counts[zipf(&mut rng, n, 1.0)] += 1;
        }
        assert!(
            counts[0] > counts[n - 1] * 4,
            "rank 0 must dominate: {counts:?}"
        );
        assert!(counts.iter().all(|&c| c > 0), "every rank reachable");
        // s = 0 is uniform: the head cannot dominate.
        let mut flat = vec![0u32; n];
        for _ in 0..20_000 {
            flat[zipf(&mut rng, n, 0.0)] += 1;
        }
        let (min, max) = (flat.iter().min().unwrap(), flat.iter().max().unwrap());
        assert!(max - min < 20_000 / n as u32, "uniform-ish: {flat:?}");
    }
}
