//! Deterministic observability primitives: counters, gauges and
//! log-bucketed histograms with **exact merge**.
//!
//! The simulation plane runs as a grid of independent points fanned out
//! over a thread pool, so any run-level measurement must be mergeable
//! without loss: two shards that each recorded half of the samples have
//! to combine into exactly the state a single serial run would have
//! produced, or parallel sweeps stop being byte-identical. Everything
//! here merges by plain integer addition (plus min/max), which is
//! associative and commutative — the property tests in this module and
//! the sweep determinism suite both lean on that.
//!
//! [`LogHistogram`] uses HDR-style bucketing: values below
//! `1 << SUB_BUCKET_BITS` are exact; above that, each power-of-two range
//! splits into `1 << SUB_BUCKET_BITS` sub-buckets, bounding the relative
//! quantile error at `1 / 2^SUB_BUCKET_BITS` (~6%) while keeping the
//! bucket array small and summable. A histogram stores only the dense
//! prefix of that array, up to the bucket of its largest sample, so an
//! empty one allocates nothing and one whose samples stay below 1 000
//! holds 112 buckets at most, not all [`BUCKETS`].
//!
//! ```rust
//! use atp_util::metrics::{LogHistogram, Registry};
//!
//! let mut a = LogHistogram::new();
//! let mut b = LogHistogram::new();
//! a.record(3);
//! b.record(900);
//! a.merge(&b);
//! assert_eq!(a.count(), 2);
//! assert_eq!(a.min(), 3);
//!
//! let mut reg = Registry::new();
//! reg.counter_add("grants", 7);
//! reg.hist_record("wait_ticks", 12);
//! assert!(reg.to_json().contains("\"grants\":7"));
//! ```

use std::collections::BTreeMap;

use crate::json::JsonWriter;

/// Sub-bucket resolution: each power-of-two range splits into
/// `1 << SUB_BUCKET_BITS` buckets (~6% worst-case relative error).
pub const SUB_BUCKET_BITS: u32 = 4;

const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// The most buckets a histogram can hold: the `SUB_BUCKETS` exact low
/// values plus `SUB_BUCKETS` per power-of-two range above them. A
/// histogram holds the prefix up to its largest sample's bucket, so all of
/// them only once it has recorded a value in the top bucket.
pub const BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BUCKET_BITS as usize) * SUB_BUCKETS;

/// Maps a value to its bucket index. Total and monotone over `u64`.
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS as u64 {
        return v as usize;
    }
    // `msb >= SUB_BUCKET_BITS`; shifting by `msb - SUB_BUCKET_BITS`
    // keeps the top SUB_BUCKET_BITS+1 bits, so `v >> shift` lands in
    // [SUB_BUCKETS, 2*SUB_BUCKETS): SUB_BUCKETS sub-buckets per octave.
    let msb = 63 - v.leading_zeros();
    let shift = msb - SUB_BUCKET_BITS;
    let base = SUB_BUCKETS + (shift as usize) * SUB_BUCKETS;
    let offset = (v >> shift) as usize - SUB_BUCKETS;
    base + offset
}

/// The smallest value landing in bucket `i`.
fn bucket_low(i: usize) -> u64 {
    if i < SUB_BUCKETS {
        return i as u64;
    }
    let shift = ((i - SUB_BUCKETS) / SUB_BUCKETS) as u32;
    let offset = ((i - SUB_BUCKETS) % SUB_BUCKETS) as u64;
    (SUB_BUCKETS as u64 + offset) << shift
}

/// The largest value landing in bucket `i`.
fn bucket_high(i: usize) -> u64 {
    if i + 1 >= BUCKETS {
        return u64::MAX;
    }
    bucket_low(i + 1) - 1
}

/// A log-bucketed histogram of `u64` samples with exact merge.
///
/// Count, sum, min and max are tracked exactly; quantiles are read from
/// the bucket array with bounded relative error. Two histograms merge by
/// bucket-wise addition — associative, commutative, and identical to
/// having recorded all samples into one histogram, which is what keeps
/// parallel sweep shards byte-identical to serial runs.
///
/// The bucket array is the prefix up to the bucket of the largest sample:
/// `buckets.len() == bucket_index(max) + 1`, or 0 when nothing was
/// recorded. Its length is therefore a function of the samples, so the
/// derived `PartialEq` still means "recorded the same samples".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: Vec::new(),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        let i = bucket_index(v);
        if i >= self.buckets.len() {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
    }

    /// Exact merge: afterwards `self` equals a histogram that recorded
    /// both sample streams.
    pub fn merge(&mut self, other: &LogHistogram) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile as the upper bound of the bucket where the
    /// cumulative count first reaches `ceil(q * count)`, clamped to the
    /// exact min/max. 0 when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "q must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_high(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Iterates the non-empty buckets as `(low, high, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_low(i), bucket_high(i), c))
    }

    /// Writes the histogram as a JSON object value into `w`.
    ///
    /// The bucket array serializes sparsely (`[low, count]` pairs), so
    /// the document is compact and still merge-checkable byte-for-byte.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.key("count");
        w.u64(self.count);
        w.key("sum");
        w.f64(self.sum as f64);
        w.key("min");
        w.u64(self.min());
        w.key("max");
        w.u64(self.max);
        w.key("mean");
        w.f64(self.mean());
        w.key("p50");
        w.u64(self.quantile(0.50));
        w.key("p95");
        w.u64(self.quantile(0.95));
        w.key("p99");
        w.u64(self.quantile(0.99));
        w.key("buckets");
        w.begin_arr();
        for (low, _, c) in self.nonzero_buckets() {
            w.begin_arr();
            w.u64(low);
            w.u64(c);
            w.end_arr();
        }
        w.end_arr();
        w.end_obj();
    }
}

/// A named collection of counters, gauges and histograms.
///
/// Names are sorted (`BTreeMap`), so serialization order — and therefore
/// the emitted JSON — is independent of insertion order. Merging two
/// registries adds counters and bucket arrays and takes the max of
/// gauges; like [`LogHistogram::merge`] this is exact, so a sweep can
/// fold per-point registries in input order and obtain the same bytes at
/// any thread count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    hists: BTreeMap<String, LogHistogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the counter `name` (created at 0).
    pub fn counter_add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Reads counter `name` (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Raises gauge `name` to `v` if `v` is larger (high-water mark).
    pub fn gauge_max(&mut self, name: &str, v: i64) {
        let g = self.gauges.entry(name.to_string()).or_insert(i64::MIN);
        *g = (*g).max(v);
    }

    /// Reads gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// Records `v` into histogram `name` (created empty).
    pub fn hist_record(&mut self, name: &str, v: u64) {
        self.hists.entry(name.to_string()).or_default().record(v);
    }

    /// Merges a whole histogram into histogram `name` (exact bucket-wise
    /// add, same as recording every sample individually).
    pub fn hist_merge(&mut self, name: &str, h: &LogHistogram) {
        self.hists.entry(name.to_string()).or_default().merge(h);
    }

    /// The histogram `name`, if any samples were recorded.
    pub fn hist(&self, name: &str) -> Option<&LogHistogram> {
        self.hists.get(name)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Exact merge: counters add, gauges take the max (high-water
    /// semantics), histograms merge bucket-wise.
    pub fn merge(&mut self, other: &Registry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            let g = self.gauges.entry(k.clone()).or_insert(i64::MIN);
            *g = (*g).max(v);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Writes the registry as a JSON object value into `w`, names sorted.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.key("counters");
        w.begin_obj();
        for (k, v) in &self.counters {
            w.key(k);
            w.u64(*v);
        }
        w.end_obj();
        w.key("gauges");
        w.begin_obj();
        for (k, v) in &self.gauges {
            w.key(k);
            w.i64(*v);
        }
        w.end_obj();
        w.key("histograms");
        w.begin_obj();
        for (k, h) in &self.hists {
            w.key(k);
            h.write_json(w);
        }
        w.end_obj();
        w.end_obj();
    }

    /// The registry as a standalone JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{Check, Gen};
    use crate::rng::{Rng, RngCore, SeedableRng, StdRng};

    #[test]
    fn low_values_are_exact() {
        for v in 0..SUB_BUCKETS as u64 {
            let i = bucket_index(v);
            assert_eq!(bucket_low(i), v);
            assert_eq!(bucket_high(i), v);
        }
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        // Exhaustive around every power-of-two boundary plus extremes.
        let mut probes = vec![0u64, 1, u64::MAX, u64::MAX - 1];
        for p in SUB_BUCKET_BITS..64 {
            let b = 1u64 << p;
            probes.extend([b - 1, b, b + 1]);
        }
        for v in probes {
            let i = bucket_index(v);
            assert!(
                bucket_low(i) <= v && v <= bucket_high(i),
                "v={v} escaped bucket {i}: [{}, {}]",
                bucket_low(i),
                bucket_high(i)
            );
        }
    }

    #[test]
    fn bucket_index_is_monotone_at_boundaries() {
        for i in 0..BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_low(i)), i, "low of bucket {i}");
            assert_eq!(bucket_index(bucket_high(i)), i, "high of bucket {i}");
            assert_eq!(bucket_index(bucket_high(i) + 1), i + 1);
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..2000 {
            let v: u64 = rng.gen_range(0..u64::MAX / 2);
            let i = bucket_index(v);
            let width = bucket_high(i).saturating_sub(bucket_low(i));
            if v >= SUB_BUCKETS as u64 {
                assert!(
                    (width as f64) <= v as f64 / (SUB_BUCKETS / 2) as f64 + 1.0,
                    "bucket width {width} too wide for v={v}"
                );
            } else {
                assert_eq!(width, 0);
            }
        }
    }

    #[test]
    fn quantiles_track_exact_percentiles() {
        let mut h = LogHistogram::new();
        let mut samples: Vec<u64> = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5000 {
            let v: u64 = rng.gen_range(0..100_000);
            h.record(v);
            samples.push(v);
        }
        samples.sort_unstable();
        for q in [0.5, 0.95, 0.99] {
            let exact =
                samples[((q * samples.len() as f64).ceil() as usize - 1).min(samples.len() - 1)];
            let approx = h.quantile(q);
            let err = (approx as f64 - exact as f64).abs() / exact.max(1) as f64;
            assert!(err <= 0.08, "q={q}: approx {approx} vs exact {exact}");
        }
        assert_eq!(h.min(), samples[0]);
        assert_eq!(h.max(), *samples.last().unwrap());
    }

    #[test]
    fn merge_matches_serial_recording() {
        Check::new("hist_merge_equals_serial").cases(64).run(
            |g| {
                let a: Vec<u64> = g.vec(0..40, |g| g.gen_range(0..1u64 << 40));
                let b: Vec<u64> = g.vec(0..40, |g| g.gen_range(0..1u64 << 40));
                (a, b)
            },
            |(a, b)| {
                let mut serial = LogHistogram::new();
                for &v in a.iter().chain(b) {
                    serial.record(v);
                }
                let mut ha = LogHistogram::new();
                let mut hb = LogHistogram::new();
                a.iter().for_each(|&v| ha.record(v));
                b.iter().for_each(|&v| hb.record(v));
                ha.merge(&hb);
                assert_eq!(ha, serial, "merge differs from serial recording");
            },
        );
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        Check::new("hist_merge_laws").cases(64).run(
            |g| {
                let mk = |g: &mut crate::check::Gen| {
                    let mut h = LogHistogram::new();
                    for _ in 0..g.gen_range(0..20u64) {
                        h.record(g.gen_range(0..1u64 << 50));
                    }
                    h
                };
                let a = mk(g);
                let b = mk(g);
                let c = mk(g);
                (a, b, c)
            },
            |(a, b, c)| {
                // Commutativity: a ⊕ b == b ⊕ a.
                let mut ab = a.clone();
                ab.merge(b);
                let mut ba = b.clone();
                ba.merge(a);
                assert_eq!(ab, ba, "merge is not commutative");
                // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
                let mut left = ab.clone();
                left.merge(c);
                let mut bc = b.clone();
                bc.merge(c);
                let mut right = a.clone();
                right.merge(&bc);
                assert_eq!(left, right, "merge is not associative");
            },
        );
    }

    /// The layout every histogram had before it was sized: all `BUCKETS`
    /// buckets, whatever it recorded. The sized histogram must read the same
    /// as this one in every accessor and every serialised byte.
    struct Dense {
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
        buckets: Vec<u64>,
    }

    impl Dense {
        fn new() -> Self {
            Dense {
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
                buckets: vec![0; BUCKETS],
            }
        }

        fn record(&mut self, v: u64) {
            self.count += 1;
            self.sum += v as u128;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
            self.buckets[bucket_index(v)] += 1;
        }

        fn merge(&mut self, other: &Dense) {
            self.count += other.count;
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                *a += *b;
            }
        }

        fn min(&self) -> u64 {
            if self.count == 0 {
                0
            } else {
                self.min
            }
        }

        fn quantile(&self, q: f64) -> u64 {
            if self.count == 0 {
                return 0;
            }
            let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
            let mut seen = 0u64;
            for (i, &c) in self.buckets.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_high(i).clamp(self.min, self.max);
                }
            }
            self.max
        }

        fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
            (0..BUCKETS)
                .filter(|&i| self.buckets[i] > 0)
                .map(|i| (bucket_low(i), bucket_high(i), self.buckets[i]))
                .collect()
        }

        fn json(&self) -> String {
            let mut w = JsonWriter::new();
            w.begin_obj();
            w.key("count");
            w.u64(self.count);
            w.key("sum");
            w.f64(self.sum as f64);
            w.key("min");
            w.u64(self.min());
            w.key("max");
            w.u64(self.max);
            w.key("mean");
            w.f64(if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            });
            for (key, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                w.key(key);
                w.u64(self.quantile(q));
            }
            w.key("buckets");
            w.begin_arr();
            for (low, _, c) in self.nonzero_buckets() {
                w.begin_arr();
                w.u64(low);
                w.u64(c);
                w.end_arr();
            }
            w.end_arr();
            w.end_obj();
            w.finish()
        }
    }

    /// Asserts that `h` reads exactly as the dense `d` and holds the
    /// buckets up to its largest sample's, no more.
    fn assert_reads_as(h: &LogHistogram, d: &Dense, what: &str) {
        assert_eq!(h.count(), d.count, "{what}: count");
        assert_eq!(h.sum(), d.sum, "{what}: sum");
        assert_eq!(h.min(), d.min(), "{what}: min");
        assert_eq!(h.max(), d.max, "{what}: max");
        for k in 0..=40 {
            let q = k as f64 / 40.0;
            assert_eq!(h.quantile(q), d.quantile(q), "{what}: quantile({q})");
        }
        let nonzero: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(nonzero, d.nonzero_buckets(), "{what}: nonzero buckets");
        let mut w = JsonWriter::new();
        h.write_json(&mut w);
        assert_eq!(w.finish(), d.json(), "{what}: JSON bytes");
        let held = if d.count == 0 {
            0
        } else {
            bucket_index(d.max) + 1
        };
        assert_eq!(h.buckets.len(), held, "{what}: buckets held");
    }

    /// A sample that is often a bucket edge (0, the last exact value 15, the
    /// first sub-bucketed values 16 and 17, `u64::MAX`), else small or of a
    /// random magnitude.
    fn edgy_sample(g: &mut Gen) -> u64 {
        match g.gen_range(0..3u32) {
            0 => *g.pick(&[0, 15, 16, 17, u64::MAX]),
            1 => g.gen_range(0..1_000u64),
            _ => g.next_u64() >> g.gen_range(0..64u32),
        }
    }

    #[test]
    fn sized_histogram_reads_as_the_dense_one() {
        Check::new("hist_sized_equals_dense").cases(256).run(
            |g| {
                let a: Vec<u64> = g.vec(0..30, edgy_sample);
                let b: Vec<u64> = g.vec(0..30, edgy_sample);
                (a, b)
            },
            |(a, b)| {
                let (mut ha, mut hb, mut serial) = (
                    LogHistogram::new(),
                    LogHistogram::new(),
                    LogHistogram::new(),
                );
                let (mut da, mut db) = (Dense::new(), Dense::new());
                for &v in a {
                    ha.record(v);
                    da.record(v);
                    serial.record(v);
                }
                for &v in b {
                    hb.record(v);
                    db.record(v);
                    serial.record(v);
                }
                assert_reads_as(&ha, &da, "a");
                assert_reads_as(&hb, &db, "b");
                let mut dab = Dense::new();
                dab.merge(&da);
                dab.merge(&db);
                assert_reads_as(&serial, &dab, "recorded a then b");

                let mut ab = ha.clone();
                ab.merge(&hb);
                let mut ba = hb.clone();
                ba.merge(&ha);
                assert_reads_as(&ab, &dab, "a merged with b");
                assert_reads_as(&ba, &dab, "b merged with a");
                assert_eq!(ab, serial, "a ⊕ b differs from recording both");
                assert_eq!(ba, serial, "b ⊕ a differs from recording both");

                let mut empty_then_a = LogHistogram::new();
                empty_then_a.merge(&ha);
                let mut a_then_empty = ha.clone();
                a_then_empty.merge(&LogHistogram::new());
                assert_reads_as(&empty_then_a, &da, "empty merged with a");
                assert_reads_as(&a_then_empty, &da, "a merged with empty");
                assert_eq!(empty_then_a, ha, "empty ⊕ a differs from a");
                assert_eq!(a_then_empty, ha, "a ⊕ empty differs from a");
            },
        );
    }

    #[test]
    fn registry_merges_and_serializes_deterministically() {
        let mut a = Registry::new();
        a.counter_add("grants", 2);
        a.gauge_max("peak_traps", 5);
        a.hist_record("wait", 10);
        let mut b = Registry::new();
        b.counter_add("grants", 3);
        b.counter_add("requests", 1);
        b.gauge_max("peak_traps", 9);
        b.hist_record("wait", 20);

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.to_json(), ba.to_json(), "registry merge not commutative");
        assert_eq!(ab.counter("grants"), 5);
        assert_eq!(ab.counter("requests"), 1);
        assert_eq!(ab.gauge("peak_traps"), Some(9));
        assert_eq!(ab.hist("wait").unwrap().count(), 2);
        // Insertion order does not leak into the document.
        let mut c = Registry::new();
        c.counter_add("z", 1);
        c.counter_add("a", 1);
        let json = c.to_json();
        assert!(json.find("\"a\"").unwrap() < json.find("\"z\"").unwrap());
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = LogHistogram::new();
        assert_eq!(h.buckets.capacity(), 0, "an empty histogram allocates");
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
        let mut w = JsonWriter::new();
        h.write_json(&mut w);
        assert!(w.finish().contains("\"count\":0"));
    }

    #[test]
    #[should_panic(expected = "q must be in")]
    fn quantile_rejects_bad_q() {
        LogHistogram::new().quantile(1.5);
    }
}
