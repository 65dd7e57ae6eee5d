//! Counters, gauges, log-linear histograms, and the registry that owns
//! them.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc`-backed
//! clones over atomics: instrumented code looks a metric up once, stores
//! the handle, and updates it lock-free on the hot path. The
//! [`MetricRegistry`] itself is only locked on registration and
//! exposition.
//!
//! Histograms use log-linear buckets (16 linear sub-buckets per power of
//! two, the HdrHistogram layout): relative bucket width is bounded by
//! 1/16 ≈ 6.25 %, so any quantile estimate is within one bucket width of
//! the true order statistic while the whole `u64` range fits in 976
//! buckets.

use crate::expose::{CounterSample, GaugeSample, HistogramSample, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sub-bucket resolution: each power-of-two octave splits into
/// `2^SUB_BITS` linear buckets.
const SUB_BITS: u32 = 4;
const SUBS: u64 = 1 << SUB_BITS; // 16

/// Total bucket count covering all of `u64`: 16 linear buckets below 16,
/// then 16 per octave for octaves 4..=63.
pub const NUM_BUCKETS: usize = (SUBS + (64 - SUB_BITS as u64) * SUBS) as usize;

/// Bucket index for a value (monotone in `v`).
pub(crate) fn bucket_index(v: u64) -> usize {
    if v < SUBS {
        v as usize
    } else {
        let o = 63 - v.leading_zeros(); // o >= SUB_BITS
        let shift = o - SUB_BITS;
        ((o - SUB_BITS) as u64 * SUBS + (v >> shift)) as usize
    }
}

/// Inclusive `(lo, hi)` value range of a bucket.
pub(crate) fn bucket_bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUBS {
        (idx, idx)
    } else {
        let q = idx - SUBS;
        let octave = SUB_BITS + (q / SUBS) as u32;
        let m = SUBS + q % SUBS;
        let shift = octave - SUB_BITS;
        let lo = m << shift;
        let hi = lo + ((1u64 << shift) - 1);
        (lo, hi)
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A detached counter (not owned by any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// A detached gauge (not owned by any registry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtract one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A log-linear-bucket histogram of `u64` samples (typically latencies
/// in nanoseconds or microseconds). Quantile queries are accurate to one
/// bucket width (≤ 1/16 of the value, or ±1 below 16).
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A detached histogram (not owned by any registry).
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, AtomicU64::default);
        Histogram {
            core: Arc::new(HistogramCore {
                buckets,
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        let c = &self.core;
        c.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c.count.fetch_add(1, Ordering::Relaxed);
        c.sum.fetch_add(v, Ordering::Relaxed);
        c.min.fetch_min(v, Ordering::Relaxed);
        c.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.core.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        let v = self.core.min.load(Ordering::Relaxed);
        if v == u64::MAX {
            0
        } else {
            v
        }
    }

    /// Largest recorded sample (0 when empty; exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.core.max.load(Ordering::Relaxed)
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimate of the `q`-quantile (`0.0 ..= 1.0`): the lower bound of
    /// the bucket holding the order statistic of rank `ceil(q·n)`,
    /// clamped to the exact recorded min/max. The true quantile lies in
    /// the same bucket, so the error is at most one bucket width.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (idx, &n) in counts.iter().enumerate() {
            cum += n;
            if cum >= rank {
                let (lo, _) = bucket_bounds(idx);
                return lo.max(self.min()).min(self.max());
            }
        }
        self.max()
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Fold another histogram's samples into this one (bucket-wise adds;
    /// min/max tighten). Used to aggregate per-shard histograms into a
    /// fleet-wide view; merging is commutative, so the merged result does
    /// not depend on shard order.
    pub fn merge_from(&self, other: &Histogram) {
        if Arc::ptr_eq(&self.core, &other.core) {
            return; // same underlying histogram: nothing to fold in
        }
        let c = &self.core;
        let o = &other.core;
        for (dst, src) in c.buckets.iter().zip(o.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        let n = o.count.load(Ordering::Relaxed);
        if n == 0 {
            return;
        }
        c.count.fetch_add(n, Ordering::Relaxed);
        c.sum
            .fetch_add(o.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        c.min
            .fetch_min(o.min.load(Ordering::Relaxed), Ordering::Relaxed);
        c.max
            .fetch_max(o.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Non-empty buckets as `(inclusive_upper_bound, cumulative_count)`
    /// pairs, in increasing bound order — the Prometheus `le` series.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, b) in self.core.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                cum += n;
                out.push((bucket_bounds(idx).1, cum));
            }
        }
        out
    }
}

/// A metric's identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Metric name (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| {
                assert!(valid_name(k), "invalid label key {k:?}");
                (k.to_string(), v.to_string())
            })
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && !s.starts_with(|c: char| c.is_ascii_digit())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug, Default)]
struct RegistryInner {
    metrics: Mutex<BTreeMap<MetricId, Metric>>,
    help: Mutex<BTreeMap<String, String>>,
}

/// A thread-safe collection of named metrics. Cloning shares the same
/// underlying store, so a registry can be handed to several subsystems
/// and exposed once.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create a counter. Panics if the name+labels already map to
    /// a different metric kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let id = MetricId::new(name, labels);
        let mut m = self.inner.metrics.lock().unwrap();
        match m
            .entry(id)
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create a gauge. Panics on kind mismatch.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = MetricId::new(name, labels);
        let mut m = self.inner.metrics.lock().unwrap();
        match m.entry(id).or_insert_with(|| Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or create a histogram. Panics on kind mismatch.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let id = MetricId::new(name, labels);
        let mut m = self.inner.metrics.lock().unwrap();
        match m
            .entry(id)
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Attach help text to a metric name (shown as `# HELP` in the text
    /// exposition).
    pub fn describe(&self, name: &str, help: &str) {
        self.inner
            .help
            .lock()
            .unwrap()
            .insert(name.to_string(), help.to_string());
    }

    /// Number of registered metrics (all kinds, counting each label set).
    pub fn len(&self) -> usize {
        self.inner.metrics.lock().unwrap().len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fold every metric of `other` into this registry: counters and
    /// gauges add, histograms merge bucket-wise, help text carries over.
    /// Addition is commutative, so merging per-shard registries yields
    /// the same fleet-wide registry regardless of shard order or count.
    pub fn merge_from(&self, other: &MetricRegistry) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return; // same underlying store: nothing to fold in
        }
        // Clone the other side's map first so the two locks are never
        // held at once (no lock-order deadlock between registries).
        let other_metrics: BTreeMap<MetricId, Metric> = other.inner.metrics.lock().unwrap().clone();
        let other_help: BTreeMap<String, String> = other.inner.help.lock().unwrap().clone();
        {
            let mut metrics = self.inner.metrics.lock().unwrap();
            for (id, metric) in other_metrics {
                match metrics.entry(id.clone()).or_insert_with(|| match &metric {
                    Metric::Counter(_) => Metric::Counter(Counter::new()),
                    Metric::Gauge(_) => Metric::Gauge(Gauge::new()),
                    Metric::Histogram(_) => Metric::Histogram(Histogram::new()),
                }) {
                    Metric::Counter(c) => match &metric {
                        Metric::Counter(o) => c.add(o.get()),
                        _ => panic!("metric {:?} merged with a different kind", id.name),
                    },
                    Metric::Gauge(g) => match &metric {
                        Metric::Gauge(o) => g.add(o.get()),
                        _ => panic!("metric {:?} merged with a different kind", id.name),
                    },
                    Metric::Histogram(h) => match &metric {
                        Metric::Histogram(o) => h.merge_from(o),
                        _ => panic!("metric {:?} merged with a different kind", id.name),
                    },
                }
            }
        }
        let mut help = self.inner.help.lock().unwrap();
        for (name, text) in other_help {
            help.entry(name).or_insert(text);
        }
    }

    /// A point-in-time copy of every metric, ordered by name then labels.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.inner.metrics.lock().unwrap();
        let mut snap = Snapshot::default();
        for (id, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push(CounterSample {
                    name: id.name.clone(),
                    labels: id.labels.clone(),
                    value: c.get(),
                }),
                Metric::Gauge(g) => snap.gauges.push(GaugeSample {
                    name: id.name.clone(),
                    labels: id.labels.clone(),
                    value: g.get(),
                }),
                Metric::Histogram(h) => snap.histograms.push(HistogramSample {
                    name: id.name.clone(),
                    labels: id.labels.clone(),
                    count: h.count(),
                    sum: h.sum(),
                    min: h.min(),
                    max: h.max(),
                    p50: h.p50(),
                    p90: h.p90(),
                    p99: h.p99(),
                    buckets: h.cumulative_buckets(),
                }),
            }
        }
        snap.help = self.inner.help.lock().unwrap().clone();
        snap
    }

    /// Render the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }

    /// Render a JSON snapshot (parseable by any JSON reader, including
    /// `serde_json`).
    pub fn render_json(&self) -> String {
        self.snapshot().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_total() {
        let mut last = 0usize;
        for v in 0..4096u64 {
            let idx = bucket_index(v);
            assert!(idx >= last, "v={v}");
            assert!(idx < NUM_BUCKETS);
            last = idx;
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        for v in [0u64, 1, 15, 16, 17, 31, 32, 100, 1000, 1 << 20, u64::MAX] {
            let idx = bucket_index(v);
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "v={v} idx={idx} lo={lo} hi={hi}");
        }
    }

    #[test]
    fn bucket_bounds_tile_the_line() {
        // Consecutive buckets meet exactly: hi(i) + 1 == lo(i+1).
        for idx in 0..NUM_BUCKETS - 1 {
            let (_, hi) = bucket_bounds(idx);
            let (lo_next, _) = bucket_bounds(idx + 1);
            assert_eq!(hi + 1, lo_next, "idx={idx}");
        }
        assert_eq!(bucket_bounds(NUM_BUCKETS - 1).1, u64::MAX);
        assert_eq!(bucket_bounds(0).0, 0);
    }

    #[test]
    fn counter_and_gauge_basics() {
        let r = MetricRegistry::new();
        let c = r.counter("hits_total", &[("kind", "a")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name+labels yields the same underlying counter.
        assert_eq!(r.counter("hits_total", &[("kind", "a")]).get(), 5);
        // Different labels are distinct.
        assert_eq!(r.counter("hits_total", &[("kind", "b")]).get(), 0);

        let g = r.gauge("open", &[]);
        g.set(3);
        g.dec();
        g.add(10);
        assert_eq!(g.get(), 12);
        assert_eq!(r.len(), 3);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = MetricRegistry::new();
        r.counter("x", &[]);
        r.gauge("x", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_rejected() {
        let r = MetricRegistry::new();
        r.counter("bad name", &[]);
    }

    #[test]
    fn histogram_quantiles_exact_small_values() {
        // Values below 16 sit in width-1 buckets: quantiles are exact.
        let h = Histogram::new();
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            h.record(v);
        }
        assert_eq!(h.count(), 10);
        assert_eq!(h.sum(), 55);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 10);
        assert_eq!(h.p50(), 5);
        assert_eq!(h.p90(), 9);
        assert_eq!(h.p99(), 10);
        assert_eq!(h.quantile(1.0), 10);
    }

    #[test]
    fn histogram_quantile_within_one_bucket_width() {
        // Deterministic LCG samples across several octaves.
        let mut x = 0x2545f4914f6cdd1du64;
        let mut values = Vec::new();
        let h = Histogram::new();
        for _ in 0..1000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x >> 40; // up to ~16M
            values.push(v);
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let est = h.quantile(q);
            let (lo, hi) = bucket_bounds(bucket_index(exact));
            assert!(
                est >= lo && est <= hi,
                "q={q} exact={exact} est={est} bucket=({lo},{hi})"
            );
        }
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn histogram_cumulative_buckets_increase() {
        let h = Histogram::new();
        for v in [3u64, 3, 20, 500, 500, 500, 1_000_000] {
            h.record(v);
        }
        let b = h.cumulative_buckets();
        assert_eq!(b.last().unwrap().1, 7);
        for w in b.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn histogram_merge_folds_samples() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 5, 100] {
            a.record(v);
        }
        for v in [3u64, 500, 1_000_000] {
            b.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), 6);
        assert_eq!(a.sum(), 1 + 5 + 100 + 3 + 500 + 1_000_000);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 1_000_000);
        assert_eq!(a.cumulative_buckets().last().unwrap().1, 6);
        // Merging an empty histogram is a no-op; merging a histogram with
        // itself is too (no self-doubling).
        a.merge_from(&Histogram::new());
        assert_eq!(a.count(), 6);
        let before = a.count();
        a.merge_from(&a.clone());
        assert_eq!(a.count(), before);
    }

    #[test]
    fn registry_merge_is_commutative() {
        let mk = |c1: u64, g1: i64, samples: &[u64]| {
            let r = MetricRegistry::new();
            r.counter("hits_total", &[("shard", "x")]).add(c1);
            r.counter("hits_total", &[]).add(c1 * 2);
            r.gauge("open", &[]).add(g1);
            let h = r.histogram("lat_us", &[]);
            for &s in samples {
                h.record(s);
            }
            r.describe("hits_total", "hits");
            r
        };
        let a = mk(3, 5, &[10, 20]);
        let b = mk(7, -2, &[1, 1000]);

        let ab = MetricRegistry::new();
        ab.merge_from(&a);
        ab.merge_from(&b);
        let ba = MetricRegistry::new();
        ba.merge_from(&b);
        ba.merge_from(&a);

        assert_eq!(ab.render_prometheus(), ba.render_prometheus());
        assert_eq!(ab.counter("hits_total", &[("shard", "x")]).get(), 10);
        assert_eq!(ab.counter("hits_total", &[]).get(), 20);
        assert_eq!(ab.gauge("open", &[]).get(), 3);
        assert_eq!(ab.histogram("lat_us", &[]).count(), 4);
        // Sources are untouched, and merging did not alias their handles.
        ab.counter("hits_total", &[]).inc();
        assert_eq!(a.counter("hits_total", &[]).get(), 6);
        assert_eq!(b.counter("hits_total", &[]).get(), 14);
    }

    #[test]
    #[should_panic(expected = "merged with a different kind")]
    fn registry_merge_kind_mismatch_panics() {
        let a = MetricRegistry::new();
        a.counter("x", &[]);
        let b = MetricRegistry::new();
        b.gauge("x", &[]);
        a.merge_from(&b);
    }

    #[test]
    fn registry_merge_concurrent_stress() {
        // Shard threads folding into one registry concurrently — the
        // fleet collector pattern, but with every merge racing instead
        // of arriving in join order. Totals must come out exact.
        const THREADS: u64 = 8;
        const ROUNDS: u64 = 50;
        let target = MetricRegistry::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let target = &target;
                s.spawn(move || {
                    for round in 0..ROUNDS {
                        let src = MetricRegistry::new();
                        src.counter("decisions_total", &[]).add(3);
                        src.counter("decisions_total", &[("shard", "x")]).add(t);
                        src.gauge("open", &[]).add(1);
                        let h = src.histogram("lat_us", &[]);
                        h.record(t * 1000 + round + 1);
                        h.record(1);
                        target.merge_from(&src);
                    }
                });
            }
        });
        assert_eq!(
            target.counter("decisions_total", &[]).get(),
            3 * THREADS * ROUNDS
        );
        assert_eq!(
            target.counter("decisions_total", &[("shard", "x")]).get(),
            ROUNDS * (0..THREADS).sum::<u64>()
        );
        assert_eq!(target.gauge("open", &[]).get() as u64, THREADS * ROUNDS);
        let h = target.histogram("lat_us", &[]);
        assert_eq!(h.count(), 2 * THREADS * ROUNDS);
        let expected_sum: u64 = (0..THREADS)
            .flat_map(|t| (0..ROUNDS).map(move |r| t * 1000 + r + 2))
            .sum();
        assert_eq!(h.sum(), expected_sum);
        assert_eq!(h.max(), (THREADS - 1) * 1000 + ROUNDS);
        assert_eq!(h.min(), 1);
        assert_eq!(h.cumulative_buckets().last().unwrap().1, h.count());
    }

    #[test]
    fn histogram_merge_concurrent_stress() {
        // Many threads merging into the same histogram while it also
        // takes direct records; count/sum/min/max stay exact (buckets
        // are sharded atomics, merge adds per bucket).
        const THREADS: u64 = 8;
        const MERGES: u64 = 25;
        let target = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let target = target.clone();
                s.spawn(move || {
                    for m in 0..MERGES {
                        let src = Histogram::new();
                        src.record(t + 1);
                        src.record(10_000 + t * MERGES + m);
                        target.merge_from(&src);
                        target.record(5);
                    }
                });
            }
        });
        assert_eq!(target.count(), 3 * THREADS * MERGES);
        let merged_sum: u64 = (0..THREADS)
            .flat_map(|t| (0..MERGES).map(move |m| (t + 1) + 10_000 + t * MERGES + m))
            .sum();
        assert_eq!(target.sum(), merged_sum + 5 * THREADS * MERGES);
        assert_eq!(target.min(), 1);
        assert_eq!(target.max(), 10_000 + (THREADS - 1) * MERGES + MERGES - 1);
        assert_eq!(
            target.cumulative_buckets().last().unwrap().1,
            target.count()
        );
    }

    #[test]
    fn histogram_concurrent_records() {
        let h = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(h.max(), 3999);
    }
}
