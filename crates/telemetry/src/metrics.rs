//! Counters, gauges, log-linear histograms, and the registry that owns
//! them.
//!
//! Every metric value lives in a cell: an `AtomicU64` in a shared
//! `Arc<[AtomicU64]>` array. A handle ([`Counter`], [`Gauge`],
//! [`Histogram`]) is that array plus an index, so cloning one is a
//! reference-count bump and every update on the hot path is one relaxed
//! atomic operation. A [`MetricRegistry`] holds two kinds of series:
//!
//! - **schema parts** ([`SchemaPart`]): families declared once as a
//!   `static` table. Attaching a part allocates one zeroed cell array for
//!   all of its series, and merging registries adds same-part arrays
//!   element by element;
//! - **string-keyed series**, created on first lookup by name and labels:
//!   what is truly dynamic (per-epoch gauges, harness reports).
//!
//! Each `(name, labels)` lives in exactly one place: a lookup by name
//! resolves to an attached part's cell when the part declares the
//! series, and attaching a part absorbs any string-keyed series it
//! declares. The registry's lock is taken to attach, look up, merge and
//! expose, never by a handle update.
//!
//! Histograms use log-linear buckets (16 linear sub-buckets per power of
//! two, the HdrHistogram layout): relative bucket width is bounded by
//! 1/16 ≈ 6.25 %, so any quantile estimate is within one bucket width of
//! the true order statistic while the whole `u64` range fits in 976
//! buckets.

use crate::expose::{CounterSample, GaugeSample, HistogramSample, Snapshot};
use crate::schema::{MetricKind, PartCells, SchemaPart};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Sub-bucket resolution: each power-of-two octave splits into
/// `2^SUB_BITS` linear buckets.
const SUB_BITS: u32 = 4;
const SUBS: u64 = 1 << SUB_BITS; // 16

/// Total bucket count covering all of `u64`: 16 linear buckets below 16,
/// then 16 per octave for octaves 4..=63.
pub const NUM_BUCKETS: usize = (SUBS + (64 - SUB_BITS as u64) * SUBS) as usize;

/// A histogram's cells: count, sum, the bitwise complement of the
/// minimum (so a zeroed cell means "no sample"), maximum, then buckets.
const COUNT: usize = 0;
const SUM: usize = 1;
const INV_MIN: usize = 2;
const MAX: usize = 3;
const BUCKETS: usize = 4;
pub(crate) const HISTOGRAM_CELLS: usize = BUCKETS + NUM_BUCKETS;

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

/// `n` zeroed cells in one allocation.
fn zeroed(n: usize) -> Arc<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

/// Add one counter or gauge cell into another (gauges wrap as `i64`).
pub(crate) fn fold_cell(dst: &AtomicU64, src: &AtomicU64) {
    let n = src.load(Ordering::Relaxed);
    if n != 0 {
        dst.fetch_add(n, Ordering::Relaxed);
    }
}

/// Fold one histogram's cells into another's: buckets, count and sum
/// add, min and max tighten.
pub(crate) fn fold_histogram(dst: &[AtomicU64], src: &[AtomicU64]) {
    if src[COUNT].load(Ordering::Relaxed) == 0 {
        return;
    }
    for (d, s) in dst[BUCKETS..].iter().zip(&src[BUCKETS..]) {
        fold_cell(d, s);
    }
    fold_cell(&dst[COUNT], &src[COUNT]);
    fold_cell(&dst[SUM], &src[SUM]);
    for cell in [INV_MIN, MAX] {
        dst[cell].fetch_max(src[cell].load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter {
    cells: Arc<[AtomicU64]>,
    cell: usize,
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

impl Counter {
    /// A detached counter (not owned by any registry).
    pub fn new() -> Self {
        Self::at(zeroed(1), 0)
    }

    pub(crate) fn at(cells: Arc<[AtomicU64]>, cell: usize) -> Self {
        Counter { cells, cell }
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.cells[self.cell].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cells[self.cell].load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Clone)]
pub struct Gauge {
    cells: Arc<[AtomicU64]>,
    cell: usize,
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Gauge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

impl Gauge {
    /// A detached gauge (not owned by any registry).
    pub fn new() -> Self {
        Self::at(zeroed(1), 0)
    }

    pub(crate) fn at(cells: Arc<[AtomicU64]>, cell: usize) -> Self {
        Gauge { cells, cell }
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.cells[self.cell].store(v as u64, Ordering::Relaxed);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.cells[self.cell].fetch_add(n as u64, Ordering::Relaxed);
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
        self.cells[self.cell].load(Ordering::Relaxed) as i64
    }
}

/// A log-linear-bucket histogram of `u64` samples (typically latencies
/// in nanoseconds or microseconds). Quantile queries are accurate to one
/// bucket width (≤ 1/16 of the value, or ±1 below 16).
#[derive(Clone)]
pub struct Histogram {
    cells: Arc<[AtomicU64]>,
    base: usize,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish_non_exhaustive()
    }
}

impl Histogram {
    /// A detached histogram (not owned by any registry).
    pub fn new() -> Self {
        Self::at(zeroed(HISTOGRAM_CELLS), 0)
    }

    pub(crate) fn at(cells: Arc<[AtomicU64]>, base: usize) -> Self {
        Histogram { cells, base }
    }

    fn cells(&self) -> &[AtomicU64] {
        &self.cells[self.base..self.base + HISTOGRAM_CELLS]
    }

    fn load(&self, cell: usize) -> u64 {
        self.cells()[cell].load(Ordering::Relaxed)
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        let c = self.cells();
        c[BUCKETS + bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        c[COUNT].fetch_add(1, Ordering::Relaxed);
        c[SUM].fetch_add(v, Ordering::Relaxed);
        c[INV_MIN].fetch_max(!v, Ordering::Relaxed);
        c[MAX].fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.load(COUNT)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.load(SUM)
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        match self.load(INV_MIN) {
            0 => 0,
            inv => !inv,
        }
    }

    /// Largest recorded sample (0 when empty; exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.load(MAX)
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

    fn bucket_counts(&self) -> impl Iterator<Item = u64> + '_ {
        self.cells()[BUCKETS..]
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
    }

    /// Estimate of the `q`-quantile (`0.0 ..= 1.0`): the lower bound of
    /// the bucket holding the order statistic of rank `ceil(q·n)`,
    /// clamped to the exact recorded min/max. The true quantile lies in
    /// the same bucket, so the error is at most one bucket width.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self.bucket_counts().collect();
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
        if Arc::ptr_eq(&self.cells, &other.cells) && self.base == other.base {
            return; // same underlying histogram: nothing to fold in
        }
        fold_histogram(self.cells(), other.cells());
    }

    /// Non-empty buckets as `(inclusive_upper_bound, cumulative_count)`
    /// pairs, in increasing bound order — the Prometheus `le` series.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (idx, n) in self.bucket_counts().enumerate() {
            if n > 0 {
                cum += n;
                out.push((bucket_bounds(idx).1, cum));
            }
        }
        out
    }

    fn sample(&self, name: String, labels: Vec<(String, String)>) -> HistogramSample {
        HistogramSample {
            name,
            labels,
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
            buckets: self.cumulative_buckets(),
        }
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

/// Whether `s` is a valid metric name or label key
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
pub(crate) const fn valid_name(s: &str) -> bool {
    let b = s.as_bytes();
    if b.is_empty() || b[0].is_ascii_digit() {
        return false;
    }
    let mut i = 0;
    while i < b.len() {
        if !(b[i].is_ascii_alphanumeric() || b[i] == b'_' || b[i] == b':') {
            return false;
        }
        i += 1;
    }
    true
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn new(kind: MetricKind) -> Self {
        match kind {
            MetricKind::Counter => Metric::Counter(Counter::new()),
            MetricKind::Gauge => Metric::Gauge(Gauge::new()),
            MetricKind::Histogram => Metric::Histogram(Histogram::new()),
        }
    }

    /// The handle of `kind` at `cell` of `cells`.
    fn at(kind: MetricKind, cells: Arc<[AtomicU64]>, cell: usize) -> Self {
        match kind {
            MetricKind::Counter => Metric::Counter(Counter::at(cells, cell)),
            MetricKind::Gauge => Metric::Gauge(Gauge::at(cells, cell)),
            MetricKind::Histogram => Metric::Histogram(Histogram::at(cells, cell)),
        }
    }

    fn kind(&self) -> MetricKind {
        match self {
            Metric::Counter(_) => MetricKind::Counter,
            Metric::Gauge(_) => MetricKind::Gauge,
            Metric::Histogram(_) => MetricKind::Histogram,
        }
    }

    /// Add `other`'s value into this metric. Panics on a kind mismatch.
    fn fold(&self, other: &Metric, name: &str) {
        match (self, other) {
            (Metric::Counter(c), Metric::Counter(o)) => {
                fold_cell(&c.cells[c.cell], &o.cells[o.cell])
            }
            (Metric::Gauge(g), Metric::Gauge(o)) => fold_cell(&g.cells[g.cell], &o.cells[o.cell]),
            (Metric::Histogram(h), Metric::Histogram(o)) => h.merge_from(o),
            _ => panic!("metric {name:?} merged with a different kind"),
        }
    }
}

/// A schema part attached to a registry, with its cells.
#[derive(Debug)]
struct Part {
    schema: &'static SchemaPart,
    cells: Arc<[AtomicU64]>,
}

#[derive(Debug, Default)]
struct Store {
    parts: Vec<Part>,
    metrics: BTreeMap<Arc<MetricId>, Metric>,
    help: BTreeMap<Arc<str>, Arc<str>>,
}

impl Store {
    /// The attached-part handle for `name` + `labels`, if a part declares
    /// that series.
    fn part_series<K: AsRef<str>, V: AsRef<str>>(
        &self,
        name: &str,
        labels: &[(K, V)],
    ) -> Option<Metric> {
        self.parts.iter().find_map(|p| {
            p.schema
                .find(name, labels)
                .map(|(kind, cell)| Metric::at(kind, p.cells.clone(), cell))
        })
    }

    /// Get or create the cells of `schema`. A new part absorbs the
    /// string-keyed series it declares, so none is exported twice.
    fn attach(&mut self, schema: &'static SchemaPart) -> Arc<[AtomicU64]> {
        if let Some(p) = self.parts.iter().find(|p| std::ptr::eq(p.schema, schema)) {
            return p.cells.clone();
        }
        let cells = zeroed(schema.cells());
        self.metrics
            .retain(|id, metric| match schema.find(&id.name, &id.labels) {
                Some((kind, cell)) => {
                    Metric::at(kind, cells.clone(), cell).fold(metric, &id.name);
                    false
                }
                None => true,
            });
        self.parts.push(Part {
            schema,
            cells: cells.clone(),
        });
        cells
    }

    /// The string-keyed series `id`, created as `kind` when absent.
    fn keyed(&mut self, id: Arc<MetricId>, kind: MetricKind) -> Metric {
        self.metrics
            .entry(id)
            .or_insert_with(|| Metric::new(kind))
            .clone()
    }

    /// Get or create the series `name` + `labels` as `kind`.
    fn resolve(&mut self, name: &str, labels: &[(&str, &str)], kind: MetricKind) -> Metric {
        let metric = self
            .part_series(name, labels)
            .unwrap_or_else(|| self.keyed(Arc::new(MetricId::new(name, labels)), kind));
        assert!(
            metric.kind() == kind,
            "metric {name:?} already registered with a different kind"
        );
        metric
    }

    /// Fold one string-keyed series of another registry into this one.
    fn fold_metric(&mut self, id: &Arc<MetricId>, metric: &Metric) {
        self.part_series(&id.name, &id.labels)
            .unwrap_or_else(|| self.keyed(id.clone(), metric.kind()))
            .fold(metric, &id.name);
    }
}

/// The entry after `last` in a map keyed by `Arc`s (the first when
/// `last` is `None`), with its key and value cloned cheaply.
fn entry_after<K: Ord + ?Sized, V: Clone>(
    map: &BTreeMap<Arc<K>, V>,
    last: Option<&K>,
) -> Option<(Arc<K>, V)> {
    let lower = last.map_or(Bound::Unbounded, Bound::Excluded);
    map.range::<K, _>((lower, Bound::Unbounded))
        .next()
        .map(|(k, v)| (k.clone(), v.clone()))
}

/// A thread-safe collection of named metrics. Cloning shares the same
/// underlying store, so a registry can be handed to several subsystems
/// and exposed once.
#[derive(Debug, Clone, Default)]
pub struct MetricRegistry {
    inner: Arc<Mutex<Store>>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Store> {
        self.inner.lock().unwrap()
    }

    /// Attach a schema part, or return the cells it already has here: two
    /// components attaching the same part to one registry share them.
    /// String-keyed series the part declares move into its cells.
    pub fn attach(&self, part: &'static SchemaPart) -> PartCells {
        PartCells::new(part, self.lock().attach(part))
    }

    /// Get or create a counter. Resolves to an attached part's cell when
    /// a part declares the series. Panics if the name+labels already map
    /// to a different metric kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.lock().resolve(name, labels, MetricKind::Counter) {
            Metric::Counter(c) => c,
            _ => unreachable!("resolve checks the kind"),
        }
    }

    /// Get or create a gauge. Panics on kind mismatch.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.lock().resolve(name, labels, MetricKind::Gauge) {
            Metric::Gauge(g) => g,
            _ => unreachable!("resolve checks the kind"),
        }
    }

    /// Get or create a histogram. Panics on kind mismatch.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.lock().resolve(name, labels, MetricKind::Histogram) {
            Metric::Histogram(h) => h,
            _ => unreachable!("resolve checks the kind"),
        }
    }

    /// Attach help text to a string-keyed metric name (shown as `# HELP`
    /// in the text exposition). Schema families carry their own.
    pub fn describe(&self, name: &str, help: &str) {
        self.lock().help.insert(name.into(), help.into());
    }

    /// Number of registered metrics (all kinds, counting each label set).
    pub fn len(&self) -> usize {
        let s = self.lock();
        s.parts.iter().map(|p| p.schema.series()).sum::<usize>() + s.metrics.len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fold every metric of `other` into this registry: counters and
    /// gauges add, histograms merge bucket-wise, help text carries over.
    /// Addition is commutative, so merging per-shard registries yields
    /// the same fleet-wide registry regardless of shard order or count.
    ///
    /// The two registries are never locked at once (no lock-order
    /// deadlock between them), and merging into a registry that already
    /// holds every part and series of `other` allocates nothing: parts
    /// add cell array into cell array, and string-keyed series are
    /// visited one entry per lock.
    pub fn merge_from(&self, other: &MetricRegistry) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return; // same underlying store: nothing to fold in
        }
        for i in 0.. {
            let part = other
                .lock()
                .parts
                .get(i)
                .map(|p| (p.schema, p.cells.clone()));
            let Some((schema, src)) = part else { break };
            let dst = self.lock().attach(schema);
            schema.fold(&dst, &src);
        }
        let mut last: Option<Arc<MetricId>> = None;
        loop {
            let next = entry_after(&other.lock().metrics, last.as_deref());
            let Some((id, metric)) = next else { break };
            self.lock().fold_metric(&id, &metric);
            last = Some(id);
        }
        let mut last: Option<Arc<str>> = None;
        loop {
            let next = entry_after(&other.lock().help, last.as_deref());
            let Some((name, text)) = next else { break };
            let mut s = self.lock();
            if !s.help.contains_key(&*name) {
                s.help.insert(name.clone(), text);
            }
            drop(s);
            last = Some(name);
        }
    }

    /// A point-in-time copy of every metric, ordered by name then labels.
    pub fn snapshot(&self) -> Snapshot {
        let s = self.lock();
        let mut snap = Snapshot::default();
        let mut push = |metric: &Metric, name: &str, labels: Vec<(String, String)>| {
            let name = name.to_string();
            match metric {
                Metric::Counter(c) => snap.counters.push(CounterSample {
                    name,
                    labels,
                    value: c.get(),
                }),
                Metric::Gauge(g) => snap.gauges.push(GaugeSample {
                    name,
                    labels,
                    value: g.get(),
                }),
                Metric::Histogram(h) => snap.histograms.push(h.sample(name, labels)),
            }
        };
        for part in &s.parts {
            for (fam, set, cell) in part.schema.each_series() {
                let labels = set.iter().map(|&(k, v)| (k.into(), v.into())).collect();
                push(
                    &Metric::at(fam.kind, part.cells.clone(), cell),
                    fam.name,
                    labels,
                );
            }
        }
        for (id, metric) in &s.metrics {
            push(metric, &id.name, id.labels.clone());
        }
        snap.counters
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        snap.gauges
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        snap.histograms
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        snap.help = s
            .help
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        for fam in s.parts.iter().flat_map(|p| p.schema.families()) {
            snap.help.insert(fam.name.into(), fam.help.into());
        }
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

    static PART: SchemaPart = SchemaPart::new(&[
        crate::Family::counter("hits_total", "Hits.", &[&[("shard", "x")], &[]]),
        crate::Family::gauge("open", "Open.", &[&[]]),
        crate::Family::histogram("lat_us", "Latency.", &[&[]]),
    ]);

    #[test]
    fn part_series_resolve_by_name_and_count_once() {
        let r = MetricRegistry::new();
        let early = r.counter("hits_total", &[]);
        early.add(5);
        r.counter("other_total", &[]).inc();
        let cells = r.attach(&PART);
        // The string-keyed series moved into the part, value and all.
        assert_eq!(r.len(), 4 + 1);
        assert_eq!(cells.counter(0, 1).get(), 5);
        cells.counter(0, 1).inc();
        assert_eq!(r.counter("hits_total", &[]).get(), 6);
        r.histogram("lat_us", &[]).record(7);
        assert_eq!(cells.histogram(2, 0).max(), 7);
        // Attaching again shares the cells.
        r.attach(&PART).gauge(1, 0).set(-3);
        assert_eq!(r.gauge("open", &[]).get(), -3);
        let text = r.render_prometheus();
        assert_eq!(text.matches("hits_total 6").count(), 1, "{text}");
        assert!(
            text.contains("# HELP open Open.\n# TYPE open gauge\nopen -3\n"),
            "{text}"
        );
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn part_lookup_kind_mismatch_panics() {
        let r = MetricRegistry::new();
        r.attach(&PART);
        r.gauge("hits_total", &[]);
    }

    #[test]
    fn part_merge_routes_every_series_to_one_place() {
        // A registry with the part, one with the same series string-keyed.
        let with_part = MetricRegistry::new();
        let cells = with_part.attach(&PART);
        cells.counter(0, 0).add(2);
        cells.gauge(1, 0).add(-1);
        cells.histogram(2, 0).record(40);
        let keyed = MetricRegistry::new();
        keyed.counter("hits_total", &[("shard", "x")]).add(3);
        keyed.histogram("lat_us", &[]).record(4);

        let a = MetricRegistry::new();
        a.merge_from(&keyed);
        a.merge_from(&with_part);
        let b = MetricRegistry::new();
        b.merge_from(&with_part);
        b.merge_from(&keyed);
        for r in [&a, &b] {
            assert_eq!(r.len(), 4);
            assert_eq!(r.counter("hits_total", &[("shard", "x")]).get(), 5);
            assert_eq!(r.gauge("open", &[]).get(), -1);
            let h = r.histogram("lat_us", &[]);
            assert_eq!((h.count(), h.min(), h.max()), (2, 4, 40));
        }
        assert_eq!(a.render_prometheus(), b.render_prometheus());
        assert_eq!(a.render_json(), b.render_json());
        // The sources are untouched.
        assert_eq!(cells.counter(0, 0).get(), 2);
        assert_eq!(keyed.len(), 2);
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
