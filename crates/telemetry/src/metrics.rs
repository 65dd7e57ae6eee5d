//! Counters, gauges, log-linear histograms, and the registry that owns
//! them.
//!
//! Every metric value lives in a cell, an `AtomicU64` in an
//! `Arc<[AtomicU64]>` array. A [`MetricRegistry`] holds two kinds of
//! series:
//!
//! - **schema parts** ([`SchemaPart`]): families declared once as a
//!   `static` table and attached to a registry. A part attached with
//!   [`MetricRegistry::attach`] has one cell array that every caller
//!   shares; its handles update with relaxed atomic read-modify-writes.
//!   A part attached with [`MetricRegistry::attach_writer`] gets a cell
//!   array per caller, a [`PartWriter`] that is the array's one writer,
//!   so its updates are a relaxed load and a store with no locked
//!   instruction. Wherever the registry reads a part's series (the
//!   exposition, a merge, a lookup by name), it sums the shared array and
//!   every writer's array;
//! - **string-keyed series**, created on first lookup by name and labels:
//!   what is truly dynamic (per-epoch gauges, harness reports).
//!
//! Each `(name, labels)` lives in exactly one place: a lookup by name
//! resolves to an attached part's series when the part declares it, and
//! a part's first attach absorbs any string-keyed series it declares.
//! The registry's lock is taken to attach, look up, merge and expose,
//! and by the handles a lookup of a part's counter or gauge returns
//! (they read the summed series), never by a [`PartWriter`] update or a
//! [`PartCells`] handle.
//!
//! Histograms use log-linear buckets (16 linear sub-buckets per power of
//! two, the HdrHistogram layout): relative bucket width is bounded by
//! 1/16 ≈ 6.25 %, so any quantile estimate is within one bucket width of
//! the true order statistic while the whole `u64` range fits in 976
//! buckets.

use crate::expose::{CounterSample, GaugeSample, HistogramSample, Snapshot};
use crate::schema::{MetricKind, PartCells, PartWriter, SchemaPart};
use crate::work::{rmw_add, rmw_max};
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
pub(crate) fn zeroed(n: usize) -> Arc<[AtomicU64]> {
    (0..n).map(|_| AtomicU64::new(0)).collect()
}

/// Add one counter or gauge cell into another (gauges wrap as `i64`).
fn fold_cell(dst: &AtomicU64, src: &AtomicU64) {
    let n = src.load(Ordering::Relaxed);
    if n != 0 {
        rmw_add(dst, n);
    }
}

/// Fold one histogram's cells into another's: buckets, count and sum
/// add, min and max tighten.
fn fold_histogram(dst: &[AtomicU64], src: &[AtomicU64]) {
    if src[COUNT].load(Ordering::Relaxed) == 0 {
        return;
    }
    for (d, s) in dst[BUCKETS..].iter().zip(&src[BUCKETS..]) {
        fold_cell(d, s);
    }
    fold_cell(&dst[COUNT], &src[COUNT]);
    fold_cell(&dst[SUM], &src[SUM]);
    for cell in [INV_MIN, MAX] {
        rmw_max(&dst[cell], src[cell].load(Ordering::Relaxed));
    }
}

/// Fold one series of `kind` (its cells start `src`) into another
/// (starting `dst`).
pub(crate) fn fold_series(kind: MetricKind, dst: &[AtomicU64], src: &[AtomicU64]) {
    let (dst, src) = (&dst[..kind.cells()], &src[..kind.cells()]);
    match kind {
        MetricKind::Histogram => fold_histogram(dst, src),
        MetricKind::Counter | MetricKind::Gauge => fold_cell(&dst[0], &src[0]),
    }
}

/// Where a counter's or gauge's value lives.
#[derive(Clone)]
enum Slot {
    /// One cell of an array, updated with atomic read-modify-writes.
    Cell(Arc<[AtomicU64]>, usize),
    /// Series `cell` of the registry's part `part`: reads sum the part's
    /// shared cell and every writer's, updates go to the shared cell.
    Series(MetricRegistry, usize, usize),
}

impl Slot {
    fn load(&self) -> u64 {
        match self {
            Slot::Cell(cells, cell) => cells[*cell].load(Ordering::Relaxed),
            Slot::Series(registry, part, cell) => registry.lock().load(*part, *cell),
        }
    }

    fn add(&self, n: u64) {
        match self {
            Slot::Cell(cells, cell) => rmw_add(&cells[*cell], n),
            Slot::Series(registry, part, cell) => {
                rmw_add(&registry.lock().shared(*part)[*cell], n);
            }
        }
    }

    /// Make the value `v`: a series' shared cell takes `v` less what the
    /// writers hold.
    fn set(&self, v: u64) {
        match self {
            Slot::Cell(cells, cell) => cells[*cell].store(v, Ordering::Relaxed),
            Slot::Series(registry, part, cell) => {
                let mut s = registry.lock();
                let shared = s.shared(*part);
                let writers = s
                    .load(*part, *cell)
                    .wrapping_sub(shared[*cell].load(Ordering::Relaxed));
                shared[*cell].store(v.wrapping_sub(writers), Ordering::Relaxed);
            }
        }
    }
}

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter {
    slot: Slot,
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
        Counter {
            slot: Slot::Cell(cells, cell),
        }
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.slot.add(n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.slot.load()
    }
}

/// A gauge: a value that can go up and down.
#[derive(Clone)]
pub struct Gauge {
    slot: Slot,
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
        Gauge {
            slot: Slot::Cell(cells, cell),
        }
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.slot.set(v as u64);
    }

    /// Add `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.slot.add(n as u64);
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
        self.slot.load() as i64
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
        rmw_add(&c[BUCKETS + bucket_index(v)], 1);
        rmw_add(&c[COUNT], 1);
        rmw_add(&c[SUM], v);
        rmw_max(&c[INV_MIN], !v);
        rmw_max(&c[MAX], v);
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

/// A string-keyed series: its kind and its own cells (one for a counter
/// or gauge, [`HISTOGRAM_CELLS`] for a histogram).
#[derive(Debug, Clone)]
struct Keyed {
    kind: MetricKind,
    cells: Arc<[AtomicU64]>,
}

/// A schema part attached to a registry.
#[derive(Debug)]
struct Part {
    schema: &'static SchemaPart,
    /// The cells of [`MetricRegistry::attach`] callers, of the
    /// string-keyed series the part absorbed, of merges into this
    /// registry and of updates through lookup handles. Allocated on first
    /// use: a part attached only per writer may never need it.
    shared: Option<Arc<[AtomicU64]>>,
}

/// Where a lookup by name resolved.
enum Resolved {
    /// Series `cell` of attached part `part`.
    Part(usize, usize),
    /// A string-keyed series.
    Keyed(Arc<[AtomicU64]>),
}

#[derive(Debug, Default)]
struct Store {
    parts: Vec<Part>,
    /// Each [`PartWriter`]'s cells, with the index of its part.
    writers: Vec<(usize, Arc<[AtomicU64]>)>,
    metrics: BTreeMap<Arc<MetricId>, Keyed>,
    help: BTreeMap<Arc<str>, Arc<str>>,
}

impl Store {
    /// The index of `schema` among the attached parts, attaching it if
    /// absent. A part's first attach absorbs the string-keyed series it
    /// declares, so none is exported twice.
    fn attach(&mut self, schema: &'static SchemaPart) -> usize {
        if let Some(i) = self
            .parts
            .iter()
            .position(|p| std::ptr::eq(p.schema, schema))
        {
            return i;
        }
        let mut shared: Option<Arc<[AtomicU64]>> = None;
        self.metrics
            .retain(|id, keyed| match schema.find(&id.name, &id.labels) {
                Some((kind, cell)) => {
                    assert!(
                        kind == keyed.kind,
                        "metric {:?} merged with a different kind",
                        id.name
                    );
                    let dst = shared.get_or_insert_with(|| zeroed(schema.cells()));
                    fold_series(kind, &dst[cell..], &keyed.cells);
                    false
                }
                None => true,
            });
        self.parts.push(Part { schema, shared });
        self.parts.len() - 1
    }

    /// The shared cells of part `part`.
    fn shared(&mut self, part: usize) -> Arc<[AtomicU64]> {
        let p = &mut self.parts[part];
        p.shared
            .get_or_insert_with(|| zeroed(p.schema.cells()))
            .clone()
    }

    /// The value of counter or gauge cell `cell` of part `part`: the
    /// shared cell plus every writer's.
    fn load(&self, part: usize, cell: usize) -> u64 {
        let shared = self.parts[part]
            .shared
            .as_ref()
            .map_or(0, |c| c[cell].load(Ordering::Relaxed));
        self.writers
            .iter()
            .filter(|(p, _)| *p == part)
            .fold(shared, |sum, (_, c)| {
                sum.wrapping_add(c[cell].load(Ordering::Relaxed))
            })
    }

    /// The attached part and cell of `name` + `labels`, if a part
    /// declares that series.
    fn part_series<K: AsRef<str>, V: AsRef<str>>(
        &self,
        name: &str,
        labels: &[(K, V)],
    ) -> Option<(usize, MetricKind, usize)> {
        self.parts.iter().enumerate().find_map(|(i, p)| {
            p.schema
                .find(name, labels)
                .map(|(kind, cell)| (i, kind, cell))
        })
    }

    /// The string-keyed series `id`, created as `kind` when absent.
    fn keyed(&mut self, id: Arc<MetricId>, kind: MetricKind) -> Keyed {
        self.metrics
            .entry(id)
            .or_insert_with(|| Keyed {
                kind,
                cells: zeroed(kind.cells()),
            })
            .clone()
    }

    /// Get or create the series `name` + `labels` as `kind`.
    fn resolve(&mut self, name: &str, labels: &[(&str, &str)], kind: MetricKind) -> Resolved {
        let (found, resolved) = match self.part_series(name, labels) {
            Some((part, found, cell)) => (found, Resolved::Part(part, cell)),
            None => {
                let keyed = self.keyed(Arc::new(MetricId::new(name, labels)), kind);
                (keyed.kind, Resolved::Keyed(keyed.cells))
            }
        };
        assert!(
            found == kind,
            "metric {name:?} already registered with a different kind"
        );
        resolved
    }

    /// Fold one string-keyed series of another registry into this one.
    fn fold_keyed(&mut self, id: &Arc<MetricId>, src: &Keyed) {
        let (kind, dst, cell) = match self.part_series(&id.name, &id.labels) {
            Some((part, kind, cell)) => (kind, self.shared(part), cell),
            None => {
                let keyed = self.keyed(id.clone(), src.kind);
                (keyed.kind, keyed.cells, 0)
            }
        };
        assert!(
            kind == src.kind,
            "metric {:?} merged with a different kind",
            id.name
        );
        fold_series(kind, &dst[cell..], &src.cells);
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

    /// Attach a schema part, or return the cells it already shares here:
    /// two components attaching the same part to one registry share
    /// them, and every update is an atomic read-modify-write.
    /// String-keyed series the part declares move into its cells.
    pub fn attach(&self, part: &'static SchemaPart) -> PartCells {
        let mut s = self.lock();
        let i = s.attach(part);
        PartCells::new(part, s.shared(i))
    }

    /// Attach a schema part with cells of the caller's own: each call
    /// gets a fresh zeroed array, and the returned [`PartWriter`] is its
    /// one writer, so an update is a relaxed load and a store. The
    /// registry sums every writer's cells (and any shared ones) wherever
    /// it reads the part's series. A writer updates counters and gauges;
    /// the part's histograms stay in its shared cells.
    pub fn attach_writer(&self, part: &'static SchemaPart) -> PartWriter {
        let cells = zeroed(part.cells());
        let mut s = self.lock();
        let i = s.attach(part);
        s.writers.push((i, cells.clone()));
        PartWriter::new(part, cells)
    }

    /// Get or create a counter. A series an attached part declares
    /// resolves to that part: the handle reads the series' sum over the
    /// part's shared and per-writer cells (taking the registry lock), and
    /// adds to the shared cell. Panics if the name+labels already map to a
    /// different metric kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let slot = match self.lock().resolve(name, labels, MetricKind::Counter) {
            Resolved::Part(part, cell) => Slot::Series(self.clone(), part, cell),
            Resolved::Keyed(cells) => Slot::Cell(cells, 0),
        };
        Counter { slot }
    }

    /// Get or create a gauge, resolved as [`MetricRegistry::counter`]
    /// resolves a counter. Panics on kind mismatch.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let slot = match self.lock().resolve(name, labels, MetricKind::Gauge) {
            Resolved::Part(part, cell) => Slot::Series(self.clone(), part, cell),
            Resolved::Keyed(cells) => Slot::Cell(cells, 0),
        };
        Gauge { slot }
    }

    /// Get or create a histogram. Panics on kind mismatch.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let mut s = self.lock();
        match s.resolve(name, labels, MetricKind::Histogram) {
            Resolved::Part(part, cell) => Histogram::at(s.shared(part), cell),
            Resolved::Keyed(cells) => Histogram::at(cells, 0),
        }
    }

    /// Attach help text to a string-keyed metric name (shown as `# HELP`
    /// in the text exposition). Schema families carry their own.
    pub fn describe(&self, name: &str, help: &str) {
        self.lock().help.insert(name.into(), help.into());
    }

    /// Number of registered metrics (all kinds, counting each label set;
    /// a part's series count once however many writers it has).
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
    /// A part's shared cells and each of its writers' cells all fold into
    /// this registry's shared cells of the part. Addition is commutative,
    /// so merging per-shard registries yields the same fleet-wide
    /// registry regardless of shard order or count.
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
        let fold = |schema: &'static SchemaPart, src: Option<Arc<[AtomicU64]>>| {
            let dst = {
                let mut s = self.lock();
                let i = s.attach(schema);
                s.shared(i)
            };
            if let Some(src) = src {
                schema.fold(&dst, &src);
            }
        };
        for i in 0.. {
            let part = other
                .lock()
                .parts
                .get(i)
                .map(|p| (p.schema, p.shared.clone()));
            let Some((schema, src)) = part else { break };
            fold(schema, src);
        }
        for i in 0.. {
            let writer = {
                let s = other.lock();
                s.writers
                    .get(i)
                    .map(|(part, cells)| (s.parts[*part].schema, cells.clone()))
            };
            let Some((schema, src)) = writer else { break };
            fold(schema, Some(src));
        }
        let mut last: Option<Arc<MetricId>> = None;
        loop {
            let next = entry_after(&other.lock().metrics, last.as_deref());
            let Some((id, keyed)) = next else { break };
            self.lock().fold_keyed(&id, &keyed);
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
        let mut s = self.lock();
        let mut snap = Snapshot::default();
        for i in 0..s.parts.len() {
            let schema = s.parts[i].schema;
            for (fam, set, cell) in schema.each_series() {
                let name = fam.name.to_string();
                let labels = set.iter().map(|&(k, v)| (k.into(), v.into())).collect();
                match fam.kind {
                    MetricKind::Counter => snap.counters.push(CounterSample {
                        name,
                        labels,
                        value: s.load(i, cell),
                    }),
                    MetricKind::Gauge => snap.gauges.push(GaugeSample {
                        name,
                        labels,
                        value: s.load(i, cell) as i64,
                    }),
                    MetricKind::Histogram => snap
                        .histograms
                        .push(Histogram::at(s.shared(i), cell).sample(name, labels)),
                }
            }
        }
        for (id, keyed) in &s.metrics {
            let (name, labels) = (id.name.clone(), id.labels.clone());
            let value = keyed.cells[0].load(Ordering::Relaxed);
            match keyed.kind {
                MetricKind::Counter => snap.counters.push(CounterSample {
                    name,
                    labels,
                    value,
                }),
                MetricKind::Gauge => snap.gauges.push(GaugeSample {
                    name,
                    labels,
                    value: value as i64,
                }),
                MetricKind::Histogram => snap
                    .histograms
                    .push(Histogram::at(keyed.cells.clone(), 0).sample(name, labels)),
            }
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

    /// Render a JSON snapshot (plain RFC 8259, parseable by any JSON
    /// reader).
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
    fn writers_are_summed_wherever_a_series_is_read() {
        let r = MetricRegistry::new();
        let early = r.counter("hits_total", &[]);
        early.add(5);
        let mut a = r.attach_writer(&PART);
        let mut b = r.attach_writer(&PART);
        // The early series moved into the part once, not once per writer.
        assert_eq!(r.len(), 4);
        let (hits, open) = (a.counter(0, 1), a.gauge(1, 0));
        a.add(hits, 2);
        b.inc(hits);
        a.shift(open, 4);
        b.shift(open, -1);
        r.attach(&PART).counter(0, 1).add(10);
        assert_eq!((a.get(hits), b.get(hits)), (2, 1));
        // Lookups, the exposition and a merge all read the sum.
        let looked_up = r.counter("hits_total", &[]);
        assert_eq!(looked_up.get(), 5 + 2 + 1 + 10);
        assert_eq!(r.gauge("open", &[]).get(), 3);
        let text = r.render_prometheus();
        assert!(text.contains("hits_total 18\n"), "{text}");
        assert!(text.contains("open 3\n"), "{text}");
        let merged = MetricRegistry::new();
        merged.merge_from(&r);
        assert_eq!(merged.render_prometheus(), text);
        // A lookup handle updates the series; setting a gauge through one
        // makes the sum what was set.
        looked_up.inc();
        a.inc(hits);
        assert_eq!(looked_up.get(), 20);
        r.gauge("open", &[]).set(-2);
        assert_eq!(r.gauge("open", &[]).get(), -2);
        b.shift(open, 1);
        assert_eq!(r.gauge("open", &[]).get(), -1);
        // Dropping a writer keeps what it counted.
        drop(a);
        assert_eq!(r.counter("hits_total", &[]).get(), 20);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn a_detached_writer_reports_nowhere() {
        let r = MetricRegistry::new();
        let mut w = PartWriter::detached(&PART);
        let hits = w.counter(0, 0);
        w.add(hits, 3);
        assert_eq!(w.get(hits), 3);
        assert!(r.is_empty());
    }

    #[test]
    fn concurrent_writers_render_and_merge_exactly() {
        // Writer threads each own a writer of one part in one registry
        // while another thread renders and merges the registry; every
        // read sums the writers, and the final sums are exact.
        const THREADS: u64 = 4;
        const ADDS: u64 = 20_000;
        let r = MetricRegistry::new();
        let done = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let writers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let mut w = r.attach_writer(&PART);
                    let r = &r;
                    s.spawn(move || {
                        let (hits, open) = (w.counter(0, 0), w.gauge(1, 0));
                        for i in 0..ADDS {
                            w.add(hits, t + 1);
                            w.shift(open, if i % 2 == 0 { 1 } else { -1 });
                        }
                        // A lookup on the writing thread sees at least
                        // its own count.
                        assert!(r.counter("hits_total", &[("shard", "x")]).get() >= (t + 1) * ADDS);
                    })
                })
                .collect();
            s.spawn(|| {
                let mut last = 0;
                while !done.load(Ordering::Relaxed) {
                    let _ = r.render_prometheus();
                    let m = MetricRegistry::new();
                    m.merge_from(&r);
                    // Each writer's cell only grows, so neither does a
                    // merged read go backwards.
                    let now = m.counter("hits_total", &[("shard", "x")]).get();
                    assert!(now >= last);
                    last = now;
                }
            });
            for w in writers {
                w.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
        });
        let total = ADDS * (1..=THREADS).sum::<u64>();
        assert_eq!(r.counter("hits_total", &[("shard", "x")]).get(), total);
        assert_eq!(r.gauge("open", &[]).get(), 0);
        let m = MetricRegistry::new();
        m.merge_from(&r);
        m.merge_from(&r);
        assert_eq!(m.counter("hits_total", &[("shard", "x")]).get(), 2 * total);
        assert_eq!(r.len(), 4);
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
