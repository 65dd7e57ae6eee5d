//! Static metric schemas: metric families declared once, at compile
//! time, and attached to a registry as one block of cells.
//!
//! A [`SchemaPart`] is a `static` table of [`Family`] rows — name, help,
//! kind and every label set the family is exported with. Attaching it to
//! a [`MetricRegistry`](crate::MetricRegistry) allocates one zeroed cell
//! array for all of its series; [`PartCells`] hands out [`Counter`],
//! [`Gauge`] and [`Histogram`] handles that index into that array, so
//! building a component's telemetry costs one allocation instead of a
//! string-keyed registration per series, and merging two registries adds
//! their same-part arrays element by element.
//!
//! ```
//! use fiat_telemetry::{Family, MetricRegistry, SchemaPart};
//!
//! static PART: SchemaPart = SchemaPart::new(&[
//!     Family::counter("jobs_total", "Jobs run, by result.", &[
//!         &[("result", "ok")],
//!         &[("result", "failed")],
//!     ]),
//!     Family::gauge("queue_depth", "Jobs waiting.", &[&[]]),
//! ]);
//! const JOBS: usize = 0;
//! const DEPTH: usize = 1;
//!
//! let reg = MetricRegistry::new();
//! let cells = reg.attach(&PART);
//! cells.counter(JOBS, 1).inc();
//! cells.gauge(DEPTH, 0).set(3);
//! // String lookups of a declared series resolve to the same cell.
//! assert_eq!(reg.counter("jobs_total", &[("result", "failed")]).get(), 1);
//! assert_eq!(reg.len(), 3);
//! ```

use crate::metrics::{valid_name, Counter, Gauge, Histogram, HISTOGRAM_CELLS};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// What one series of a family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing counter (one cell).
    Counter,
    /// A gauge (one cell, two's-complement `i64`).
    Gauge,
    /// A log-linear histogram (count, sum, min, max and every bucket).
    Histogram,
}

impl MetricKind {
    /// Cells one series of this kind occupies.
    const fn cells(self) -> usize {
        match self {
            MetricKind::Histogram => HISTOGRAM_CELLS,
            MetricKind::Counter | MetricKind::Gauge => 1,
        }
    }
}

/// The label pairs of one series, sorted by key.
pub type LabelSet = &'static [(&'static str, &'static str)];

/// One metric family of a [`SchemaPart`].
#[derive(Debug)]
pub struct Family {
    /// Metric name.
    pub name: &'static str,
    /// Help text (the `# HELP` line).
    pub help: &'static str,
    /// Kind of every series in the family.
    pub kind: MetricKind,
    /// One label set per series. A family with none declares only its
    /// help text, for series created at run time by string lookup.
    pub series: &'static [LabelSet],
}

impl Family {
    /// A counter family.
    pub const fn counter(
        name: &'static str,
        help: &'static str,
        series: &'static [LabelSet],
    ) -> Self {
        Family {
            name,
            help,
            kind: MetricKind::Counter,
            series,
        }
    }

    /// A gauge family.
    pub const fn gauge(
        name: &'static str,
        help: &'static str,
        series: &'static [LabelSet],
    ) -> Self {
        Family {
            name,
            help,
            kind: MetricKind::Gauge,
            series,
        }
    }

    /// A histogram family.
    pub const fn histogram(
        name: &'static str,
        help: &'static str,
        series: &'static [LabelSet],
    ) -> Self {
        Family {
            name,
            help,
            kind: MetricKind::Histogram,
            series,
        }
    }
}

/// A static table of metric families, attached to a registry as one
/// cell array. Declare it as a `static`: a registry tells parts apart by
/// address, so attaching the same part twice shares its cells.
#[derive(Debug)]
pub struct SchemaPart {
    families: &'static [Family],
    cells: usize,
    series: usize,
}

impl SchemaPart {
    /// Validate and size a part at compile time: names and label keys
    /// must be valid Prometheus identifiers, each label set sorted by
    /// key with no key twice, and no label set repeated in a family.
    pub const fn new(families: &'static [Family]) -> Self {
        let mut cells = 0;
        let mut series = 0;
        let mut f = 0;
        while f < families.len() {
            let fam = &families[f];
            assert!(valid_name(fam.name), "invalid metric name in schema");
            let mut s = 0;
            while s < fam.series.len() {
                let set = fam.series[s];
                let mut l = 0;
                while l < set.len() {
                    assert!(valid_name(set[l].0), "invalid label key in schema");
                    assert!(
                        l == 0 || str_less(set[l - 1].0, set[l].0),
                        "schema label keys must be sorted and unique"
                    );
                    l += 1;
                }
                let mut t = 0;
                while t < s {
                    assert!(
                        !same_set(fam.series[t], set),
                        "schema family repeats a label set"
                    );
                    t += 1;
                }
                s += 1;
            }
            series += fam.series.len();
            cells += fam.series.len() * fam.kind.cells();
            f += 1;
        }
        SchemaPart {
            families,
            cells,
            series,
        }
    }

    /// The part's families, in declaration order.
    pub fn families(&self) -> &'static [Family] {
        self.families
    }

    /// Number of series (label sets over all families).
    pub fn series(&self) -> usize {
        self.series
    }

    /// Size of the part's cell array.
    pub(crate) fn cells(&self) -> usize {
        self.cells
    }

    /// Every series as `(family, labels, first cell)`, in declaration
    /// order.
    pub(crate) fn each_series(&self) -> impl Iterator<Item = (&'static Family, LabelSet, usize)> {
        let mut next = 0;
        self.families.iter().flat_map(move |fam| {
            let first = next;
            let width = fam.kind.cells();
            next += fam.series.len() * width;
            fam.series
                .iter()
                .enumerate()
                .map(move |(i, set)| (fam, *set, first + i * width))
        })
    }

    /// The kind and first cell of the series `name` with exactly these
    /// labels (in any order), if the part declares it.
    pub(crate) fn find<K: AsRef<str>, V: AsRef<str>>(
        &self,
        name: &str,
        labels: &[(K, V)],
    ) -> Option<(MetricKind, usize)> {
        self.each_series()
            .find(|(fam, set, _)| fam.name == name && labels_match(set, labels))
            .map(|(fam, _, cell)| (fam.kind, cell))
    }

    /// Fold `src` (cells of this part) into `dst`: counters and gauges
    /// add, histograms merge.
    pub(crate) fn fold(&self, dst: &[AtomicU64], src: &[AtomicU64]) {
        for (fam, _, cell) in self.each_series() {
            let width = fam.kind.cells();
            let (d, s) = (&dst[cell..cell + width], &src[cell..cell + width]);
            match fam.kind {
                MetricKind::Histogram => crate::metrics::fold_histogram(d, s),
                MetricKind::Counter | MetricKind::Gauge => crate::metrics::fold_cell(&d[0], &s[0]),
            }
        }
    }
}

/// The cells of one [`SchemaPart`] attached to a registry. Handles index
/// into the shared array, so every update stays one relaxed atomic op.
#[derive(Clone)]
pub struct PartCells {
    part: &'static SchemaPart,
    cells: Arc<[AtomicU64]>,
}

impl PartCells {
    pub(crate) fn new(part: &'static SchemaPart, cells: Arc<[AtomicU64]>) -> Self {
        PartCells { part, cells }
    }

    /// First cell of series `set` of family `family`, checking its kind.
    fn cell(&self, family: usize, set: usize, kind: MetricKind) -> usize {
        let fam = &self.part.families[family];
        assert_eq!(fam.kind, kind, "metric {:?} is a {:?}", fam.name, fam.kind);
        assert!(
            set < fam.series.len(),
            "metric {:?} has no label set {set}",
            fam.name
        );
        let before: usize = self.part.families[..family]
            .iter()
            .map(|f| f.series.len() * f.kind.cells())
            .sum();
        before + set * kind.cells()
    }

    /// The counter of series `set` of family `family` (indices in
    /// declaration order). Panics if the family is not a counter.
    pub fn counter(&self, family: usize, set: usize) -> Counter {
        Counter::at(
            self.cells.clone(),
            self.cell(family, set, MetricKind::Counter),
        )
    }

    /// The gauge of series `set` of family `family`. Panics if the family
    /// is not a gauge.
    pub fn gauge(&self, family: usize, set: usize) -> Gauge {
        Gauge::at(
            self.cells.clone(),
            self.cell(family, set, MetricKind::Gauge),
        )
    }

    /// The histogram of series `set` of family `family`. Panics if the
    /// family is not a histogram.
    pub fn histogram(&self, family: usize, set: usize) -> Histogram {
        Histogram::at(
            self.cells.clone(),
            self.cell(family, set, MetricKind::Histogram),
        )
    }
}

/// Whether `labels` (any order) are exactly the pairs of `set`.
fn labels_match<K: AsRef<str>, V: AsRef<str>>(set: LabelSet, labels: &[(K, V)]) -> bool {
    let has = |k: &str, v: &str| {
        labels
            .iter()
            .any(|(lk, lv)| lk.as_ref() == k && lv.as_ref() == v)
    };
    set.len() == labels.len() && set.iter().all(|&(k, v)| has(k, v))
}

const fn str_eq(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if a[i] != b[i] {
            return false;
        }
        i += 1;
    }
    true
}

const fn str_less(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut i = 0;
    while i < a.len() && i < b.len() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
        i += 1;
    }
    a.len() < b.len()
}

const fn same_set(a: LabelSet, b: LabelSet) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        if !str_eq(a[i].0, b[i].0) || !str_eq(a[i].1, b[i].1) {
            return false;
        }
        i += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    static PART: SchemaPart = SchemaPart::new(&[
        Family::counter("a_total", "A.", &[&[("k", "x")], &[("k", "y")]]),
        Family::histogram("lat_ns", "Latency.", &[&[]]),
        Family::gauge("depth", "Depth.", &[&[("a", "1"), ("b", "2")]]),
        Family::gauge("dynamic", "Help only.", &[]),
    ]);

    #[test]
    fn cells_follow_declaration_order() {
        assert_eq!(PART.series(), 4);
        assert_eq!(PART.cells(), 2 + HISTOGRAM_CELLS + 1);
        let cells: Vec<usize> = PART.each_series().map(|(_, _, c)| c).collect();
        assert_eq!(cells, vec![0, 1, 2, 2 + HISTOGRAM_CELLS]);
        assert_eq!(
            PART.find("a_total", &[("k", "y")]),
            Some((MetricKind::Counter, 1))
        );
        assert_eq!(
            PART.find("depth", &[("b", "2"), ("a", "1")]),
            Some((MetricKind::Gauge, 2 + HISTOGRAM_CELLS))
        );
        assert_eq!(PART.find("depth", &[("a", "1"), ("a", "1")]), None);
        assert_eq!(PART.find("a_total", &[("k", "z")]), None);
        assert_eq!(PART.find::<&str, &str>("dynamic", &[]), None);
    }

    #[test]
    fn const_string_helpers() {
        assert!(str_less("a", "b") && str_less("a", "ab") && !str_less("b", "a"));
        assert!(!str_less("a", "a"));
        assert!(str_eq("abc", "abc") && !str_eq("abc", "abd") && !str_eq("ab", "abc"));
    }

    #[test]
    #[should_panic(expected = "is a Counter")]
    fn handle_kind_is_checked() {
        let reg = crate::MetricRegistry::new();
        reg.attach(&PART).gauge(0, 0);
    }
}
