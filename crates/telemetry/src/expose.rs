//! Exposition: point-in-time snapshots rendered as Prometheus text or
//! JSON.
//!
//! Both formats are generated without any serialization dependency. The
//! JSON is plain RFC 8259 output (objects with sorted, deterministic
//! ordering) that any JSON reader parses directly;
//! the text format follows the Prometheus exposition conventions
//! (`# HELP`/`# TYPE` headers, `_bucket`/`_sum`/`_count` histogram
//! series with cumulative inclusive `le` bounds).

use std::collections::BTreeMap;
use std::fmt::Write;

/// One counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Counter value.
    pub value: u64,
}

/// One gauge's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Gauge value.
    pub value: i64,
}

/// One histogram's state at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Sorted label pairs.
    pub labels: Vec<(String, String)>,
    /// Number of samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Exact smallest sample (0 when empty).
    pub min: u64,
    /// Exact largest sample (0 when empty).
    pub max: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Non-empty buckets as `(inclusive_upper_bound, cumulative_count)`.
    pub buckets: Vec<(u64, u64)>,
}

/// A point-in-time copy of a registry's metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All counters, ordered by name then labels.
    pub counters: Vec<CounterSample>,
    /// All gauges, ordered by name then labels.
    pub gauges: Vec<GaugeSample>,
    /// All histograms, ordered by name then labels.
    pub histograms: Vec<HistogramSample>,
    /// Help text per metric name.
    pub help: BTreeMap<String, String>,
}

/// Escape a string for a JSON string literal (quotes not included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn json_labels(labels: &[(String, String)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
    }
    out.push('}');
    out
}

/// Escape a label value for the Prometheus text format: backslash,
/// double-quote, and line feed, in that order (escaping `\` first keeps
/// the later passes from re-escaping their own output).
fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Escape `# HELP` text for the Prometheus text format. HELP lines use a
/// smaller alphabet than label values: only backslash and line feed are
/// escaped (quotes stay literal).
fn prom_help_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

fn prom_labels(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", prom_escape(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

impl Snapshot {
    /// Render as Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_header: Option<(String, &str)> = None;
        let mut header =
            |out: &mut String, name: &str, kind: &'static str, help: &BTreeMap<String, String>| {
                if last_header
                    .as_ref()
                    .is_some_and(|(n, k)| n == name && *k == kind)
                {
                    return;
                }
                if let Some(h) = help.get(name) {
                    let _ = writeln!(out, "# HELP {name} {}", prom_help_escape(h));
                }
                let _ = writeln!(out, "# TYPE {name} {kind}");
                last_header = Some((name.to_string(), kind));
            };

        for c in &self.counters {
            header(&mut out, &c.name, "counter", &self.help);
            let _ = writeln!(
                out,
                "{}{} {}",
                c.name,
                prom_labels(&c.labels, None),
                c.value
            );
        }
        for g in &self.gauges {
            header(&mut out, &g.name, "gauge", &self.help);
            let _ = writeln!(
                out,
                "{}{} {}",
                g.name,
                prom_labels(&g.labels, None),
                g.value
            );
        }
        for h in &self.histograms {
            header(&mut out, &h.name, "histogram", &self.help);
            for (le, cum) in &h.buckets {
                let _ = writeln!(
                    out,
                    "{}_bucket{} {}",
                    h.name,
                    prom_labels(&h.labels, Some(("le", &le.to_string()))),
                    cum
                );
            }
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                h.name,
                prom_labels(&h.labels, Some(("le", "+Inf"))),
                h.count
            );
            let _ = writeln!(
                out,
                "{}_sum{} {}",
                h.name,
                prom_labels(&h.labels, None),
                h.sum
            );
            let _ = writeln!(
                out,
                "{}_count{} {}",
                h.name,
                prom_labels(&h.labels, None),
                h.count
            );
        }
        out
    }

    /// Render as a JSON document:
    ///
    /// ```json
    /// {
    ///   "counters":   [{"name":"...","labels":{...},"value":0}],
    ///   "gauges":     [{"name":"...","labels":{...},"value":0}],
    ///   "histograms": [{"name":"...","labels":{...},"count":0,"sum":0,
    ///                   "min":0,"max":0,"p50":0,"p90":0,"p99":0,
    ///                   "buckets":[[15,3],[31,9]]}]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":[");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
                json_escape(&c.name),
                json_labels(&c.labels),
                c.value
            );
        }
        out.push_str("],\"gauges\":[");
        for (i, g) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"labels\":{},\"value\":{}}}",
                json_escape(&g.name),
                json_labels(&g.labels),
                g.value
            );
        }
        out.push_str("],\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"labels\":{},\"count\":{},\"sum\":{},\
                 \"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                json_escape(&h.name),
                json_labels(&h.labels),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p90,
                h.p99,
            );
            for (j, (le, cum)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{le},{cum}]");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricRegistry;

    fn sample_registry() -> MetricRegistry {
        let r = MetricRegistry::new();
        r.describe("decisions_total", "Packets decided, by reason.");
        r.counter("decisions_total", &[("reason", "rule_hit")])
            .add(7);
        r.counter("decisions_total", &[("reason", "bootstrap")])
            .add(2);
        r.gauge("rules", &[]).set(5);
        let h = r.histogram("stage_us", &[("stage", "classify")]);
        h.record(3);
        h.record(20);
        h.record(20);
        r
    }

    #[test]
    fn prometheus_format_shape() {
        let text = sample_registry().render_prometheus();
        assert!(text.contains("# HELP decisions_total Packets decided, by reason."));
        assert!(text.contains("# TYPE decisions_total counter"));
        // One header for both label sets.
        assert_eq!(text.matches("# TYPE decisions_total counter").count(), 1);
        assert!(text.contains("decisions_total{reason=\"rule_hit\"} 7"));
        assert!(text.contains("decisions_total{reason=\"bootstrap\"} 2"));
        assert!(text.contains("# TYPE rules gauge"));
        assert!(text.contains("rules 5"));
        assert!(text.contains("# TYPE stage_us histogram"));
        assert!(text.contains("stage_us_bucket{stage=\"classify\",le=\"3\"} 1"));
        assert!(text.contains("stage_us_bucket{stage=\"classify\",le=\"+Inf\"} 3"));
        assert!(text.contains("stage_us_sum{stage=\"classify\"} 43"));
        assert!(text.contains("stage_us_count{stage=\"classify\"} 3"));
    }

    #[test]
    fn json_is_deterministic_and_complete() {
        let a = sample_registry().render_json();
        let b = sample_registry().render_json();
        assert_eq!(a, b);
        assert!(a.contains("\"name\":\"decisions_total\""));
        assert!(a.contains("\"labels\":{\"reason\":\"rule_hit\"},\"value\":7"));
        assert!(a.contains("\"count\":3,\"sum\":43"));
        assert!(a.contains("\"p50\":"));
        assert!(a.starts_with("{\"counters\":["));
        assert!(a.ends_with("]}"));
    }

    #[test]
    fn prometheus_label_value_escaping_golden_vectors() {
        // Golden vectors from the Prometheus exposition-format spec:
        // label values escape backslash, double-quote, and line feed.
        for (raw, escaped) in [
            ("plain", "plain"),
            ("back\\slash", "back\\\\slash"),
            ("quo\"te", "quo\\\"te"),
            ("line\nfeed", "line\\nfeed"),
            ("\\n", "\\\\n"),                 // literal backslash-n, not a newline
            ("\\\"\n", "\\\\\\\"\\n"),        // all three, adjacent
            ("tab\tand\rcr", "tab\tand\rcr"), // only \ " \n are special
        ] {
            assert_eq!(prom_escape(raw), escaped, "raw = {raw:?}");
        }
        // End to end: the escaped value appears inside the series line.
        let r = MetricRegistry::new();
        r.counter("c", &[("k", "a\\b\"c\nd")]).inc();
        let text = r.render_prometheus();
        assert!(text.contains("c{k=\"a\\\\b\\\"c\\nd\"} 1"), "{text}");
        // The rendered document stays one-series-per-line.
        assert_eq!(text.lines().count(), 2); // TYPE header + series
    }

    #[test]
    fn prometheus_help_escaping() {
        // HELP text escapes backslash and line feed only; quotes are
        // literal. A multi-line help string must still render as a
        // single HELP line.
        let r = MetricRegistry::new();
        r.describe("m", "line one\nline \"two\" with \\ backslash");
        r.gauge("m", &[]).set(1);
        let text = r.render_prometheus();
        assert!(
            text.contains("# HELP m line one\\nline \"two\" with \\\\ backslash\n"),
            "{text}"
        );
        assert_eq!(text.lines().count(), 3); // HELP + TYPE + series
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        let r = MetricRegistry::new();
        r.counter("c", &[("k", "quote\"backslash\\")]).inc();
        let json = r.render_json();
        assert!(json.contains("\"k\":\"quote\\\"backslash\\\\\""));
    }

    #[test]
    fn json_parses_with_a_tiny_validator() {
        // Structural sanity without a JSON dependency: balanced braces and
        // brackets outside strings, and no trailing garbage.
        let json = sample_registry().render_json();
        let mut depth: i64 = 0;
        let mut in_str = false;
        let mut escaped = false;
        for c in json.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn empty_registry_renders_empty_documents() {
        let r = MetricRegistry::new();
        assert_eq!(
            r.render_json(),
            "{\"counters\":[],\"gauges\":[],\"histograms\":[]}"
        );
        assert_eq!(r.render_prometheus(), "");
    }
}
