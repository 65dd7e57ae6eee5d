//! Schema-versioned performance-trajectory records (`BENCH_fleet.json`).
//!
//! One benchmark run is one appended record; the file is the repo's
//! memory of how fleet throughput moves as the runtime changes. The
//! document is a single JSON object — `{"schema": 1, "records": [...]}`
//! — with one record per line inside the array so diffs stay readable.
//!
//! Records are built as the harness's own JSON `Value` trees and rendered
//! through its one renderer, so reading the committed file and writing
//! it back reproduces it byte for byte.

use crate::json::{self, Value};
use std::path::Path;

/// Default trajectory file, at the repo root next to the other
/// `BENCH_*.json` material.
pub const BENCH_FLEET_PATH: &str = "BENCH_fleet.json";

/// Document schema version; bump on incompatible record changes.
pub const SCHEMA_VERSION: u64 = 1;

/// One swept shard count inside a record.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Worker threads used.
    pub shards: usize,
    /// Packets decided across all homes.
    pub packets: u64,
    /// Wall time of the run, milliseconds.
    pub wall_ms: f64,
    /// Throughput, packets per second.
    pub pps: f64,
}

/// One benchmark run: where the numbers came from and what they were.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Civil date (`YYYY-MM-DD`, UTC) the record was taken.
    pub date: String,
    /// Producer: `"seed"` (imported baseline), `"fleet"`
    /// (`experiments fleet`), `"profile"` (`experiments profile`), or
    /// `"soak"` (`experiments soak`, the long-horizon bounded-state
    /// soak).
    pub source: &'static str,
    /// Free-form context (e.g. what baseline a seed record imports).
    pub note: Option<String>,
    /// RNG seed the corpus was built from.
    pub seed: u64,
    /// Homes in the corpus.
    pub homes: usize,
    /// Capture length per home, days.
    pub days: f64,
    /// Swept shard counts, in sweep order.
    pub rows: Vec<BenchRow>,
    /// Per-stage share of shard wall time (every `fleet`/`profile`
    /// sweep; empty for seed and soak records). Keys are
    /// [`fiat_probe::Stage`] names.
    pub stages: Vec<(String, f64)>,
    /// The ranked bottleneck line (every `fleet`/`profile` sweep).
    pub bottleneck: Option<String>,
}

impl BenchRecord {
    fn to_value(&self) -> Value {
        let mut obj: Vec<(String, Value)> = vec![
            ("date".into(), Value::Str(self.date.clone())),
            ("source".into(), Value::Str(self.source.into())),
        ];
        if let Some(note) = &self.note {
            obj.push(("note".into(), Value::Str(note.clone())));
        }
        obj.push(("seed".into(), Value::U64(self.seed)));
        obj.push(("homes".into(), Value::U64(self.homes as u64)));
        obj.push(("days".into(), Value::F64(self.days)));
        obj.push((
            "rows".into(),
            Value::Arr(
                self.rows
                    .iter()
                    .map(|r| {
                        Value::Obj(vec![
                            ("shards".into(), Value::U64(r.shards as u64)),
                            ("packets".into(), Value::U64(r.packets)),
                            ("wall_ms".into(), Value::F64(r.wall_ms)),
                            ("pps".into(), Value::F64(r.pps)),
                        ])
                    })
                    .collect(),
            ),
        ));
        if !self.stages.is_empty() {
            obj.push((
                "stages".into(),
                Value::Obj(
                    self.stages
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::F64(*v)))
                        .collect(),
                ),
            ));
        }
        if let Some(b) = &self.bottleneck {
            obj.push(("bottleneck".into(), Value::Str(b.clone())));
        }
        Value::Obj(obj)
    }
}

/// Today's civil date (`YYYY-MM-DD`, UTC), derived from the system clock
/// with the days-to-civil algorithm — no date dependency.
pub fn today_utc() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let (y, m, d) = civil_from_days((secs / 86_400) as i64);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Proleptic-Gregorian civil date from days since 1970-01-01
/// (Hinnant's `civil_from_days`).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = (z - era * 146_097) as u64;
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

fn render_document(records: &[Value]) -> String {
    let mut out = format!("{{\"schema\":{SCHEMA_VERSION},\n \"records\":[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str("  ");
        r.write_to(&mut out);
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(" ]}\n");
    out
}

/// Load and validate the trajectory document, returning its records.
/// A missing file is an empty trajectory, not an error.
pub(crate) fn load_fleet_records(path: &Path) -> Result<Vec<Value>, String> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let doc = json::parse(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    let obj = doc
        .as_obj()
        .ok_or_else(|| format!("{}: expected a JSON object", path.display()))?;
    match Value::field(obj, "schema") {
        Some(Value::U64(SCHEMA_VERSION)) => {}
        other => {
            return Err(format!(
                "{}: unsupported schema {other:?} (want {SCHEMA_VERSION})",
                path.display()
            ))
        }
    }
    Ok(Value::field(obj, "records")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: missing records array", path.display()))?
        .to_vec())
}

/// Append one record to the trajectory file, creating it if absent.
/// Refuses (rather than clobbers) a file with an unknown schema.
pub fn append_fleet_record(path: &Path, record: &BenchRecord) -> Result<(), String> {
    let mut records = load_fleet_records(path)?;
    records.push(record.to_value());
    std::fs::write(path, render_document(&records)).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(source: &'static str) -> BenchRecord {
        BenchRecord {
            date: "2026-08-08".into(),
            source,
            note: Some("unit test".into()),
            seed: 42,
            homes: 4,
            days: 1.0,
            rows: vec![
                BenchRow {
                    shards: 1,
                    packets: 206_291,
                    wall_ms: 88.3,
                    pps: 2_336_728.0,
                },
                BenchRow {
                    shards: 2,
                    packets: 206_291,
                    wall_ms: 83.2,
                    pps: 2_479_251.0,
                },
            ],
            stages: vec![("decide".into(), 0.93), ("merge".into(), 0.04)],
            bottleneck: Some("top suspected bottleneck: merge 4.0% — x".into()),
        }
    }

    /// The committed trajectory at the repo root.
    const COMMITTED: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");

    #[test]
    fn committed_trajectory_renders_byte_for_byte() {
        let text = std::fs::read_to_string(COMMITTED).unwrap();
        let records = load_fleet_records(Path::new(COMMITTED)).unwrap();
        assert_eq!(render_document(&records), text);
        // Integer-valued `days` and `pps` come back as written.
        assert!(text.contains("\"days\":1,"));
        assert!(text.contains("\"pps\":2336728}"));
    }

    #[test]
    fn appending_a_fixed_record_adds_a_fixed_line() {
        let dir = std::env::temp_dir().join("fiat_bench_log_append_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_fleet.json");
        let before = std::fs::read_to_string(COMMITTED).unwrap();
        std::fs::write(&path, &before).unwrap();
        let mut rec = record("fleet");
        rec.note = Some("tab\t \"quoted\" back\\slash".into());
        append_fleet_record(&path, &rec).unwrap();

        let body = before.strip_suffix("\n ]}\n").unwrap();
        let line = concat!(
            r#"{"date":"2026-08-08","source":"fleet","note":"tab\t \"quoted\" back\\slash","#,
            r#""seed":42,"homes":4,"days":1,"rows":[{"shards":1,"packets":206291,"#,
            r#""wall_ms":88.3,"pps":2336728},{"shards":2,"packets":206291,"wall_ms":83.2,"#,
            r#""pps":2479251}],"stages":{"decide":0.93,"merge":0.04},"#,
            r#""bottleneck":"top suspected bottleneck: merge 4.0% — x"}"#,
        );
        let after = std::fs::read_to_string(&path).unwrap();
        assert_eq!(after, format!("{body},\n  {line}\n ]}}\n"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn too_deep_a_document_is_refused_not_clobbered() {
        let dir = std::env::temp_dir().join("fiat_bench_log_depth_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_fleet.json");
        let before = "[".repeat(100_000);
        std::fs::write(&path, &before).unwrap();
        assert!(load_fleet_records(&path).is_err());
        assert!(append_fleet_record(&path, &record("fleet")).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn civil_dates_are_correct() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1)); // leap year start
        assert_eq!(civil_from_days(20_663), (2026, 7, 29));
        let today = today_utc();
        assert_eq!(today.len(), 10);
        assert_eq!(today.as_bytes()[4], b'-');
    }

    #[test]
    fn append_creates_validates_and_accumulates() {
        let dir = std::env::temp_dir().join("fiat_bench_log_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_fleet.json");
        let _ = std::fs::remove_file(&path);

        assert!(load_fleet_records(&path).unwrap().is_empty());
        append_fleet_record(&path, &record("seed")).unwrap();
        append_fleet_record(&path, &record("profile")).unwrap();

        let records = load_fleet_records(&path).unwrap();
        assert_eq!(records.len(), 2);
        let first = records[0].as_obj().unwrap();
        assert!(matches!(
            Value::field(first, "source"),
            Some(Value::Str(s)) if s == "seed"
        ));
        let rows = Value::field(first, "rows").and_then(Value::as_arr).unwrap();
        assert_eq!(rows.len(), 2);
        let row0 = rows[0].as_obj().unwrap();
        assert!(matches!(
            Value::field(row0, "packets"),
            Some(Value::U64(206_291))
        ));
        // Profile extras survive the round trip.
        let second = records[1].as_obj().unwrap();
        assert!(Value::field(second, "stages").is_some());
        assert!(Value::field(second, "bottleneck").is_some());
        // One record per line between the two-line header and the footer.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 3 + records.len());

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unknown_schema_is_refused_not_clobbered() {
        let dir = std::env::temp_dir().join("fiat_bench_log_schema_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_fleet.json");
        std::fs::write(&path, "{\"schema\":99,\"records\":[]}").unwrap();
        let before = std::fs::read_to_string(&path).unwrap();
        assert!(append_fleet_record(&path, &record("fleet")).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), before);
        let _ = std::fs::remove_file(&path);
    }
}
