//! Smoke tests: every workload at a tiny scale, in both modes.

use std::process::Command;
use std::sync::Mutex;

const WORKLOADS: [&str; 3] = ["steady", "churn", "proof_storm"];

/// One benchmark at a time: the traced run compares its own timings, and
/// a concurrent run on the same cores would skew them.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Run the benchmark; returns its standard output. Panics unless it
/// exits 0.
fn run(workload: &str, seed: u64, trace: u8) -> String {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.5", "--trace", &trace.to_string()])
        .args(["--scale", "0.05"])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}"
    );
    stdout
}

/// The `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    let field = |obj: &str, key: &str| {
        let from = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[from..from + obj[from..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

/// The last line: the JSON result.
fn result(stdout: &str) -> &str {
    stdout.lines().last().expect("output has a result line")
}

#[test]
fn every_listed_metric_is_printed_with_its_unit() {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let metrics = listed(section);
        assert!(!metrics.is_empty());
        for workload in WORKLOADS {
            let stdout = run(workload, 7, trace);
            let json = result(&stdout);
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            for (name, unit) in &metrics {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = json
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing from {json}"));
                let rest = &json[at + entry.len()..];
                let unit_field = format!("\"unit\": \"{unit}\"}}");
                assert!(
                    rest[..rest.find('}').expect("entry closes") + 1].ends_with(&unit_field),
                    "{workload}: {name} not printed in {unit}"
                );
            }
            assert_eq!(
                json.matches("\"value\": ").count(),
                metrics.len(),
                "{workload}: metrics beyond BENCHMARK.json's {section}"
            );
        }
    }
}

/// The exact counts of a traced run: every `count` metric but the
/// scheduling-dependent work steals, plus allocations per packet.
fn exact_counts(stdout: &str) -> Vec<String> {
    stdout
        .lines()
        .filter(|l| l.starts_with("metric "))
        .filter(|l| l.ends_with(" count") || l.contains("allocs_per_pkt"))
        .filter(|l| !l.contains("fleet.steals"))
        .map(str::to_owned)
        .collect()
}

#[test]
fn one_seed_gives_identical_exact_counts() {
    for workload in WORKLOADS {
        let a = exact_counts(&run(workload, 11, 1));
        let b = exact_counts(&run(workload, 11, 1));
        assert!(a.iter().any(|l| l.contains("pipeline.rule_hit.count")));
        assert!(a.iter().any(|l| l.contains("audit.appends")));
        assert_eq!(a, b, "{workload}: counts differ between runs at one seed");
    }
    let storm = exact_counts(&run("proof_storm", 11, 1));
    let verified = storm
        .iter()
        .find(|l| l.contains("auth.verified"))
        .expect("proof count printed");
    assert!(!verified.ends_with(" 0 count"), "{verified}");
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nosuch",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
