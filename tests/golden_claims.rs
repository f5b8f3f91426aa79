//! Golden paper-claims lockdown for the streaming analysis pipeline.
//!
//! A fixed-seed smoke-scale study is summarized by the streaming sinks and
//! compared against `tests/golden/smoke_summary.json`, a checked-in flat
//! `{"metric": number}` file. Counts must match exactly; derived fractions
//! and tail exponents get a small relative tolerance so that benign
//! floating-point reassociation (e.g. a different merge order) does not
//! churn the golden file.
//!
//! When a change legitimately moves the numbers — a workload tweak, a new
//! record kind — regenerate with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_claims
//! ```
//!
//! and review the diff like any other source change: it *is* the claim.

use std::collections::BTreeMap;
use std::path::PathBuf;

use nt_study::{ShardOptions, Study, StudyConfig};

const GOLDEN_SEED: u64 = 1999; // SOSP'99.

/// Exact-match metrics (event counts; integers in disguise).
const EXACT: &[&str] = &[
    "records",
    "names",
    "opens_ok",
    "opens_failed",
    "reads_ok",
    "writes_ok",
    "sessions",
    "arrival_gaps",
];

/// Tolerance for derived ratios, quantiles and tail exponents.
const REL_TOL: f64 = 0.05;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("smoke_summary.json")
}

/// Computes every locked metric from a fresh streaming run.
fn measure() -> BTreeMap<String, f64> {
    let config = StudyConfig::smoke_test(GOLDEN_SEED);
    let data = Study::run_sharded(&config, &ShardOptions::default()).data;
    let s = &data.summary;
    let mut m = BTreeMap::new();
    // Head counts — any drift here means the pipeline changed behaviour.
    m.insert("records".into(), s.records as f64);
    m.insert("names".into(), s.names as f64);
    m.insert("opens_ok".into(), s.ops.opens_ok as f64);
    m.insert("opens_failed".into(), s.ops.opens_failed as f64);
    m.insert("reads_ok".into(), s.ops.reads.0 as f64);
    m.insert("writes_ok".into(), s.ops.writes.0 as f64);
    m.insert("sessions".into(), s.sessions.all.len() as f64);
    m.insert("arrival_gaps".into(), s.arrivals.all.len() as f64);
    // §4–§8 claims, as reproduced at smoke scale.
    m.insert(
        "control_only_fraction".into(),
        s.ops.control_only_fraction(),
    );
    m.insert(
        "read_512_4096_fraction".into(),
        s.ops.read_512_4096_fraction(),
    );
    m.insert("open_fail_not_found".into(), s.ops.open_fail_not_found());
    m.insert(
        "fastio_read_fraction".into(),
        s.latency.fastio_read_fraction(),
    );
    m.insert("read_write_byte_ratio".into(), s.read_write_byte_ratio());
    m.insert(
        "session_median_ms".into(),
        s.sessions.all.median().unwrap_or(0.0),
    );
    m.insert(
        "short_session_fraction".into(),
        s.sessions.all.fraction_at_or_below(10.0),
    );
    m.insert(
        "active_second_fraction".into(),
        s.arrivals.active_second_fraction(),
    );
    m.insert("size_tail_alpha".into(), s.size_tail_alpha);
    m.insert("duration_tail_alpha".into(), s.duration_tail_alpha);
    m
}

/// Renders the metric map as the golden file's JSON.
fn render(metrics: &BTreeMap<String, f64>) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in metrics.iter().enumerate() {
        let comma = if i + 1 == metrics.len() { "" } else { "," };
        out.push_str(&format!("  \"{k}\": {v:.6}{comma}\n"));
    }
    out.push_str("}\n");
    out
}

/// Parses the flat `{"key": number}` golden file. Hand-rolled on purpose:
/// the workspace carries no JSON dependency and the format is fixed.
fn parse(text: &str) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((key, value)) = rest.split_once("\":") else {
            continue;
        };
        let value: f64 = value
            .trim()
            .parse()
            .unwrap_or_else(|e| panic!("bad golden value for {key}: {e}"));
        m.insert(key.to_string(), value);
    }
    m
}

#[test]
fn summary_matches_the_golden_claims() {
    let measured = measure();
    let path = golden_path();
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, render(&measured)).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = parse(&std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GOLDEN_REGEN=1",
            path.display()
        )
    }));
    assert_eq!(
        golden.keys().collect::<Vec<_>>(),
        measured.keys().collect::<Vec<_>>(),
        "metric sets diverge; regenerate with GOLDEN_REGEN=1 and review"
    );
    let mut failures = Vec::new();
    for (key, &want) in &golden {
        let got = measured[key];
        let ok = if EXACT.contains(&key.as_str()) {
            got == want
        } else if want == 0.0 {
            got.abs() < 1e-9
        } else {
            ((got - want) / want).abs() <= REL_TOL
        };
        if !ok {
            failures.push(format!("  {key}: golden {want} measured {got}"));
        }
    }
    assert!(
        failures.is_empty(),
        "golden claims drifted:\n{}\nIf intentional, GOLDEN_REGEN=1 and review the diff.",
        failures.join("\n")
    );
}

#[test]
fn golden_file_is_well_formed() {
    let golden = parse(&std::fs::read_to_string(golden_path()).expect("golden file is checked in"));
    assert!(golden.len() >= 15, "got {} metrics", golden.len());
    for (k, v) in &golden {
        assert!(v.is_finite(), "{k} is not finite");
    }
}
