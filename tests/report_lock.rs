//! Report lockdown: the rendered text of every table, figure and section.
//!
//! `tests/golden/smoke_report.txt` holds `report::full_report` of the batch
//! reference run `Study::run(&StudyConfig::smoke_test(17))`, byte for byte.
//! The report is pure formatting over the fact tables and per-machine
//! counters, so any change to how those are built or analysed — including
//! the order a parallel build or a parallel analysis fan-out assembles them
//! in — shows up here as a text diff.
//!
//! A retained sharded run rebuilds the same fact tables from its shards, so
//! its report must equal the batch run's at any shard count.
//!
//! When a change legitimately moves the report, regenerate with:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test report_lock
//! ```
//!
//! and review the diff like any other source change.

use std::path::PathBuf;
use std::sync::OnceLock;

use nt_study::{report, ShardOptions, Study, StudyConfig, StudyData};

const SEED: u64 = 17;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("smoke_report.txt")
}

fn batch_report() -> &'static str {
    static REPORT: OnceLock<String> = OnceLock::new();
    REPORT.get_or_init(|| report::full_report(&Study::run(&StudyConfig::smoke_test(SEED))))
}

/// A retained sharded run seen as batch study data.
fn sharded_report(shards: usize) -> String {
    let config = StudyConfig::smoke_test(SEED);
    let options = ShardOptions {
        shards,
        retain: true,
        ..ShardOptions::default()
    };
    let d = Study::run_sharded(&config, &options).data;
    report::full_report(&StudyData {
        config: d.config,
        trace_set: d.trace_set.expect("retain keeps the trace set"),
        machines: d.machines,
        total_records: d.total_records,
        stored_bytes: d.stored_bytes,
        profile: d.profile,
    })
}

#[test]
fn smoke_report_matches_the_golden_text() {
    let text = batch_report();
    let path = golden_path();
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, text).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with GOLDEN_REGEN=1",
            path.display()
        )
    });
    if golden != text {
        let (line, (want, got)) = golden
            .lines()
            .zip(text.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((golden.lines().count().min(text.lines().count()), ("", "")));
        panic!(
            "report drifted from {} at line {}:\n  golden: {want}\n  now:    {got}\n\
             If intentional, GOLDEN_REGEN=1 and review the diff.",
            path.display(),
            line + 1
        );
    }
}

#[test]
fn retained_sharded_reports_equal_the_batch_report() {
    for shards in [1, 3] {
        assert!(
            sharded_report(shards) == batch_report(),
            "the retained {shards}-shard run renders a different report from the batch run"
        );
    }
}
