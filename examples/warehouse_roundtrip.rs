//! The NTT trace warehouse end to end: export a live study into
//! versioned binary segments, re-ingest them into a fresh analysis run,
//! and prove the two are the same study — bit-identical streaming
//! aggregates and a directly-follows-graph similarity of exactly 1.0.
//! Then the other door in: importing a foreign (strace-style) text
//! trace into the same format.
//!
//! ```text
//! cargo run --release --example warehouse_roundtrip
//! ```

use nt_analysis::dfg::Dfg;
use nt_study::{ShardOptions, Study, StudyConfig};
use nt_warehouse::import_strace;

fn main() {
    let dir = std::env::temp_dir().join(format!("ntt-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- Export: a live smoke-scale study, teed into the warehouse. ---
    eprintln!("running a smoke-scale study with warehouse export ...");
    let config = StudyConfig::smoke_test(17);
    let options = ShardOptions {
        retain: true,
        warehouse: Some(dir.clone()),
        ..ShardOptions::default()
    };
    let live = Study::run_sharded(&config, &options).data;
    let stats = live.warehouse.as_ref().expect("export enabled");
    println!(
        "exported {} segments, {} records, {} bytes:",
        stats.len(),
        stats.iter().map(|s| s.records).sum::<u64>(),
        stats.iter().map(|s| s.bytes).sum::<u64>(),
    );
    for s in stats {
        println!(
            "  machine-{:05}.ntt  {:>6} records  {:>2} batches  {:>3} names  {:>8} bytes",
            s.machine, s.records, s.batches, s.names, s.bytes
        );
    }

    // --- Re-ingest: the stored segments through a fresh analysis. ---
    let ingest = Study::ingest_warehouse(&dir, &options).expect("warehouse re-ingests");
    println!(
        "\nre-ingested {} records from {} machines",
        ingest.records,
        ingest.machines.len()
    );

    let live_set = live.trace_set.expect("retained");
    let ingest_set = ingest.trace_set.expect("retained");
    let live_dfg = Dfg::of_trace_set(&live_set);
    let back_dfg = Dfg::of_trace_set(&ingest_set);
    println!(
        "records {} == {}, instances {} == {}",
        live_set.records.len(),
        ingest_set.records.len(),
        live_set.instances.len(),
        ingest_set.instances.len(),
    );
    println!(
        "directly-follows graphs: {} cases, {} edges, similarity {:.3}",
        live_dfg.cases,
        live_dfg.edges.len(),
        live_dfg.similarity(&back_dfg)
    );
    assert_eq!(live_dfg.similarity(&back_dfg), 1.0);
    println!("busiest transitions:");
    for ((from, to), count) in live_dfg.top_edges(5) {
        println!("  {from:>2} -> {to:>2}  x{count}");
    }

    // --- Import: a foreign strace-style trace becomes a segment. ---
    let strace = "\
1723111200.000100 openat(AT_FDCWD, \"/var/log/app.log\", O_WRONLY|O_CREAT) = 3\n\
1723111200.000900 write(3, \"...\", 512) = 512\n\
1723111200.001700 write(3, \"...\", 2048) = 2048\n\
1723111200.002500 close(3) = 0\n\
1723111200.003300 openat(AT_FDCWD, \"/etc/app/missing.conf\", O_RDONLY) = -1 ENOENT (No such file or directory)\n\
not a trace line at all\n";
    let import = import_strace(strace.as_bytes(), 900);
    println!(
        "\nstrace import: {} lines, {} imported, {} skipped ({} without a timestamp) -> {} NTT bytes",
        import.ledger.lines,
        import.ledger.imported,
        import.ledger.skipped(),
        import.ledger.bad_timestamp,
        import.segment.len()
    );
    assert!(import.ledger.reconciles(), "every line accounted for");

    let _ = std::fs::remove_dir_all(&dir);
}
