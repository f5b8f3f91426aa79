//! The FastIO-fallback rule, proven at fleet scale.
//!
//! A filter driver that declines the FastIO entry points forces every
//! procedural call down its documented IRP fallback (§10). The study's
//! `force_irp_fallback` switch attaches such a filter
//! ([`FastIoVeto`](nt_io::FastIoVeto)) to every machine; these tests pin
//! the two properties that make the switch an observation rather than an
//! ablation:
//!
//! * the fact tables of a vetoed run equal the baseline's **modulo the
//!   `EventKind` relabelling** — same timestamps, same transfers, same
//!   open/close instances once both sides are reduced to the IRP
//!   vocabulary; and
//! * the conservation ledgers still reconcile on the faulted fleet,
//!   because the accounting treats the FastIO and IRP paths as two
//!   legs of the same dispatch account.

use std::collections::HashMap;

use nt_analysis::TraceSet;
use nt_io::{irp_fallback, EventKind};
use nt_study::{FaultPlan, ShardOptions, Study, StudyConfig};
use nt_trace::{NameRecord, TraceRecord};

/// The faulted 45-machine fleet (the determinism suite's locked shape).
fn fleet(seed: u64) -> StudyConfig {
    let mut config = StudyConfig::paper_scale(seed);
    config.duration = nt_sim::SimDuration::from_secs(600);
    config.snapshot_interval = nt_sim::SimDuration::from_secs(300);
    config.files_per_volume = 1_200;
    config.web_cache_files = 150;
    config.faults = FaultPlan::lossy();
    config
}

/// Rewrites a record's event-kind code to its IRP fallback; IRP records
/// pass through untouched.
fn to_irp_vocabulary(mut rec: TraceRecord) -> TraceRecord {
    if let Some(EventKind::FastIo(kind)) = EventKind::from_code(rec.code) {
        rec.code = EventKind::Irp(irp_fallback(kind)).code();
    }
    rec
}

/// Rebuilds the fact tables from a record table and name dimension, so
/// both runs' instances derive from the same, order-stable procedure.
fn rebuild(records: &[(u32, TraceRecord)], names: &HashMap<(u32, u64), String>) -> TraceSet {
    let mut per_machine: HashMap<u32, Vec<TraceRecord>> = HashMap::new();
    for (m, r) in records {
        per_machine.entry(*m).or_default().push(*r);
    }
    let mut machines: Vec<u32> = per_machine.keys().copied().collect();
    machines.sort_unstable();
    TraceSet::build(machines.into_iter().map(|m| {
        let recs = per_machine.remove(&m).unwrap_or_default();
        let name_recs: Vec<NameRecord> = names
            .iter()
            .filter(|((nm, _), _)| *nm == m)
            .map(|((_, fo), path)| NameRecord {
                file_object: *fo,
                volume: 0,
                process: 0,
                path: path.clone(),
                at_ticks: 0,
            })
            .collect();
        (m, recs, name_recs)
    }))
}

#[test]
fn forced_irp_fallback_matches_the_baseline_modulo_event_kind() {
    let baseline = Study::run(&fleet(4_242));
    let mut veto_config = fleet(4_242);
    veto_config.force_irp_fallback = true;
    let vetoed = Study::run(&veto_config);

    assert_eq!(
        baseline.total_records, vetoed.total_records,
        "the veto relabels records, it never adds or removes one"
    );
    assert!(
        baseline
            .trace_set
            .records
            .iter()
            .any(|(_, r)| matches!(EventKind::from_code(r.code), Some(EventKind::FastIo(_)))),
        "the baseline exercises the FastIO path"
    );
    assert!(
        vetoed
            .trace_set
            .records
            .iter()
            .all(|(_, r)| !matches!(EventKind::from_code(r.code), Some(EventKind::FastIo(_)))),
        "no FastIO record survives the veto"
    );

    // Reduce the baseline to the IRP vocabulary; the record tables must
    // then agree byte for byte — same machines, timestamps, offsets,
    // transfers and statuses.
    let remapped: Vec<(u32, TraceRecord)> = baseline
        .trace_set
        .records
        .iter()
        .map(|(m, r)| (m, to_irp_vocabulary(r)))
        .collect();
    let vetoed_rows: Vec<(u32, TraceRecord)> = vetoed.trace_set.records.iter().collect();
    assert!(
        remapped == vetoed_rows,
        "record tables diverge beyond the EventKind relabelling \
         ({} baseline vs {} vetoed rows)",
        remapped.len(),
        vetoed_rows.len()
    );
    assert_eq!(
        baseline.trace_set.names, vetoed.trace_set.names,
        "name dimension"
    );

    // The instance table aggregates per-kind counters (fastio_reads and
    // friends), so rebuild both sides from their IRP-vocabulary records
    // with the same procedure before comparing.
    let base_rebuilt = rebuild(&remapped, &baseline.trace_set.names);
    let veto_rebuilt = rebuild(&vetoed_rows, &vetoed.trace_set.names);
    assert!(
        base_rebuilt.instances == veto_rebuilt.instances,
        "instance tables diverge ({} baseline vs {} vetoed rows)",
        base_rebuilt.instances.len(),
        veto_rebuilt.instances.len()
    );
    assert!(
        veto_rebuilt
            .instances
            .iter()
            .all(|i| i.fastio_reads == 0 && i.fastio_writes == 0),
        "the IRP vocabulary has no FastIO-served operations"
    );
}

#[test]
fn conservation_still_balances_under_the_veto() {
    let mut config = fleet(97);
    config.force_irp_fallback = true;
    let audited = Study::run_sharded_audited(&config, &ShardOptions::default())
        .expect("every ledger reconciles with the veto attached");
    let lost: u64 = audited
        .data
        .data
        .machines
        .iter()
        .map(|m| m.loss.lost())
        .sum();
    assert!(lost > 0, "the lossy plan dropped records");
    assert_eq!(audited.ledgers.len(), 45, "one ledger per machine");
}
