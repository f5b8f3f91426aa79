//! Conservation audits and differential cross-checks of the pipeline.
//!
//! The paper's tables are accounting identities over ~190 M records, so
//! the reproduction carries its own bookkeeping: every simulator layer
//! posts debits and credits into [`nt_audit::Ledger`]s —
//! one per machine, one per shard collector, plus one fleet-global — and
//! [`Study::run_sharded_audited`] reconciles them at end of run, failing loudly
//! with the first unbalanced account instead of silently rendering
//! drifted tables. The accounts tie the layers to each other:
//!
//! - the I/O dispatcher's request counts against its §10 path split
//!   (FastIO / IRP / lock conflicts / stat failures);
//! - paging I/O counts and bytes against their originators (cache demand
//!   misses + read-ahead + VM section faults; lazy writer + flushes);
//! - the cache's requested bytes against both the dispatcher's view and
//!   the cache's own hit/resident/pending split;
//! - every newly dirtied byte against its exit route (lazy write, flush,
//!   purge, or residue still dirty at shutdown);
//! - trace events emitted against the agent's intake, the agent's intake
//!   against delivery + loss, delivery against records analysed, and the
//!   per-machine deliveries against the pool's global total.
//!
//! On top sits [`differential_check`]: the same configuration is run
//! through the batch reference path, the streaming driver (with
//! retained fact tables, at a chosen shard count), and trace replay, and
//! the resulting fact tables and replay behaviour are compared row by
//! row — at whatever scale (and under whatever fault plan) the caller
//! configures.

use std::collections::BTreeMap;
use std::fmt;

use nt_audit::{accounts, Imbalance, Ledger};

use nt_analysis::whatif::ReplayFacts;

use crate::config::StudyConfig;
use crate::replay::{replay, ReplayConfig};
use crate::shard::{ShardOptions, ShardedStudyData};
use crate::study::{StreamedStudyData, Study, StudyFault};

/// Why [`Study::run_sharded_audited`] failed.
#[derive(Debug)]
pub enum AuditFailure {
    /// The run itself did not complete (worker or collector panic).
    Study(StudyFault),
    /// The run completed but a conservation account did not balance.
    Drift {
        /// The first unbalanced account.
        imbalance: Imbalance,
        /// The full report of the ledger that failed, for diagnosis.
        report: String,
    },
}

impl fmt::Display for AuditFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditFailure::Study(fault) => fault.fmt(f),
            AuditFailure::Drift { imbalance, report } => {
                write!(f, "{imbalance}\n{report}")
            }
        }
    }
}

impl std::error::Error for AuditFailure {}

impl From<StudyFault> for AuditFailure {
    fn from(fault: StudyFault) -> Self {
        AuditFailure::Study(fault)
    }
}

/// Builds the per-machine and fleet ledgers from a finished run by
/// letting each layer post its own side of every account.
fn build_ledgers(data: &StreamedStudyData) -> (Vec<Ledger>, Ledger) {
    let analysed: BTreeMap<u32, u64> = data.summary.machine_records.iter().copied().collect();
    let mut ledgers = Vec::with_capacity(data.machines.len());
    let mut fleet = Ledger::new("fleet");
    for m in &data.machines {
        let mut ledger = Ledger::new(format!("machine-{}", m.id.0));
        m.io.post_conservation(&mut ledger);
        m.cache
            .post_conservation(m.residual_dirty_bytes, &mut ledger);
        m.vm.post_conservation(&mut ledger);
        m.loss.post_conservation(&mut ledger);
        ledger.credit(
            accounts::ANALYSIS_RECORDS,
            analysed.get(&m.id.0).copied().unwrap_or(0),
        );
        fleet.debit(accounts::POOL_RECORDS, m.loss.delivered);
        ledgers.push(ledger);
    }
    fleet.credit(accounts::POOL_RECORDS, data.total_records as u64);
    (ledgers, fleet)
}

/// A sharded study with reconciled conservation ledgers at every tier:
/// machine, shard collector, and fleet root.
pub struct ShardedAudit {
    /// The study output (sharded streaming pipeline).
    pub data: ShardedStudyData,
    /// One reconciled ledger per machine, in machine order.
    pub ledgers: Vec<Ledger>,
    /// One reconciled ledger per shard collector, in shard order.
    pub shard_ledgers: Vec<Ledger>,
    /// The fleet-root ledger: the flat pool account plus the sharded
    /// roll-up account.
    pub fleet: Ledger,
}

impl ShardedAudit {
    /// Every ledger's account-by-account report, bottom tier first, for
    /// logging.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for l in self.ledgers.iter().chain(&self.shard_ledgers) {
            out.push_str(&l.report());
        }
        out.push_str(&self.fleet.report());
        out
    }
}

/// Builds the three ledger tiers of a sharded run. Public so the audit
/// suite can rebuild ledgers from deliberately perturbed shard reports
/// and prove the reconciliation names the offending shard.
///
/// - Each **machine** ledger posts the full per-layer accounts, exactly
///   from the machine's own layer counters.
/// - Each **shard** ledger balances [`accounts::SHARD_RECORDS`]: the
///   shard's machines' delivered records (debit) against the shard
///   pool's own head-count (credit).
/// - The **fleet** ledger balances [`accounts::POOL_RECORDS`] (every
///   machine's deliveries vs the fleet total) and
///   [`accounts::FLEET_ROLLUP_RECORDS`] (per-shard pool totals vs the
///   fleet total) — the roll-up leg that makes a drifting shard visible
///   at the root even when every machine balances.
pub fn sharded_ledgers(data: &ShardedStudyData) -> (Vec<Ledger>, Vec<Ledger>, Ledger) {
    let (ledgers, mut fleet) = build_ledgers(&data.data);
    let mut shard_ledgers = Vec::with_capacity(data.shards.len());
    for report in &data.shards {
        let mut ledger = Ledger::new(format!("shard-{}", report.shard));
        for m in &data.data.machines[report.machines.clone()] {
            ledger.debit(accounts::SHARD_RECORDS, m.loss.delivered);
        }
        ledger.credit(accounts::SHARD_RECORDS, report.total_records as u64);
        shard_ledgers.push(ledger);
        fleet.debit(accounts::FLEET_ROLLUP_RECORDS, report.total_records as u64);
    }
    fleet.credit(
        accounts::FLEET_ROLLUP_RECORDS,
        data.data.total_records as u64,
    );
    (ledgers, shard_ledgers, fleet)
}

impl Study {
    /// [`Study::run_sharded`] with end-of-run conservation auditing
    /// across all three tiers. Reconciliation order is bottom-up —
    /// machines, then shards, then the fleet root — so the first
    /// [`AuditFailure::Drift`] names the lowest tier that broke.
    pub fn run_sharded_audited(
        config: &StudyConfig,
        options: &ShardOptions,
    ) -> Result<ShardedAudit, AuditFailure> {
        let data = Self::try_run_sharded(config, options)?;
        let (ledgers, shard_ledgers, fleet) = sharded_ledgers(&data);
        for ledger in ledgers
            .iter()
            .chain(shard_ledgers.iter())
            .chain(std::iter::once(&fleet))
        {
            if let Err(imbalance) = ledger.reconcile() {
                data.data
                    .dump_flight_recorder(&format!("conservation-drift: {imbalance}"));
                return Err(AuditFailure::Drift {
                    imbalance,
                    report: ledger.report(),
                });
            }
        }
        Ok(ShardedAudit {
            data,
            ledgers,
            shard_ledgers,
            fleet,
        })
    }
}

/// Row-level drift of one fact table between the batch and streaming
/// builds.
#[derive(Clone, Copy, Debug)]
pub struct TableDrift {
    /// Table name (`records`, `instances`, `names`).
    pub table: &'static str,
    /// Rows in the batch-built table.
    pub batch_rows: usize,
    /// Rows in the streaming-built table.
    pub streaming_rows: usize,
    /// Rows that differ (position-wise for ordered tables, key-wise for
    /// the name map), plus rows present on only one side.
    pub mismatches: usize,
}

impl TableDrift {
    /// True when the two builds agree exactly.
    pub fn clean(&self) -> bool {
        self.mismatches == 0 && self.batch_rows == self.streaming_rows
    }
}

/// What [`differential_check`] produces.
#[derive(Debug)]
pub struct DifferentialReport {
    /// Per-table drift, batch vs streaming.
    pub tables: Vec<TableDrift>,
    /// The batch-built tables replayed through a fresh stack (fleet
    /// total).
    pub replay_batch: ReplayFacts,
    /// The streaming-built tables replayed identically.
    pub replay_streaming: ReplayFacts,
    /// Records collected by the batch run.
    pub batch_records: usize,
    /// Records collected by the streaming run.
    pub streaming_records: usize,
}

impl DifferentialReport {
    /// True when every table matches and the two replays behaved
    /// identically.
    pub fn clean(&self) -> bool {
        self.tables.iter().all(TableDrift::clean) && self.replays_agree()
    }

    /// True when replaying either build drives the fresh stack the same
    /// way (a drift here with clean tables means replay is order- or
    /// content-sensitive to something the row comparison missed).
    pub fn replays_agree(&self) -> bool {
        self.replay_batch == self.replay_streaming
    }

    /// One line per table plus the replay verdict, for logging.
    pub fn render(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for t in &self.tables {
            let state = if t.clean() { "ok" } else { "DRIFT" };
            let _ = writeln!(
                out,
                "  {:<10} batch {:>9} streaming {:>9} mismatched {:>9} {state}",
                t.table, t.batch_rows, t.streaming_rows, t.mismatches
            );
        }
        let _ = writeln!(
            out,
            "  replay     {}",
            if self.replays_agree() { "ok" } else { "DRIFT" }
        );
        out
    }
}

/// Positional mismatch count of two ordered tables: rows that differ at
/// the same index, plus the length difference.
fn slice_mismatches<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    let shared = a.len().min(b.len());
    let differing = (0..shared).filter(|&i| a[i] != b[i]).count();
    differing + a.len().abs_diff(b.len())
}

/// Positional mismatch count of two columnar fact tables: rows that
/// differ at the same index, plus the length difference.
fn fact_mismatches(a: &nt_analysis::FactTable, b: &nt_analysis::FactTable) -> usize {
    let shared = a.len().min(b.len());
    let differing = (0..shared)
        .filter(|&i| a.machine_at(i) != b.machine_at(i) || a.get(i) != b.get(i))
        .count();
    differing + a.len().abs_diff(b.len())
}

/// Runs the same configuration through the batch reference pipeline,
/// the streaming driver on `shards` shard collectors (with retained
/// fact tables), and trace replay, and compares the three leg by leg.
/// Scale and fault plan come from `config` — this is the harness the
/// audit suite runs well beyond smoke scale, with fault injection
/// active, to prove the paths agree record for record.
pub fn differential_check(
    config: &StudyConfig,
    shards: usize,
    replay_config: &ReplayConfig,
) -> Result<DifferentialReport, StudyFault> {
    let batch = Study::try_run_batch(config, None)?;
    let streaming = Study::try_run_sharded(
        config,
        &ShardOptions {
            shards,
            retain: true,
            ..ShardOptions::default()
        },
    )?
    .data;
    let streamed_tables = streaming
        .trace_set
        .as_ref()
        .expect("retain mode keeps the fact tables");

    let bt = &batch.trace_set;
    let mut tables = vec![
        TableDrift {
            table: "records",
            batch_rows: bt.records.len(),
            streaming_rows: streamed_tables.records.len(),
            mismatches: fact_mismatches(&bt.records, &streamed_tables.records),
        },
        TableDrift {
            table: "instances",
            batch_rows: bt.instances.len(),
            streaming_rows: streamed_tables.instances.len(),
            mismatches: slice_mismatches(&bt.instances, &streamed_tables.instances),
        },
    ];
    // The name table is keyed, not ordered: count keys whose values
    // disagree plus keys present on one side only.
    let name_mismatches = bt
        .names
        .iter()
        .filter(|(k, v)| streamed_tables.names.get(*k) != Some(*v))
        .count()
        + streamed_tables
            .names
            .keys()
            .filter(|k| !bt.names.contains_key(*k))
            .count();
    tables.push(TableDrift {
        table: "names",
        batch_rows: bt.names.len(),
        streaming_rows: streamed_tables.names.len(),
        mismatches: name_mismatches,
    });

    let replay_batch = replay(bt, replay_config);
    let replay_streaming = replay(streamed_tables, replay_config);
    Ok(DifferentialReport {
        tables,
        replay_batch,
        replay_streaming,
        batch_records: batch.total_records,
        streaming_records: streaming.total_records,
    })
}
