//! The three workloads: their inputs, their untraced runs through the
//! public study drivers, and the digests of their deterministic outputs.

use std::path::{Path, PathBuf};
use std::time::Instant;

use nt_analysis::whatif::DifferentialTable;
use nt_cache::CacheConfig;
use nt_io::DiskParams;
use nt_sim::SimDuration;
use nt_study::{
    report, sharded_ledgers, FaultPlan, FaultSchedule, MachineOutput, ReplayConfig, ShardOptions,
    ShardedStudyData, Study, StudyConfig, StudyData, WhatIfStudy,
};
use nt_warehouse::Warehouse;

use crate::cpu;

/// Worker threads every workload runs on (one per core of the 2-core
/// reference host). Collector threads are the pools' own, 3 per shard.
pub const WORKERS: usize = 2;
/// Simulated length of the `paper_fleet` study.
const PAPER_SECS: u64 = 4 * 3_600;
/// Width of the `lossy_org` fleet.
const ORG_MACHINES: usize = 1_500;
/// Shards of the `lossy_org` collection tree.
const ORG_SHARDS: usize = 2;
/// Simulated length of the trace the `whatif_matrix` set-up records.
const WHATIF_SOURCE_SECS: u64 = 2 * 3_600;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PaperFleet,
    LossyOrg,
    WhatIfMatrix,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "paper_fleet" => Some(Workload::PaperFleet),
            "lossy_org" => Some(Workload::LossyOrg),
            "whatif_matrix" => Some(Workload::WhatIfMatrix),
            _ => None,
        }
    }
}

/// The paper's deployment: the `evaluation` roster and content, no
/// faults, several simulated hours.
pub fn paper_config(seed: u64) -> StudyConfig {
    let mut config = StudyConfig::evaluation(seed);
    config.duration = SimDuration::from_secs(PAPER_SECS);
    config
}

pub fn paper_options() -> ShardOptions {
    ShardOptions {
        shards: 1,
        workers: Some(WORKERS),
        retain: true,
        ..ShardOptions::default()
    }
}

/// A wide, shallow, lossy organisation at smoke depth.
pub fn org_config(seed: u64) -> StudyConfig {
    let mut config = StudyConfig::org_scale(seed, ORG_MACHINES);
    config.faults = FaultPlan::lossy();
    config
}

pub fn org_options(warehouse: &Path) -> ShardOptions {
    ShardOptions {
        shards: ORG_SHARDS,
        workers: Some(WORKERS),
        warehouse: Some(warehouse.to_path_buf()),
        ..ShardOptions::default()
    }
}

/// The `paper_fleet`-shaped study whose trace the what-if matrix replays.
pub fn whatif_source_config(seed: u64) -> StudyConfig {
    let mut config = StudyConfig::evaluation(seed);
    config.duration = SimDuration::from_secs(WHATIF_SOURCE_SECS);
    config
}

pub fn whatif_source_options(warehouse: &Path) -> ShardOptions {
    ShardOptions {
        shards: 1,
        workers: Some(WORKERS),
        warehouse: Some(warehouse.to_path_buf()),
        ..ShardOptions::default()
    }
}

/// Baseline plus four variants: read-ahead off, FastIO off, a quarter
/// of the cache budget, and an SSD-class disk.
pub fn whatif_study() -> WhatIfStudy {
    let base = ReplayConfig::default();
    WhatIfStudy::new(base.clone())
        .variant(
            "no-read-ahead",
            ReplayConfig {
                cache: CacheConfig {
                    readahead_enabled: false,
                    ..base.cache.clone()
                },
                ..base.clone()
            },
        )
        .variant(
            "no-fastio",
            ReplayConfig {
                disable_fastio: true,
                ..base.clone()
            },
        )
        .variant(
            "quarter-cache",
            ReplayConfig {
                cache_budget_bytes: base.cache_budget_bytes / 4,
                ..base.clone()
            },
        )
        .variant(
            "ssd-class-disk",
            ReplayConfig {
                disk: DiskParams::ssd_class(),
                ..base.clone()
            },
        )
        .workers(WORKERS)
}

/// Correctness checks made during a run: how many were attempted and a
/// line for each that failed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One timed pass of a workload, untraced.
pub struct Iteration {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Trace records the pass produced (what-if: source records × cells).
    pub records: u64,
    /// Simulated machine-seconds the pass covered.
    pub sim_s: f64,
    /// Digest of the pass's deterministic outputs.
    pub digest: String,
}

/// 64-bit FNV-1a over a sequence of byte strings, as hex.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // Separator, so ("ab","c") and ("a","bc") differ.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0100_0000_01b3);
        self
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Fleet sums of the layer counters a pure speed-up must leave alone.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerCounts {
    pub io_ops: u64,
    pub io_reads: u64,
    pub fastio_reads: u64,
    pub cache_reads: u64,
    pub cache_read_hits: u64,
    pub readahead_ios: u64,
    pub lazy_writes: u64,
    pub paging_read_ios: u64,
}

impl LayerCounts {
    pub fn add(
        &mut self,
        io: &nt_io::IoMetrics,
        cache: &nt_cache::CacheMetrics,
        vm: &nt_vm::VmMetrics,
    ) {
        self.io_ops += io.opens
            + io.open_failures
            + io.read_dispatches
            + io.write_dispatches
            + io.control_ops
            + io.cleanups
            + io.closes;
        self.io_reads += io.fastio_reads + io.irp_reads;
        self.fastio_reads += io.fastio_reads;
        self.cache_reads += cache.read_hits + cache.read_misses;
        self.cache_read_hits += cache.read_hits;
        self.readahead_ios += cache.readahead_ios;
        self.lazy_writes += cache.lazy_writes;
        self.paging_read_ios += vm.paging_read_ios;
    }

    pub fn of_machines(machines: &[MachineOutput]) -> Self {
        let mut counts = LayerCounts::default();
        for m in machines {
            counts.add(&m.io, &m.cache, &m.vm);
        }
        counts
    }
}

/// Digest of a study's deterministic outputs: the streaming summary,
/// loss and layer totals, shard head-counts and warehouse segment stats.
/// The two summary watermarks that depend on collector-thread
/// interleaving are left out.
fn study_digest(data: &mut ShardedStudyData) -> String {
    let mut d = Digest::new();
    let summary = &mut data.data.summary;
    let watermarks = (summary.peak_parked_records, summary.peak_state_bytes);
    summary.peak_parked_records = 0;
    summary.peak_state_bytes = 0;
    d.feed(format!("{summary:?}").as_bytes());
    (summary.peak_parked_records, summary.peak_state_bytes) = watermarks;
    d.feed(format!("{:?}", loss_totals(&data.data.machines)).as_bytes());
    d.feed(format!("{:?}", LayerCounts::of_machines(&data.data.machines)).as_bytes());
    d.feed(format!("{} {}", data.data.total_records, data.data.stored_bytes).as_bytes());
    for s in &data.shards {
        d.feed(
            format!(
                "{} {:?} {} {} {}",
                s.shard, s.machines, s.records, s.total_records, s.stored_bytes
            )
            .as_bytes(),
        );
    }
    d.feed(format!("{:?}", data.data.warehouse).as_bytes());
    d.hex()
}

/// Field-wise sum of every machine's loss ledger.
pub fn loss_totals(machines: &[MachineOutput]) -> nt_trace::LossLedger {
    let mut t = nt_trace::LossLedger::default();
    for m in machines {
        let l = &m.loss;
        t.recorded += l.recorded;
        t.delivered += l.delivered;
        t.dropped_overflow += l.dropped_overflow;
        t.dropped_suspended += l.dropped_suspended;
        t.batches_shipped += l.batches_shipped;
        t.batches_retried += l.batches_retried;
        t.downtime_ticks += l.downtime_ticks;
    }
    t
}

/// Digest of every file in a directory (sorted by name), contents
/// included: a warehouse's exact bytes.
pub fn dir_digest(dir: &Path) -> String {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
        .unwrap_or_default();
    files.sort();
    let mut d = Digest::new();
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        d.feed(f.file_name().map(|n| n.as_encoded_bytes()).unwrap_or(b""));
        d.feed(format!("{:016x}", word_hash(&bytes)).as_bytes());
    }
    d.hex()
}

/// A fast word-at-a-time hash for large byte buffers.
fn word_hash(bytes: &[u8]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).rotate_left(29).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    for &b in chunks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Reconciles a sharded run's conservation ledgers at every tier.
pub fn check_ledgers(data: &ShardedStudyData, checks: &mut Checks) {
    let (machines, shards, fleet) = sharded_ledgers(data);
    let drift = machines
        .iter()
        .chain(shards.iter())
        .chain(std::iter::once(&fleet))
        .find_map(|l| l.reconcile().err());
    checks.check(drift.is_none(), || {
        format!("conservation ledger drift: {}", drift.expect("drift"))
    });
}

/// The report's input: a retained sharded run seen as batch study data.
fn into_study_data(data: ShardedStudyData) -> StudyData {
    let d = data.data;
    StudyData {
        config: d.config,
        trace_set: d.trace_set.expect("paper_fleet retains its trace set"),
        machines: d.machines,
        total_records: d.total_records,
        stored_bytes: d.stored_bytes,
        profile: d.profile,
    }
}

fn fleet_sim_s(config: &StudyConfig) -> f64 {
    config.machines.len() as f64 * config.duration.as_secs() as f64
}

/// Set-up of a study workload: building its inputs from the seed (the
/// configuration and the fault schedule). One build takes microseconds,
/// so it is repeated for `min_s` and the median returned.
pub fn study_setup_s(workload: Workload, seed: u64, min_s: f64) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed().as_secs_f64() < min_s {
        let t = Instant::now();
        let config = match workload {
            Workload::LossyOrg => org_config(seed),
            _ => paper_config(seed),
        };
        let schedule = FaultSchedule::materialize(&config, 3);
        std::hint::black_box((&config, &schedule));
        samples.push(t.elapsed().as_secs_f64());
    }
    crate::traced::quantile(&samples, 0.5)
}

/// Set-up of `whatif_matrix`: records its source trace into
/// `dir/source`. Returns the host seconds and the warehouse digest.
pub fn record_source(seed: u64, dir: &Path, checks: &mut Checks) -> (f64, String) {
    let source = dir.join("source");
    let _ = std::fs::remove_dir_all(&source);
    let config = whatif_source_config(seed);
    let t = Instant::now();
    let data = Study::run_sharded(&config, &whatif_source_options(&source));
    let elapsed = t.elapsed().as_secs_f64();
    check_ledgers(&data, checks);
    (elapsed, dir_digest(&source))
}

/// One untraced, timed pass of a workload through the public drivers.
pub fn run_untraced(workload: Workload, seed: u64, dir: &Path, checks: &mut Checks) -> Iteration {
    match workload {
        Workload::PaperFleet => {
            let config = paper_config(seed);
            let (cpu0, t0) = (cpu::process_s(), Instant::now());
            let data = Study::run_sharded(&config, &paper_options());
            let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), cpu::process_s() - cpu0);
            let records = data.data.total_records as u64;
            let (digest, report_s, report_cpu_s) = finish_paper(data, checks);
            Iteration {
                wall_s: wall_s + report_s,
                cpu_s: cpu_s + report_cpu_s,
                records,
                sim_s: fleet_sim_s(&config),
                digest,
            }
        }
        Workload::LossyOrg => {
            let config = org_config(seed);
            let export = dir.join("export");
            let _ = std::fs::remove_dir_all(&export);
            let (cpu0, t0) = (cpu::process_s(), Instant::now());
            let data = Study::run_sharded(&config, &org_options(&export));
            let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), cpu::process_s() - cpu0);
            Iteration {
                wall_s,
                cpu_s,
                records: data.data.total_records as u64,
                sim_s: fleet_sim_s(&config),
                digest: finish_lossy(data, &export, checks),
            }
        }
        Workload::WhatIfMatrix => {
            let study = whatif_study();
            let cells = (study.variants.len() + 1) as u64;
            let (cpu0, t0) = (cpu::process_s(), Instant::now());
            let outcome = Warehouse::open(&dir.join("source"))
                .map_err(|e| e.to_string())
                .and_then(|wh| {
                    let report = study.run(&wh).map_err(|e| e.to_string())?;
                    let summary = report.render_summary();
                    Ok((wh.total_records(), report, summary))
                });
            let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), cpu::process_s() - cpu0);
            let config = whatif_source_config(0);
            let sim_s = cells as f64 * fleet_sim_s(&config);
            match outcome {
                Ok((source_records, report, summary)) => {
                    let totals: Vec<nt_analysis::ReplayFacts> = std::iter::once(&report.baseline)
                        .chain(report.variants.iter())
                        .map(|v| v.total)
                        .collect();
                    check_replay_accounting(&totals, source_records, checks);
                    Iteration {
                        wall_s,
                        cpu_s,
                        records: source_records * cells,
                        sim_s,
                        digest: whatif_digest(&summary, &report.tables, &totals),
                    }
                }
                Err(e) => {
                    checks.check(false, || format!("what-if study failed: {e}"));
                    Iteration {
                        wall_s,
                        cpu_s,
                        records: 0,
                        sim_s,
                        digest: "failed".to_string(),
                    }
                }
            }
        }
    }
}

/// Checks a finished `paper_fleet` study, then renders its report: the
/// last, timed step of the workload. Returns the digest of the study and
/// the report text, and the report's host and CPU seconds.
pub fn finish_paper(mut data: ShardedStudyData, checks: &mut Checks) -> (String, f64, f64) {
    check_ledgers(&data, checks);
    let records = data.data.total_records;
    let unreported = study_digest(&mut data);
    let (cpu0, t0) = (cpu::process_s(), Instant::now());
    let report = report::full_report(&into_study_data(data));
    let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), cpu::process_s() - cpu0);
    checks.check(report.contains(&format!("records: {records}")), || {
        "report does not state the study's record count".to_string()
    });
    let mut d = Digest::new();
    d.feed(unreported.as_bytes()).feed(report.as_bytes());
    (d.hex(), wall_s, cpu_s)
}

/// Checks a finished `lossy_org` study and its export in `export`, then
/// removes the export. Returns the digest of the study and the export's
/// bytes.
pub fn finish_lossy(mut data: ShardedStudyData, export: &Path, checks: &mut Checks) -> String {
    check_ledgers(&data, checks);
    check_export(&data, checks);
    let mut d = Digest::new();
    d.feed(study_digest(&mut data).as_bytes())
        .feed(dir_digest(export).as_bytes());
    let _ = std::fs::remove_dir_all(export);
    d.hex()
}

/// The export holds exactly the records the analysis tier saw.
fn check_export(data: &ShardedStudyData, checks: &mut Checks) {
    let exported: u64 = data
        .data
        .warehouse
        .as_ref()
        .map(|stats| stats.iter().map(|s| s.records).sum())
        .unwrap_or(0);
    let analysed = data.data.summary.records;
    checks.check(exported == analysed, || {
        format!("warehouse holds {exported} records, analysis saw {analysed}")
    });
}

/// Every cell replayed the whole source trace.
pub fn check_replay_accounting(
    totals: &[nt_analysis::ReplayFacts],
    source_records: u64,
    checks: &mut Checks,
) {
    for t in totals {
        checks.check(t.source_records == source_records, || {
            format!(
                "a what-if variant replayed {} of {source_records} source records",
                t.source_records
            )
        });
    }
}

/// Digest of a what-if answer: the delta table, the per-machine
/// differential tables and every variant's fleet totals.
pub fn whatif_digest(
    summary: &str,
    tables: &[DifferentialTable],
    totals: &[nt_analysis::ReplayFacts],
) -> String {
    let mut d = Digest::new();
    d.feed(summary.as_bytes())
        .feed(format!("{tables:?}").as_bytes())
        .feed(format!("{totals:?}").as_bytes());
    d.hex()
}
