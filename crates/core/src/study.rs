//! Running the whole deployment and collecting the study data.
//!
//! One driver streams: [`Study::run_sharded`] (in [`crate::shard`]),
//! whose default of one shard is the paper's flat three-server
//! topology. [`Study::run`] is the materializing batch path — every
//! record stored at the collection servers, then the fact tables built
//! in one pass — kept as the independent reference the equivalence
//! tests and [`crate::differential_check`] compare the streaming driver
//! against. Both simulate the fleet through one private machine loop on
//! the work-stealing pool.

use std::fmt;

use nt_analysis::stream::StudySummary;
use nt_analysis::TraceSet;
use nt_obs::{
    FlightRecorder, HealthFinding, HopSpan, MachineTelemetry, Phase, RuntimeProfile,
    ShipmentTracer, Telemetry,
};
use nt_sim::SimDuration;
use nt_trace::{CollectionFault, CollectorPool, LossLedger, MachineId, Snapshot};
use nt_workload::UsageCategory;

use crate::config::StudyConfig;
use crate::fault::FaultSchedule;
use crate::run::MachineRun;

/// End-of-run artefacts of one machine.
pub struct MachineOutput {
    /// Collection-server identity.
    pub id: MachineId,
    /// Usage category.
    pub category: UsageCategory,
    /// §3.1 snapshots, in time order (interleaved across volumes).
    pub snapshots: Vec<Snapshot>,
    /// I/O counters.
    pub io: nt_io::IoMetrics,
    /// Cache counters (§9).
    pub cache: nt_cache::CacheMetrics,
    /// VM counters (§3.3).
    pub vm: nt_vm::VmMetrics,
    /// The agent's loss accounting under the fault plan (all-zero on a
    /// clean run).
    pub loss: LossLedger,
    /// Dirty bytes still resident in the cache at end of run — the
    /// closing balance of the dirty-lifecycle conservation account.
    pub residual_dirty_bytes: u64,
    /// Telemetry snapshot (profile, ring series, span-log line count);
    /// `None` when the study runs with telemetry off.
    pub telemetry: Option<MachineTelemetry>,
    /// Health findings the machine's watchdog raised, in sample order;
    /// empty with watchdogs off.
    pub health: Vec<HealthFinding>,
    /// Latest simulated tick a shipment delivery succeeded at (0 when
    /// none did) — feeds the post-run shard-stall check.
    pub last_delivery_ticks: u64,
}

/// Why a study run could not complete cleanly. Collection faults carry
/// on to the caller instead of aborting the process, so a deployment can
/// report what the surviving servers gathered.
#[derive(Debug)]
pub enum StudyFault {
    /// A machine worker thread panicked (payload message attached).
    Worker(String),
    /// A collection-server thread panicked.
    Collection(CollectionFault),
    /// The NTT warehouse export could not be created or written.
    Warehouse(nt_warehouse::NttError),
}

impl fmt::Display for StudyFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyFault::Worker(msg) => write!(f, "machine worker panicked: {msg}"),
            StudyFault::Collection(fault) => fault.fmt(f),
            StudyFault::Warehouse(e) => write!(f, "warehouse export failed: {e}"),
        }
    }
}

impl std::error::Error for StudyFault {}

impl From<CollectionFault> for StudyFault {
    fn from(fault: CollectionFault) -> Self {
        StudyFault::Collection(fault)
    }
}

impl From<nt_warehouse::NttError> for StudyFault {
    fn from(e: nt_warehouse::NttError) -> Self {
        StudyFault::Warehouse(e)
    }
}

/// The per-run observability instruments, built once from the study
/// configuration and shared (by cheap handle clones) across every tier:
/// agents, collector pools, analysis sinks, and the export tee.
pub(crate) struct Instruments {
    /// Causal shipment tracer; off unless
    /// [`nt_obs::TelemetryOptions::trace_shipments`] is set.
    pub(crate) tracer: ShipmentTracer,
    /// Fleet flight recorder; off unless
    /// [`nt_obs::TelemetryOptions::flight_recorder`] is set.
    pub(crate) recorder: FlightRecorder,
    /// Evaluate health watchdogs on the telemetry sampler cadence.
    pub(crate) watchdogs: bool,
    /// Dump the flight recorder at end of run when records were lost.
    pub(crate) dump_on_loss: bool,
}

impl Instruments {
    /// Tick horizon the tracer clamps final-flush spans to: the study
    /// period plus a bound on the shutdown drain (up to 2,000 one-second
    /// lazy-writer catch-up scans plus the closing pump).
    pub(crate) fn horizon_ticks(config: &StudyConfig) -> u64 {
        (config.duration + SimDuration::from_secs(2_100)).ticks()
    }

    /// Instruments for a study configuration; everything off when the
    /// corresponding telemetry knob is.
    pub(crate) fn for_config(config: &StudyConfig) -> Self {
        let Some(opts) = config.telemetry.options() else {
            return Instruments::off();
        };
        Instruments {
            tracer: match opts.trace_shipments {
                true => ShipmentTracer::new(config.seed, Self::horizon_ticks(config)),
                false => ShipmentTracer::off(),
            },
            recorder: match opts.flight_recorder {
                true => FlightRecorder::new(opts.flight_recorder_capacity),
                false => FlightRecorder::off(),
            },
            watchdogs: opts.watchdogs,
            dump_on_loss: opts.dump_on_loss,
        }
    }

    /// Fully disabled instruments.
    pub(crate) fn off() -> Self {
        Instruments {
            tracer: ShipmentTracer::off(),
            recorder: FlightRecorder::off(),
            watchdogs: false,
            dump_on_loss: false,
        }
    }
}

/// Dumps `recorder` into the telemetry artefact directory (exactly once
/// per run — later triggers are no-ops). A dump must never fail the
/// study; write errors are reported and swallowed.
pub(crate) fn dump_flight_recorder(recorder: &FlightRecorder, config: &StudyConfig, reason: &str) {
    let Some(dir) = config.telemetry.options().and_then(|o| o.dir.clone()) else {
        return;
    };
    let path = dir.join("flight-recorder.jsonl");
    if let Err(e) = recorder.dump(&path, reason) {
        eprintln!(
            "nt-obs: cannot dump flight recorder to {}: {e}",
            path.display()
        );
    }
}

/// Writes the Chrome trace-event artefact (`trace.json`) when shipment
/// tracing is on and an artefact directory is configured. Like the
/// other telemetry exports, failure is reported, not fatal.
pub(crate) fn write_trace_artefact(
    config: &StudyConfig,
    tracer: &ShipmentTracer,
    spans: &[HopSpan],
) {
    if !tracer.is_enabled() {
        return;
    }
    let Some(dir) = config.telemetry.options().and_then(|o| o.dir.clone()) else {
        return;
    };
    let path = dir.join("trace.json");
    if let Err(e) = nt_obs::write_chrome_trace(&path, spans) {
        eprintln!("nt-obs: cannot write {}: {e}", path.display());
    }
}

/// One machine's loss accounting, as surfaced by [`StudyData`].
#[derive(Clone, Copy, Debug)]
pub struct LossReport {
    /// Collection-server identity.
    pub machine: MachineId,
    /// The agent's ledger.
    pub ledger: LossLedger,
}

/// Everything the analysis stage consumes.
pub struct StudyData {
    /// The configuration that produced the data.
    pub config: StudyConfig,
    /// The fact tables built from every machine's records.
    pub trace_set: TraceSet,
    /// Per-machine artefacts.
    pub machines: Vec<MachineOutput>,
    /// Total records collected (pre-analysis, §4's head-count).
    pub total_records: usize,
    /// Compressed footprint at the collection server, bytes.
    pub stored_bytes: usize,
    /// Wall-clock attribution across the fleet plus the analysis ingest;
    /// all-zero with telemetry off.
    pub profile: RuntimeProfile,
}

impl StudyData {
    /// Per-machine loss accounting, in machine order.
    pub fn loss_reports(&self) -> Vec<LossReport> {
        self.machines
            .iter()
            .map(|m| LossReport {
                machine: m.id,
                ledger: m.loss,
            })
            .collect()
    }

    /// Records lost across the fleet (overflow + suspension), for quick
    /// degradation checks.
    pub fn total_lost(&self) -> u64 {
        self.machines.iter().map(|m| m.loss.lost()).sum()
    }

    /// The per-driver-layer ns/op budget from the self-profiler: one row
    /// per phase that ran, averaging exclusive host time per operation.
    /// Empty when the study ran with telemetry off.
    pub fn layer_budget(&self) -> Vec<nt_obs::PhaseBudget> {
        self.profile.layer_budget()
    }
}

/// The study driver.
pub struct Study;

impl Study {
    /// Runs every machine of the deployment and builds the fact tables.
    ///
    /// Machines are independent (separate engines, separate RNG streams)
    /// and run on the work-stealing pool; their agents stream trace
    /// buffers over channels to a pool of three collection-server
    /// threads — the §3 topology — whose stores are merged before
    /// analysis. This materializing path is the reference the streaming
    /// driver ([`Study::run_sharded`]) is tested against.
    pub fn run(config: &StudyConfig) -> StudyData {
        Self::try_run_batch(config, None).unwrap_or_else(|fault| panic!("{fault}"))
    }

    /// [`Study::run`] with an explicit worker count. `run_with_workers(c,
    /// 1)` forces a serial study; the determinism suite asserts it equals
    /// the parallel one, since machines share no mutable state.
    pub fn run_with_workers(config: &StudyConfig, workers: usize) -> StudyData {
        Self::try_run_with_workers(config, workers).unwrap_or_else(|fault| panic!("{fault}"))
    }

    /// [`Study::run_with_workers`], with worker and collection-server
    /// panics surfaced as a [`StudyFault`] instead of re-raised.
    pub fn try_run_with_workers(
        config: &StudyConfig,
        workers: usize,
    ) -> Result<StudyData, StudyFault> {
        Self::try_run_batch(config, Some(workers))
    }

    /// The batch run on `workers` threads (`None` sizes like
    /// [`Study::run`]), faults surfaced as a [`StudyFault`].
    pub(crate) fn try_run_batch(
        config: &StudyConfig,
        workers: Option<usize>,
    ) -> Result<StudyData, StudyFault> {
        // The batch path stores shipments instead of forwarding them, so
        // there is no causal chain to trace — but the flight recorder
        // and watchdogs are agent-side and work the same.
        let mut instruments = Instruments::for_config(config);
        instruments.tracer = ShipmentTracer::off();
        let result = Self::batch_run_inner(config, workers, &instruments);
        if let Err(fault) = &result {
            dump_flight_recorder(
                &instruments.recorder,
                config,
                &format!("study-fault: {fault}"),
            );
        }
        result
    }

    fn batch_run_inner(
        config: &StudyConfig,
        workers: Option<usize>,
        instruments: &Instruments,
    ) -> Result<StudyData, StudyFault> {
        let schedule = FaultSchedule::materialize(config, 3);
        let pool = CollectorPool::start_with_outages(3, schedule.collectors.clone());

        let machines = run_fleet(
            config,
            workers,
            &schedule,
            instruments,
            |_| instruments.tracer.clone(),
            |_, id| pool.handle_for(id),
        );

        // Always join the servers, even after a worker fault: the fault
        // would otherwise leak threads blocked on their channels.
        let server = pool.finish()?;
        let machines = machines?;
        let total_records = server.total_records();
        let stored_bytes = server.stored_bytes();
        let streams: Vec<(u32, Vec<nt_trace::TraceRecord>, Vec<nt_trace::NameRecord>)> = machines
            .iter()
            .map(|m| {
                (
                    m.id.0,
                    server.records_for(m.id),
                    server.names_for(m.id).into_iter().cloned().collect(),
                )
            })
            .collect();
        // The batch path's analysis ingest happens here, not in the
        // machine workers; give it a study-side profiler span.
        let analysis_telemetry = match config.telemetry.is_on() {
            true => Telemetry::profiler(),
            false => Telemetry::off(),
        };
        let trace_set = {
            let _span = analysis_telemetry.span_child(Phase::Analysis, "analysis.trace_set_build");
            TraceSet::build(streams)
        };
        let profile = fleet_profile(&machines, &analysis_telemetry);
        write_telemetry_artefacts(config, &machines);
        Ok(StudyData {
            config: config.clone(),
            trace_set,
            machines,
            total_records,
            stored_bytes,
            profile,
        })
    }
}

/// Merges every machine's profile with the study-side analysis profiler.
pub(crate) fn fleet_profile(machines: &[MachineOutput], analysis: &Telemetry) -> RuntimeProfile {
    let mut profile = RuntimeProfile::default();
    for m in machines {
        if let Some(t) = &m.telemetry {
            profile.merge(&t.profile);
        }
    }
    if let Some(report) = analysis.report() {
        profile.merge(&report.profile);
    }
    profile
}

/// Writes the fleet-aggregated `timeseries.jsonl` when telemetry is on
/// and an artefact directory is configured. Telemetry export must never
/// fail the study; write errors are reported and swallowed.
fn write_telemetry_artefacts(config: &StudyConfig, machines: &[MachineOutput]) {
    let Some(dir) = config.telemetry.options().and_then(|o| o.dir.as_ref()) else {
        return;
    };
    let labelled: Vec<(u32, String, &MachineTelemetry)> = machines
        .iter()
        .filter_map(|m| {
            m.telemetry
                .as_ref()
                .map(|t| (m.id.0, format!("{:?}", m.category), t))
        })
        .collect();
    let borrowed: Vec<(u32, &str, &MachineTelemetry)> = labelled
        .iter()
        .map(|(id, cat, t)| (*id, cat.as_str(), *t))
        .collect();
    let rows = nt_obs::export::fleet_rows(&borrowed);
    let path = dir.join("timeseries.jsonl");
    if let Err(e) = nt_obs::write_timeseries_jsonl(&path, &rows) {
        eprintln!("nt-obs: cannot write {}: {e}", path.display());
    }
}

/// Simulates every machine of the fleet on the work-stealing pool
/// ([`nt_trace::steal::run_indexed`]): machine `index` traces its
/// shipments through `tracer_for(index)` and ships through
/// `sink_for(index, id)`. `workers` defaults to one per available core,
/// capped at the fleet size. Returns the outputs in machine order, or
/// the first machine panic as a [`StudyFault::Worker`].
pub(crate) fn run_fleet<S, T, K>(
    config: &StudyConfig,
    workers: Option<usize>,
    schedule: &FaultSchedule,
    instruments: &Instruments,
    tracer_for: T,
    sink_for: K,
) -> Result<Vec<MachineOutput>, StudyFault>
where
    S: nt_trace::RecordSink + 'static,
    T: Fn(usize) -> ShipmentTracer + Sync,
    K: Fn(usize, MachineId) -> S + Sync,
{
    let n = config.machines.len();
    let workers = workers.map_or_else(|| nt_trace::steal::default_workers(n), |w| w.min(n.max(1)));
    let (outputs, panic) = nt_trace::steal::run_indexed(n, workers, |index| {
        let spec = &config.machines[index];
        let faults = schedule.for_machine(index);
        let mut run = MachineRun::build_with_faults(config, index, spec, &faults);
        run.set_instruments(
            &tracer_for(index),
            &instruments.recorder,
            instruments.watchdogs,
        );
        let mut sink = sink_for(index, run.id);
        run.simulate_with_faults(config, &faults, &mut sink);
        MachineOutput {
            id: run.id,
            category: run.category,
            snapshots: std::mem::take(&mut run.snapshots),
            io: run.io_metrics(),
            cache: run.cache_metrics(),
            vm: run.vm_metrics(),
            loss: run.loss_ledger(),
            residual_dirty_bytes: run.residual_dirty_bytes(),
            telemetry: run.telemetry_report(),
            health: run.take_health(),
            last_delivery_ticks: run.last_delivery_ticks(),
        }
    });
    if let Some(p) = panic {
        return Err(StudyFault::Worker(format!(
            "machine {}: {}",
            p.index, p.message
        )));
    }
    let mut machines: Vec<MachineOutput> = outputs.into_iter().flatten().collect();
    machines.sort_by_key(|m| m.id);
    Ok(machines)
}

/// The fleet-level output of the streaming driver
/// ([`Study::run_sharded`]): the per-machine artefacts and the merged
/// online aggregates, with no materialized record stream (unless
/// retained).
pub struct StreamedStudyData {
    /// The configuration that produced the data.
    pub config: StudyConfig,
    /// The merged streaming aggregates.
    pub summary: StudySummary,
    /// The exact fact tables, only under [`crate::ShardOptions::retain`].
    pub trace_set: Option<TraceSet>,
    /// Per-machine artefacts.
    pub machines: Vec<MachineOutput>,
    /// Total records shipped through the pool.
    pub total_records: usize,
    /// Compressed footprint the batches would occupy on a collection
    /// server (accounting parity with the batch path).
    pub stored_bytes: usize,
    /// Wall-clock attribution across the fleet plus the analysis ingest;
    /// all-zero with telemetry off.
    pub profile: RuntimeProfile,
    /// Per-segment export stats, when [`crate::ShardOptions::warehouse`]
    /// was set; in machine order.
    pub warehouse: Option<Vec<nt_warehouse::SegmentStats>>,
    /// Every causal hop span the shipment tracer captured, sorted by
    /// (machine, batch, hop); empty with tracing off. The same spans are
    /// written to `trace.json` (Chrome trace-event format) when a
    /// telemetry artefact directory is configured.
    pub shipment_spans: Vec<HopSpan>,
    /// Fleet-wide health findings — every machine's watchdog findings in
    /// machine order, plus shard-level findings on the sharded path.
    pub health: Vec<HealthFinding>,
    /// The run's flight recorder handle, so post-run consumers (the
    /// conservation audit, diagnostics tooling) can inspect rings or
    /// trigger the exactly-once dump. Off-handle when disabled.
    pub flight_recorder: FlightRecorder,
}

impl StreamedStudyData {
    /// Records lost across the fleet (overflow + suspension).
    pub fn total_lost(&self) -> u64 {
        self.machines.iter().map(|m| m.loss.lost()).sum()
    }

    /// Dumps the run's flight recorder into the telemetry artefact
    /// directory (exactly once per run; later calls are no-ops). No-op
    /// without a directory or with the recorder off.
    pub fn dump_flight_recorder(&self, reason: &str) {
        dump_flight_recorder(&self.flight_recorder, &self.config, reason);
    }

    /// The per-driver-layer ns/op budget from the self-profiler (see
    /// [`StudyData::layer_budget`]).
    pub fn layer_budget(&self) -> Vec<nt_obs::PhaseBudget> {
        self.profile.layer_budget()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_study_produces_everything() {
        let config = StudyConfig::smoke_test(3);
        let data = Study::run(&config);
        assert_eq!(data.machines.len(), 5);
        assert!(data.total_records > 500, "got {}", data.total_records);
        assert!(data.stored_bytes > 0);
        assert!(!data.trace_set.instances.is_empty());
        // Every machine contributed.
        for m in &data.machines {
            assert!(m.io.opens > 0, "machine {:?} was idle", m.id);
            assert!(!m.snapshots.is_empty());
        }
        // Records span multiple machines.
        assert_eq!(data.trace_set.machines().len(), 5);
    }

    #[test]
    fn streaming_smoke_study_produces_summary() {
        let config = StudyConfig::smoke_test(3);
        let data = Study::run_sharded(&config, &crate::ShardOptions::default()).data;
        assert_eq!(data.machines.len(), 5);
        assert!(data.total_records > 500, "got {}", data.total_records);
        assert!(data.stored_bytes > 0);
        // Without retain, no fact tables are materialized …
        assert!(data.trace_set.is_none());
        // … yet the online aggregates saw the whole stream.
        assert_eq!(data.summary.machines, 5);
        assert!(data.summary.ops.opens_ok > 0);
        assert!(data.summary.peak_state_bytes > 0);
    }
}
