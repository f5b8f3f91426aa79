//! The traced run: the same layers the study drivers use, composed here
//! from their public functions, with every call into a layer timed from
//! the benchmark's own code. The program itself carries no new spans.
//!
//! `traced_study` mirrors `Study::run_sharded` step for step (fault
//! schedule, per-shard analysis sets and warehouse sinks, collector
//! pools, machine runs on the work-stealing pool, drain, shard →
//! aggregator → fleet merge), and `traced_whatif` mirrors
//! `WhatIfStudy::run`. Their outputs are digested exactly like the
//! untraced runs', so the two can be compared bit for bit.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

use nt_analysis::stream::{AnalysisSet, ShardSummary, StreamConfig};
use nt_analysis::whatif::{render_delta_table, DeltaSummary, DifferentialTable, ReplayFacts};
use nt_study::{
    audit_variant, extract_streams, replay_stream, FaultSchedule, FlightRecorder, MachineOutput,
    MachineRun, RuntimeProfile, ShardOptions, ShardReport, ShardedStudyData, ShipmentTracer,
    StreamedStudyData, StudyConfig,
};
use nt_trace::{
    BatchMeta, CollectorHandle, MachineId, NameRecord, RecordSink, ShipmentConsumer, StreamingPool,
    TraceRecord,
};
use nt_warehouse::{Warehouse, WarehouseSink};

use crate::cpu;
use crate::workloads::{whatif_study, LayerCounts, WORKERS};

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// A machine's collector handle with the time spent inside each
/// delivery call accumulated.
struct TimedSink {
    inner: CollectorHandle,
    ns: u64,
}

impl RecordSink for TimedSink {
    fn ingest(&mut self, machine: MachineId, records: &[TraceRecord]) {
        let t = Instant::now();
        self.inner.ingest(machine, records);
        self.ns += ns_since(t);
    }

    fn ingest_name(&mut self, machine: MachineId, name: NameRecord) {
        let t = Instant::now();
        self.inner.ingest_name(machine, name);
        self.ns += ns_since(t);
    }

    fn ingest_at(
        &mut self,
        machine: MachineId,
        seq: u64,
        records: &[TraceRecord],
        now_ticks: u64,
    ) -> bool {
        let t = Instant::now();
        let accepted = self.inner.ingest_at(machine, seq, records, now_ticks);
        self.ns += ns_since(t);
        accepted
    }

    fn ingest_name_at(
        &mut self,
        machine: MachineId,
        seq: u64,
        name: NameRecord,
        now_ticks: u64,
    ) -> bool {
        let t = Instant::now();
        let accepted = self.inner.ingest_name_at(machine, seq, name, now_ticks);
        self.ns += ns_since(t);
        accepted
    }
}

/// One shard's consumer: the analysis set, teed into the warehouse sink
/// when the run exports (warehouse copy first, as the study's own tee
/// does), with the time spent in each accumulated.
struct TimedConsumer {
    analysis: Arc<AnalysisSet>,
    warehouse: Option<Arc<WarehouseSink>>,
    analysis_ns: AtomicU64,
    export_ns: AtomicU64,
}

impl ShipmentConsumer for TimedConsumer {
    fn batch(
        &self,
        machine: MachineId,
        seq: Option<u64>,
        records: Vec<TraceRecord>,
        meta: Option<BatchMeta>,
    ) {
        if let Some(sink) = &self.warehouse {
            let t = Instant::now();
            sink.batch(machine, seq, records.clone(), None);
            self.export_ns.fetch_add(ns_since(t), Ordering::Relaxed);
        }
        let t = Instant::now();
        self.analysis.batch(machine, seq, records, meta);
        self.analysis_ns.fetch_add(ns_since(t), Ordering::Relaxed);
    }

    fn name(&self, machine: MachineId, seq: Option<u64>, name: NameRecord) {
        if let Some(sink) = &self.warehouse {
            let t = Instant::now();
            sink.name(machine, seq, name.clone());
            self.export_ns.fetch_add(ns_since(t), Ordering::Relaxed);
        }
        let t = Instant::now();
        self.analysis.name(machine, seq, name);
        self.analysis_ns.fetch_add(ns_since(t), Ordering::Relaxed);
    }
}

/// What one pool task measured about itself.
struct TaskTiming {
    thread: ThreadId,
    /// Host seconds of the whole task.
    task_s: f64,
    /// The worker thread's CPU clock when the task ended.
    thread_cpu_s: f64,
}

impl TaskTiming {
    fn end(start: Instant) -> Self {
        TaskTiming {
            thread: std::thread::current().id(),
            task_s: start.elapsed().as_secs_f64(),
            thread_cpu_s: cpu::thread_s(),
        }
    }
}

/// Busiest worker's busy time over the mean, and the workers' total CPU
/// (each worker thread is fresh, so its clock at its last task is its
/// whole CPU time).
fn worker_stats(tasks: &[&TaskTiming]) -> (f64, f64) {
    let mut busy: HashMap<ThreadId, f64> = HashMap::new();
    let mut cpu: HashMap<ThreadId, f64> = HashMap::new();
    for t in tasks {
        *busy.entry(t.thread).or_default() += t.task_s;
        let c = cpu.entry(t.thread).or_default();
        *c = c.max(t.thread_cpu_s);
    }
    // Workers that got no task were idle for the whole section.
    let workers = WORKERS.min(tasks.len()).max(busy.len()).max(1);
    let total: f64 = busy.values().sum();
    let max = busy.values().copied().fold(0.0, f64::max);
    let skew = if total > 0.0 {
        max / (total / workers as f64)
    } else {
        1.0
    };
    (skew, cpu.values().sum())
}

/// Median and `q`-quantile (nearest rank) of a sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * (v.len() - 1) as f64).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// Per-layer measurements of one traced study.
#[derive(Default)]
pub struct StudyLayers {
    pub wall_s: f64,
    pub build_s: f64,
    pub machine_s: Vec<f64>,
    pub simulate_s: f64,
    pub ship_s: f64,
    pub makespan_skew: f64,
    pub collector_cpu_s: f64,
    pub collector_drain_s: f64,
    pub consume_s: f64,
    pub finish_s: f64,
    pub trace_set_build_s: f64,
    pub export_s: f64,
}

/// Contiguous near-even split of `0..n` into `k` shards, as the sharded
/// driver splits its fleet.
fn shard_ranges(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    let k = k.clamp(1, n.max(1));
    let (base, extra) = (n / k, n % k);
    let mut next = 0;
    (0..k)
        .map(|s| {
            let len = base + usize::from(s < extra);
            next += len;
            next - len..next
        })
        .collect()
}

/// `Study::run_sharded` with instrumentation off, composed from the
/// layers' public functions and timed around each call.
pub fn traced_study(
    config: &StudyConfig,
    options: &ShardOptions,
) -> Result<(ShardedStudyData, StudyLayers), String> {
    let mut layers = StudyLayers::default();
    let (t0, cpu0, main_cpu0) = (Instant::now(), cpu::process_s(), cpu::thread_s());
    let n = config.machines.len();
    let ranges = shard_ranges(n, options.shards);
    let schedule = FaultSchedule::materialize(config, 3);
    let analysis_sets: Vec<Arc<AnalysisSet>> = ranges
        .iter()
        .map(|r| {
            let ids: Vec<u32> = (r.start as u32..r.end as u32).collect();
            Arc::new(AnalysisSet::new(
                &ids,
                &StreamConfig {
                    retain: options.retain,
                    spill_dir: options.spill_dir.clone(),
                    ..StreamConfig::default()
                },
            ))
        })
        .collect();
    let consumers: Vec<Arc<TimedConsumer>> = ranges
        .iter()
        .zip(&analysis_sets)
        .map(|(r, analysis)| {
            let warehouse = match &options.warehouse {
                Some(dir) => {
                    let ids: Vec<u32> = (r.start as u32..r.end as u32).collect();
                    Some(Arc::new(
                        WarehouseSink::create(dir, &ids).map_err(|e| e.to_string())?,
                    ))
                }
                None => None,
            };
            Ok(Arc::new(TimedConsumer {
                analysis: Arc::clone(analysis),
                warehouse,
                analysis_ns: AtomicU64::new(0),
                export_ns: AtomicU64::new(0),
            }))
        })
        .collect::<Result<_, String>>()?;
    let pools: Vec<StreamingPool> = consumers
        .iter()
        .map(|c| {
            StreamingPool::start_with_outages(
                3,
                schedule.collectors.clone(),
                Arc::clone(c) as Arc<dyn ShipmentConsumer>,
            )
        })
        .collect();
    let shard_of: Vec<usize> = ranges
        .iter()
        .enumerate()
        .flat_map(|(s, r)| r.clone().map(move |_| s))
        .collect();

    let workers = options.workers.unwrap_or(WORKERS).min(n.max(1));
    let (slots, panic) = nt_trace::run_indexed(n, workers, |index| {
        let start = Instant::now();
        let spec = &config.machines[index];
        let faults = schedule.for_machine(index);
        let mut run = MachineRun::build_with_faults(config, index, spec, &faults);
        run.set_instruments(&ShipmentTracer::off(), &FlightRecorder::off(), false);
        let build_s = start.elapsed().as_secs_f64();
        let mut sink = TimedSink {
            inner: pools[shard_of[index]].handle_for(run.id),
            ns: 0,
        };
        let t = Instant::now();
        run.simulate_with_faults(config, &faults, &mut sink);
        let simulate_s = t.elapsed().as_secs_f64();
        let output = MachineOutput {
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
        };
        let ship_s = sink.ns as f64 * 1e-9;
        (output, build_s, simulate_s, ship_s, TaskTiming::end(start))
    });
    let t = Instant::now();
    let mut totals = Vec::with_capacity(pools.len());
    for pool in pools {
        totals.push(pool.finish().map_err(|f| f.to_string())?);
    }
    layers.collector_drain_s = t.elapsed().as_secs_f64();
    if let Some(p) = panic {
        return Err(format!("machine {}: {}", p.index, p.message));
    }
    let process_cpu = cpu::process_s() - cpu0;
    let main_cpu = cpu::thread_s() - main_cpu0;

    let mut machines = Vec::with_capacity(n);
    let mut timings = Vec::with_capacity(n);
    for (output, build_s, simulate_s, ship_s, timing) in slots.into_iter().flatten() {
        layers.build_s += build_s;
        layers.simulate_s += simulate_s - ship_s;
        layers.ship_s += ship_s;
        layers.machine_s.push(build_s + simulate_s);
        machines.push(output);
        timings.push(timing);
    }
    machines.sort_by_key(|m| m.id);
    let (skew, worker_cpu) = worker_stats(&timings.iter().collect::<Vec<_>>());
    layers.makespan_skew = skew;
    layers.collector_cpu_s = (process_cpu - worker_cpu - main_cpu).max(0.0);

    let mut consumers_inner = Vec::with_capacity(consumers.len());
    for c in consumers {
        let c = Arc::try_unwrap(c).map_err(|_| "a pool still holds a consumer".to_string())?;
        layers.consume_s += c.analysis_ns.into_inner() as f64 * 1e-9;
        layers.export_s += c.export_ns.into_inner() as f64 * 1e-9;
        consumers_inner.push(c.warehouse);
    }

    // Shard tier, then aggregators of `aggregator_fanout` shards, then
    // the fleet root — the driver's merge tree.
    let t = Instant::now();
    let mut shards = Vec::with_capacity(ranges.len());
    let mut partials = Vec::with_capacity(ranges.len());
    for (s, set) in analysis_sets.into_iter().enumerate() {
        let set = Arc::try_unwrap(set)
            .map_err(|_| format!("shard {s}'s analysis set is still shared"))?;
        let partial = set.finish_shard();
        shards.push(ShardReport {
            shard: s,
            machines: ranges[s].clone(),
            records: partial.summary.records,
            total_records: totals[s].total_records,
            stored_bytes: totals[s].stored_bytes,
            peak_state_bytes: partial.summary.peak_state_bytes,
            findings: Vec::new(),
        });
        partials.push(partial);
    }
    let fanout = options.aggregator_fanout.max(1);
    let mut tier = Vec::new();
    let mut iter = partials.into_iter().peekable();
    while iter.peek().is_some() {
        let mut aggregator = ShardSummary::default();
        for partial in iter.by_ref().take(fanout) {
            aggregator.merge(partial);
        }
        tier.push(aggregator);
    }
    let aggregators = tier.len();
    let mut fleet = ShardSummary::default();
    for aggregator in tier {
        fleet.merge(aggregator);
    }
    layers.finish_s = t.elapsed().as_secs_f64();
    // Closing the root computes the tail alphas and, under retain,
    // rebuilds the exact fact tables; with retain that rebuild is the
    // bulk of it.
    let t = Instant::now();
    let analysis = fleet.into_analysis();
    match options.retain {
        true => layers.trace_set_build_s = t.elapsed().as_secs_f64(),
        false => layers.finish_s += t.elapsed().as_secs_f64(),
    }

    let warehouse = match options.warehouse.is_some() {
        true => {
            let t = Instant::now();
            let mut stats = Vec::with_capacity(n);
            for sink in consumers_inner.into_iter().flatten() {
                let sink = Arc::try_unwrap(sink)
                    .map_err(|_| "a warehouse sink is still shared".to_string())?;
                stats.extend(sink.finish().map_err(|e| e.to_string())?);
            }
            layers.export_s += t.elapsed().as_secs_f64();
            Some(stats)
        }
        false => None,
    };
    layers.wall_s = t0.elapsed().as_secs_f64();
    let data = ShardedStudyData {
        data: StreamedStudyData {
            config: config.clone(),
            summary: analysis.summary,
            trace_set: analysis.trace_set,
            total_records: totals.iter().map(|t| t.total_records).sum(),
            stored_bytes: totals.iter().map(|t| t.stored_bytes).sum(),
            health: machines
                .iter()
                .flat_map(|m| m.health.iter().cloned())
                .collect(),
            machines,
            profile: RuntimeProfile::default(),
            warehouse,
            shipment_spans: Vec::new(),
            flight_recorder: FlightRecorder::off(),
        },
        shards,
        aggregators,
    };
    Ok((data, layers))
}

/// Per-layer measurements of one traced what-if study.
#[derive(Default)]
pub struct WhatIfLayers {
    pub wall_s: f64,
    pub open_s: f64,
    pub extract_s: f64,
    pub cell_s: Vec<f64>,
    pub replay_ns_per_record: f64,
    pub audit_s: f64,
    pub makespan_skew: f64,
    pub requests: u64,
    pub skipped: u64,
    /// The baseline cells' layer counters.
    pub counts: LayerCounts,
}

/// What a traced what-if study answers with, for the digest.
pub struct WhatIfAnswer {
    pub summary: String,
    pub tables: Vec<DifferentialTable>,
    pub totals: Vec<ReplayFacts>,
    pub source_records: u64,
}

/// `Warehouse::open` followed by `WhatIfStudy::run`, composed from the
/// public extract / replay / audit functions and timed around each.
pub fn traced_whatif(source: &Path) -> Result<(WhatIfAnswer, WhatIfLayers), String> {
    let mut layers = WhatIfLayers::default();
    let study = whatif_study();
    let t0 = Instant::now();
    let warehouse = Warehouse::open(source).map_err(|e| e.to_string())?;
    layers.open_s = t0.elapsed().as_secs_f64();
    let t = Instant::now();
    let streams = extract_streams(&warehouse).map_err(|e| e.to_string())?;
    layers.extract_s = t.elapsed().as_secs_f64();

    let mut names = vec!["baseline"];
    let mut configs = vec![&study.baseline];
    for (name, config) in &study.variants {
        names.push(name);
        configs.push(config);
    }
    let per_variant = streams.len();
    let tasks = configs.len() * per_variant;
    let (slots, panic) = nt_trace::run_indexed(tasks, study.workers, |i| {
        let start = Instant::now();
        let outcome = replay_stream(&streams[i % per_variant], configs[i / per_variant]);
        (outcome, TaskTiming::end(start))
    });
    if let Some(p) = panic {
        return Err(format!("replay task {}: {}", p.index, p.message));
    }
    let mut outcomes = Vec::with_capacity(tasks);
    let mut timings = Vec::with_capacity(tasks);
    for (outcome, timing) in slots.into_iter().flatten() {
        outcomes.push(outcome);
        timings.push(timing);
    }
    if outcomes.len() != tasks {
        return Err("a replay cell produced no outcome".to_string());
    }
    layers.cell_s = timings.iter().map(|t| t.task_s).collect();
    layers.makespan_skew = worker_stats(&timings.iter().collect::<Vec<_>>()).0;
    let replayed: u64 = outcomes.iter().map(|o| o.facts.source_records).sum();
    layers.replay_ns_per_record = layers.cell_s.iter().sum::<f64>() * 1e9 / replayed.max(1) as f64;
    layers.requests = outcomes.iter().map(|o| o.facts.replayed_requests).sum();
    layers.skipped = outcomes.iter().map(|o| o.facts.skipped_records).sum();
    for o in &outcomes[..per_variant] {
        layers.counts.add(&o.io, &o.cache, &o.vm);
    }

    let mut runs = Vec::with_capacity(configs.len());
    for (v, chunk) in outcomes.chunks(per_variant.max(1)).enumerate() {
        let t = Instant::now();
        audit_variant(names[v], chunk).map_err(|e| e.to_string())?;
        layers.audit_s += t.elapsed().as_secs_f64();
        let rows: Vec<ReplayFacts> = chunk.iter().map(|o| o.facts).collect();
        let total = ReplayFacts::fleet_total(&rows);
        runs.push((names[v], rows, total));
    }
    let (base_name, base_rows, base_total) = runs.remove(0);
    let tables: Vec<DifferentialTable> = runs
        .iter()
        .map(|(name, rows, _)| DifferentialTable::build(name, rows, &base_rows))
        .collect();
    let mut summaries = vec![DeltaSummary::compute(base_name, &base_total, &base_total)];
    summaries.extend(
        runs.iter()
            .map(|(name, _, total)| DeltaSummary::compute(name, total, &base_total)),
    );
    let summary = render_delta_table(base_name, &summaries);
    layers.wall_s = t0.elapsed().as_secs_f64();
    let totals = std::iter::once(base_total)
        .chain(runs.iter().map(|(_, _, total)| *total))
        .collect();
    Ok((
        WhatIfAnswer {
            summary,
            tables,
            totals,
            source_records: warehouse.total_records(),
        },
        layers,
    ))
}
