//! The sharded collection tree: agent → shard collector → aggregator →
//! fleet — the study's streaming driver.
//!
//! [`Study::run_sharded`] streams every shipment into live analysis
//! sinks instead of storing it, so memory stays bounded by analysis
//! state rather than trace volume. Its default of one shard is the
//! paper's flat topology; retaining the fact tables, exporting a
//! warehouse and auditing the ledgers are [`ShardOptions`] and
//! [`Study::run_sharded_audited`], not separate drivers.
//!
//! The paper traced 45 desktops through three collection servers; the
//! org-scale question is what the same pipeline looks like at 1,000 or
//! 10,000 machines. This module partitions the fleet into contiguous
//! shards, gives each shard its own three-server [`StreamingPool`] and
//! [`AnalysisSet`] (so per-shard analysis state is bounded by the
//! shard's machine count, not the fleet's), runs every machine
//! simulation on one fleet-wide work-stealing pool
//! ([`nt_trace::steal`]), and reduces the per-shard
//! [`ShardSummary`] partials hierarchically — shards into aggregators,
//! aggregators into the fleet root, where tail alphas and (under
//! retain) the exact fact tables are computed once.
//!
//! The load-bearing invariant: **shard count and worker count are pure
//! performance knobs.** Every machine derives its faults from its fleet
//! index and ships through a 3-server pool whose outage windows come
//! from one shared [`FaultSchedule`], so each machine's experience is
//! identical to the one-shard topology's; and every aggregate the sinks keep
//! is integer or min/max state, so the hierarchical merge is exact, not
//! merely close. `tests/shard_scale.rs` pins this: digests of the fact
//! tables, name tables and loss ledgers are bit-identical across shard
//! counts 1/4/8 and worker counts 1/N.

use std::path::PathBuf;
use std::sync::Arc;

use nt_analysis::stream::{AnalysisSet, ShardSummary, StreamConfig};
use nt_obs::{FlightEvent, HealthFinding, MachineTelemetry, RecorderScope, Telemetry, Watchdog};
use nt_trace::{ShipmentConsumer, StreamingPool};

use crate::config::StudyConfig;
use crate::fault::FaultSchedule;
use crate::study::{
    dump_flight_recorder, run_fleet, write_trace_artefact, Instruments, MachineOutput,
    StreamedStudyData, Study, StudyFault,
};

/// Knobs of the sharded driver. The defaults reproduce the flat
/// topology (one shard, auto-sized workers).
#[derive(Clone, Debug)]
pub struct ShardOptions {
    /// Number of shard collectors; clamped to `1..=machines`.
    pub shards: usize,
    /// Worker threads for the fleet-wide work-stealing pool; `None`
    /// sizes like [`Study::run`].
    pub workers: Option<usize>,
    /// Shards merged per aggregator at the middle tier.
    pub aggregator_fanout: usize,
    /// Keep raw records and rebuild the exact fact tables (identity
    /// testing only — defeats the memory bound).
    pub retain: bool,
    /// Spill directory for the tail-analysis sample runs; shared across
    /// shards (run files are namespaced by machine id).
    pub spill_dir: Option<PathBuf>,
    /// Export the run as an NTT warehouse into this directory; shared
    /// across shards (segment files are namespaced by machine id, and
    /// each shard's sink only owns its own machine range).
    pub warehouse: Option<PathBuf>,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            shards: 1,
            workers: None,
            aggregator_fanout: 4,
            retain: false,
            spill_dir: None,
            warehouse: None,
        }
    }
}

/// What one shard contributed, before its partial was merged away.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// Fleet machine indices this shard collected, `[start, end)`.
    pub machines: std::ops::Range<usize>,
    /// Records the shard's sinks analysed.
    pub records: u64,
    /// Records shipped through the shard's pool (its head-count).
    pub total_records: usize,
    /// Compressed footprint at the shard's collection servers, bytes.
    pub stored_bytes: usize,
    /// Peak live analysis state across the shard's sinks, bytes — the
    /// quantity the per-shard memory budget bounds.
    pub peak_state_bytes: usize,
    /// Shard-level health findings (currently the post-run stall check);
    /// empty with watchdogs off.
    pub findings: Vec<HealthFinding>,
}

/// A sharded streaming run: the fleet-level data plus the per-tier
/// accounting.
pub struct ShardedStudyData {
    /// The fleet-root study data, bit-identical to a one-shard run.
    pub data: StreamedStudyData,
    /// Per-shard reports, in shard order.
    pub shards: Vec<ShardReport>,
    /// Aggregators the middle tier used (`ceil(shards / fanout)`).
    pub aggregators: usize,
}

/// Contiguous, near-even split of `0..n` into `k` ranges (the first
/// `n % k` get one extra).
pub(crate) fn shard_ranges(n: usize, k: usize) -> Vec<std::ops::Range<usize>> {
    let k = k.clamp(1, n.max(1));
    let base = n / k;
    let extra = n % k;
    let mut next = 0;
    (0..k)
        .map(|s| {
            let len = base + usize::from(s < extra);
            let range = next..next + len;
            next += len;
            range
        })
        .collect()
}

impl Study {
    /// Runs every machine of the deployment on the streaming pipeline:
    /// agents ship through one [`StreamingPool`] per shard whose servers
    /// forward every buffer into per-machine [`nt_analysis::MachineSink`]s
    /// instead of storing it. This is the path that makes
    /// `Scale::Paper` feasible in-process.
    ///
    /// With `options.retain` the sinks additionally keep the stream and
    /// the result carries the exact [`nt_analysis::TraceSet`]; the
    /// determinism suite uses that to prove this driver and the batch
    /// [`Study::run`] produce bit-identical fact tables.
    pub fn run_sharded(config: &StudyConfig, options: &ShardOptions) -> ShardedStudyData {
        Self::try_run_sharded(config, options).unwrap_or_else(|fault| panic!("{fault}"))
    }

    /// [`Study::run_sharded`], with worker and collection-server panics
    /// surfaced as a [`StudyFault`] instead of re-raised.
    pub fn try_run_sharded(
        config: &StudyConfig,
        options: &ShardOptions,
    ) -> Result<ShardedStudyData, StudyFault> {
        let instruments = Instruments::for_config(config);
        let result = Self::sharded_run_inner(config, options, &instruments);
        match &result {
            Err(fault) => dump_flight_recorder(
                &instruments.recorder,
                config,
                &format!("study-fault: {fault}"),
            ),
            Ok(sharded) if instruments.dump_on_loss && sharded.data.total_lost() > 0 => {
                sharded.data.dump_flight_recorder(&format!(
                    "loss-on-shutdown: {} records lost",
                    sharded.data.total_lost()
                ));
            }
            Ok(_) => {}
        }
        result
    }

    fn sharded_run_inner(
        config: &StudyConfig,
        options: &ShardOptions,
        instruments: &Instruments,
    ) -> Result<ShardedStudyData, StudyFault> {
        let n = config.machines.len();
        let ranges = shard_ranges(n, options.shards);
        // One schedule for the whole fleet, materialized exactly like
        // the batch path's (three servers): machine faults key off the
        // fleet index and every shard's pool replays the same collector
        // outage windows, so a machine cannot tell how many shards the
        // tree has.
        let schedule = FaultSchedule::materialize(config, 3);
        let analysis_telemetry = match config.telemetry.is_on() {
            true => Telemetry::profiler(),
            false => Telemetry::off(),
        };
        let consumers: Vec<Arc<AnalysisSet>> = ranges
            .iter()
            .enumerate()
            .map(|(s, r)| {
                let ids: Vec<u32> = (r.start as u32..r.end as u32).collect();
                Arc::new(AnalysisSet::new(
                    &ids,
                    &StreamConfig {
                        retain: options.retain,
                        spill_dir: options.spill_dir.clone(),
                        telemetry: analysis_telemetry.clone(),
                        tracer: instruments.tracer.for_shard(s as u32),
                        ..StreamConfig::default()
                    },
                ))
            })
            .collect();
        let warehouse_sinks: Vec<Option<Arc<nt_warehouse::WarehouseSink>>> =
            match &options.warehouse {
                Some(dir) => ranges
                    .iter()
                    .map(|r| {
                        let ids: Vec<u32> = (r.start as u32..r.end as u32).collect();
                        nt_warehouse::WarehouseSink::create(dir, &ids).map(|s| Some(Arc::new(s)))
                    })
                    .collect::<Result<_, _>>()?,
                None => vec![None; ranges.len()],
            };
        let pools: Vec<StreamingPool> = consumers
            .iter()
            .zip(&warehouse_sinks)
            .enumerate()
            .map(|(s, (c, w))| {
                let shard_tracer = instruments.tracer.for_shard(s as u32);
                let consumer: Arc<dyn ShipmentConsumer> = match w {
                    Some(sink) => Arc::new(crate::warehouse::Tee {
                        analysis: Arc::clone(c),
                        warehouse: Arc::clone(sink),
                        tracer: shard_tracer.clone(),
                    }),
                    None => Arc::clone(c) as Arc<dyn ShipmentConsumer>,
                };
                StreamingPool::start_traced(
                    3,
                    schedule.collectors.clone(),
                    consumer,
                    shard_tracer,
                    instruments.recorder.clone(),
                )
            })
            .collect();

        // Fleet index → owning shard, for the machine tasks.
        let shard_of: Vec<usize> = ranges
            .iter()
            .enumerate()
            .flat_map(|(s, r)| r.clone().map(move |_| s))
            .collect();

        // Every machine simulation, fleet-wide, on one stealing pool:
        // a shard of cheap WalkUp machines finishes early and its
        // workers drain the Scientific shard's backlog.
        let machines = run_fleet(
            config,
            options.workers,
            &schedule,
            instruments,
            |index| instruments.tracer.for_shard(shard_of[index] as u32),
            |index, id| pools[shard_of[index]].handle_for(id),
        );

        // Join every shard's servers before surfacing any fault — a
        // panicked machine must not leak forwarding threads.
        let mut totals = Vec::with_capacity(pools.len());
        let mut collection_fault = None;
        for pool in pools {
            match pool.finish() {
                Ok(t) => totals.push(t),
                Err(fault) => {
                    collection_fault.get_or_insert(fault);
                }
            }
        }
        let machines = machines?;
        if let Some(fault) = collection_fault {
            return Err(fault.into());
        }

        // Shard tier: close each shard's sinks into a mergeable partial.
        let mut shard_summaries: Vec<ShardSummary> = Vec::with_capacity(consumers.len());
        let mut shards = Vec::with_capacity(consumers.len());
        let end_ticks = config.duration.ticks();
        for (s, consumer) in consumers.into_iter().enumerate() {
            let consumer = Arc::try_unwrap(consumer)
                .unwrap_or_else(|_| panic!("server threads still hold shard {s} after finish"));
            let partial = consumer.finish_shard();
            // Shard boundary crossed: note what this collector merged
            // away, then run the post-run stall check over its machines'
            // last successful deliveries.
            instruments.recorder.record(
                RecorderScope::Shard(s as u32),
                FlightEvent::MergeBoundary {
                    shard: s as u32,
                    machines: ranges[s].len() as u64,
                    records: partial.summary.records,
                },
            );
            let mut findings = Vec::new();
            if instruments.watchdogs {
                let last = machines[ranges[s].clone()]
                    .iter()
                    .map(|m| m.last_delivery_ticks)
                    .max()
                    .unwrap_or(0);
                if let Some(f) = Watchdog::stalled_shard(s as u32, last, end_ticks) {
                    instruments.recorder.record(
                        RecorderScope::Shard(s as u32),
                        FlightEvent::Finding(f.clone()),
                    );
                    findings.push(f);
                }
            }
            shards.push(ShardReport {
                shard: s,
                machines: ranges[s].clone(),
                records: partial.summary.records,
                total_records: totals[s].total_records,
                stored_bytes: totals[s].stored_bytes,
                peak_state_bytes: partial.summary.peak_state_bytes,
                findings,
            });
            shard_summaries.push(partial);
        }

        // Aggregator tier: contiguous groups of `fanout` shards merge
        // first, then the fleet root merges the aggregators. Exactness
        // of the partial merge makes this tree shape (or any other)
        // invisible in the result.
        let fanout = options.aggregator_fanout.max(1);
        let mut aggregators_tier: Vec<ShardSummary> = Vec::new();
        let mut iter = shard_summaries.into_iter().peekable();
        while iter.peek().is_some() {
            let mut aggregator = ShardSummary::default();
            for partial in iter.by_ref().take(fanout) {
                aggregator.merge(partial);
            }
            aggregators_tier.push(aggregator);
        }
        let aggregators = aggregators_tier.len();
        let mut fleet = ShardSummary::default();
        for aggregator in aggregators_tier {
            fleet.merge(aggregator);
        }
        let analysis = fleet.into_analysis();

        // Warehouse tier: each shard's sink writes its own machine range
        // into the shared directory; the stats concatenate in machine
        // order because shards are contiguous and ascending.
        let warehouse_stats = match options.warehouse.is_some() {
            true => {
                let _span = analysis_telemetry
                    .span_child(nt_obs::Phase::Warehouse, "warehouse.export_sharded");
                let mut stats = Vec::with_capacity(n);
                for (s, sink) in warehouse_sinks.into_iter().enumerate() {
                    let sink = sink.expect("warehouse sinks exist for every shard");
                    let sink = Arc::try_unwrap(sink).unwrap_or_else(|_| {
                        panic!("the tee still holds shard {s}'s warehouse after finish")
                    });
                    stats.extend(sink.finish()?);
                }
                Some(stats)
            }
            false => None,
        };

        let profile = crate::study::fleet_profile(&machines, &analysis_telemetry);
        write_sharded_telemetry(config, &machines, &shard_of);
        let total_records = shards.iter().map(|s| s.total_records).sum();
        let stored_bytes = shards.iter().map(|s| s.stored_bytes).sum();
        // Every shard tracer shares the root tracer's span store, so one
        // drain collects the whole tree.
        let shipment_spans = instruments.tracer.take_sorted();
        write_trace_artefact(config, &instruments.tracer, &shipment_spans);
        let health: Vec<HealthFinding> = machines
            .iter()
            .flat_map(|m| m.health.iter().cloned())
            .chain(shards.iter().flat_map(|s| s.findings.iter().cloned()))
            .collect();
        Ok(ShardedStudyData {
            data: StreamedStudyData {
                config: config.clone(),
                summary: analysis.summary,
                trace_set: analysis.trace_set,
                machines,
                total_records,
                stored_bytes,
                profile,
                warehouse: warehouse_stats,
                shipment_spans,
                health,
                flight_recorder: instruments.recorder.clone(),
            },
            shards,
            aggregators,
        })
    }
}

/// The sharded counterpart of the flat telemetry export: rows carry
/// `shard:<k>` scopes between the category and machine scopes. Export
/// must never fail the study; errors are reported and swallowed.
fn write_sharded_telemetry(config: &StudyConfig, machines: &[MachineOutput], shard_of: &[usize]) {
    let Some(dir) = config.telemetry.options().and_then(|o| o.dir.as_ref()) else {
        return;
    };
    let labelled: Vec<(u32, String, usize, &MachineTelemetry)> = machines
        .iter()
        .filter_map(|m| {
            m.telemetry.as_ref().map(|t| {
                let shard = shard_of.get(m.id.0 as usize).copied().unwrap_or(0);
                (m.id.0, format!("{:?}", m.category), shard, t)
            })
        })
        .collect();
    let borrowed: Vec<(u32, &str, usize, &MachineTelemetry)> = labelled
        .iter()
        .map(|(id, cat, shard, t)| (*id, cat.as_str(), *shard, *t))
        .collect();
    let rows = nt_obs::export::sharded_rows(&borrowed);
    let path = dir.join("timeseries.jsonl");
    if let Err(e) = nt_obs::write_timeseries_jsonl(&path, &rows) {
        eprintln!("nt-obs: cannot write {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_cover_contiguously() {
        for (n, k) in [(45, 8), (10, 3), (3, 8), (1_000, 8), (5, 1), (0, 4)] {
            let ranges = shard_ranges(n, k);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "n={n} k={k}");
                next = r.end;
            }
            assert_eq!(next, n, "n={n} k={k}");
            let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(max - min <= 1, "near-even split: {lens:?}");
        }
    }

    #[test]
    fn one_shard_equals_the_batch_reference() {
        let config = StudyConfig::smoke_test(17);
        let batch = Study::run(&config);
        let sharded = Study::run_sharded(
            &config,
            &ShardOptions {
                retain: true,
                ..ShardOptions::default()
            },
        );
        assert_eq!(sharded.shards.len(), 1);
        assert_eq!(sharded.aggregators, 1);
        assert_eq!(sharded.data.total_records, batch.total_records);
        assert_eq!(sharded.data.stored_bytes, batch.stored_bytes);
        assert_eq!(sharded.data.summary.records, batch.total_records as u64);
        let rebuilt = sharded.data.trace_set.as_ref().expect("retained");
        assert_eq!(rebuilt.records, batch.trace_set.records);
        assert_eq!(rebuilt.instances, batch.trace_set.instances);
        assert_eq!(rebuilt.names, batch.trace_set.names);
    }

    #[test]
    fn shard_reports_partition_the_head_count() {
        let config = StudyConfig::smoke_test(18);
        let sharded = Study::run_sharded(
            &config,
            &ShardOptions {
                shards: 3,
                ..ShardOptions::default()
            },
        );
        assert_eq!(sharded.shards.len(), 3);
        let per_shard: usize = sharded.shards.iter().map(|s| s.total_records).sum();
        assert_eq!(per_shard, sharded.data.total_records);
        let analysed: u64 = sharded.shards.iter().map(|s| s.records).sum();
        assert_eq!(analysed, sharded.data.summary.records);
        for s in &sharded.shards {
            assert!(!s.machines.is_empty());
            assert!(s.peak_state_bytes > 0);
        }
    }
}
