//! The benchmark's measuring program. `run.py` builds it and runs every
//! step as a fresh process that prints one JSON line:
//!
//! ```text
//! perfbench setup        --workload whatif_matrix --seed N --dir D
//! perfbench traced-setup --workload whatif_matrix --seed N --dir D
//! perfbench pass         --workload W --seed N --dir D
//! perfbench traced-pass  --workload W --seed N --dir D
//! ```
//!
//! `setup` records the what-if matrix's source trace into `D` several
//! times and reports the median time; `traced-setup` records it once more
//! through the traced composition. `pass` runs one untraced, timed pass
//! of the workload (a study workload first times its own set-up);
//! `traced-pass` runs one traced pass and reports per-layer values.
//! `run.py` repeats passes for the run's length and takes the medians.

mod cpu;
mod json;
mod traced;
mod workloads;

use std::path::PathBuf;

use json::Obj;
use traced::{quantile, traced_study, traced_whatif, StudyLayers, WhatIfLayers};
use workloads::{
    check_ledgers, check_replay_accounting, dir_digest, finish_lossy, finish_paper, loss_totals,
    org_config, org_options, paper_config, paper_options, record_source, run_untraced,
    study_setup_s, whatif_digest, whatif_source_config, whatif_source_options, Checks, LayerCounts,
    Workload,
};

/// Set-up repetitions for the what-if matrix (each records a trace).
const WHATIF_SETUP_REPS: usize = 3;
/// A study workload's set-up is timed before every pass, repeated for
/// this many seconds each time.
const STUDY_SETUP_S: f64 = 0.02;

struct Args {
    mode: String,
    workload: Workload,
    seed: u64,
    dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode")?;
    let (mut workload, mut seed, mut dir) = (None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        mode,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        dir: dir.ok_or("--dir is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut checks = Checks::default();
    let mut out = match args.mode.as_str() {
        "setup" => run_setup(&args, &mut checks),
        "traced-setup" => run_traced_setup(&args, &mut checks),
        "pass" => run_pass(&args, &mut checks),
        "traced-pass" => run_traced_pass(&args, &mut checks),
        other => {
            eprintln!("perfbench: unknown mode {other}");
            std::process::exit(2);
        }
    };
    out.int("attempted", checks.attempted)
        .strs("failures", &checks.failures);
    println!("{}", out.render());
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `whatif_matrix` set-up, repeated: each repetition records the
/// source trace afresh and must write the same warehouse bytes.
fn run_setup(args: &Args, checks: &mut Checks) -> Obj {
    if args.workload != Workload::WhatIfMatrix {
        eprintln!("perfbench: only whatif_matrix has a separate set-up step");
        std::process::exit(2);
    }
    let mut samples = Vec::new();
    let mut digests: Vec<String> = Vec::new();
    for _ in 0..WHATIF_SETUP_REPS {
        let (s, digest) = record_source(args.seed, &args.dir, checks);
        samples.push(s);
        digests.push(digest);
    }
    for d in &digests[1..] {
        checks.check(*d == digests[0], || {
            format!(
                "set-up recorded a different warehouse: {d} vs {}",
                digests[0]
            )
        });
    }
    let mut out = Obj::new();
    out.num("setup_s", median(&samples));
    out
}

fn run_pass(args: &Args, checks: &mut Checks) -> Obj {
    let mut out = Obj::new();
    if args.workload != Workload::WhatIfMatrix {
        out.num(
            "setup_s",
            study_setup_s(args.workload, args.seed, STUDY_SETUP_S),
        );
    }
    let pass = run_untraced(args.workload, args.seed, &args.dir, checks);
    out.num("wall_s", pass.wall_s)
        .num("cpu_s", pass.cpu_s)
        .int("records", pass.records)
        .num("sim_s", pass.sim_s)
        .num("peak_rss_mb", cpu::peak_rss_mb())
        .str("digest", &pass.digest);
    out
}

/// One traced pass: its wall time, output digest and the per-layer
/// values of the layers the workload passes through.
struct TracedPass {
    wall_s: f64,
    digest: String,
    metrics: Vec<(&'static str, f64)>,
}

fn ratio(part: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        part as f64 / base as f64
    }
}

fn count_metrics(c: &LayerCounts) -> Vec<(&'static str, f64)> {
    vec![
        ("io.ops", c.io_ops as f64),
        ("io.reads", c.io_reads as f64),
        ("io.fastio_read_share", ratio(c.fastio_reads, c.io_reads)),
        ("cache.reads", c.cache_reads as f64),
        (
            "cache.read_hit_ratio",
            ratio(c.cache_read_hits, c.cache_reads),
        ),
        ("cache.readahead_ios", c.readahead_ios as f64),
        ("cache.lazy_writes", c.lazy_writes as f64),
        ("vm.paging_read_ios", c.paging_read_ios as f64),
    ]
}

/// The study-layer metrics of a traced study run.
fn study_metrics(data: &nt_study::ShardedStudyData, l: &StudyLayers) -> Vec<(&'static str, f64)> {
    let loss = loss_totals(&data.data.machines);
    let total_records = data.data.total_records as u64;
    let (exported_bytes, exported_records) = data
        .data
        .warehouse
        .as_ref()
        .map(|stats| {
            (
                stats.iter().map(|s| s.bytes).sum::<u64>(),
                stats.iter().map(|s| s.records).sum::<u64>(),
            )
        })
        .unwrap_or((0, 0));
    vec![
        ("study.build_s", l.build_s),
        ("study.machine_s_p50", quantile(&l.machine_s, 0.5)),
        ("study.machine_s_max", quantile(&l.machine_s, 1.0)),
        ("study.simulate_s", l.simulate_s),
        (
            "study.simulate_ns_per_record",
            l.simulate_s * 1e9 / loss.recorded.max(1) as f64,
        ),
        ("study.makespan_skew", l.makespan_skew),
        ("trace.ship_s", l.ship_s),
        ("trace.batches_shipped", loss.batches_shipped as f64),
        ("trace.batches_retried", loss.batches_retried as f64),
        ("trace.records_recorded", loss.recorded as f64),
        ("trace.records_lost_frac", ratio(loss.lost(), loss.recorded)),
        ("trace.collector_cpu_s", l.collector_cpu_s),
        ("trace.collector_drain_s", l.collector_drain_s),
        (
            "trace.stored_bytes_per_record",
            ratio(data.data.stored_bytes as u64, total_records),
        ),
        ("analysis.consume_s", l.consume_s),
        ("analysis.finish_s", l.finish_s),
        ("analysis.trace_set_build_s", l.trace_set_build_s),
        (
            "analysis.peak_state_bytes",
            data.data.summary.peak_state_bytes as f64,
        ),
        ("warehouse.export_s", l.export_s),
        (
            "warehouse.bytes_per_record",
            ratio(exported_bytes, exported_records),
        ),
    ]
}

fn whatif_metrics(l: &WhatIfLayers) -> Vec<(&'static str, f64)> {
    let mut m = vec![
        ("warehouse.open_s", l.open_s),
        ("study.whatif_extract_s", l.extract_s),
        ("study.replay_cell_s_p50", quantile(&l.cell_s, 0.5)),
        ("study.replay_cell_s_p90", quantile(&l.cell_s, 0.9)),
        ("study.replay_ns_per_record", l.replay_ns_per_record),
        ("audit.variant_s", l.audit_s),
        ("study.makespan_skew", l.makespan_skew),
        ("replay.requests", l.requests as f64),
        ("replay.skipped", l.skipped as f64),
    ];
    m.extend(count_metrics(&l.counts));
    m
}

fn traced_pass(args: &Args, checks: &mut Checks) -> Result<TracedPass, String> {
    match args.workload {
        Workload::PaperFleet => {
            let config = paper_config(args.seed);
            let (data, layers) = traced_study(&config, &paper_options())?;
            let mut metrics = study_metrics(&data, &layers);
            metrics.extend(count_metrics(&LayerCounts::of_machines(
                &data.data.machines,
            )));
            let (digest, report_s, _) = finish_paper(data, checks);
            metrics.push(("study.report_s", report_s));
            Ok(TracedPass {
                wall_s: layers.wall_s + report_s,
                digest,
                metrics,
            })
        }
        Workload::LossyOrg => {
            let config = org_config(args.seed);
            let export = args.dir.join("export");
            let _ = std::fs::remove_dir_all(&export);
            let (data, layers) = traced_study(&config, &org_options(&export))?;
            let mut metrics = study_metrics(&data, &layers);
            metrics.extend(count_metrics(&LayerCounts::of_machines(
                &data.data.machines,
            )));
            Ok(TracedPass {
                wall_s: layers.wall_s,
                digest: finish_lossy(data, &export, checks),
                metrics,
            })
        }
        Workload::WhatIfMatrix => {
            let (answer, layers) = traced_whatif(&args.dir.join("source"))?;
            check_replay_accounting(&answer.totals, answer.source_records, checks);
            Ok(TracedPass {
                wall_s: layers.wall_s,
                digest: whatif_digest(&answer.summary, &answer.tables, &answer.totals),
                metrics: whatif_metrics(&layers),
            })
        }
    }
}

/// The what-if set-up, traced: records the source trace again through
/// the traced study composition and checks it writes the same bytes.
fn traced_whatif_setup(
    args: &Args,
    checks: &mut Checks,
) -> Result<Vec<(&'static str, f64)>, String> {
    let config = whatif_source_config(args.seed);
    let dir = args.dir.join("source-traced");
    let _ = std::fs::remove_dir_all(&dir);
    let (data, layers) = traced_study(&config, &whatif_source_options(&dir))?;
    check_ledgers(&data, checks);
    let (traced, untraced) = (dir_digest(&dir), dir_digest(&args.dir.join("source")));
    checks.check(traced == untraced, || {
        format!("traced set-up wrote warehouse {traced}, untraced {untraced}")
    });
    let _ = std::fs::remove_dir_all(&dir);
    let mut metrics = study_metrics(&data, &layers);
    // The matrix's own skew is the replay pool's; the set-up's is not
    // on the timed path.
    metrics.retain(|(name, _)| *name != "study.makespan_skew");
    Ok(metrics)
}

fn run_traced_setup(args: &Args, checks: &mut Checks) -> Obj {
    let metrics = traced_whatif_setup(args, checks).unwrap_or_else(|e| {
        eprintln!("perfbench: traced set-up failed: {e}");
        std::process::exit(1);
    });
    let mut out = Obj::new();
    out.obj("metrics", &metrics_obj(&metrics));
    out
}

fn run_traced_pass(args: &Args, checks: &mut Checks) -> Obj {
    let pass = traced_pass(args, checks).unwrap_or_else(|e| {
        eprintln!("perfbench: traced pass failed: {e}");
        std::process::exit(1);
    });
    let mut out = Obj::new();
    out.num("wall_s", pass.wall_s)
        .obj("metrics", &metrics_obj(&pass.metrics))
        .str("digest", &pass.digest);
    out
}

fn metrics_obj(metrics: &[(&'static str, f64)]) -> Obj {
    let mut obj = Obj::new();
    for (name, value) in metrics {
        obj.num(name, *value);
    }
    obj
}
