//! Regenerates any table or figure of the paper from a fresh study run.
//!
//! ```text
//! exp --all                         # every artefact, evaluation scale
//! exp --table 2                     # just table 2
//! exp --fig 10 --scale smoke        # figure 10 from a tiny run
//! exp --section 9 --seed 7          # §9 cache report, another seed
//! ```

use nt_bench::{run_study, Scale};
use nt_study::report::{self, Analyses};

fn usage() -> ! {
    eprintln!(
        "usage: exp [--all] [--table 1|2|3] [--fig 1..14] [--section 4|5|7|8|9|10]\n\
         \x20          [--replay] [--csv DIR] [--scale smoke|eval|paper] [--seed N]"
    );
    std::process::exit(2);
}

fn run_replay(data: &nt_study::StudyData) -> String {
    use nt_cache::CacheConfig;
    use nt_study::{ReplayConfig, WhatIfStudy};
    let report = WhatIfStudy::new(ReplayConfig::default())
        .variant(
            "no-read-ahead",
            ReplayConfig {
                cache: CacheConfig {
                    readahead_enabled: false,
                    ..CacheConfig::default()
                },
                ..ReplayConfig::default()
            },
        )
        .variant(
            "write-through",
            ReplayConfig {
                cache: CacheConfig {
                    force_write_through: true,
                    ..CacheConfig::default()
                },
                ..ReplayConfig::default()
            },
        )
        .variant(
            "irp-only",
            ReplayConfig {
                disable_fastio: true,
                ..ReplayConfig::default()
            },
        )
        .run_trace_set(&data.trace_set)
        .unwrap_or_else(|e| panic!("{e}"));
    let mut out = String::from("Trace replay under alternative cache policies\n");
    out.push_str(&report.render_summary());
    out
}

fn write_csvs(data: &nt_study::StudyData, analyses: &Analyses, dir: &str) {
    std::fs::create_dir_all(dir).expect("create csv dir");
    for (name, points) in report::csv_series(data, analyses) {
        let mut body = String::from("x,percent\n");
        for (x, y) in points {
            body.push_str(&format!("{x},{y}\n"));
        }
        let path = format!("{dir}/{name}.csv");
        std::fs::write(&path, body).expect("write csv");
        eprintln!("wrote {path}");
    }
}

fn main() {
    let mut scale = Scale::Evaluation;
    let mut seed = 1u64;
    let mut wants: Vec<String> = Vec::new();
    let mut csv_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--all" => wants.push("all".into()),
            "--replay" => wants.push("replay".into()),
            "--csv" => {
                csv_dir = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--table" | "--fig" | "--section" => {
                let n = args.next().unwrap_or_else(|| usage());
                wants.push(format!("{}{}", arg.trim_start_matches("--"), n));
            }
            "--scale" => {
                let s = args.next().unwrap_or_else(|| usage());
                scale = Scale::parse(&s).unwrap_or_else(|| usage());
            }
            "--seed" => {
                let s = args.next().unwrap_or_else(|| usage());
                seed = s.parse().unwrap_or_else(|_| usage());
            }
            _ => usage(),
        }
    }
    if wants.is_empty() {
        wants.push("all".into());
    }

    eprintln!("running the study at {scale:?} scale (seed {seed}) ...");
    let t0 = std::time::Instant::now();
    let data = run_study(scale, seed);
    eprintln!(
        "collected {} records from {} machines in {:.1}s\n",
        data.total_records,
        data.machines.len(),
        t0.elapsed().as_secs_f64()
    );

    // Computed on first use, so `--replay` alone runs no report analysis.
    let analyses = std::cell::OnceCell::new();
    let analyses = || analyses.get_or_init(|| Analyses::compute(&data));
    if let Some(dir) = &csv_dir {
        write_csvs(&data, analyses(), dir);
    }
    for want in wants {
        if want == "replay" {
            print!("{}", run_replay(&data));
            println!();
            continue;
        }
        let a = analyses();
        let out = match want.as_str() {
            "all" => report::render_report(&data, a),
            "table1" => report::table1(&data, a),
            "table2" => report::table2(&data, a),
            "table3" => report::table3(&data, a),
            "fig1" | "fig2" => report::fig_runs(&data, a),
            "fig3" | "fig4" => report::fig_sizes(&data, a),
            "fig5" => report::fig5(&data, a),
            "fig6" | "fig7" => report::fig_lifetimes(&data, a),
            "fig8" => report::fig8(&data, a),
            "fig9" => report::fig9(&data, a),
            "fig10" => report::fig10(&data, a),
            "fig11" => report::fig11(&data, a),
            "fig12" => report::fig12(&data, a),
            "fig13" | "fig14" => report::fig_paths(&data, a),
            "section4" => report::section4(&data, a),
            "section5" => report::section5(&data, a),
            "section7" => report::section7(&data, a),
            "section8" => report::section8(&data, a),
            "section9" => report::section9(&data, a),
            "section10" => report::section10(&data, a),
            other => {
                eprintln!("unknown artefact: {other}");
                usage()
            }
        };
        print!("{out}");
        println!();
    }
}
