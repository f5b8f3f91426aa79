//! Shared plumbing for the benchmark harness.
//!
//! The `exp` binary (`src/bin/exp.rs`) regenerates any table or figure of
//! the paper from a fresh study run; the Criterion benches
//! (`benches/*.rs`) measure the simulator and the analysis pipeline, and
//! run the DESIGN.md ablations.

use nt_study::{ShardOptions, ShardedStudyData, Study, StudyConfig, StudyData};

pub mod baseline;
pub use baseline::{check_min_ns, Baseline, BenchCheck, Verdict};

/// The scales the harness runs at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// 5 machines, 5 simulated minutes — CI-friendly.
    Smoke,
    /// 45 machines, 1 simulated hour — the default evaluation scale.
    Evaluation,
    /// 45 machines, 4 simulated weeks — the paper's deployment. Expect a
    /// very long run; use [`run_study_streaming`] at this scale so memory
    /// stays bounded by analysis state instead of growing with the trace
    /// (the batch path materializes every record and will not fit).
    Paper,
}

impl Scale {
    /// Parses a CLI scale name.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "eval" | "evaluation" => Some(Scale::Evaluation),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The study configuration at this scale.
    pub fn config(self, seed: u64) -> StudyConfig {
        match self {
            Scale::Smoke => StudyConfig::smoke_test(seed),
            Scale::Evaluation => StudyConfig::evaluation(seed),
            Scale::Paper => StudyConfig::paper_scale(seed),
        }
    }
}

/// Runs a study at the given scale through the batch (materializing)
/// pipeline.
pub fn run_study(scale: Scale, seed: u64) -> StudyData {
    Study::run(&scale.config(seed))
}

/// Runs a study at the given scale through the streaming driver (one
/// shard): online aggregates only, bounded memory, no materialized
/// trace. The only feasible driver at [`Scale::Paper`].
pub fn run_study_streaming(scale: Scale, seed: u64) -> ShardedStudyData {
    Study::run_sharded(&scale.config(seed), &ShardOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("eval"), Some(Scale::Evaluation));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn smoke_study_runs() {
        let data = run_study(Scale::Smoke, 5);
        assert!(data.total_records > 100);
    }
}
