//! Multi-scale burstiness — figure 8 and the §7 Poisson contrast.
//!
//! Figure 8 bins open-request arrivals at three orders of magnitude
//! (1 s / 10 s / 100 s) and compares them with a synthesised Poisson
//! process whose rate is estimated from the same trace. For Poisson
//! traffic the index of dispersion (variance/mean of interval counts)
//! stays ≈ 1 at every scale; the traced arrivals keep their variance —
//! the self-similarity signature.

use nt_trace::TickWindow;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::gaps::LossWindows;
use crate::schema::TraceSet;

/// Arrival counts binned at one time scale.
#[derive(Clone, Debug)]
pub struct BinnedArrivals {
    /// Interval length in seconds.
    pub interval_secs: u64,
    /// Requests per interval, in time order (empty leading/trailing
    /// intervals trimmed).
    pub counts: Vec<u64>,
}

impl BinnedArrivals {
    /// Mean requests per interval.
    pub fn mean(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        self.counts.iter().sum::<u64>() as f64 / self.counts.len() as f64
    }

    /// Index of dispersion: variance / mean (≈ 1 for Poisson).
    pub fn dispersion(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            return 0.0;
        }
        let var = self
            .counts
            .iter()
            .map(|&c| (c as f64 - m).powi(2))
            .sum::<f64>()
            / self.counts.len() as f64;
        var / m
    }
}

/// The figure-8 comparison at one scale.
pub struct ScaleComparison {
    /// The traced arrivals.
    pub traced: BinnedArrivals,
    /// A Poisson synthesis with the same mean rate.
    pub poisson: BinnedArrivals,
}

/// The full figure-8 analysis: three scales.
pub struct Burstiness {
    /// 1-second, 10-second and 100-second comparisons.
    pub scales: Vec<ScaleComparison>,
}

/// Extracts open-arrival timestamps (ticks).
pub fn open_arrival_ticks(ts: &TraceSet) -> Vec<u64> {
    // Columnar scan: only the code and start-tick columns.
    let create = nt_io::EventKind::Irp(nt_io::MajorFunction::Create).code();
    ts.records
        .codes()
        .iter()
        .zip(ts.records.start_ticks())
        .filter(|(&c, _)| c == create)
        .map(|(_, &t)| t)
        .collect()
}

/// Bins arrival ticks at the given interval length.
pub fn bin_arrivals(ticks: &[u64], interval_secs: u64) -> BinnedArrivals {
    bin_arrivals_excluding(ticks, interval_secs, &[])
}

/// [`bin_arrivals`] over a degraded trace: bins whose span touches a
/// lossy window are removed entirely (not zeroed — a hole is missing
/// data, and counting it as an idle interval would deflate the mean and
/// corrupt the dispersion). With no windows this is exactly
/// [`bin_arrivals`].
pub fn bin_arrivals_excluding(
    ticks: &[u64],
    interval_secs: u64,
    lossy: &[TickWindow],
) -> BinnedArrivals {
    let per = interval_secs * 10_000_000;
    if ticks.is_empty() {
        return BinnedArrivals {
            interval_secs,
            counts: Vec::new(),
        };
    }
    let lo = ticks.iter().min().expect("non-empty") / per;
    let hi = ticks.iter().max().expect("non-empty") / per;
    let mut counts = vec![0u64; (hi - lo + 1) as usize];
    for t in ticks {
        counts[(t / per - lo) as usize] += 1;
    }
    if !lossy.is_empty() {
        counts = counts
            .into_iter()
            .enumerate()
            .filter(|(i, _)| {
                let start = (lo + *i as u64) * per;
                !lossy.iter().any(|w| w.overlaps(start, start + per - 1))
            })
            .map(|(_, c)| c)
            .collect();
    }
    BinnedArrivals {
        interval_secs,
        counts,
    }
}

/// Synthesises a Poisson sample with the same total span and mean rate
/// (the paper "synthesized a sample from a Poisson distribution for which
/// we estimated its mean and variance from the trace information").
pub fn poisson_synthesis(traced: &BinnedArrivals, seed: u64) -> BinnedArrivals {
    let mut rng = SmallRng::seed_from_u64(seed);
    let lambda = traced.mean();
    let counts = traced
        .counts
        .iter()
        .map(|_| sample_poisson(lambda, &mut rng))
        .collect();
    BinnedArrivals {
        interval_secs: traced.interval_secs,
        counts,
    }
}

/// Knuth/inversion Poisson sampler, switching to a normal approximation
/// for large rates.
fn sample_poisson(lambda: f64, rng: &mut SmallRng) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 60.0 {
        // Normal approximation with continuity correction.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        return (lambda + z * lambda.sqrt()).round().max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen_range(0.0..1.0f64);
        if p <= l {
            return k;
        }
        k += 1;
    }
}

/// A variance–time analysis for self-similarity (the §11 connection to
/// Gribble et al.): for an exactly self-similar process the variance of
/// the aggregated series decays as `m^(2H-2)`; H ≈ 0.5 is short-range
/// (Poisson-like), H → 1 is strongly long-range dependent. The paper's
/// conclusion 4 asks exactly for this check.
#[derive(Clone, Debug)]
pub struct VarianceTime {
    /// `(log10 m, log10 normalised variance)` points.
    pub points: Vec<(f64, f64)>,
    /// The fitted Hurst parameter.
    pub hurst: f64,
}

/// Computes the variance–time plot over 1-second base counts, aggregating
/// at powers of two up to a quarter of the series length.
pub fn variance_time(base: &BinnedArrivals) -> VarianceTime {
    let counts: Vec<f64> = base.counts.iter().map(|&c| c as f64).collect();
    let n = counts.len();
    if n < 16 {
        return VarianceTime {
            points: Vec::new(),
            hurst: 0.5,
        };
    }
    let variance = |xs: &[f64]| {
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64
    };
    let base_var = variance(&counts).max(1e-12);
    let mut points = Vec::new();
    let mut m = 1usize;
    while n / m >= 8 {
        let agg: Vec<f64> = counts
            .chunks_exact(m)
            .map(|c| c.iter().sum::<f64>() / m as f64)
            .collect();
        let v = variance(&agg).max(1e-12);
        points.push(((m as f64).log10(), (v / base_var).log10()));
        m *= 2;
    }
    // Slope beta of log var vs log m gives H = 1 + beta / 2.
    let xs: Vec<f64> = points.iter().map(|(x, _)| *x).collect();
    let ys: Vec<f64> = points.iter().map(|(_, y)| *y).collect();
    let beta = crate::stats::least_squares(&xs, &ys)
        .map(|(_, b)| b)
        .unwrap_or(-1.0);
    VarianceTime {
        points,
        hurst: (1.0 + beta / 2.0).clamp(0.0, 1.0),
    }
}

/// Runs the figure-8 analysis at the three paper scales.
pub fn burstiness(ts: &TraceSet, seed: u64) -> Burstiness {
    burstiness_excluding(ts, seed, &LossWindows::new())
}

/// [`burstiness`] over a degraded trace: since the binning merges every
/// machine's arrivals, any machine's lossy window makes its bins suspect
/// fleet-wide and they are excised before the Poisson contrast. With no
/// windows this is exactly [`burstiness`].
pub fn burstiness_excluding(ts: &TraceSet, seed: u64, lossy: &LossWindows) -> Burstiness {
    burstiness_of_ticks(&open_arrival_ticks(ts), seed, &lossy.flattened())
}

/// The figure-8 analysis over open-arrival ticks already extracted with
/// [`open_arrival_ticks`], with the `holes` windows excised from the bins
/// (none for [`burstiness`]).
pub fn burstiness_of_ticks(ticks: &[u64], seed: u64, holes: &[TickWindow]) -> Burstiness {
    let scales = [1u64, 10, 100]
        .iter()
        .map(|&s| {
            let traced = bin_arrivals_excluding(ticks, s, holes);
            let poisson = poisson_synthesis(&traced, seed ^ s);
            ScaleComparison { traced, poisson }
        })
        .collect();
    Burstiness { scales }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::test_support::synthetic_trace_set;

    #[test]
    fn binning_counts_everything() {
        let ticks = vec![0, 5_000_000, 15_000_000, 95_000_000, 1_000_000_000];
        let b = bin_arrivals(&ticks, 1);
        assert_eq!(b.counts.iter().sum::<u64>(), 5);
        assert_eq!(b.counts[0], 2, "two arrivals in the first second");
        let b10 = bin_arrivals(&ticks, 10);
        assert_eq!(b10.counts.iter().sum::<u64>(), 5);
        assert!(b10.counts.len() < b.counts.len());
    }

    #[test]
    fn excluded_bins_disappear_instead_of_zeroing() {
        let ticks = vec![0, 5_000_000, 15_000_000, 95_000_000, 1_000_000_000];
        let clean = bin_arrivals(&ticks, 1);
        // A window covering the second containing t=15_000_000.
        let hole = [TickWindow::new(10_000_000, 20_000_000)];
        let cut = bin_arrivals_excluding(&ticks, 1, &hole);
        assert_eq!(cut.counts.len(), clean.counts.len() - 1);
        assert_eq!(
            cut.counts.iter().sum::<u64>(),
            clean.counts.iter().sum::<u64>() - 1,
            "the arrival inside the hole leaves the analysis"
        );
        // No windows: identical to the plain binning.
        let same = bin_arrivals_excluding(&ticks, 1, &[]);
        assert_eq!(same.counts, clean.counts);
    }

    #[test]
    fn poisson_sampler_matches_mean() {
        let mut rng = SmallRng::seed_from_u64(1);
        for &lambda in &[0.5, 5.0, 120.0] {
            let n = 20_000;
            let total: u64 = (0..n).map(|_| sample_poisson(lambda, &mut rng)).sum();
            let mean = total as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda * 0.1 + 0.1,
                "lambda {lambda} got {mean}"
            );
        }
    }

    #[test]
    fn poisson_dispersion_near_one() {
        let traced = BinnedArrivals {
            interval_secs: 1,
            counts: vec![7; 5_000],
        };
        let p = poisson_synthesis(&traced, 9);
        let d = p.dispersion();
        assert!((0.8..1.2).contains(&d), "dispersion {d}");
    }

    #[test]
    fn hurst_separates_poisson_from_heavy_tails() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // A Poisson-like series: independent counts.
        let mut rng = SmallRng::seed_from_u64(5);
        let poissonish = BinnedArrivals {
            interval_secs: 1,
            counts: (0..4_096).map(|_| rng.gen_range(0..20)).collect(),
        };
        let h_poisson = variance_time(&poissonish).hurst;
        assert!(
            (0.3..0.65).contains(&h_poisson),
            "independent counts have H ≈ 0.5, got {h_poisson}"
        );
        // A long-range-dependent series: heavy-tailed ON periods spread
        // correlated mass over long stretches.
        let mut counts = vec![0u64; 4_096];
        let mut i = 0usize;
        while i < counts.len() {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let on = (4.0 / u.powf(1.0 / 1.2)) as usize;
            let rate = rng.gen_range(5..40);
            for c in counts.iter_mut().skip(i).take(on) {
                *c = rate;
            }
            i += on + rng.gen_range(1..8);
        }
        let lrd = BinnedArrivals {
            interval_secs: 1,
            counts,
        };
        let h_lrd = variance_time(&lrd).hurst;
        assert!(
            h_lrd > h_poisson + 0.1,
            "heavy-tailed ON/OFF is long-range dependent: {h_lrd} vs {h_poisson}"
        );
    }

    #[test]
    fn variance_time_degenerate_inputs() {
        let empty = BinnedArrivals {
            interval_secs: 1,
            counts: vec![],
        };
        assert_eq!(variance_time(&empty).hurst, 0.5);
        let constant = BinnedArrivals {
            interval_secs: 1,
            counts: vec![5; 1_000],
        };
        let vt = variance_time(&constant);
        assert!(!vt.points.is_empty());
    }

    #[test]
    fn traced_arrivals_stay_overdispersed_at_coarse_scales() {
        let ts = synthetic_trace_set(1_500, 71);
        let b = burstiness(&ts, 42);
        // At the coarsest populated scale, the traced dispersion should
        // exceed the Poisson synthesis (the figure-8 message).
        let comparison = b.scales.iter().rfind(|s| s.traced.counts.len() >= 10);
        if let Some(c) = comparison {
            assert!(
                c.traced.dispersion() > c.poisson.dispersion(),
                "traced {} vs poisson {}",
                c.traced.dispersion(),
                c.poisson.dispersion()
            );
        }
    }
}
