//! Scoring a clock-sampled profile against the ground truth, and
//! normalizing one into the analysis pipeline's [`Reconstruction`]
//! monoid (the capture-backend path).

use hwprof_analysis::{Reconstruction, Symbols};
use hwprof_kernel386::funcs::{KFn, FUNCS, NFUNCS};
use hwprof_kernel386::kernel::Kernel;

/// How well a sampled profile approximates the true time distribution.
#[derive(Debug, Clone)]
pub struct SamplingScore {
    /// Samples taken.
    pub samples: u64,
    /// Sampling rate used (Hz).
    pub rate_hz: u64,
    /// Sum over functions of |sampled share − true share| (0 = perfect,
    /// 2 = disjoint), over kernel (non-idle, non-user) time.
    pub l1_error: f64,
    /// How many of the true top-5 net-time functions appear in the
    /// sampled top-5.
    pub top5_overlap: usize,
    /// Functions the sampler never saw despite non-zero true time.
    pub missed_functions: usize,
    /// True net µs of the missed functions (invisible cost).
    pub missed_us: u64,
    /// True net µs of the clock path itself, which a clock-driven
    /// sampler can never observe (its self-blindness — and it *grows*
    /// with the sampling rate).
    pub self_blind_us: u64,
}

/// Functions a clock-driven sampler is structurally blind to: the clock
/// interrupt path itself (it cannot interrupt itself), plus the idle
/// marker.  Excluded from the accuracy comparison and reported
/// separately as `self_blind_us`, and from the backend comparison's
/// bias scores, so every backend is scored on the same functions.
pub fn sampler_blind(f: KFn) -> bool {
    matches!(
        f,
        KFn::Swtch | KFn::IsaIntr | KFn::Hardclock | KFn::Gatherstats | KFn::Softclock
    )
}

/// Shares of true net time per function (workload kernel time only).
fn truth_shares(k: &Kernel) -> Vec<f64> {
    let mut net = vec![0u64; NFUNCS];
    let mut total = 0u64;
    for f in KFn::ALL {
        if sampler_blind(f) {
            continue;
        }
        let t = k.trace.truth(f).net;
        net[f.idx()] = t;
        total += t;
    }
    net.iter()
        .map(|&n| {
            if total == 0 {
                0.0
            } else {
                n as f64 / total as f64
            }
        })
        .collect()
}

fn sample_shares(k: &Kernel) -> Vec<f64> {
    let mut counts = k.sampling.counts.clone();
    for f in KFn::ALL {
        if sampler_blind(f) {
            counts[f.idx()] = 0;
        }
    }
    let kernel_samples: u64 = counts.iter().sum();
    counts
        .iter()
        .map(|&c| {
            if kernel_samples == 0 {
                0.0
            } else {
                c as f64 / kernel_samples as f64
            }
        })
        .collect()
}

fn top5(shares: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..shares.len()).collect();
    // total_cmp: never panics, even if a share upstream went NaN.
    idx.sort_by(|&a, &b| shares[b].total_cmp(&shares[a]));
    idx.truncate(5);
    idx.into_iter().filter(|&i| shares[i] > 0.0).collect()
}

/// Sampled share of one function (of workload kernel samples).
pub fn sampled_share(k: &Kernel, f: KFn) -> f64 {
    sample_shares(k)[f.idx()]
}

/// True net-time share of one function (of workload kernel time).
pub fn true_share(k: &Kernel, f: KFn) -> f64 {
    truth_shares(k)[f.idx()]
}

/// Scores the kernel's sampled profile against its oracle.
pub fn sampling_accuracy(k: &Kernel) -> SamplingScore {
    let truth = truth_shares(k);
    let sampled = sample_shares(k);
    let l1_error = truth
        .iter()
        .zip(&sampled)
        .map(|(t, s)| (t - s).abs())
        .sum::<f64>();
    let t5t = top5(&truth);
    let t5s = top5(&sampled);
    let top5_overlap = t5t.iter().filter(|i| t5s.contains(i)).count();
    let mut missed_functions = 0;
    let mut missed_us = 0;
    let mut self_blind_us = 0;
    for f in KFn::ALL {
        let t = k.trace.truth(f);
        if sampler_blind(f) {
            if f != KFn::Swtch {
                self_blind_us += t.net / 40;
            }
            continue;
        }
        if t.net > 0 && k.sampling.counts[f.idx()] == 0 {
            missed_functions += 1;
            missed_us += t.net / 40;
        }
    }
    SamplingScore {
        samples: k.sampling.total,
        rate_hz: k.config.clock_hz,
        l1_error,
        top5_overlap,
        missed_functions,
        missed_us,
        self_blind_us,
    }
}

/// A sampled profile lifted out of the kernel: what the clock-sampling
/// capture backend uploads instead of a board RAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleProfile {
    /// Effective sampling rate (statclock if configured, else
    /// hardclock).
    pub rate_hz: u64,
    /// Samples per kernel function (indexed by `KFn as usize`).
    pub counts: Vec<u64>,
    /// Samples that landed in the idle loop.
    pub idle_samples: u64,
    /// Samples that landed in user mode.
    pub user_samples: u64,
    /// Total samples.
    pub total: u64,
}

impl SampleProfile {
    /// Lifts the sampler state out of a finished kernel.
    pub fn from_kernel(k: &Kernel) -> Self {
        SampleProfile {
            rate_hz: k.config.statclock_hz.unwrap_or(k.config.clock_hz),
            counts: k.sampling.counts.clone(),
            idle_samples: k.sampling.idle_samples,
            user_samples: k.sampling.user_samples,
            total: k.sampling.total,
        }
    }

    /// The sampling period in microseconds (exact for the classic
    /// 100/1000/5000 Hz rates).
    pub fn period_us(&self) -> u64 {
        1_000_000 / self.rate_hz.max(1)
    }

    /// Normalizes this profile into the [`Reconstruction`] monoid: each
    /// sample becomes one period of attributed time against the kernel
    /// function table ([`kernel_symbols`]), idle and user samples land
    /// in `idle`, and `tags` counts the samples.
    ///
    /// Every populated field is linear in the sample counts and the
    /// fields a sampler cannot know (calls, min/max, trace, sessions)
    /// stay at the merge identity, so splitting the counts any way and
    /// merging the per-chunk normalizations is bit-identical to
    /// normalizing the whole profile — the monoid law the backend
    /// property suite pins.
    pub fn normalize(&self) -> Reconstruction {
        let period = self.period_us();
        let mut r = Reconstruction::empty(kernel_symbols());
        for (i, &c) in self.counts.iter().take(NFUNCS).enumerate() {
            let t = c * period;
            r.stats[i].elapsed = t;
            r.stats[i].net = t;
        }
        r.idle = (self.idle_samples + self.user_samples) * period;
        r.total_elapsed = self.total * period;
        r.tags = self.total as usize;
        r
    }
}

/// The kernel's function table as an analysis symbol table, in `KFn`
/// index order — the symbol space sampling and counter backends
/// normalize into.
pub fn kernel_symbols() -> Symbols {
    Symbols::from_names(FUNCS.iter().map(|f| f.name))
}

/// Renders a score line for the sweep table.
pub fn render_score(s: &SamplingScore, perturbation_pct: f64) -> String {
    format!(
        "{:>8} Hz {:>8} samples  L1 err {:>5.3}  top5 {}/5  missed {:>3} fns ({:>8} us)  perturbation {:>6.2}%",
        s.rate_hz, s.samples, s.l1_error, s.top5_overlap, s.missed_functions, s.missed_us, perturbation_pct
    )
}
