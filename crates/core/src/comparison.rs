//! The cross-backend comparison: every [`CaptureBackend`] run over the
//! same scenario, scored against the same-run ground-truth oracle and a
//! clean (uninstrumented, unobserved) reference run.
//!
//! This is the quantitative version of the paper's motivation section:
//! instead of arguing that counters are coarse and sampling perturbs,
//! measure all four techniques on one workload and put the bias,
//! coverage, and overhead numbers side by side — with the board as the
//! reference row.  Pinned as experiment E19 (`repro_backends`).

use hwprof_analysis::Reconstruction;
use hwprof_kernel386::funcs::KFn;
use hwprof_kernel386::kernel::Kernel;

use crate::backend::{
    BackendCost, BoardBackend, CaptureBackend, CountersBackend, KtraceBackend, SamplingBackend,
};
use crate::error::Error;
use crate::experiment::{Experiment, Scenario};

/// One backend's scorecard against the same-run ground truth.
#[derive(Debug, Clone)]
pub struct BackendRow {
    /// Backend name.
    pub backend: &'static str,
    /// The backend's declared cost model.
    pub cost: BackendCost,
    /// Native events the backend observed.
    pub events: u64,
    /// Measured attribution bias: L1 distance between the backend's
    /// per-function time shares and the oracle's true shares, over
    /// workload kernel functions (0 = exact, 2 = disjoint).
    pub l1_bias: f64,
    /// How many of the true top-5 net-time functions the backend's
    /// top-5 contains.
    pub top5_overlap: usize,
    /// Fraction of truth-active functions (non-zero true net time) the
    /// backend observed at all.
    pub coverage: f64,
    /// Measured run perturbation: busy-cycle inflation over the clean
    /// reference run, in percent.
    pub overhead_pct: f64,
    /// Whether the measured `l1_bias` stayed within the backend's
    /// declared [`BackendCost::bias_l1_bound`].
    pub within_bias: bool,
}

/// All four backends run over one scenario, plus the clean reference.
#[derive(Debug, Clone)]
pub struct BackendComparison {
    /// One row per backend, in the order run (board first).
    pub rows: Vec<BackendRow>,
    /// Busy µs of the clean reference run (uninstrumented build,
    /// nothing armed) — the overhead baseline.
    pub clean_busy_us: u64,
}

/// Functions excluded from the bias comparison: the clock/profiling
/// interrupt path (a clock-driven sampler is structurally blind to it)
/// and the context switcher (attributed specially by the analyzer).
/// Mirrors `hwprof_baseline::sampling`'s exclusion set so all backends
/// are scored on the same workload functions.
fn excluded(f: KFn) -> bool {
    matches!(
        f,
        KFn::Swtch | KFn::IsaIntr | KFn::Hardclock | KFn::Gatherstats | KFn::Softclock
    )
}

/// True net-time shares per function from the run's own oracle.
fn truth_shares(kernel: &Kernel) -> Vec<(&'static str, f64, u64)> {
    let mut rows = Vec::new();
    let mut total = 0u64;
    for f in KFn::ALL {
        if excluded(f) {
            continue;
        }
        let net = kernel.trace.truth(f).net;
        total += net;
        rows.push((f.name(), 0.0, net));
    }
    if total > 0 {
        for r in &mut rows {
            r.1 = r.2 as f64 / total as f64;
        }
    }
    rows
}

/// The backend's net-time shares over the same function set.
fn profile_shares(profile: &Reconstruction, names: &[&'static str]) -> Vec<f64> {
    let nets: Vec<u64> = names
        .iter()
        .map(|n| profile.agg(n).map_or(0, |a| a.net))
        .collect();
    let total: u64 = nets.iter().sum();
    nets.iter()
        .map(|&n| {
            if total == 0 {
                0.0
            } else {
                n as f64 / total as f64
            }
        })
        .collect()
}

fn top5(shares: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..shares.len()).collect();
    idx.sort_by(|&a, &b| shares[b].total_cmp(&shares[a]));
    idx.truncate(5);
    idx.into_iter().filter(|&i| shares[i] > 0.0).collect()
}

fn busy_us(kernel: &Kernel) -> u64 {
    (kernel.machine.now - kernel.sched.idle_cycles) / hwprof_machine::CYCLES_PER_US
}

impl BackendComparison {
    /// Runs `make_experiment()`'s scenario under all four backends plus
    /// one clean reference run and scores every backend.  The closure
    /// must build the same deterministic experiment each call (same
    /// scenario, same config) — that's what makes the rows comparable.
    ///
    /// # Errors
    ///
    /// Any [`Error`] a single backend run reports.
    pub fn run(make_scenario: impl Fn() -> Scenario) -> Result<BackendComparison, Error> {
        // The overhead baseline: production build, nothing observing.
        let clean = Experiment::new()
            .profile_none()
            .unarmed()
            .scenario(make_scenario())
            .try_run()?;
        let clean_busy_us = busy_us(&clean.kernel);

        let backends: Vec<Box<dyn CaptureBackend>> = vec![
            Box::new(BoardBackend),
            Box::new(SamplingBackend),
            Box::new(CountersBackend),
            Box::new(KtraceBackend::default()),
        ];
        let mut rows = Vec::new();
        for backend in backends {
            let cap = Experiment::new()
                .backend_boxed(backend)
                .scenario(make_scenario())
                .try_capture()?;
            let truth = truth_shares(&cap.kernel);
            let names: Vec<&'static str> = truth.iter().map(|r| r.0).collect();
            let tshares: Vec<f64> = truth.iter().map(|r| r.1).collect();
            let pshares = profile_shares(&cap.profile, &names);
            let l1_bias = tshares
                .iter()
                .zip(&pshares)
                .map(|(t, p)| (t - p).abs())
                .sum::<f64>();
            let t5t = top5(&tshares);
            let t5p = top5(&pshares);
            let top5_overlap = t5t.iter().filter(|i| t5p.contains(i)).count();
            let active = truth.iter().filter(|r| r.2 > 0).count();
            let seen = truth
                .iter()
                .zip(&pshares)
                .filter(|(r, &p)| r.2 > 0 && p > 0.0)
                .count();
            let coverage = if active == 0 {
                1.0
            } else {
                seen as f64 / active as f64
            };
            let run_busy = busy_us(&cap.kernel);
            let overhead_pct = if clean_busy_us == 0 {
                0.0
            } else {
                (run_busy as f64 - clean_busy_us as f64) * 100.0 / clean_busy_us as f64
            };
            rows.push(BackendRow {
                backend: cap.backend,
                cost: cap.cost,
                events: cap.native.events(),
                l1_bias,
                top5_overlap,
                coverage,
                overhead_pct,
                within_bias: l1_bias <= cap.cost.bias_l1_bound,
            });
        }
        Ok(BackendComparison {
            rows,
            clean_busy_us,
        })
    }

    /// The board's row (the reference backend; always present).
    ///
    /// # Panics
    ///
    /// Panics if the comparison was built without the board row (it
    /// never is by [`BackendComparison::run`]).
    pub fn board(&self) -> &BackendRow {
        self.rows
            .iter()
            .find(|r| r.backend == "board")
            .expect("comparison always runs the board")
    }

    /// True when every backend stayed within its declared bias bound.
    pub fn all_within_bias(&self) -> bool {
        self.rows.iter().all(|r| r.within_bias)
    }

    /// Renders the comparison as the E19 table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>9} {:>8} {:>7} {:>6} {:>9} {:>9} {:>6}\n",
            "backend", "events", "ev-cost", "L1bias", "top5", "coverage", "overhead", "decl"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<10} {:>9} {:>7}c {:>7.3} {:>4}/5 {:>8.0}% {:>8.2}% {:>6}\n",
                r.backend,
                r.events,
                r.cost.per_event_cycles,
                r.l1_bias,
                r.top5_overlap,
                r.coverage * 100.0,
                r.overhead_pct,
                if r.within_bias { "ok" } else { "OVER" }
            ));
        }
        out
    }
}
