//! Deterministic regression sentinel over flight-recorder windows.
//!
//! The recorder (PR 8) can *show* a shift — `WindowDiff` ranks movers —
//! but nothing watches continuously and raises a hand.  The sentinel
//! closes that loop: a [`Baseline`] learns per-function rate statistics
//! over a fixed warm-up span using exact integer accumulation, a
//! fixed set of [`Detector`]s evaluates every window after it, and a
//! per-(detector, subject) hysteresis state machine (Pending → Firing →
//! Resolved, with consecutive-window thresholds) keeps one noisy window
//! from flapping an alert.  Every transition lands in an append-only
//! [`AlertJournal`] carrying exact evidence: the window index, the
//! baseline statistic, the observed statistic, and their delta.
//!
//! Everything here is integer/fixed-point arithmetic over the same
//! [`Reconstruction`] counters the reports print, so evaluation is
//! byte-reproducible: the same window stream produces the same journal,
//! byte for byte, on every run.
//!
//! ```
//! use hwprof_analysis::{Sentinel, SentinelConfig};
//! let sentinel = Sentinel::new(SentinelConfig);
//! assert!(sentinel.journal().is_empty());
//! ```
//!
//! The fleet side is a pure fold: [`FleetSentinel::roll_up`] groups the
//! Firing transitions of member journals by (detector, subject) and
//! promotes any pair seen on at least `quorum` machines to a
//! fleet-level [`FleetAlert`]; single-machine outliers stay
//! member-level.

use std::collections::BTreeMap;

use hwprof_telemetry::{Counter, Gauge, Registry};

use crate::recon::Reconstruction;
use crate::recorder::{FlightRecorder, RecorderLedger};
use crate::stitch::{visible_us, MaskVisibility};

/// One million, the ppm denominator used throughout.
const PPM: u128 = 1_000_000;
/// Hysteresis key for the whole-window (non-per-function) detectors.
const GLOBAL: u32 = u32::MAX;

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// The [`Sentinel`]'s settings, of which there are none left: the
/// warm-up span, the hysteresis thresholds and the detector thresholds
/// are constants beside [`Sentinel::observe`].
///
/// The type stays, fieldless, only because the frozen end-to-end
/// benchmark passes it to `Experiment::watch`, [`Sentinel::new`] and
/// the fleet's sentinel policy; it goes once that benchmark is next
/// changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SentinelConfig;

// ---------------------------------------------------------------------
// Detectors, transitions, journal
// ---------------------------------------------------------------------

/// The fixed detector set, evaluated in this order on every window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Detector {
    /// A hot function's coverage-scaled net rate shifted vs baseline.
    RateShift,
    /// A window's covered fraction fell below the floor.
    CoverageDrop,
    /// Too much covered time ran below full mask visibility.
    MaskResidency,
    /// Anomalies exceeded their ppm budget of hardware events.
    AnomalyBudget,
    /// The recorder ring wrote off too much of the timeline.
    EvictionPressure,
}

impl Detector {
    /// Stable short label, used in every rendered surface.
    pub fn label(self) -> &'static str {
        match self {
            Detector::RateShift => "rate-shift",
            Detector::CoverageDrop => "coverage-drop",
            Detector::MaskResidency => "mask-residency",
            Detector::AnomalyBudget => "anomaly-budget",
            Detector::EvictionPressure => "eviction-pressure",
        }
    }

    /// Unit of this detector's evidence statistics.
    pub fn unit(self) -> &'static str {
        match self {
            Detector::RateShift => "us/ms",
            _ => "ppm",
        }
    }

    /// Stable numeric code, used by the SNMP trap rows.
    pub fn code(self) -> u64 {
        match self {
            Detector::RateShift => 1,
            Detector::CoverageDrop => 2,
            Detector::MaskResidency => 3,
            Detector::AnomalyBudget => 4,
            Detector::EvictionPressure => 5,
        }
    }
}

/// One hysteresis transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AlertTransition {
    /// First breach of a fresh streak; not yet an alert.
    Pending,
    /// The consecutive-breach threshold was reached.
    Firing,
    /// The consecutive-clear threshold was reached while firing.
    Resolved,
}

impl AlertTransition {
    /// Stable upper-case label, used in every rendered surface.
    pub fn label(self) -> &'static str {
        match self {
            AlertTransition::Pending => "PENDING",
            AlertTransition::Firing => "FIRING",
            AlertTransition::Resolved => "RESOLVED",
        }
    }

    /// Stable numeric code, used by the SNMP trap rows.
    pub fn code(self) -> u64 {
        match self {
            AlertTransition::Pending => 1,
            AlertTransition::Firing => 2,
            AlertTransition::Resolved => 3,
        }
    }
}

/// One journaled transition, with the exact evidence that caused it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertEntry {
    /// 1-based position in the journal.
    pub seq: u64,
    /// Absolute index of the window that drove the transition.
    pub window: u64,
    /// Clipped end of that window, absolute µs.
    pub at_us: u64,
    /// The detector.
    pub detector: Detector,
    /// The subject: a function name for [`Detector::RateShift`], a
    /// fixed label (`coverage`, `mask`, `anomalies`, `recorder`) for
    /// the whole-window detectors.
    pub subject: String,
    /// The transition.
    pub transition: AlertTransition,
    /// Baseline statistic, in [`Detector::unit`] fixed point.
    pub baseline: u64,
    /// Observed statistic for this window, same unit.
    pub observed: u64,
    /// `observed - baseline`, exact.
    pub delta: i64,
}

impl AlertEntry {
    /// One deterministic journal line.
    pub fn describe_line(&self) -> String {
        format!(
            "#{} window {} @ {} us {}({}) {}: baseline {} {u}, observed {} {u}, delta {:+} {u}",
            self.seq,
            self.window,
            self.at_us,
            self.detector.label(),
            self.subject,
            self.transition.label(),
            self.baseline,
            self.observed,
            self.delta,
            u = self.detector.unit(),
        )
    }
}

/// The append-only transition journal.  Entries are in evaluation
/// order (windows oldest to newest; detectors in their fixed order
/// within a window), so two identical window streams produce two
/// byte-identical journals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AlertJournal {
    entries: Vec<AlertEntry>,
}

impl AlertJournal {
    /// All transitions, in append order.
    pub fn entries(&self) -> &[AlertEntry] {
        &self.entries
    }

    /// Number of journaled transitions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing ever breached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(crate) fn push(&mut self, mut entry: AlertEntry) {
        entry.seq = self.entries.len() as u64 + 1;
        self.entries.push(entry);
    }

    /// The (detector, subject) pairs still firing after the last
    /// entry — Firing transitions not yet matched by a Resolved —
    /// sorted by (detector, subject).
    pub fn firing_at_end(&self) -> Vec<(Detector, String)> {
        let mut firing: BTreeMap<(Detector, &str), bool> = BTreeMap::new();
        for e in &self.entries {
            match e.transition {
                AlertTransition::Firing => {
                    firing.insert((e.detector, &e.subject), true);
                }
                AlertTransition::Resolved => {
                    firing.insert((e.detector, &e.subject), false);
                }
                AlertTransition::Pending => {}
            }
        }
        firing
            .into_iter()
            .filter(|&(_, on)| on)
            .map(|((d, s), _)| (d, s.to_string()))
            .collect()
    }

    /// A deterministic text rendering of the whole journal.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        if self.entries.is_empty() {
            return "alert journal: empty\n".to_string();
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "alert journal: {} transitions, {} firing at end",
            self.entries.len(),
            self.firing_at_end().len(),
        );
        for e in &self.entries {
            let _ = writeln!(out, "  {}", e.describe_line());
        }
        out
    }
}

// ---------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------

/// Per-function rate statistics accumulated over the warm-up span.
///
/// Everything is an exact integer sum: per-function net µs and calls,
/// visible µs per [`MaskVisibility`] class, anomalies and hardware
/// events.  Rates are only ever formed as fixed-point quotients of
/// these sums, so the baseline — and every comparison against it — is
/// byte-reproducible.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    windows: u64,
    vis_us: [u64; 3],
    net: Vec<u64>,
    calls: Vec<u64>,
    anomalies: u64,
    tags: u64,
    frozen: bool,
}

fn vis_idx(vis: MaskVisibility) -> usize {
    match vis {
        MaskVisibility::AllLevels => 0,
        MaskVisibility::UnlessSwitchOnly => 1,
        MaskVisibility::AllOnly => 2,
    }
}

impl Baseline {
    /// Windows accumulated so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// True once the warm-up span is complete.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Summed visible µs for `vis`-class functions.
    pub fn visible_us(&self, vis: MaskVisibility) -> u64 {
        self.vis_us[vis_idx(vis)]
    }

    /// Summed net µs of symbol `s`.
    pub fn net_us(&self, s: usize) -> u64 {
        self.net.get(s).copied().unwrap_or(0)
    }

    /// Summed calls of symbol `s`.
    pub fn calls(&self, s: usize) -> u64 {
        self.calls.get(s).copied().unwrap_or(0)
    }

    /// Baseline net rate of symbol `s` in µs per visible ms (fixed
    /// point, truncating); `None` while no visible time accumulated.
    pub fn net_rate_milli(&self, s: usize, vis: MaskVisibility) -> Option<u64> {
        let v = self.visible_us(vis);
        if v == 0 {
            return None;
        }
        Some(((self.net_us(s) as u128 * 1_000) / v as u128) as u64)
    }

    fn absorb(&mut self, recon: &Reconstruction) {
        let cov = &recon.coverage;
        for vis in [
            MaskVisibility::AllLevels,
            MaskVisibility::UnlessSwitchOnly,
            MaskVisibility::AllOnly,
        ] {
            self.vis_us[vis_idx(vis)] += visible_us(cov, vis);
        }
        if self.net.len() < recon.stats.len() {
            self.net.resize(recon.stats.len(), 0);
            self.calls.resize(recon.stats.len(), 0);
        }
        for (s, agg) in recon.stats.iter().enumerate() {
            self.net[s] += agg.net;
            self.calls[s] += agg.calls;
        }
        self.anomalies += recon.anomalies.total();
        self.tags += recon.tags as u64;
        self.windows += 1;
        if self.windows >= WARMUP_WINDOWS {
            self.frozen = true;
        }
    }
}

// ---------------------------------------------------------------------
// Sentinel
// ---------------------------------------------------------------------

/// Per-(detector, subject) hysteresis state.
#[derive(Debug, Clone, Copy, Default)]
struct HState {
    breaches: u32,
    clears: u32,
    firing: bool,
}

/// `sent.*` self-metrics; inert until [`Sentinel::set_telemetry`].
#[derive(Default)]
struct SentMetrics {
    windows: Counter,
    breaches: Counter,
    pending: Counter,
    fired: Counter,
    resolved: Counter,
    firing: Gauge,
}

impl SentMetrics {
    fn new(reg: &Registry) -> SentMetrics {
        SentMetrics {
            windows: reg.counter("sent.windows"),
            breaches: reg.counter("sent.breaches"),
            pending: reg.counter("sent.pending"),
            fired: reg.counter("sent.fired"),
            resolved: reg.counter("sent.resolved"),
            firing: reg.gauge("sent.firing"),
        }
    }
}

/// Windows the [`Baseline`] accumulates before freezing.  No detector
/// evaluates during warm-up.
const WARMUP_WINDOWS: u64 = 3;
/// Consecutive breaching windows before a Pending alert fires.
const FIRE_AFTER: u32 = 2;
/// Consecutive clear windows before a Firing alert resolves.
const RESOLVE_AFTER: u32 = 2;
/// Rate-shift threshold, in ppm of relative change of a function's
/// coverage-scaled net rate vs its baseline (±50%).
const RATE_SHIFT_PPM: u128 = 500_000;
/// Noise floor for the rate-shift detector: a function is only
/// evaluated when its observed net time or its per-window baseline
/// average reaches this many µs.
const MIN_NET_US: u64 = 20;
/// Coverage drop: breach when a window's covered ppm of its timeline
/// falls below this (50%).
const COVERAGE_FLOOR_PPM: u64 = 500_000;
/// Mask-ladder residency: breach when more than this ppm of a window's
/// covered time ran below full visibility (50%).
const LADDER_RESIDENCY_PPM: u64 = 500_000;
/// Anomaly budget: breach when a window's anomalies exceed this ppm of
/// its hardware events (1%).
const ANOMALY_BUDGET_PPM: u64 = 10_000;
/// Eviction pressure: breach when the recorder ledger has written off
/// more than this ppm of the elapsed timeline (25%).
const EVICTION_PPM: u64 = 250_000;

/// The regression sentinel: one [`Baseline`], the fixed [`Detector`]
/// set, per-subject hysteresis, and the [`AlertJournal`] everything
/// lands in.
///
/// Feed it windows oldest to newest, either straight from a recorder
/// with [`Sentinel::scan`] or window by window with
/// [`Sentinel::observe`].  Symbol ids must stay stable across the
/// stream (they do for any one recorder).  Windows with no visible
/// time for a function are treated as clear for that function's
/// rate-shift state: an unknowable rate never extends a breach streak.
pub struct Sentinel {
    baseline: Baseline,
    states: BTreeMap<(Detector, u32), HState>,
    journal: AlertJournal,
    windows_evaluated: u64,
    firing_count: u64,
    next_window: u64,
    metrics: SentMetrics,
}

impl std::fmt::Debug for Sentinel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sentinel")
            .field("windows_evaluated", &self.windows_evaluated)
            .field("baseline_windows", &self.baseline.windows)
            .field("journal_len", &self.journal.len())
            .field("firing", &self.firing_count)
            .finish()
    }
}

impl Sentinel {
    /// A sentinel with an empty baseline and an empty journal.
    pub fn new(_: SentinelConfig) -> Sentinel {
        Sentinel {
            baseline: Baseline::default(),
            states: BTreeMap::new(),
            journal: AlertJournal::default(),
            windows_evaluated: 0,
            firing_count: 0,
            next_window: 0,
            metrics: SentMetrics::default(),
        }
    }

    /// Publishes live self-metrics under `sent.` into `reg`; an inert
    /// `reg` (the default) records nothing.
    pub fn set_telemetry(&mut self, reg: &Registry) {
        self.metrics = SentMetrics::new(reg);
    }

    /// The baseline (frozen once warm-up completes).
    pub fn baseline(&self) -> &Baseline {
        &self.baseline
    }

    /// The transition journal.
    pub fn journal(&self) -> &AlertJournal {
        &self.journal
    }

    /// Windows evaluated so far (warm-up windows included).
    pub fn windows_evaluated(&self) -> u64 {
        self.windows_evaluated
    }

    /// The (detector, subject) pairs currently firing, sorted.
    pub fn firing(&self) -> Vec<(Detector, String)> {
        self.journal.firing_at_end()
    }

    /// Evaluates every retained recorder window not yet seen, oldest
    /// to newest.  Windows evicted between scans are skipped — their
    /// span is already charged to the eviction ledger, which the
    /// eviction-pressure detector watches.
    pub fn scan(&mut self, rec: &FlightRecorder) {
        let retained = rec.retained();
        if retained.is_empty() {
            return;
        }
        let vis = rec.visibilities();
        let ledger = rec.ledger();
        let start = self.next_window.max(retained.start);
        rec.each_fold(start..retained.end, |w, end_us, recon| {
            self.observe(w, end_us, recon, &vis, Some(&ledger));
        });
        self.next_window = self.next_window.max(retained.end);
    }

    /// Evaluates one window given its reconstruction, the per-symbol
    /// mask visibilities (see [`FlightRecorder::visibilities`]) and,
    /// when available, the recorder ledger for eviction pressure.
    ///
    /// During warm-up the window is absorbed into the [`Baseline`] and
    /// no detector runs.  After warm-up, detectors evaluate in their
    /// fixed order; per-function subjects in symbol-id order.
    pub fn observe(
        &mut self,
        window: u64,
        end_us: u64,
        recon: &Reconstruction,
        vis: &[MaskVisibility],
        ledger: Option<&RecorderLedger>,
    ) {
        self.windows_evaluated += 1;
        self.metrics.windows.inc();
        if !self.baseline.is_frozen() {
            self.baseline.absorb(recon);
            return;
        }

        let cov = &recon.coverage;

        // 1. Rate shift, per function, in symbol-id order.
        for s in 0..recon.stats.len() {
            let v = vis
                .get(s)
                .copied()
                .unwrap_or(MaskVisibility::UnlessSwitchOnly);
            let b_net = self.baseline.net_us(s);
            let b_vis = self.baseline.visible_us(v);
            let o_net = recon.stats[s].net;
            let o_vis = visible_us(cov, v);
            // Noise floor: neither side shows MIN_NET_US of activity.
            let b_avg = b_net / self.baseline.windows.max(1);
            if o_net.max(b_avg) < MIN_NET_US {
                continue;
            }
            // An unknowable rate (no visible time on either side) is a
            // clear, never a breach.
            let breach = if b_vis == 0 || o_vis == 0 {
                false
            } else {
                let up = (o_net as u128) * (b_vis as u128) * PPM
                    > (b_net as u128) * (o_vis as u128) * (PPM + RATE_SHIFT_PPM);
                let down = (o_net as u128) * (b_vis as u128) * PPM
                    < (b_net as u128) * (o_vis as u128) * PPM.saturating_sub(RATE_SHIFT_PPM);
                up || down
            };
            let baseline_stat = self.baseline.net_rate_milli(s, v).unwrap_or(0);
            let observed_stat = if o_vis == 0 {
                0
            } else {
                ((o_net as u128 * 1_000) / o_vis as u128) as u64
            };
            self.step(
                Detector::RateShift,
                s as u32,
                recon.syms.name(s as crate::events::SymId),
                breach,
                baseline_stat,
                observed_stat,
                window,
                end_us,
            );
        }

        // 2. Coverage drop: covered ppm of the window timeline.
        if cov.timeline_us > 0 {
            let observed = u64::from(cov.covered_ppm());
            self.step(
                Detector::CoverageDrop,
                GLOBAL,
                "coverage",
                observed < COVERAGE_FLOOR_PPM,
                COVERAGE_FLOOR_PPM,
                observed,
                window,
                end_us,
            );
        }

        // 3. Mask-ladder residency: covered time below full visibility.
        if cov.covered_us > 0 {
            let below = cov.covered_us.saturating_sub(cov.level_us[0]);
            let observed = ((below as u128 * PPM) / cov.covered_us as u128) as u64;
            self.step(
                Detector::MaskResidency,
                GLOBAL,
                "mask",
                observed > LADDER_RESIDENCY_PPM,
                LADDER_RESIDENCY_PPM,
                observed,
                window,
                end_us,
            );
        }

        // 4. Anomaly budget: anomalies ppm of hardware events.
        if recon.tags > 0 {
            let observed = ((recon.anomalies.total() as u128 * PPM) / recon.tags as u128) as u64;
            self.step(
                Detector::AnomalyBudget,
                GLOBAL,
                "anomalies",
                observed > ANOMALY_BUDGET_PPM,
                ANOMALY_BUDGET_PPM,
                observed,
                window,
                end_us,
            );
        }

        // 5. Eviction pressure: written-off ppm of the elapsed span.
        if let Some(l) = ledger {
            if l.elapsed_us > 0 {
                let observed = ((l.evicted_us as u128 * PPM) / l.elapsed_us as u128) as u64;
                self.step(
                    Detector::EvictionPressure,
                    GLOBAL,
                    "recorder",
                    observed > EVICTION_PPM,
                    EVICTION_PPM,
                    observed,
                    window,
                    end_us,
                );
            }
        }
    }

    /// One hysteresis step for (detector, subject).
    #[allow(clippy::too_many_arguments)]
    fn step(
        &mut self,
        detector: Detector,
        key: u32,
        subject: &str,
        breach: bool,
        baseline: u64,
        observed: u64,
        window: u64,
        at_us: u64,
    ) {
        let entry = |transition| AlertEntry {
            seq: 0,
            window,
            at_us,
            detector,
            subject: subject.to_string(),
            transition,
            baseline,
            observed,
            delta: observed as i64 - baseline as i64,
        };
        if breach {
            self.metrics.breaches.inc();
            let state = self.states.entry((detector, key)).or_default();
            if state.firing {
                // Already alerting; a further breach just holds it.
                state.clears = 0;
                return;
            }
            state.breaches += 1;
            state.clears = 0;
            if state.breaches == 1 {
                self.journal.push(entry(AlertTransition::Pending));
                self.metrics.pending.inc();
            }
            if state.breaches >= FIRE_AFTER {
                state.firing = true;
                state.breaches = 0;
                self.journal.push(entry(AlertTransition::Firing));
                self.firing_count += 1;
                self.metrics.fired.inc();
                self.metrics.firing.set(self.firing_count);
            }
        } else {
            let Some(state) = self.states.get_mut(&(detector, key)) else {
                return;
            };
            if state.firing {
                state.clears += 1;
                if state.clears >= RESOLVE_AFTER {
                    state.firing = false;
                    state.clears = 0;
                    state.breaches = 0;
                    self.journal.push(entry(AlertTransition::Resolved));
                    self.firing_count -= 1;
                    self.metrics.resolved.inc();
                    self.metrics.firing.set(self.firing_count);
                }
            } else {
                // A broken pre-Firing streak resets silently.
                state.breaches = 0;
            }
        }
    }

    /// A deterministic text digest: headline counts plus the journal.
    pub fn describe(&self) -> String {
        format!(
            "sentinel: {} windows evaluated, baseline over {} windows ({}), {} transitions, {} firing\n{}",
            self.windows_evaluated,
            self.baseline.windows,
            if self.baseline.is_frozen() {
                "frozen"
            } else {
                "warming up"
            },
            self.journal.len(),
            self.firing_count,
            self.journal.describe(),
        )
    }
}

// ---------------------------------------------------------------------
// Fleet roll-up
// ---------------------------------------------------------------------

/// A (detector, subject) pair rolled up across fleet members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetAlert {
    /// The detector.
    pub detector: Detector,
    /// The subject (see [`AlertEntry::subject`]).
    pub subject: String,
    /// Machines whose journal fired this pair, ascending.
    pub machines: Vec<u32>,
    /// True when the pair fired on at least the quorum of machines.
    pub fleet_level: bool,
}

impl FleetAlert {
    /// One deterministic roll-up line.
    pub fn describe_line(&self) -> String {
        let ids: Vec<String> = self.machines.iter().map(|m| format!("m{m}")).collect();
        format!(
            "{}({}) on {} machine{} [{}] — {}",
            self.detector.label(),
            self.subject,
            self.machines.len(),
            if self.machines.len() == 1 { "" } else { "s" },
            ids.join(" "),
            if self.fleet_level {
                "FLEET-LEVEL"
            } else {
                "member-level"
            },
        )
    }
}

/// The fleet-side roll-up: a pure fold of member journals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSentinel {
    quorum: u32,
}

impl FleetSentinel {
    /// A roll-up promoting pairs seen on at least `quorum` machines
    /// (clamped to 1).
    pub fn new(quorum: u32) -> FleetSentinel {
        FleetSentinel {
            quorum: quorum.max(1),
        }
    }

    /// The promotion quorum.
    pub fn quorum(&self) -> u32 {
        self.quorum
    }

    /// Folds member journals: every (detector, subject) with a Firing
    /// transition anywhere is one [`FleetAlert`] listing the machines
    /// it fired on; pairs reaching the quorum are fleet-level.
    /// Deterministic: alerts sorted by (detector, subject), machines
    /// ascending.
    pub fn roll_up(&self, members: &[(u32, &AlertJournal)]) -> Vec<FleetAlert> {
        let mut by_pair: BTreeMap<(Detector, &str), Vec<u32>> = BTreeMap::new();
        for (id, journal) in members {
            for e in journal.entries() {
                if e.transition == AlertTransition::Firing {
                    let ms = by_pair.entry((e.detector, &e.subject)).or_default();
                    if !ms.contains(id) {
                        ms.push(*id);
                    }
                }
            }
        }
        by_pair
            .into_iter()
            .map(|((detector, subject), mut machines)| {
                machines.sort_unstable();
                FleetAlert {
                    detector,
                    subject: subject.to_string(),
                    fleet_level: machines.len() as u32 >= self.quorum,
                    machines,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Symbols;
    use crate::recon::Reconstruction;
    use hwprof_profiler::Coverage;

    fn syms(names: &[&str]) -> Symbols {
        let mut tf = hwprof_tagfile::TagFile::new(500);
        for n in names {
            tf.assign(n, hwprof_tagfile::TagKind::Function)
                .expect("fresh");
        }
        Symbols::from_tagfile(&tf)
    }

    fn sym_of(sy: &Symbols, name: &str) -> usize {
        (0..sy.len())
            .find(|&s| sy.name(s as crate::events::SymId) == name)
            .expect("known symbol")
    }

    /// One fully-covered 1 ms window where `bcopy` runs `net` µs.
    fn window(sy: &Symbols, net: u64) -> Reconstruction {
        let mut r = Reconstruction::empty(sy.clone());
        let s = sym_of(sy, "bcopy");
        r.stats[s].calls = net / 10;
        r.stats[s].net = net;
        r.stats[s].elapsed = net;
        r.total_elapsed = 1_000;
        r.tags = 100;
        r.note_coverage(&Coverage {
            timeline_us: 1_000,
            covered_us: 1_000,
            level_us: [1_000, 0, 0],
            ..Coverage::default()
        });
        r
    }

    fn drive(nets: &[u64]) -> Sentinel {
        let sy = syms(&["bcopy"]);
        let vis = vec![MaskVisibility::UnlessSwitchOnly; sy.len()];
        let mut s = Sentinel::new(SentinelConfig);
        for (w, &net) in nets.iter().enumerate() {
            let r = window(&sy, net);
            s.observe(w as u64, (w as u64 + 1) * 1_000, &r, &vis, None);
        }
        s
    }

    #[test]
    fn steady_stream_is_silent() {
        let s = drive(&[50; 10]);
        assert!(s.journal().is_empty());
        assert!(s.firing().is_empty());
    }

    #[test]
    fn shift_fires_and_resolves_with_hysteresis() {
        // warmup 3, fire after 2, resolve after 2.
        let s = drive(&[50, 50, 50, 50, 300, 300, 300, 50, 50, 50]);
        let j = s.journal();
        let kinds: Vec<AlertTransition> = j.entries().iter().map(|e| e.transition).collect();
        assert_eq!(
            kinds,
            vec![
                AlertTransition::Pending,
                AlertTransition::Firing,
                AlertTransition::Resolved
            ]
        );
        assert_eq!(j.entries()[0].window, 4);
        assert_eq!(j.entries()[1].window, 5);
        assert_eq!(j.entries()[2].window, 8);
        assert_eq!(j.entries()[1].baseline, 50);
        assert_eq!(j.entries()[1].observed, 300);
        assert_eq!(j.entries()[1].delta, 250);
        assert!(j.firing_at_end().is_empty());
    }

    #[test]
    fn single_noisy_window_stays_pending() {
        let s = drive(&[50, 50, 50, 300, 50, 50, 50, 50]);
        let j = s.journal();
        assert_eq!(j.len(), 1);
        assert_eq!(j.entries()[0].transition, AlertTransition::Pending);
        assert!(j.firing_at_end().is_empty());
    }

    #[test]
    fn warmup_is_three_windows_fire_and_resolve_take_two() {
        let sy = syms(&["bcopy"]);
        let vis = vec![MaskVisibility::UnlessSwitchOnly; sy.len()];
        let mut s = Sentinel::new(SentinelConfig);
        let mut feed = |w: u64, net: u64| {
            s.observe(w, (w + 1) * 1_000, &window(&sy, net), &vis, None);
            let last = s.journal().entries().last();
            (
                s.baseline().is_frozen(),
                last.map(|e| (e.window, e.transition)),
            )
        };
        assert_eq!(feed(0, 50), (false, None));
        assert_eq!(feed(1, 50), (false, None));
        assert_eq!(
            feed(2, 50),
            (true, None),
            "the baseline freezes after window 3"
        );
        // Window 3 is the first one the detectors evaluate.
        assert_eq!(feed(3, 300), (true, Some((3, AlertTransition::Pending))));
        assert_eq!(feed(4, 300), (true, Some((4, AlertTransition::Firing))));
        assert_eq!(feed(5, 50), (true, Some((4, AlertTransition::Firing))));
        assert_eq!(feed(6, 50), (true, Some((6, AlertTransition::Resolved))));
    }

    #[test]
    fn roll_up_promotes_at_quorum() {
        let shifted = drive(&[50, 50, 50, 300, 300, 300, 300, 300]);
        let steady = drive(&[50; 8]);
        let js = shifted.journal().clone();
        let jq = steady.journal().clone();
        let fleet = FleetSentinel::new(2);
        let alerts = fleet.roll_up(&[(0, &js), (1, &jq), (2, &js)]);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].detector, Detector::RateShift);
        assert_eq!(alerts[0].subject, "bcopy");
        assert_eq!(alerts[0].machines, vec![0, 2]);
        assert!(alerts[0].fleet_level);
        let solo = FleetSentinel::new(3).roll_up(&[(0, &js), (1, &jq), (2, &jq)]);
        assert_eq!(solo.len(), 1);
        assert!(!solo[0].fleet_level);
        assert_eq!(solo[0].machines, vec![0]);
    }
}
