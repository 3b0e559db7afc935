//! Supervised capture: overflow-resilient re-arm, adaptive tag-mask
//! degradation, and retrying uploads.
//!
//! The paper's board simply *stops* on overflow ("the address counter
//! has overflowed and the Profiler has automatically ceased storing
//! data") and relies on an operator to swap battery-backed RAMs and
//! carry them to the host.  [`CaptureSupervisor`] models a tireless
//! operator sitting on the EPROM socket: it watches the fill level
//! through [`Profiler::health`], swaps and re-arms the RAM whenever a
//! bank fills, and records each swap's dark window as an explicit
//! coverage [`Gap`] instead of silently losing time.
//!
//! Three failure axes are handled:
//!
//! * **Overflow** — a full bank is pulled, the board re-armed after a
//!   configurable drain budget; the dark window becomes a [`Gap`].
//! * **Overload** — when the sustained trigger rate would fill a bank
//!   faster than the drain budget can keep up with, the supervisor
//!   steps down an EE-PAL tag-mask ladder ([`TagMaskLevel`]): all tags
//!   → hot entry/exit pairs masked → context-switch-`!` tags only.
//!   This is the paper's PAL address decode reprogrammed on the fly;
//!   masking happens *before* the board, exactly like narrowing the
//!   decoded tag range in the EE-PAL.  Pressure subsiding steps the
//!   mask back up.
//! * **Transport loss** — the RAM-carry/upload hop is a fallible
//!   [`Transport`] wrapped in bounded retry with exponential backoff +
//!   seeded jitter and a circuit breaker; while the breaker is open,
//!   full banks go to a bounded spill shelf instead of blocking the
//!   armed board, and are re-uploaded when the transport recovers.
//!
//! Everything is driven from trigger reads with simulated timestamps —
//! no wall-clock threads — so a supervised run at a fixed seed is
//! bit-reproducible.  [`Coverage`] is a field-wise monoid, mirroring
//! the analysis side's `Anomalies`, so stitched batch/parallel/
//! streaming reconstructions carry identical coverage accounting.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use hwprof_machine::EpromTap;
use hwprof_telemetry::{Counter, Gauge, Histo, Registry, SpanLog, SpanName, SpanTrack};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::board::Profiler;
use crate::record::RawRecord;
use crate::recorder::SessionSink;

/// The EE-PAL degradation ladder, most to least permissive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum TagMaskLevel {
    /// The PAL decodes every assigned tag.
    #[default]
    All,
    /// Entry/exit pairs of the hottest functions are masked out.
    HotMasked,
    /// Only context-switch (`!`) tags pass — enough to keep the
    /// process timeline while shedding almost all trigger load.
    SwitchOnly,
}

impl TagMaskLevel {
    /// Index into per-level accounting arrays.
    pub fn idx(self) -> usize {
        match self {
            TagMaskLevel::All => 0,
            TagMaskLevel::HotMasked => 1,
            TagMaskLevel::SwitchOnly => 2,
        }
    }

    /// One step less permissive (saturating).
    pub fn down(self) -> Self {
        match self {
            TagMaskLevel::All => TagMaskLevel::HotMasked,
            _ => TagMaskLevel::SwitchOnly,
        }
    }

    /// One step more permissive (saturating).
    pub fn up(self) -> Self {
        match self {
            TagMaskLevel::SwitchOnly => TagMaskLevel::HotMasked,
            _ => TagMaskLevel::All,
        }
    }
}

/// The reprogrammable EE-PAL address decode: which trigger tags reach
/// the board at each [`TagMaskLevel`].
///
/// Tag sets hold raw tag values (entry *and* exit; exit = entry + 1 per
/// the paper's two-tags-per-function scheme).
#[derive(Debug, Clone, Default)]
pub struct TagMask {
    cswitch: HashSet<u16>,
    hot: HashSet<u16>,
}

impl TagMask {
    /// Builds a mask from the context-switch entry tags (`!` lines in
    /// the tag file); exit tags are derived as entry + 1.
    pub fn new(cswitch_entry_tags: impl IntoIterator<Item = u16>) -> Self {
        let mut cswitch = HashSet::new();
        for t in cswitch_entry_tags {
            cswitch.insert(t);
            cswitch.insert(t | 1);
        }
        TagMask {
            cswitch,
            hot: HashSet::new(),
        }
    }

    /// Pins the hot set to these entry tags (exit derived as entry + 1),
    /// overriding automatic hot detection.
    pub fn set_hot(&mut self, hot_entry_tags: impl IntoIterator<Item = u16>) {
        self.hot.clear();
        for t in hot_entry_tags {
            self.hot.insert(t);
            self.hot.insert(t | 1);
        }
    }

    /// True if the hot set has been populated (pinned or derived).
    pub fn has_hot(&self) -> bool {
        !self.hot.is_empty()
    }

    /// Does the PAL pass this tag through to the board at `level`?
    pub fn admits(&self, level: TagMaskLevel, tag: u16) -> bool {
        match level {
            TagMaskLevel::All => true,
            TagMaskLevel::HotMasked => !self.hot.contains(&tag),
            TagMaskLevel::SwitchOnly => self.cswitch.contains(&tag),
        }
    }

    /// Applies the mask to a record stream as a pure filter — the exact
    /// effect of running the same stream through the PAL at `level`.
    pub fn filter(&self, level: TagMaskLevel, records: &[RawRecord]) -> Vec<RawRecord> {
        records
            .iter()
            .filter(|r| self.admits(level, r.tag))
            .copied()
            .collect()
    }

    /// Derives the hot set from a drained bank: the `top` most frequent
    /// entry/exit tag pairs that are not context-switch tags.
    pub fn derive_hot(&mut self, records: &[RawRecord], top: usize) {
        let mut counts: HashMap<u16, u64> = HashMap::new();
        for r in records {
            let base = r.tag & !1;
            if self.cswitch.contains(&base) {
                continue;
            }
            *counts.entry(base).or_insert(0) += 1;
        }
        let mut ranked: Vec<(u16, u64)> = counts.into_iter().collect();
        // Count first, then tag, so ties break deterministically.
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        self.hot.clear();
        for (base, _) in ranked.into_iter().take(top) {
            self.hot.insert(base);
            self.hot.insert(base | 1);
        }
    }
}

/// The upload hop failed for one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportError;

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "transport unavailable")
    }
}

impl std::error::Error for TransportError {}

/// The RAM-carry/upload hop from the board to the analysis host.
///
/// One call is one attempt to deliver one full bank; the supervisor
/// wraps it in retry, backoff and a circuit breaker.
pub trait Transport: Send {
    /// Attempts to deliver bank `index`'s records to the host.
    fn upload(&mut self, index: u64, records: &[RawRecord]) -> Result<(), TransportError>;
}

/// A transport that always succeeds (the host is on the desk next to
/// the board).  Delivery bookkeeping lives in [`Coverage`].
#[derive(Debug, Default)]
pub struct MemoryTransport;

impl MemoryTransport {
    /// An always-available transport.
    pub fn new() -> Self {
        MemoryTransport
    }
}

impl Transport for MemoryTransport {
    fn upload(&mut self, _index: u64, _records: &[RawRecord]) -> Result<(), TransportError> {
        Ok(())
    }
}

impl Transport for std::sync::mpsc::Sender<(u64, Vec<RawRecord>)> {
    fn upload(&mut self, index: u64, records: &[RawRecord]) -> Result<(), TransportError> {
        self.send((index, records.to_vec()))
            .map_err(|_| TransportError)
    }
}

/// A [`Transport`] decorator with deterministic, seeded failures —
/// per-attempt failure probability plus an optional hard outage over an
/// attempt-index range (for exercising the breaker).
pub struct FlakyTransport<T> {
    inner: T,
    fail_ppm: u32,
    /// Attempt indices in `[start, end)` always fail.
    outage: Option<(u64, u64)>,
    attempts: u64,
    rng: StdRng,
}

impl<T: Transport> FlakyTransport<T> {
    /// Wraps `inner`; each attempt fails with probability
    /// `fail_ppm` / 1e6 under the seeded RNG.
    pub fn new(inner: T, fail_ppm: u32, seed: u64) -> Self {
        FlakyTransport {
            inner,
            fail_ppm,
            outage: None,
            attempts: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Additionally fails every attempt whose index falls in
    /// `[start, end)` — a deterministic hard outage.
    pub fn with_outage(mut self, start: u64, end: u64) -> Self {
        self.outage = Some((start, end));
        self
    }
}

impl<T: Transport> Transport for FlakyTransport<T> {
    fn upload(&mut self, index: u64, records: &[RawRecord]) -> Result<(), TransportError> {
        let attempt = self.attempts;
        self.attempts += 1;
        if let Some((start, end)) = self.outage {
            if attempt >= start && attempt < end {
                return Err(TransportError);
            }
        }
        if self.fail_ppm > 0 && self.rng.gen_range(0u32..1_000_000) < self.fail_ppm {
            return Err(TransportError);
        }
        self.inner.upload(index, records)
    }
}

/// Bounded retry with exponential backoff and seeded jitter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per bank (first try included); at least 1.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff_us: u64,
    /// Backoff ceiling.
    pub max_backoff_us: u64,
    /// Up to this fraction (in ppm) of the backoff is added as jitter.
    pub jitter_ppm: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 5_000,
            max_backoff_us: 80_000,
            jitter_ppm: 250_000,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `retry` (1-based), jittered.
    fn backoff_us(&self, retry: u32, rng: &mut StdRng) -> u64 {
        let exp = retry.saturating_sub(1).min(32);
        let base = self
            .base_backoff_us
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_us);
        let jitter = if self.jitter_ppm > 0 {
            base * u64::from(rng.gen_range(0u32..self.jitter_ppm)) / 1_000_000
        } else {
            0
        };
        base + jitter
    }
}

/// Every knob of the supervisor, with production-shaped defaults.
#[derive(Debug, Clone)]
pub struct SupervisorPolicy {
    /// Simulated time one bank swap keeps the board dark (pulling the
    /// RAM, seating an empty one, re-arming).
    pub drain_budget_us: u64,
    /// Drain proactively at this fill level; `None` drains only when
    /// the RAM is completely full (where the stock board overflows).
    pub drain_fill: Option<usize>,
    /// Force a drain once a session spans this long, so the ladder is
    /// re-evaluated even when the masked trigger rate is tiny.
    pub max_session_us: u64,
    /// Upload retry schedule.
    pub retry: RetryPolicy,
    /// After a bank exhausts its retries, skip upload attempts for this
    /// long (simulated) and shelve banks instead.
    pub breaker_cooldown_us: u64,
    /// How many undelivered banks the spill shelf holds before the
    /// newest bank is lost outright.
    pub spill_banks: usize,
    /// Enables the tag-mask degradation ladder.
    pub ladder: bool,
    /// Step the mask down when the unmasked trigger stream would fill a
    /// bank in less than this.
    pub downgrade_fill_us: u64,
    /// Step the mask back up when it would take longer than this.
    pub upgrade_fill_us: u64,
    /// Hot pairs the automatic detector masks at `HotMasked`.
    pub auto_hot_top: usize,
    /// Function names to pin as the hot set (resolved by the harness);
    /// empty means derive automatically from the overflowing bank.
    pub hot_functions: Vec<String>,
    /// Failure probability the default seeded transport injects.
    pub transport_fail_ppm: u32,
    /// Minimum acceptable coverage (ppm of the timeline); 0 disables
    /// the check.  Enforced by the harness, not the supervisor.
    pub min_coverage_ppm: u32,
    /// Seed for backoff jitter (and the default flaky transport).
    pub seed: u64,
}

impl Default for SupervisorPolicy {
    fn default() -> Self {
        SupervisorPolicy {
            drain_budget_us: 20_000,
            drain_fill: None,
            max_session_us: 2_000_000,
            retry: RetryPolicy::default(),
            breaker_cooldown_us: 250_000,
            spill_banks: 4,
            ladder: true,
            downgrade_fill_us: 200_000,
            upgrade_fill_us: 800_000,
            auto_hot_top: 4,
            hot_functions: Vec::new(),
            transport_fail_ppm: 0,
            min_coverage_ppm: 900_000,
            seed: 0x1993_0617,
        }
    }
}

/// Why a stretch of the timeline went dark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapCause {
    /// The RAM filled completely — where the stock board overflows.
    Overflow,
    /// A proactive swap (fill threshold or session-length cap).
    Drain,
    /// A captured bank was lost: the spill shelf was full and the
    /// transport down, so its span is retroactively dark.
    BankLost,
}

/// A dark window: the board stored nothing in `[start_us, end_us)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gap {
    /// First dark microsecond.
    pub start_us: u64,
    /// First covered microsecond after the gap.
    pub end_us: u64,
    /// What caused it.
    pub cause: GapCause,
}

impl Gap {
    /// Dark time in microseconds.
    pub fn span_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// One delivered bank: a capture session with its timeline span and the
/// mask level the PAL ran at while it recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisedSession {
    /// Drain order (spilled banks deliver late but keep their index).
    pub index: u64,
    /// First covered microsecond.
    pub start_us: u64,
    /// End of the span (exclusive).
    pub end_us: u64,
    /// Mask level while this bank recorded.
    pub level: TagMaskLevel,
    /// The bank's records.
    pub records: Vec<RawRecord>,
}

impl SupervisedSession {
    /// Covered time in microseconds.
    pub fn span_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Field-wise coverage accounting for a supervised run — a monoid like
/// the analysis side's anomaly counters: `merge` is commutative and
/// associative field-by-field, so batch/parallel/streaming stitches
/// agree bit-identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Coverage {
    /// Full supervised timeline (first to last trigger), microseconds.
    pub timeline_us: u64,
    /// Time the board was armed and storing.
    pub covered_us: u64,
    /// Time inside dark windows (including lost banks).
    pub gap_us: u64,
    /// Dark-window count.
    pub gaps: u64,
    /// Gaps whose bank filled completely (stock-board overflow points).
    pub overflow_gaps: u64,
    /// Covered time per mask level (`All`, `HotMasked`, `SwitchOnly`).
    pub level_us: [u64; 3],
    /// Trigger reads the EE-PAL masked out.
    pub masked_events: u64,
    /// Ladder steps down.
    pub mask_downgrades: u64,
    /// Ladder steps back up.
    pub mask_upgrades: u64,
    /// Upload retries performed.
    pub retries: u64,
    /// Upload attempts that failed.
    pub transport_failures: u64,
    /// Times the circuit breaker opened.
    pub breaker_trips: u64,
    /// Captured banks lost outright (spill full, transport down).
    pub banks_lost: u64,
    /// Trigger reads that fired inside dark windows.
    pub missed_in_gaps: u64,
}

impl Coverage {
    /// The identity element.
    pub fn empty() -> Self {
        Coverage::default()
    }

    /// Field-wise merge (sums).
    pub fn merge(&mut self, other: &Coverage) {
        self.timeline_us += other.timeline_us;
        self.covered_us += other.covered_us;
        self.gap_us += other.gap_us;
        self.gaps += other.gaps;
        self.overflow_gaps += other.overflow_gaps;
        for (a, b) in self.level_us.iter_mut().zip(other.level_us.iter()) {
            *a += b;
        }
        self.masked_events += other.masked_events;
        self.mask_downgrades += other.mask_downgrades;
        self.mask_upgrades += other.mask_upgrades;
        self.retries += other.retries;
        self.transport_failures += other.transport_failures;
        self.breaker_trips += other.breaker_trips;
        self.banks_lost += other.banks_lost;
        self.missed_in_gaps += other.missed_in_gaps;
    }

    /// Covered fraction of the timeline; an empty timeline counts as
    /// fully covered.
    pub fn fraction(&self) -> f64 {
        if self.timeline_us == 0 {
            1.0
        } else {
            self.covered_us as f64 / self.timeline_us as f64
        }
    }

    /// True when the run never went dark and nothing was masked, lost
    /// or retried.
    pub fn is_full(&self) -> bool {
        self.gap_us == 0
            && self.gaps == 0
            && self.masked_events == 0
            && self.mask_downgrades == 0
            && self.retries == 0
            && self.transport_failures == 0
            && self.banks_lost == 0
            && self.missed_in_gaps == 0
    }

    /// Report lines for the "Coverage" block.
    pub fn describe(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.push(format!(
            "timeline {} us, covered {:.2}% ({} gap{}, {} us dark)",
            self.timeline_us,
            self.fraction() * 100.0,
            self.gaps,
            if self.gaps == 1 { "" } else { "s" },
            self.gap_us,
        ));
        if self.overflow_gaps > 0 || self.missed_in_gaps > 0 {
            out.push(format!(
                "{} overflow point{}, {} trigger{} fired while dark",
                self.overflow_gaps,
                if self.overflow_gaps == 1 { "" } else { "s" },
                self.missed_in_gaps,
                if self.missed_in_gaps == 1 { "" } else { "s" },
            ));
        }
        if self.mask_downgrades > 0 || self.mask_upgrades > 0 || self.masked_events > 0 {
            out.push(format!(
                "mask ladder: {} down, {} up, {} event{} masked; level time {} / {} / {} us",
                self.mask_downgrades,
                self.mask_upgrades,
                self.masked_events,
                if self.masked_events == 1 { "" } else { "s" },
                self.level_us[0],
                self.level_us[1],
                self.level_us[2],
            ));
        }
        if self.retries > 0
            || self.transport_failures > 0
            || self.breaker_trips > 0
            || self.banks_lost > 0
        {
            out.push(format!(
                "transport: {} retr{}, {} failure{}, {} breaker trip{}, {} bank{} lost",
                self.retries,
                if self.retries == 1 { "y" } else { "ies" },
                self.transport_failures,
                if self.transport_failures == 1 {
                    ""
                } else {
                    "s"
                },
                self.breaker_trips,
                if self.breaker_trips == 1 { "" } else { "s" },
                self.banks_lost,
                if self.banks_lost == 1 { "" } else { "s" },
            ));
        }
        out
    }
}

impl std::fmt::Display for Coverage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.describe().join("; "))
    }
}

/// The completed output of one supervised capture.
#[derive(Debug, Clone)]
pub struct SupervisedRun {
    /// Delivered sessions in drain order.
    pub sessions: Vec<SupervisedSession>,
    /// Dark windows in timeline order.
    pub gaps: Vec<Gap>,
    /// Full coverage accounting; `covered_us + gap_us == timeline_us`
    /// exactly, by construction.
    pub coverage: Coverage,
    /// Mask level when the run ended.
    pub final_level: TagMaskLevel,
    /// The hot set the mask ended with (raw tags, sorted) — what
    /// `HotMasked` sessions filtered out, for per-function visibility
    /// classification during stitching.
    pub hot_tags: Vec<u16>,
}

impl SupervisedRun {
    /// Total events across all delivered sessions.
    pub fn events(&self) -> usize {
        self.sessions.iter().map(|s| s.records.len()).sum()
    }
}

/// Telemetry handles for the supervisor and its transport stack.
///
/// Counters are incremented at the *same* code sites as the
/// corresponding [`Coverage`] ledger fields (gap pushes go through one
/// helper), so after [`CaptureSupervisor::finish`] the snapshot and
/// the ledger agree exactly — the invariant `HealthReport` checks.
/// Inert until [`CaptureSupervisor::set_telemetry`].
#[derive(Default)]
struct SupMetrics {
    rearms: Counter,
    sessions: Counter,
    masked_events: Counter,
    missed_in_gaps: Counter,
    mask_level: Gauge,
    mask_downgrades: Counter,
    mask_upgrades: Counter,
    gaps: Counter,
    overflow_gaps: Counter,
    gap_us_overflow: Counter,
    gap_us_drain: Counter,
    gap_us_bank_lost: Counter,
    gap_width_us: Histo,
    spill_depth: Gauge,
    covered_us: Gauge,
    timeline_us: Gauge,
    level_us: [Gauge; 3],
    attempts: Counter,
    failures: Counter,
    retries: Counter,
    backoff_us: Histo,
    breaker_trips: Counter,
    breaker_open: Gauge,
    banks_lost: Counter,
}

impl SupMetrics {
    fn new(reg: &Registry) -> Self {
        SupMetrics {
            rearms: reg.counter("sup.rearms"),
            sessions: reg.counter("sup.sessions"),
            masked_events: reg.counter("sup.masked_events"),
            missed_in_gaps: reg.counter("sup.missed_in_gaps"),
            mask_level: reg.gauge("sup.mask.level"),
            mask_downgrades: reg.counter("sup.mask.downgrades"),
            mask_upgrades: reg.counter("sup.mask.upgrades"),
            gaps: reg.counter("sup.gaps"),
            overflow_gaps: reg.counter("sup.overflow_gaps"),
            gap_us_overflow: reg.counter("sup.gap_us.overflow"),
            gap_us_drain: reg.counter("sup.gap_us.drain"),
            gap_us_bank_lost: reg.counter("sup.gap_us.bank_lost"),
            gap_width_us: reg.histo("sup.gap_width_us"),
            spill_depth: reg.gauge("sup.spill.depth"),
            covered_us: reg.gauge("sup.covered_us"),
            timeline_us: reg.gauge("sup.timeline_us"),
            level_us: [
                reg.gauge("sup.level_us.all"),
                reg.gauge("sup.level_us.hot_masked"),
                reg.gauge("sup.level_us.switch_only"),
            ],
            attempts: reg.counter("transport.attempts"),
            failures: reg.counter("transport.failures"),
            retries: reg.counter("transport.retries"),
            backoff_us: reg.histo("transport.backoff_us"),
            breaker_trips: reg.counter("transport.breaker.trips"),
            breaker_open: reg.gauge("transport.breaker.open"),
            banks_lost: reg.counter("transport.banks_lost"),
        }
    }
}

/// An armed-but-idle covered span with no session of its own.
struct IdleSpan {
    start_us: u64,
    end_us: u64,
    level: TagMaskLevel,
}

struct SupervisorState {
    board: Profiler,
    policy: SupervisorPolicy,
    mask: TagMask,
    level: TagMaskLevel,
    transport: Box<dyn Transport>,
    rng: StdRng,
    // Timeline.
    started: Option<u64>,
    last_seen: u64,
    session_start: u64,
    /// Raw trigger reads (masked included) since the session started —
    /// the unmasked fill-rate signal the ladder decisions use.
    session_triggers: u64,
    dark_until: Option<u64>,
    gap_start: u64,
    gap_cause: GapCause,
    // Breaker.
    breaker_open_until: Option<u64>,
    spill: VecDeque<SupervisedSession>,
    next_bank: u64,
    // Output.
    sessions: Vec<SupervisedSession>,
    gaps: Vec<Gap>,
    idle: Vec<IdleSpan>,
    cov: Coverage,
    finished: bool,
    /// Live self-metrics; inert handles keep the trigger path
    /// atom-free.
    metrics: SupMetrics,
    /// Span journal for the unified timeline export; purely
    /// observational, so the supervised machine is bit-identical with
    /// or without it.
    journal: SpanLog,
    /// Live subscriber (the analysis fold); like the journal it is
    /// purely observational — it sees each session/gap at the single
    /// sites below and never influences the capture machine.
    sink: Option<Box<dyn SessionSink>>,
}

/// Stable `arg` encoding for dark-window spans in the journal.
fn cause_arg(c: GapCause) -> u64 {
    match c {
        GapCause::Overflow => 0,
        GapCause::Drain => 1,
        GapCause::BankLost => 2,
    }
}

impl SupervisorState {
    fn bank_full_at(&self) -> usize {
        let cap = self.board.capacity();
        match self.policy.drain_fill {
            Some(n) => n.clamp(1, cap),
            None => cap,
        }
    }

    /// The single gap-recording site: every dark window — swap close,
    /// lost bank, end-of-run clip — lands here, so the ledger's cause
    /// counts and the telemetry counters can never drift apart.
    fn push_gap(&mut self, gap: Gap) {
        if gap.cause == GapCause::Overflow {
            self.cov.overflow_gaps += 1;
        }
        self.metrics.gaps.inc();
        self.metrics.gap_width_us.observe(gap.span_us());
        match gap.cause {
            GapCause::Overflow => {
                self.metrics.overflow_gaps.inc();
                self.metrics.gap_us_overflow.add(gap.span_us());
            }
            GapCause::Drain => self.metrics.gap_us_drain.add(gap.span_us()),
            GapCause::BankLost => self.metrics.gap_us_bank_lost.add(gap.span_us()),
        }
        // One dark slice per gap, id = gap ordinal, arg = cause.
        let id = self.gaps.len() as u64;
        self.journal.begin(
            SpanTrack::Supervisor,
            SpanName::Dark,
            gap.start_us,
            id,
            cause_arg(gap.cause),
        );
        self.journal.end(
            SpanTrack::Supervisor,
            SpanName::Dark,
            gap.end_us,
            id,
            cause_arg(gap.cause),
        );
        if let Some(sink) = self.sink.as_mut() {
            sink.gap(&gap);
        }
        self.gaps.push(gap);
    }

    /// The single delivered-session site, mirroring `push_gap`.
    fn deliver(&mut self, session: SupervisedSession) {
        self.metrics.sessions.inc();
        if let Some(sink) = self.sink.as_mut() {
            sink.session(&session);
        }
        self.sessions.push(session);
    }

    /// One upload round for a bank: first try plus bounded backoff
    /// retries.  `now` is only a journal timestamp (the round's spans
    /// land at `now` + accumulated backoff).  Returns
    /// `(delivered, dark_time_spent)`.
    fn try_deliver(&mut self, now: u64, index: u64, records: &[RawRecord]) -> (bool, u64) {
        let mut dark = 0u64;
        let attempts = self.policy.retry.max_attempts.max(1);
        self.journal
            .begin(SpanTrack::Transport, SpanName::Upload, now, index, 0);
        let mut delivered = false;
        for attempt in 0..attempts {
            if attempt > 0 {
                let backoff = self.policy.retry.backoff_us(attempt, &mut self.rng);
                dark += backoff;
                self.cov.retries += 1;
                self.metrics.retries.inc();
                self.metrics.backoff_us.observe(backoff);
                self.journal.instant(
                    SpanTrack::Transport,
                    SpanName::Retry,
                    now + dark,
                    index,
                    u64::from(attempt),
                );
            }
            self.metrics.attempts.inc();
            match self.transport.upload(index, records) {
                Ok(()) => {
                    delivered = true;
                    break;
                }
                Err(TransportError) => {
                    self.cov.transport_failures += 1;
                    self.metrics.failures.inc();
                }
            }
        }
        self.journal.end(
            SpanTrack::Transport,
            SpanName::Upload,
            now + dark,
            index,
            u64::from(delivered),
        );
        (delivered, dark)
    }

    /// Re-uploads shelved banks after a successful delivery, oldest
    /// first, one attempt each — stopping at the first failure.  `now`
    /// is only a journal timestamp.
    fn flush_spill_opportunistic(&mut self, now: u64) {
        while let Some(front) = self.spill.front() {
            let (index, records) = (front.index, front.records.clone());
            self.metrics.attempts.inc();
            match self.transport.upload(index, &records) {
                Ok(()) => {
                    self.journal
                        .instant(SpanTrack::Transport, SpanName::Flush, now, index, 1);
                    let s = self.spill.pop_front().expect("front exists");
                    self.deliver(s);
                }
                Err(TransportError) => {
                    self.cov.transport_failures += 1;
                    self.metrics.failures.inc();
                    self.journal
                        .instant(SpanTrack::Transport, SpanName::Flush, now, index, 0);
                    break;
                }
            }
        }
        self.metrics.spill_depth.set(self.spill.len() as u64);
    }

    /// Pulls the current bank, uploads (or shelves) it, opens a dark
    /// window, and re-evaluates the mask ladder.
    fn drain(&mut self, now: u64, overflow: bool) {
        let h = self.board.health();
        // A supervised board should never have been dark on its own;
        // if it was (someone flipped the switch underneath us), the
        // missed triggers are accounted like dark-window misses.
        self.cov.missed_in_gaps += h.missed_while_off;
        self.metrics.missed_in_gaps.add(h.missed_while_off);
        let records = self.board.records();
        self.board.set_switch(false);
        let captured_level = self.level;
        let session = SupervisedSession {
            index: self.next_bank,
            start_us: self.session_start,
            end_us: now,
            level: captured_level,
            records,
        };
        self.next_bank += 1;
        // Close the armed-bank span opened at arm/re-arm time.
        self.journal.end(
            SpanTrack::Supervisor,
            SpanName::Bank,
            now,
            session.index,
            session.records.len() as u64,
        );

        // Ladder: how long would the *unmasked* trigger stream take to
        // fill one bank?  Level-invariant, so no oscillation from the
        // masking itself.
        if self.policy.ladder && self.session_triggers > 0 {
            let span = now.saturating_sub(self.session_start);
            let fill_est =
                span.saturating_mul(self.board.capacity() as u64) / self.session_triggers;
            if fill_est < self.policy.downgrade_fill_us && self.level != TagMaskLevel::SwitchOnly {
                if self.level == TagMaskLevel::All
                    && self.mask.hot.is_empty()
                    && self.policy.hot_functions.is_empty()
                {
                    self.mask
                        .derive_hot(&session.records, self.policy.auto_hot_top);
                }
                self.level = self.level.down();
                self.cov.mask_downgrades += 1;
                self.metrics.mask_downgrades.inc();
                self.metrics.mask_level.set(self.level.idx() as u64);
                self.journal.instant(
                    SpanTrack::Supervisor,
                    SpanName::MaskDown,
                    now,
                    self.level.idx() as u64,
                    fill_est,
                );
            } else if fill_est > self.policy.upgrade_fill_us && self.level != TagMaskLevel::All {
                self.level = self.level.up();
                self.cov.mask_upgrades += 1;
                self.metrics.mask_upgrades.inc();
                self.metrics.mask_level.set(self.level.idx() as u64);
                self.journal.instant(
                    SpanTrack::Supervisor,
                    SpanName::MaskUp,
                    now,
                    self.level.idx() as u64,
                    fill_est,
                );
            }
        }

        // Upload (or shelve) the bank; backoff time extends the dark
        // window, the breaker caps how much.
        let mut dark = self.policy.drain_budget_us;
        let breaker_open = self.breaker_open_until.is_some_and(|t| now < t);
        let delivered = if breaker_open {
            false
        } else {
            let (ok, backoff) = self.try_deliver(now, session.index, &session.records);
            dark += backoff;
            if ok {
                self.breaker_open_until = None;
                self.metrics.breaker_open.set(0);
                true
            } else {
                self.cov.breaker_trips += 1;
                self.breaker_open_until = Some(now + dark + self.policy.breaker_cooldown_us);
                self.metrics.breaker_trips.inc();
                self.metrics.breaker_open.set(1);
                self.journal.instant(
                    SpanTrack::Transport,
                    SpanName::Breaker,
                    now + dark,
                    session.index,
                    self.policy.breaker_cooldown_us,
                );
                false
            }
        };
        if delivered {
            self.deliver(session);
            self.flush_spill_opportunistic(now);
        } else if self.spill.len() < self.policy.spill_banks {
            self.journal.instant(
                SpanTrack::Supervisor,
                SpanName::Spill,
                now,
                session.index,
                self.spill.len() as u64 + 1,
            );
            self.spill.push_back(session);
            self.metrics.spill_depth.set(self.spill.len() as u64);
        } else {
            // Shelf full and transport down: the newest bank is lost
            // and its span becomes dark after the fact.
            self.cov.banks_lost += 1;
            self.metrics.banks_lost.inc();
            self.journal.instant(
                SpanTrack::Supervisor,
                SpanName::BankLost,
                now,
                session.index,
                session.records.len() as u64,
            );
            self.push_gap(Gap {
                start_us: session.start_us,
                end_us: session.end_us,
                cause: GapCause::BankLost,
            });
        }

        self.gap_start = now;
        self.gap_cause = if overflow {
            GapCause::Overflow
        } else {
            GapCause::Drain
        };
        self.dark_until = Some(now + dark);
    }

    /// Closes the run: final bank, spill flush, coverage totals.
    fn finish(&mut self) -> SupervisedRun {
        if !self.finished {
            self.finished = true;
            let end = self.last_seen;
            match self.dark_until.take() {
                Some(until) => {
                    // The run ended inside (or exactly at the edge of)
                    // a dark window; clip it to the timeline.
                    let gap_end = until.min(end);
                    if gap_end > self.gap_start {
                        self.push_gap(Gap {
                            start_us: self.gap_start,
                            end_us: gap_end,
                            cause: self.gap_cause,
                        });
                    }
                    self.board.set_switch(false);
                }
                None => {
                    if self.started.is_some() {
                        let records = self.board.records();
                        self.board.set_switch(false);
                        if records.is_empty() {
                            self.journal.end(
                                SpanTrack::Supervisor,
                                SpanName::Bank,
                                end,
                                self.next_bank,
                                0,
                            );
                            if end > self.session_start {
                                self.idle.push(IdleSpan {
                                    start_us: self.session_start,
                                    end_us: end,
                                    level: self.level,
                                });
                            }
                        } else {
                            let session = SupervisedSession {
                                index: self.next_bank,
                                start_us: self.session_start,
                                end_us: end,
                                level: self.level,
                                records,
                            };
                            self.next_bank += 1;
                            self.journal.end(
                                SpanTrack::Supervisor,
                                SpanName::Bank,
                                end,
                                session.index,
                                session.records.len() as u64,
                            );
                            let (ok, _) = self.try_deliver(end, session.index, &session.records);
                            if ok {
                                self.deliver(session);
                            } else {
                                self.spill.push_back(session);
                            }
                        }
                    }
                }
            }
            // Final spill flush: each shelved bank gets a full retry
            // round; what still fails is lost.
            while let Some(front) = self.spill.pop_front() {
                let (ok, _) = self.try_deliver(end, front.index, &front.records);
                if ok {
                    self.deliver(front);
                } else {
                    self.cov.banks_lost += 1;
                    self.metrics.banks_lost.inc();
                    self.journal.instant(
                        SpanTrack::Supervisor,
                        SpanName::BankLost,
                        end,
                        front.index,
                        front.records.len() as u64,
                    );
                    self.push_gap(Gap {
                        start_us: front.start_us,
                        end_us: front.end_us,
                        cause: GapCause::BankLost,
                    });
                }
            }
            self.sessions.sort_by_key(|s| s.index);
            self.gaps.sort_by_key(|g| (g.start_us, g.end_us));
            // Coverage totals: every microsecond of the timeline is in
            // exactly one of {delivered session, idle span, gap}.
            let start = self.started.unwrap_or(end);
            self.cov.timeline_us = end.saturating_sub(start);
            self.cov.covered_us = 0;
            self.cov.gap_us = 0;
            for s in &self.sessions {
                self.cov.covered_us += s.span_us();
                self.cov.level_us[s.level.idx()] += s.span_us();
            }
            for i in &self.idle {
                let span = i.end_us.saturating_sub(i.start_us);
                self.cov.covered_us += span;
                self.cov.level_us[i.level.idx()] += span;
            }
            self.cov.gaps = self.gaps.len() as u64;
            for g in &self.gaps {
                self.cov.gap_us += g.span_us();
            }
            // Final gauges: the live handles settle on the ledger's
            // totals, so a post-run snapshot reads like the Coverage
            // block.
            self.metrics.covered_us.set(self.cov.covered_us);
            self.metrics.timeline_us.set(self.cov.timeline_us);
            for (g, us) in self.metrics.level_us.iter().zip(self.cov.level_us.iter()) {
                g.set(*us);
            }
            self.metrics.mask_level.set(self.level.idx() as u64);
            self.metrics.spill_depth.set(0);
        }
        let mut hot_tags: Vec<u16> = self.mask.hot.iter().copied().collect();
        hot_tags.sort_unstable();
        SupervisedRun {
            sessions: std::mem::take(&mut self.sessions),
            gaps: std::mem::take(&mut self.gaps),
            coverage: self.cov,
            final_level: self.level,
            hot_tags,
        }
    }
}

/// A tireless operator wrapped around a [`Profiler`]: implements
/// [`EpromTap`] so the machine drives it exactly like the bare board,
/// and keeps long captures alive across overflow, overload and
/// transport loss.
///
/// Clones share state, like [`Profiler`] clones share the board: the
/// machine holds one clone as its tap, the harness keeps another to
/// call [`CaptureSupervisor::finish`].
#[derive(Clone)]
pub struct CaptureSupervisor {
    state: Arc<Mutex<SupervisorState>>,
}

impl CaptureSupervisor {
    /// Wraps `board` (a stock single-bank board; any drain sink on it
    /// is ignored by the supervisor's own accounting).
    pub fn new(
        board: Profiler,
        mask: TagMask,
        policy: SupervisorPolicy,
        transport: Box<dyn Transport>,
    ) -> Self {
        let seed = policy.seed;
        CaptureSupervisor {
            state: Arc::new(Mutex::new(SupervisorState {
                board,
                policy,
                mask,
                level: TagMaskLevel::All,
                transport,
                rng: StdRng::seed_from_u64(seed),
                started: None,
                last_seen: 0,
                session_start: 0,
                session_triggers: 0,
                dark_until: None,
                gap_start: 0,
                gap_cause: GapCause::Drain,
                breaker_open_until: None,
                spill: VecDeque::new(),
                next_bank: 0,
                sessions: Vec::new(),
                gaps: Vec::new(),
                idle: Vec::new(),
                cov: Coverage::empty(),
                finished: false,
                metrics: SupMetrics::default(),
                journal: SpanLog::default(),
                sink: None,
            })),
        }
    }

    /// Publishes live self-metrics into `reg`: supervisor counters
    /// under `sup.`, retry-stack counters under `transport.`, and the
    /// wrapped board's counters under `board.`.  Counter sites mirror
    /// the [`Coverage`] ledger exactly (see `HealthReport`), so a
    /// post-`finish` snapshot and the ledger provably agree.  An inert
    /// `reg` (the default) leaves the trigger path touching no atomics.
    pub fn set_telemetry(&self, reg: &Registry) {
        let mut s = self.state.lock();
        s.board.set_telemetry(reg);
        s.metrics = SupMetrics::new(reg);
    }

    /// Attaches a span journal: armed-bank begin/end pairs, dark-window
    /// slices, re-arm / mask-shift / spill / loss instants, and upload
    /// rounds with their retries all land in `log` with simulated
    /// timestamps (the wrapped board gets the journal too).  Purely
    /// observational: the supervised run is bit-identical with or
    /// without it, and an inert `log` (the default) records nothing.
    pub fn set_span_log(&self, log: &SpanLog) {
        let mut s = self.state.lock();
        s.board.set_span_log(log);
        s.journal = log.clone();
    }

    /// Subscribes a live consumer (the analysis fold) to the capture
    /// stream: `sink` sees every delivered session and every gap at the
    /// same single sites that feed the Coverage ledger.  Purely
    /// observational — the supervised run is bit-identical with or
    /// without a sink.  One sink at a time; a second call replaces the
    /// first.
    pub fn set_session_sink(&self, sink: Box<dyn SessionSink>) {
        self.state.lock().sink = Some(sink);
    }

    /// The current mask level.
    pub fn level(&self) -> TagMaskLevel {
        self.state.lock().level
    }

    /// Coverage counters so far (final totals only after `finish`).
    pub fn coverage(&self) -> Coverage {
        self.state.lock().cov
    }

    /// Ends the run: pulls the final partial bank, flushes the spill
    /// shelf with full retry rounds, closes any open dark window, and
    /// returns the completed [`SupervisedRun`].  Idempotent in the
    /// sense that the first call takes the data; later calls return an
    /// empty run with the same coverage totals.
    pub fn finish(&self) -> SupervisedRun {
        self.state.lock().finish()
    }
}

impl EpromTap for CaptureSupervisor {
    fn on_read(&mut self, offset: u16, now_us: u64) {
        let mut s = self.state.lock();
        let st = &mut *s;
        if st.finished {
            return;
        }
        if st.started.is_none() {
            st.started = Some(now_us);
            st.session_start = now_us;
            st.board.clear();
            st.board.set_switch(true);
            st.journal.begin(
                SpanTrack::Supervisor,
                SpanName::Bank,
                now_us,
                st.next_bank,
                0,
            );
        }
        if now_us > st.last_seen {
            st.last_seen = now_us;
        }
        if let Some(until) = st.dark_until {
            if now_us < until {
                // Still swapping RAMs: the trigger fires into an empty
                // socket.
                st.cov.missed_in_gaps += 1;
                st.metrics.missed_in_gaps.inc();
                return;
            }
            // Swap done at `until`: close the gap, re-arm.
            st.push_gap(Gap {
                start_us: st.gap_start,
                end_us: until,
                cause: st.gap_cause,
            });
            st.dark_until = None;
            st.board.clear();
            st.board.set_switch(true);
            st.session_start = until;
            st.session_triggers = 0;
            st.metrics.rearms.inc();
            st.journal.instant(
                SpanTrack::Supervisor,
                SpanName::Rearm,
                until,
                st.next_bank,
                0,
            );
            st.journal.begin(
                SpanTrack::Supervisor,
                SpanName::Bank,
                until,
                st.next_bank,
                0,
            );
        }
        st.session_triggers += 1;
        // Session-length cap: force a swap so the ladder re-evaluates
        // even at a trickle.  The triggering read lands in the window.
        if now_us.saturating_sub(st.session_start) >= st.policy.max_session_us {
            st.drain(now_us, false);
            st.cov.missed_in_gaps += 1;
            st.metrics.missed_in_gaps.inc();
            return;
        }
        if !st.mask.admits(st.level, offset) {
            // The EE-PAL never presents this tag to the board.
            st.cov.masked_events += 1;
            st.metrics.masked_events.inc();
            return;
        }
        st.board.on_read(offset, now_us);
        let h = st.board.health();
        if h.overflowed || h.stored >= st.bank_full_at() {
            let overflow = h.overflowed || h.stored >= st.board.capacity();
            st.drain(now_us, overflow);
        }
    }

    fn stored(&self) -> usize {
        self.state.lock().board.stored()
    }

    fn overflowed(&self) -> bool {
        self.state.lock().board.overflowed()
    }
}

impl std::fmt::Debug for CaptureSupervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("CaptureSupervisor")
            .field("level", &s.level)
            .field("sessions", &s.sessions.len())
            .field("gaps", &s.gaps.len())
            .field("spill", &s.spill.len())
            .field("finished", &s.finished)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::BoardConfig;

    fn tiny_board(capacity: usize) -> Profiler {
        Profiler::new(BoardConfig {
            capacity,
            time_bits: 24,
        })
    }

    fn policy() -> SupervisorPolicy {
        SupervisorPolicy {
            drain_budget_us: 10,
            ladder: false,
            max_session_us: u64::MAX,
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff_us: 5,
                max_backoff_us: 20,
                jitter_ppm: 0,
            },
            breaker_cooldown_us: 50,
            spill_banks: 2,
            ..SupervisorPolicy::default()
        }
    }

    fn drive(sup: &mut CaptureSupervisor, n: u64, step: u64) {
        for i in 0..n {
            // Alternate entry/exit of tag pair 500/501.
            let tag = if i % 2 == 0 { 500 } else { 501 };
            sup.on_read(tag, 1_000 + i * step);
        }
    }

    #[test]
    fn overflow_rearms_and_accounts_every_microsecond() {
        let mut sup = CaptureSupervisor::new(
            tiny_board(8),
            TagMask::default(),
            policy(),
            Box::new(MemoryTransport::new()),
        );
        drive(&mut sup, 100, 7);
        let run = sup.finish();
        assert!(run.sessions.len() >= 3, "several banks delivered");
        assert!(!run.gaps.is_empty(), "each swap left a gap");
        let c = run.coverage;
        assert_eq!(c.covered_us + c.gap_us, c.timeline_us);
        assert_eq!(c.gaps, run.gaps.len() as u64);
        assert!(c.overflow_gaps > 0, "full banks are overflow points");
        assert!(c.fraction() > 0.5);
        // Sessions and gaps tile the timeline without overlap.
        let mut spans: Vec<(u64, u64)> = run
            .sessions
            .iter()
            .map(|s| (s.start_us, s.end_us))
            .chain(run.gaps.iter().map(|g| (g.start_us, g.end_us)))
            .collect();
        spans.sort_unstable();
        for w in spans.windows(2) {
            assert!(
                w[0].1 <= w[1].0,
                "overlap between {:?} and {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn dark_window_triggers_are_missed_not_stored() {
        let mut sup = CaptureSupervisor::new(
            tiny_board(4),
            TagMask::default(),
            SupervisorPolicy {
                drain_budget_us: 1_000,
                ..policy()
            },
            Box::new(MemoryTransport::new()),
        );
        // Fill one bank in 4 us, then trigger inside the 1000 us swap.
        for i in 0..8u64 {
            sup.on_read(500, 1_000 + i);
        }
        let run = sup.finish();
        assert!(run.coverage.missed_in_gaps > 0);
        assert_eq!(run.events() as u64 + run.coverage.missed_in_gaps, 8);
    }

    #[test]
    fn flaky_transport_spills_then_recovers() {
        let transport = FlakyTransport::new(MemoryTransport::new(), 0, 1).with_outage(0, 4);
        let mut sup = CaptureSupervisor::new(
            tiny_board(4),
            TagMask::default(),
            policy(),
            Box::new(transport),
        );
        drive(&mut sup, 64, 40);
        let run = sup.finish();
        let c = run.coverage;
        assert!(c.transport_failures >= 4, "outage attempts failed");
        assert!(c.retries > 0, "failures were retried");
        assert!(c.breaker_trips > 0, "exhausted retries trip the breaker");
        assert_eq!(c.banks_lost, 0, "spill + recovery saved every bank");
        // Spilled banks come back in index order.
        let idx: Vec<u64> = run.sessions.iter().map(|s| s.index).collect();
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(idx, sorted);
        assert_eq!(c.covered_us + c.gap_us, c.timeline_us);
    }

    #[test]
    fn dead_transport_loses_banks_beyond_the_shelf() {
        struct DeadTransport;
        impl Transport for DeadTransport {
            fn upload(&mut self, _: u64, _: &[RawRecord]) -> Result<(), TransportError> {
                Err(TransportError)
            }
        }
        let mut sup = CaptureSupervisor::new(
            tiny_board(4),
            TagMask::default(),
            SupervisorPolicy {
                spill_banks: 1,
                breaker_cooldown_us: 0,
                ..policy()
            },
            Box::new(DeadTransport),
        );
        drive(&mut sup, 120, 30);
        let run = sup.finish();
        let c = run.coverage;
        assert!(c.banks_lost > 0, "shelf overflow loses banks");
        assert!(run.gaps.iter().any(|g| g.cause == GapCause::BankLost));
        assert_eq!(c.covered_us + c.gap_us, c.timeline_us);
        assert!(run.sessions.is_empty(), "nothing ever uploads");
    }

    #[test]
    fn mask_admits_matches_level_semantics() {
        let mut mask = TagMask::new([200u16]);
        mask.set_hot([500u16]);
        assert!(mask.admits(TagMaskLevel::All, 500));
        assert!(mask.admits(TagMaskLevel::All, 9999));
        assert!(!mask.admits(TagMaskLevel::HotMasked, 500));
        assert!(!mask.admits(TagMaskLevel::HotMasked, 501));
        assert!(mask.admits(TagMaskLevel::HotMasked, 502));
        assert!(mask.admits(TagMaskLevel::SwitchOnly, 200));
        assert!(mask.admits(TagMaskLevel::SwitchOnly, 201));
        assert!(!mask.admits(TagMaskLevel::SwitchOnly, 502));
    }

    #[test]
    fn ladder_steps_down_under_pressure_and_back_up() {
        let mut sup = CaptureSupervisor::new(
            tiny_board(8),
            TagMask::new([200u16]),
            SupervisorPolicy {
                ladder: true,
                downgrade_fill_us: 1_000,
                upgrade_fill_us: 2_000,
                auto_hot_top: 1,
                drain_budget_us: 10,
                max_session_us: 2_000,
                ..policy()
            },
            Box::new(MemoryTransport::new()),
        );
        // Phase 1: a hot burst — tag pair 500/501 at 1 us spacing fills
        // the 8-deep bank in 8 us, far under the 1000 us floor.
        let mut t = 1_000u64;
        for i in 0..64u64 {
            let tag = if i % 2 == 0 { 500 } else { 501 };
            sup.on_read(tag, t);
            t += 1;
        }
        assert!(
            sup.level() > TagMaskLevel::All,
            "burst stepped the mask down"
        );
        let down_so_far = sup.coverage().mask_downgrades;
        assert!(down_so_far > 0);
        // Phase 2: pressure subsides — context switches at 500 us
        // spacing; the session cap forces drains that re-evaluate.
        for _ in 0..40u64 {
            sup.on_read(200, t);
            t += 500;
        }
        let run = sup.finish();
        assert!(
            run.coverage.mask_upgrades > 0,
            "quiet phase stepped back up"
        );
        assert_eq!(run.final_level, TagMaskLevel::All);
        assert!(run.coverage.masked_events > 0);
        // Per-level covered time is a partition of covered time.
        let c = run.coverage;
        assert_eq!(c.level_us.iter().sum::<u64>(), c.covered_us);
    }

    #[test]
    fn derive_hot_picks_most_frequent_pair() {
        let mut mask = TagMask::new([200u16]);
        let mut records = Vec::new();
        for i in 0..30u64 {
            records.push(RawRecord::latch(500 + (i % 2) as u16, i));
        }
        for i in 0..5u64 {
            records.push(RawRecord::latch(510, 100 + i));
        }
        for i in 0..50u64 {
            records.push(RawRecord::latch(200 + (i % 2) as u16, 200 + i));
        }
        mask.derive_hot(&records, 1);
        assert!(!mask.admits(TagMaskLevel::HotMasked, 500));
        assert!(!mask.admits(TagMaskLevel::HotMasked, 501));
        assert!(
            mask.admits(TagMaskLevel::HotMasked, 510),
            "cooler pair passes"
        );
        assert!(
            mask.admits(TagMaskLevel::HotMasked, 200),
            "cswitch never hot"
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff_us: 100,
            max_backoff_us: 350,
            jitter_ppm: 0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(p.backoff_us(1, &mut rng), 100);
        assert_eq!(p.backoff_us(2, &mut rng), 200);
        assert_eq!(p.backoff_us(3, &mut rng), 350, "capped");
        let jittered = RetryPolicy {
            jitter_ppm: 500_000,
            ..p
        };
        let b = jittered.backoff_us(1, &mut rng);
        assert!((100..150).contains(&b), "jitter adds at most half: {b}");
    }

    #[test]
    fn same_seed_same_supervised_run() {
        let mk = || {
            let transport = FlakyTransport::new(MemoryTransport::new(), 300_000, 9);
            let mut sup = CaptureSupervisor::new(
                tiny_board(8),
                TagMask::new([200u16]),
                SupervisorPolicy {
                    ladder: true,
                    downgrade_fill_us: 500,
                    upgrade_fill_us: 2_000,
                    ..policy()
                },
                Box::new(transport),
            );
            drive(&mut sup, 300, 13);
            sup.finish()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.sessions, b.sessions);
        assert_eq!(a.gaps, b.gaps);
    }

    #[test]
    fn empty_run_is_fully_covered_nothing() {
        let sup = CaptureSupervisor::new(
            tiny_board(8),
            TagMask::default(),
            policy(),
            Box::new(MemoryTransport::new()),
        );
        let run = sup.finish();
        assert!(run.sessions.is_empty());
        assert!(run.gaps.is_empty());
        assert_eq!(run.coverage.timeline_us, 0);
        assert!((run.coverage.fraction() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn coverage_merge_is_fieldwise() {
        let a = Coverage {
            timeline_us: 10,
            covered_us: 8,
            gap_us: 2,
            gaps: 1,
            level_us: [8, 0, 0],
            retries: 2,
            ..Coverage::empty()
        };
        let b = Coverage {
            timeline_us: 5,
            covered_us: 5,
            level_us: [0, 5, 0],
            banks_lost: 1,
            ..Coverage::empty()
        };
        let mut m = Coverage::empty();
        m.merge(&a);
        m.merge(&b);
        assert_eq!(m.timeline_us, 15);
        assert_eq!(m.covered_us, 13);
        assert_eq!(m.level_us, [8, 5, 0]);
        assert_eq!(m.retries, 2);
        assert_eq!(m.banks_lost, 1);
        let mut n = Coverage::empty();
        n.merge(&b);
        n.merge(&a);
        assert_eq!(m, n, "merge commutes");
    }
}
