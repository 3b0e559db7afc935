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

/// Force a drain once a session spans this long, so the ladder is
/// re-evaluated even when the masked trigger rate is tiny.
const MAX_SESSION_US: u64 = 2_000_000;
/// Upload attempts per bank, first try included.
const MAX_ATTEMPTS: u32 = 3;
/// Backoff before the first retry; doubles per retry.
const BASE_BACKOFF_US: u64 = 5_000;
/// Backoff ceiling.
const MAX_BACKOFF_US: u64 = 80_000;
/// Up to this fraction (in ppm) of a backoff is added as seeded jitter.
const JITTER_PPM: u32 = 250_000;
/// After a bank exhausts its retries, skip upload attempts for this
/// long (simulated) and shelve banks instead.
const BREAKER_COOLDOWN_US: u64 = 250_000;
/// Undelivered banks the spill shelf holds before the newest bank is
/// lost outright.
const SPILL_BANKS: usize = 4;
/// Step the mask down when the unmasked trigger stream would fill a
/// bank in less than this.
const DOWNGRADE_FILL_US: u64 = 200_000;
/// Step the mask back up when it would take longer than this.
const UPGRADE_FILL_US: u64 = 800_000;
/// Hot pairs the automatic detector masks at `HotMasked`.
const AUTO_HOT_TOP: usize = 4;

/// Backoff before retry number `retry` (1-based): exponential from
/// [`BASE_BACKOFF_US`], capped at [`MAX_BACKOFF_US`], plus seeded
/// jitter.
fn backoff_us(retry: u32, rng: &mut StdRng) -> u64 {
    let exp = retry.saturating_sub(1).min(32);
    let base = BASE_BACKOFF_US
        .saturating_mul(1u64 << exp)
        .min(MAX_BACKOFF_US);
    base + base * u64::from(rng.gen_range(0u32..JITTER_PPM)) / 1_000_000
}

/// The settings programs choose; the rest of the supervisor's schedule
/// is fixed (DESIGN §9).
#[derive(Debug, Clone)]
pub struct SupervisorPolicy {
    /// Simulated time one bank swap keeps the board dark (pulling the
    /// RAM, seating an empty one, re-arming).
    pub drain_budget_us: u64,
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
    /// A proactive swap (the session-length cap).
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

    /// Covered share of the timeline in parts per million, rounded
    /// down; an empty timeline counts as fully covered, as in
    /// [`Coverage::fraction`].
    pub fn covered_ppm(&self) -> u32 {
        if self.timeline_us == 0 {
            1_000_000
        } else {
            (u128::from(self.covered_us) * 1_000_000 / u128::from(self.timeline_us)) as u32
        }
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
#[derive(Debug, Clone, PartialEq, Eq)]
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

    /// First microsecond of the timeline: the earliest session or gap
    /// start.  `None` when the run delivered nothing and went dark
    /// nowhere.
    pub fn origin_us(&self) -> Option<u64> {
        self.sessions
            .iter()
            .map(|s| s.start_us)
            .chain(self.gaps.iter().map(|g| g.start_us))
            .min()
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
    /// The policy's dark time per bank swap.
    drain_budget_us: u64,
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
    /// A read fired into the open dark window.
    dark_missed: bool,
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

    /// The single lost-bank site: the bank's span goes dark after the
    /// fact, charged to the ledger, the counter and the journal at
    /// `now`.
    fn lose_bank(&mut self, now: u64, bank: &SupervisedSession) {
        self.cov.banks_lost += 1;
        self.metrics.banks_lost.inc();
        self.journal.instant(
            SpanTrack::Supervisor,
            SpanName::BankLost,
            now,
            bank.index,
            bank.records.len() as u64,
        );
        self.push_gap(Gap {
            start_us: bank.start_us,
            end_us: bank.end_us,
            cause: GapCause::BankLost,
        });
    }

    /// The single bank-close site: the armed session ending at `end_us`
    /// becomes the next indexed bank, and its `Bank` span (opened at
    /// arm/re-arm time) ends.
    fn close_bank(&mut self, end_us: u64, records: Vec<RawRecord>) -> SupervisedSession {
        let session = SupervisedSession {
            index: self.next_bank,
            start_us: self.session_start,
            end_us,
            level: self.level,
            records,
        };
        self.next_bank += 1;
        self.journal.end(
            SpanTrack::Supervisor,
            SpanName::Bank,
            end_us,
            session.index,
            session.records.len() as u64,
        );
        session
    }

    /// One upload round for a bank: first try plus bounded backoff
    /// retries.  `now` is only a journal timestamp (the round's spans
    /// land at `now` + accumulated backoff).  Returns
    /// `(delivered, dark_time_spent)`.
    fn try_deliver(&mut self, now: u64, index: u64, records: &[RawRecord]) -> (bool, u64) {
        let mut dark = 0u64;
        self.journal
            .begin(SpanTrack::Transport, SpanName::Upload, now, index, 0);
        let mut delivered = false;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                let backoff = backoff_us(attempt, &mut self.rng);
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
            let index = front.index;
            self.metrics.attempts.inc();
            match self.transport.upload(index, &front.records) {
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
        let session = self.close_bank(now, records);

        // Ladder: how long would the *unmasked* trigger stream take to
        // fill one bank?  Level-invariant, so no oscillation from the
        // masking itself.
        let span = now.saturating_sub(self.session_start);
        if let Some(fill_est) = span
            .saturating_mul(h.capacity as u64)
            .checked_div(self.session_triggers)
        {
            if fill_est < DOWNGRADE_FILL_US && self.level != TagMaskLevel::SwitchOnly {
                if self.level == TagMaskLevel::All && self.mask.hot.is_empty() {
                    self.mask.derive_hot(&session.records, AUTO_HOT_TOP);
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
            } else if fill_est > UPGRADE_FILL_US && self.level != TagMaskLevel::All {
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
        let mut dark = self.drain_budget_us;
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
                self.breaker_open_until = Some(now + dark + BREAKER_COOLDOWN_US);
                self.metrics.breaker_trips.inc();
                self.metrics.breaker_open.set(1);
                self.journal.instant(
                    SpanTrack::Transport,
                    SpanName::Breaker,
                    now + dark,
                    session.index,
                    BREAKER_COOLDOWN_US,
                );
                false
            }
        };
        if delivered {
            self.deliver(session);
            self.flush_spill_opportunistic(now);
        } else if self.spill.len() < SPILL_BANKS {
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
            // Shelf full and transport down: the newest bank is lost.
            self.lose_bank(now, &session);
        }

        self.gap_start = now;
        self.gap_cause = if overflow {
            GapCause::Overflow
        } else {
            GapCause::Drain
        };
        self.dark_until = Some(now + dark);
        self.dark_missed = false;
    }

    /// Closes the run: final bank, spill flush, coverage totals.
    fn finish(&mut self) -> SupervisedRun {
        if !self.finished {
            self.finished = true;
            let end = self.last_seen;
            match self.dark_until.take() {
                Some(until) => {
                    // The run ended inside (or exactly at the edge of)
                    // a dark window; clip it to the timeline.  A window
                    // a read fired into stays a gap even when clipped to
                    // nothing, so every read charged to `missed_in_gaps`
                    // sits in a recorded gap.
                    let gap_end = until.min(end);
                    if gap_end > self.gap_start || self.dark_missed {
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
                            let session = self.close_bank(end, records);
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
                    self.lose_bank(end, &front);
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
        CaptureSupervisor {
            state: Arc::new(Mutex::new(SupervisorState {
                board,
                drain_budget_us: policy.drain_budget_us,
                mask,
                level: TagMaskLevel::All,
                transport,
                rng: StdRng::seed_from_u64(policy.seed),
                started: None,
                last_seen: 0,
                session_start: 0,
                session_triggers: 0,
                dark_until: None,
                gap_start: 0,
                gap_cause: GapCause::Drain,
                dark_missed: false,
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
                st.dark_missed = true;
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
        if now_us.saturating_sub(st.session_start) >= MAX_SESSION_US {
            st.drain(now_us, false);
            st.cov.missed_in_gaps += 1;
            st.metrics.missed_in_gaps.inc();
            st.dark_missed = true;
            return;
        }
        if !st.mask.admits(st.level, offset) {
            // The EE-PAL never presents this tag to the board.
            st.cov.masked_events += 1;
            st.metrics.masked_events.inc();
            return;
        }
        let h = st.board.trigger(offset, now_us);
        if h.overflowed || h.stored >= h.capacity {
            st.drain(now_us, true);
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
    use hwprof_telemetry::Registry;

    fn tiny_board(capacity: usize) -> Profiler {
        Profiler::new(BoardConfig {
            capacity,
            time_bits: 24,
        })
    }

    fn policy() -> SupervisorPolicy {
        SupervisorPolicy {
            drain_budget_us: 40_000,
            ..SupervisorPolicy::default()
        }
    }

    /// A transport that never delivers.
    struct DeadTransport;

    impl Transport for DeadTransport {
        fn upload(&mut self, _: u64, _: &[RawRecord]) -> Result<(), TransportError> {
            Err(TransportError)
        }
    }

    fn drive(sup: &mut CaptureSupervisor, n: u64, step: u64) {
        for i in 0..n {
            // Alternate entry/exit of tag pair 500/501.
            let tag = if i % 2 == 0 { 500 } else { 501 };
            sup.on_read(tag, 1_000 + i * step);
        }
    }

    /// Fills one 8-record bank of tag pair 500/501 whose reads start at
    /// `start` and end at `start + fill_us`: the bank's unmasked fill
    /// estimate is exactly `fill_us`.
    fn fill_bank(sup: &mut CaptureSupervisor, start: u64, fill_us: u64) {
        for i in 0..7u64 {
            sup.on_read(500 + (i % 2) as u16, start + i);
        }
        sup.on_read(501, start + fill_us);
    }

    /// The first microsecond the board is armed again after a swap.
    fn rearm_at(sup: &CaptureSupervisor) -> u64 {
        sup.state.lock().dark_until.expect("a swap is in progress")
    }

    #[test]
    fn overflow_rearms_and_accounts_every_microsecond() {
        let mut sup = CaptureSupervisor::new(
            tiny_board(8),
            TagMask::default(),
            policy(),
            Box::new(MemoryTransport::new()),
        );
        drive(&mut sup, 100, 30_000);
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
        drive(&mut sup, 64, 60_000);
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
        let mut sup = CaptureSupervisor::new(
            tiny_board(4),
            TagMask::default(),
            policy(),
            Box::new(DeadTransport),
        );
        drive(&mut sup, 120, 60_000);
        let run = sup.finish();
        let c = run.coverage;
        assert!(c.banks_lost > 0, "shelf overflow loses banks");
        assert!(run.gaps.iter().any(|g| g.cause == GapCause::BankLost));
        assert_eq!(c.covered_us + c.gap_us, c.timeline_us);
        assert!(run.sessions.is_empty(), "nothing ever uploads");
    }

    #[test]
    fn the_fifth_undeliverable_bank_is_lost() {
        let mut sup = CaptureSupervisor::new(
            tiny_board(8),
            TagMask::default(),
            policy(),
            Box::new(DeadTransport),
        );
        let mut start = 1_000;
        for bank in 0..5u64 {
            assert_eq!(sup.coverage().banks_lost, 0, "bank {bank}: shelf has room");
            fill_bank(&mut sup, start, 300_000);
            start = rearm_at(&sup);
        }
        assert_eq!(sup.state.lock().spill.len(), SPILL_BANKS);
        assert_eq!(sup.coverage().banks_lost, 1, "the shelf holds four banks");
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
                drain_budget_us: 2_000,
                ..policy()
            },
            Box::new(MemoryTransport::new()),
        );
        // Phase 1: a hot burst — tag pair 500/501 at 200 us spacing
        // fills the 8-deep bank in 1.6 ms, far under the 200 ms floor.
        let mut t = 1_000u64;
        for i in 0..64u64 {
            let tag = if i % 2 == 0 { 500 } else { 501 };
            sup.on_read(tag, t);
            t += 200;
        }
        assert!(
            sup.level() > TagMaskLevel::All,
            "burst stepped the mask down"
        );
        let down_so_far = sup.coverage().mask_downgrades;
        assert!(down_so_far > 0);
        // Phase 2: pressure subsides — context switches at 150 ms
        // spacing, so a bank takes 1.2 s to fill.
        for _ in 0..40u64 {
            sup.on_read(200, t);
            t += 150_000;
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
    fn the_ladder_steps_down_below_a_200_ms_fill() {
        for (fill_us, level) in [
            (DOWNGRADE_FILL_US - 1, TagMaskLevel::HotMasked),
            (DOWNGRADE_FILL_US, TagMaskLevel::All),
        ] {
            let mut sup = CaptureSupervisor::new(
                tiny_board(8),
                TagMask::default(),
                policy(),
                Box::new(MemoryTransport::new()),
            );
            fill_bank(&mut sup, 1_000, fill_us);
            assert_eq!(sup.level(), level, "estimated fill {fill_us} us");
        }
    }

    #[test]
    fn the_ladder_steps_up_above_an_800_ms_fill() {
        for (fill_us, level) in [
            (UPGRADE_FILL_US, TagMaskLevel::HotMasked),
            (UPGRADE_FILL_US + 1, TagMaskLevel::All),
        ] {
            let mut sup = CaptureSupervisor::new(
                tiny_board(8),
                TagMask::default(),
                policy(),
                Box::new(MemoryTransport::new()),
            );
            fill_bank(&mut sup, 1_000, 1_000);
            assert_eq!(sup.level(), TagMaskLevel::HotMasked);
            // Tag pair 600/601 is not hot, so the board stores it.
            let start = rearm_at(&sup);
            for i in 0..7u64 {
                sup.on_read(600 + (i % 2) as u16, start + i);
            }
            sup.on_read(601, start + fill_us);
            assert_eq!(sup.level(), level, "estimated fill {fill_us} us");
        }
    }

    #[test]
    fn the_breaker_stays_open_for_250_ms() {
        // The first bank's three attempts fail and trip the breaker.
        let transport = FlakyTransport::new(MemoryTransport::new(), 0, 1).with_outage(0, 3);
        let reg = Registry::new();
        let mut sup = CaptureSupervisor::new(
            tiny_board(8),
            TagMask::default(),
            policy(),
            Box::new(transport),
        );
        sup.set_telemetry(&reg);
        fill_bank(&mut sup, 1_000, 300_000);
        let attempts = || reg.snapshot().value("transport.attempts");
        assert_eq!(attempts(), Some(u64::from(MAX_ATTEMPTS)));
        let open_until = sup.state.lock().breaker_open_until.expect("tripped");
        assert_eq!(open_until, rearm_at(&sup) + BREAKER_COOLDOWN_US);
        // A bank full one microsecond before the cooldown ends is
        // shelved without an attempt; the next, full at its end, is
        // uploaded and takes the shelved bank with it.
        let start = rearm_at(&sup);
        fill_bank(&mut sup, start, open_until - 1 - start);
        assert_eq!(attempts(), Some(u64::from(MAX_ATTEMPTS)));
        assert_eq!(sup.state.lock().spill.len(), 2);
        let start = rearm_at(&sup);
        fill_bank(&mut sup, start, 300_000);
        assert_eq!(attempts(), Some(u64::from(MAX_ATTEMPTS) + 3));
        assert!(sup.state.lock().spill.is_empty());
        assert_eq!(sup.finish().sessions.len(), 3);
    }

    #[test]
    fn a_session_reaching_2_s_is_force_drained() {
        let run = |reads: &[u64]| {
            let mut sup = CaptureSupervisor::new(
                tiny_board(64),
                TagMask::default(),
                policy(),
                Box::new(MemoryTransport::new()),
            );
            for (i, &t) in reads.iter().enumerate() {
                sup.on_read(500 + (i % 2) as u16, t);
            }
            sup.finish()
        };
        let short = run(&[1_000, 1_000 + MAX_SESSION_US - 1]);
        assert!(short.gaps.is_empty());
        assert_eq!(short.sessions.len(), 1);
        // The read that reaches the cap lands in the swap's window.
        let capped = run(&[
            1_000,
            1_000 + MAX_SESSION_US,
            1_000 + MAX_SESSION_US + 50_000,
        ]);
        assert_eq!(capped.gaps.len(), 1);
        assert_eq!(capped.gaps[0].cause, GapCause::Drain);
        assert_eq!(capped.gaps[0].start_us, 1_000 + MAX_SESSION_US);
        assert_eq!(capped.coverage.missed_in_gaps, 1);
        assert_eq!(capped.sessions.len(), 2);
    }

    #[test]
    fn a_capped_last_read_is_held_by_a_gap() {
        let reg = Registry::new();
        let mut sup = CaptureSupervisor::new(
            tiny_board(64),
            TagMask::default(),
            policy(),
            Box::new(MemoryTransport::new()),
        );
        sup.set_telemetry(&reg);
        sup.on_read(500, 1_000);
        sup.on_read(501, 1_000 + MAX_SESSION_US);
        let run = sup.finish();
        // The run ends at the instant the forced swap opened its
        // window: the window is clipped to nothing but still recorded,
        // and it holds the read that reached the cap.
        assert_eq!(run.coverage.missed_in_gaps, 1);
        assert_eq!(run.gaps.len(), 1);
        assert_eq!(run.gaps[0].start_us, 1_000 + MAX_SESSION_US);
        assert_eq!(run.gaps[0].span_us(), 0);
        assert_eq!(run.gaps[0].cause, GapCause::Drain);
        assert_eq!(run.coverage.gaps, 1);
        assert_eq!(run.coverage.gap_us, 0);
        assert_eq!(run.coverage.timeline_us, MAX_SESSION_US);
        assert_eq!(
            run.coverage.covered_us + run.coverage.gap_us,
            run.coverage.timeline_us
        );
        let health = crate::health::HealthReport::new(reg.snapshot(), run.coverage);
        assert!(health.is_consistent(), "{:?}", health.discrepancies());
        assert_eq!(health.snapshot().value("sup.missed_in_gaps"), Some(1));
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
        let mut rng = StdRng::seed_from_u64(1);
        let mut jittered = false;
        for _ in 0..64 {
            for (retry, base) in [
                (1, 5_000),
                (2, 10_000),
                (3, 20_000),
                (4, 40_000),
                (5, 80_000),
                (6, 80_000),
                (40, 80_000),
            ] {
                let b = backoff_us(retry, &mut rng);
                assert!(
                    (base..base + base / 4).contains(&b),
                    "retry {retry}: {b} us"
                );
                jittered |= b > base;
            }
        }
        assert!(jittered, "jitter is drawn");
    }

    #[test]
    fn same_seed_same_supervised_run() {
        let mk = || {
            let transport = FlakyTransport::new(MemoryTransport::new(), 300_000, 9);
            let mut sup = CaptureSupervisor::new(
                tiny_board(8),
                TagMask::new([200u16]),
                policy(),
                Box::new(transport),
            );
            drive(&mut sup, 300, 5_000);
            sup.finish()
        };
        let a = mk();
        let b = mk();
        assert!(a.coverage.mask_downgrades > 0);
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
    fn covered_ppm_is_exact_integer_math() {
        let ppm = |covered_us, timeline_us| {
            Coverage {
                timeline_us,
                covered_us,
                ..Coverage::empty()
            }
            .covered_ppm()
        };
        assert_eq!(ppm(0, 0), 1_000_000, "empty timeline is fully covered");
        assert_eq!(ppm(900_000, 1_000_000), 900_000);
        assert_eq!(ppm(899_999, 1_000_000), 899_999);
        // `fraction() * 1e6` truncates this one to 248.
        assert_eq!(ppm(249, 1_000_000), 249);
        // No overflow where `covered * 1e6` leaves u64.
        assert_eq!(ppm(u64::MAX, u64::MAX), 1_000_000);
        assert_eq!(ppm(u64::MAX / 2, u64::MAX), 499_999);
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
