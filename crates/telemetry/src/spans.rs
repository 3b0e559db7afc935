//! Span journal: a bounded, lock-free log of structured pipeline
//! events.
//!
//! The [`Registry`](crate::Registry) answers "how many" — counters and
//! gauges with no ordering.  The [`SpanLog`] answers "when, and caused
//! by what": every supervisor re-arm, mask-ladder shift, upload
//! attempt/retry/breaker trip and analyzer bank in/out is recorded as a
//! begin/end/instant event carrying the monotonic simulated time and a
//! causal id (the bank index for everything bank-shaped), at the same
//! sites that already feed the Registry and the Coverage ledger.  The
//! analysis crate's Chrome-trace exporter renders the journal as
//! pipeline lanes next to the reconstructed kernel lanes, so one
//! supervised run reads as a single unified timeline.
//!
//! The log is a fixed slot array written with `fetch_add` claim +
//! per-slot commit flag: recording is wait-free, never allocates, and
//! never blocks the capture hot path.  When the array fills, further
//! events are counted in `dropped()` and discarded — the journal
//! degrades by forgetting the tail, never by stalling the machine.
//! Like the Registry, values are exact once the run has quiesced, and
//! the default journal is inert: it records nothing and counts no drops.
//!
//! ```
//! use hwprof_telemetry::{SpanLog, SpanName, SpanPhase, SpanTrack};
//! let log = SpanLog::new();
//! log.begin(SpanTrack::Supervisor, SpanName::Bank, 100, 0, 0);
//! log.end(SpanTrack::Supervisor, SpanName::Bank, 900, 0, 42);
//! let events = log.snapshot();
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[0].phase, SpanPhase::Begin);
//! assert_eq!(events[1].arg, 42);
//! ```

use std::sync::atomic::{
    AtomicU64,
    Ordering::{Acquire, Relaxed, Release},
};
use std::sync::Arc;

/// Slot count of every live [`SpanLog`]: enough for every
/// supervised run in this repo with a wide margin, small enough that an
/// always-on journal costs a few MiB at most.
pub const SPAN_LOG_CAPACITY: usize = 65_536;

/// What a span event marks: the start of an interval, its end, or a
/// point occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanPhase {
    /// Interval opens at `t_us`.
    Begin,
    /// Interval closes at `t_us`; pairs with the `Begin` of the same
    /// (track, name, id).
    End,
    /// Point event.
    Instant,
}

/// Which pipeline component recorded the event.  Each track renders as
/// one lane in the exported timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanTrack {
    /// Capture supervisor: bank sessions, dark windows, re-arms, mask
    /// ladder moves.
    Supervisor,
    /// Upload path: attempts, retries, breaker trips, spill shelf.
    Transport,
    /// Streaming analysis workers: per-bank decode+reconstruct spans.
    Analyzer,
    /// Raw profiler board: drains and overflows seen outside a
    /// supervisor.
    Board,
    /// Flight recorder: window rollup lifetimes and evictions.
    Recorder,
}

impl SpanTrack {
    /// Stable lane label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            SpanTrack::Supervisor => "supervisor",
            SpanTrack::Transport => "transport",
            SpanTrack::Analyzer => "analyzer",
            SpanTrack::Board => "board",
            SpanTrack::Recorder => "recorder",
        }
    }

    /// Stable small integer for lane ordering in exports.
    pub fn idx(self) -> u8 {
        match self {
            SpanTrack::Supervisor => 0,
            SpanTrack::Transport => 1,
            SpanTrack::Analyzer => 2,
            SpanTrack::Board => 3,
            SpanTrack::Recorder => 4,
        }
    }
}

/// What happened.  The `id`/`arg` meaning per name is documented on
/// each variant; `id` is always the causal key that ties a begin to its
/// end and a bank to its upload to its analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanName {
    /// A bank capture session (`id` = bank index; `arg` on End =
    /// records captured).
    Bank,
    /// A dark window — the board is off (`id` = gap ordinal; `arg` =
    /// gap-cause discriminant).
    Dark,
    /// Board re-armed after a dark window (`id` = next bank index,
    /// `arg` = mask level in force).
    Rearm,
    /// Mask ladder stepped down (`id` = bank index, `arg` = new level).
    MaskDown,
    /// Mask ladder stepped back up (`id` = bank index, `arg` = new
    /// level).
    MaskUp,
    /// An upload of one bank (`id` = bank index; `arg` on End = 1 if
    /// delivered, 0 if abandoned).
    Upload,
    /// One failed upload attempt inside an upload span (`arg` =
    /// attempt ordinal).
    Retry,
    /// Circuit breaker tripped open (`id` = bank index).
    Breaker,
    /// Bank shelved to the spill buffer (`id` = bank index, `arg` =
    /// shelf depth after).
    Spill,
    /// Spill-shelf re-upload attempt (`id` = bank index).
    Flush,
    /// Bank abandoned for good (`id` = bank index).
    BankLost,
    /// One analysis worker decoding + reconstructing one bank (`id` =
    /// feed-order bank index; `arg` on End = events decoded).
    Analyze,
    /// Raw board drain handoff (`id` = drain ordinal, `arg` = records).
    Drain,
    /// Raw board overflow (`id` = overflow ordinal).
    Overflow,
    /// One flight-recorder rollup window (`id` = window index; `arg`
    /// on End = session fragments folded into it).
    Window,
    /// A window evicted from the recorder ring (`id` = window index,
    /// `arg` = its clipped span in µs).
    Evict,
}

impl SpanName {
    /// Stable event label used by the exporters.
    pub fn label(self) -> &'static str {
        match self {
            SpanName::Bank => "bank",
            SpanName::Dark => "dark",
            SpanName::Rearm => "re-arm",
            SpanName::MaskDown => "mask down",
            SpanName::MaskUp => "mask up",
            SpanName::Upload => "upload",
            SpanName::Retry => "retry",
            SpanName::Breaker => "breaker open",
            SpanName::Spill => "spill",
            SpanName::Flush => "spill flush",
            SpanName::BankLost => "bank lost",
            SpanName::Analyze => "analyze",
            SpanName::Drain => "drain",
            SpanName::Overflow => "overflow",
            SpanName::Window => "window",
            SpanName::Evict => "evict",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Monotonic simulated microseconds.  Supervisor/Transport/Board
    /// events carry absolute trigger time; Analyzer events carry time
    /// relative to their bank (the exporter re-bases them from the
    /// run's session table).
    pub t_us: u64,
    pub phase: SpanPhase,
    pub track: SpanTrack,
    pub name: SpanName,
    /// Causal id — the bank index for everything bank-shaped.
    pub id: u64,
    /// Per-name extra argument (see [`SpanName`]).
    pub arg: u64,
}

const PHASES: [SpanPhase; 3] = [SpanPhase::Begin, SpanPhase::End, SpanPhase::Instant];
const TRACKS: [SpanTrack; 5] = [
    SpanTrack::Supervisor,
    SpanTrack::Transport,
    SpanTrack::Analyzer,
    SpanTrack::Board,
    SpanTrack::Recorder,
];
const NAMES: [SpanName; 16] = [
    SpanName::Bank,
    SpanName::Dark,
    SpanName::Rearm,
    SpanName::MaskDown,
    SpanName::MaskUp,
    SpanName::Upload,
    SpanName::Retry,
    SpanName::Breaker,
    SpanName::Spill,
    SpanName::Flush,
    SpanName::BankLost,
    SpanName::Analyze,
    SpanName::Drain,
    SpanName::Overflow,
    SpanName::Window,
    SpanName::Evict,
];

fn encode(phase: SpanPhase, track: SpanTrack, name: SpanName) -> u64 {
    let p = PHASES.iter().position(|&x| x == phase).expect("listed") as u64;
    let k = TRACKS.iter().position(|&x| x == track).expect("listed") as u64;
    let n = NAMES.iter().position(|&x| x == name).expect("listed") as u64;
    p | (k << 8) | (n << 16)
}

fn decode(code: u64) -> Option<(SpanPhase, SpanTrack, SpanName)> {
    let p = *PHASES.get((code & 0xff) as usize)?;
    let k = *TRACKS.get(((code >> 8) & 0xff) as usize)?;
    let n = *NAMES.get(((code >> 16) & 0xff) as usize)?;
    Some((p, k, n))
}

struct Slot {
    /// 0 = unclaimed/uncommitted, 1 = committed.
    committed: AtomicU64,
    t: AtomicU64,
    code: AtomicU64,
    id: AtomicU64,
    arg: AtomicU64,
}

struct Inner {
    slots: Box<[Slot]>,
    next: AtomicU64,
    dropped: AtomicU64,
}

/// Bounded lock-free journal of [`SpanEvent`]s; inert by default.
/// Cloning shares the underlying buffer, like every other telemetry
/// handle.
#[derive(Clone, Default)]
pub struct SpanLog {
    /// The slot array; `None` is the inert journal.
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for SpanLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanLog")
            .field("capacity", &self.capacity())
            .field("recorded", &self.len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl SpanLog {
    /// A live journal of [`SPAN_LOG_CAPACITY`] slots (further events
    /// are dropped and counted).
    pub fn new() -> Self {
        let slots = (0..SPAN_LOG_CAPACITY)
            .map(|_| Slot {
                committed: AtomicU64::new(0),
                t: AtomicU64::new(0),
                code: AtomicU64::new(0),
                id: AtomicU64::new(0),
                arg: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpanLog {
            inner: Some(Arc::new(Inner {
                slots,
                next: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// Records one event; wait-free, drops (and counts) when full.
    pub fn record(&self, ev: SpanEvent) {
        let Some(inner) = &self.inner else {
            return;
        };
        let i = inner.next.fetch_add(1, Relaxed);
        let Some(slot) = inner.slots.get(i as usize) else {
            inner.dropped.fetch_add(1, Relaxed);
            return;
        };
        slot.t.store(ev.t_us, Relaxed);
        slot.code
            .store(encode(ev.phase, ev.track, ev.name), Relaxed);
        slot.id.store(ev.id, Relaxed);
        slot.arg.store(ev.arg, Relaxed);
        slot.committed.store(1, Release);
    }

    /// Records every event of `events` in order.  An inert journal
    /// never iterates them, so events computed lazily cost nothing
    /// while the journal is off.
    pub fn extend(&self, events: impl IntoIterator<Item = SpanEvent>) {
        if self.inner.is_some() {
            events.into_iter().for_each(|ev| self.record(ev));
        }
    }

    /// Records a [`SpanPhase::Begin`].
    pub fn begin(&self, track: SpanTrack, name: SpanName, t_us: u64, id: u64, arg: u64) {
        self.record(SpanEvent {
            t_us,
            phase: SpanPhase::Begin,
            track,
            name,
            id,
            arg,
        });
    }

    /// Records a [`SpanPhase::End`].
    pub fn end(&self, track: SpanTrack, name: SpanName, t_us: u64, id: u64, arg: u64) {
        self.record(SpanEvent {
            t_us,
            phase: SpanPhase::End,
            track,
            name,
            id,
            arg,
        });
    }

    /// Records a [`SpanPhase::Instant`].
    pub fn instant(&self, track: SpanTrack, name: SpanName, t_us: u64, id: u64, arg: u64) {
        self.record(SpanEvent {
            t_us,
            phase: SpanPhase::Instant,
            track,
            name,
            id,
            arg,
        });
    }

    /// Committed events in record order.  Exact once all writers have
    /// quiesced; a slot claimed but not yet committed by a live writer
    /// is skipped.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let n = (inner.next.load(Acquire) as usize).min(inner.slots.len());
        let mut out = Vec::with_capacity(n);
        for slot in &inner.slots[..n] {
            if slot.committed.load(Acquire) == 0 {
                continue;
            }
            let Some((phase, track, name)) = decode(slot.code.load(Relaxed)) else {
                continue;
            };
            out.push(SpanEvent {
                t_us: slot.t.load(Relaxed),
                phase,
                track,
                name,
                id: slot.id.load(Relaxed),
                arg: slot.arg.load(Relaxed),
            });
        }
        out
    }

    /// Events recorded (claimed slots, committed or not), capped at
    /// capacity.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| {
            (inner.next.load(Relaxed) as usize).min(inner.slots.len())
        })
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded because the journal was full.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.dropped.load(Relaxed))
    }

    /// Slot capacity (0 for the inert journal).
    pub fn capacity(&self) -> usize {
        self.inner.as_ref().map_or(0, |inner| inner.slots.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn records_in_order_with_full_fidelity() {
        let log = SpanLog::new();
        log.begin(SpanTrack::Supervisor, SpanName::Bank, 100, 0, 7);
        log.instant(SpanTrack::Transport, SpanName::Retry, 150, 0, 1);
        log.end(SpanTrack::Supervisor, SpanName::Bank, 200, 0, 42);
        let evs = log.snapshot();
        assert_eq!(
            evs,
            vec![
                SpanEvent {
                    t_us: 100,
                    phase: SpanPhase::Begin,
                    track: SpanTrack::Supervisor,
                    name: SpanName::Bank,
                    id: 0,
                    arg: 7,
                },
                SpanEvent {
                    t_us: 150,
                    phase: SpanPhase::Instant,
                    track: SpanTrack::Transport,
                    name: SpanName::Retry,
                    id: 0,
                    arg: 1,
                },
                SpanEvent {
                    t_us: 200,
                    phase: SpanPhase::End,
                    track: SpanTrack::Supervisor,
                    name: SpanName::Bank,
                    id: 0,
                    arg: 42,
                },
            ]
        );
        assert_eq!(log.dropped(), 0);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn overflow_drops_and_counts_instead_of_blocking() {
        let log = SpanLog::new();
        for i in 0..SPAN_LOG_CAPACITY as u64 + 3 {
            log.instant(SpanTrack::Board, SpanName::Drain, i, i, 0);
        }
        assert_eq!(log.len(), SPAN_LOG_CAPACITY);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.snapshot().len(), SPAN_LOG_CAPACITY);
    }

    #[test]
    fn inert_journal_records_and_drops_nothing() {
        let log = SpanLog::default();
        log.begin(SpanTrack::Supervisor, SpanName::Bank, 100, 0, 0);
        log.instant(SpanTrack::Board, SpanName::Overflow, 150, 0, 0);
        log.extend((0..4).map(|_| unreachable!("an inert journal never pulls events")));
        assert_eq!((log.len(), log.dropped(), log.capacity()), (0, 0, 0));
        assert!(log.is_empty());
        assert!(log.snapshot().is_empty());
    }

    #[test]
    fn extend_records_in_order() {
        let log = SpanLog::new();
        log.extend((0..SPAN_LOG_CAPACITY as u64 + 1).map(|i| SpanEvent {
            t_us: i,
            phase: SpanPhase::Instant,
            track: SpanTrack::Recorder,
            name: SpanName::Window,
            id: i,
            arg: 0,
        }));
        let ids: Vec<u64> = log.snapshot().iter().map(|e| e.id).collect();
        assert_eq!(
            (ids, log.dropped()),
            ((0..SPAN_LOG_CAPACITY as u64).collect(), 1)
        );
    }

    #[test]
    fn every_code_round_trips() {
        for &phase in &PHASES {
            for &track in &TRACKS {
                for &name in &NAMES {
                    assert_eq!(
                        decode(encode(phase, track, name)),
                        Some((phase, track, name))
                    );
                }
            }
        }
        assert_eq!(decode(u64::MAX), None);
    }

    #[test]
    fn concurrent_writers_lose_nothing_within_capacity() {
        let log = SpanLog::new();
        let handles: Vec<_> = (0..8)
            .map(|w| {
                let log = log.clone();
                thread::spawn(move || {
                    for i in 0..1_000u64 {
                        log.instant(SpanTrack::Analyzer, SpanName::Analyze, i, w, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let evs = log.snapshot();
        assert_eq!(evs.len(), 8_000);
        assert_eq!(log.dropped(), 0);
        // Every (writer, i) pair present exactly once.
        let mut seen = std::collections::HashSet::new();
        for ev in evs {
            assert!(seen.insert((ev.id, ev.t_us)));
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SpanTrack::Supervisor.label(), "supervisor");
        assert_eq!(SpanTrack::Board.idx(), 3);
        assert_eq!(SpanTrack::Recorder.idx(), 4);
        assert_eq!(SpanName::MaskDown.label(), "mask down");
        assert_eq!(SpanName::Analyze.label(), "analyze");
        assert_eq!(SpanName::Window.label(), "window");
        assert_eq!(SpanName::Evict.label(), "evict");
    }
}
