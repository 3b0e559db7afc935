//! Raw record decoding: 24-bit time unwrap and tag-to-name matching.

use std::sync::Arc;

use crate::anomaly::Anomalies;
use hwprof_profiler::{RawRecord, TIME_MASK};
use hwprof_tagfile::{TagFile, TagKind};

/// A one-step timestamp delta at or beyond half the 24-bit window is
/// treated as corruption, not elapsed time.  A live kernel never goes
/// ~8.4 s between back-to-back events (the paper's workloads log
/// thousands per second), but a single flipped high time bit lands the
/// delta here immediately — the same half-window heuristic TCP uses to
/// order sequence numbers.
pub const TIME_JUMP_THRESHOLD: u32 = 1 << 23;

/// Index into the symbol table.
pub type SymId = u32;

/// The symbol table: one entry per tag-file name.  Shared, not copied,
/// by clones: every per-bank [`crate::Reconstruction`] carries one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Symbols {
    names: Arc<[String]>,
    cswitch: Arc<[bool]>,
}

impl Symbols {
    /// Builds a symbol table from a tag file.
    pub fn from_tagfile(tf: &TagFile) -> Self {
        Symbols {
            names: tf.entries().iter().map(|e| e.name.clone()).collect(),
            cswitch: tf
                .entries()
                .iter()
                .map(|e| e.kind == TagKind::ContextSwitch)
                .collect(),
        }
    }

    /// Builds a symbol table from bare names (no context-switch
    /// markers).  Capture backends that never see hardware tags —
    /// clock sampling, event counters — normalize their output against
    /// the kernel's function table with this.
    pub fn from_names<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Self {
        let names: Arc<[String]> = names.into_iter().map(Into::into).collect();
        let cswitch = vec![false; names.len()].into();
        Symbols { names, cswitch }
    }

    /// The name of `sym`.
    pub fn name(&self, sym: SymId) -> &str {
        &self.names[sym as usize]
    }

    /// True if `sym` is a context-switch function (`!` modifier).
    pub fn is_cswitch(&self, sym: SymId) -> bool {
        self.cswitch[sym as usize]
    }

    /// Number of symbols.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Finds a symbol by name (report post-processing).
    pub fn lookup(&self, name: &str) -> Option<SymId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| i as SymId)
    }
}

/// What one event means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvKind {
    /// Function entry.
    Entry(SymId),
    /// Function exit.
    Exit(SymId),
    /// Inline point.
    Inline(SymId),
    /// Tag not present in the name file.
    Unknown(u16),
}

/// A decoded event: unwrapped absolute microsecond time plus meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Absolute microseconds from the first event of the session.
    pub t: u64,
    /// Meaning.
    pub kind: EvKind,
}

/// Incremental 24-bit time unwrap: feeds on raw counter values one at
/// a time, carrying the running absolute time across chunk boundaries.
///
/// "the analysis software only uses the timer value as an interval time,
/// not as an absolute time" — each consecutive delta is taken modulo
/// 2^24, so any gap under ~16.8 s is exact and information is lost (the
/// paper's stated limit) only beyond that.  One unwrapper carries the
/// running time across chunks, so chunked and batch decoding agree for
/// every split of the same stream.
#[derive(Debug, Clone, Default)]
pub struct TimeUnwrapper {
    abs: u64,
    prev: Option<u32>,
    held: bool,
}

impl TimeUnwrapper {
    /// A fresh unwrapper (next value becomes the session origin).
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds the next raw 24-bit counter value; returns the absolute
    /// microsecond time relative to the first value fed.
    pub fn push(&mut self, raw_time: u32) -> u64 {
        let t = raw_time & TIME_MASK;
        if let Some(p) = self.prev {
            let delta = t.wrapping_sub(p) & TIME_MASK;
            self.abs += u64::from(delta);
        }
        self.prev = Some(t);
        self.abs
    }

    /// Like [`push`], but classifies a delta at or beyond
    /// [`TIME_JUMP_THRESHOLD`] as corruption: absolute time holds
    /// instead of leaping ~8 s forward, and the jump is flagged.
    ///
    /// A lone corrupt value is bridged — the previous good value stays
    /// the reference, so the next clean timestamp lands normally.  Two
    /// consecutive jumps mean the reference itself was the corrupt
    /// value: the new value is adopted as the base (time resumes from
    /// it without the bogus gap).
    ///
    /// [`push`]: TimeUnwrapper::push
    pub fn push_checked(&mut self, raw_time: u32) -> (u64, bool) {
        let t = raw_time & TIME_MASK;
        let Some(p) = self.prev else {
            self.prev = Some(t);
            return (self.abs, false);
        };
        let delta = t.wrapping_sub(p) & TIME_MASK;
        if delta >= TIME_JUMP_THRESHOLD {
            if self.held {
                self.prev = Some(t);
                self.held = false;
            } else {
                self.held = true;
            }
            (self.abs, true)
        } else {
            self.abs += u64::from(delta);
            self.prev = Some(t);
            self.held = false;
            (self.abs, false)
        }
    }

    /// The carried absolute time (what the next accepted delta adds
    /// onto).  Columnar decode prefix-sums its delta column from here.
    pub(crate) fn abs(&self) -> u64 {
        self.abs
    }

    /// The carried raw 24-bit reference, if any value has been fed.
    pub(crate) fn prev_raw(&self) -> Option<u32> {
        self.prev
    }

    /// True while the unwrapper is holding a suspected-corrupt
    /// reference (one flagged jump, awaiting the verdict of the next
    /// value).  Columnar recovery routes such batches to the scalar
    /// machine.
    pub(crate) fn is_held(&self) -> bool {
        self.held
    }

    /// Advances past a whole batch the caller has already verified
    /// clean (every delta below [`TIME_JUMP_THRESHOLD`], prefix-summed
    /// to `abs`): equivalent to pushing each value, in O(1).
    pub(crate) fn advance_batch(&mut self, abs: u64, last_raw: u32) {
        debug_assert!(abs >= self.abs);
        self.abs = abs;
        self.prev = Some(last_raw & TIME_MASK);
        self.held = false;
    }
}

/// The tag → meaning table, precomputed from the name file once and
/// shared by every decoder (captures run to 10^5+ events; resolving
/// each against the file would be quadratic).
#[derive(Debug, Clone, Default)]
pub struct TagMap {
    map: std::collections::HashMap<u16, EvKind>,
}

impl TagMap {
    /// Builds the map from a tag file.
    pub fn from_tagfile(tf: &TagFile) -> Self {
        let mut map = std::collections::HashMap::new();
        for (i, e) in tf.entries().iter().enumerate() {
            let sym = i as SymId;
            match e.kind {
                TagKind::Inline => {
                    map.insert(e.tag, EvKind::Inline(sym));
                }
                TagKind::Function | TagKind::ContextSwitch => {
                    map.insert(e.tag, EvKind::Entry(sym));
                    map.insert(e.tag + 1, EvKind::Exit(sym));
                }
            }
        }
        TagMap { map }
    }

    /// The meaning of one hardware tag.
    pub fn classify(&self, tag: u16) -> EvKind {
        self.map.get(&tag).copied().unwrap_or(EvKind::Unknown(tag))
    }
}

/// Incremental *scalar* decoder for one capture session: classifies
/// tags and unwraps times record by record, so a session can be
/// decoded in arbitrary chunks (the streaming upload path) with output
/// identical to batch [`decode`].
///
/// The hot paths ride the columnar
/// [`ColumnarDecoder`](crate::columnar::ColumnarDecoder) instead; this
/// record-at-a-time decoder is kept as the reference implementation —
/// the oracle the `decode_props` property suite pins the columnar
/// decoder's bit-identity against.
#[derive(Debug, Clone)]
pub struct SessionDecoder<'a> {
    map: &'a TagMap,
    unwrapper: TimeUnwrapper,
    last: Option<(u16, u32)>,
    anoms: Anomalies,
}

impl<'a> SessionDecoder<'a> {
    /// Starts a fresh session against a prebuilt tag map.
    pub fn new(map: &'a TagMap) -> Self {
        SessionDecoder {
            map,
            unwrapper: TimeUnwrapper::new(),
            last: None,
            anoms: Anomalies::default(),
        }
    }

    /// Decodes the next record.
    pub fn push(&mut self, record: &RawRecord) -> Event {
        Event {
            t: self.unwrapper.push(record.time),
            kind: self.map.classify(record.tag),
        }
    }

    /// Decodes the next chunk of records, appending to `out`.
    pub fn extend(&mut self, records: &[RawRecord], out: &mut Vec<Event>) {
        out.reserve(records.len());
        out.extend(records.iter().map(|r| self.push(r)));
    }

    /// Decodes the next record in recovery mode: an adjacent duplicate
    /// (a stuck address counter stored the same cell twice) is dropped
    /// and counted, and timestamp corruption is clamped and counted via
    /// [`TimeUnwrapper::push_checked`].
    pub fn push_recovering(&mut self, record: &RawRecord) -> Option<Event> {
        if self.last == Some((record.tag, record.time)) {
            self.anoms.duplicates += 1;
            return None;
        }
        self.last = Some((record.tag, record.time));
        let (t, jumped) = self.unwrapper.push_checked(record.time);
        if jumped {
            self.anoms.time_jumps += 1;
        }
        Some(Event {
            t,
            kind: self.map.classify(record.tag),
        })
    }

    /// Decodes the next chunk of records in recovery mode, appending
    /// surviving events to `out`.
    pub fn extend_recovering(&mut self, records: &[RawRecord], out: &mut Vec<Event>) {
        out.reserve(records.len());
        out.extend(records.iter().filter_map(|r| self.push_recovering(r)));
    }

    /// Anomalies flagged by the recovery-mode decode so far.
    pub fn anomalies(&self) -> Anomalies {
        self.anoms
    }
}

/// Decodes a capture session against the name/tag file.
///
/// Returns the symbol table and the event stream; unknown tags are kept
/// (they count toward the header's tag total and are diagnosable) but
/// take no part in reconstruction.
///
/// Rides the columnar batch decoder
/// ([`crate::columnar::ColumnarDecoder`]); [`decode_scalar`] is the
/// record-at-a-time reference path, bit-identical by the `decode_props`
/// property suite.
pub fn decode(records: &[RawRecord], tf: &TagFile) -> (Symbols, Vec<Event>) {
    let syms = Symbols::from_tagfile(tf);
    let table = crate::columnar::DenseTagTable::from_tagfile(tf);
    let mut decoder = crate::columnar::ColumnarDecoder::new(&table);
    let mut events = Vec::new();
    decoder.extend(records, &mut events);
    (syms, events)
}

/// Decodes a capture session in recovery mode: adjacent duplicate
/// records are dropped and timestamp corruption clamped, with every
/// intervention counted in the returned [`Anomalies`].
///
/// Rides the columnar batch decoder (per-batch anomaly scan, scalar
/// recovery machine only on flagged batches);
/// [`decode_recovering_scalar`] is the reference path.
pub fn decode_recovering(records: &[RawRecord], tf: &TagFile) -> (Symbols, Vec<Event>, Anomalies) {
    let syms = Symbols::from_tagfile(tf);
    let table = crate::columnar::DenseTagTable::from_tagfile(tf);
    let mut decoder = crate::columnar::ColumnarDecoder::new(&table);
    let mut events = Vec::new();
    decoder.extend_recovering(records, &mut events);
    let anoms = decoder.anomalies();
    (syms, events, anoms)
}

/// Scalar reference decode: one [`SessionDecoder`] pass, record at a
/// time.  The oracle [`decode`] is property-pinned against.
pub fn decode_scalar(records: &[RawRecord], tf: &TagFile) -> (Symbols, Vec<Event>) {
    let syms = Symbols::from_tagfile(tf);
    let map = TagMap::from_tagfile(tf);
    let mut decoder = SessionDecoder::new(&map);
    let mut events = Vec::new();
    decoder.extend(records, &mut events);
    (syms, events)
}

/// Scalar reference decode in recovery mode.  The oracle
/// [`decode_recovering`] is property-pinned against.
pub fn decode_recovering_scalar(
    records: &[RawRecord],
    tf: &TagFile,
) -> (Symbols, Vec<Event>, Anomalies) {
    let syms = Symbols::from_tagfile(tf);
    let map = TagMap::from_tagfile(tf);
    let mut decoder = SessionDecoder::new(&map);
    let mut events = Vec::new();
    decoder.extend_recovering(records, &mut events);
    let anoms = decoder.anomalies();
    (syms, events, anoms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwprof_profiler::RawRecord;

    #[test]
    fn unwrap_handles_wraps() {
        let recs = [
            RawRecord {
                tag: 0,
                time: 0xFF_FFF0,
            },
            RawRecord {
                tag: 0,
                time: 0xFF_FFFF,
            },
            RawRecord {
                tag: 0,
                time: 0x00_0005,
            }, // wrapped
            RawRecord {
                tag: 0,
                time: 0x00_0007,
            },
        ];
        let mut u = TimeUnwrapper::new();
        let times: Vec<u64> = recs.iter().map(|r| u.push(r.time)).collect();
        assert_eq!(times, vec![0, 15, 21, 23]);
    }

    #[test]
    fn unwrap_first_event_is_zero() {
        let mut u = TimeUnwrapper::new();
        assert_eq!(u.push(123_456), 0);
    }

    #[test]
    fn checked_unwrap_bridges_one_corrupt_timestamp() {
        let mut u = TimeUnwrapper::new();
        assert_eq!(u.push_checked(100), (0, false));
        assert_eq!(u.push_checked(200), (100, false));
        // Bit 23 flipped: a ~8.4 s leap, clamped and flagged.
        assert_eq!(u.push_checked(300 | (1 << 23)), (100, true));
        // The next clean value lands against the last good reference.
        assert_eq!(u.push_checked(400), (300, false));
    }

    #[test]
    fn checked_unwrap_adopts_base_after_two_jumps() {
        let mut u = TimeUnwrapper::new();
        // The first (reference) value itself was corrupt: the next two
        // clean values both look like jumps against it.
        assert_eq!(u.push_checked(100 | (1 << 23)), (0, false));
        assert_eq!(u.push_checked(200), (0, true));
        assert_eq!(u.push_checked(300), (0, true)); // adopts 300 as base
        assert_eq!(u.push_checked(450), (150, false));
    }

    #[test]
    fn checked_unwrap_still_handles_real_wraps() {
        let mut u = TimeUnwrapper::new();
        assert_eq!(u.push_checked(0xFF_FFF0), (0, false));
        assert_eq!(u.push_checked(0x00_0005), (21, false)); // one wrap
    }

    #[test]
    fn recovering_decode_drops_adjacent_duplicates() {
        let tf = hwprof_tagfile::parse("f/100\n").unwrap();
        let recs = [
            RawRecord { tag: 100, time: 0 },
            RawRecord { tag: 100, time: 0 }, // stuck counter
            RawRecord { tag: 101, time: 9 },
        ];
        let (_, ev, anoms) = decode_recovering(&recs, &tf);
        assert_eq!(ev.len(), 2);
        assert_eq!(anoms.duplicates, 1);
        assert_eq!(anoms.time_jumps, 0);
        // Non-adjacent repeats are real recursion, never dropped.
        let recs2 = [
            RawRecord { tag: 100, time: 0 },
            RawRecord { tag: 101, time: 5 },
            RawRecord { tag: 100, time: 0 },
        ];
        let (_, ev2, anoms2) = decode_recovering(&recs2, &tf);
        assert_eq!(ev2.len(), 3);
        assert_eq!(anoms2.duplicates, 0);
    }

    #[test]
    fn decode_classifies_events() {
        let tf = hwprof_tagfile::parse("f/100\nswtch/200!\nMARK/300=\n").unwrap();
        let recs = [
            RawRecord { tag: 100, time: 0 },
            RawRecord { tag: 300, time: 5 },
            RawRecord { tag: 101, time: 9 },
            RawRecord { tag: 201, time: 12 },
            RawRecord { tag: 999, time: 20 },
        ];
        let (syms, ev) = decode(&recs, &tf);
        assert!(matches!(ev[0].kind, EvKind::Entry(s) if syms.name(s) == "f"));
        assert!(matches!(ev[1].kind, EvKind::Inline(s) if syms.name(s) == "MARK"));
        assert!(matches!(ev[2].kind, EvKind::Exit(s) if syms.name(s) == "f"));
        assert!(matches!(ev[3].kind, EvKind::Exit(s) if syms.is_cswitch(s)));
        assert!(matches!(ev[4].kind, EvKind::Unknown(999)));
        assert_eq!(ev[3].t, 12);
    }
}
