//! The streaming analysis pipeline: capture banks drained off the
//! board while it stays armed are decoded and reconstructed on worker
//! threads, concurrently with the run that produces them.
//!
//! The paper carried one battery-backed RAM at a time to the UNIX
//! host; HMTT-style hybrid tracing shows the capture stream must be
//! drained and processed online to scale past the RAM.  The pipeline
//! here is exact, not approximate: each bank is one capture session,
//! decoded and reconstructed in isolation by a worker's
//! [`BankRecon`], and the per-bank results are merged in bank order
//! with the [`Reconstruction`] monoid, so the result is bit-identical
//! to a batch [`crate::Analyzer::record_sessions`] pass over the same
//! banks.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use hwprof_profiler::{BankSink, RawRecord, RecordError};
use hwprof_tagfile::TagFile;
use hwprof_telemetry::{Counter, Gauge, Registry, SpanLog, SpanName, SpanTrack};

use crate::anomaly::Anomalies;
use crate::columnar::DenseTagTable;
use crate::events::Symbols;
use crate::recon::{BankRecon, Reconstruction};

/// The pipeline was already closed: [`StreamAnalyzer::feed`] or
/// [`StreamAnalyzer::finish`] was called after `finish` consumed the
/// feed.  A library error, never a panic (the analyzer runs inside the
/// capture path where aborting loses the whole session).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineClosed;

impl std::fmt::Display for PipelineClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "streaming pipeline already closed by finish()")
    }
}

impl std::error::Error for PipelineClosed {}

/// An indexed bank in flight between the feed and a worker.
type QueuedBank = (usize, Vec<RawRecord>);

/// Live pipeline telemetry, shared by the feed and the workers.
///
/// Opt-in ([`StreamAnalyzer::set_telemetry`]) and touched once per
/// *bank*, never per event, so the hot decode loop is unaffected.
#[derive(Clone)]
struct StreamMetrics {
    /// `stream.banks`: banks claimed and analyzed by workers.
    banks: Counter,
    /// `stream.events`: events decoded across all banks.
    events: Counter,
    /// `stream.queue_depth`: banks queued and not yet claimed.
    queue_depth: Gauge,
    /// `stream.anomalies.<class>`: classified anomalies, summed per
    /// bank — field-for-field the same values the merged
    /// [`Reconstruction::anomalies`] accumulates.
    orphan_exits: Counter,
    unmatched_entries: Counter,
    unknown_tags: Counter,
    time_jumps: Counter,
    duplicates: Counter,
    truncations: Counter,
}

impl StreamMetrics {
    fn new(reg: &Registry) -> Self {
        StreamMetrics {
            banks: reg.counter("stream.banks"),
            events: reg.counter("stream.events"),
            queue_depth: reg.gauge("stream.queue_depth"),
            orphan_exits: reg.counter("stream.anomalies.orphan_exits"),
            unmatched_entries: reg.counter("stream.anomalies.unmatched_entries"),
            unknown_tags: reg.counter("stream.anomalies.unknown_tags"),
            time_jumps: reg.counter("stream.anomalies.time_jumps"),
            duplicates: reg.counter("stream.anomalies.duplicates"),
            truncations: reg.counter("stream.anomalies.truncations"),
        }
    }

    fn note_bank(&self, events: u64, a: &Anomalies) {
        self.banks.inc();
        self.events.add(events);
        self.orphan_exits.add(a.orphan_exits);
        self.unmatched_entries.add(a.unmatched_entries);
        self.unknown_tags.add(a.unknown_tags);
        self.time_jumps.add(a.time_jumps);
        self.duplicates.add(a.duplicates);
        self.truncations.add(a.truncations);
    }
}

/// The late-bound telemetry slot: `set_telemetry` fills it after the
/// workers are already parked on the queue, so they re-read it per
/// bank (one mutex lock per bank, nothing per event).
type MetricsSlot = Arc<Mutex<Option<StreamMetrics>>>;

/// The late-bound span journal slot, same shape as [`MetricsSlot`]:
/// workers re-read it once per bank and record one analyze span per
/// bank, never anything per event.
type JournalSlot = Arc<Mutex<Option<SpanLog>>>;

/// Incremental 5-byte record decode: accepts the upload byte stream in
/// arbitrary chunks, carrying partial records across chunk boundaries.
///
/// Feeding any chunking of a byte stream yields exactly
/// [`hwprof_profiler::parse_raw`] of the whole stream.
#[derive(Debug, Default)]
pub struct RecordStream {
    pending: Vec<u8>,
}

impl RecordStream {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds the next chunk of upload bytes, appending every completed
    /// 5-byte record to `out`.
    pub fn push(&mut self, bytes: &[u8], out: &mut Vec<RawRecord>) {
        self.pending.extend_from_slice(bytes);
        let complete = self.pending.len() - self.pending.len() % 5;
        for c in self.pending[..complete].chunks_exact(5) {
            out.push(RawRecord {
                tag: u16::from_le_bytes([c[0], c[1]]),
                time: u32::from_le_bytes([c[2], c[3], c[4], 0]),
            });
        }
        self.pending.drain(..complete);
    }

    /// Ends the stream: trailing bytes that never completed a record
    /// are a truncated upload.
    pub fn finish(self) -> Result<(), RecordError> {
        if self.pending.is_empty() {
            Ok(())
        } else {
            Err(RecordError::TruncatedStream {
                len: self.pending.len(),
            })
        }
    }

    /// Ends the stream tolerantly, returning how many trailing bytes
    /// never completed a record (0 for a clean upload, 1-4 for one cut
    /// mid-record — a truncation anomaly, not an error).
    pub fn finish_lossy(self) -> usize {
        self.pending.len()
    }
}

/// Banks the feed queues ahead of the workers before refusing more.
///
/// A bank is at most half the board RAM (64 K events × 8 bytes on the
/// wide board), so the default backlog bounds pipeline memory around
/// 64 MiB while riding out analysis hiccups far longer than a real
/// operator swapping RAMs could.
pub const DEFAULT_BACKLOG: usize = 256;

/// The board-facing end of the pipeline: assigns bank indices (bank
/// order is session order) and queues banks for the workers.
pub struct BankFeed {
    next: usize,
    tx: SyncSender<QueuedBank>,
    queued: Arc<AtomicUsize>,
    metrics: MetricsSlot,
}

impl std::fmt::Debug for BankFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BankFeed")
            .field("next", &self.next)
            .finish()
    }
}

impl BankSink for BankFeed {
    fn bank(&mut self, records: Vec<RawRecord>) -> bool {
        match self.tx.try_send((self.next, records)) {
            Ok(()) => {
                self.next += 1;
                self.queued.fetch_add(1, Ordering::Relaxed);
                if let Some(m) = &*self.metrics.lock().unwrap_or_else(|e| e.into_inner()) {
                    // A worker may have claimed (and decremented) this
                    // bank already, briefly wrapping the counter below
                    // zero; clamp the gauge rather than racing it.
                    m.queue_depth
                        .set((self.queued.load(Ordering::Relaxed) as isize).max(0) as u64);
                }
                true
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => false,
        }
    }
}

/// The analysis end of the pipeline: worker threads drain queued banks,
/// decode each as one capture session and reconstruct it; [`finish`]
/// merges the per-bank results in bank order.
///
/// [`finish`]: StreamAnalyzer::finish
pub struct StreamAnalyzer {
    tx: Option<SyncSender<QueuedBank>>,
    workers: Vec<JoinHandle<Vec<(usize, Reconstruction)>>>,
    syms: Symbols,
    queued: Arc<AtomicUsize>,
    metrics: MetricsSlot,
    journal: JournalSlot,
}

impl StreamAnalyzer {
    /// Spawns `workers` analysis threads against the build's tag file:
    /// clean decode plus strict reconstruction, bit-identical to a
    /// batch [`crate::Analyzer::record_sessions`] pass over the banks.
    pub fn new(tf: &TagFile, workers: usize) -> Self {
        Self::spawn(tf, workers, false)
    }

    /// Spawns `workers` analysis threads in recovery mode: banks decode
    /// tolerantly ([`crate::ColumnarDecoder::extend_recovering`]) and
    /// reconstruct with resynchronization (a recovering
    /// [`crate::SessionRecon`]), so corrupted banks still yield times
    /// plus a classified [`crate::Anomalies`] account — bit-identical to
    /// `Analyzer::for_tagfile(tf).recovering(true).record_sessions`.
    pub fn recovering(tf: &TagFile, workers: usize) -> Self {
        Self::spawn(tf, workers, true)
    }

    fn spawn(tf: &TagFile, workers: usize, recover: bool) -> Self {
        let table = Arc::new(DenseTagTable::from_tagfile(tf));
        let syms = Symbols::from_tagfile(tf);
        let (tx, rx) = std::sync::mpsc::sync_channel(DEFAULT_BACKLOG);
        let rx: Arc<Mutex<Receiver<QueuedBank>>> = Arc::new(Mutex::new(rx));
        let queued = Arc::new(AtomicUsize::new(0));
        let metrics: MetricsSlot = Arc::new(Mutex::new(None));
        let journal: JournalSlot = Arc::new(Mutex::new(None));
        let workers = (0..workers.max(1))
            .map(|w| {
                let rx = Arc::clone(&rx);
                let table = Arc::clone(&table);
                let syms = syms.clone();
                let queued = Arc::clone(&queued);
                let metrics = Arc::clone(&metrics);
                let journal = Arc::clone(&journal);
                std::thread::Builder::new()
                    .name(format!("hwprof-analyze-{w}"))
                    .spawn(move || {
                        let mut done = Vec::new();
                        // Worker-lifetime hot-path state persists across
                        // banks; only the per-bank result vectors grow.
                        let mut step = BankRecon::new(&table, &syms, recover);
                        loop {
                            // Hold the receiver lock only to claim the
                            // next bank, never while analyzing it.
                            let claimed = {
                                let rx = rx.lock().unwrap_or_else(|e| e.into_inner());
                                rx.recv()
                            };
                            let Ok((idx, bank)) = claimed else {
                                break;
                            };
                            queued.fetch_sub(1, Ordering::Relaxed);
                            let live = metrics.lock().unwrap_or_else(|e| e.into_inner()).clone();
                            if let Some(m) = &live {
                                m.queue_depth
                                    .set((queued.load(Ordering::Relaxed) as isize).max(0) as u64);
                            }
                            let mut r = Reconstruction::empty(syms.clone());
                            let events = step.bank_into(&bank, &mut r);
                            if let Some(m) = &live {
                                m.note_bank(events.len() as u64, &r.anomalies);
                            }
                            let log = journal.lock().unwrap_or_else(|e| e.into_inner()).clone();
                            if let Some(log) = &log {
                                // One analyze span per bank, spanning the
                                // bank's (session-relative) event times; the
                                // exporter rebases it onto the supervised
                                // timeline by session index.
                                let first = events.first().map_or(0, |e| e.t);
                                let last = events.last().map_or(first, |e| e.t);
                                let n = events.len() as u64;
                                log.begin(
                                    SpanTrack::Analyzer,
                                    SpanName::Analyze,
                                    first,
                                    idx as u64,
                                    n,
                                );
                                log.end(
                                    SpanTrack::Analyzer,
                                    SpanName::Analyze,
                                    last,
                                    idx as u64,
                                    n,
                                );
                            }
                            done.push((idx, r));
                        }
                        done
                    })
                    .expect("spawning an analysis worker thread")
            })
            .collect();
        StreamAnalyzer {
            tx: Some(tx),
            workers,
            syms,
            queued,
            metrics,
            journal,
        }
    }

    /// Registers the pipeline's telemetry (`stream.banks`,
    /// `stream.events`, `stream.queue_depth`, and per-class
    /// `stream.anomalies.*`) in `reg`.  Call before handing out a
    /// [`feed`](StreamAnalyzer::feed); banks analyzed earlier are not
    /// retroactively counted.  The workers read the slot once per bank,
    /// so disabled telemetry costs nothing on the decode path.
    pub fn set_telemetry(&self, reg: &Registry) {
        *self.metrics.lock().unwrap_or_else(|e| e.into_inner()) = Some(StreamMetrics::new(reg));
    }

    /// Attaches a span journal: each analyzed bank records one
    /// `analyze` begin/end pair on the analyzer track (`id` = bank
    /// index, `arg` = decoded event count, times = the bank's first and
    /// last event times).  Same late-binding contract as
    /// [`set_telemetry`](StreamAnalyzer::set_telemetry): one lock per
    /// bank, nothing on the decode path, banks analyzed earlier are not
    /// retroactively recorded.
    pub fn set_span_log(&self, log: &SpanLog) {
        *self.journal.lock().unwrap_or_else(|e| e.into_inner()) = Some(log.clone());
    }

    /// The feed to hand the board (its drain sink).  Bank order through
    /// one feed defines session order; use a single feed per capture.
    ///
    /// Errors (never panics) if the pipeline was already closed by
    /// [`finish`].
    ///
    /// [`finish`]: StreamAnalyzer::finish
    pub fn feed(&self) -> Result<BankFeed, PipelineClosed> {
        let tx = self.tx.as_ref().ok_or(PipelineClosed)?.clone();
        Ok(BankFeed {
            next: 0,
            tx,
            queued: Arc::clone(&self.queued),
            metrics: Arc::clone(&self.metrics),
        })
    }

    /// Closes the feed, waits for the workers to drain the queue, and
    /// merges the per-bank reconstructions in bank order.
    ///
    /// Errors (never panics) if called a second time: the workers are
    /// gone and the first call already returned the result.
    pub fn finish(&mut self) -> Result<Reconstruction, PipelineClosed> {
        if self.tx.is_none() {
            return Err(PipelineClosed);
        }
        drop(self.tx.take());
        let mut parts: Vec<(usize, Reconstruction)> = Vec::new();
        for handle in self.workers.drain(..) {
            match handle.join() {
                Ok(done) => parts.extend(done),
                Err(e) => std::panic::resume_unwind(e),
            }
        }
        // The queue is drained; settle the gauge (workers' last writes
        // race each other, so the final value is set here, not there).
        if let Some(m) = &*self.metrics.lock().unwrap_or_else(|e| e.into_inner()) {
            m.queue_depth.set(0);
        }
        parts.sort_by_key(|(i, _)| *i);
        let mut out = Reconstruction::empty(self.syms.clone());
        out.trace
            .reserve(parts.iter().map(|(_, r)| r.trace.len()).sum());
        for (_, r) in parts {
            out.merge(r);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tagfile() -> TagFile {
        hwprof_tagfile::parse("a/100\nb/102\n").unwrap()
    }

    /// Regression: using the pipeline after `finish()` must be a
    /// library error, never the old `expect("feed() before finish()")`
    /// panic.
    #[test]
    fn pipeline_use_after_finish_is_an_error_not_a_panic() {
        let mut analyzer = StreamAnalyzer::new(&tagfile(), 2);
        let mut feed = analyzer.feed().expect("open pipeline hands out feeds");
        assert!(feed.bank(vec![
            RawRecord { tag: 100, time: 0 },
            RawRecord { tag: 101, time: 9 },
        ]));
        drop(feed);
        let r = analyzer.finish().expect("first finish yields the result");
        assert_eq!(r.agg("a").unwrap().calls, 1);
        assert_eq!(analyzer.feed().unwrap_err(), PipelineClosed);
        assert_eq!(analyzer.finish().unwrap_err(), PipelineClosed);
        // Still closed on the third try; no state corruption.
        assert_eq!(analyzer.feed().unwrap_err(), PipelineClosed);
    }

    /// Recovery-mode streaming classifies anomalies per bank and merges
    /// them through the monoid.
    #[test]
    fn recovering_pipeline_counts_anomalies() {
        let mut analyzer = StreamAnalyzer::recovering(&tagfile(), 2);
        let mut feed = analyzer.feed().expect("open");
        // Bank 0: a clean pair plus a stuck-counter duplicate.
        assert!(feed.bank(vec![
            RawRecord { tag: 100, time: 0 },
            RawRecord { tag: 100, time: 0 },
            RawRecord { tag: 101, time: 9 },
        ]));
        // Bank 1: a spurious garbage tag.
        assert!(feed.bank(vec![
            RawRecord { tag: 100, time: 20 },
            RawRecord {
                tag: 0x9999,
                time: 25
            },
            RawRecord { tag: 101, time: 30 },
        ]));
        drop(feed);
        let r = analyzer.finish().expect("first finish");
        assert_eq!(r.agg("a").unwrap().calls, 2);
        assert_eq!(r.anomalies.duplicates, 1);
        assert_eq!(r.anomalies.unknown_tags, 1);
        assert_eq!(r.sessions, 2);
    }

    /// Pipeline telemetry agrees exactly with the merged result: one
    /// count per bank, `stream.events` == `Reconstruction::tags`, and
    /// every `stream.anomalies.*` class matches the merged
    /// [`crate::Anomalies`] field for field.
    #[test]
    fn stream_telemetry_matches_merged_result() {
        let reg = Registry::new();
        let mut analyzer = StreamAnalyzer::recovering(&tagfile(), 2);
        analyzer.set_telemetry(&reg);
        let mut feed = analyzer.feed().expect("open");
        assert!(feed.bank(vec![
            RawRecord { tag: 100, time: 0 },
            RawRecord { tag: 100, time: 0 },
            RawRecord { tag: 101, time: 9 },
        ]));
        assert!(feed.bank(vec![
            RawRecord { tag: 100, time: 20 },
            RawRecord {
                tag: 0x9999,
                time: 25
            },
            RawRecord { tag: 101, time: 30 },
        ]));
        drop(feed);
        let r = analyzer.finish().expect("first finish");
        let snap = reg.snapshot();
        assert_eq!(snap.value("stream.banks"), Some(2));
        assert_eq!(snap.value("stream.events"), Some(r.tags as u64));
        assert_eq!(snap.value("stream.queue_depth"), Some(0));
        for (name, ledger) in [
            ("stream.anomalies.orphan_exits", r.anomalies.orphan_exits),
            (
                "stream.anomalies.unmatched_entries",
                r.anomalies.unmatched_entries,
            ),
            ("stream.anomalies.unknown_tags", r.anomalies.unknown_tags),
            ("stream.anomalies.time_jumps", r.anomalies.time_jumps),
            ("stream.anomalies.duplicates", r.anomalies.duplicates),
            ("stream.anomalies.truncations", r.anomalies.truncations),
        ] {
            assert_eq!(snap.value(name), Some(ledger), "{name}");
        }
        assert_eq!(r.anomalies.duplicates, 1);
        assert_eq!(r.anomalies.unknown_tags, 1);
    }

    #[test]
    fn record_stream_finish_lossy_reports_trailing() {
        let mut rs = RecordStream::new();
        let mut out = Vec::new();
        rs.push(&[1, 2, 3, 4, 5, 6, 7], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(rs.finish_lossy(), 2);
        let rs2 = RecordStream::new();
        assert_eq!(rs2.finish_lossy(), 0);
    }
}
