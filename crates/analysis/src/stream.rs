//! The bank pool: capture banks — drained off the board while it stays
//! armed, or uploaded by fleet machines — are decoded, reconstructed
//! and folded on one pool of worker threads while the runs that
//! produce them are still going.  HMTT-style hybrid tracing shows the
//! capture stream must be processed online to scale past the RAM; the
//! pool does it exactly:
//!
//! * a [`BankJob`] is one bank of one *stream* (0 for a single capture,
//!   the machine id in a fleet); a worker's warm [`BankRecon`] decodes
//!   it in isolation, outside the stream's lock, and the stream's
//!   [`BankFold`] folds it in bank-index order, bit-identical to a batch
//!   [`crate::Analyzer::record_sessions`] pass over the stream's banks;
//! * each job runs on worker `lane % workers` ([`BankJob::lane`]): a
//!   fleet machine's banks stay on one worker, in order, so each folds
//!   straight into its profile, while a single capture's banks go
//!   round-robin; every copy of a bank reaches the same worker in
//!   arrival order, so the duplicate check before decode is exact;
//! * a job that panics marks its stream failed at that bank
//!   ([`StreamOutcome::panicked`]): the pool stops folding that stream
//!   and discards its profile, the worker carries on with a fresh bank
//!   step, and no other stream notices.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

use hwprof_profiler::{BankSink, RawRecord};
use hwprof_tagfile::TagFile;
use hwprof_telemetry::{Counter, Gauge, Registry, SpanLog, SpanName, SpanTrack};

use crate::anomaly::Anomalies;
use crate::columnar::DenseTagTable;
use crate::events::Symbols;
use crate::recon::{BankFold, BankRecon, Lent, Reconstruction};

/// Pipeline telemetry, taken at [`StreamAnalyzer::spawn`] and touched
/// once per *bank*, never per event; inert unless a live registry was
/// given.
struct StreamMetrics {
    /// `stream.banks`: banks claimed and analyzed by workers.
    banks: Counter,
    /// `stream.events`: events decoded across all banks.
    events: Counter,
    /// `stream.queue_depth`: banks queued and not yet claimed.
    queue_depth: Gauge,
    /// `stream.anomalies.<class>`, summed per bank in [`Anomalies`]
    /// field order — the same values the folded profile accumulates.
    anomalies: [Counter; 6],
}

impl StreamMetrics {
    fn new(reg: &Registry) -> Self {
        StreamMetrics {
            banks: reg.counter("stream.banks"),
            events: reg.counter("stream.events"),
            queue_depth: reg.gauge("stream.queue_depth"),
            anomalies: Anomalies::default()
                .classes()
                .map(|(_, class)| reg.counter(&format!("stream.anomalies.{class}"))),
        }
    }

    /// Counts one bank whose anomalies took the running total from
    /// `before` to `after`.
    fn note_bank(&self, events: u64, before: &Anomalies, after: &Anomalies) {
        self.banks.inc();
        self.events.add(events);
        let deltas = after.classes().into_iter().zip(before.classes());
        for (counter, ((a, _), (b, _))) in self.anomalies.iter().zip(deltas) {
            counter.add(a - b);
        }
    }
}

/// Banks queued ahead of the workers, in equal shares per worker,
/// before the board's feed is refused.
///
/// A bank is at most half the board RAM (64 K events × 8 bytes on the
/// wide board), so the default backlog bounds pipeline memory around
/// 64 MiB while riding out analysis hiccups far longer than a real
/// operator swapping RAMs could.
pub const DEFAULT_BACKLOG: usize = 256;

/// One bank of work for the pool.
pub trait BankJob: Send + 'static {
    /// The bank's stream: 0 for a single capture, the machine id in a
    /// fleet.
    fn stream(&self) -> u32;
    /// The bank's index within its stream; banks fold in index order.
    fn index(&self) -> u64;
    /// Jobs with equal lanes run on one worker, in submission order.
    /// A function of `(stream, index)`, so the duplicate check before
    /// decode is exact.  The default keeps a stream on one worker,
    /// where each bank folds straight into the stream's profile.
    fn lane(&self) -> u64 {
        u64::from(self.stream())
    }
    /// The bank's records, or why it was rejected.  Runs on the
    /// worker, inside the pool's panic boundary.
    fn records(self: Box<Self>) -> Result<Vec<RawRecord>, String>;
}

type Job = Box<dyn BankJob>;

/// A bank the board drained: stream 0, indexed by its feed.
struct BoardBank(u64, Vec<RawRecord>);

impl BankJob for BoardBank {
    fn stream(&self) -> u32 {
        0
    }

    fn index(&self) -> u64 {
        self.0
    }

    /// A single capture's banks go round-robin over the workers.
    fn lane(&self) -> u64 {
        self.0
    }

    fn records(self: Box<Self>) -> Result<Vec<RawRecord>, String> {
        Ok(self.1)
    }
}

/// Everything the pool folded for one stream.
#[derive(Debug)]
pub struct StreamOutcome {
    /// The stream's banks, folded in bank-index order; empty once the
    /// stream has [`panicked`](StreamOutcome::panicked).
    pub profile: Reconstruction,
    /// Banks decoded and folded in.
    pub banks: u64,
    /// Records across those banks.
    pub records: u64,
    /// Banks skipped as copies of an index already held.
    pub duplicates: u64,
    /// `(index, reason)` per bank whose records were rejected, in
    /// index order.
    pub rejections: Vec<(u64, String)>,
    /// The first bank whose analysis panicked.  The pool then stops
    /// folding the stream — its later banks are skipped — and discards
    /// its profile.
    pub panicked: Option<u64>,
}

/// The state the workers and feeds share.
struct Pool {
    table: DenseTagTable,
    syms: Symbols,
    recover: bool,
    /// Each stream's live fold and its outcome so far (whose `profile`
    /// the fold replaces at [`StreamAnalyzer::finish`]), under the
    /// stream's own lock: streams fold in parallel, and the map is
    /// write-locked only to open a stream.
    streams: RwLock<BTreeMap<u32, Mutex<(BankFold, StreamOutcome)>>>,
    metrics: StreamMetrics,
    journal: SpanLog,
}

impl Pool {
    /// Runs `f` on `stream`'s fold and outcome under the stream's lock,
    /// opening the stream on first use.
    fn stream<R>(&self, stream: u32, f: impl FnOnce(&mut BankFold, &mut StreamOutcome) -> R) -> R {
        let streams = self.streams.read().unwrap();
        if let Some(slot) = streams.get(&stream) {
            let (fold, out) = &mut *slot.lock().unwrap();
            return f(fold, out);
        }
        drop(streams);
        let open = || {
            let out = StreamOutcome {
                profile: Reconstruction::empty(self.syms.clone()),
                banks: 0,
                records: 0,
                duplicates: 0,
                rejections: Vec::new(),
                panicked: None,
            };
            Mutex::new((BankFold::new(&self.syms), out))
        };
        let mut streams = self.streams.write().unwrap();
        let slot = streams.entry(stream).or_insert_with(open);
        let (fold, out) = slot.get_mut().unwrap();
        f(fold, out)
    }

    /// One worker's life: claim jobs until every feed is dropped.
    fn work(&self, jobs: Receiver<Job>) {
        let mut step = BankRecon::new(&self.table, &self.syms, self.recover);
        for job in jobs {
            self.metrics.queue_depth.dec();
            let (stream, index) = (job.stream(), job.index());
            // Skip copies of a bank already held, and a failed stream.
            let skip = self.stream(stream, |fold, out| {
                let dup = fold.holds(index);
                out.duplicates += u64::from(dup);
                dup || out.panicked.is_some()
            });
            if skip {
                continue;
            }
            let analyzed = catch_unwind(AssertUnwindSafe(|| self.analyze(&mut step, job)));
            let panicked = analyzed.is_err();
            self.stream(stream, |fold, out| match analyzed {
                Ok(Ok((lent, records))) => {
                    fold.restore(lent);
                    out.banks += 1;
                    out.records += records;
                }
                Ok(Err(why)) => out.rejections.push((index, why)),
                // The bank's loan, perhaps the stream's profile itself,
                // died with the panic.
                Err(_) => out.panicked = out.panicked.or(Some(index)),
            });
            if panicked {
                step = BankRecon::new(&self.table, &self.syms, self.recover);
            }
        }
    }

    /// Decodes and reconstructs one bank outside the stream's lock,
    /// into what the stream's fold lends it: the profile itself when
    /// the bank is the next one, else a fresh part.
    fn analyze(&self, step: &mut BankRecon, job: Job) -> Result<(Lent, u64), String> {
        let (stream, index) = (job.stream(), job.index());
        let records = job.records()?;
        let mut lent = self.stream(stream, |fold, _| fold.lend(index));
        #[cfg(test)]
        assert!(!records.contains(&tests::TRIPWIRE), "bank {index} trips");
        lent.out.trace.reserve(records.len());
        let before = lent.out.anomalies;
        let events = step.bank_into(&records, &mut lent.out);
        let n = events.len() as u64;
        self.metrics.note_bank(n, &before, &lent.out.anomalies);
        // One analyze span per bank, spanning the bank's
        // (session-relative) event times; the exporter rebases it onto
        // the supervised timeline by session index.
        let first = events.first().map_or(0, |e| e.t);
        let last = events.last().map_or(first, |e| e.t);
        let log = &self.journal;
        log.begin(SpanTrack::Analyzer, SpanName::Analyze, first, index, n);
        log.end(SpanTrack::Analyzer, SpanName::Analyze, last, index, n);
        Ok((lent, records.len() as u64))
    }
}

/// A cloneable feed into the pool.  As the board's drain sink it
/// queues banks as stream 0, indexed in arrival order (use one feed per
/// capture), and refuses a bank whose worker's queue is full;
/// [`submit`](BankFeed::submit) queues any [`BankJob`], waiting for
/// room instead.  The workers run until every feed is dropped.
#[derive(Clone)]
pub struct BankFeed {
    next: u64,
    lanes: Arc<[SyncSender<Job>]>,
    pool: Arc<Pool>,
}

impl BankFeed {
    /// Queues `job` on its worker, waiting while that worker's queue
    /// is full.
    pub fn submit(&self, job: impl BankJob) {
        self.send(Box::new(job), true);
    }

    fn send(&self, job: Job, wait: bool) -> bool {
        let lane = &self.lanes[(job.lane() % self.lanes.len() as u64) as usize];
        let depth = &self.pool.metrics.queue_depth;
        depth.inc();
        // The workers outlive every feed, so only a full queue refuses.
        let sent = if wait {
            lane.send(job).is_ok()
        } else {
            lane.try_send(job).is_ok()
        };
        if !sent {
            depth.dec();
        }
        sent
    }
}

impl BankSink for BankFeed {
    fn bank(&mut self, records: Vec<RawRecord>) -> bool {
        let accepted = self.send(Box::new(BoardBank(self.next, records)), false);
        self.next += u64::from(accepted);
        accepted
    }
}

/// The bank pool: `workers` threads, each with a warm [`BankRecon`],
/// and one [`BankFold`] per stream, each under its own lock.  Banks arrive
/// through [`BankFeed`]s; [`finish`](StreamAnalyzer::finish) hands back
/// every stream's [`StreamOutcome`].
pub struct StreamAnalyzer {
    feed: BankFeed,
    workers: Vec<JoinHandle<()>>,
}

impl StreamAnalyzer {
    /// Spawns `workers` analysis threads against the build's tag file:
    /// clean decode plus strict reconstruction, bit-identical to a
    /// batch [`crate::Analyzer::record_sessions`] pass over the banks.
    pub fn new(tf: &TagFile, workers: usize) -> Self {
        Self::spawn(
            tf,
            workers,
            false,
            &Registry::default(),
            &SpanLog::default(),
        )
    }

    /// Spawns `workers` analysis threads in recovery mode: banks decode
    /// tolerantly ([`crate::ColumnarDecoder::extend_recovering`]) and
    /// reconstruct with resynchronization (a recovering
    /// [`crate::SessionRecon`]), so corrupted banks still yield times
    /// plus a classified [`crate::Anomalies`] account — bit-identical to
    /// `Analyzer::for_tagfile(tf).recovering(true).record_sessions`.
    pub fn recovering(tf: &TagFile, workers: usize) -> Self {
        Self::spawn(tf, workers, true, &Registry::default(), &SpanLog::default())
    }

    /// Spawns the pool of [`new`](StreamAnalyzer::new) (or, with
    /// `recover`, of [`recovering`](StreamAnalyzer::recovering)),
    /// observed from its first bank on: `reg` receives `stream.banks`,
    /// `stream.events`, `stream.queue_depth` and the per-class
    /// `stream.anomalies.*`; `log` one `analyze` begin/end pair per
    /// bank on the analyzer track (`id` = bank index, `arg` = decoded
    /// event count, times = the bank's first and last event times).
    /// Inert handles observe nothing.
    pub fn spawn(
        tf: &TagFile,
        workers: usize,
        recover: bool,
        reg: &Registry,
        log: &SpanLog,
    ) -> Self {
        let pool = Arc::new(Pool {
            table: DenseTagTable::from_tagfile(tf),
            syms: Symbols::from_tagfile(tf),
            recover,
            streams: RwLock::new(BTreeMap::new()),
            metrics: StreamMetrics::new(reg),
            journal: log.clone(),
        });
        let workers = workers.max(1);
        let (lanes, workers): (Vec<_>, Vec<_>) = (0..workers)
            .map(|w| {
                let (tx, rx) = std::sync::mpsc::sync_channel((DEFAULT_BACKLOG / workers).max(1));
                let pool = Arc::clone(&pool);
                let worker = std::thread::Builder::new()
                    .name(format!("hwprof-analyze-{w}"))
                    .spawn(move || pool.work(rx))
                    .expect("spawning an analysis worker thread");
                (tx, worker)
            })
            .unzip();
        let feed = BankFeed {
            next: 0,
            lanes: lanes.into(),
            pool,
        };
        StreamAnalyzer { feed, workers }
    }

    /// A feed: the board's drain sink, or a fleet's uplink.
    pub fn feed(&self) -> BankFeed {
        self.feed.clone()
    }

    /// Closes the pool, waits for the workers to drain their queues
    /// (every feed must be dropped first), and returns the outcome of
    /// every stream that received a bank.
    pub fn finish(self) -> BTreeMap<u32, StreamOutcome> {
        let pool = Arc::clone(&self.feed.pool);
        drop(self.feed);
        for worker in self.workers {
            // Each bank runs inside `catch_unwind`, so only a bug in the
            // pool's own bookkeeping can end a worker early.
            worker.join().expect("worker panicked outside a bank");
        }
        let streams = std::mem::take(&mut *pool.streams.write().unwrap());
        streams
            .into_iter()
            .map(|(stream, slot)| {
                let (fold, mut out) = slot.into_inner().unwrap();
                if out.panicked.is_none() {
                    out.profile = fold.finish();
                }
                out.rejections.sort_by_key(|&(index, _)| index);
                (stream, out)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn tagfile() -> TagFile {
        hwprof_tagfile::parse("a/100\nb/102\n").unwrap()
    }

    fn rec(tag: u16, time: u32) -> RawRecord {
        RawRecord { tag, time }
    }

    /// A record that makes the worker panic after the bank's loan is
    /// taken, as a bug in decode or reconstruction would.
    pub(super) const TRIPWIRE: RawRecord = RawRecord {
        tag: u16::MAX,
        time: u32::MAX,
    };

    /// A test bank of any stream; `records: None` panics when claimed.
    struct TestBank {
        stream: u32,
        index: u64,
        records: Option<Vec<RawRecord>>,
    }

    impl BankJob for TestBank {
        fn stream(&self) -> u32 {
            self.stream
        }

        fn index(&self) -> u64 {
            self.index
        }

        fn records(self: Box<Self>) -> Result<Vec<RawRecord>, String> {
            match self.records {
                Some(records) => Ok(records),
                None => panic!("stream {} bank {} is poisoned", self.stream, self.index),
            }
        }
    }

    /// Stream 1's bank 0: parks its worker until released.
    struct Park {
        parked: mpsc::Sender<()>,
        release: mpsc::Receiver<()>,
    }

    impl BankJob for Park {
        fn stream(&self) -> u32 {
            1
        }

        fn index(&self) -> u64 {
            0
        }

        fn records(self: Box<Self>) -> Result<Vec<RawRecord>, String> {
            self.parked.send(()).expect("the test waits for the park");
            self.release.recv().expect("the test releases the park");
            Ok(Vec::new())
        }
    }

    fn record_sessions(tf: &TagFile, banks: &[Vec<RawRecord>]) -> Reconstruction {
        crate::Analyzer::for_tagfile(tf)
            .record_sessions(banks)
            .expect("ungated")
    }

    /// With its one worker parked, the pool takes exactly
    /// `DEFAULT_BACKLOG` board banks and refuses the next; once the
    /// worker is released, stream 0 folds exactly the accepted banks.
    #[test]
    fn a_full_worker_queue_refuses_the_next_board_bank() {
        let tf = tagfile();
        let analyzer = StreamAnalyzer::new(&tf, 1);
        let (parked_tx, parked) = mpsc::channel();
        let (release, release_rx) = mpsc::channel();
        analyzer.feed().submit(Park {
            parked: parked_tx,
            release: release_rx,
        });
        parked.recv().expect("the worker claims the park");
        let bank = |i: u32| vec![rec(100, 10 * i), rec(101, 10 * i + 1 + i % 7)];
        let banks: Vec<_> = (0..DEFAULT_BACKLOG as u32).map(bank).collect();
        let mut feed = analyzer.feed();
        for b in &banks {
            assert!(feed.bank(b.clone()), "the queue has room");
        }
        assert!(!feed.bank(bank(999)), "the worker's queue is full");
        release.send(()).expect("the park waits");
        drop(feed);
        let streams = analyzer.finish();
        assert_eq!(streams[&0].banks, DEFAULT_BACKLOG as u64);
        assert_eq!(streams[&0].profile, record_sessions(&tf, &banks));
        assert_eq!(streams[&1].banks, 1, "the park folds as an empty bank");
    }

    /// A bank that panics among clean banks of two streams on one
    /// worker, either claiming its records or decoding them into the
    /// stream's lent profile: `finish` returns normally and names the
    /// panicked bank, its stream stops folding and is discarded, and
    /// the worker goes on to fold the other stream bit-identically.
    #[test]
    fn a_panicking_bank_stays_inside_its_stream() {
        let tf = tagfile();
        let banks_a: Vec<Vec<RawRecord>> = (0..5u32)
            .map(|i| vec![rec(100, 0), rec(102, 3), rec(103, 4 + i), rec(101, 9 + i)])
            .collect();
        let banks_b: Vec<Vec<RawRecord>> = (0..5u32)
            .map(|i| vec![rec(102, 0), rec(103, 2 * i + 1), rec(101, 20)])
            .collect();
        let trip = vec![rec(100, 0), TRIPWIRE, rec(101, 9)];
        for (workers, bad) in [
            (1, None),
            (3, None),
            (1, Some(trip.clone())),
            (3, Some(trip)),
        ] {
            let analyzer = StreamAnalyzer::new(&tf, workers);
            let pool = analyzer.feed();
            // Streams 1 and 4 share a worker at 1 and at 3 workers;
            // stream 1's bank 2, the next one it expects, panics.
            for i in 0..5 {
                let a = if i == 2 {
                    bad.clone()
                } else {
                    Some(banks_a[i].clone())
                };
                pool.submit(TestBank {
                    stream: 1,
                    index: i as u64,
                    records: a,
                });
                pool.submit(TestBank {
                    stream: 4,
                    index: i as u64,
                    records: Some(banks_b[i].clone()),
                });
            }
            drop(pool);
            let streams = analyzer.finish();
            let (a, b) = (&streams[&1], &streams[&4]);
            let case = format!("workers {workers}, tripwire {}", bad.is_some());
            assert_eq!(a.panicked, Some(2), "{case}");
            assert_eq!(
                (a.banks, a.records),
                (2, 8),
                "{case}: banks 3 and 4 skipped"
            );
            assert_eq!(a.profile, Reconstruction::empty(Symbols::from_tagfile(&tf)));
            assert_eq!(b.panicked, None);
            assert_eq!((b.banks, b.records), (5, 15), "{case}");
            assert_eq!(b.profile, record_sessions(&tf, &banks_b), "{case}");
        }
    }

    /// Recovery-mode streaming classifies anomalies per bank and merges
    /// them through the monoid.
    #[test]
    fn recovering_pipeline_counts_anomalies() {
        let analyzer = StreamAnalyzer::recovering(&tagfile(), 2);
        let mut feed = analyzer.feed();
        // Bank 0: a clean pair plus a stuck-counter duplicate.
        assert!(feed.bank(vec![rec(100, 0), rec(100, 0), rec(101, 9)]));
        // Bank 1: a spurious garbage tag.
        assert!(feed.bank(vec![rec(100, 20), rec(0x9999, 25), rec(101, 30)]));
        drop(feed);
        let r = analyzer.finish().remove(&0).unwrap().profile;
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
        let analyzer = StreamAnalyzer::spawn(&tagfile(), 2, true, &reg, &SpanLog::default());
        let mut feed = analyzer.feed();
        assert!(feed.bank(vec![rec(100, 0), rec(100, 0), rec(101, 9)]));
        assert!(feed.bank(vec![rec(100, 20), rec(0x9999, 25), rec(101, 30)]));
        drop(feed);
        let r = analyzer.finish().remove(&0).unwrap().profile;
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
}
