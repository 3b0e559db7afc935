//! The traced run: the same pipeline composed from each layer's public
//! calls, with a span around every call.
//!
//! Spans (name, start, end, parent) stay in memory and are written out
//! when the run ends.  Layer numbers are medians over the traced
//! iterations.  Where a layer runs inside a call the benchmark cannot
//! open (the supervisor inside `supervised_with`, the analysis tail
//! inside `try_run_streaming`), its time is that call's span minus the
//! layers measured on their own: the simulation, the transport and the
//! analysis.  Those subtractions hold only when the unarmed and the
//! captured run simulate the same machine, so every traced iteration
//! checks that both end at the same simulated microsecond.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hwprof::analysis::recon::TraceItem;
use hwprof::analysis::{
    Analyzer, ColumnarDecoder, Event, FleetSentinel, FlightRecorder, Reconstruction, Sentinel,
};
use hwprof::instrument::ModuleSelect;
use hwprof::profiler::{
    BoardConfig, Coverage, FlakyTransport, MemoryTransport, RawRecord, SupervisedRun,
    SupervisedSession, SupervisorPolicy, TagMaskLevel, Transport, TransportError,
};
use hwprof::{build_tagfile, Experiment, Profile};
use hwprof_fleet::{Fleet, FleetAggregator, ShardFrame, WorkloadMix};

use crate::checks::{self, Check, DigestCheck};
use crate::stats::{median, Metric};
use crate::workloads::{self, Setup, Workload, STREAM_WORKERS};
use crate::Tally;

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
/// A layer that does not run on a workload reports 0 there.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("instrument.build_ms", "ms"),
    ("kernel386.sim_ms", "ms"),
    ("kernel386.sim_us", "us"),
    ("profiler.capture_ms", "ms"),
    ("profiler.transport_ms", "ms"),
    ("profiler.uploads", "count"),
    ("profiler.banks", "count"),
    ("profiler.gaps", "count"),
    ("profiler.retries", "count"),
    ("profiler.transport_failures", "count"),
    ("profiler.banks_lost", "count"),
    ("profiler.masked_events", "count"),
    ("profiler.coverage_ppm", "ppm"),
    ("analysis.decode_ms", "ms"),
    ("analysis.reconstruct_ms", "ms"),
    ("analysis.merge_ms", "ms"),
    ("analysis.stream_tail_ms", "ms"),
    ("analysis.trace_items", "count"),
    ("analysis.trace_mib", "MiB"),
    ("analysis.run_ms", "ms"),
    ("analysis.run_w2_ms", "ms"),
    ("analysis.run_w2_over_w1", "ratio"),
    ("analysis.events", "count"),
    ("analysis.anomalies", "count"),
    ("recorder.ingest_ms", "ms"),
    ("recorder.range_all_ms", "ms"),
    ("recorder.window_each_ms", "ms"),
    ("recorder.diff_ms", "ms"),
    ("recorder.windows_retained", "count"),
    ("recorder.windows_evicted", "count"),
    ("sentinel.scan_ms", "ms"),
    ("sentinel.windows", "count"),
    ("sentinel.alerts", "count"),
    ("render.summary_ms", "ms"),
    ("render.folded_ms", "ms"),
    ("render.chrome_ms", "ms"),
    ("render.describe_ms", "ms"),
    ("render.chrome_mib", "MiB"),
    ("fleet.run_ms", "ms"),
    ("fleet.aggregate_ms", "ms"),
    ("fleet.aggregate_w1_ms", "ms"),
    ("fleet.aggregate_w2_over_w1", "ratio"),
    ("fleet.merge_ms", "ms"),
    ("fleet.rollup_ms", "ms"),
    ("fleet.frames", "count"),
    ("fleet.frame_mib", "MiB"),
    ("host.available_parallelism", "count"),
    ("unattributed_ms", "ms"),
    ("attributed_share", "ratio"),
];

/// The layers whose self times make up one end-to-end iteration of
/// `w`; their sum against the untraced `iter_ms_p50` gives
/// `unattributed_ms` and `attributed_share`.
fn critical_path(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::NetProfile => &[
            "instrument.build_ms",
            "kernel386.sim_ms",
            "analysis.stream_tail_ms",
            "render.summary_ms",
            "render.folded_ms",
            "render.chrome_ms",
        ],
        Workload::FsMonitor => &[
            "instrument.build_ms",
            "kernel386.sim_ms",
            "profiler.capture_ms",
            "profiler.transport_ms",
            "analysis.run_ms",
            "recorder.ingest_ms",
            "sentinel.scan_ms",
            "recorder.range_all_ms",
            "recorder.window_each_ms",
            "recorder.diff_ms",
            "render.summary_ms",
            "render.describe_ms",
        ],
        // The fleet's machines, aggregator and merge run inside one
        // `Fleet::run` call; the fleet.* components are timed on their
        // own beside it.
        Workload::FleetPair => &["fleet.run_ms", "render.describe_ms"],
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// One recorded span, in µs since the tracer started.
struct Span {
    name: &'static str,
    iteration: u32,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
}

/// Spans kept in memory for the length of the run.
struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    iteration: Cell<u32>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            iteration: Cell::new(0),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span called `name`, child of the innermost
    /// open span; returns its result and the span's length in ms.
    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                iteration: self.iteration.get(),
                parent: self.open.borrow().last().copied(),
                start_us: self.now_us(),
                end_us: f64::NAN,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_us();
        let mut spans = self.spans.borrow_mut();
        spans[id].end_us = end;
        (out, (end - spans[id].start_us) / 1e3)
    }

    /// Writes every span as one JSON object per line.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"iteration\":{},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.iteration, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// One traced iteration's layer numbers.
#[derive(Default)]
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    fn count(&mut self, name: &'static str, v: u64) {
        self.set(name, v as f64);
    }
}

/// A [`Transport`] that sums the wall time spent inside `upload`.
struct TimedTransport {
    inner: Box<dyn Transport>,
    busy_ns: Arc<AtomicU64>,
    uploads: Arc<AtomicU64>,
}

impl Transport for TimedTransport {
    fn upload(&mut self, index: u64, records: &[RawRecord]) -> Result<(), TransportError> {
        let t0 = Instant::now();
        let out = self.inner.upload(index, records);
        // Plain statistics: nothing else is published through them.
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.uploads.fetch_add(1, Ordering::Relaxed);
        out
    }
}

/// The guard behind every subtraction of `kernel386.sim_ms`.
fn same_end(unarmed_us: u64, captured_us: u64) -> Check {
    if unarmed_us == captured_us {
        Ok(())
    } else {
        Err(format!(
            "unarmed run ended at {unarmed_us} us, captured run at {captured_us} us: \
             the simulation subtraction is invalid"
        ))
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Available cores, and the worker count of the two-worker figures.
fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Decode, reconstruct and bank-order merge over `banks`, each layer
/// on its own; returns the merged result.
fn analysis_layers(
    tr: &Tracer,
    setup: &Setup,
    banks: &[&[RawRecord]],
    l: &mut Layers,
) -> Result<Reconstruction, String> {
    let (events, decode_ms) = tr.span("analysis.decode", || {
        let mut decoder = ColumnarDecoder::new(&setup.table);
        banks
            .iter()
            .map(|bank| {
                decoder.reset();
                let mut events = Vec::new();
                decoder.extend(bank, &mut events);
                events
            })
            .collect::<Vec<Vec<Event>>>()
    });
    let analyzer = Analyzer::new(&setup.syms);
    let (folded, reconstruct_ms) =
        tr.span("analysis.reconstruct", || analyzer.sessions_iter(&events));
    let folded = folded.map_err(err)?;
    let (parts, _) = tr.span("analysis.reconstruct_banks", || {
        events
            .iter()
            .map(|e| analyzer.session(e))
            .collect::<Result<Vec<_>, _>>()
    });
    let parts = parts.map_err(err)?;
    drop(events);
    let (merged, merge_ms) = tr.span("analysis.merge", || {
        let mut out = Reconstruction::empty(setup.syms.clone());
        for p in parts {
            out.merge(p);
        }
        out
    });
    if merged.tags != folded.tags || merged.stats != folded.stats {
        return Err("bank-order merge differs from the sequential fold".into());
    }
    l.set("analysis.decode_ms", decode_ms);
    l.set("analysis.reconstruct_ms", reconstruct_ms);
    l.set("analysis.merge_ms", merge_ms);
    Ok(merged)
}

/// `Analyzer::run` over `run` with one worker and with two.
fn run_layers(tr: &Tracer, setup: &Setup, run: &SupervisedRun, l: &mut Layers) -> Check {
    let w2 = parallelism().min(2);
    let (one, run_ms) = tr.span("analysis.run", || {
        Analyzer::for_tagfile(&setup.tagfile).workers(1).run(run)
    });
    let (two, run_w2_ms) = tr.span("analysis.run_w2", || {
        Analyzer::for_tagfile(&setup.tagfile).workers(w2).run(run)
    });
    let (one, two) = (one.map_err(err)?, two.map_err(err)?);
    if one.tags != two.tags || one.stats != two.stats {
        return Err("Analyzer::run differs between one and two workers".into());
    }
    checks::tags_match("Analyzer::run", one.tags, run.events() as u64)?;
    l.set("analysis.run_ms", run_ms);
    l.set("analysis.run_w2_ms", run_w2_ms);
    l.set("analysis.run_w2_over_w1", run_w2_ms / run_ms);
    Ok(())
}

fn profile_counts(r: &Reconstruction, l: &mut Layers) {
    l.count("analysis.events", r.tags as u64);
    l.count("analysis.anomalies", r.anomalies.total());
    l.count("analysis.trace_items", r.trace.len() as u64);
    l.set(
        "analysis.trace_mib",
        (r.trace.len() * std::mem::size_of::<TraceItem>()) as f64 / MIB,
    );
}

/// The tag-file build and the unarmed simulation of the workload's
/// scenario; returns the build time, the simulation time and the
/// simulated end.
fn build_and_simulate(
    tr: &Tracer,
    setup: &Setup,
    l: &mut Layers,
) -> Result<(f64, f64, u64), String> {
    let (tf, build_ms) = tr.span("instrument.build", || build_tagfile(&ModuleSelect::All));
    tf.map_err(err)?;
    // An unarmed run compiles too; its build share is the build span's.
    let (unarmed, unarmed_ms) = tr.span("kernel386.sim", || setup.experiment().unarmed().try_run());
    let end_us = unarmed.map_err(err)?.kernel.now_us();
    let sim_ms = unarmed_ms - build_ms;
    l.set("instrument.build_ms", build_ms);
    l.set("kernel386.sim_ms", sim_ms);
    l.count("kernel386.sim_us", end_us);
    Ok((build_ms, sim_ms, end_us))
}

fn trace_net(tr: &Tracer, setup: &Setup, expect: Option<u64>, l: &mut Layers) -> Check {
    let (build_ms, sim_ms, end_us) = build_and_simulate(tr, setup, l)?;
    let (capture, stream_ms) = tr.span("capture.stream", || {
        setup.experiment().try_run_streaming(STREAM_WORKERS)
    });
    let capture = capture.map_err(err)?;
    same_end(end_us, capture.kernel.now_us())?;
    l.set("analysis.stream_tail_ms", stream_ms - build_ms - sim_ms);

    // The streamed banks themselves: the same run on a board large
    // enough to hold it all, cut where the double buffer swaps.
    let (oneshot, _) = tr.span("capture.oneshot", || {
        setup
            .experiment()
            .board(BoardConfig {
                capacity: 1 << 21,
                time_bits: 24,
            })
            .try_run()
    });
    let oneshot = oneshot.map_err(err)?;
    same_end(end_us, oneshot.kernel.now_us())?;
    if oneshot.overflowed {
        return Err("one-shot capture overflowed its board".into());
    }
    checks::tags_match(
        "streamed",
        capture.profile.tags,
        oneshot.records.len() as u64,
    )?;
    let banks: Vec<&[RawRecord]> = oneshot.records.chunks(workloads::bank_records()).collect();
    let merged = analysis_layers(tr, setup, &banks, l)?;
    if merged.stats != capture.profile.stats {
        return Err("bank-order merge differs from the streamed profile".into());
    }
    drop(merged);
    let run = SupervisedRun {
        sessions: banks
            .iter()
            .enumerate()
            .map(|(i, b)| SupervisedSession {
                index: i as u64,
                start_us: 0,
                end_us: 0,
                level: TagMaskLevel::All,
                records: b.to_vec(),
            })
            .collect(),
        gaps: Vec::new(),
        coverage: Coverage::default(),
        final_level: TagMaskLevel::All,
        hot_tags: Vec::new(),
    };
    drop(oneshot);
    run_layers(tr, setup, &run, l)?;
    drop(run);

    let p = capture.as_profile();
    let (summary, summary_ms) = tr.span("render.summary", || p.summary_report(None));
    let (folded, folded_ms) = tr.span("render.folded", || p.folded());
    let (chrome, chrome_ms) = tr.span("render.chrome", || p.chrome_trace());
    l.set("render.summary_ms", summary_ms);
    l.set("render.folded_ms", folded_ms);
    l.set("render.chrome_ms", chrome_ms);
    l.set("render.chrome_mib", chrome.len() as f64 / MIB);
    profile_counts(&capture.profile, l);
    same_digest(expect, checks::digest(&[&summary, &folded, &chrome]))
}

/// Replays a finished run into a fresh recorder in timeline order:
/// sessions and gaps by start, a session before a gap that starts with
/// it.
fn replay(rec: &FlightRecorder, run: &SupervisedRun) {
    let (mut s, mut g) = (run.sessions.iter().peekable(), run.gaps.iter().peekable());
    loop {
        match (s.peek(), g.peek()) {
            (Some(a), Some(b)) if a.start_us <= b.start_us => {
                rec.ingest_session(s.next().expect("peeked"))
            }
            (_, Some(_)) => rec.ingest_gap(g.next().expect("peeked")),
            (Some(_), None) => rec.ingest_session(s.next().expect("peeked")),
            (None, None) => break,
        }
    }
    rec.seal(run);
}

fn trace_watch(tr: &Tracer, setup: &Setup, expect: Option<u64>, l: &mut Layers) -> Check {
    let (build_ms, sim_ms, end_us) = build_and_simulate(tr, setup, l)?;
    let busy_ns = Arc::new(AtomicU64::new(0));
    let uploads = Arc::new(AtomicU64::new(0));
    let transport = TimedTransport {
        inner: Box::new(FlakyTransport::new(
            MemoryTransport::new(),
            setup.policy.transport_fail_ppm,
            setup.policy.seed,
        )),
        busy_ns: Arc::clone(&busy_ns),
        uploads: Arc::clone(&uploads),
    };
    let (capture, supervised_ms) = tr.span("profiler.supervised", || {
        setup
            .experiment()
            .supervised_with(setup.policy.clone(), Box::new(transport))
    });
    let capture = capture.map_err(err)?;
    same_end(end_us, capture.kernel.now_us())?;
    let run = &capture.run;
    let cov = run.coverage;
    checks::coverage_identity(&cov)?;
    let transport_ms = busy_ns.load(Ordering::Relaxed) as f64 / 1e6;
    run_layers(tr, setup, run, l)?;
    l.set(
        "profiler.capture_ms",
        supervised_ms - build_ms - sim_ms - transport_ms - l.0["analysis.run_ms"],
    );
    l.set("profiler.transport_ms", transport_ms);
    l.count("profiler.uploads", uploads.load(Ordering::Relaxed));
    l.count("profiler.banks", run.sessions.len() as u64);
    l.count("profiler.gaps", cov.gaps);
    l.count("profiler.retries", cov.retries);
    l.count("profiler.transport_failures", cov.transport_failures);
    l.count("profiler.banks_lost", cov.banks_lost);
    l.count("profiler.masked_events", cov.masked_events);
    l.count(
        "profiler.coverage_ppm",
        cov.covered_us * 1_000_000 / cov.timeline_us.max(1),
    );
    let banks: Vec<&[RawRecord]> = run.sessions.iter().map(|s| s.records.as_slice()).collect();
    let merged = analysis_layers(tr, setup, &banks, l)?;
    if merged.stats != capture.profile.stats {
        return Err("bank-order merge differs from the supervised profile".into());
    }
    drop(merged);

    let (rec, ingest_ms) = tr.span("recorder.ingest", || {
        let rec = FlightRecorder::new(&setup.tagfile, setup.recorder);
        replay(&rec, run);
        rec
    });
    let ledger = rec.ledger();
    checks::recorder_ledger(&ledger)?;
    l.set("recorder.ingest_ms", ingest_ms);
    l.count("recorder.windows_retained", ledger.windows);
    l.count("recorder.windows_evicted", ledger.evicted_windows);
    let (sentinel, scan_ms) = tr.span("sentinel.scan", || {
        let mut s = Sentinel::new(setup.sentinel);
        s.scan(&rec);
        s
    });
    l.set("sentinel.scan_ms", scan_ms);
    l.count("sentinel.windows", sentinel.windows_evaluated());
    l.count("sentinel.alerts", sentinel.journal().len() as u64);
    let (range_tags, range_ms) = tr.span("recorder.range_all", || workloads::range_all(&rec));
    let (window_tags, window_ms) = tr.span("recorder.window_each", || workloads::window_each(&rec));
    let (diff, diff_ms) = tr.span("recorder.diff", || workloads::diff_first_last(&rec));
    if range_tags != window_tags {
        return Err("range over all windows disagrees with the windows".into());
    }
    l.set("recorder.range_all_ms", range_ms);
    l.set("recorder.window_each_ms", window_ms);
    l.set("recorder.diff_ms", diff_ms);
    let (summary, summary_ms) = tr.span("render.summary", || {
        Profile::new(&capture.profile).run(run).summary_report(None)
    });
    let (describe, describe_ms) = tr.span("render.describe", || sentinel.describe());
    l.set("render.summary_ms", summary_ms);
    l.set("render.describe_ms", describe_ms);
    profile_counts(&capture.profile, l);
    same_digest(expect, checks::digest(&[&summary, &describe, &diff]))
}

fn trace_fleet(tr: &Tracer, setup: &Setup, expect: Option<u64>, l: &mut Layers) -> Check {
    let policy = &setup.fleet;
    let sentinel = policy
        .sentinel
        .clone()
        .expect("fleet_pair watches every machine");
    let (report, run_ms) = tr.span("fleet.run", || Fleet::new(policy.clone()).run());
    let report = report.map_err(err)?;
    let (describe, describe_ms) = tr.span("render.describe", || report.describe());
    l.set("fleet.run_ms", run_ms);
    l.set("render.describe_ms", describe_ms);
    checks::fleet_ledger(&report.coverage)?;

    // The machines' real delivered banks: each machine's capture run
    // again through the same public path the fleet drives.
    let (runs, _) = tr.span("fleet.machines", || {
        report
            .machines
            .iter()
            .map(|m| {
                let policy = SupervisorPolicy {
                    seed: m.seed,
                    min_coverage_ppm: 0,
                    ..policy.supervisor.clone()
                };
                Experiment::new()
                    .profile_all()
                    .board(setup.fleet.board)
                    .scenario(WorkloadMix::for_index(m.id).scenario())
                    .watch(policy, sentinel.recorder, sentinel.config)
                    .map(|w| (m, w.into_parts().1))
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let runs = runs.map_err(err)?;
    let mut frames = Vec::new();
    for (m, handle) in &runs {
        let local = m.local_profile.as_ref().map_or(0, |p| p.tags);
        checks::tags_match(
            &format!("machine {} again", m.id),
            handle.profile.tags,
            local as u64,
        )?;
        frames.extend(
            handle
                .run
                .sessions
                .iter()
                .map(|s| ShardFrame::pack(m.id, s.index, &s.records)),
        );
    }
    drop(runs);
    l.count("fleet.frames", frames.len() as u64);
    l.set(
        "fleet.frame_mib",
        frames.iter().map(|f| f.payload.len()).sum::<usize>() as f64 / MIB,
    );
    let aggregate = |name: &'static str, shards: usize| -> Result<f64, String> {
        let input = frames.clone();
        let (ingest, ms) = tr.span(name, || {
            let agg = FleetAggregator::spawn(&setup.tagfile, shards);
            for f in input {
                agg.feed(f);
            }
            agg.finish()
        });
        for m in &report.machines {
            let got = ingest.get(&m.id).map_or(0, |i| i.profile.tags);
            let want = m.profile.as_ref().map_or(0, |p| p.tags);
            checks::tags_match(&format!("{name} machine {}", m.id), got, want as u64)?;
        }
        Ok(ms)
    };
    let aggregate_ms = aggregate("fleet.aggregate", workloads::FLEET_SHARDS)?;
    let aggregate_w1_ms = aggregate("fleet.aggregate_w1", 1)?;
    l.set("fleet.aggregate_ms", aggregate_ms);
    l.set("fleet.aggregate_w1_ms", aggregate_w1_ms);
    l.set("fleet.aggregate_w2_over_w1", aggregate_ms / aggregate_w1_ms);

    let parts: Vec<Reconstruction> = report
        .machines
        .iter()
        .filter_map(|m| m.profile.clone())
        .collect();
    let (merged, merge_ms) = tr.span("fleet.merge", || {
        let mut out = Reconstruction::empty(setup.syms.clone());
        for p in parts {
            out.merge(p);
        }
        out
    });
    checks::tags_match("fleet merge", merged.tags, report.profile.tags as u64)?;
    l.set("fleet.merge_ms", merge_ms);
    let journals: Vec<_> = report.machines.iter().map(|m| (m.id, &m.alerts)).collect();
    let (alerts, rollup_ms) = tr.span("fleet.rollup", || {
        FleetSentinel::new(sentinel.quorum).roll_up(&journals)
    });
    if alerts != report.alerts {
        return Err("alert roll-up differs from the fleet report's".into());
    }
    l.set("fleet.rollup_ms", rollup_ms);
    profile_counts(&report.profile, l);
    same_digest(expect, checks::digest(&[&describe]))
}

/// The traced composition rendered the bytes the untraced loop did.
fn same_digest(expect: Option<u64>, got: u64) -> Check {
    match expect {
        Some(want) if want != got => Err(format!(
            "traced outputs digest {got:016x}, untraced {want:016x}"
        )),
        _ => Ok(()),
    }
}

/// Runs traced iterations of `setup`'s workload for `budget` (at least
/// one), prints every layer, writes the spans to `spans_path`, and
/// returns the per-layer metrics.  `iter_ms_p50` is the untraced
/// loop's median, against which the layers are attributed.
pub fn run(
    setup: &Setup,
    budget: Duration,
    iter_ms_p50: f64,
    tally: &mut Tally,
    digests: &DigestCheck,
    spans_path: &Path,
) -> Result<Vec<Metric>, String> {
    let tr = Tracer::new();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    while samples.is_empty() || start.elapsed() < budget {
        let mut l = Layers::default();
        let expect = digests.value();
        // One root span per traced iteration; every layer span is its
        // child.
        let (outcome, _) = tr.span(setup.workload.name(), || match setup.workload {
            Workload::NetProfile => trace_net(&tr, setup, expect, &mut l),
            Workload::FsMonitor => trace_watch(&tr, setup, expect, &mut l),
            Workload::FleetPair => trace_fleet(&tr, setup, expect, &mut l),
        });
        let failed = outcome.is_err();
        tally.record(outcome);
        tr.iteration.set(tr.iteration.get() + 1);
        if failed {
            if samples.is_empty() && start.elapsed() >= budget {
                break;
            }
            continue;
        }
        for (name, v) in l.0 {
            samples.entry(name).or_default().push(v);
        }
    }
    tr.write(spans_path)
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;

    let mut value: BTreeMap<&'static str, f64> =
        samples.iter().map(|(k, v)| (*k, median(v))).collect();
    value.insert("host.available_parallelism", parallelism() as f64);
    let path = critical_path(setup.workload);
    let attributed: f64 = path
        .iter()
        .map(|n| value.get(n).copied().unwrap_or(0.0))
        .sum();
    value.insert("unattributed_ms", iter_ms_p50 - attributed);
    value.insert("attributed_share", attributed / iter_ms_p50);

    let n = samples.values().map(Vec::len).max().unwrap_or(0);
    println!(
        "traced iterations {n}; spans written to {}",
        spans_path.display()
    );
    for (name, unit) in LAYER_METRICS {
        let mark = if path.contains(name) {
            "  [self time on the critical path]"
        } else {
            ""
        };
        match value.get(name) {
            Some(v) => println!("{name} {v:.6} {unit}{mark}"),
            None => println!("{name} - (does not run on {})", setup.workload.name()),
        }
    }
    for (two, one, ratio) in [
        (
            "analysis.run_w2_ms",
            "analysis.run_ms",
            "analysis.run_w2_over_w1",
        ),
        (
            "fleet.aggregate_ms",
            "fleet.aggregate_w1_ms",
            "fleet.aggregate_w2_over_w1",
        ),
    ] {
        if let (Some(a), Some(b), Some(r)) = (value.get(two), value.get(one), value.get(ratio)) {
            println!(
                "scaling: {two} {a:.3} ms vs {one} {b:.3} ms, ratio {r:.3} \
                 at available_parallelism {}",
                parallelism()
            );
        }
    }
    println!(
        "attribution: layers {attributed:.3} ms of untraced iter_ms_p50 {iter_ms_p50:.3} ms, \
         unattributed {:.3} ms",
        iter_ms_p50 - attributed
    );
    Ok(LAYER_METRICS
        .iter()
        .map(|(name, unit)| Metric::new(name, value.get(name).copied().unwrap_or(0.0), unit))
        .collect())
}
