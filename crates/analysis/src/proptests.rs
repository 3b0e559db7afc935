//! Property tests on the reconstruction invariants.

use std::sync::Arc;

use proptest::prelude::*;

use crate::events::{decode, EvKind, Event, SessionDecoder, Symbols, TagMap};
use crate::recon::{Reconstruction, Replay, SessionRecon};
use crate::sentinel::{AlertEntry, AlertTransition, Detector};
use crate::stream::StreamAnalyzer;
use crate::Analyzer;
use hwprof_machine::EpromTap;
use hwprof_profiler::{
    BankSink, BoardConfig, CaptureSupervisor, MemoryTransport, Profiler, RawRecord, SupervisedRun,
    SupervisorPolicy, TagMask,
};
use hwprof_tagfile::{TagFile, TagKind};
use hwprof_telemetry::SpanLog;

fn analyze(syms: &Symbols, events: &[Event]) -> Reconstruction {
    Analyzer::new(syms).session(events).expect("ungated")
}

fn analyze_sessions(syms: &Symbols, sessions: &[Vec<Event>]) -> Reconstruction {
    Analyzer::new(syms).sessions(sessions).expect("ungated")
}

fn analyze_parallel(syms: &Symbols, sessions: &[Vec<Event>], workers: usize) -> Reconstruction {
    Analyzer::new(syms)
        .workers(workers)
        .sessions(sessions)
        .expect("ungated")
}

/// Generates a structurally valid single-thread capture: random nesting
/// of `nfns` functions with strictly increasing times.
fn balanced_stream(nfns: u16, ops: Vec<(u8, u8)>) -> (TagFile, Vec<RawRecord>) {
    let mut tf = TagFile::new(100);
    let tags: Vec<u16> = (0..nfns)
        .map(|i| {
            tf.assign(&format!("f{i}"), TagKind::Function)
                .expect("fresh")
        })
        .collect();
    let mut records = Vec::new();
    let mut stack: Vec<u16> = Vec::new();
    let mut t = 0u64;
    for (sel, dt) in ops {
        t += u64::from(dt) + 1;
        if sel % 3 == 0 && !stack.is_empty() {
            // Exit the innermost frame.
            let tag = stack.pop().expect("checked");
            records.push(RawRecord::latch(tag + 1, t));
        } else if stack.len() < 12 {
            let tag = tags[sel as usize % tags.len()];
            stack.push(tag);
            records.push(RawRecord::latch(tag, t));
        }
    }
    // Close everything.
    for tag in stack.into_iter().rev() {
        t += 3;
        records.push(RawRecord::latch(tag + 1, t));
    }
    (tf, records)
}

proptest! {
    /// For any balanced stream: every entry pairs, no unmatched exits,
    /// net times sum exactly to elapsed wall time (a closed single
    /// thread has no idle), and per-function net <= elapsed.
    #[test]
    fn balanced_streams_account_exactly(
        nfns in 1u16..8,
        ops in prop::collection::vec((0u8..=255, 0u8..40), 2..300),
    ) {
        let (tf, records) = balanced_stream(nfns, ops);
        prop_assume!(records.len() >= 2);
        let (syms, events) = decode(&records, &tf);
        let r = analyze(&syms, &events);
        prop_assert_eq!(r.anomalies.orphan_exits, 0);
        prop_assert_eq!(r.anomalies.unknown_tags, 0);
        prop_assert_eq!(r.open_at_end, 0);
        prop_assert_eq!(r.idle, 0);
        // Outermost frames' elapsed covers the whole run; net times of
        // all functions partition the covered time.
        let total_net: u64 = r.stats.iter().map(|a| a.net).sum();
        // Time before the first entry's frame and gaps between
        // top-level frames are uncovered; net can never exceed wall.
        prop_assert!(total_net <= r.total_elapsed);
        for a in &r.stats {
            prop_assert!(a.net <= a.elapsed);
            if a.calls > 0 {
                prop_assert!(a.max_net >= a.min_net);
                prop_assert!(a.net >= a.min_net);
            }
        }
        // Entry/exit counts in the raw stream match reconstructed calls.
        let mut entries = 0u64;
        for e in &events {
            if matches!(e.kind, EvKind::Entry(_)) {
                entries += 1;
            }
        }
        let calls: u64 = r.stats.iter().map(|a| a.calls).sum();
        prop_assert_eq!(calls, entries);
    }

    /// Adding a constant offset to every hardware timestamp (mod 2^24,
    /// as the free-running counter would) changes nothing: the analysis
    /// uses intervals only.
    #[test]
    fn time_origin_is_irrelevant(
        nfns in 1u16..6,
        ops in prop::collection::vec((0u8..=255, 0u8..30), 2..150),
        offset in 0u32..0x00FF_FFFF,
    ) {
        let (tf, records) = balanced_stream(nfns, ops);
        prop_assume!(records.len() >= 2);
        let shifted: Vec<RawRecord> = records
            .iter()
            .map(|r| RawRecord {
                tag: r.tag,
                time: (r.time + offset) & 0x00FF_FFFF,
            })
            .collect();
        let (syms, e1) = decode(&records, &tf);
        let (_, e2) = decode(&shifted, &tf);
        let r1 = analyze(&syms, &e1);
        let r2 = analyze(&syms, &e2);
        prop_assert_eq!(r1.total_elapsed, r2.total_elapsed);
        for (a, b) in r1.stats.iter().zip(&r2.stats) {
            prop_assert_eq!(a.calls, b.calls);
            prop_assert_eq!(a.net, b.net);
            prop_assert_eq!(a.elapsed, b.elapsed);
        }
    }

    /// Truncating a capture (the overflow LED stopping the board early)
    /// never breaks the analyzer: it reports open frames and all
    /// completed calls still account correctly.
    #[test]
    fn truncation_is_tolerated(
        nfns in 1u16..6,
        ops in prop::collection::vec((0u8..=255, 0u8..30), 4..200),
        cut_ppm in 0u32..1_000_000,
    ) {
        let (tf, records) = balanced_stream(nfns, ops);
        prop_assume!(records.len() >= 4);
        let keep = 2 + (records.len() - 2) * cut_ppm as usize / 1_000_000;
        let cut = &records[..keep];
        let (syms, events) = decode(cut, &tf);
        let r = analyze(&syms, &events);
        // No crash, and the books balance: every entry either completed
        // or is reported open.
        let entries = events
            .iter()
            .filter(|e| matches!(e.kind, EvKind::Entry(_)))
            .count() as u64;
        let calls: u64 = r.stats.iter().map(|a| a.calls).sum();
        prop_assert_eq!(calls + r.open_at_end, entries);
    }
}

/// Generates a completely unstructured capture: entries, exits, `swtch`
/// entries/exits, inline marks and unknown tags in any order, with
/// inter-event gaps big enough to cross 24-bit counter wraps.  The
/// analyzer must produce *some* deterministic answer for all of it, and
/// every incremental/parallel path must produce the same one.
fn arbitrary_stream(ops: &[(u8, u32)]) -> (TagFile, Vec<RawRecord>) {
    let mut tf = TagFile::new(100);
    let fns: Vec<u16> = (0..5)
        .map(|i| {
            tf.assign(&format!("f{i}"), TagKind::Function)
                .expect("fresh")
        })
        .collect();
    let swtch = tf.assign("swtch", TagKind::ContextSwitch).expect("fresh");
    let mark = tf.assign("MARK", TagKind::Inline).expect("fresh");
    let mut records = Vec::new();
    let mut t = 0u64;
    for &(sel, dt) in ops {
        t += u64::from(dt);
        let tag = match sel % 16 {
            0..=5 => fns[usize::from(sel) % fns.len()],
            6..=11 => fns[usize::from(sel) % fns.len()] + 1,
            12 => swtch,
            13 => swtch + 1,
            14 => mark,
            _ => 60_000 + u16::from(sel),
        };
        records.push(RawRecord::latch(tag, t));
    }
    (tf, records)
}

/// Splits `records` at arbitrary cut points into consecutive sessions
/// and decodes each with a fresh time origin, exactly as the streaming
/// pipeline treats drained banks.
fn cut_sessions(records: &[RawRecord], map: &TagMap, cuts: &[usize]) -> Vec<Vec<Event>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (records.len() + 1)).collect();
    bounds.sort_unstable();
    bounds.dedup();
    let mut sessions = Vec::new();
    let mut prev = 0;
    for p in bounds.into_iter().chain([records.len()]) {
        if p < prev {
            continue;
        }
        let mut d = SessionDecoder::new(map);
        let mut ev = Vec::new();
        d.extend(&records[prev..p], &mut ev);
        sessions.push(ev);
        prev = p;
    }
    sessions
}

proptest! {
    /// Decoding a session record-chunk by record-chunk (incremental
    /// 24-bit unwrap carried across chunks) equals batch [`decode`].
    #[test]
    fn chunked_session_decode_matches_batch(
        ops in prop::collection::vec((0u8..=255, 0u32..150_000), 1..200),
        cuts in prop::collection::vec(0usize..1000, 0..8),
    ) {
        let (tf, records) = arbitrary_stream(&ops);
        let map = TagMap::from_tagfile(&tf);
        let mut positions: Vec<usize> =
            cuts.iter().map(|c| c % (records.len() + 1)).collect();
        positions.sort_unstable();
        let mut d = SessionDecoder::new(&map);
        let mut chunked = Vec::new();
        let mut prev = 0;
        for p in positions {
            d.extend(&records[prev..p], &mut chunked);
            prev = p;
        }
        d.extend(&records[prev..], &mut chunked);
        let (_, batch) = decode(&records, &tf);
        prop_assert_eq!(chunked, batch);
    }

    /// The tentpole invariant: splitting any event stream into sessions
    /// and merging per-session reconstructions across any number of
    /// workers is *bit-identical* to the sequential batch analysis —
    /// through counter wraps, context switches, unknown tags and
    /// unbalanced entries/exits.
    #[test]
    fn parallel_analysis_is_bit_identical(
        ops in prop::collection::vec((0u8..=255, 0u32..150_000), 1..250),
        cuts in prop::collection::vec(0usize..1000, 0..6),
        workers in 1usize..8,
    ) {
        let (tf, records) = arbitrary_stream(&ops);
        let map = TagMap::from_tagfile(&tf);
        let syms = Symbols::from_tagfile(&tf);
        let sessions = cut_sessions(&records, &map, &cuts);
        let batch = analyze_sessions(&syms, &sessions);
        let parallel = analyze_parallel(&syms, &sessions, workers);
        prop_assert_eq!(parallel, batch);
    }

    /// End to end through the worker pool: banks pushed through a
    /// [`StreamAnalyzer`] feed reproduce the batch multi-session answer
    /// exactly, for any bank split and worker count.
    #[test]
    fn stream_pipeline_is_bit_identical(
        ops in prop::collection::vec((0u8..=255, 0u32..150_000), 1..150),
        cuts in prop::collection::vec(0usize..1000, 0..5),
        workers in 1usize..5,
    ) {
        let (tf, records) = arbitrary_stream(&ops);
        let map = TagMap::from_tagfile(&tf);
        let syms = Symbols::from_tagfile(&tf);
        let mut bounds: Vec<usize> =
            cuts.iter().map(|c| c % (records.len() + 1)).collect();
        bounds.sort_unstable();
        bounds.dedup();
        let analyzer = StreamAnalyzer::new(&tf, workers);
        let mut feed = analyzer.feed();
        let mut prev = 0;
        for p in bounds.into_iter().chain([records.len()]) {
            if p < prev {
                continue;
            }
            prop_assert!(feed.bank(records[prev..p].to_vec()));
            prev = p;
        }
        drop(feed);
        let streamed = analyzer.finish().remove(&0).unwrap().profile;
        let sessions = cut_sessions(&records, &map, &cuts);
        let batch = analyze_sessions(&syms, &sessions);
        prop_assert_eq!(streamed, batch);
    }
}

/// Merges `parts` as a balanced tree: each half folded on its own,
/// then the halves joined.
fn merge_tree(mut parts: Vec<Reconstruction>) -> Reconstruction {
    if parts.len() == 1 {
        return parts.pop().expect("one part");
    }
    let right = parts.split_off(parts.len() / 2);
    let mut left = merge_tree(parts);
    left.merge(merge_tree(right));
    left
}

/// Every byte-level rendering of `r`'s trace: Chrome, speedscope,
/// folded, Figure 4 and dot.
fn renders(r: &Reconstruction) -> [String; 5] {
    let p = crate::Profile::new(r);
    [
        p.chrome_trace(),
        p.speedscope(),
        p.folded(),
        crate::trace_report(r, &crate::TraceStyle::default()),
        crate::graph::to_dot(r),
    ]
}

/// `sessions` reconstructed through `recon` with their trace left
/// pending on one shared buffer, each session a range of it whose
/// event times move up by `shift` when the trace is built.
fn pending(
    syms: &Symbols,
    recon: &mut SessionRecon,
    sessions: &[Vec<Event>],
    shift: u64,
) -> Reconstruction {
    let mut out = Reconstruction::empty(syms.clone());
    let events = Arc::new(sessions.concat());
    let mut end = 0;
    let replays = sessions.iter().map(|s| {
        let range = end..end + s.len();
        end = range.end;
        let events = events.clone();
        Replay {
            events,
            range,
            shift,
        }
    });
    recon.sessions_pending(replays.collect(), &mut out);
    out
}

proptest! {
    /// The counting sink yields every field but the trace exactly as
    /// the tracing pass does, and counts its items; the pending segment
    /// it leaves is built only when read, and then holds the eager
    /// items — in strict and recovering mode, through orphan exits,
    /// frames open at the end, context switches, births and 24-bit
    /// wraps.  The count reads the unshifted events of a shared buffer,
    /// and the build shifts them: every field matches the eager pass
    /// over the shifted sessions.
    #[test]
    fn pending_traces_build_the_eager_items(
        ops in prop::collection::vec((0u8..=255, 0u32..150_000), 1..250),
        cuts in prop::collection::vec(0usize..1000, 0..8),
        recover in 0u8..2,
        shift in 0u64..1 << 40,
    ) {
        let (tf, records) = arbitrary_stream(&ops);
        let map = TagMap::from_tagfile(&tf);
        let syms = Symbols::from_tagfile(&tf);
        let sessions = cut_sessions(&records, &map, &cuts);
        let recover = recover == 1;
        let mut eager = Reconstruction::empty(syms.clone());
        let mut recon = SessionRecon::new(&syms, recover);
        for s in &sessions {
            let shifted: Vec<Event> = s
                .iter()
                .map(|e| Event {
                    t: e.t + shift,
                    kind: e.kind,
                })
                .collect();
            recon.session_into(&shifted, &mut eager);
        }
        let lazy = pending(&syms, &mut SessionRecon::new(&syms, recover), &sessions, shift);
        let summary = |r: &Reconstruction| Reconstruction {
            trace: Default::default(),
            ..r.clone()
        };
        prop_assert_eq!(summary(&lazy), summary(&eager));
        prop_assert_eq!(lazy.trace.len(), eager.trace.len());
        prop_assert!(!lazy.trace.is_empty());
        prop_assert_eq!(lazy.trace.pending_built(), vec![false]);
        let shared = lazy.clone();
        prop_assert!(lazy.trace.iter().eq(&eager.trace));
        prop_assert!(shared.trace.pending_built() == [true], "clones share the build");
        prop_assert_eq!(&lazy, &eager);
    }

    /// The trace rope: sessions grouped into parts, each part left with
    /// an open tail or a pending segment, then merged left-, right- or
    /// tree-associated, equal the one-pass reconstruction item for item
    /// and render the same bytes — through context switches, orphan
    /// exits, frames open at the end and 24-bit wraps.
    #[test]
    fn rope_merges_in_any_association_match_one_pass(
        ops in prop::collection::vec((0u8..=255, 0u32..150_000), 1..250),
        cuts in prop::collection::vec(0usize..1000, 0..8),
        groups in prop::collection::vec(0usize..1000, 0..4),
        lazy in 0u8..32,
    ) {
        let (tf, records) = arbitrary_stream(&ops);
        let map = TagMap::from_tagfile(&tf);
        let syms = Symbols::from_tagfile(&tf);
        let sessions = cut_sessions(&records, &map, &cuts);
        let one_pass = analyze_sessions(&syms, &sessions);
        let mut bounds: Vec<usize> =
            groups.iter().map(|g| g % (sessions.len() + 1)).collect();
        bounds.extend([0, sessions.len()]);
        bounds.sort_unstable();
        bounds.dedup();
        let parts: Vec<Reconstruction> = bounds
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let mut recon = SessionRecon::new(&syms, false);
                if lazy >> i & 1 == 1 {
                    return pending(&syms, &mut recon, &sessions[w[0]..w[1]], 0);
                }
                let mut part = Reconstruction::empty(syms.clone());
                for s in &sessions[w[0]..w[1]] {
                    recon.session_into(s, &mut part);
                }
                part
            })
            .collect();
        let left = parts.iter().cloned().fold(Reconstruction::empty(syms.clone()), |mut acc, p| {
            acc.merge(p);
            acc
        });
        let right = parts
            .iter()
            .cloned()
            .rev()
            .reduce(|right, mut p| {
                p.merge(right);
                p
            })
            .expect("at least one part");
        let tree = merge_tree(parts);
        let want = renders(&one_pass);
        for merged in [left, right, tree] {
            prop_assert!(merged.trace.iter().eq(&one_pass.trace));
            prop_assert_eq!(&merged, &one_pass);
            prop_assert_eq!(renders(&merged), want.clone());
        }
    }
}

/// Feeds [`arbitrary_stream`]'s `records`, `ops`' gaps apart, through
/// a supervisor over a `capacity`-record board, journalling every
/// pipeline hop: banks roll over, drains leave gaps and spans stay
/// open at the end.
fn supervise(
    tf: &TagFile,
    records: &[RawRecord],
    ops: &[(u8, u32)],
    capacity: usize,
) -> (SupervisedRun, SpanLog) {
    let board = Profiler::new(BoardConfig {
        capacity,
        time_bits: 24,
    });
    let swtch = tf.tag_of("swtch").expect("assigned");
    let policy = SupervisorPolicy {
        drain_budget_us: 10,
        ..SupervisorPolicy::default()
    };
    let mut sup = CaptureSupervisor::new(
        board,
        TagMask::new([swtch]),
        policy,
        Box::new(MemoryTransport::new()),
    );
    let log = SpanLog::new();
    sup.set_span_log(&log);
    let mut t = 1_000u64;
    for (record, &(_, dt)) in records.iter().zip(ops) {
        t += u64::from(dt) + 1;
        sup.on_read(record.tag, t);
    }
    (sup.finish(), log)
}

/// Alert journal entries whose subjects need JSON escaping.
fn alerts() -> Vec<AlertEntry> {
    [
        (Detector::RateShift, "f\"1", AlertTransition::Firing),
        (
            Detector::CoverageDrop,
            "coverage",
            AlertTransition::Resolved,
        ),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (detector, subject, transition))| AlertEntry {
        seq: i as u64 + 1,
        window: i as u64,
        at_us: 5_000 * (i as u64 + 1),
        detector,
        subject: subject.to_string(),
        transition,
        baseline: 10,
        observed: 25,
        delta: 15,
    })
    .collect()
}

proptest! {
    /// Kernel lanes rendered beside 1, 2 or 3 helper threads write the
    /// bytes of the serial loop, in Chrome and speedscope: for any
    /// multi-session stream, and for a supervised run of the same
    /// stream with gaps, alerts and a span journal attached.
    #[test]
    fn lane_renders_match_at_any_helper_count(
        ops in prop::collection::vec((0u8..=255, 0u32..150_000), 1..250),
        cuts in prop::collection::vec(0usize..1000, 0..8),
        capacity in 4usize..24,
    ) {
        let (tf, records) = arbitrary_stream(&ops);
        let map = TagMap::from_tagfile(&tf);
        let syms = Symbols::from_tagfile(&tf);
        let plain = analyze_sessions(&syms, &cut_sessions(&records, &map, &cuts));
        let (run, log) = supervise(&tf, &records, &ops, capacity);
        let supervised = Analyzer::for_tagfile(&tf).run(&run).expect("ungated");
        let alerts = alerts();
        let profiles = [
            crate::Profile::new(&plain),
            crate::Profile::new(&supervised).run(&run).spans(&log).alerts(&alerts),
        ];
        for p in profiles {
            let (chrome, speedscope) = (p.chrome_trace_with(0), p.speedscope_with(0));
            for helpers in 1..=3 {
                prop_assert_eq!(&p.chrome_trace_with(helpers), &chrome);
                prop_assert_eq!(&p.speedscope_with(helpers), &speedscope);
            }
        }
    }
}
