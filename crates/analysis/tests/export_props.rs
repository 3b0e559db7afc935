//! Trace-export property suite: for any seeded supervised schedule the
//! Chrome trace must be valid JSON with every `B` closed by a
//! matching-name `E` at a non-earlier timestamp, the folded flamegraph
//! weights must sum to exactly the reconstruction's net-time
//! accounting, and on gap-free schedules the stitched export must be
//! bit-identical to a plain single-pass reconstruction of the same
//! record stream.
//!
//! Runs at 256 cases per property (`PROPTEST_CASES` overrides); the CI
//! fault job pins exactly that.

use proptest::prelude::*;

use hwprof_analysis::{
    validate_json, Analyzer, JsonValue, Profile, Reconstruction, SessionDecoder, Symbols, TagMap,
};
use hwprof_machine::EpromTap;
use hwprof_profiler::{
    BoardConfig, CaptureSupervisor, FlakyTransport, MemoryTransport, Profiler, RawRecord,
    SupervisedRun, SupervisorPolicy, TagMask,
};
use hwprof_tagfile::{TagFile, TagKind};
use hwprof_telemetry::SpanLog;

/// A tag file with `nfns` plain functions and one context-switch tag.
fn supervised_tagfile(nfns: u16) -> (TagFile, Vec<u16>, u16) {
    let mut tf = TagFile::new(500);
    let tags: Vec<u16> = (0..nfns)
        .map(|i| {
            tf.assign(&format!("f{i}"), TagKind::Function)
                .expect("fresh")
        })
        .collect();
    let swtch = tf.assign("swtch", TagKind::ContextSwitch).expect("fresh");
    (tf, tags, swtch)
}

/// Drives a [`CaptureSupervisor`] through a random balanced call stream
/// over a deliberately tiny board (overflows, re-arms and ladder moves
/// all happen), optionally journalling every pipeline hop.  `pace`
/// scales the ops' time steps (see [`pace`]).
#[allow(clippy::too_many_arguments)]
fn drive_supervised(
    nfns: u16,
    ops: &[(u8, u8)],
    pace: (u64, u64),
    policy: SupervisorPolicy,
    capacity: usize,
    fail_ppm: u32,
    seed: u64,
    journal: Option<&SpanLog>,
) -> (TagFile, SupervisedRun) {
    let (tf, tags, swtch) = supervised_tagfile(nfns);
    let board = Profiler::new(BoardConfig {
        capacity,
        time_bits: 24,
    });
    let mask = TagMask::new([swtch]);
    let transport = FlakyTransport::new(MemoryTransport::new(), fail_ppm, seed);
    let mut sup = CaptureSupervisor::new(board, mask, policy, Box::new(transport));
    if let Some(log) = journal {
        sup.set_span_log(log);
    }
    let mut stack: Vec<u16> = Vec::new();
    let mut t = 1_000u64;
    let mut tick = pace.0;
    for (i, &(sel, dt)) in ops.iter().enumerate() {
        if i == ops.len() / 2 {
            tick = pace.1;
        }
        t += (u64::from(dt) + 1) * tick;
        if sel % 3 == 0 && !stack.is_empty() {
            let tag = stack.pop().expect("checked");
            sup.on_read(tag + 1, t);
        } else if stack.len() < 10 {
            let tag = tags[sel as usize % tags.len()];
            stack.push(tag);
            sup.on_read(tag, t);
        }
        if i % 13 == 12 {
            t += 2 * tick;
            sup.on_read(swtch, t);
            t += 2 * tick;
            sup.on_read(swtch + 1, t);
        }
    }
    for tag in stack.into_iter().rev() {
        t += 3 * tick;
        sup.on_read(tag + 1, t);
    }
    (tf, sup.finish())
}

/// Microseconds per unit of op spacing over the first and the second
/// half of a stream, each `25 << k` for `k` in 0..10: at the fast end
/// a bank of any drawn capacity fills in well under the ladder's 200 ms
/// floor and many banks pile onto the shelf within one 250 ms breaker
/// cooldown; at the slow end a bank fills in well over the ladder's
/// 800 ms ceiling, so a stream that slows down steps the mask back up.
fn pace() -> impl Strategy<Value = (u64, u64)> {
    (0u32..10, 0u32..10).prop_map(|(a, b)| (25 << a, 25 << b))
}

/// The policy the proptest inputs shape: a swap's dark time and the
/// jitter seed.
fn policy(drain_budget_us: u64, seed: u64) -> SupervisorPolicy {
    SupervisorPolicy {
        drain_budget_us,
        min_coverage_ppm: 0,
        seed,
        ..SupervisorPolicy::default()
    }
}

/// Plain single-pass reconstruction of a raw record stream — the
/// unsupervised formulation the gap-free bit-identity property compares
/// the stitcher against.
fn reconstruct_plain(tf: &TagFile, records: &[RawRecord]) -> Reconstruction {
    let map = TagMap::from_tagfile(tf);
    let syms = Symbols::from_tagfile(tf);
    let mut decoder = SessionDecoder::new(&map);
    let mut events = Vec::new();
    decoder.extend(records, &mut events);
    let mut out = Reconstruction::empty(syms.clone());
    out.merge(Analyzer::new(&syms).session(&events).expect("ungated"));
    out
}

/// Walks a parsed Chrome trace, asserting every `B` is closed by an
/// `E` with the same name on the same (pid, tid) lane at a timestamp
/// no earlier than the open — i.e. every span has a non-negative
/// duration — and that nothing is left open at the end.
fn assert_balanced(events: &[JsonValue]) -> Result<(), TestCaseError> {
    let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<(String, u64)>> =
        std::collections::BTreeMap::new();
    for ev in events {
        let ph = ev.get("ph").and_then(JsonValue::as_str).unwrap_or("");
        let pid = ev.get("pid").and_then(JsonValue::as_u64).unwrap_or(0);
        let tid = ev.get("tid").and_then(JsonValue::as_u64).unwrap_or(0);
        let name = ev.get("name").and_then(JsonValue::as_str).unwrap_or("");
        let ts = ev.get("ts").and_then(JsonValue::as_u64).unwrap_or(0);
        match ph {
            "B" => stacks
                .entry((pid, tid))
                .or_default()
                .push((name.to_string(), ts)),
            "E" => {
                let top = stacks.entry((pid, tid)).or_default().pop();
                match top {
                    Some((open, opened_at)) => {
                        prop_assert!(open == name, "E closes {name}, open span is {open}");
                        prop_assert!(
                            ts >= opened_at,
                            "negative duration: {name} opened at {opened_at}, closed at {ts}"
                        );
                    }
                    None => prop_assert!(false, "E without a B: {name} on ({pid},{tid})"),
                }
            }
            _ => {}
        }
    }
    for ((pid, tid), stack) in stacks {
        prop_assert!(
            stack.is_empty(),
            "unclosed spans on ({pid},{tid}): {stack:?}"
        );
    }
    Ok(())
}

/// Sum of the per-line weights in a folded-stack export.
fn folded_total(folded: &str) -> u64 {
    folded
        .lines()
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|w| w.parse::<u64>().ok())
        .sum()
}

proptest! {
    #![cases(256)]

    /// For any seeded overflow/retry/ladder schedule — journal on, run
    /// context attached, every overlay and pipeline lane rendered —
    /// the Chrome trace parses as JSON and every `B` nests against a
    /// matching `E` with a non-negative duration; the speedscope
    /// export parses too.
    #[test]
    fn chrome_spans_are_balanced_and_nonnegative(
        nfns in 1u16..5,
        ops in prop::collection::vec((0u8..=255, 0u8..30), 8..200),
        capacity in 4usize..20,
        pace in pace(),
        drain_budget in 1u64..150,
        fail_ppm in 0u32..800_000,
        seed in 0u64..1_000_000,
    ) {
        let pol = policy(drain_budget * pace.0, seed);
        let log = SpanLog::new();
        let (tf, run) =
            drive_supervised(nfns, &ops, pace, pol, capacity, fail_ppm, seed, Some(&log));
        let r = Analyzer::for_tagfile(&tf).run(&run).expect("ungated");
        let profile = Profile::new(&r).run(&run).spans(&log);
        let chrome = profile.chrome_trace();
        let parsed = validate_json(&chrome);
        prop_assert!(parsed.is_ok(), "chrome trace is not valid JSON: {:?}", parsed.err());
        let parsed = parsed.expect("checked");
        let events = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap_or(&[]);
        prop_assert!(!events.is_empty(), "empty traceEvents");
        assert_balanced(events)?;
        prop_assert!(
            validate_json(&profile.speedscope()).is_ok(),
            "speedscope export is not valid JSON"
        );
    }

    /// The folded flamegraph never invents or loses a microsecond: for
    /// any supervised schedule its weights sum to exactly the
    /// reconstruction's total net time, with or without run context
    /// attached.
    #[test]
    fn folded_total_equals_net_accounting(
        nfns in 1u16..5,
        ops in prop::collection::vec((0u8..=255, 0u8..30), 8..200),
        capacity in 4usize..20,
        pace in pace(),
        drain_budget in 1u64..150,
        fail_ppm in 0u32..700_000,
        seed in 0u64..1_000_000,
    ) {
        let pol = policy(drain_budget * pace.0, seed);
        let (tf, run) = drive_supervised(nfns, &ops, pace, pol, capacity, fail_ppm, seed, None);
        let r = Analyzer::for_tagfile(&tf).run(&run).expect("ungated");
        let net: u64 = r.stats.iter().map(|a| a.net).sum();
        prop_assert_eq!(folded_total(&Profile::new(&r).folded()), net);
        prop_assert_eq!(folded_total(&Profile::new(&r).run(&run).folded()), net);
    }

    /// On gap-free schedules (a board that never fills, a run shorter
    /// than the 2 s session cap, so one op step is one µs) the supervised
    /// stitcher is invisible: exporting its reconstruction is
    /// bit-identical — all three formats — to exporting a plain
    /// single-pass reconstruction of the same record stream.
    #[test]
    fn gap_free_export_matches_plain_reconstruction(
        nfns in 1u16..5,
        ops in prop::collection::vec((0u8..=255, 0u8..30), 8..200),
        seed in 0u64..1_000_000,
    ) {
        let pol = policy(50, seed);
        let (tf, run) = drive_supervised(nfns, &ops, (1, 1), pol, 4096, 0, seed, None);
        prop_assert!(run.gaps.is_empty(), "oversized board still gapped");
        let stitched = Analyzer::for_tagfile(&tf).run(&run).expect("ungated");
        let records: Vec<RawRecord> = run
            .sessions
            .iter()
            .flat_map(|s| s.records.iter().copied())
            .collect();
        let plain = reconstruct_plain(&tf, &records);
        // Compare WITHOUT `.run()` attachment: the supervised timeline
        // re-basing is presentation, not data, and the plain side has
        // no run to attach.
        let a = Profile::new(&stitched).name("gap-free");
        let b = Profile::new(&plain).name("gap-free");
        prop_assert_eq!(a.chrome_trace(), b.chrome_trace());
        prop_assert_eq!(a.speedscope(), b.speedscope());
        prop_assert_eq!(a.folded(), b.folded());
    }
}
