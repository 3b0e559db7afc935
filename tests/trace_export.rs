//! End-to-end trace export: the Figure-4 fixture pinned byte-for-byte
//! in all three export formats, and a seeded supervised run rendering
//! as one unified Perfetto timeline — kernel spans, coverage overlay
//! and the pipeline span journal on the same clock — with the journal
//! observationally pure.
//!
//! Regenerate the goldens after an intentional format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p hwprof --test trace_export
//! ```

use std::fs;
use std::path::PathBuf;

use hwprof::analysis::{decode_recovering, Analyzer, Reconstruction};
use hwprof::profiler::{parse_raw_lossy, serialize_raw, BoardConfig, RawRecord};
use hwprof::tagfile::{TagFile, TagKind};
use hwprof::{
    scenarios, validate_json, Experiment, JsonValue, Profile, SpanLog, SupervisedCapture,
    SupervisorPolicy,
};

const SEED: u64 = 0x1993_0617;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name)
}

fn check(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        actual, expected,
        "output drifted from tests/golden/{name}; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}

/// The Figure-4 fixture from the golden-report suite: three functions
/// with nesting, a context switch, and an inline mark, repeated four
/// times.
fn fixture() -> (TagFile, Vec<RawRecord>) {
    let mut tf = TagFile::new(500);
    let read = tf.assign("vn_read", TagKind::Function).expect("fresh");
    let copy = tf.assign("bcopy", TagKind::Function).expect("fresh");
    let intr = tf.assign("clock_intr", TagKind::Function).expect("fresh");
    let swtch = tf.assign("swtch", TagKind::ContextSwitch).expect("fresh");
    let mark = tf.assign("MARK_IDLE", TagKind::Inline).expect("fresh");
    let mut records = Vec::new();
    let mut t = 100u64;
    for _ in 0..4 {
        records.push(RawRecord::latch(read, t));
        records.push(RawRecord::latch(copy, t + 10));
        records.push(RawRecord::latch(copy + 1, t + 40));
        records.push(RawRecord::latch(mark, t + 45));
        records.push(RawRecord::latch(read + 1, t + 60));
        records.push(RawRecord::latch(swtch, t + 70));
        records.push(RawRecord::latch(intr, t + 75));
        records.push(RawRecord::latch(intr + 1, t + 90));
        records.push(RawRecord::latch(swtch + 1, t + 95));
        t += 120;
    }
    (tf, records)
}

fn figure4() -> Reconstruction {
    let (tf, records) = fixture();
    let (parsed, trailing) = parse_raw_lossy(&serialize_raw(&records));
    assert_eq!(trailing, 0);
    let (syms, events, anoms) = decode_recovering(&parsed, &tf);
    let r = Analyzer::new(&syms)
        .recovering(true)
        .session(&events)
        .expect("ungated");
    assert!(anoms.is_clean(), "fixture must decode cleanly");
    r
}

#[test]
fn figure4_chrome_trace_matches_golden() {
    let r = figure4();
    let chrome = Profile::new(&r).name("figure 4").chrome_trace();
    validate_json(&chrome).expect("chrome export is valid JSON");
    check("figure4_trace.json", &chrome);
}

#[test]
fn figure4_speedscope_matches_golden() {
    let r = figure4();
    let ss = Profile::new(&r).name("figure 4").speedscope();
    validate_json(&ss).expect("speedscope export is valid JSON");
    check("figure4.speedscope.json", &ss);
}

#[test]
fn figure4_folded_matches_golden() {
    let r = figure4();
    let folded = Profile::new(&r).folded();
    let total: u64 = folded
        .lines()
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|w| w.parse::<u64>().ok())
        .sum();
    let net: u64 = r.stats.iter().map(|a| a.net).sum();
    assert_eq!(total, net, "folded weights must sum to the net accounting");
    check("figure4.folded", &folded);
}

/// A small seeded supervised run with the journal recording.
fn supervised(journal: Option<&SpanLog>) -> SupervisedCapture {
    let policy = SupervisorPolicy {
        seed: SEED,
        min_coverage_ppm: 0,
        drain_budget_us: 2_000,
        ..SupervisorPolicy::default()
    };
    let mut e = Experiment::new()
        .profile_all()
        .board(BoardConfig {
            capacity: 1024,
            time_bits: 24,
        })
        .scenario(scenarios::network_receive(256 * 1024, true));
    if let Some(log) = journal {
        e = e.journal(log);
    }
    e.supervised(policy).expect("supervised run")
}

#[test]
fn supervised_export_is_one_unified_timeline() {
    let log = SpanLog::new();
    let cap = supervised(Some(&log));
    assert!(!cap.run.sessions.is_empty());
    assert!(!log.is_empty(), "journal must have recorded pipeline spans");

    let chrome = cap.as_profile().name("supervised").chrome_trace();
    let parsed = validate_json(&chrome).expect("chrome export is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");

    // Every B nests against a matching-name E per (pid, tid); tally the
    // timeline layers while walking.
    let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<String>> =
        std::collections::BTreeMap::new();
    let mut kernel_spans = 0usize;
    let mut gap_instants = 0u64;
    let mut mask_marks = 0usize;
    let mut pipeline_slices = 0usize;
    for ev in events {
        let ph = ev.get("ph").and_then(JsonValue::as_str).unwrap_or("");
        let pid = ev.get("pid").and_then(JsonValue::as_u64).unwrap_or(0);
        let tid = ev.get("tid").and_then(JsonValue::as_u64).unwrap_or(0);
        let name = ev.get("name").and_then(JsonValue::as_str).unwrap_or("");
        match ph {
            "B" => {
                if pid > 0 && pid < 1_000_000 {
                    kernel_spans += 1;
                }
                stacks.entry((pid, tid)).or_default().push(name.to_string());
            }
            "E" => {
                let open = stacks.entry((pid, tid)).or_default().pop();
                assert_eq!(open.as_deref(), Some(name), "E must close the open B");
            }
            "i" => {
                if name.starts_with("gap (") {
                    gap_instants += 1;
                }
                if name.starts_with("mask level = ") {
                    mask_marks += 1;
                }
            }
            "X" if pid == 1_000_000 => pipeline_slices += 1,
            _ => {}
        }
    }
    assert!(stacks.values().all(Vec::is_empty), "unclosed B spans");
    assert!(kernel_spans >= 1, "kernel call spans must be present");
    assert_eq!(gap_instants, cap.coverage().gaps, "one instant per gap");
    assert!(mask_marks >= 1, "mask-level markers must be present");
    assert!(pipeline_slices >= 1, "journal lanes must be present");
}

/// The supervised run with its journal pins the rich Chrome shapes the
/// Figure-4 golden lacks: coverage gaps, the mask ladder, pipeline
/// lanes and many sessions.
#[test]
fn supervised_chrome_trace_matches_golden() {
    let log = SpanLog::new();
    let cap = supervised(Some(&log));
    let chrome = cap.as_profile().name("supervised").chrome_trace();
    validate_json(&chrome).expect("chrome export is valid JSON");
    check("export_supervised.chrome.json", &chrome);
}

#[test]
fn supervised_speedscope_matches_golden() {
    let log = SpanLog::new();
    let cap = supervised(Some(&log));
    let ss = cap.as_profile().name("supervised").speedscope();
    validate_json(&ss).expect("speedscope export is valid JSON");
    check("export_supervised.speedscope.json", &ss);
}

#[test]
fn journal_is_observationally_pure() {
    let log = SpanLog::new();
    let with = supervised(Some(&log));
    let without = supervised(None);
    assert_eq!(with.run.sessions, without.run.sessions);
    assert_eq!(with.run.gaps, without.run.gaps);
    assert_eq!(with.run.coverage, without.run.coverage);
    assert_eq!(
        with.as_profile().folded(),
        without.as_profile().folded(),
        "journal must not perturb the profile"
    );
}

#[test]
fn folded_total_matches_net_accounting_supervised() {
    let cap = supervised(None);
    let folded = cap.as_profile().folded();
    let total: u64 = folded
        .lines()
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|w| w.parse::<u64>().ok())
        .sum();
    let net: u64 = cap.profile.stats.iter().map(|a| a.net).sum();
    assert_eq!(total, net);
}
