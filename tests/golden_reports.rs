//! Golden snapshots of the human-readable outputs, including the
//! capture-integrity block that recovery mode appends.
//!
//! The inputs are fully synthetic and seeded, so every byte of the
//! output is deterministic.  Regenerate after an intentional format
//! change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p hwprof --test golden_reports
//! ```

use std::fs;
use std::path::PathBuf;

use hwprof::analysis::{
    decode_recovering,
    graph::to_dot,
    summary_report,
    trace::{trace_report, TraceStyle},
    Analyzer, Anomalies, Reconstruction,
};
use hwprof::profiler::{parse_raw_lossy, serialize_raw, FaultInjector, FaultSpec, RawRecord};
use hwprof::tagfile::{TagFile, TagKind};

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

/// A small deterministic capture: three functions with nesting, a
/// context switch, and an inline mark.
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

fn analyze(tf: &TagFile, bytes: &[u8]) -> Reconstruction {
    let (records, trailing) = parse_raw_lossy(bytes);
    let (syms, events, anoms) = decode_recovering(&records, tf);
    let mut r = Analyzer::new(&syms)
        .recovering(true)
        .session(&events)
        .expect("ungated");
    r.note(&anoms);
    if trailing > 0 {
        r.note(&Anomalies {
            truncations: 1,
            ..Anomalies::default()
        });
    }
    r
}

#[test]
fn clean_summary_report_matches_golden() {
    let (tf, records) = fixture();
    let r = analyze(&tf, &serialize_raw(&records));
    assert!(r.anomalies.is_clean(), "fixture must decode cleanly");
    check("clean_report.txt", &summary_report(&r, Some(10)));
}

#[test]
fn faulted_summary_report_matches_golden() {
    let (tf, records) = fixture();
    let inj = FaultInjector::new(FaultSpec::uniform(120_000), 42);
    let bytes = inj.corrupt_upload(serialize_raw(&inj.corrupt_records(&records)));
    let r = analyze(&tf, &bytes);
    assert!(
        !r.anomalies.is_clean(),
        "seed 42 at 12% must corrupt the fixture: {:?}",
        inj.counts()
    );
    check("faulted_report.txt", &summary_report(&r, Some(10)));
}

#[test]
fn faulted_trace_matches_golden() {
    let (tf, records) = fixture();
    let inj = FaultInjector::new(FaultSpec::uniform(120_000), 42);
    let bytes = inj.corrupt_upload(serialize_raw(&inj.corrupt_records(&records)));
    let r = analyze(&tf, &bytes);
    check(
        "faulted_trace.txt",
        &trace_report(&r, &TraceStyle::default()),
    );
}

#[test]
fn clean_trace_matches_golden() {
    let (tf, records) = fixture();
    let r = analyze(&tf, &serialize_raw(&records));
    check("clean_trace.txt", &trace_report(&r, &TraceStyle::default()));
}

#[test]
fn clean_dot_matches_golden() {
    let (tf, records) = fixture();
    let r = analyze(&tf, &serialize_raw(&records));
    check("clean.dot", &to_dot(&r));
}

#[test]
fn faulted_dot_matches_golden() {
    let (tf, records) = fixture();
    let inj = FaultInjector::new(FaultSpec::uniform(120_000), 42);
    let bytes = inj.corrupt_upload(serialize_raw(&inj.corrupt_records(&records)));
    let r = analyze(&tf, &bytes);
    assert!(
        r.anomalies.unmatched_entries > r.open_at_end,
        "the faulted fixture must force-close a frame"
    );
    check("faulted.dot", &to_dot(&r));
}
