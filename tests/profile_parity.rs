//! Profile-view parity: the unified [`Profile`] renderers hit the
//! checked-in Figure-4 export goldens byte for byte, and every capture
//! path's profile renders identically across two identically seeded
//! runs.

use std::fs;
use std::path::PathBuf;

use hwprof::analysis::{decode_recovering, Analyzer, Reconstruction};
use hwprof::profiler::{parse_raw_lossy, serialize_raw, BoardConfig, RawRecord};
use hwprof::tagfile::{TagFile, TagKind};
use hwprof::{scenarios, Experiment, Profile, RecorderConfig, SupervisorPolicy};

const SEED: u64 = 0x1993_0617;

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {name} ({e})"))
}

/// The Figure-4 fixture from the trace-export suite, byte for byte.
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
    assert!(anoms.is_clean(), "fixture must decode cleanly");
    Analyzer::new(&syms)
        .recovering(true)
        .session(&events)
        .expect("ungated")
}

/// The Figure-4 export goldens, byte for byte.
#[test]
fn figure4_profile_matches_per_type_export_goldens() {
    let r = figure4();
    let profile = Profile::new(&r).name("figure 4");
    for (name, via_profile) in [
        ("figure4_trace.json", profile.chrome_trace()),
        ("figure4.speedscope.json", profile.speedscope()),
        ("figure4.folded", profile.folded()),
    ] {
        let want = golden(name);
        assert_eq!(via_profile, want, "Profile view drifted from {name}");
    }
}

/// All renderers a capture path must keep stable, as one bundle.
fn render_all(p: &Profile<'_>) -> [String; 5] {
    [
        p.chrome_trace(),
        p.speedscope(),
        p.folded(),
        p.summary_report(None),
        p.html(),
    ]
}

/// One path's parity contract: a second identically-seeded run
/// reproduces every byte.
fn assert_parity(label: &str, a: &Profile<'_>, b: &Profile<'_>) {
    let (ra, rb) = (render_all(a), render_all(b));
    for (i, fmt) in ["chrome_trace", "speedscope", "folded", "summary", "html"]
        .iter()
        .enumerate()
    {
        assert_eq!(
            ra[i], rb[i],
            "{label}: {fmt} differs between identical runs"
        );
    }
}

fn policy() -> SupervisorPolicy {
    SupervisorPolicy {
        seed: SEED,
        min_coverage_ppm: 0,
        drain_budget_us: 2_000,
        ..SupervisorPolicy::default()
    }
}

fn experiment() -> Experiment {
    Experiment::new()
        .profile_all()
        .board(BoardConfig {
            capacity: 1024,
            time_bits: 24,
        })
        .scenario(scenarios::network_receive(64 * 1024, true))
}

#[test]
fn backend_capture_renders_with_parity() {
    let a = experiment().try_capture().expect("backend capture");
    let b = experiment().try_capture().expect("backend capture");
    assert_parity("backend", &a.as_profile(), &b.as_profile());
}

#[test]
fn stream_capture_renders_with_parity() {
    let a = experiment().try_run_streaming(2).expect("stream capture");
    let b = experiment().try_run_streaming(2).expect("stream capture");
    assert_parity("stream", &a.as_profile(), &b.as_profile());
}

#[test]
fn supervised_capture_renders_with_parity() {
    let a = experiment().supervised(policy()).expect("supervised run");
    let b = experiment().supervised(policy()).expect("supervised run");
    assert_parity("supervised", &a.as_profile(), &b.as_profile());
}

#[test]
fn recorder_handle_renders_with_parity() {
    let cfg = RecorderConfig::builder()
        .window_us(5_000)
        .retain(512)
        .build()
        .expect("valid config");
    let a = experiment().record(policy(), cfg).expect("recorded run");
    let b = experiment().record(policy(), cfg).expect("recorded run");
    assert_parity("recorder", &a.as_profile(), &b.as_profile());
}
