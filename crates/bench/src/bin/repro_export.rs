//! E18 — standards-based trace export: a seeded supervised run (stock
//! overflow + mask-ladder pressure) is exported as Chrome Trace Event
//! JSON (Perfetto), speedscope JSON and folded flamegraph stacks, with
//! the capture pipeline's span journal on the same timeline.  Pins the
//! structural invariants CI gates on: valid JSON, balanced B/E pairs,
//! kernel spans + gap slices + mask markers + pipeline spans all
//! present, folded totals exactly matching the net accounting, the
//! journal observationally pure (bit-identical run with it disabled),
//! and the folded output byte-stable against a golden.
//!
//! Regenerate the golden after an intentional format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo run --release -p hwprof-bench --bin repro_export
//! ```

use std::fs;
use std::path::PathBuf;
use std::process::exit;

use hwprof::profiler::BoardConfig;
use hwprof::{
    scenarios, validate_json, Experiment, JsonValue, SpanLog, SupervisedCapture, SupervisorPolicy,
};
use hwprof_bench::{banner, row};

const SEED: u64 = 0x1993_0617;
const WORKLOAD_BYTES: u64 = 1024 * 1024;
/// Small enough that the 1 MiB receive overflows it many times and the
/// ladder engages at the default thresholds.
const BOARD_EVENTS: usize = 1024;

fn capture(journal: &SpanLog) -> SupervisedCapture {
    let policy = SupervisorPolicy {
        seed: SEED,
        min_coverage_ppm: 0,
        drain_budget_us: 2_000,
        ..SupervisorPolicy::default()
    };
    Experiment::new()
        .profile_all()
        .board(BoardConfig {
            capacity: BOARD_EVENTS,
            time_bits: 24,
        })
        .scenario(scenarios::network_receive(WORKLOAD_BYTES, true))
        .journal(journal)
        .supervised(policy)
        .unwrap_or_else(|e| {
            eprintln!("supervised export run failed: {e}");
            exit(1);
        })
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/export_supervised.folded")
}

/// Walks the Chrome `traceEvents`, checking every `B` nests against a
/// matching-name `E` per (pid, tid) and tallying the event shapes the
/// unified timeline must contain.
struct ChromeTally {
    balanced: bool,
    kernel_calls: usize,
    gap_instants: usize,
    mask_marks: usize,
    pipeline_slices: usize,
}

fn tally_chrome(events: &[JsonValue]) -> ChromeTally {
    let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<String>> =
        std::collections::BTreeMap::new();
    let mut t = ChromeTally {
        balanced: true,
        kernel_calls: 0,
        gap_instants: 0,
        mask_marks: 0,
        pipeline_slices: 0,
    };
    for ev in events {
        let ph = ev.get("ph").and_then(JsonValue::as_str).unwrap_or("");
        let pid = ev.get("pid").and_then(JsonValue::as_u64).unwrap_or(0);
        let tid = ev.get("tid").and_then(JsonValue::as_u64).unwrap_or(0);
        let name = ev.get("name").and_then(JsonValue::as_str).unwrap_or("");
        match ph {
            "B" => {
                if pid > 0 && pid < 1_000_000 {
                    t.kernel_calls += 1;
                }
                stacks.entry((pid, tid)).or_default().push(name.to_string());
            }
            "E" => match stacks.entry((pid, tid)).or_default().pop() {
                Some(open) if open == name => {}
                _ => t.balanced = false,
            },
            "i" => {
                if name.starts_with("gap (") {
                    t.gap_instants += 1;
                }
                if name.starts_with("mask level = ") {
                    t.mask_marks += 1;
                }
            }
            "X" if pid == 1_000_000 => t.pipeline_slices += 1,
            _ => {}
        }
    }
    if stacks.values().any(|s| !s.is_empty()) {
        t.balanced = false;
    }
    t
}

fn main() {
    banner(
        "E18",
        "trace export: Perfetto / speedscope / flamegraph + span journal",
    );
    let mut all_ok = true;
    let mut check = |metric: &str, paper: &str, measured: &str, ok: bool| {
        row(metric, paper, measured, ok);
        all_ok &= ok;
    };

    let log = SpanLog::new();
    let cap = capture(&log);
    let cov = *cap.coverage();
    println!(
        "supervised run: {} sessions, {} gaps, {} mask downgrades, {} journal spans\n",
        cap.run.sessions.len(),
        cov.gaps,
        cov.mask_downgrades,
        log.len(),
    );
    check(
        "workload exercises the supervisor",
        "overflows and ladder steps",
        &format!(
            "{} overflows, {} down",
            cov.overflow_gaps, cov.mask_downgrades
        ),
        cov.overflow_gaps >= 2 && cov.mask_downgrades >= 1,
    );

    let profile = cap.as_profile().name("supervised network receive");
    let chrome = profile.chrome_trace();
    let speedscope = profile.speedscope();
    let folded = profile.folded();

    // Chrome Trace Event JSON: loadable, balanced, and carrying every
    // layer of the unified timeline.
    let parsed = match validate_json(&chrome) {
        Ok(v) => v,
        Err(e) => {
            check("chrome trace parses as JSON", "valid", &e, false);
            exit(1);
        }
    };
    check("chrome trace parses as JSON", "valid", "valid", true);
    let events = parsed
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .map(<[JsonValue]>::to_vec)
        .unwrap_or_default();
    let tally = tally_chrome(&events);
    check(
        "every B has a matching E",
        "balanced",
        if tally.balanced {
            "balanced"
        } else {
            "mismatched"
        },
        tally.balanced,
    );
    check(
        "kernel call spans present",
        ">= 1",
        &tally.kernel_calls.to_string(),
        tally.kernel_calls >= 1,
    );
    check(
        "one gap instant per dark window",
        &cov.gaps.to_string(),
        &tally.gap_instants.to_string(),
        tally.gap_instants as u64 == cov.gaps,
    );
    check(
        "mask-change markers present",
        ">= 1",
        &tally.mask_marks.to_string(),
        tally.mask_marks >= 1,
    );
    check(
        "pipeline journal spans present",
        ">= 1",
        &tally.pipeline_slices.to_string(),
        tally.pipeline_slices >= 1,
    );

    // speedscope: valid JSON with the schema marker and a profile per
    // process.
    let ss_ok = match validate_json(&speedscope) {
        Ok(v) => {
            let schema = v
                .get("$schema")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .contains("speedscope");
            let profiles = v
                .get("profiles")
                .and_then(JsonValue::as_array)
                .map_or(0, <[JsonValue]>::len);
            schema && profiles >= 1
        }
        Err(_) => false,
    };
    check(
        "speedscope export is valid",
        "schema + profiles",
        if ss_ok { "valid" } else { "invalid" },
        ss_ok,
    );

    // Folded stacks: the weights sum to exactly the profile's total net
    // time — the flamegraph never invents or loses a microsecond.
    let folded_total: u64 = folded
        .lines()
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|w| w.parse::<u64>().ok())
        .sum();
    let net_total: u64 = cap.profile.stats.iter().map(|a| a.net).sum();
    check(
        "folded total == net accounting",
        &net_total.to_string(),
        &folded_total.to_string(),
        folded_total == net_total,
    );

    // The journal is observationally pure: the same seed without it
    // yields a bit-identical supervised run and folded profile.
    let plain = capture(&SpanLog::default());
    let identical = plain.run.sessions == cap.run.sessions
        && plain.run.gaps == cap.run.gaps
        && plain.run.coverage == cap.run.coverage
        && plain
            .as_profile()
            .name("supervised network receive")
            .folded()
            == folded;
    check(
        "journal disabled is bit-identical",
        "identical",
        if identical { "identical" } else { "diverged" },
        identical,
    );

    // Determinism: exporting twice yields the same bytes.
    check(
        "export is deterministic",
        "byte-stable",
        if profile.chrome_trace() == chrome {
            "byte-stable"
        } else {
            "unstable"
        },
        profile.chrome_trace() == chrome,
    );

    // Golden: the folded output is pinned byte-for-byte.
    let gp = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(gp.parent().expect("golden dir")).expect("mkdir golden");
        fs::write(&gp, &folded).expect("write golden");
        check("folded matches golden", "pinned", "updated", true);
    } else {
        match fs::read_to_string(&gp) {
            Ok(expected) => check(
                "folded matches golden",
                "byte-identical",
                if folded == expected { "match" } else { "drift" },
                folded == expected,
            ),
            Err(e) => check(
                "folded matches golden",
                "golden present",
                &format!("missing ({e}); run with UPDATE_GOLDEN=1"),
                false,
            ),
        }
    }

    // Artifacts for loading into the real tools.
    let dir = PathBuf::from("target/repro_export");
    if fs::create_dir_all(&dir).is_ok() {
        let _ = fs::write(dir.join("trace.json"), &chrome);
        let _ = fs::write(dir.join("profile.speedscope.json"), &speedscope);
        let _ = fs::write(dir.join("profile.folded"), &folded);
        println!(
            "\nartifacts: {} (open trace.json in ui.perfetto.dev, \
             profile.speedscope.json in speedscope.app)",
            dir.display()
        );
    }

    if !all_ok {
        exit(1);
    }
}
