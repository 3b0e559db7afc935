//! Cross-crate integration: the complete workflow from compiler pass to
//! analysis report, exercising every crate together.

use hwprof::analysis::{summary_report, trace_report, TraceStyle};
use hwprof::instrument::{round_page, IsaMap};
use hwprof::kernel386::funcs::KFn;
use hwprof::kernel386::kernel::KernelConfig;
use hwprof::profiler::{parse_raw, ram_chip_view, reassemble, BoardConfig, RamChip};
use hwprof::{scenarios, Experiment};

#[test]
fn full_workflow_selective_profiling() {
    // Micro-profile only the filesystem modules during disk writes.
    let capture = Experiment::new()
        .profile_modules(&["fs"])
        .scenario(scenarios::fs_writer(24))
        .try_run()
        .expect("experiment runs");
    let r = capture.analyze();
    // fs functions captured...
    assert!(r.agg("bwrite").is_some() || r.agg("bawrite").is_some());
    assert!(r.agg("wdintr").unwrap_or_default().calls >= 24);
    // ...and unselected modules are absent from the tag file entirely.
    assert!(capture.tagfile.tag_of("ipintr").is_none());
    assert!(capture.tagfile.tag_of("vm_fault").is_none());
    // But swtch is always tagged (the analyzer needs it).
    assert!(capture.tagfile.tag_of("swtch").is_some());
    // And the capture decodes with zero unknown tags.
    assert_eq!(r.anomalies.unknown_tags, 0);
}

#[test]
fn profile_base_depends_on_instrumentation_size() {
    let small = Experiment::new()
        .profile_modules(&["fs"])
        .scenario(scenarios::clock_idle(2))
        .try_run()
        .expect("experiment runs");
    let big = Experiment::new()
        .profile_all()
        .scenario(scenarios::clock_idle(2))
        .try_run()
        .expect("experiment runs");
    // More triggers -> bigger kernel -> the ISA window slides up (or at
    // least never down), page-granular.
    assert!(big.link.kernel_size > small.link.kernel_size);
    assert!(big.link.profile_base >= small.link.profile_base);
    assert_eq!(
        round_page(big.link.profile_base),
        big.link.profile_base & !0xfff
    );
    // The Figure 2 arithmetic is consistent.
    let map = IsaMap::for_kernel_size(big.link.kernel_size);
    assert_eq!(
        map.phys_to_virt(0x000C_C000).unwrap(),
        big.link.profile_base
    );
}

#[test]
fn raw_upload_and_zif_readback_agree() {
    let capture = Experiment::new()
        .profile_modules(&["kern", "locore"])
        .scenario(scenarios::clock_idle(5))
        .try_run()
        .expect("experiment runs");
    assert!(!capture.records.is_empty());
    // The SmartSocket path: raw 5-byte records parse back identically.
    let raw: Vec<u8> = capture
        .records
        .iter()
        .flat_map(|r| {
            let mut b = r.tag.to_le_bytes().to_vec();
            b.push((r.time & 0xff) as u8);
            b.push(((r.time >> 8) & 0xff) as u8);
            b.push(((r.time >> 16) & 0xff) as u8);
            b
        })
        .collect();
    assert_eq!(parse_raw(&raw).unwrap(), capture.records);
    // The future-work ZIF path: five chip images reassemble exactly.
    let images: [Vec<u8>; 5] = [
        ram_chip_view(&capture.records, RamChip::TagLow),
        ram_chip_view(&capture.records, RamChip::TagHigh),
        ram_chip_view(&capture.records, RamChip::TimeLow),
        ram_chip_view(&capture.records, RamChip::TimeMid),
        ram_chip_view(&capture.records, RamChip::TimeHigh),
    ];
    assert_eq!(reassemble(&images), capture.records);
}

#[test]
fn trigger_overhead_is_about_one_percent() {
    // E9: the same deterministic workload (fork/exec, no wire timing
    // feedback), instrumented vs production kernel.
    let run = |instrument: bool| {
        let e = if instrument {
            Experiment::new().profile_all()
        } else {
            Experiment::new().profile_none().unarmed()
        };
        let capture = e
            .scenario(scenarios::forkexec_loop(3))
            .try_run()
            .expect("experiment runs");
        let k = &capture.kernel;
        (
            k.machine.now - k.sched.idle_cycles,
            k.stats.page_faults,
            capture.records.len(),
        )
    };
    let (plain_busy, plain_faults, plain_events) = run(false);
    let (prof_busy, prof_faults, prof_events) = run(true);
    assert_eq!(plain_faults, prof_faults, "identical work done");
    assert_eq!(plain_events, 0);
    assert!(prof_events > 1000);
    let overhead = prof_busy as f64 / plain_busy as f64 - 1.0;
    // "around 1 to 1.2% extra CPU cycles" — generous band 0.1%..4%.
    assert!(
        (0.001..0.04).contains(&overhead),
        "trigger overhead {:.3}%",
        overhead * 100.0
    );
}

#[test]
fn overflow_led_stops_a_stock_board() {
    // E10: a stock 16384-event board under heavy traffic fills fast and
    // stops, lighting the LED.
    let capture = Experiment::new()
        .profile_all()
        .board(BoardConfig::default())
        .scenario(scenarios::network_receive(200 * 1024, true))
        .try_run()
        .expect("experiment runs");
    assert!(capture.overflowed, "RAM should fill");
    assert_eq!(capture.records.len(), 16384);
    assert!(capture.missed > 0, "post-overflow triggers were missed");
    // How long did 16384 events take?  The paper: "as short a time as
    // 300 milliseconds".
    let first = capture.records.first().expect("non-empty").time as u64;
    let r = capture.analyze();
    assert!(r.tags == 16384);
    let window_us = r.total_elapsed;
    assert!(
        (100_000..2_000_000).contains(&window_us),
        "16384 events in {window_us} us (first at {first})"
    );
}

#[test]
fn reports_and_variants_render_everywhere() {
    let capture = Experiment::new()
        .profile_all()
        .config(KernelConfig {
            cksum_asm: true,
            ..KernelConfig::default()
        })
        .scenario(scenarios::mixed(2))
        .try_run()
        .expect("experiment runs");
    let r = capture.analyze();
    let summary = summary_report(&r, None);
    for f in ["bcopy", "pmap_pte", "wdintr", "tcp_input", "falloc"] {
        assert!(summary.contains(f), "{f} missing from mixed summary");
    }
    let trace = trace_report(&r, &TraceStyle::default());
    assert!(trace.contains("Context switch in"));
    // The oracle agrees on the hot counts even in the mixed workload.
    for f in [KFn::Bcopy, KFn::PmapPte, KFn::WdIntr] {
        assert_eq!(
            r.agg(f.name()).unwrap_or_default().calls,
            capture.kernel.trace.truth(f).calls,
            "{} analysis vs oracle",
            f.name()
        );
    }
}
