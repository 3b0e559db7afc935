//! Pipeline validation: capture a real simulated-kernel run with the
//! Profiler, reconstruct it, and check the result against the
//! simulator's zero-perturbation ground-truth oracle.
//!
//! This is the test no real 1993 hardware could run: the oracle sees
//! exact cycle times, so any disagreement beyond hardware quantization is
//! an analysis bug.

use hwprof_analysis::{decode, summary_report, trace_report, Analyzer, TraceStyle};
use hwprof_kernel386::funcs::KFn;
use hwprof_kernel386::hosts::TcpBlaster;
use hwprof_kernel386::kern_exec::ExecImage;
use hwprof_kernel386::kernel::Kernel;
use hwprof_kernel386::sim::SimBuilder;
use hwprof_kernel386::syscall::{sys_execve, sys_read, sys_sleep, sys_socket, sys_vfork, sys_wait};
use hwprof_kernel386::user::{ucompute, utouch_pages};
use hwprof_kernel386::wire_fmt::IPPROTO_TCP;
use hwprof_profiler::{BoardConfig, Profiler};

/// Runs a network-receive workload with a (wide, lossless) board and
/// returns (kernel, reconstruction).
fn captured_run(
    build: impl FnOnce(SimBuilder) -> SimBuilder,
    spawn: impl FnOnce(&hwprof_kernel386::sim::Sim),
) -> (Kernel, hwprof_analysis::Reconstruction) {
    let board = Profiler::new(BoardConfig::wide());
    board.set_switch(true);
    let image = Kernel::full_image();
    let tagfile = image.tagfile.clone();
    let sim = build(
        SimBuilder::new()
            .image(image)
            .profiler(Box::new(board.clone())),
    )
    .build();
    spawn(&sim);
    let k = sim.run();
    assert!(!board.leds().overflow, "capture RAM overflowed");
    let (syms, events) = decode(&board.records(), &tagfile);
    let r = Analyzer::new(&syms).session(&events).expect("ungated");
    (k, r)
}

#[test]
fn reconstruction_matches_oracle_for_network_receive() {
    let (k, r) = captured_run(
        |b| b.ether(Box::new(TcpBlaster::paced(5001, 1460, 48 * 1024, 2500))),
        |sim| {
            sim.spawn(
                "receiver",
                Box::new(|ctx| {
                    let fd = sys_socket(ctx, IPPROTO_TCP, 5001);
                    let mut got = 0usize;
                    while got < 48 * 1024 {
                        got += sys_read(ctx, fd, 4096).len();
                    }
                }),
            );
        },
    );
    // Call counts must match the oracle exactly for the hot functions.
    for f in [
        KFn::Bcopy,
        KFn::InCksum,
        KFn::Splnet,
        KFn::Splx,
        KFn::TcpInput,
        KFn::Ipintr,
        KFn::Werint,
        KFn::Weget,
        KFn::Weintr,
        KFn::InPcblookup,
        KFn::Sbappend,
        KFn::Hardclock,
    ] {
        let truth = k.trace.truth(f);
        let got = r.agg(f.name()).unwrap_or_default();
        assert_eq!(
            got.calls,
            truth.calls,
            "{}: analysis {} vs oracle {}",
            f.name(),
            got.calls,
            truth.calls
        );
    }
    // Net times agree within quantization: generous bound of 4 us per
    // call plus 2%.
    for f in [KFn::Bcopy, KFn::InCksum, KFn::TcpInput, KFn::Soreceive] {
        let truth = k.trace.truth(f);
        let got = r.agg(f.name()).unwrap_or_default();
        let truth_us = truth.net / 40;
        let tol = 4 * truth.calls + truth_us / 50 + 4;
        let diff = truth_us.abs_diff(got.net);
        assert!(
            diff <= tol,
            "{}: net {} us vs oracle {} us (tol {})",
            f.name(),
            got.net,
            truth_us,
            tol
        );
    }
    // Structural counters.
    assert_eq!(r.anomalies.unknown_tags, 0);
    assert!(r.births >= 1, "the receiver's birth was seen");
    assert!(r.total_elapsed > 50_000);
}

#[test]
fn reconstruction_handles_forkexec_switch_storms() {
    let (k, r) = captured_run(
        |b| b,
        |sim| {
            sim.spawn(
                "parent",
                Box::new(|ctx| {
                    sys_execve(ctx, &ExecImage::shell());
                    utouch_pages(ctx, 30, true);
                    for _ in 0..2 {
                        let _ = sys_vfork(
                            ctx,
                            "child",
                            Box::new(|ctx| {
                                sys_execve(ctx, &ExecImage::small_util());
                                utouch_pages(ctx, 6, true);
                                ucompute(ctx, 500);
                            }),
                        );
                        let _ = sys_wait(ctx);
                    }
                }),
            );
        },
    );
    for f in [
        KFn::PmapPte,
        KFn::PmapRemove,
        KFn::PmapProtect,
        KFn::PmapEnter,
        KFn::VmFault,
        KFn::Fork1,
        KFn::Execve,
        KFn::Bzero,
    ] {
        let truth = k.trace.truth(f);
        let got = r.agg(f.name()).unwrap_or_default();
        assert_eq!(got.calls, truth.calls, "{} call count", f.name());
    }
    // pmap_pte dominates call counts, as in the paper.
    let pte = r.agg("pmap_pte").unwrap();
    assert!(pte.calls > 1500, "pmap_pte calls {}", pte.calls);
    // Context switches were resolved (vfork parent <-> child).
    assert!(r.context_switches >= 2);
    assert_eq!(r.anomalies.unknown_tags, 0);
}

#[test]
fn idle_accounting_matches_scheduler() {
    let (k, r) = captured_run(
        |b| b,
        |sim| {
            sim.spawn(
                "sleepy",
                Box::new(|ctx| {
                    for _ in 0..5 {
                        sys_sleep(ctx, 2);
                        ucompute(ctx, 2_000);
                    }
                }),
            );
        },
    );
    let kernel_idle_us = k.sched.idle_cycles / 40;
    // The analyzer's idle includes swtch body time (~25 us per switch).
    let slack = 40 * (r.swtch_calls + r.context_switches + 2);
    let lo = kernel_idle_us.saturating_sub(slack);
    let hi = kernel_idle_us + slack;
    assert!(
        (lo..=hi).contains(&r.idle),
        "analysis idle {} vs kernel idle {} (slack {})",
        r.idle,
        kernel_idle_us,
        slack
    );
    // Idle dominates this workload.
    assert!(r.idle > r.total_elapsed / 2);
}

#[test]
fn reports_render_from_a_real_capture() {
    let (_k, r) = captured_run(
        |b| b.ether(Box::new(TcpBlaster::paced(5001, 1460, 16 * 1024, 2500))),
        |sim| {
            sim.spawn(
                "receiver",
                Box::new(|ctx| {
                    let fd = sys_socket(ctx, IPPROTO_TCP, 5001);
                    let mut got = 0usize;
                    while got < 16 * 1024 {
                        got += sys_read(ctx, fd, 4096).len();
                    }
                }),
            );
        },
    );
    let summary = summary_report(&r, Some(20));
    assert!(summary.contains("Elapsed time ="));
    assert!(summary.contains("bcopy"));
    assert!(summary.contains("in_cksum"));
    assert!(summary.contains("% real"));
    let trace = trace_report(&r, &TraceStyle::default());
    assert!(trace.contains("-> weintr"));
    assert!(trace.contains("-> ipintr"));
    assert!(trace.contains("-> tcp_input"));
    assert!(trace.contains("Context switch in"));
    assert!(trace.contains("== MGET"), "inline mbuf trigger visible");
}
