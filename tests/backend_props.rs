//! Backend normalization property suite: every backend's output merges
//! through the `Reconstruction` monoid bit-identically no matter how
//! the native capture is chunked, and the board backend is a perfect
//! adapter over the direct board capture.
//!
//! The fixtures (one deterministic run per backend) are captured once;
//! each property then randomizes only the chunking/splitting, so the
//! suite stays fast at the CI-pinned 256 cases.

use std::sync::OnceLock;

use proptest::prelude::*;

use hwprof::analysis::{Analyzer, Reconstruction};
use hwprof::baseline::{CounterModel, SampleProfile};
use hwprof::kernel386::kernel::KernStats;
use hwprof::profiler::RawRecord;
use hwprof::tagfile::TagFile;
use hwprof::{
    scenarios, BoardBackend, CountersBackend, Experiment, KtraceBackend, NativeCapture,
    SamplingBackend,
};

/// One deterministic capture per backend, taken once for the suite.
struct Fixture {
    tagfile: TagFile,
    board_bank: Vec<RawRecord>,
    ktrace_bank: Vec<RawRecord>,
    samples: SampleProfile,
    stats: KernStats,
}

fn capture_bank(
    backend_run: Result<hwprof::BackendCapture, hwprof::Error>,
) -> (TagFile, Vec<RawRecord>) {
    let cap = backend_run.expect("fixture capture");
    let NativeCapture::Banks(mut banks) = cap.native else {
        panic!("expected record banks");
    };
    assert_eq!(banks.len(), 1);
    (cap.tagfile, banks.remove(0))
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let scenario = || scenarios::network_receive(4 * 1024, false);
        let (tagfile, board_bank) = capture_bank(
            Experiment::new()
                .backend(BoardBackend)
                .scenario(scenario())
                .try_capture(),
        );
        let (_, ktrace_bank) = capture_bank(
            Experiment::new()
                .backend(KtraceBackend::default())
                .scenario(scenario())
                .try_capture(),
        );
        let sampled = Experiment::new()
            .backend(SamplingBackend)
            .scenario(scenario())
            .try_capture()
            .expect("sampling fixture");
        let NativeCapture::Samples(samples) = sampled.native else {
            panic!("expected samples");
        };
        let counted = Experiment::new()
            .backend(CountersBackend)
            .scenario(scenario())
            .try_capture()
            .expect("counters fixture");
        let NativeCapture::Counters(stats) = counted.native else {
            panic!("expected counters");
        };
        Fixture {
            tagfile,
            board_bank,
            ktrace_bank,
            samples,
            stats,
        }
    })
}

/// Splits `v` into `(x, v - x)` by the random word `r`.
fn split(v: u64, r: u64) -> (u64, u64) {
    let x = if v == 0 { 0 } else { r % (v + 1) };
    (x, v - x)
}

/// Groups `sessions` into consecutive chunks (break before session `i`
/// when `breaks[i]`), analyzes each chunk independently, and merges.
fn analyze_chunked(
    tagfile: &TagFile,
    sessions: &[&[RawRecord]],
    breaks: &[bool],
) -> Reconstruction {
    let a = Analyzer::for_tagfile(tagfile);
    let mut merged = Reconstruction::empty(a.symbols().clone());
    let mut chunk: Vec<&[RawRecord]> = Vec::new();
    for (i, s) in sessions.iter().enumerate() {
        if i > 0 && breaks[i % breaks.len()] && !chunk.is_empty() {
            merged.merge(a.record_sessions(chunk.drain(..)).expect("chunk decodes"));
        }
        chunk.push(s);
    }
    if !chunk.is_empty() {
        merged.merge(a.record_sessions(chunk).expect("chunk decodes"));
    }
    merged
}

/// The record-bank law shared by the board and ktrace backends: any
/// grouping of the capture sessions into consecutive chunks, analyzed
/// independently and merged, is bit-identical to one pass.
fn banks_law(bank: &[RawRecord], copies: usize, breaks: &[bool]) -> Result<(), TestCaseError> {
    let fx = fixture();
    let sessions: Vec<&[RawRecord]> = (0..copies).map(|_| bank).collect();
    let whole = Analyzer::for_tagfile(&fx.tagfile)
        .record_sessions(sessions.iter().copied())
        .expect("whole decodes");
    let chunked = analyze_chunked(&fx.tagfile, &sessions, breaks);
    prop_assert_eq!(whole, chunked);
    Ok(())
}

proptest! {
    #[test]
    fn board_banks_merge_bit_identically(
        copies in 1usize..6,
        breaks in prop::collection::vec(0u8..2, 6..7),
    ) {
        let breaks: Vec<bool> = breaks.iter().map(|&b| b == 1).collect();
        banks_law(&fixture().board_bank, copies, &breaks)?;
    }

    #[test]
    fn ktrace_banks_merge_bit_identically(
        copies in 1usize..6,
        breaks in prop::collection::vec(0u8..2, 6..7),
    ) {
        let breaks: Vec<bool> = breaks.iter().map(|&b| b == 1).collect();
        banks_law(&fixture().ktrace_bank, copies, &breaks)?;
    }

    #[test]
    fn sampling_normalization_is_chunk_invariant(
        seeds in prop::collection::vec(0u64..u64::MAX, 8..33),
    ) {
        // Split the histogram additively into two profiles; the merged
        // normalizations must be bit-identical to normalizing whole.
        let p = &fixture().samples;
        let r = |i: usize| seeds[i % seeds.len()];
        let mut a = SampleProfile {
            rate_hz: p.rate_hz,
            counts: vec![0; p.counts.len()],
            idle_samples: 0,
            user_samples: 0,
            total: 0,
        };
        let mut b = a.clone();
        for (i, &c) in p.counts.iter().enumerate() {
            let (x, y) = split(c, r(i));
            a.counts[i] = x;
            b.counts[i] = y;
        }
        let n = p.counts.len();
        (a.idle_samples, b.idle_samples) = split(p.idle_samples, r(n));
        (a.user_samples, b.user_samples) = split(p.user_samples, r(n + 1));
        (a.total, b.total) = split(p.total, r(n + 2));
        let mut merged = a.normalize();
        merged.merge(b.normalize());
        prop_assert_eq!(merged, p.normalize());
    }

    #[test]
    fn counters_normalization_is_chunk_invariant(
        seeds in prop::collection::vec(0u64..u64::MAX, 8..33),
    ) {
        let s = &fixture().stats;
        let model = CounterModel::default();
        let r = |i: usize| seeds[i % seeds.len()];
        let mut a = KernStats::default();
        let mut b = KernStats::default();
        (a.intrs, b.intrs) = split(s.intrs, r(0));
        (a.ticks, b.ticks) = split(s.ticks, r(1));
        (a.cswitches, b.cswitches) = split(s.cswitches, r(2));
        (a.syscalls, b.syscalls) = split(s.syscalls, r(3));
        (a.packets_in, b.packets_in) = split(s.packets_in, r(4));
        (a.packets_out, b.packets_out) = split(s.packets_out, r(5));
        (a.disk_xfers, b.disk_xfers) = split(s.disk_xfers, r(6));
        (a.page_faults, b.page_faults) = split(s.page_faults, r(7));
        let mut merged = model.normalize(&a);
        merged.merge(model.normalize(&b));
        prop_assert_eq!(merged, model.normalize(s));
    }

}

/// Two independent backend captures of the same scenario are
/// bit-identical — the determinism the E19 gate pins.
#[test]
fn board_adapter_is_deterministic() {
    let fx = fixture();
    let (_, again) = capture_bank(
        Experiment::new()
            .backend(BoardBackend)
            .scenario(scenarios::network_receive(4 * 1024, false))
            .try_capture(),
    );
    assert_eq!(again, fx.board_bank);
}
