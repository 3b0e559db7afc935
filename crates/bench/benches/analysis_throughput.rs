//! Analysis-software performance: decoding and reconstructing a full
//! RAM load (the paper's "uploaded to a UNIX host" step).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use hwprof_analysis::{
    decode, decode_recovering, decode_recovering_scalar, decode_scalar, summary_report,
    trace_report, Analyzer, Event, Profile, Reconstruction, SessionDecoder, SessionRecon,
    StreamAnalyzer, Symbols, TagMap, TraceStyle,
};
use hwprof_profiler::{BankSink, RawRecord};
use hwprof_tagfile::{TagFile, TagKind};

/// Builds a synthetic but structurally valid 16384-event capture:
/// nested calls three deep with periodic context switches.
fn synthetic_capture() -> (TagFile, Vec<RawRecord>) {
    let mut tf = TagFile::new(500);
    let fns: Vec<u16> = (0..40)
        .map(|i| {
            tf.assign(&format!("fn{i}"), TagKind::Function)
                .expect("fresh file")
        })
        .collect();
    let swtch = tf.assign("swtch", TagKind::ContextSwitch).expect("fresh");
    let mut records = Vec::with_capacity(16384);
    let mut t = 0u64;
    let mut i = 0usize;
    while records.len() + 8 < 16384 {
        let a = fns[i % fns.len()];
        let b = fns[(i * 7 + 3) % fns.len()];
        let c = fns[(i * 13 + 5) % fns.len()];
        for tag in [a, b, c, c + 1, b + 1] {
            t += 7;
            records.push(RawRecord::latch(tag, t));
        }
        if i % 11 == 10 {
            t += 9;
            records.push(RawRecord::latch(swtch, t));
            t += 25;
            records.push(RawRecord::latch(swtch + 1, t));
        }
        t += 4;
        records.push(RawRecord::latch(a + 1, t));
        i += 1;
    }
    (tf, records)
}

fn bench_analysis(c: &mut Criterion) {
    let (tf, records) = synthetic_capture();
    let mut g = c.benchmark_group("analysis");
    g.throughput(Throughput::Elements(records.len() as u64));
    // Columnar hot path vs the scalar oracle it must beat: the
    // regression gate holds `decode_16k` at >= 3x `decode_scalar_16k`.
    g.bench_function("decode_16k", |b| {
        b.iter(|| decode(&records, &tf));
    });
    g.bench_function("decode_scalar_16k", |b| {
        b.iter(|| decode_scalar(&records, &tf));
    });
    g.bench_function("decode_recovering_16k", |b| {
        b.iter(|| decode_recovering(&records, &tf));
    });
    g.bench_function("decode_recovering_scalar_16k", |b| {
        b.iter(|| decode_recovering_scalar(&records, &tf));
    });
    // Steady state, as the analyzer and stream workers actually run:
    // tag table built once, decoder scratch and event buffer reused
    // across banks.  The scalar twin gets the same treatment (prebuilt
    // `TagMap`, reused output buffer) so the ratio isolates the decode
    // loop itself.
    let table = hwprof_analysis::DenseTagTable::from_tagfile(&tf);
    g.bench_function("decode_hot_16k", |b| {
        let mut decoder = hwprof_analysis::ColumnarDecoder::new(&table);
        let mut events = Vec::new();
        b.iter(|| {
            decoder.reset();
            events.clear();
            decoder.extend(&records, &mut events);
            events.len()
        });
    });
    let map = TagMap::from_tagfile(&tf);
    g.bench_function("decode_scalar_hot_16k", |b| {
        let mut events = Vec::new();
        b.iter(|| {
            let mut decoder = SessionDecoder::new(&map);
            events.clear();
            decoder.extend(&records, &mut events);
            events.len()
        });
    });
    let (syms, events) = decode(&records, &tf);
    let analyzer = Analyzer::new(&syms);
    g.bench_function("reconstruct_16k", |b| {
        b.iter(|| analyzer.session(&events).expect("ungated"));
    });
    let r = analyzer.session(&events).expect("ungated");
    g.bench_function("summary_report", |b| {
        b.iter(|| summary_report(&r, None));
    });
    g.bench_function("trace_report_16k", |b| {
        b.iter(|| trace_report(&r, &TraceStyle::default()));
    });
    // The Chrome and folded renderers over the same reconstruction.
    let profile = Profile::new(&r);
    g.bench_function("render_chrome_16k", |b| {
        b.iter(|| profile.chrome_trace());
    });
    g.bench_function("render_folded_16k", |b| {
        b.iter(|| profile.folded());
    });
    g.finish();
}

/// The streaming question: how fast does a million-event drain capture
/// reconstruct, batch vs fanned across workers?  Each session is one
/// drained half-RAM bank (8192 events).
fn bench_parallel_reconstruction(c: &mut Criterion) {
    let (tf, bank) = synthetic_capture();
    let map = TagMap::from_tagfile(&tf);
    let syms = hwprof_analysis::Symbols::from_tagfile(&tf);
    // 64 banks of ~16k events each: a ~1M-event capture.
    let sessions: Vec<Vec<Event>> = (0..64)
        .map(|_| {
            let mut d = SessionDecoder::new(&map);
            let mut ev = Vec::new();
            d.extend(&bank, &mut ev);
            ev
        })
        .collect();
    let n: u64 = sessions.iter().map(|s| s.len() as u64).sum();
    let mut g = c.benchmark_group("parallel_reconstruction");
    g.throughput(Throughput::Elements(n));
    g.sample_size(10);
    let analyzer = Analyzer::new(&syms);
    g.bench_function("batch_1m", |b| {
        b.iter(|| analyzer.sessions(&sessions).expect("ungated"));
    });
    for workers in [2usize, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("parallel_1m", workers),
            &workers,
            |b, &w| {
                let fanned = analyzer.clone().workers(w);
                b.iter(|| fanned.sessions(&sessions).expect("ungated"));
            },
        );
    }
    g.finish();
}

/// The trace rope: merging 64 per-bank reconstructions (a ~1M-event
/// capture) in bank order, and cloning the merged result.  Both touch
/// segment pointers, not trace items.
fn bench_trace_rope(c: &mut Criterion) {
    let (tf, bank) = synthetic_capture();
    let (syms, events) = decode(&bank, &tf);
    let analyzer = Analyzer::new(&syms);
    let parts: Vec<Reconstruction> = (0..64)
        .map(|_| analyzer.session(&events).expect("ungated"))
        .collect();
    let mut g = c.benchmark_group("analysis");
    g.throughput(Throughput::Elements(64 * events.len() as u64));
    g.bench_function("merge_64_banks", |b| {
        b.iter_batched(
            || parts.clone(),
            |parts| {
                let mut out = Reconstruction::empty(syms.clone());
                for part in parts {
                    out.merge(part);
                }
                out
            },
            BatchSize::LargeInput,
        );
    });
    let mut merged = Reconstruction::empty(syms.clone());
    for part in parts {
        merged.merge(part);
    }
    g.bench_function("clone_1m", |b| {
        b.iter(|| merged.clone());
    });
    g.finish();
}

/// The Chrome render of a multi-session capture: 16 drained 8192-event
/// banks, so the render helpers share many (session, lane) groups.
fn bench_render_sessions(c: &mut Criterion) {
    let (tf, capture) = synthetic_capture();
    let map = TagMap::from_tagfile(&tf);
    let syms = Symbols::from_tagfile(&tf);
    let banks: Vec<Vec<Event>> = capture
        .chunks(8192)
        .cycle()
        .take(16)
        .map(|bank| {
            let mut d = SessionDecoder::new(&map);
            let mut ev = Vec::new();
            d.extend(bank, &mut ev);
            ev
        })
        .collect();
    let r = Analyzer::new(&syms).sessions(&banks).expect("ungated");
    let mut g = c.benchmark_group("analysis");
    g.throughput(Throughput::Elements(
        banks.iter().map(|b| b.len() as u64).sum(),
    ));
    let profile = Profile::new(&r);
    g.bench_function("render_chrome_16_sessions", |b| {
        b.iter(|| profile.chrome_trace());
    });
    g.finish();
}

/// Arena reconstruction rate: one reused [`SessionRecon`] accumulating
/// 64 sessions straight into a shared [`Reconstruction`] — the
/// analyzer's fold path, with the frame pool warm — measured in
/// sessions per second.
fn bench_arena_sessions(c: &mut Criterion) {
    let (tf, bank) = synthetic_capture();
    let syms = Symbols::from_tagfile(&tf);
    let (_, events) = decode(&bank, &tf);
    let sessions: Vec<&[Event]> = (0..64).map(|_| events.as_slice()).collect();
    let mut g = c.benchmark_group("arena");
    g.throughput(Throughput::Elements(sessions.len() as u64));
    g.bench_function("sessions_64", |b| {
        let mut recon = SessionRecon::new(&syms, false);
        b.iter(|| {
            let mut out = Reconstruction::empty(syms.clone());
            for s in &sessions {
                recon.session_into(s, &mut out);
            }
            out
        });
    });
    g.finish();
}

/// Streaming end to end: 64 raw banks in, one merged reconstruction
/// out, through the full [`StreamAnalyzer`] pipeline (bank queue,
/// decode workers, merge).
fn bench_streaming(c: &mut Criterion) {
    let (tf, bank) = synthetic_capture();
    let banks: Vec<Vec<RawRecord>> = (0..64).map(|_| bank.clone()).collect();
    let n: u64 = banks.iter().map(|b| b.len() as u64).sum();
    let mut g = c.benchmark_group("streaming");
    g.throughput(Throughput::Elements(n));
    g.sample_size(10);
    g.bench_function("end_to_end_1m", |b| {
        b.iter_batched(
            || StreamAnalyzer::new(&tf, 4),
            |analyzer| {
                let mut feed = analyzer.feed();
                for bank in &banks {
                    assert!(feed.bank(bank.clone()));
                }
                drop(feed);
                analyzer.finish()
            },
            BatchSize::LargeInput,
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_analysis,
    bench_parallel_reconstruction,
    bench_trace_rope,
    bench_render_sessions,
    bench_arena_sessions,
    bench_streaming
);
criterion_main!(benches);
