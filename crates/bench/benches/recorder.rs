//! Flight-recorder throughput: continuous ingest of delivered bank
//! sessions into the window ring (with and without eviction churn),
//! plus the live query surface — range folds, cold and cached, and
//! window diffs.
//! `BENCH_recorder.json` pins these rates in CI via `bench_gate`.

mod common;

use common::{synthetic_sessions, SESSIONS, SESSION_RECORDS, WINDOW_US};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use hwprof_analysis::FlightRecorder;
use hwprof_profiler::RecorderConfig;

fn config(retain: usize) -> RecorderConfig {
    RecorderConfig::builder()
        .window_us(WINDOW_US)
        .retain(retain)
        .build()
        .expect("non-degenerate config")
}

fn bench_recorder(c: &mut Criterion) {
    let (tf, sessions) = synthetic_sessions();
    let total_records: u64 = SESSIONS * SESSION_RECORDS as u64;

    // Continuous ingest: decode + window split for every delivered
    // session, with a ring large enough to retain everything and a
    // small one churning evictions the whole time.
    let mut g = c.benchmark_group("recorder_ingest");
    g.throughput(Throughput::Elements(total_records));
    g.sample_size(10);
    for (label, retain) in [("retain_all", 2048usize), ("evicting", 16)] {
        g.bench_with_input(BenchmarkId::new(label, retain), &retain, |b, &r| {
            b.iter(|| {
                let rec = FlightRecorder::new(&tf, config(r));
                for s in &sessions {
                    rec.ingest_session(s);
                }
                rec.ledger()
            });
        });
    }
    g.finish();

    // The live query surface over a fully-ingested ring.  `fold_cold`
    // is a fresh ring's first range pass, which folds every window (the
    // fold a sentinel's first scan pays; the ingest is set-up, dropping
    // the ring is timed); later passes merge cached folds.
    let ingested = || {
        let rec = FlightRecorder::new(&tf, config(2048));
        for s in &sessions {
            rec.ingest_session(s);
        }
        rec
    };
    let rec = ingested();
    let retained = rec.retained();
    let windows = retained.end - retained.start;
    let mut g = c.benchmark_group("recorder_query");
    g.throughput(Throughput::Elements(windows));
    g.bench_function("fold_cold", |b| {
        b.iter_batched(
            ingested,
            |fresh| fresh.range(retained.clone()).expect("retained").recon.tags,
            BatchSize::LargeInput,
        );
    });
    g.bench_function("range_all", |b| {
        b.iter(|| rec.range(retained.clone()).expect("retained"));
    });
    g.bench_function("diff_ends", |b| {
        b.iter(|| {
            rec.diff(retained.start, retained.end - 1)
                .expect("both retained")
        });
    });
    g.finish();
}

criterion_group!(benches, bench_recorder);
criterion_main!(benches);
