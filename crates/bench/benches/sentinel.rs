//! Sentinel evaluation throughput: a full scan of a retained window
//! ring (baseline warm-up plus every detector over every window), the
//! steady-state incremental rescan, and journal rendering.
//! `BENCH_sentinel.json` pins these rates in CI via `bench_gate`.

mod common;

use common::{synthetic_sessions, WINDOW_US};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hwprof_analysis::{FlightRecorder, Sentinel, SentinelConfig};
use hwprof_profiler::RecorderConfig;

fn bench_sentinel(c: &mut Criterion) {
    let (tf, sessions) = synthetic_sessions();
    let cfg = RecorderConfig::builder()
        .window_us(WINDOW_US)
        .retain(2048)
        .build()
        .expect("non-degenerate config");
    let rec = FlightRecorder::new(&tf, cfg);
    for s in &sessions {
        rec.ingest_session(s);
    }
    let retained = rec.retained();
    let windows = retained.end - retained.start;

    let mut g = c.benchmark_group("sentinel_eval");
    g.throughput(Throughput::Elements(windows));
    g.sample_size(10);
    // A cold scan: warm-up absorption plus every detector over every
    // retained window of the ring.
    g.bench_function("scan_all", |b| {
        b.iter(|| {
            let mut sent = Sentinel::new(SentinelConfig);
            sent.scan(&rec);
            sent.windows_evaluated()
        });
    });
    // The steady-state cost: a scan that finds nothing new still pays
    // for the retained-range check and visibility snapshot.
    let mut warm = Sentinel::new(SentinelConfig);
    warm.scan(&rec);
    g.bench_function("rescan_idle", |b| {
        b.iter(|| {
            warm.scan(&rec);
            warm.windows_evaluated()
        });
    });
    g.finish();

    // Rendering the digest (journal included) is the alert hot path a
    // fleet aggregator pays per member per roll-up.
    let mut sent = Sentinel::new(SentinelConfig);
    sent.scan(&rec);
    let mut g = c.benchmark_group("sentinel_render");
    g.throughput(Throughput::Elements(sent.journal().len().max(1) as u64));
    g.bench_function("describe", |b| {
        b.iter(|| sent.describe().len());
    });
    g.finish();
}

criterion_group!(benches, bench_sentinel);
criterion_main!(benches);
