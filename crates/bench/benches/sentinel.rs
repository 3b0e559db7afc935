//! Sentinel evaluation throughput: a full scan of a retained window
//! ring (baseline warm-up plus every detector over every window), the
//! steady-state incremental rescan, and journal rendering.
//! `BENCH_sentinel.json` pins these rates in CI via `bench_gate`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hwprof_analysis::{FlightRecorder, Sentinel, SentinelConfig};
use hwprof_profiler::{RawRecord, RecorderConfig, SupervisedSession, TagMaskLevel};
use hwprof_tagfile::{TagFile, TagKind};

const SESSIONS: u64 = 64;
const SESSION_RECORDS: usize = 2048;
const WINDOW_US: u64 = 1_000;

/// The flight-recorder bench's synthetic stream, verbatim: nested
/// calls over 40 functions with periodic context switches, sessions
/// tiling one long timeline.
fn synthetic_sessions() -> (TagFile, Vec<SupervisedSession>) {
    let mut tf = TagFile::new(500);
    let fns: Vec<u16> = (0..40)
        .map(|i| {
            tf.assign(&format!("fn{i}"), TagKind::Function)
                .expect("fresh file")
        })
        .collect();
    let swtch = tf.assign("swtch", TagKind::ContextSwitch).expect("fresh");
    let mut sessions = Vec::new();
    let mut start = 1_000u64;
    for index in 0..SESSIONS {
        let mut records = Vec::with_capacity(SESSION_RECORDS);
        let mut t = 0u64;
        let mut i = index as usize;
        while records.len() + 8 < SESSION_RECORDS {
            let a = fns[i % fns.len()];
            let b = fns[(i * 7 + 3) % fns.len()];
            for tag in [a, b, b + 1] {
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
        let end = start + t + 5;
        sessions.push(SupervisedSession {
            index,
            start_us: start,
            end_us: end,
            level: TagMaskLevel::All,
            records,
        });
        start = end;
    }
    (tf, sessions)
}

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
