//! Library performance: the board's capture path, the supervised
//! trigger, the simulator behind them, and the upload formats.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use hwprof::{scenarios, Experiment};
use hwprof_machine::EpromTap;
use hwprof_profiler::{
    parse_raw, ram_chip_view, reassemble, serialize_raw, CaptureSupervisor, MemoryTransport,
    Profiler, RamChip, RawRecord, SupervisorPolicy, TagMask, TagMaskLevel,
};

/// Trigger spacing of the supervised bench: a 16 384-record bank takes
/// 213 ms to fill, over the 200 ms below which the mask ladder steps
/// down, so every trigger reaches the board at level `All`.
const SUPERVISED_STEP_US: u64 = 13;

/// A supervisor over a stock board that re-arms as soon as a full bank
/// is uploaded.
fn supervisor() -> CaptureSupervisor {
    let policy = SupervisorPolicy {
        drain_budget_us: 0,
        ..SupervisorPolicy::default()
    };
    CaptureSupervisor::new(
        Profiler::stock(),
        TagMask::new([]),
        policy,
        Box::new(MemoryTransport::new()),
    )
}

fn bench_capture(c: &mut Criterion) {
    let mut g = c.benchmark_group("capture");
    g.throughput(Throughput::Elements(1));
    g.bench_function("board_on_read", |b| {
        let mut board = Profiler::stock();
        board.set_switch(true);
        let mut t = 0u64;
        b.iter(|| {
            t += 7;
            board.on_read(502, t);
            if board.stored() >= 16_000 {
                board.clear();
                board.set_switch(true);
            }
        });
    });
    g.bench_function("supervised_on_read", |b| {
        let mut sup = supervisor();
        let mut t = 0u64;
        b.iter(|| {
            t += SUPERVISED_STEP_US;
            sup.on_read(502, t);
            // Bound the delivered banks the run keeps: start over every
            // 64 banks.
            if t >= SUPERVISED_STEP_US << 20 {
                sup = supervisor();
                t = 0;
            }
        });
        assert_eq!(sup.level(), TagMaskLevel::All, "the ladder stayed off");
    });
    g.finish();

    let mut g = c.benchmark_group("kernel386");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(256 * 1024));
    g.bench_function("sim_net_256k", |b| {
        b.iter(|| {
            Experiment::new()
                .unarmed()
                .scenario(scenarios::network_receive(256 * 1024, true))
                .try_run()
                .expect("experiment runs")
        });
    });
    g.finish();

    let records: Vec<RawRecord> = (0..16384u32)
        .map(|i| RawRecord::latch((i % 3000) as u16, u64::from(i) * 11))
        .collect();
    let mut g = c.benchmark_group("upload");
    g.throughput(Throughput::Elements(records.len() as u64));
    g.bench_function("serialize_raw_16k", |b| {
        b.iter(|| serialize_raw(&records));
    });
    let bytes = serialize_raw(&records);
    g.bench_function("parse_raw_16k", |b| {
        b.iter(|| parse_raw(&bytes).expect("well formed"));
    });
    g.bench_function("zif_roundtrip_16k", |b| {
        b.iter_batched(
            || records.clone(),
            |recs| {
                let images: [Vec<u8>; 5] = [
                    ram_chip_view(&recs, RamChip::TagLow),
                    ram_chip_view(&recs, RamChip::TagHigh),
                    ram_chip_view(&recs, RamChip::TimeLow),
                    ram_chip_view(&recs, RamChip::TimeMid),
                    ram_chip_view(&recs, RamChip::TimeHigh),
                ];
                reassemble(&images)
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group!(benches, bench_capture);
criterion_main!(benches);
