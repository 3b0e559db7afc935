//! Simulated-machine parity: one line per scenario pinning everything
//! the simulator produces — every stored board record, the ground-truth
//! oracle, the kernel statistics, the Ethernet card and wire counters,
//! the IDE store and the end time — against a checked-in golden.  Two
//! more lines run one scenario under the sampling and ktrace backends,
//! pinning the samples and the software trace with the cycles each
//! charges the kernel.
//!
//! The simulation is deterministic, so any change to the host-side
//! models (ring copies, the oracle's stacks, the sector store, the
//! board's trigger path) must reproduce the file byte for byte.
//! Regenerate only after an intentional change to simulated behaviour:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p hwprof --test sim_parity
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use hwprof::kernel386::funcs::KFn;
use hwprof::kernel386::kernel::Kernel;
use hwprof::profiler::{BoardConfig, RawRecord};
use hwprof::{
    scenarios, CaptureBackend, Experiment, KtraceBackend, NativeCapture, SamplingBackend, Scenario,
};

const GOLDEN: &str = "sim_parity.txt";

/// 64-bit FNV-1a, folded over byte slices.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
}

fn records_digest(records: &[RawRecord]) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        h.bytes(&r.tag.to_le_bytes()).bytes(&r.time.to_le_bytes());
    }
    h.0
}

/// Every written sector, in LBA order, through `peek`.
fn disk_digest(k: &Kernel) -> (u64, u64, u64, u64) {
    let Some(ide) = k.machine.ide.as_ref() else {
        return (0, 0, 0, 0);
    };
    let mut h = Fnv::new();
    let mut stored = 0u64;
    for lba in 0..ide.geom.sectors() {
        if let Some(data) = ide.peek(lba) {
            h.u64(lba).bytes(data);
            stored += 1;
        }
    }
    (ide.reads, ide.writes, stored, h.0)
}

/// One golden line for `scenario` run on a board of `board` depth.
fn line(name: &str, scenario: Scenario, board: BoardConfig) -> String {
    let cap = Experiment::new()
        .board(board)
        .scenario(scenario)
        .try_run()
        .expect("scenario runs");
    let mut out = String::new();
    write!(
        out,
        "{name}: records={} fnv={:016x} missed={} overflowed={}",
        cap.records.len(),
        records_digest(&cap.records),
        cap.missed,
        cap.overflowed
    )
    .unwrap();
    kernel_fields(&mut out, &cap.kernel);
    out
}

/// One golden line for `scenario` observed by `backend` instead of the
/// board: what the backend pulled off the machine, then the kernel.
fn backend_line(name: &str, scenario: Scenario, backend: impl CaptureBackend + 'static) -> String {
    let cap = Experiment::new()
        .backend(backend)
        .scenario(scenario)
        .try_capture()
        .expect("backend captures");
    let mut out = String::new();
    match &cap.native {
        NativeCapture::Samples(p) => {
            let mut h = Fnv::new();
            for &c in &p.counts {
                h.u64(c);
            }
            write!(
                out,
                "{name}: samples={} idle={} user={} rate_hz={} fnv={:016x}",
                p.total, p.idle_samples, p.user_samples, p.rate_hz, h.0
            )
            .unwrap();
        }
        NativeCapture::Banks(banks) => {
            let records = banks.concat();
            write!(
                out,
                "{name}: records={} fnv={:016x}",
                records.len(),
                records_digest(&records)
            )
            .unwrap();
        }
        NativeCapture::Counters(_) => unreachable!("no counters row"),
    }
    kernel_fields(&mut out, &cap.kernel);
    out
}

/// The kernel's share of a line: the ground-truth oracle, statistics,
/// card, wire and disk counters, and the end time.
fn kernel_fields(out: &mut String, k: &Kernel) {
    write!(out, " orphan_exits={}", k.trace.orphan_exits).unwrap();
    for f in KFn::ALL {
        let t = k.trace.truth(f);
        if t.calls > 0 {
            write!(
                out,
                " {}={}/{}/{}/{}/{}",
                f.name(),
                t.calls,
                t.gross,
                t.net,
                t.max_net,
                t.min_net
            )
            .unwrap();
        }
    }
    write!(out, " stats={:?}", k.stats).unwrap();
    if let Some(wd) = k.machine.wd.as_ref() {
        write!(out, " wd={}/{}", wd.accepted, wd.missed).unwrap();
    }
    if let Some(w) = k.machine.wire.as_ref() {
        write!(
            out,
            " wire={}/{}/{}/{} tx_frames={}",
            w.frames_to_pc, w.frames_from_pc, w.bytes_to_pc, w.bytes_from_pc, k.machine.tx_frames
        )
        .unwrap();
    }
    let (reads, writes, stored, digest) = disk_digest(k);
    write!(
        out,
        " ide={reads}/{writes} sectors={stored} sector_fnv={digest:016x}"
    )
    .unwrap();
    write!(out, " end_us={}", k.now_us()).unwrap();
}

/// A 128 Ki-event, 32-bit board: deep enough that the two heaviest
/// scenarios store every trigger instead of overflowing.
fn deep() -> BoardConfig {
    BoardConfig {
        capacity: 1 << 17,
        time_bits: 32,
    }
}

#[test]
fn simulated_machine_matches_golden() {
    let lines = [
        line(
            "network_receive(512KiB,saturate)",
            scenarios::network_receive(512 * 1024, true),
            deep(),
        ),
        line(
            "fs_writer(256)",
            scenarios::fs_writer(256),
            BoardConfig::wide(),
        ),
        line(
            "fs_scattered_reads(48)",
            scenarios::fs_scattered_reads(48),
            BoardConfig::default(),
        ),
        line("mixed(4)", scenarios::mixed(4), BoardConfig::wide()),
        line("forkexec_loop(24)", scenarios::forkexec_loop(24), deep()),
        backend_line(
            "sampling:network_receive(512KiB,saturate)",
            scenarios::network_receive(512 * 1024, true),
            SamplingBackend,
        ),
        backend_line(
            "ktrace:network_receive(512KiB,saturate)",
            scenarios::network_receive(512 * 1024, true),
            KtraceBackend::default(),
        ),
    ];
    let actual = lines.join("\n") + "\n";
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(GOLDEN);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {GOLDEN} ({e}); run with UPDATE_GOLDEN=1"));
    for (got, want) in actual.lines().zip(expected.lines()) {
        assert_eq!(
            got, want,
            "simulated machine drifted from tests/golden/{GOLDEN}"
        );
    }
    assert_eq!(actual, expected, "tests/golden/{GOLDEN} line count changed");
}
