//! The workloads and their end-to-end iterations.
//!
//! Each iteration is one closed-loop call: a scenario goes in, every
//! output a user reads comes out, and only then does the next iteration
//! start.  Input sizes are fixed; the seed is the only input that varies.

use hwprof::analysis::{DenseTagTable, FlightRecorder, Symbols};
use hwprof::instrument::ModuleSelect;
use hwprof::kernel386::kernel::KernelConfig;
use hwprof::profiler::BoardConfig;
use hwprof::tagfile::TagFile;
use hwprof::{
    build_tagfile, scenarios, Experiment, RecorderConfig, Scenario, SentinelConfig, SentinelHandle,
    StreamCapture, SupervisorPolicy,
};
use hwprof_fleet::{Fleet, FleetPolicy, FleetReport, FleetSentinelPolicy};

use crate::checks::{self, Check};

/// Bytes the remote host blasts at the receiver in `net_profile`.
pub const NET_BYTES: u64 = 4 << 20;
/// Analysis workers of the drain-while-armed capture.
pub const STREAM_WORKERS: usize = 2;
/// 4 KiB blocks `fs_monitor` writes.
pub const FS_BLOCKS: usize = 2000;
/// `fs_monitor`'s recorder window.
pub const FS_WINDOW_US: u64 = 10_000;
/// Enough windows to keep the whole `fs_monitor` run (about 1950).
pub const FS_RETAIN: usize = 4096;
/// Per-attempt upload failure rate of `fs_monitor`'s transport.
pub const FS_TRANSPORT_FAIL_PPM: u32 = 200_000;
/// Machines of `fleet_pair`: at most the two cores of the reference host.
pub const FLEET_MACHINES: u32 = 2;
/// Aggregator shard workers of `fleet_pair`.
pub const FLEET_SHARDS: usize = 2;
/// Movers listed by `fs_monitor`'s window diff.
pub const MOVERS: usize = 10;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Saturated network receive, streamed, fully rendered.
    NetProfile,
    /// Always-on file-system monitoring with every window kept and read.
    FsMonitor,
    /// Two machines through the sharded fleet aggregator.
    FleetPair,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::NetProfile,
        Workload::FsMonitor,
        Workload::FleetPair,
    ];

    /// The name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::NetProfile => "net_profile",
            Workload::FsMonitor => "fs_monitor",
            Workload::FleetPair => "fleet_pair",
        }
    }

    /// The workload called `name`, if there is one.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Untimed preparation before the first timed iteration: the tag file,
/// the decoder and symbol tables built from it, and every policy.  The
/// scenario is not part of it: a run consumes its scenario, so every
/// iteration builds its own.
pub struct Setup {
    /// Which workload this prepares.
    pub workload: Workload,
    /// The instrumented kernel's tag file.
    pub tagfile: TagFile,
    /// The dense decode table over `tagfile`.
    pub table: DenseTagTable,
    /// The symbol table over `tagfile`.
    pub syms: Symbols,
    /// Kernel configuration; carries the seed into the simulation.
    pub kernel: KernelConfig,
    /// Supervisor policy; carries the seed into backoff jitter and the
    /// flaky transport.
    pub policy: SupervisorPolicy,
    /// Flight-recorder configuration.
    pub recorder: RecorderConfig,
    /// Sentinel configuration.
    pub sentinel: SentinelConfig,
    /// Fleet policy; carries the seed into the machine seeds.
    pub fleet: FleetPolicy,
}

impl Setup {
    /// Builds everything an iteration needs besides the scenario, which
    /// a run consumes.
    pub fn new(workload: Workload, seed: u64) -> Result<Setup, hwprof::Error> {
        let tagfile = build_tagfile(&ModuleSelect::All)?;
        let table = DenseTagTable::from_tagfile(&tagfile);
        let syms = Symbols::from_tagfile(&tagfile);
        let kernel = KernelConfig {
            seed,
            ..KernelConfig::default()
        };
        let mut policy = SupervisorPolicy {
            seed,
            ..SupervisorPolicy::default()
        };
        let mut recorder = RecorderConfig::default();
        if workload == Workload::FsMonitor {
            policy.transport_fail_ppm = FS_TRANSPORT_FAIL_PPM;
            recorder = RecorderConfig::builder()
                .window_us(FS_WINDOW_US)
                .retain(FS_RETAIN)
                .build()
                .expect("positive window and retention");
        }
        let fleet = FleetPolicy {
            machines: FLEET_MACHINES,
            shards: FLEET_SHARDS,
            seed,
            sentinel: Some(FleetSentinelPolicy::default()),
            ..FleetPolicy::default()
        };
        Ok(Setup {
            workload,
            tagfile,
            table,
            syms,
            kernel,
            policy,
            recorder,
            sentinel: SentinelConfig::default(),
            fleet,
        })
    }

    /// The workload's scenario (built fresh: a run consumes it).
    pub fn scenario(&self) -> Scenario {
        match self.workload {
            Workload::NetProfile => scenarios::network_receive(NET_BYTES, true),
            Workload::FsMonitor => scenarios::fs_writer(FS_BLOCKS),
            Workload::FleetPair => unreachable!("fleet machines build their own scenarios"),
        }
    }

    /// The experiment every single-machine path starts from.
    pub fn experiment(&self) -> Experiment {
        Experiment::new()
            .config(self.kernel.clone())
            .scenario(self.scenario())
    }

    /// One timed end-to-end iteration.
    pub fn iterate(&self) -> Result<Outputs, hwprof::Error> {
        match self.workload {
            Workload::NetProfile => {
                let capture = self.experiment().try_run_streaming(STREAM_WORKERS)?;
                let p = capture.as_profile();
                let summary = p.summary_report(None);
                let folded = p.folded();
                let chrome = p.chrome_trace();
                Ok(Outputs::Net {
                    capture,
                    summary,
                    folded,
                    chrome,
                })
            }
            Workload::FsMonitor => {
                let watch =
                    self.experiment()
                        .watch(self.policy.clone(), self.recorder, self.sentinel)?;
                let rec = watch.handle().recorder();
                let range_tags = range_all(rec);
                let window_tags = window_each(rec);
                let diff = diff_first_last(rec);
                let summary = watch.handle().as_profile().summary_report(None);
                let describe = watch.describe();
                Ok(Outputs::Monitor {
                    watch,
                    summary,
                    describe,
                    diff,
                    range_tags,
                    window_tags,
                })
            }
            Workload::FleetPair => {
                let report = Fleet::new(self.fleet.clone()).run()?;
                let describe = report.describe();
                Ok(Outputs::Fleet { report, describe })
            }
        }
    }
}

/// Records in one drained bank: half the stock board's RAM.
pub fn bank_records() -> usize {
    BoardConfig::default().capacity / 2
}

/// `range` over every retained window; returns the merged tag count.
pub fn range_all(rec: &FlightRecorder) -> usize {
    rec.range(rec.retained()).map_or(0, |r| r.recon.tags)
}

/// `window(w)` for every retained window; returns their summed tag
/// count, which must equal [`range_all`]'s.
pub fn window_each(rec: &FlightRecorder) -> usize {
    rec.retained()
        .filter_map(|w| rec.window(w))
        .map(|w| w.recon.tags)
        .sum()
}

/// `diff` of the first and last retained windows, with its movers.
pub fn diff_first_last(rec: &FlightRecorder) -> String {
    let retained = rec.retained();
    rec.diff(retained.start, retained.end.saturating_sub(1))
        .map(|d| {
            let movers: Vec<&str> = d.movers(MOVERS).iter().map(|r| r.name.as_str()).collect();
            format!("{}movers: {}\n", d.describe(), movers.join(","))
        })
        .unwrap_or_default()
}

/// Everything one iteration returned.
// One value lives at a time, so the size of the largest variant is moot.
#[allow(clippy::large_enum_variant)]
pub enum Outputs {
    /// `net_profile`: the streamed capture and its three renders.
    Net {
        capture: StreamCapture,
        summary: String,
        folded: String,
        chrome: String,
    },
    /// `fs_monitor`: the watch handle, its renders and the recorder
    /// reads.
    Monitor {
        watch: SentinelHandle,
        summary: String,
        describe: String,
        diff: String,
        range_tags: usize,
        window_tags: usize,
    },
    /// `fleet_pair`: the fleet report and its text.
    Fleet {
        report: FleetReport,
        describe: String,
    },
}

impl Outputs {
    /// Board records carried from the scenario to finished outputs
    /// (fleet tags for `fleet_pair`).
    pub fn events(&self) -> u64 {
        match self {
            Outputs::Net { capture, .. } => capture.profile.tags as u64,
            Outputs::Monitor { watch, .. } => watch.handle().run.events() as u64,
            Outputs::Fleet { report, .. } => report.profile.tags as u64,
        }
    }

    /// The digest of the byte outputs every iteration must repeat.
    pub fn digest(&self) -> u64 {
        match self {
            Outputs::Net {
                summary,
                folded,
                chrome,
                ..
            } => checks::digest(&[summary, folded, chrome]),
            Outputs::Monitor {
                summary,
                describe,
                diff,
                ..
            } => checks::digest(&[summary, describe, diff]),
            Outputs::Fleet { describe, .. } => checks::digest(&[describe]),
        }
    }

    /// Every invariant check on these outputs except the digest.  The
    /// Chrome trace is parsed only on a process's `first` iteration:
    /// it is in the digest, so a later iteration that passes the digest
    /// check rendered the very bytes that were parsed.
    pub fn check(&self, first: bool) -> Check {
        match self {
            Outputs::Net {
                capture,
                folded,
                chrome,
                ..
            } => {
                checks::full_banks(capture.profile.tags, capture.banks, bank_records())?;
                checks::folded_total(folded, &capture.profile)?;
                if first {
                    checks::chrome_json(chrome)?;
                }
                Ok(())
            }
            Outputs::Monitor {
                watch,
                range_tags,
                window_tags,
                ..
            } => {
                let h = watch.handle();
                checks::coverage_identity(h.coverage())?;
                checks::recorder_ledger(&h.ledger())?;
                checks::tags_match("watch", h.profile.tags, h.run.events() as u64)?;
                if range_tags != window_tags {
                    return Err(format!(
                        "range over all windows has {range_tags} tags, the windows {window_tags}"
                    ));
                }
                Ok(())
            }
            Outputs::Fleet { report, .. } => {
                checks::fleet_ledger(&report.coverage)?;
                let mut tags = 0usize;
                for m in &report.machines {
                    let (Some(cov), Some(profile), Some(local)) =
                        (&m.coverage, &m.profile, &m.local_profile)
                    else {
                        return Err(format!(
                            "machine {} was not included: {:?}",
                            m.id, m.reasons
                        ));
                    };
                    checks::coverage_identity(cov)?;
                    checks::tags_match(
                        &format!("machine {}", m.id),
                        profile.tags,
                        local.tags as u64,
                    )?;
                    tags += profile.tags;
                }
                checks::tags_match("fleet", report.profile.tags, tags as u64)
            }
        }
    }
}
