//! One simulated fleet machine: its workload, its uplink, and the
//! worker-thread entry point that runs it under a `CaptureSupervisor`.
//!
//! Every machine runs the full single-machine pipeline from PRs 1–7
//! (instrumented kernel sim → board → supervisor → transport) with
//! its own seed and workload mix; the only fleet-specific piece is
//! the [`Uplink`] transport, which packs delivered banks into
//! [`ShardFrame`]s and applies the machine's assigned chaos: a crash
//! silences the uplink mid-capture, a corrupt-shard event mangles one
//! frame in transit, an outage is layered through the PR-3
//! `FlakyTransport` (so the supervisor's retry/breaker/spill path —
//! the *retryable* failure mode — is what gets exercised), and a
//! straggler buffers frames for a late drain instead of streaming
//! them.

use std::sync::{Arc, Mutex};

use hwprof::scenarios;
use hwprof::{Error, Experiment, Scenario};
use hwprof_analysis::{AlertJournal, BankFeed, Reconstruction};
use hwprof_profiler::{
    Coverage, FlakyTransport, RawRecord, SupervisorPolicy, TagMaskLevel, Transport, TransportError,
};
use hwprof_telemetry::Registry;

use crate::chaos::ChaosEvent;
use crate::fleet::FleetPolicy;
use crate::frame::{MachineId, ShardFrame};

/// A machine's distinct identity within the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineSpec {
    /// Fleet index (also the telemetry prefix `m{id}.`).
    pub id: MachineId,
    /// Seed for the machine's supervisor (jitter, flaky transport).
    pub seed: u64,
    /// What the machine was doing while profiled.
    pub workload: WorkloadMix,
}

/// The workload a fleet machine runs, cycled over the fleet so no
/// two neighbours profile identical kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadMix {
    /// Network receive path, paced.
    NetReceive,
    /// Network receive path, saturated.
    NetSaturated,
    /// fork/exec loop.
    ForkExec,
    /// Sequential file writer.
    FsWriter,
    /// Scattered file reads.
    FsReads,
    /// NFS streaming.
    NfsStream,
    /// A bit of everything.
    Mixed,
    /// Mostly idle, clock ticking.
    ClockIdle,
}

impl WorkloadMix {
    /// The mix for fleet machine `i` (cycles through all eight).
    pub fn for_index(i: MachineId) -> WorkloadMix {
        match i % 8 {
            0 => WorkloadMix::NetReceive,
            1 => WorkloadMix::ForkExec,
            2 => WorkloadMix::FsWriter,
            3 => WorkloadMix::NfsStream,
            4 => WorkloadMix::Mixed,
            5 => WorkloadMix::FsReads,
            6 => WorkloadMix::NetSaturated,
            _ => WorkloadMix::ClockIdle,
        }
    }

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadMix::NetReceive => "net-receive",
            WorkloadMix::NetSaturated => "net-saturated",
            WorkloadMix::ForkExec => "fork-exec",
            WorkloadMix::FsWriter => "fs-writer",
            WorkloadMix::FsReads => "fs-reads",
            WorkloadMix::NfsStream => "nfs-stream",
            WorkloadMix::Mixed => "mixed",
            WorkloadMix::ClockIdle => "clock-idle",
        }
    }

    /// Builds the scenario (sized for a quick but multi-bank run).
    pub fn scenario(self) -> Scenario {
        match self {
            WorkloadMix::NetReceive => scenarios::network_receive(64 * 1024, false),
            WorkloadMix::NetSaturated => scenarios::network_receive(64 * 1024, true),
            WorkloadMix::ForkExec => scenarios::forkexec_loop(24),
            WorkloadMix::FsWriter => scenarios::fs_writer(64),
            WorkloadMix::FsReads => scenarios::fs_scattered_reads(48),
            WorkloadMix::NfsStream => scenarios::nfs_stream(32 * 1024),
            WorkloadMix::Mixed => scenarios::mixed(16),
            WorkloadMix::ClockIdle => scenarios::clock_idle(300),
        }
    }
}

/// The machine's own view of its finished run.
#[derive(Debug, Clone)]
pub struct MachineSummary {
    /// The machine's full coverage ledger.
    pub coverage: Coverage,
    /// Shards the machine's uplink delivered (or buffered).
    pub shards_sent: u64,
    /// Mask level the run ended at.
    pub final_level: TagMaskLevel,
    /// How late the machine's drain ran (0 for a streaming drain;
    /// the chaos-declared delay for a straggler).
    pub drain_lag_us: u64,
    /// The machine's *local* sequential analysis of its own run —
    /// the per-machine oracle the aggregator's merge is checked
    /// against bit for bit.
    pub profile: Reconstruction,
    /// The machine's sentinel alert journal; empty unless the fleet
    /// policy configured a sentinel.
    pub alerts: AlertJournal,
}

/// What came back from a machine's worker thread.
#[derive(Debug)]
pub enum MachineOutcome {
    /// Clean finish: shards streamed, report delivered.
    Finished(MachineSummary),
    /// The machine finished but its drain lagged: `frames` are still
    /// on the machine, waiting for the driver's deadline/hedge call.
    Straggling {
        /// The buffered, undelivered shards.
        frames: Vec<ShardFrame>,
        /// The machine's report.
        summary: MachineSummary,
    },
    /// The machine died mid-capture; no report survives.
    Crashed {
        /// Shards that made it out before the silence.
        after_shards: u64,
    },
    /// The run itself failed (e.g. transport never recovered).
    Failed(Error),
}

#[derive(Default)]
struct UplinkShared {
    sent: u64,
    buffer: Vec<ShardFrame>,
}

/// The machine-side transport: packs banks into [`ShardFrame`]s and
/// applies crash / corrupt-shard / straggler chaos.
struct Uplink {
    machine: MachineId,
    /// `Some` streams to the aggregator; `None` buffers (straggler).
    live: Option<BankFeed>,
    shared: Arc<Mutex<UplinkShared>>,
    corrupt_shard: Option<u64>,
    corrupt_seed: u64,
    crash_after: Option<u64>,
}

impl Transport for Uplink {
    fn upload(&mut self, index: u64, records: &[RawRecord]) -> Result<(), TransportError> {
        let mut shared = self.shared.lock().expect("uplink state");
        if let Some(after) = self.crash_after {
            if shared.sent >= after {
                // The machine is dead: nothing leaves, nobody answers.
                // (The supervisor's view no longer matters — the
                // worker discards its report and returns `Crashed`.)
                return Ok(());
            }
        }
        let mut frame = ShardFrame::pack(self.machine, index, records);
        if self.corrupt_shard == Some(shared.sent) {
            frame = frame.corrupted(self.corrupt_seed);
        }
        shared.sent += 1;
        match &self.live {
            Some(feed) => feed.submit(frame),
            None => shared.buffer.push(frame),
        }
        Ok(())
    }
}

/// Runs one machine under its supervisor; the fleet driver calls this
/// on a dedicated worker thread per machine.
pub(crate) fn run_machine(
    spec: &MachineSpec,
    policy: &FleetPolicy,
    chaos: Option<ChaosEvent>,
    ingest: BankFeed,
    telemetry: Registry,
) -> MachineOutcome {
    let mut crash_after = None;
    let mut corrupt_shard = None;
    let mut outage = None;
    let mut straggle_delay = None;
    match chaos {
        Some(ChaosEvent::Crash { after_shards }) => crash_after = Some(after_shards),
        Some(ChaosEvent::CorruptShard { shard }) => corrupt_shard = Some(shard),
        Some(ChaosEvent::Outage { start, end }) => outage = Some((start, end)),
        Some(ChaosEvent::Straggle { delay_us, .. }) => straggle_delay = Some(delay_us),
        None => {}
    }
    let shared = Arc::new(Mutex::new(UplinkShared::default()));
    let uplink = Uplink {
        machine: spec.id,
        live: if straggle_delay.is_some() {
            None
        } else {
            Some(ingest)
        },
        shared: Arc::clone(&shared),
        corrupt_shard,
        corrupt_seed: spec.seed ^ 0xC0FF_EE00,
        crash_after,
    };
    let transport: Box<dyn Transport> = match outage {
        Some((start, end)) => {
            Box::new(FlakyTransport::new(uplink, 0, spec.seed).with_outage(start, end))
        }
        None => Box::new(uplink),
    };
    let experiment = Experiment::new()
        .profile_all()
        .board(policy.board)
        .scenario(spec.workload.scenario())
        .telemetry(&telemetry);
    let sup_policy = SupervisorPolicy {
        seed: spec.seed,
        // The fleet judges coverage per machine (Degraded, not a hard
        // error): a partial machine still contributes partial truth.
        min_coverage_ppm: 0,
        ..policy.supervisor.clone()
    };
    // With a sentinel policy the machine runs the watch path (flight
    // recorder + sentinel scan over the sealed windows); without one
    // it runs plain supervised capture.  Either way the simulated
    // machine and its uplink traffic are bit-identical: the recorder
    // and sentinel are host-side readers of the same capture stream.
    let (run, profile, alerts) = match &policy.sentinel {
        Some(sp) => match experiment.watch_with(sup_policy, transport, sp.recorder, sp.config) {
            Ok(watch) => {
                let (sentinel, handle) = watch.into_parts();
                (handle.run, handle.profile, sentinel.journal().clone())
            }
            Err(e) => return MachineOutcome::Failed(e),
        },
        None => match experiment.supervised_with(sup_policy, transport) {
            Ok(capture) => (capture.run, capture.profile, AlertJournal::default()),
            Err(e) => return MachineOutcome::Failed(e),
        },
    };
    let mut shared = shared.lock().expect("uplink state");
    if crash_after.is_some() {
        return MachineOutcome::Crashed {
            after_shards: shared.sent,
        };
    }
    let summary = MachineSummary {
        coverage: run.coverage,
        shards_sent: shared.sent,
        final_level: run.final_level,
        drain_lag_us: straggle_delay.unwrap_or(0),
        profile,
        alerts,
    };
    if straggle_delay.is_some() {
        MachineOutcome::Straggling {
            frames: std::mem::take(&mut shared.buffer),
            summary,
        }
    } else {
        MachineOutcome::Finished(summary)
    }
}
