//! The fleet driver: spins machines up, arbitrates stragglers, and
//! assembles the partial-fleet report.
//!
//! `Fleet::run` is deliberately wall-clock-free: machine threads run
//! concurrently but every decision — straggler detection against the
//! drain deadline, the one hedged re-drain, health classification,
//! the merge order — is a function of simulated time and machine id
//! alone, so two runs (or two aggregator worker counts) produce byte
//! identical reports.

use hwprof::instrument::ModuleSelect;
use hwprof::{build_tagfile, Error};
use hwprof_analysis::{
    AlertJournal, FleetAlert, FleetSentinel, Reconstruction, SentinelConfig, StreamOutcome, Symbols,
};
use hwprof_profiler::{BoardConfig, RecorderConfig, SupervisorPolicy};
use hwprof_telemetry::Registry;

use crate::aggregator::FleetAggregator;
use crate::chaos::{ChaosEvent, ChaosPlan};
use crate::frame::MachineId;
use crate::health::{HealthSignals, MachineHealth};
use crate::machine::{run_machine, MachineOutcome, MachineSpec, MachineSummary, WorkloadMix};
use crate::report::{find_outliers, FleetCoverage, FleetOutlier, FleetReport, MachineReport};

/// A machine whose drain lags more than this (simulated µs past its
/// capture end) is a straggler: one hedged re-drain, then give up and
/// write the machine off as Lost.
const DRAIN_DEADLINE_US: u64 = 25_000;

/// The observation window a Lost machine is assessed at in the fleet
/// ledger: it reported nothing, so the fleet charges the window it was
/// *supposed* to cover.
pub const LOST_WINDOW_US: u64 = 2_000_000;

/// Every knob of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetPolicy {
    /// Machines to simulate.
    pub machines: u32,
    /// Aggregator shard workers.  Results are bit-identical for any
    /// value; more workers only change wall-clock time.
    pub shards: usize,
    /// Per-machine supervisor policy (each machine overrides the
    /// seed, and `min_coverage_ppm` is forced to 0 — the fleet
    /// classifies low coverage as Degraded instead of erroring).
    pub supervisor: SupervisorPolicy,
    /// Per-machine board.
    pub board: BoardConfig,
    /// Fleet seed; machine seeds derive from it.
    pub seed: u64,
    /// Per-machine regression watching: `Some` runs every machine
    /// through `Experiment::watch` (flight recorder + sentinel) and
    /// rolls member alerts up into the fleet report; `None` (the
    /// default) leaves the capture path — and the report — exactly as
    /// it was without sentinels.
    pub sentinel: Option<FleetSentinelPolicy>,
}

/// The sentinel knobs of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetSentinelPolicy {
    /// Per-machine flight-recorder config.
    pub recorder: RecorderConfig,
    /// Per-machine sentinel config, which has no settings left (see
    /// [`SentinelConfig`]).
    pub config: SentinelConfig,
    /// Machines a (detector, subject) pair must fire on to promote to
    /// a fleet-level alert.
    pub quorum: u32,
}

impl Default for FleetSentinelPolicy {
    fn default() -> Self {
        FleetSentinelPolicy {
            recorder: RecorderConfig::default(),
            config: SentinelConfig,
            quorum: 2,
        }
    }
}

impl Default for FleetPolicy {
    fn default() -> Self {
        FleetPolicy {
            machines: 4,
            shards: 2,
            supervisor: SupervisorPolicy::default(),
            board: BoardConfig {
                capacity: 4096,
                time_bits: 24,
            },
            seed: 0x1993_0617,
            sentinel: None,
        }
    }
}

/// Derives machine `id`'s seed from the fleet seed (splitmix-style
/// odd-constant stride keeps neighbours decorrelated).
fn machine_seed(fleet_seed: u64, id: MachineId) -> u64 {
    fleet_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(id) + 1))
}

/// `machine`'s stream as the fleet reports it: the profile, the banks
/// folded in, the duplicates dropped, and one [`Error::ShardCorrupt`]
/// per rejected frame and for the bank whose analysis panicked, in
/// bank-index order.  A machine with no stream delivered nothing.
fn machine_shards(
    machine: MachineId,
    stream: Option<StreamOutcome>,
    syms: &Symbols,
) -> (Reconstruction, u64, u64, Vec<Error>) {
    let Some(stream) = stream else {
        return (Reconstruction::empty(syms.clone()), 0, 0, Vec::new());
    };
    let mut rejected = stream.rejections;
    if let Some(bank) = stream.panicked {
        rejected.push((bank, "analysis panicked".to_string()));
        rejected.sort_by_key(|&(index, _)| index);
    }
    let errors = rejected
        .into_iter()
        .map(|(shard, reason)| Error::ShardCorrupt {
            machine,
            shard,
            reason,
        })
        .collect();
    (stream.profile, stream.banks, stream.duplicates, errors)
}

/// What the driver decided about one machine after arbitration.
enum Fate {
    Kept {
        summary: Box<MachineSummary>,
        straggled: bool,
        hedged: bool,
    },
    Lost {
        reason: String,
        hedged: bool,
        shards_sent: u64,
        errors: Vec<Error>,
    },
}

/// A fleet of N simulated machines draining into one sharded
/// aggregator.
///
/// ```no_run
/// use hwprof_fleet::{ChaosPlan, Fleet, FleetPolicy};
/// let report = Fleet::new(FleetPolicy { machines: 8, ..FleetPolicy::default() })
///     .chaos(ChaosPlan::seeded(7, 8))
///     .run()
///     .unwrap();
/// assert!(report.coverage.is_exact());
/// ```
pub struct Fleet {
    policy: FleetPolicy,
    chaos: ChaosPlan,
    /// Inert unless [`Fleet::telemetry`] set a live registry.
    telemetry: Registry,
}

impl Fleet {
    /// A fleet with no chaos and no telemetry.
    pub fn new(policy: FleetPolicy) -> Fleet {
        Fleet {
            policy,
            chaos: ChaosPlan::none(),
            telemetry: Registry::default(),
        }
    }

    /// Installs a chaos plan.
    #[must_use]
    pub fn chaos(mut self, plan: ChaosPlan) -> Fleet {
        self.chaos = plan;
        self
    }

    /// Publishes every machine's metrics into `registry` under its
    /// own `m{id}.` prefix, so one snapshot serves the whole fleet.
    #[must_use]
    pub fn telemetry(mut self, registry: &Registry) -> Fleet {
        self.telemetry = registry.clone();
        self
    }

    /// Runs the fleet to completion and assembles the report.
    pub fn run(self) -> Result<FleetReport, Error> {
        let Fleet {
            policy,
            chaos,
            telemetry,
        } = self;
        // One deterministic compile serves every machine: same
        // modules, same tag file, one shared symbol table.
        let tagfile = build_tagfile(&ModuleSelect::All)?;
        let syms = Symbols::from_tagfile(&tagfile);
        let aggregator = FleetAggregator::spawn(&tagfile, policy.shards);
        let specs: Vec<MachineSpec> = (0..policy.machines)
            .map(|id| MachineSpec {
                id,
                seed: machine_seed(policy.seed, id),
                workload: WorkloadMix::for_index(id),
            })
            .collect();
        // Each machine under its own supervisor on its own thread.
        let outcomes: Vec<MachineOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = specs
                .iter()
                .map(|spec| {
                    let ingest = aggregator.handle();
                    let registry = telemetry.prefixed(&format!("m{}.", spec.id));
                    let event = chaos.event(spec.id);
                    let policy = &policy;
                    scope.spawn(move || run_machine(spec, policy, event, ingest, registry))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        // Arbitration, in machine-id order: straggler deadline and
        // the one hedged re-drain happen before the aggregator seals.
        let fates: Vec<Fate> = specs
            .iter()
            .zip(outcomes)
            .map(|(spec, outcome)| match outcome {
                MachineOutcome::Finished(summary) => Fate::Kept {
                    summary: Box::new(summary),
                    straggled: false,
                    hedged: false,
                },
                MachineOutcome::Straggling { frames, summary } => {
                    if summary.drain_lag_us <= DRAIN_DEADLINE_US {
                        // Slow but inside the deadline: a late drain,
                        // not a straggler.
                        for frame in frames {
                            aggregator.feed(frame);
                        }
                        Fate::Kept {
                            summary: Box::new(summary),
                            straggled: false,
                            hedged: false,
                        }
                    } else {
                        // Straggler: one hedged re-drain, then give up.
                        let recovers = matches!(
                            chaos.event(spec.id),
                            Some(ChaosEvent::Straggle {
                                hedge_recovers: true,
                                ..
                            })
                        );
                        if recovers {
                            for frame in frames {
                                aggregator.feed(frame);
                            }
                            Fate::Kept {
                                summary: Box::new(summary),
                                straggled: true,
                                hedged: true,
                            }
                        } else {
                            Fate::Lost {
                                reason: format!(
                                    "straggler (drain lag {} us > deadline {} us); \
                                     hedged re-drain failed",
                                    summary.drain_lag_us, DRAIN_DEADLINE_US
                                ),
                                hedged: true,
                                shards_sent: summary.shards_sent,
                                errors: Vec::new(),
                            }
                        }
                    }
                }
                MachineOutcome::Crashed { after_shards } => Fate::Lost {
                    reason: format!("crashed mid-capture after {after_shards} shard(s)"),
                    hedged: false,
                    shards_sent: after_shards,
                    errors: Vec::new(),
                },
                MachineOutcome::Failed(e) => Fate::Lost {
                    reason: format!("run failed: {e}"),
                    hedged: false,
                    shards_sent: 0,
                    errors: vec![e],
                },
            })
            .collect();
        let mut ingested = aggregator.finish();
        // Assembly, in machine-id order.  Exclusion is by
        // construction: a machine's reconstruction is merged into the
        // fleet profile only after it classifies as included — there
        // is no merge-then-subtract path.
        let mut fleet_profile = Reconstruction::empty(syms.clone());
        let mut coverage = FleetCoverage {
            machines: policy.machines,
            ..FleetCoverage::default()
        };
        let mut machines = Vec::with_capacity(specs.len());
        for (spec, fate) in specs.iter().zip(fates) {
            let (stream_profile, shards, dup_shards, shard_errors) =
                machine_shards(spec.id, ingested.remove(&spec.id), &syms);
            let corrupt_shards = shard_errors.len() as u64;
            let report = match fate {
                Fate::Kept {
                    summary,
                    straggled,
                    hedged,
                } => {
                    let arrived = shards + corrupt_shards + dup_shards;
                    let signals = HealthSignals {
                        alive: true,
                        coverage_ppm: summary.coverage.covered_ppm(),
                        breaker_trips: summary.coverage.breaker_trips,
                        corrupt_shards,
                        shards_missing: summary.shards_sent.saturating_sub(arrived),
                        straggled,
                    };
                    let (health, reasons) = signals.classify();
                    let cov = summary.coverage;
                    coverage.timeline_us += cov.timeline_us;
                    let profile = if health.is_included() {
                        coverage.covered_us += cov.covered_us;
                        coverage.dark_us += cov.gap_us;
                        let mut profile = stream_profile;
                        profile.note_coverage(&cov);
                        fleet_profile.merge(profile.clone());
                        Some(profile)
                    } else {
                        // Quarantined: its whole timeline is written
                        // off and its shards never touch the merge.
                        coverage.lost_us += cov.timeline_us;
                        None
                    };
                    MachineReport {
                        id: spec.id,
                        workload: spec.workload.name(),
                        seed: spec.seed,
                        health,
                        reasons,
                        coverage: Some(cov),
                        profile,
                        local_profile: Some(summary.profile),
                        alerts: summary.alerts,
                        shards,
                        corrupt_shards,
                        dup_shards,
                        shards_sent: summary.shards_sent,
                        straggled,
                        hedged,
                        errors: shard_errors,
                    }
                }
                Fate::Lost {
                    reason,
                    hedged,
                    shards_sent,
                    mut errors,
                } => {
                    coverage.timeline_us += LOST_WINDOW_US;
                    coverage.lost_us += LOST_WINDOW_US;
                    errors.extend(shard_errors);
                    MachineReport {
                        id: spec.id,
                        workload: spec.workload.name(),
                        seed: spec.seed,
                        health: MachineHealth::Lost,
                        reasons: vec![reason],
                        coverage: None,
                        profile: None,
                        local_profile: None,
                        alerts: AlertJournal::default(),
                        shards,
                        corrupt_shards,
                        dup_shards,
                        shards_sent,
                        straggled: false,
                        hedged,
                        errors,
                    }
                }
            };
            machines.push(report);
        }
        let members: Vec<(MachineId, &Reconstruction)> = machines
            .iter()
            .filter_map(|m| m.profile.as_ref().map(|p| (m.id, p)))
            .collect();
        let outliers: Vec<FleetOutlier> = find_outliers(&members);
        // Alert roll-up: a pure fold of member journals.  Without a
        // sentinel policy every journal is empty and so is the fold.
        let alerts: Vec<FleetAlert> = match &policy.sentinel {
            Some(sp) => {
                let journals: Vec<(MachineId, &AlertJournal)> =
                    machines.iter().map(|m| (m.id, &m.alerts)).collect();
                FleetSentinel::new(sp.quorum).roll_up(&journals)
            }
            None => Vec::new(),
        };
        Ok(FleetReport {
            profile: fleet_profile,
            coverage,
            machines,
            outliers,
            alerts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwprof_profiler::Coverage;

    /// A panicked bank among a machine's rejections maps to one more
    /// corrupt shard, in index order, and quarantines the machine.
    #[test]
    fn a_panicked_bank_is_a_corrupt_shard() {
        let syms = Symbols::from_tagfile(&hwprof_tagfile::parse("a/100\n").unwrap());
        let stream = StreamOutcome {
            profile: Reconstruction::empty(syms.clone()),
            banks: 3,
            records: 30,
            duplicates: 1,
            rejections: vec![(1, "checksum mismatch".to_string()), (5, "bad".to_string())],
            panicked: Some(4),
        };
        let (_, shards, dup_shards, errors) = machine_shards(7, Some(stream), &syms);
        assert_eq!((shards, dup_shards), (3, 1));
        assert_eq!(errors.len(), 3);
        let corrupt: Vec<_> = errors
            .iter()
            .map(|e| match e {
                Error::ShardCorrupt {
                    machine: 7,
                    shard,
                    reason,
                } => (*shard, reason.as_str()),
                other => panic!("unexpected error {other}"),
            })
            .collect();
        assert_eq!(
            corrupt,
            [
                (1, "checksum mismatch"),
                (4, "analysis panicked"),
                (5, "bad")
            ]
        );
        let signals = HealthSignals {
            alive: true,
            coverage_ppm: 1_000_000,
            breaker_trips: 0,
            corrupt_shards: errors.len() as u64,
            shards_missing: 0,
            straggled: false,
        };
        assert_eq!(signals.classify().0, MachineHealth::Quarantined);
    }

    /// The coverage floor is exact in integer ppm: a ledger of exactly
    /// 900 000 ppm is Healthy and one of 899 999 ppm is Degraded.
    #[test]
    fn coverage_at_the_floor_is_healthy() {
        let health = |covered_us: u64, timeline_us: u64| {
            let coverage = Coverage {
                timeline_us,
                covered_us,
                gap_us: timeline_us - covered_us,
                ..Coverage::empty()
            };
            HealthSignals {
                alive: true,
                coverage_ppm: coverage.covered_ppm(),
                ..HealthSignals::default()
            }
            .classify()
            .0
        };
        assert_eq!(health(900_000, 1_000_000), MachineHealth::Healthy);
        assert_eq!(health(899_999, 1_000_000), MachineHealth::Degraded);
        assert_eq!(health(0, 0), MachineHealth::Healthy, "empty timeline");
    }
}
