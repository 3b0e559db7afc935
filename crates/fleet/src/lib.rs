//! Fleet-scale capture: N simulated machines sharded into one
//! fault-tolerant aggregator.
//!
//! The paper profiles one kernel on one machine.  This crate is the
//! production-scale extrapolation the ROADMAP aims at: a [`Fleet`]
//! spins up N machines — distinct seeds, distinct workload mixes,
//! each under its own `CaptureSupervisor` on its own worker thread —
//! and streams their capture banks as checksummed [`ShardFrame`]s
//! into a [`FleetAggregator`]: the analysis crate's one bank pool,
//! with one stream per machine and `shards` workers, each machine
//! uploading through a cloneable feed.
//!
//! Robustness is the point.  Each machine is an isolated fault
//! domain with a monotone health state machine ([`MachineHealth`]:
//! Healthy → Degraded → Quarantined → Lost) classified from the
//! circuit-breaker, coverage and shard-integrity signals the pipeline
//! already maintains.  Seeded [`ChaosPlan`]s layer fleet-level
//! failures — machine crash mid-capture, transport outage, corrupt
//! shard, slow straggler — on the PR-2 `FaultInjector`, and the
//! driver answers with per-machine drain deadlines plus one hedged
//! re-drain before writing a straggler off.
//!
//! The payoff of the PR 1–7 monoid work: the aggregator folds each
//! machine's banks in bank-index order (the order its own supervisor
//! sorts sessions into), so every per-machine result — and the
//! [`FleetReport`] merged from them in machine-id order — is
//! bit-identical to the sequential per-machine analysis, regardless
//! of arrival order, shard assignment, worker count, or how many
//! machines died.  Partial-fleet reports are always well-defined,
//! with exact accounting: `covered + dark + lost == fleet timeline`,
//! to the microsecond ([`FleetCoverage::is_exact`]).

mod aggregator;
mod chaos;
mod fleet;
mod frame;
mod health;
mod machine;
mod report;

pub use aggregator::{FleetAggregator, MachineIngest};
pub use chaos::{ChaosEvent, ChaosPlan};
pub use fleet::{Fleet, FleetPolicy, FleetSentinelPolicy, LOST_WINDOW_US};
pub use frame::{checksum, MachineId, ShardFrame};
pub use health::{HealthSignals, MachineHealth};
pub use machine::{MachineOutcome, MachineSpec, MachineSummary, WorkloadMix};
pub use report::{FleetCoverage, FleetOutlier, FleetReport, MachineReport};
