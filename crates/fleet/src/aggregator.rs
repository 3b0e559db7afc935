//! The fleet aggregator: a thin adapter over the one bank pool,
//! [`StreamAnalyzer`], with one stream per machine.  Machines upload
//! through cloneable [`BankFeed`]s; a machine's frames run on worker
//! `machine % shards`, in arrival order.  Two properties fall out:
//!
//! * **Fault isolation** — a frame is verified and parsed inside its
//!   own [`BankJob::records`] on a worker, so a corrupt shard becomes
//!   an [`Error::ShardCorrupt`](hwprof::Error::ShardCorrupt) against one
//!   machine; so does a bank whose analysis panics ("analysis
//!   panicked").  No other machine's stream observes either, and the
//!   health rules quarantine that machine alone.
//! * **Bit-identical results** — each machine folds its verified banks
//!   in bank-index order, the order `CaptureSupervisor::finish()` sorts
//!   its sessions into, so its result matches its own sequential
//!   `Analyzer::run` bit for bit however frames interleaved on the
//!   wire and however many workers ran.

use std::collections::BTreeMap;

use hwprof::Error;
use hwprof_analysis::{BankFeed, BankJob, Reconstruction, StreamAnalyzer, StreamOutcome, Symbols};
use hwprof_profiler::{parse_raw, RawRecord};
use hwprof_tagfile::TagFile;

use crate::frame::{MachineId, ShardFrame};

/// Everything the aggregator ingested for one machine.
#[derive(Debug)]
pub struct MachineIngest {
    /// The machine's reconstruction, folded from its delivered banks
    /// in bank-index order.  Coverage is *not* folded in — the
    /// aggregator never sees the machine's ledger; the fleet driver
    /// adds it from the machine's final report.
    pub profile: Reconstruction,
    /// Banks decoded and folded in.
    pub shards: u64,
    /// Records across those banks.
    pub records: u64,
    /// Frames rejected (checksum mismatch, unparseable payload, or an
    /// analysis that panicked).
    pub corrupt_shards: u64,
    /// Frames dropped as duplicates of an already-ingested index
    /// (a hedged re-drain that raced the original delivery).
    pub dup_shards: u64,
    /// One [`Error::ShardCorrupt`] per rejected frame, in bank-index
    /// order.
    pub errors: Vec<Error>,
}

impl MachineIngest {
    /// The ingest of a machine that never delivered anything.
    pub fn empty(syms: Symbols) -> Self {
        MachineIngest {
            profile: Reconstruction::empty(syms),
            shards: 0,
            records: 0,
            corrupt_shards: 0,
            dup_shards: 0,
            errors: Vec::new(),
        }
    }

    /// The fleet's view of `machine`'s stream: each rejected frame, and
    /// the bank whose analysis panicked, is one corrupt shard.
    fn from_stream(machine: MachineId, stream: StreamOutcome) -> Self {
        let mut rejected = stream.rejections;
        if let Some(bank) = stream.panicked {
            rejected.push((bank, "analysis panicked".to_string()));
            rejected.sort_by_key(|&(index, _)| index);
        }
        MachineIngest {
            profile: stream.profile,
            shards: stream.banks,
            records: stream.records,
            corrupt_shards: rejected.len() as u64,
            dup_shards: stream.duplicates,
            errors: rejected
                .into_iter()
                .map(|(shard, reason)| Error::ShardCorrupt {
                    machine,
                    shard,
                    reason,
                })
                .collect(),
        }
    }
}

impl BankJob for ShardFrame {
    fn stream(&self) -> u32 {
        self.machine
    }

    fn index(&self) -> u64 {
        self.index
    }

    /// Verifies the checksum, then parses the payload: a corrupt frame
    /// is rejected whole, never half-decoded.
    fn records(self: Box<Self>) -> Result<Vec<RawRecord>, String> {
        if !self.verify() {
            return Err("checksum mismatch".to_string());
        }
        parse_raw(&self.payload).map_err(|e| e.to_string())
    }
}

/// The long-running aggregation service.  Spawn it, hand every
/// machine its [`FleetAggregator::handle`], then
/// [`FleetAggregator::finish`] once the fleet has drained.
pub struct FleetAggregator {
    pool: StreamAnalyzer,
}

impl FleetAggregator {
    /// Starts the pool with `shards` workers (clamped to at least one)
    /// against `tagfile`.
    pub fn spawn(tagfile: &TagFile, shards: usize) -> FleetAggregator {
        FleetAggregator {
            pool: StreamAnalyzer::new(tagfile, shards),
        }
    }

    /// The ingest handle machines upload their frames through; every
    /// handle must be dropped before [`FleetAggregator::finish`].
    pub fn handle(&self) -> BankFeed {
        self.pool.feed()
    }

    /// Feeds one frame (used for hedged re-drains, which happen after
    /// the machines exited).
    pub fn feed(&self, frame: ShardFrame) {
        self.pool.feed().submit(frame);
    }

    /// Closes ingest, drains the pool, and returns every machine's
    /// ingest.
    pub fn finish(self) -> BTreeMap<MachineId, MachineIngest> {
        self.pool
            .finish()
            .into_iter()
            .map(|(machine, stream)| (machine, MachineIngest::from_stream(machine, stream)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{HealthSignals, MachineHealth};

    /// A panicked bank among a machine's rejections maps to one more
    /// corrupt shard, in index order, and quarantines the machine.
    #[test]
    fn a_panicked_bank_is_a_corrupt_shard() {
        let syms = Symbols::from_tagfile(&hwprof_tagfile::parse("a/100\n").unwrap());
        let stream = StreamOutcome {
            profile: Reconstruction::empty(syms),
            banks: 3,
            records: 30,
            duplicates: 1,
            rejections: vec![(1, "checksum mismatch".to_string()), (5, "bad".to_string())],
            panicked: Some(4),
        };
        let ingest = MachineIngest::from_stream(7, stream);
        assert_eq!(
            (ingest.shards, ingest.records, ingest.dup_shards),
            (3, 30, 1)
        );
        assert_eq!(ingest.corrupt_shards, 3);
        let shards: Vec<_> = ingest
            .errors
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
            shards,
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
            corrupt_shards: ingest.corrupt_shards,
            shards_missing: 0,
            straggled: false,
        };
        assert_eq!(signals.classify().0, MachineHealth::Quarantined);
    }
}
