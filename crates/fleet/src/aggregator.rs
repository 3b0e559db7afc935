//! The fleet aggregator: a thin adapter over the one bank pool,
//! [`StreamAnalyzer`], with one stream per machine.  Machines upload
//! through cloneable [`BankFeed`]s; a machine's frames run on worker
//! `machine % shards`, in arrival order.  Two properties fall out:
//!
//! * **Fault isolation** — a frame is verified and parsed inside its
//!   own [`BankJob::records`] on a worker, so a corrupt shard is a
//!   rejection in one machine's [`StreamOutcome`], which the fleet
//!   reports as an [`Error::ShardCorrupt`](hwprof::Error::ShardCorrupt)
//!   against that machine; so is a bank whose analysis panics
//!   ("analysis panicked").  No other machine's stream observes
//!   either, and the health rules quarantine that machine alone.
//! * **Bit-identical results** — each machine folds its verified banks
//!   in bank-index order, the order `CaptureSupervisor::finish()` sorts
//!   its sessions into, so its result matches its own sequential
//!   `Analyzer::run` bit for bit however frames interleaved on the
//!   wire and however many workers ran.

use std::collections::BTreeMap;

use hwprof_analysis::{BankFeed, BankJob, StreamAnalyzer, StreamOutcome};
use hwprof_profiler::{parse_raw, RawRecord};
use hwprof_tagfile::TagFile;

use crate::frame::{MachineId, ShardFrame};

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
///
/// [`Fleet::run`](crate::Fleet::run) drives it, and it stays public
/// because perfbench times `spawn`, `feed` and `finish` on their own.
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
    /// stream as the pool left it.
    pub fn finish(self) -> BTreeMap<MachineId, StreamOutcome> {
        self.pool.finish()
    }
}
