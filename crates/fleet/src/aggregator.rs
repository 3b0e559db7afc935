//! The sharded fleet aggregator: a pool of shard workers, each owning
//! the machines `machine % shards` maps to.
//!
//! The service shape follows the long-running ingest structure of
//! foundry's anvil node: every machine uploads through a cloneable
//! handle onto its owning shard's channel, and every worker runs its
//! own decode loop until the channels drain.  Two properties fall out
//! of that shape:
//!
//! * **Fault isolation** — a corrupt shard is rejected inside one
//!   worker with an [`Error::ShardCorrupt`](hwprof::Error::ShardCorrupt)
//!   recorded against one machine; no other machine's pipeline even
//!   observes it.
//! * **Bit-identical results** — workers never fold across machines.
//!   Each machine folds through its own [`BankFold`] as frames arrive:
//!   every verified bank is decoded once, and banks ahead of a missing
//!   index wait as reconstructed parts, merged in bank-index order —
//!   exactly the order `CaptureSupervisor::finish()` sorts its
//!   sessions into.  The per-machine result therefore matches the
//!   machine's own sequential `Analyzer::run` bit for bit, no matter
//!   how frames interleaved on the wire or how many workers ran, and no
//!   raw records outlive their bank's fold.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use hwprof::Error;
use hwprof_analysis::{BankFold, BankRecon, DenseTagTable, Reconstruction, Symbols};
use hwprof_profiler::parse_raw;
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
    /// Frames rejected (checksum mismatch or unparseable payload).
    pub corrupt_shards: u64,
    /// Frames dropped as duplicates of an already-ingested index
    /// (a hedged re-drain that raced the original delivery).
    pub dup_shards: u64,
    /// One [`Error::ShardCorrupt`] per rejected frame.
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
}

/// The long-running aggregation service.  Spawn it, hand every
/// machine its [`FleetAggregator::sender`], then
/// [`FleetAggregator::finish`] once the fleet has drained.
pub struct FleetAggregator {
    shards: Vec<Sender<ShardFrame>>,
    workers: Vec<JoinHandle<BTreeMap<MachineId, MachineIngest>>>,
}

impl FleetAggregator {
    /// Starts `shards` workers (clamped to at least one), each with
    /// its own decoder built from `tagfile`.
    pub fn spawn(tagfile: &TagFile, shards: usize) -> FleetAggregator {
        let (shards, workers): (Vec<_>, Vec<_>) = (0..shards.max(1))
            .map(|_| {
                let (tx, rx) = channel::<ShardFrame>();
                let tf = tagfile.clone();
                (tx, std::thread::spawn(move || shard_worker(&tf, rx)))
            })
            .unzip();
        FleetAggregator { shards, workers }
    }

    /// The ingest handle of the shard that owns `machine`.  The machine
    /// uploads its own frames through it; dropping every handle (plus
    /// the aggregator's own, at [`FleetAggregator::finish`]) is what
    /// ends the service.
    pub fn sender(&self, machine: MachineId) -> Sender<ShardFrame> {
        self.shards[machine as usize % self.shards.len()].clone()
    }

    /// Feeds one frame to the shard owning `frame.machine` (used for
    /// hedged re-drains, which happen after the machines exited).
    pub fn feed(&self, frame: ShardFrame) {
        // A worker can only be gone if it panicked; the panic
        // resurfaces at finish() when the thread is joined.
        let _ = self.sender(frame.machine).send(frame);
    }

    /// Closes ingest, drains the pipeline, and returns every
    /// machine's ingest.  Worker maps are disjoint by construction
    /// (machine→worker is a function of the id), so the union is a
    /// plain merge.
    pub fn finish(self) -> BTreeMap<MachineId, MachineIngest> {
        drop(self.shards);
        let mut out = BTreeMap::new();
        for worker in self.workers {
            match worker.join() {
                Ok(map) => out.extend(map),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        out
    }
}

fn shard_worker(tagfile: &TagFile, rx: Receiver<ShardFrame>) -> BTreeMap<MachineId, MachineIngest> {
    let table = DenseTagTable::from_tagfile(tagfile);
    let syms = Symbols::from_tagfile(tagfile);
    // One warm bank step serves every machine this worker owns.
    let mut step = BankRecon::new(&table, &syms, false);
    // Per machine: its live fold, and the ingest counters whose
    // `profile` the fold replaces at drain.
    let mut slots: BTreeMap<MachineId, (BankFold, MachineIngest)> = BTreeMap::new();
    for frame in rx {
        let (fold, ingest) = slots
            .entry(frame.machine)
            .or_insert_with(|| (BankFold::new(&syms), MachineIngest::empty(syms.clone())));
        if fold.holds(frame.index) {
            ingest.dup_shards += 1;
            continue;
        }
        let reason = if frame.verify() {
            match parse_raw(&frame.payload) {
                Ok(records) => {
                    fold.push(&mut step, frame.index, &records);
                    ingest.shards += 1;
                    ingest.records += records.len() as u64;
                    continue;
                }
                Err(e) => e.to_string(),
            }
        } else {
            "checksum mismatch".to_string()
        };
        ingest.corrupt_shards += 1;
        ingest.errors.push(Error::ShardCorrupt {
            machine: frame.machine,
            shard: frame.index,
            reason,
        });
    }
    // Ingest closed: merge each machine's parts still waiting behind a
    // bank that never arrived.
    slots
        .into_iter()
        .map(|(machine, (fold, mut ingest))| {
            ingest.profile = fold.finish();
            (machine, ingest)
        })
        .collect()
}
