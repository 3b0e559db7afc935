//! The sharded fleet aggregator: one ingest channel, a dispatcher,
//! and a pool of shard workers.
//!
//! The service shape follows the long-running ingest/dispatch
//! structure of foundry's anvil node: a single cloneable ingest
//! handle feeds a dispatcher thread, which routes each frame to the
//! shard worker that owns its machine (`machine % shards`), and every
//! worker runs its own decode loop until the channels drain.  Two
//! properties fall out of that shape:
//!
//! * **Fault isolation** — a corrupt shard is rejected inside one
//!   worker with an [`Error::ShardCorrupt`](hwprof::Error::ShardCorrupt)
//!   recorded against one machine; no other machine's pipeline even
//!   observes it.
//! * **Bit-identical results** — workers never fold across machines.
//!   Each machine's banks accumulate keyed by bank index and are
//!   reconstructed in index order at [`FleetAggregator::finish`],
//!   which is exactly the order `CaptureSupervisor::finish()` sorts
//!   its sessions into.  The per-machine result therefore matches the
//!   machine's own sequential `Analyzer::run` bit for bit, no matter
//!   how frames interleaved on the wire or how many workers ran.

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use hwprof::Error;
use hwprof_analysis::{BankRecon, DenseTagTable, Reconstruction, Symbols};
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

/// The long-running aggregation service.  Spawn it, clone
/// [`FleetAggregator::sender`] into every machine, then
/// [`FleetAggregator::finish`] once the fleet has drained.
pub struct FleetAggregator {
    ingest: Sender<ShardFrame>,
    dispatcher: JoinHandle<()>,
    workers: Vec<JoinHandle<BTreeMap<MachineId, MachineIngest>>>,
}

impl FleetAggregator {
    /// Starts the dispatcher and `shards` workers (clamped to at
    /// least one), each with its own decoder built from `tagfile`.
    pub fn spawn(tagfile: &TagFile, shards: usize) -> FleetAggregator {
        let shards = shards.max(1);
        let (ingest, rx) = channel::<ShardFrame>();
        let mut worker_txs: Vec<Sender<ShardFrame>> = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, worker_rx) = channel::<ShardFrame>();
            worker_txs.push(tx);
            let tf = tagfile.clone();
            workers.push(std::thread::spawn(move || shard_worker(&tf, worker_rx)));
        }
        let dispatcher = std::thread::spawn(move || {
            for frame in rx {
                let lane = frame.machine as usize % worker_txs.len();
                // A worker can only be gone if it panicked; the panic
                // resurfaces at finish() when the thread is joined.
                let _ = worker_txs[lane].send(frame);
            }
            // rx closed: dropping worker_txs here lets workers drain.
        });
        FleetAggregator {
            ingest,
            dispatcher,
            workers,
        }
    }

    /// A cloneable ingest handle.  Every machine uploads through one
    /// of these; dropping them all (plus the aggregator's own, at
    /// [`FleetAggregator::finish`]) is what ends the service.
    pub fn sender(&self) -> Sender<ShardFrame> {
        self.ingest.clone()
    }

    /// Feeds one frame through the aggregator's own handle (used for
    /// hedged re-drains, which happen after the machines exited).
    pub fn feed(&self, frame: ShardFrame) {
        let _ = self.ingest.send(frame);
    }

    /// Closes ingest, drains the pipeline, and returns every
    /// machine's ingest.  Worker maps are disjoint by construction
    /// (machine→worker is a function of the id), so the union is a
    /// plain merge.
    pub fn finish(self) -> BTreeMap<MachineId, MachineIngest> {
        drop(self.ingest);
        if let Err(panic) = self.dispatcher.join() {
            std::panic::resume_unwind(panic);
        }
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

/// Per-machine accumulation inside one worker: verified banks' parsed
/// records keyed by index, decoded and folded in index order at drain.
struct Slot {
    banks: BTreeMap<u64, Vec<RawRecord>>,
    corrupt: u64,
    dups: u64,
    errors: Vec<Error>,
}

fn shard_worker(tagfile: &TagFile, rx: Receiver<ShardFrame>) -> BTreeMap<MachineId, MachineIngest> {
    let table = DenseTagTable::from_tagfile(tagfile);
    let syms = Symbols::from_tagfile(tagfile);
    let mut slots: BTreeMap<MachineId, Slot> = BTreeMap::new();
    for frame in rx {
        let slot = slots.entry(frame.machine).or_insert_with(|| Slot {
            banks: BTreeMap::new(),
            corrupt: 0,
            dups: 0,
            errors: Vec::new(),
        });
        if slot.banks.contains_key(&frame.index) {
            slot.dups += 1;
            continue;
        }
        let reason = if frame.verify() {
            match parse_raw(&frame.payload) {
                Ok(records) => {
                    slot.banks.insert(frame.index, records);
                    continue;
                }
                Err(e) => e.to_string(),
            }
        } else {
            "checksum mismatch".to_string()
        };
        slot.corrupt += 1;
        slot.errors.push(Error::ShardCorrupt {
            machine: frame.machine,
            shard: frame.index,
            reason,
        });
    }
    // Ingest closed: fold each machine in bank-index order — the same
    // order the machine's own supervisor sorts sessions into, so this
    // reproduces its sequential analysis exactly.
    let mut step = BankRecon::new(&table, &syms, false);
    slots
        .into_iter()
        .map(|(machine, slot)| {
            let mut profile = Reconstruction::empty(syms.clone());
            let mut records = 0u64;
            for bank in slot.banks.values() {
                step.bank_into(bank, &mut profile);
                records += bank.len() as u64;
            }
            let ingest = MachineIngest {
                profile,
                shards: slot.banks.len() as u64,
                records,
                corrupt_shards: slot.corrupt,
                dup_shards: slot.dups,
                errors: slot.errors,
            };
            (machine, ingest)
        })
        .collect()
}
