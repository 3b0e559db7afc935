//! Deterministic fault injection for the capture/upload path.
//!
//! The paper's capture path is full of physical failure modes: the
//! battery-backed RAMs are hand-carried to the upload host, a stray
//! EPROM read logs a garbage tag, a stuck address counter rewrites the
//! same cell, and an upload can lose its tail.  Hybrid hardware/software
//! tracers (HMTT) treat lost and corrupted records as a first-class
//! design problem; this module makes every one of those faults a
//! seeded, reproducible event so the analysis software's tolerance can
//! be tested and measured.
//!
//! Fault classes, matching the hardware failure they model:
//!
//! * **drop** — a trigger read the board missed (marginal timing on the
//!   EPROM socket): the record never lands in RAM.
//! * **flip** — a RAM bit-flip while the battery-backed RAM is carried
//!   to the host: one of the 40 stored bits inverts.  This also models
//!   a garbled upload byte (the flip happens in transit either way).
//! * **stuck** — the address counter fails to advance for one store, so
//!   the same record appears twice in the image.
//! * **spurious** — a stray EPROM read (e.g. a bus glitch) latches a
//!   garbage tag with the current counter value.
//! * **truncate** — the upload byte stream loses its tail mid-record.
//! * **refusal** — the operator has no empty RAM ready: the drain sink
//!   refuses a bank and the board overflows.
//!
//! All randomness is a seeded [`rand::rngs::StdRng`]; the same spec and
//! seed over the same input always injects the same faults, and every
//! injection is counted in [`InjectedFaults`] so tests can demand that
//! the analysis side accounts for each one.

use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::board::BankSink;
use crate::record::{RawRecord, TIME_MASK};

/// Tags at or above this value are outside any build's tag assignment
/// (assignment starts at 500 and the kernel has a few hundred
/// functions), so spurious reads drawn from here always decode as
/// unknown tags.
pub const SPURIOUS_TAG_BASE: u16 = 0x8000;

/// Fault rates for the capture/upload path, in events per million
/// opportunities (per record for the record-level classes, per upload
/// for truncation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultSpec {
    /// Per-record chance the trigger is dropped (never stored).
    pub drop_ppm: u32,
    /// Per-record chance the address counter sticks (record repeated).
    pub stuck_ppm: u32,
    /// Per-record chance one stored bit flips in transport.
    pub flip_ppm: u32,
    /// Which of the 40 bits a flip inverts (0-15 tag, 16-39 time);
    /// `None` picks a random bit per flip.
    pub flip_bit: Option<u8>,
    /// Per-record chance a spurious garbage-tag read precedes it.
    pub spurious_ppm: u32,
    /// Per-upload chance the byte stream loses 1-4 trailing bytes.
    pub truncate_ppm: u32,
    /// Accept this many banks, then refuse every later one (the
    /// operator ran out of empty RAMs).  `None` never refuses.
    pub refuse_after: Option<u64>,
}

impl FaultSpec {
    /// No faults at all: the injector becomes the identity.
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// Every record-level class plus truncation at the same rate.
    pub fn uniform(ppm: u32) -> Self {
        FaultSpec {
            drop_ppm: ppm,
            stuck_ppm: ppm,
            flip_ppm: ppm,
            flip_bit: None,
            spurious_ppm: ppm,
            truncate_ppm: ppm,
            refuse_after: None,
        }
    }

    /// True if this spec can never alter anything.
    pub fn is_none(&self) -> bool {
        self.drop_ppm == 0
            && self.stuck_ppm == 0
            && self.flip_ppm == 0
            && self.spurious_ppm == 0
            && self.truncate_ppm == 0
            && self.refuse_after.is_none()
    }
}

/// Running totals of every fault actually injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InjectedFaults {
    /// Records dropped (missed triggers).
    pub dropped: u64,
    /// Records repeated by a stuck address counter.
    pub duplicated: u64,
    /// Records with one bit flipped in transport.
    pub flipped: u64,
    /// Spurious garbage-tag records inserted.
    pub spurious: u64,
    /// Uploads whose byte stream lost its tail.
    pub truncations: u64,
    /// Banks refused by the drain sink.
    pub refused_banks: u64,
}

impl InjectedFaults {
    /// Total individual faults injected (refusals excluded: a refused
    /// bank is an overflow, not a corrupted record).
    pub fn total(&self) -> u64 {
        self.dropped + self.duplicated + self.flipped + self.spurious + self.truncations
    }
}

struct InjectorState {
    spec: FaultSpec,
    rng: StdRng,
    counts: InjectedFaults,
    banks_seen: u64,
}

impl InjectorState {
    fn hit(&mut self, ppm: u32) -> bool {
        ppm > 0 && self.rng.gen_range(0u32..1_000_000) < ppm
    }
}

/// A seeded fault injector for the board/upload path.
///
/// Clones share the same state (like [`crate::Profiler`] clones share
/// the board), so an experiment can hand one clone to a drain sink and
/// keep another to read [`FaultInjector::counts`] afterwards.
#[derive(Clone)]
pub struct FaultInjector {
    state: Arc<Mutex<InjectorState>>,
}

impl FaultInjector {
    /// Builds an injector; the same `spec` and `seed` always produce
    /// the same fault schedule over the same inputs.
    pub fn new(spec: FaultSpec, seed: u64) -> Self {
        FaultInjector {
            state: Arc::new(Mutex::new(InjectorState {
                spec,
                rng: StdRng::seed_from_u64(seed),
                counts: InjectedFaults::default(),
                banks_seen: 0,
            })),
        }
    }

    /// Totals of every fault injected so far.
    pub fn counts(&self) -> InjectedFaults {
        self.state.lock().counts
    }

    /// Applies the record-level fault classes (spurious, drop, flip,
    /// stuck) to a RAM image in transit.
    pub fn corrupt_records(&self, records: &[RawRecord]) -> Vec<RawRecord> {
        let mut s = self.state.lock();
        let mut out = Vec::with_capacity(records.len());
        for r in records {
            let ppm = s.spec.spurious_ppm;
            if s.hit(ppm) {
                let tag = SPURIOUS_TAG_BASE | (s.rng.gen_range(0u16..SPURIOUS_TAG_BASE));
                out.push(RawRecord { tag, time: r.time });
                s.counts.spurious += 1;
            }
            let ppm = s.spec.drop_ppm;
            if s.hit(ppm) {
                s.counts.dropped += 1;
                continue;
            }
            let mut rec = *r;
            let ppm = s.spec.flip_ppm;
            if s.hit(ppm) {
                let bit = match s.spec.flip_bit {
                    Some(b) => u32::from(b.min(39)),
                    None => s.rng.gen_range(0u32..40),
                };
                if bit < 16 {
                    rec.tag ^= 1 << bit;
                } else {
                    rec.time = (rec.time ^ (1 << (bit - 16))) & TIME_MASK;
                }
                s.counts.flipped += 1;
            }
            out.push(rec);
            let ppm = s.spec.stuck_ppm;
            if s.hit(ppm) {
                out.push(rec);
                s.counts.duplicated += 1;
            }
        }
        out
    }

    /// Applies the upload-level fault class: the byte stream may lose
    /// 1-4 trailing bytes, always cutting mid-record.
    pub fn corrupt_upload(&self, mut bytes: Vec<u8>) -> Vec<u8> {
        let mut s = self.state.lock();
        let ppm = s.spec.truncate_ppm;
        if bytes.len() >= 5 && s.hit(ppm) {
            let cut = 1 + s.rng.gen_range(0usize..4);
            bytes.truncate(bytes.len() - cut);
            s.counts.truncations += 1;
        }
        bytes
    }

    /// Wraps a drain sink so every bank passes through the injector on
    /// its way out of the board (the transport leg of the streaming
    /// path), and refusal faults fire per the spec.
    pub fn sink(&self, inner: Box<dyn BankSink>) -> FaultySink {
        FaultySink {
            injector: self.clone(),
            inner,
        }
    }
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("FaultInjector")
            .field("spec", &s.spec)
            .field("counts", &s.counts)
            .finish()
    }
}

/// A [`BankSink`] decorator that corrupts banks in transit and models
/// the operator running out of empty RAMs.
pub struct FaultySink {
    injector: FaultInjector,
    inner: Box<dyn BankSink>,
}

impl BankSink for FaultySink {
    fn bank(&mut self, records: Vec<RawRecord>) -> bool {
        let corrupted = {
            let refused = {
                let mut s = self.injector.state.lock();
                s.banks_seen += 1;
                match s.spec.refuse_after {
                    Some(n) if s.banks_seen > n => {
                        s.counts.refused_banks += 1;
                        true
                    }
                    _ => false,
                }
            };
            if refused {
                return false;
            }
            self.injector.corrupt_records(&records)
        };
        self.inner.bank(corrupted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::serialize_raw;

    fn recs(n: u16) -> Vec<RawRecord> {
        (0..n)
            .map(|i| RawRecord {
                tag: 500 + i,
                time: u32::from(i) * 7,
            })
            .collect()
    }

    #[test]
    fn zero_spec_is_identity() {
        let inj = FaultInjector::new(FaultSpec::none(), 42);
        let input = recs(100);
        assert_eq!(inj.corrupt_records(&input), input);
        let bytes = serialize_raw(&input);
        assert_eq!(inj.corrupt_upload(bytes.clone()), bytes);
        assert_eq!(inj.counts(), InjectedFaults::default());
    }

    #[test]
    fn same_seed_same_schedule() {
        let input = recs(500);
        let a = FaultInjector::new(FaultSpec::uniform(50_000), 7);
        let b = FaultInjector::new(FaultSpec::uniform(50_000), 7);
        assert_eq!(a.corrupt_records(&input), b.corrupt_records(&input));
        assert_eq!(a.counts(), b.counts());
        assert!(a.counts().total() > 0, "50000 ppm over 500 records hits");
    }

    #[test]
    fn drops_shrink_and_counts_match() {
        let input = recs(1000);
        let inj = FaultInjector::new(
            FaultSpec {
                drop_ppm: 100_000,
                ..FaultSpec::none()
            },
            1,
        );
        let out = inj.corrupt_records(&input);
        let c = inj.counts();
        assert_eq!(out.len() as u64, input.len() as u64 - c.dropped);
        assert!(c.dropped > 0);
        assert_eq!(c.total(), c.dropped, "only drops enabled");
    }

    #[test]
    fn stuck_counter_duplicates_adjacent() {
        let input = recs(1000);
        let inj = FaultInjector::new(
            FaultSpec {
                stuck_ppm: 100_000,
                ..FaultSpec::none()
            },
            2,
        );
        let out = inj.corrupt_records(&input);
        let c = inj.counts();
        assert_eq!(out.len() as u64, input.len() as u64 + c.duplicated);
        let adjacent_dups = out.windows(2).filter(|w| w[0] == w[1]).count() as u64;
        assert_eq!(adjacent_dups, c.duplicated);
    }

    #[test]
    fn spurious_tags_land_in_garbage_space() {
        let input = recs(1000);
        let inj = FaultInjector::new(
            FaultSpec {
                spurious_ppm: 100_000,
                ..FaultSpec::none()
            },
            3,
        );
        let out = inj.corrupt_records(&input);
        let c = inj.counts();
        let garbage = out.iter().filter(|r| r.tag >= SPURIOUS_TAG_BASE).count() as u64;
        assert_eq!(garbage, c.spurious);
        assert!(c.spurious > 0);
    }

    #[test]
    fn pinned_flip_bit_touches_only_that_bit() {
        let input = recs(1000);
        let inj = FaultInjector::new(
            FaultSpec {
                flip_ppm: 100_000,
                flip_bit: Some(39), // time bit 23
                ..FaultSpec::none()
            },
            4,
        );
        let out = inj.corrupt_records(&input);
        let c = inj.counts();
        let mut flips = 0u64;
        for (a, b) in input.iter().zip(&out) {
            if a != b {
                assert_eq!(a.tag, b.tag);
                assert_eq!(a.time ^ b.time, 1 << 23);
                flips += 1;
            }
        }
        assert_eq!(flips, c.flipped);
        assert!(c.flipped > 0);
    }

    #[test]
    fn truncation_cuts_mid_record() {
        let inj = FaultInjector::new(
            FaultSpec {
                truncate_ppm: 1_000_000,
                ..FaultSpec::none()
            },
            5,
        );
        let bytes = serialize_raw(&recs(20));
        let cut = inj.corrupt_upload(bytes.clone());
        assert!(cut.len() < bytes.len());
        assert!(!cut.len().is_multiple_of(5), "always a mid-record cut");
        assert_eq!(inj.counts().truncations, 1);
    }

    #[test]
    fn refusal_fires_after_n_banks() {
        let inj = FaultInjector::new(
            FaultSpec {
                refuse_after: Some(2),
                ..FaultSpec::none()
            },
            6,
        );
        let keep = crate::board::tests::KeepSink::new(usize::MAX);
        let kept = keep.banks.clone();
        let mut sink = inj.sink(Box::new(keep));
        assert!(sink.bank(recs(4)));
        assert!(sink.bank(recs(4)));
        assert!(!sink.bank(recs(4)), "third bank refused");
        assert!(!sink.bank(recs(4)), "and every one after");
        assert_eq!(inj.counts().refused_banks, 2);
        assert_eq!(kept.lock().len(), 2);
    }
}
