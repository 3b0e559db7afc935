//! Fleet-aggregation property suite: the sharded aggregator must be a
//! pure function of *which* frames arrived, never of how they arrived.
//!
//! Machines here are synthetic — balanced call streams over a small
//! tag file, chunked into banks and packed as [`ShardFrame`]s — so the
//! suite drives the aggregator directly, without kernel simulations.
//! Three invariants, 256 cases each (`PROPTEST_CASES` overrides; the
//! CI fleet job pins exactly that):
//!
//! 1. every per-machine ingest is bit-identical to a sequential
//!    single-threaded oracle built from the row decoder, and the fleet
//!    merge equals the merge of the oracles in machine-id order;
//! 2. arrival order, shard-worker count, and duplicate (hedged)
//!    deliveries change nothing;
//! 3. a machine with a corrupt shard is excluded *by construction*:
//!    the fleet profile is bit-identical to a run where that machine
//!    never uploaded at all.

use proptest::prelude::*;

use hwprof_analysis::{
    Anomalies, Reconstruction, SessionDecoder, SessionRecon, StreamOutcome, Symbols, TagMap,
};
use hwprof_fleet::{FleetAggregator, MachineId, ShardFrame};
use hwprof_profiler::RawRecord;
use hwprof_tagfile::{TagFile, TagKind};

/// A tag file with `nfns` plain functions and one context-switch tag.
fn fleet_tagfile(nfns: u16) -> (TagFile, Vec<u16>, u16) {
    let mut tf = TagFile::new(500);
    let tags: Vec<u16> = (0..nfns)
        .map(|i| {
            tf.assign(&format!("f{i}"), TagKind::Function)
                .expect("fresh")
        })
        .collect();
    let swtch = tf.assign("swtch", TagKind::ContextSwitch).expect("fresh");
    (tf, tags, swtch)
}

/// A balanced call stream (strictly increasing time, bounded stack,
/// periodic context switches) chunked into banks of `chunk` records.
/// Chunk boundaries land wherever they land: orphan entries/exits at
/// bank edges are part of what the aggregator must reproduce exactly.
fn machine_banks(tags: &[u16], swtch: u16, ops: &[(u8, u8)], chunk: usize) -> Vec<Vec<RawRecord>> {
    let mut records = Vec::new();
    let mut stack: Vec<u16> = Vec::new();
    let mut t = 500u64;
    for (i, &(sel, dt)) in ops.iter().enumerate() {
        t += u64::from(dt) + 1;
        if sel % 3 == 0 && !stack.is_empty() {
            let tag = stack.pop().expect("checked");
            records.push(RawRecord::latch(tag + 1, t));
        } else if stack.len() < 10 {
            let tag = tags[sel as usize % tags.len()];
            stack.push(tag);
            records.push(RawRecord::latch(tag, t));
        }
        if i % 13 == 12 {
            t += 2;
            records.push(RawRecord::latch(swtch, t));
            t += 2;
            records.push(RawRecord::latch(swtch + 1, t));
        }
    }
    for tag in stack.into_iter().rev() {
        t += 3;
        records.push(RawRecord::latch(tag + 1, t));
    }
    records.chunks(chunk.max(1)).map(<[_]>::to_vec).collect()
}

/// Packs one machine's banks into indexed frames.
fn frames_for(machine: MachineId, banks: &[Vec<RawRecord>]) -> Vec<ShardFrame> {
    banks
        .iter()
        .enumerate()
        .map(|(i, bank)| ShardFrame::pack(machine, i as u64, bank))
        .collect()
}

/// The sequential single-threaded oracle: the *row* decoder (a fresh
/// [`SessionDecoder`] per bank — a different implementation from the
/// aggregator's columnar path), folded in bank-index order exactly as
/// one machine's own analysis would.
fn oracle(tf: &TagFile, banks: &[Vec<RawRecord>]) -> Reconstruction {
    let map = TagMap::from_tagfile(tf);
    let syms = Symbols::from_tagfile(tf);
    let mut profile = Reconstruction::empty(syms.clone());
    let mut recon = SessionRecon::new(&syms, false);
    let mut anomalies = Anomalies::default();
    for bank in banks {
        let mut decoder = SessionDecoder::new(&map);
        let mut events = Vec::new();
        decoder.extend(bank, &mut events);
        recon.session_into(&events, &mut profile);
        anomalies.merge(&decoder.anomalies());
    }
    profile.note(&anomalies);
    profile
}

/// Splitmix-style hash for deterministic frame shuffles.
fn mix(seed: u64, machine: MachineId, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(u64::from(machine).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs frames through a fresh aggregator and returns its final map.
fn aggregate(
    tf: &TagFile,
    shards: usize,
    frames: impl IntoIterator<Item = ShardFrame>,
) -> std::collections::BTreeMap<MachineId, StreamOutcome> {
    let agg = FleetAggregator::spawn(tf, shards);
    for frame in frames {
        agg.feed(frame);
    }
    agg.finish()
}

/// Merges per-machine reconstructions in machine-id order.
fn fleet_merge(syms: &Symbols, parts: Vec<Reconstruction>) -> Reconstruction {
    let mut out = Reconstruction::empty(syms.clone());
    for part in parts {
        out.merge(part);
    }
    out
}

proptest! {
    #![cases(256)]

    /// Per-machine aggregator output is bit-identical to the
    /// sequential row-decoder oracle, and the fleet merge equals the
    /// merge of the oracles in machine-id order — for any machine
    /// count, bank chunking, and worker count.
    #[test]
    fn aggregator_matches_sequential_oracle(
        nfns in 1u16..5,
        machine_ops in prop::collection::vec(
            prop::collection::vec((0u8..=255, 0u8..30), 8..120), 1..5),
        chunk in 4usize..40,
        shards in 1usize..5,
    ) {
        let (tf, tags, swtch) = fleet_tagfile(nfns);
        let syms = Symbols::from_tagfile(&tf);
        let all_banks: Vec<Vec<Vec<RawRecord>>> = machine_ops
            .iter()
            .map(|ops| machine_banks(&tags, swtch, ops, chunk))
            .collect();
        let frames: Vec<ShardFrame> = all_banks
            .iter()
            .enumerate()
            .flat_map(|(m, banks)| frames_for(m as MachineId, banks))
            .collect();
        let mut got = aggregate(&tf, shards, frames);
        let mut oracle_parts = Vec::new();
        for (m, banks) in all_banks.iter().enumerate() {
            let want = oracle(&tf, banks);
            let ingest = got.remove(&(m as MachineId)).expect("machine ingested");
            prop_assert!(
                ingest.profile == want,
                "machine {m}: aggregator diverged from sequential oracle"
            );
            prop_assert_eq!(ingest.banks, banks.len() as u64);
            prop_assert!(ingest.rejections.is_empty() && ingest.panicked.is_none());
            prop_assert_eq!(
                ingest.records,
                banks.iter().map(Vec::len).sum::<usize>() as u64
            );
            oracle_parts.push(want);
        }
        prop_assert!(got.is_empty(), "aggregator invented machines: {:?}", got.keys());
        // The fleet-level merge is the same monoid fold either way.
        let from_oracles = fleet_merge(&syms, oracle_parts);
        let from_aggregator = fleet_merge(
            &syms,
            all_banks.iter().map(|banks| oracle(&tf, banks)).collect(),
        );
        prop_assert!(from_oracles == from_aggregator);
    }

    /// Arrival order, worker count, and duplicate (hedged) deliveries
    /// are all invisible in the result: only *which* frames arrived
    /// matters, and the first copy of a duplicate wins.
    #[test]
    fn arrival_order_shards_and_dups_do_not_matter(
        nfns in 1u16..5,
        machine_ops in prop::collection::vec(
            prop::collection::vec((0u8..=255, 0u8..30), 8..100), 2..5),
        chunk in 4usize..30,
        shards in 1usize..5,
        shuffle_seed in 0u64..1_000_000,
        dup_every in 1usize..4,
    ) {
        let (tf, tags, swtch) = fleet_tagfile(nfns);
        let all_banks: Vec<Vec<Vec<RawRecord>>> = machine_ops
            .iter()
            .map(|ops| machine_banks(&tags, swtch, ops, chunk))
            .collect();
        let frames: Vec<ShardFrame> = all_banks
            .iter()
            .enumerate()
            .flat_map(|(m, banks)| frames_for(m as MachineId, banks))
            .collect();
        // Baseline: machine-major order, one worker, no duplicates.
        let baseline = aggregate(&tf, 1, frames.clone());
        // Variant: deterministic shuffle, `shards` workers, and every
        // `dup_every`-th frame delivered twice (a hedge that raced its
        // own original).
        let mut shuffled = frames;
        shuffled.sort_by_key(|f| mix(shuffle_seed, f.machine, f.index));
        let mut variant_feed = Vec::new();
        let mut dups_fed = 0u64;
        for (i, frame) in shuffled.into_iter().enumerate() {
            if i % dup_every == 0 {
                variant_feed.push(frame.clone());
                dups_fed += 1;
            }
            variant_feed.push(frame);
        }
        let variant = aggregate(&tf, shards, variant_feed);
        prop_assert_eq!(baseline.len(), variant.len());
        for (m, base) in &baseline {
            let got = &variant[m];
            prop_assert!(
                got.profile == base.profile,
                "machine {m}: shuffle/shards/dups changed the reconstruction"
            );
            prop_assert_eq!(got.banks, base.banks);
            prop_assert_eq!(got.records, base.records);
            prop_assert!(got.rejections.is_empty() && got.panicked.is_none());
        }
        // Duplicates were counted, not folded: every doubled frame is
        // one recorded dup somewhere.
        let total_dups: u64 = variant.values().map(|i| i.duplicates).sum();
        prop_assert_eq!(total_dups, dups_fed);
    }

    /// Exclusion by construction: corrupt one machine's shard and the
    /// fleet profile over the *other* machines is bit-identical to a
    /// run where the quarantined machine never uploaded at all.  The
    /// rejected shard surfaces as a non-retryable
    /// [`hwprof::Error::ShardCorrupt`], and the victim's delivered
    /// banks stay available for forensics.
    #[test]
    fn corrupt_machine_is_excluded_bit_identically(
        nfns in 1u16..5,
        machine_ops in prop::collection::vec(
            prop::collection::vec((0u8..=255, 0u8..30), 20..100), 2..5),
        chunk in 4usize..20,
        shards in 1usize..5,
        victim_sel in 0usize..8,
        corrupt_seed in 0u64..1_000_000,
    ) {
        let (tf, tags, swtch) = fleet_tagfile(nfns);
        let syms = Symbols::from_tagfile(&tf);
        let all_banks: Vec<Vec<Vec<RawRecord>>> = machine_ops
            .iter()
            .map(|ops| machine_banks(&tags, swtch, ops, chunk))
            .collect();
        let victim = (victim_sel % all_banks.len()) as MachineId;
        let mut chaotic = Vec::new();
        let mut without_victim = Vec::new();
        for (m, banks) in all_banks.iter().enumerate() {
            let m = m as MachineId;
            for frame in frames_for(m, banks) {
                if m == victim {
                    // Corrupt the victim's last frame in transit.
                    if frame.index == banks.len() as u64 - 1 {
                        chaotic.push(frame.corrupted(corrupt_seed));
                    } else {
                        chaotic.push(frame);
                    }
                } else {
                    without_victim.push(frame.clone());
                    chaotic.push(frame);
                }
            }
        }
        let mut with_chaos = aggregate(&tf, shards, chaotic);
        let clean = aggregate(&tf, shards, without_victim);
        // The victim's rejection is explicit, typed, and terminal.
        let v = with_chaos.remove(&victim).expect("victim ingested");
        prop_assert_eq!(v.panicked, None);
        prop_assert_eq!(v.rejections.len(), 1);
        let (shard, reason) = v.rejections[0].clone();
        prop_assert_eq!(shard, all_banks[victim as usize].len() as u64 - 1);
        // The fleet reports the rejection as this error.
        let error = hwprof::Error::ShardCorrupt { machine: victim, shard, reason };
        prop_assert!(!error.is_retryable(), "corrupt shard must not be retryable");
        // Exclude the victim (as the fleet driver does for Quarantined
        // machines) and the merge matches the never-uploaded world.
        let survivors = fleet_merge(
            &syms,
            with_chaos.into_values().map(|i| i.profile).collect(),
        );
        let never_sent = fleet_merge(
            &syms,
            clean.into_values().map(|i| i.profile).collect(),
        );
        prop_assert!(
            survivors == never_sent,
            "excluding the quarantined machine is not bit-identical to never merging it"
        );
    }
}
