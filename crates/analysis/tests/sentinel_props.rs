//! Sentinel property suite: evaluation is deterministic (the same
//! window stream yields a byte-identical journal), the hysteresis
//! state machine is monotone (no Firing without two consecutive
//! breaches, no Resolved without two consecutive clears while firing), steady workloads stay silent, and
//! the fleet roll-up equals a plain fold of the member journals.
//!
//! Runs at 256 cases per property (`PROPTEST_CASES` overrides); the CI
//! sentinel job pins exactly that.

use proptest::prelude::*;

use hwprof_analysis::{
    AlertTransition, Detector, FleetAlert, FleetSentinel, MaskVisibility, Reconstruction, Sentinel,
    SentinelConfig, Symbols,
};
use hwprof_profiler::Coverage;
use hwprof_tagfile::{TagFile, TagKind};

/// Windows the sentinel's baseline accumulates before it evaluates.
const WARMUP_WINDOWS: u64 = 3;
/// Consecutive breaching windows before a Pending alert fires.
const FIRE_AFTER: u32 = 2;
/// Consecutive clear windows before a Firing alert resolves.
const RESOLVE_AFTER: u32 = 2;
/// The net-µs a subject spends in a clear (baseline-rate) window.
const CLEAR_NET: u64 = 50;
/// The net-µs a subject spends in a breaching window: 6× baseline,
/// far past the default ±50% threshold at full coverage.
const BREACH_NET: u64 = 300;

fn syms() -> Symbols {
    let mut tf = TagFile::new(500);
    for n in ["bcopy", "ip_input", "tcp_input"] {
        tf.assign(n, TagKind::Function).expect("fresh");
    }
    Symbols::from_tagfile(&tf)
}

fn sym_of(sy: &Symbols, name: &str) -> usize {
    (0..sy.len())
        .find(|&s| sy.name(s as u32) == name)
        .expect("known symbol")
}

const SUBJECTS: [&str; 3] = ["bcopy", "ip_input", "tcp_input"];

/// One fully-covered 1 ms window where `subject` runs `net` µs and
/// every other function is idle (below the noise floor on both sides,
/// so only `subject` is ever evaluated).
fn window(sy: &Symbols, subject: &str, net: u64) -> Reconstruction {
    let mut r = Reconstruction::empty(sy.clone());
    let s = sym_of(sy, subject);
    r.stats[s].calls = net / 10;
    r.stats[s].net = net;
    r.stats[s].elapsed = net;
    r.total_elapsed = 1_000;
    r.tags = 100;
    r.note_coverage(&Coverage {
        timeline_us: 1_000,
        covered_us: 1_000,
        level_us: [1_000, 0, 0],
        ..Coverage::default()
    });
    r
}

/// Drives a fresh sentinel: its warm-up of clear windows, then one
/// window per breach flag (`true` ⇒ the subject runs at the shifted
/// rate).
fn drive(subject: &str, breaches: &[bool]) -> Sentinel {
    let sy = syms();
    let vis = vec![MaskVisibility::UnlessSwitchOnly; sy.len()];
    let mut sent = Sentinel::new(SentinelConfig);
    let mut w = 0u64;
    for _ in 0..WARMUP_WINDOWS {
        let r = window(&sy, subject, CLEAR_NET);
        sent.observe(w, (w + 1) * 1_000, &r, &vis, None);
        w += 1;
    }
    for &b in breaches {
        let net = if b { BREACH_NET } else { CLEAR_NET };
        let r = window(&sy, subject, net);
        sent.observe(w, (w + 1) * 1_000, &r, &vis, None);
        w += 1;
    }
    sent
}

/// The hysteresis contract, simulated independently: the expected
/// (window, transition) sequence for one subject given its breach
/// flags.  Windows are numbered from 0 including warm-up, matching
/// [`drive`].
fn reference_transitions(breaches: &[bool]) -> Vec<(u64, AlertTransition)> {
    let mut out = Vec::new();
    let (mut streak, mut clears, mut firing) = (0u32, 0u32, false);
    for (i, &b) in breaches.iter().enumerate() {
        let w = WARMUP_WINDOWS + i as u64;
        if b {
            if firing {
                clears = 0;
                continue;
            }
            streak += 1;
            clears = 0;
            if streak == 1 {
                out.push((w, AlertTransition::Pending));
            }
            if streak >= FIRE_AFTER {
                firing = true;
                streak = 0;
                out.push((w, AlertTransition::Firing));
            }
        } else if firing {
            clears += 1;
            if clears >= RESOLVE_AFTER {
                firing = false;
                clears = 0;
                streak = 0;
                out.push((w, AlertTransition::Resolved));
            }
        } else {
            streak = 0;
        }
    }
    out
}

/// The roll-up contract, folded by hand: machines per (detector,
/// subject) with any Firing transition, input order then sorted,
/// duplicates dropped.
fn reference_roll_up(
    members: &[(u32, &hwprof_analysis::AlertJournal)],
    quorum: u32,
) -> Vec<FleetAlert> {
    let mut by_pair: std::collections::BTreeMap<(Detector, String), Vec<u32>> =
        std::collections::BTreeMap::new();
    for (id, journal) in members {
        for e in journal.entries() {
            if e.transition == AlertTransition::Firing {
                let ms = by_pair.entry((e.detector, e.subject.clone())).or_default();
                if !ms.contains(id) {
                    ms.push(*id);
                }
            }
        }
    }
    by_pair
        .into_iter()
        .map(|((detector, subject), mut machines)| {
            machines.sort_unstable();
            FleetAlert {
                detector,
                subject,
                fleet_level: machines.len() as u32 >= quorum.max(1),
                machines,
            }
        })
        .collect()
}

fn breach_flags() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec((0u8..2).prop_map(|b| b == 1), 0..40)
}

proptest! {
    #![cases(256)]

    /// Same windows in, same journal out — byte for byte.
    #[test]
    fn evaluation_is_deterministic(flags in breach_flags()) {
        let a = drive("bcopy", &flags);
        let b = drive("bcopy", &flags);
        prop_assert_eq!(a.describe(), b.describe());
        prop_assert_eq!(a.journal().describe(), b.journal().describe());
        prop_assert_eq!(a.firing(), b.firing());
    }

    /// The journal is exactly the reference hysteresis simulation: a
    /// Firing needs two consecutive breaches, a Resolved needs two
    /// consecutive clears while firing, and every entry carries the
    /// exact rate evidence.
    #[test]
    fn hysteresis_matches_reference(flags in breach_flags()) {
        let sent = drive("bcopy", &flags);
        let want = reference_transitions(&flags);
        let got: Vec<(u64, AlertTransition)> = sent
            .journal()
            .entries()
            .iter()
            .map(|e| (e.window, e.transition))
            .collect();
        prop_assert_eq!(got, want);
        for e in sent.journal().entries() {
            prop_assert_eq!(e.detector, Detector::RateShift);
            prop_assert_eq!(&e.subject, "bcopy");
            prop_assert_eq!(e.baseline, CLEAR_NET);
            // The window that drove the transition determines the
            // observed rate: breaches carry the shifted rate, a
            // Resolved lands on a clear window.
            let b = flags[(e.window - WARMUP_WINDOWS) as usize];
            let expect = if b { BREACH_NET } else { CLEAR_NET };
            prop_assert_eq!(e.observed, expect);
            prop_assert_eq!(e.delta, expect as i64 - CLEAR_NET as i64);
        }
    }

    /// A workload that never shifts never alerts, whatever its steady
    /// rate.
    #[test]
    fn steady_workloads_stay_silent(net in 20u64..500, extra in 0usize..40) {
        let sy = syms();
        let vis = vec![MaskVisibility::UnlessSwitchOnly; sy.len()];
        let mut sent = Sentinel::new(SentinelConfig);
        for w in 0..WARMUP_WINDOWS + extra as u64 {
            let r = window(&sy, "bcopy", net);
            sent.observe(w, (w + 1) * 1_000, &r, &vis, None);
        }
        prop_assert!(sent.journal().is_empty(), "{}", sent.describe());
        prop_assert!(sent.firing().is_empty());
    }

    /// The fleet roll-up is a pure fold of the member journals —
    /// grouping, machine dedup, ordering, and quorum promotion all
    /// match the hand-rolled reference.
    #[test]
    fn fleet_roll_up_matches_fold(
        machines in prop::collection::vec((0usize..3, breach_flags()), 1..5),
        quorum in 0u32..5,
        dup_first in 0u8..2,
    ) {
        let sentinels: Vec<Sentinel> = machines
            .iter()
            .map(|(subject, flags)| drive(SUBJECTS[*subject], flags))
            .collect();
        let mut members: Vec<(u32, &hwprof_analysis::AlertJournal)> = sentinels
            .iter()
            .enumerate()
            .map(|(id, s)| (id as u32, s.journal()))
            .collect();
        if dup_first == 1 {
            // The same machine reported twice must not double-count.
            members.push((0, sentinels[0].journal()));
        }
        let got = FleetSentinel::new(quorum).roll_up(&members);
        let want = reference_roll_up(&members, quorum);
        prop_assert_eq!(got, want);
    }
}
