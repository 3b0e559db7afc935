//! Joins live telemetry with the [`Coverage`] ledger and proves they
//! agree.
//!
//! The supervisor increments its telemetry counters at the same code
//! sites as the ledger fields (all gap pushes go through one helper),
//! so after `finish()` the two accountings must be *exactly* equal —
//! `sup.gap_us.*` sums to the ledger's dark time, `transport.*`
//! matches the retry stack's counts, and the gap-width histogram's
//! count and sum are the ledger's gap count and dark time.
//! [`HealthReport::discrepancies`] checks every pairing; an empty list
//! is the proof, and the `Display` form prints the joined table an
//! operator would read.

use hwprof_telemetry::Snapshot;

use crate::supervisor::Coverage;

/// A post-run join of the telemetry snapshot and the coverage ledger.
#[derive(Debug, Clone)]
pub struct HealthReport {
    snapshot: Snapshot,
    coverage: Coverage,
}

/// One metric↔ledger pairing the report verifies and prints.
struct Pairing {
    label: &'static str,
    metric: &'static str,
    live: Option<u64>,
    ledger: u64,
}

impl HealthReport {
    /// Builds the report from a post-`finish` snapshot and the run's
    /// final coverage totals.
    pub fn new(snapshot: Snapshot, coverage: Coverage) -> Self {
        HealthReport { snapshot, coverage }
    }

    /// The snapshot half of the join.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snapshot
    }

    /// The ledger half of the join.
    pub fn coverage(&self) -> &Coverage {
        &self.coverage
    }

    fn pairings(&self) -> Vec<Pairing> {
        let c = &self.coverage;
        let gap_us_sum = [
            "sup.gap_us.overflow",
            "sup.gap_us.drain",
            "sup.gap_us.bank_lost",
        ]
        .iter()
        .try_fold(0u64, |acc, n| Some(acc + self.snapshot.value(n)?));
        vec![
            Pairing {
                label: "timeline us",
                metric: "sup.timeline_us",
                live: self.snapshot.value("sup.timeline_us"),
                ledger: c.timeline_us,
            },
            Pairing {
                label: "covered us",
                metric: "sup.covered_us",
                live: self.snapshot.value("sup.covered_us"),
                ledger: c.covered_us,
            },
            Pairing {
                label: "dark us (by cause)",
                metric: "sup.gap_us.*",
                live: gap_us_sum,
                ledger: c.gap_us,
            },
            Pairing {
                label: "dark us (histogram)",
                metric: "sup.gap_width_us",
                live: self.snapshot.histo_sum("sup.gap_width_us"),
                ledger: c.gap_us,
            },
            Pairing {
                label: "gaps",
                metric: "sup.gaps",
                live: self.snapshot.value("sup.gaps"),
                ledger: c.gaps,
            },
            Pairing {
                label: "overflow gaps",
                metric: "sup.overflow_gaps",
                live: self.snapshot.value("sup.overflow_gaps"),
                ledger: c.overflow_gaps,
            },
            Pairing {
                label: "level us: all",
                metric: "sup.level_us.all",
                live: self.snapshot.value("sup.level_us.all"),
                ledger: c.level_us[0],
            },
            Pairing {
                label: "level us: hot-masked",
                metric: "sup.level_us.hot_masked",
                live: self.snapshot.value("sup.level_us.hot_masked"),
                ledger: c.level_us[1],
            },
            Pairing {
                label: "level us: switch-only",
                metric: "sup.level_us.switch_only",
                live: self.snapshot.value("sup.level_us.switch_only"),
                ledger: c.level_us[2],
            },
            Pairing {
                label: "masked events",
                metric: "sup.masked_events",
                live: self.snapshot.value("sup.masked_events"),
                ledger: c.masked_events,
            },
            Pairing {
                label: "mask downgrades",
                metric: "sup.mask.downgrades",
                live: self.snapshot.value("sup.mask.downgrades"),
                ledger: c.mask_downgrades,
            },
            Pairing {
                label: "mask upgrades",
                metric: "sup.mask.upgrades",
                live: self.snapshot.value("sup.mask.upgrades"),
                ledger: c.mask_upgrades,
            },
            Pairing {
                label: "upload retries",
                metric: "transport.retries",
                live: self.snapshot.value("transport.retries"),
                ledger: c.retries,
            },
            Pairing {
                label: "transport failures",
                metric: "transport.failures",
                live: self.snapshot.value("transport.failures"),
                ledger: c.transport_failures,
            },
            Pairing {
                label: "breaker trips",
                metric: "transport.breaker.trips",
                live: self.snapshot.value("transport.breaker.trips"),
                ledger: c.breaker_trips,
            },
            Pairing {
                label: "banks lost",
                metric: "transport.banks_lost",
                live: self.snapshot.value("transport.banks_lost"),
                ledger: c.banks_lost,
            },
            Pairing {
                label: "triggers while dark",
                metric: "sup.missed_in_gaps",
                live: self.snapshot.value("sup.missed_in_gaps"),
                ledger: c.missed_in_gaps,
            },
        ]
    }

    /// Every way the live metrics and the ledger disagree — one line
    /// per mismatch or missing metric.  Empty means the two
    /// accountings are exactly consistent (including the histogram's
    /// count matching the ledger's gap count and `covered + gap ==
    /// timeline`).
    pub fn discrepancies(&self) -> Vec<String> {
        let mut out = Vec::new();
        for p in self.pairings() {
            match p.live {
                None => out.push(format!("{} missing from snapshot", p.metric)),
                Some(v) if v != p.ledger => out.push(format!(
                    "{}: metric {} = {v}, ledger = {}",
                    p.label, p.metric, p.ledger
                )),
                Some(_) => {}
            }
        }
        if let Some(n) = self.snapshot.value("sup.gap_width_us") {
            if n != self.coverage.gaps {
                out.push(format!(
                    "gap histogram count = {n}, ledger gaps = {}",
                    self.coverage.gaps
                ));
            }
        }
        let c = &self.coverage;
        if c.covered_us + c.gap_us != c.timeline_us {
            out.push(format!(
                "ledger does not partition: covered {} + gap {} != timeline {}",
                c.covered_us, c.gap_us, c.timeline_us
            ));
        }
        out
    }

    /// True when telemetry and ledger agree exactly.
    pub fn is_consistent(&self) -> bool {
        self.discrepancies().is_empty()
    }

    /// The joined table, one pairing per line, plus any metrics that
    /// have no ledger twin (board counters, queue depths).
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "capture health — timeline {} us, covered {:.2}%",
            self.coverage.timeline_us,
            self.coverage.fraction() * 100.0
        );
        let _ = writeln!(out, "  {:<24} {:>12} {:>12}  agree", "", "live", "ledger");
        for p in self.pairings() {
            let (live, mark) = match p.live {
                Some(v) => (v.to_string(), if v == p.ledger { "ok" } else { "MISMATCH" }),
                None => ("-".to_string(), "MISSING"),
            };
            let _ = writeln!(
                out,
                "  {:<24} {:>12} {:>12}  {}",
                p.label, live, p.ledger, mark
            );
        }
        let paired: std::collections::HashSet<&str> =
            self.pairings().iter().map(|p| p.metric).collect();
        let extras: Vec<String> = self
            .snapshot
            .metrics
            .iter()
            .filter(|(n, _)| !paired.contains(n.as_str()) && n != "sup.gap_width_us")
            .map(|(n, v)| format!("  {:<24} {:>12}", n, v.scalar()))
            .collect();
        if !extras.is_empty() {
            let _ = writeln!(out, "  unpaired metrics:");
            for e in extras {
                let _ = writeln!(out, "{e}");
            }
        }
        out
    }
}

impl std::fmt::Display for HealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.describe())
    }
}

/// The fleet-level roll-up of [`HealthReport`]: the 17 metric↔ledger
/// pairings checked once per machine *and* once in aggregate.
///
/// A fleet registry keeps every machine's metrics under its own
/// prefix (`m0.`, `m1.`, …); each member report is built from the
/// fleet snapshot's [`strip_prefix`](Snapshot::strip_prefix) slice
/// joined with that machine's ledger, and the aggregate report joins
/// the element-wise [`Snapshot::aggregate`] of those slices with the
/// merged ledgers.  Both levels must agree exactly: summing N
/// per-machine accountings that each balance cannot unbalance, so a
/// fleet-level discrepancy pinpoints cross-machine bookkeeping bugs
/// (a shard counted twice, a lost machine's metrics leaking into the
/// total) that every per-machine check would miss.
#[derive(Debug, Clone)]
pub struct FleetHealthReport {
    members: Vec<(String, HealthReport)>,
    aggregate: HealthReport,
}

impl FleetHealthReport {
    /// Builds the roll-up from one fleet-wide snapshot and each
    /// member's `(prefix, ledger)` pair — the same prefix the
    /// machine's registry view wrote under (e.g. `"m3."`).
    pub fn new(snapshot: &Snapshot, members: impl IntoIterator<Item = (String, Coverage)>) -> Self {
        let members: Vec<(String, HealthReport)> = members
            .into_iter()
            .map(|(prefix, cov)| {
                let slice = snapshot.strip_prefix(&prefix);
                (prefix, HealthReport::new(slice, cov))
            })
            .collect();
        let mut merged = Coverage::empty();
        for (_, report) in &members {
            merged.merge(report.coverage());
        }
        let slices: Vec<&Snapshot> = members.iter().map(|(_, r)| r.snapshot()).collect();
        let aggregate = HealthReport::new(Snapshot::aggregate(slices.iter().copied()), merged);
        FleetHealthReport { members, aggregate }
    }

    /// The per-machine reports, in the order the members were given.
    pub fn members(&self) -> &[(String, HealthReport)] {
        &self.members
    }

    /// The fleet-aggregate report (summed metrics vs merged ledger).
    pub fn aggregate(&self) -> &HealthReport {
        &self.aggregate
    }

    /// Every disagreement at either level, each line tagged with the
    /// member prefix (or `fleet:` for the aggregate).  Empty is the
    /// proof that all N machines and their sum balance exactly.
    pub fn discrepancies(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (prefix, report) in &self.members {
            out.extend(
                report
                    .discrepancies()
                    .into_iter()
                    .map(|line| format!("{prefix}: {line}")),
            );
        }
        out.extend(
            self.aggregate
                .discrepancies()
                .into_iter()
                .map(|line| format!("fleet: {line}")),
        );
        out
    }

    /// True when every member and the aggregate agree exactly.
    pub fn is_consistent(&self) -> bool {
        self.discrepancies().is_empty()
    }

    /// One summary line per machine, then the aggregate's full table.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "fleet health — {} machines", self.members.len());
        for (prefix, report) in &self.members {
            let c = report.coverage();
            let _ = writeln!(
                out,
                "  {:<6} timeline {:>10} us, covered {:>6.2}%, {}",
                prefix,
                c.timeline_us,
                c.fraction() * 100.0,
                if report.is_consistent() {
                    "consistent"
                } else {
                    "INCONSISTENT"
                }
            );
        }
        let _ = writeln!(out, "aggregate:");
        out.push_str(&self.aggregate.describe());
        out
    }
}

impl std::fmt::Display for FleetHealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::{BoardConfig, Profiler};
    use crate::supervisor::{
        CaptureSupervisor, FlakyTransport, MemoryTransport, SupervisorPolicy, TagMask,
    };
    use hwprof_machine::EpromTap;
    use hwprof_telemetry::Registry;

    fn run_supervised(fail_ppm: u32, reg: &Registry) -> Coverage {
        let board = Profiler::new(BoardConfig {
            capacity: 8,
            time_bits: 24,
        });
        let transport = FlakyTransport::new(MemoryTransport::new(), fail_ppm, 11);
        let mut sup = CaptureSupervisor::new(
            board,
            TagMask::new([200u16]),
            SupervisorPolicy {
                drain_budget_us: 4_000,
                ..SupervisorPolicy::default()
            },
            Box::new(transport),
        );
        sup.set_telemetry(reg);
        for i in 0..300u64 {
            let tag = if i % 7 == 0 {
                200
            } else if i % 2 == 0 {
                500
            } else {
                501
            };
            // An 8-record bank fills in ~40 ms: the ladder steps down.
            sup.on_read(tag, 1_000 + i * 5_200);
        }
        sup.finish().coverage
    }

    #[test]
    fn clean_run_is_consistent() {
        let reg = Registry::new();
        let cov = run_supervised(0, &reg);
        let report = HealthReport::new(reg.snapshot(), cov);
        assert!(
            report.is_consistent(),
            "discrepancies: {:?}",
            report.discrepancies()
        );
        let text = report.describe();
        assert!(text.contains("capture health"), "{text}");
        assert!(!text.contains("MISMATCH"), "{text}");
    }

    #[test]
    fn faulty_run_is_still_consistent() {
        let reg = Registry::new();
        let cov = run_supervised(300_000, &reg);
        assert!(cov.transport_failures > 0, "wanted transport trouble");
        let report = HealthReport::new(reg.snapshot(), cov);
        assert!(
            report.is_consistent(),
            "discrepancies: {:?}",
            report.discrepancies()
        );
    }

    #[test]
    fn tampered_ledger_is_caught() {
        let reg = Registry::new();
        let mut cov = run_supervised(0, &reg);
        cov.gap_us += 1;
        let report = HealthReport::new(reg.snapshot(), cov);
        assert!(!report.is_consistent());
        let text = report.describe();
        assert!(text.contains("MISMATCH"), "{text}");
    }

    #[test]
    fn fleet_rollup_checks_members_and_aggregate() {
        let reg = Registry::new();
        let cov0 = run_supervised(0, &reg.prefixed("m0."));
        let cov1 = run_supervised(300_000, &reg.prefixed("m1."));
        let snap = reg.snapshot();
        let fleet = FleetHealthReport::new(
            &snap,
            [("m0.".to_string(), cov0), ("m1.".to_string(), cov1)],
        );
        assert!(
            fleet.is_consistent(),
            "discrepancies: {:?}",
            fleet.discrepancies()
        );
        assert_eq!(fleet.members().len(), 2);
        // The aggregate ledger is the merge of the members'.
        assert_eq!(
            fleet.aggregate().coverage().timeline_us,
            cov0.timeline_us + cov1.timeline_us
        );
        let text = fleet.describe();
        assert!(text.contains("fleet health — 2 machines"), "{text}");
        assert!(text.contains("aggregate:"), "{text}");
    }

    #[test]
    fn fleet_rollup_pinpoints_the_bad_member() {
        let reg = Registry::new();
        let cov0 = run_supervised(0, &reg.prefixed("m0."));
        let mut cov1 = run_supervised(0, &reg.prefixed("m1."));
        cov1.gap_us += 1; // unbalances m1 and the aggregate
        let fleet = FleetHealthReport::new(
            &reg.snapshot(),
            [("m0.".to_string(), cov0), ("m1.".to_string(), cov1)],
        );
        let issues = fleet.discrepancies();
        assert!(!issues.is_empty());
        assert!(issues.iter().any(|l| l.starts_with("m1.:")), "{issues:?}");
        assert!(issues.iter().any(|l| l.starts_with("fleet:")), "{issues:?}");
        assert!(!issues.iter().any(|l| l.starts_with("m0.:")), "{issues:?}");
    }

    #[test]
    fn missing_telemetry_is_reported_not_silently_ok() {
        let report = HealthReport::new(Snapshot::default(), Coverage::empty());
        let issues = report.discrepancies();
        assert!(!issues.is_empty());
        assert!(issues.iter().all(|l| l.contains("missing")), "{issues:?}");
    }
}
