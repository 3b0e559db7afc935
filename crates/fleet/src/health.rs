//! The per-machine health state machine.
//!
//! Each machine is an isolated fault domain classified after its run
//! from signals the pipeline already maintains — the supervisor's
//! circuit breaker and coverage ledger, and the aggregator's shard
//! bookkeeping.  States order by severity and only ever worsen within
//! one classification:
//!
//! * **Healthy** — full report, clean shards, coverage at or above
//!   the floor.
//! * **Degraded** — trustworthy but impaired: coverage below the
//!   floor, breaker trips, or a straggling drain that the hedge
//!   recovered.  Included in the fleet profile.
//! * **Quarantined** — the data itself is suspect: corrupt or missing
//!   shards.  The machine's shards are *excluded by construction* —
//!   they are never
//!   merged into the fleet profile in the first place, so there is no
//!   subtract-back path to get wrong.
//! * **Lost** — no final report at all (crash, failed hedge, dead
//!   transport).  Accounted as lost time in the fleet ledger.

use std::fmt;

/// Health of one fleet machine, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MachineHealth {
    /// Full report, clean data, coverage at the floor or better.
    Healthy,
    /// Impaired but trustworthy; included in the fleet profile.
    Degraded,
    /// Data integrity suspect; excluded from the fleet profile.
    Quarantined,
    /// No final report; accounted as lost time.
    Lost,
}

impl MachineHealth {
    /// The state machine's only transition: monotone worsening.
    pub fn worsen(self, other: MachineHealth) -> MachineHealth {
        self.max(other)
    }

    /// True when the machine's reconstruction participates in the
    /// fleet profile.
    pub fn is_included(self) -> bool {
        matches!(self, MachineHealth::Healthy | MachineHealth::Degraded)
    }

    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MachineHealth::Healthy => "healthy",
            MachineHealth::Degraded => "degraded",
            MachineHealth::Quarantined => "quarantined",
            MachineHealth::Lost => "lost",
        }
    }
}

impl fmt::Display for MachineHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.label())
    }
}

/// Coverage floor (ppm); machines below it classify as Degraded.
const DEGRADED_COVERAGE_PPM: u32 = 900_000;

/// The post-run signals one machine is classified from.
#[derive(Debug, Clone, Copy, Default)]
pub struct HealthSignals {
    /// A final report reached the driver (false ⇒ Lost outright).
    pub alive: bool,
    /// Covered fraction of the machine's timeline, in ppm.
    pub coverage_ppm: u32,
    /// Circuit-breaker trips from the machine's ledger.
    pub breaker_trips: u64,
    /// Shards the aggregator rejected (checksum/parse).
    pub corrupt_shards: u64,
    /// Shards the machine sent that never arrived at all.
    pub shards_missing: u64,
    /// The drain blew the fleet deadline (hedge recovered the data).
    pub straggled: bool,
}

impl HealthSignals {
    /// Runs the state machine over the signals: each firing signal
    /// worsens the state, and the returned reasons list one line per
    /// firing signal in a fixed order (so reports are deterministic).
    pub fn classify(&self) -> (MachineHealth, Vec<String>) {
        if !self.alive {
            return (
                MachineHealth::Lost,
                vec!["no final report (crashed, or hedged re-drain failed)".to_string()],
            );
        }
        let mut health = MachineHealth::Healthy;
        let mut reasons = Vec::new();
        if self.corrupt_shards > 0 {
            health = health.worsen(MachineHealth::Quarantined);
            reasons.push(format!("{} corrupt shard(s) rejected", self.corrupt_shards));
        }
        if self.shards_missing > 0 {
            health = health.worsen(MachineHealth::Quarantined);
            reasons.push(format!("{} shard(s) never arrived", self.shards_missing));
        }
        if self.coverage_ppm < DEGRADED_COVERAGE_PPM {
            health = health.worsen(MachineHealth::Degraded);
            reasons.push(format!(
                "coverage {:.2}% below floor {:.2}%",
                self.coverage_ppm as f64 / 10_000.0,
                DEGRADED_COVERAGE_PPM as f64 / 10_000.0
            ));
        }
        if self.breaker_trips > 0 {
            health = health.worsen(MachineHealth::Degraded);
            reasons.push(format!("breaker tripped {}×", self.breaker_trips));
        }
        if self.straggled {
            health = health.worsen(MachineHealth::Degraded);
            reasons.push("drain blew the deadline; hedged re-drain recovered".to_string());
        }
        (health, reasons)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> HealthSignals {
        HealthSignals {
            alive: true,
            coverage_ppm: 1_000_000,
            ..HealthSignals::default()
        }
    }

    #[test]
    fn severity_only_worsens() {
        use MachineHealth::*;
        assert_eq!(Healthy.worsen(Degraded), Degraded);
        assert_eq!(Quarantined.worsen(Degraded), Quarantined);
        assert_eq!(Lost.worsen(Healthy), Lost);
        assert!(Healthy < Degraded && Degraded < Quarantined && Quarantined < Lost);
        assert!(Healthy.is_included() && Degraded.is_included());
        assert!(!Quarantined.is_included() && !Lost.is_included());
    }

    #[test]
    fn classification_table() {
        let (h, r) = clean().classify();
        assert_eq!(h, MachineHealth::Healthy);
        assert!(r.is_empty());

        let dead = HealthSignals::default();
        assert_eq!(dead.classify().0, MachineHealth::Lost);

        let mut s = clean();
        s.coverage_ppm = 800_000;
        assert_eq!(s.classify().0, MachineHealth::Degraded);

        let mut s = clean();
        s.breaker_trips = 2;
        assert_eq!(s.classify().0, MachineHealth::Degraded);

        let mut s = clean();
        s.straggled = true;
        assert_eq!(s.classify().0, MachineHealth::Degraded);

        let mut s = clean();
        s.corrupt_shards = 1;
        assert_eq!(s.classify().0, MachineHealth::Quarantined);

        // Quarantine dominates degradation even when both fire.
        let mut s = clean();
        s.corrupt_shards = 1;
        s.coverage_ppm = 0;
        let (h, reasons) = s.classify();
        assert_eq!(h, MachineHealth::Quarantined);
        assert_eq!(reasons.len(), 2);
    }
}
