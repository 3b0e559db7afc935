//! E20 — fault-domain fleet capture: eight simulated machines shard
//! into one aggregator while a seeded chaos plan kills one machine
//! mid-capture, corrupts one shard in transit, and turns one drain
//! into a straggler.  The partial-fleet report must still be exactly
//! accounted (`covered + dark + lost == fleet timeline`, to the
//! microsecond), byte-deterministic across runs and aggregator worker
//! counts, and bit-identical to each surviving machine's own
//! sequential analysis.  Exits nonzero if any pinned check fails.

use std::process::exit;

use hwprof::snmpmib::MibExporter;
use hwprof::Registry;
use hwprof_bench::{banner, ms, pct, row};
use hwprof_fleet::{ChaosEvent, ChaosPlan, Fleet, FleetPolicy, FleetReport, MachineHealth};

const CHAOS_SEED: u64 = 7;
const MACHINES: u32 = 8;

fn policy(shards: usize) -> FleetPolicy {
    FleetPolicy {
        machines: MACHINES,
        shards,
        ..FleetPolicy::default()
    }
}

fn run(shards: usize, registry: &Registry) -> FleetReport {
    Fleet::new(policy(shards))
        .chaos(ChaosPlan::seeded(CHAOS_SEED, MACHINES))
        .telemetry(registry)
        .run()
        .unwrap_or_else(|e| {
            eprintln!("fleet run failed: {e}");
            exit(1);
        })
}

fn main() {
    banner(
        "E20",
        "fleet capture under chaos: crash, straggler, corrupt shard — exact accounting",
    );
    let mut all_ok = true;
    let mut check = |metric: &str, paper: &str, measured: &str, ok: bool| {
        row(metric, paper, measured, ok);
        all_ok &= ok;
    };

    let plan = ChaosPlan::seeded(CHAOS_SEED, MACHINES);
    println!("chaos plan (seed {CHAOS_SEED}):\n{}", plan.describe());
    let registry = Registry::new();
    let started = std::time::Instant::now();
    let report = run(4, &registry);
    println!(
        "fleet of {MACHINES} machines aggregated in {}\n",
        ms(started.elapsed().as_micros() as u64)
    );

    // --- the ledger -------------------------------------------------
    let cov = report.coverage;
    check(
        "fleet ledger partitions the timeline exactly",
        "covered + dark + lost == timeline",
        if cov.is_exact() { "exact" } else { "BROKEN" },
        cov.is_exact(),
    );
    check(
        "partial fleet still covers most of the timeline",
        ">= 40%",
        &pct(cov.fraction() * 100.0),
        cov.fraction() >= 0.40,
    );

    // --- the chaos victims, one per failure mode --------------------
    let crashed: Vec<_> = report
        .machines
        .iter()
        .filter(|m| m.health == MachineHealth::Lost)
        .collect();
    check(
        "exactly one machine lost to the crash",
        "1 lost",
        &format!("{} lost", crashed.len()),
        crashed.len() == 1,
    );
    let quarantined: Vec<_> = report
        .machines
        .iter()
        .filter(|m| m.health == MachineHealth::Quarantined)
        .collect();
    check(
        "exactly one machine quarantined by the corrupt shard",
        "1 quarantined, 1 shard rejected",
        &format!(
            "{} quarantined, {} shard(s) rejected",
            quarantined.len(),
            quarantined.iter().map(|m| m.corrupt_shards).sum::<u64>()
        ),
        quarantined.len() == 1 && quarantined[0].corrupt_shards == 1,
    );
    let stragglers: Vec<_> = report.machines.iter().filter(|m| m.straggled).collect();
    check(
        "the straggler was hedged and kept",
        "1 straggler, hedged, included",
        &format!(
            "{} straggler(s){}",
            stragglers.len(),
            if stragglers
                .iter()
                .all(|m| m.hedged && m.health.is_included())
            {
                ", hedged, included"
            } else {
                ""
            }
        ),
        stragglers.len() == 1
            && stragglers
                .iter()
                .all(|m| m.hedged && m.health.is_included()),
    );

    // --- exact lost-machine accounting ------------------------------
    let expected_lost: u64 = crashed.len() as u64 * policy(4).window_us
        + quarantined
            .iter()
            .filter_map(|m| m.coverage.map(|c| c.timeline_us))
            .sum::<u64>();
    check(
        "lost time == crash window + quarantined timeline",
        &format!("{expected_lost} us"),
        &format!("{} us", cov.lost_us),
        cov.lost_us == expected_lost,
    );
    check(
        "the crashed machine's delivered shards are on record",
        "sent >= 1 before dying",
        &format!("sent {}", crashed[0].shards_sent),
        crashed[0].shards_sent >= 1,
    );

    // --- shard rejection is typed and terminal ----------------------
    let shard_errors: Vec<_> = quarantined[0]
        .errors
        .iter()
        .filter(|e| matches!(e, hwprof::Error::ShardCorrupt { .. }))
        .collect();
    check(
        "corrupt shard surfaced as Error::ShardCorrupt",
        "1 typed error, not retryable",
        &format!(
            "{} error(s), retryable: {}",
            shard_errors.len(),
            shard_errors.iter().any(|e| e.is_retryable())
        ),
        shard_errors.len() == 1 && !shard_errors.iter().any(|e| e.is_retryable()),
    );

    // --- aggregator == per-machine sequential oracle ----------------
    let oracle_ok = report.included().all(|m| m.profile == m.local_profile);
    check(
        "aggregator matches every machine's own analysis",
        "bit-identical",
        if oracle_ok {
            "bit-identical"
        } else {
            "DIVERGED"
        },
        oracle_ok,
    );
    let excluded_clean = report
        .machines
        .iter()
        .filter(|m| !m.health.is_included())
        .all(|m| m.profile.is_none());
    check(
        "quarantined/lost machines excluded by construction",
        "never merged",
        if excluded_clean {
            "never merged"
        } else {
            "LEAKED"
        },
        excluded_clean,
    );

    // --- byte determinism -------------------------------------------
    let text = report.describe();
    let again = run(4, &Registry::default()).describe();
    check(
        "re-run report is byte-identical",
        "same bytes",
        if text == again {
            "same bytes"
        } else {
            "DIVERGED"
        },
        text == again,
    );
    let one_worker = run(1, &Registry::default()).describe();
    check(
        "worker count is invisible in the report",
        "1 worker == 4 workers",
        if text == one_worker {
            "same bytes"
        } else {
            "DIVERGED"
        },
        text == one_worker,
    );

    // --- the retryable failure mode, for contrast -------------------
    // A transport outage is the *retryable* fault: the supervisor's
    // retry/spill/breaker path rides it out and the machine stays in
    // the fleet.
    let outage_report = Fleet::new(policy(2))
        .chaos(ChaosPlan::none().with(1, ChaosEvent::Outage { start: 1, end: 3 }))
        .run()
        .unwrap_or_else(|e| {
            eprintln!("outage fleet run failed: {e}");
            exit(1);
        });
    let victim = &outage_report.machines[1];
    let retried = victim
        .coverage
        .map(|c| c.retries + c.transport_failures)
        .unwrap_or(0);
    check(
        "transport outage: machine retries and stays in the fleet",
        "included, retries > 0",
        &format!(
            "{} ({} retry/failure events)",
            victim.health.label(),
            retried
        ),
        victim.health.is_included() && retried > 0 && outage_report.coverage.is_exact(),
    );

    // --- fleet telemetry: roll-up and MIB export --------------------
    let snapshot = registry.snapshot();
    let health = report.health(&snapshot);
    for issue in health.discrepancies() {
        eprintln!("  discrepancy: {issue}");
    }
    check(
        "fleet health roll-up: members and aggregate consistent",
        "0 discrepancies",
        &format!("{} discrepancies", health.discrepancies().len()),
        health.is_consistent(),
    );
    let exporter = MibExporter::default();
    let (mib, legend) = exporter.export(&snapshot);
    let (objs, _) = exporter.walk(&mib);
    let named = objs.iter().all(|(oid, _)| legend.name_of(oid).is_some());
    let prefixed = report.included().all(|m| {
        legend
            .oid_of(&format!("m{}.board.triggers", m.id))
            .is_some()
    });
    check(
        "one MIB subtree serves all machines, collision-free",
        "every m{id}. metric has its own OID",
        &format!(
            "{} objects, {}",
            objs.len(),
            if named && prefixed {
                "all named"
            } else {
                "orphans"
            }
        ),
        !objs.is_empty() && named && prefixed,
    );

    println!("\n{text}");
    if !all_ok {
        eprintln!("E20: one or more pinned checks failed");
        exit(1);
    }
}
