//! E17 — instrumenting the instrumenter: a supervised capture under
//! seeded overflow and a transport outage publishes live telemetry,
//! the registry is served as an SNMP subtree and walked back with
//! get-next, and every metric is checked for *exact* agreement with
//! the Coverage ledger and the per-class anomaly totals.  Exits
//! nonzero if any pinned check fails, so CI can gate on the
//! fixed-seed consistency proof.

use std::process::exit;

use hwprof::profiler::BoardConfig;
use hwprof::snmpmib::MibExporter;
use hwprof::telemetry::MetricValue;
use hwprof::{scenarios, Experiment, FlakyTransport, MemoryTransport, Registry, SupervisorPolicy};
use hwprof_bench::{banner, pct, row, stream_stitch};

const SEED: u64 = 0x1993_0617;
const WORKLOAD_BYTES: u64 = 1024 * 1024;

fn experiment(reg: &Registry) -> Experiment {
    Experiment::new()
        .profile_all()
        .board(BoardConfig::default())
        .scenario(scenarios::network_receive(WORKLOAD_BYTES, true))
        .telemetry(reg)
}

fn main() {
    banner(
        "E17",
        "pipeline telemetry: registry, SNMP export, ledger consistency",
    );
    let mut all_ok = true;
    let mut check = |metric: &str, paper: &str, measured: &str, ok: bool| {
        row(metric, paper, measured, ok);
        all_ok &= ok;
    };

    // A run that exercises every metric family: the stock board
    // overflows several times, 10% of upload attempts fail, and a hard
    // outage over attempts [5, 9) trips the retry stack.
    let policy = SupervisorPolicy {
        seed: SEED,
        transport_fail_ppm: 100_000,
        min_coverage_ppm: 0,
        ..SupervisorPolicy::default()
    };
    let transport = Box::new(
        FlakyTransport::new(MemoryTransport::new(), policy.transport_fail_ppm, SEED)
            .with_outage(5, 9),
    );
    let reg = Registry::new();
    let cap = experiment(&reg)
        .supervised_with(policy, transport)
        .unwrap_or_else(|e| {
            eprintln!("supervised run failed: {e}");
            exit(1);
        });
    let cov = *cap.coverage();
    check(
        "seeded workload overflows the stock board",
        ">= 3 fills",
        &format!("{} fills", cov.overflow_gaps),
        cov.overflow_gaps >= 3,
    );
    check(
        "outage + flaky wire exercised the retry stack",
        "failures > 0",
        &cov.transport_failures.to_string(),
        cov.transport_failures > 0,
    );
    check(
        "capture still delivered",
        "coverage > 80%",
        &pct(cov.fraction() * 100.0),
        cov.fraction() > 0.80,
    );

    // The tentpole claim: the metrics incremented live during the run
    // agree with the Coverage ledger exactly — every pairing, no
    // tolerance.
    let health = cap.health().expect("telemetry was configured");
    let issues = health.discrepancies();
    check(
        "live metrics == coverage ledger",
        "0 discrepancies",
        &issues.len().to_string(),
        issues.is_empty(),
    );
    for issue in &issues {
        eprintln!("  discrepancy: {issue}");
    }
    let snap = cap.metrics().expect("telemetry was configured");
    check(
        "board counters were published",
        "board.triggers > 0",
        &snap.value("board.triggers").unwrap_or(0).to_string(),
        snap.value("board.triggers").unwrap_or(0) > 0,
    );

    // Serve the registry as an SNMP subtree and walk it back with
    // get-next: the walk must return the full subtree (every scalar,
    // every histogram count/sum/occupied-bucket), each OID resolvable
    // to its metric name, and the walked values must be the snapshot's.
    let exporter = MibExporter::default();
    let (mib, legend) = exporter.export(&snap);
    let (objs, cmps) = exporter.walk(&mib);
    let expected: usize = snap
        .metrics
        .iter()
        .map(|(_, v)| match v {
            MetricValue::Counter(_) | MetricValue::Gauge(_) => 1,
            MetricValue::Histo(h) => 2 + h.buckets.iter().filter(|n| **n > 0).count(),
        })
        .sum();
    check(
        "get-next walk returns the full subtree",
        &format!("{expected} objects"),
        &format!("{} objects ({cmps} cmps)", objs.len()),
        objs.len() == expected && !objs.is_empty(),
    );
    let named = objs.iter().all(|(oid, _)| legend.name_of(oid).is_some());
    check(
        "every walked OID resolves to a metric name",
        "all named",
        if named { "all named" } else { "orphan OIDs" },
        named,
    );
    let gaps_oid = legend.oid_of("sup.gaps").expect("sup.gaps exported");
    let walked_gaps = objs
        .iter()
        .find(|(oid, _)| oid == gaps_oid)
        .map(|(_, v)| *v);
    check(
        "walked sup.gaps == ledger gap count",
        &cov.gaps.to_string(),
        &format!("{walked_gaps:?}"),
        walked_gaps == Some(cov.gaps),
    );

    // Re-stitch the delivered banks through the streaming pipeline with
    // its own registry: the stream.* metrics must agree with the merged
    // reconstruction and with the per-class anomaly totals exactly.
    let sreg = Registry::new();
    let r = stream_stitch(&cap.tagfile, &cap.run, 4, &sreg).expect("pipeline open");
    check(
        "streaming stitch matches the capture's profile",
        "bit-identical",
        if r == cap.profile {
            "bit-identical"
        } else {
            "DIVERGED"
        },
        r == cap.profile,
    );
    let ssnap = sreg.snapshot();
    check(
        "stream.banks == delivered sessions",
        &cap.run.sessions.len().to_string(),
        &format!("{:?}", ssnap.value("stream.banks")),
        ssnap.value("stream.banks") == Some(cap.run.sessions.len() as u64),
    );
    check(
        "stream.events == reconstruction tags",
        &r.tags.to_string(),
        &format!("{:?}", ssnap.value("stream.events")),
        ssnap.value("stream.events") == Some(r.tags as u64),
    );
    let classes: [(&str, u64); 6] = [
        ("stream.anomalies.orphan_exits", r.anomalies.orphan_exits),
        (
            "stream.anomalies.unmatched_entries",
            r.anomalies.unmatched_entries,
        ),
        ("stream.anomalies.unknown_tags", r.anomalies.unknown_tags),
        ("stream.anomalies.time_jumps", r.anomalies.time_jumps),
        ("stream.anomalies.duplicates", r.anomalies.duplicates),
        ("stream.anomalies.truncations", r.anomalies.truncations),
    ];
    let classes_ok = classes.iter().all(|(n, v)| ssnap.value(n) == Some(*v));
    check(
        "per-class anomaly metrics match the ledger",
        "6/6 exact",
        &format!(
            "{}/6 exact",
            classes
                .iter()
                .filter(|(n, v)| ssnap.value(n) == Some(*v))
                .count()
        ),
        classes_ok,
    );

    // The overhead claim: telemetry lives entirely on the host side of
    // the EPROM socket, so switching it on must not change the
    // simulated machine by a single cycle — the same seeded run with
    // and without a registry produces a bit-identical capture.
    let with = experiment(&Registry::new())
        .supervised(SupervisorPolicy {
            seed: SEED,
            ..SupervisorPolicy::default()
        })
        .unwrap_or_else(|e| {
            eprintln!("telemetry-on run failed: {e}");
            exit(1);
        });
    let without = experiment(&Registry::default())
        .supervised(SupervisorPolicy {
            seed: SEED,
            ..SupervisorPolicy::default()
        })
        .unwrap_or_else(|e| {
            eprintln!("telemetry-off run failed: {e}");
            exit(1);
        });
    let zero_cost =
        with.profile == without.profile && with.kernel.machine.now == without.kernel.machine.now;
    check(
        "telemetry adds zero simulated capture cost",
        "< 1% (0 cycles)",
        if zero_cost { "0 cycles" } else { "DIVERGED" },
        zero_cost,
    );

    println!(
        "\ncapture health (live vs ledger):\n\n{}",
        health.describe()
    );

    if !all_ok {
        eprintln!("E17: one or more pinned checks failed");
        exit(1);
    }
}
