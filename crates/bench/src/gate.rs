//! The benchmark-regression gate: parses the machine-readable
//! `BENCH_*.json` documents the criterion shim emits, compares a fresh
//! run against the checked-in baseline, and decides pass/fail.
//!
//! Two kinds of check, combined by the `bench_gate` binary:
//!
//! * **baseline diff** — every benchmark in the baseline must hold its
//!   `per_sec` throughput to within a noise threshold ([`GATE_PCT`],
//!   15%).  Throughput is first
//!   normalized by the two runs' calibration constants, so a slower CI
//!   machine is not misread as a regression and a faster one does not
//!   mask a real one;
//! * **hard invariants** — machine-independent ratios measured within
//!   one run, immune to calibration error: the columnar decoder must
//!   stay at least 3x the scalar oracle it replaced.

use hwprof_analysis::{validate_json, JsonValue};
use std::collections::BTreeMap;

/// One benchmark's record in a BENCH json document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Mean nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Derived throughput per second, if the bench declared work units.
    pub per_sec: Option<f64>,
}

/// A parsed `BENCH_<name>.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// Which bench binary produced it.
    pub bench: String,
    /// The producing machine's calibration constant (ns per element of
    /// the shim's fixed reference workload; bigger = slower machine).
    pub calibration_ns_per_elem: f64,
    /// Whether the run used the quick (10 ms budget) mode.
    pub quick: bool,
    /// Benchmark id -> measurements, sorted by id.
    pub results: BTreeMap<String, BenchEntry>,
}

fn num(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Num(n) => Some(*n),
        _ => None,
    }
}

impl BenchDoc {
    /// Parses one BENCH json document, checking the schema version.
    pub fn parse(json: &str) -> Result<BenchDoc, String> {
        let v = validate_json(json)?;
        let schema = v
            .get("schema")
            .and_then(num)
            .ok_or("missing schema field")?;
        if schema != 1.0 {
            return Err(format!("unsupported schema {schema}"));
        }
        let bench = v
            .get("bench")
            .and_then(JsonValue::as_str)
            .ok_or("missing bench field")?
            .to_string();
        let calibration_ns_per_elem = v
            .get("calibration_ns_per_elem")
            .and_then(num)
            .ok_or("missing calibration_ns_per_elem")?;
        if !calibration_ns_per_elem.is_finite() || calibration_ns_per_elem <= 0.0 {
            return Err(format!(
                "calibration must be positive, got {calibration_ns_per_elem}"
            ));
        }
        let quick = match v.get("quick") {
            Some(JsonValue::Bool(b)) => *b,
            _ => return Err("missing quick field".to_string()),
        };
        let JsonValue::Obj(fields) = v.get("results").ok_or("missing results")? else {
            return Err("results is not an object".to_string());
        };
        let mut results = BTreeMap::new();
        for (id, entry) in fields {
            let ns_per_iter = entry
                .get("ns_per_iter")
                .and_then(num)
                .ok_or_else(|| format!("{id}: missing ns_per_iter"))?;
            let per_sec = match entry.get("per_sec") {
                Some(JsonValue::Null) | None => None,
                Some(v) => Some(num(v).ok_or_else(|| format!("{id}: bad per_sec"))?),
            };
            results.insert(
                id.clone(),
                BenchEntry {
                    ns_per_iter,
                    per_sec,
                },
            );
        }
        Ok(BenchDoc {
            bench,
            calibration_ns_per_elem,
            quick,
            results,
        })
    }

    /// Throughput ratio between two benchmarks of this document
    /// (`None` if either is absent or lacks a throughput).  Within one
    /// run the machine factor cancels, so ratios make machine-
    /// independent invariants.
    pub fn ratio(&self, numerator: &str, denominator: &str) -> Option<f64> {
        let n = self.results.get(numerator)?.per_sec?;
        let d = self.results.get(denominator)?.per_sec?;
        (d > 0.0).then_some(n / d)
    }
}

/// Verdict for one baseline benchmark after normalization.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Benchmark id.
    pub id: String,
    /// Baseline throughput per second.
    pub baseline_per_sec: f64,
    /// Fresh throughput, calibration-adjusted into baseline terms
    /// (`None` when the fresh run is missing the benchmark).
    pub adjusted_per_sec: Option<f64>,
    /// Percent change vs baseline (negative = slower).
    pub change_pct: f64,
    /// Did this benchmark clear the threshold?
    pub ok: bool,
}

/// Diffs `fresh` against `baseline`: every baseline benchmark with a
/// throughput must reappear and hold its rate to within
/// `threshold_pct` percent after calibration normalization.  Returns
/// one verdict per compared benchmark; new benchmarks present only in
/// `fresh` are ignored (they gate once the baseline is regenerated).
pub fn compare(baseline: &BenchDoc, fresh: &BenchDoc, threshold_pct: f64) -> Vec<Verdict> {
    // Fresh machine slower by factor k => calibration k times larger
    // and rates k times smaller; multiplying by the calibration ratio
    // restores baseline terms.
    let machine = fresh.calibration_ns_per_elem / baseline.calibration_ns_per_elem;
    let mut verdicts = Vec::new();
    for (id, base) in &baseline.results {
        let Some(base_rate) = base.per_sec else {
            continue;
        };
        let adjusted = fresh
            .results
            .get(id)
            .and_then(|e| e.per_sec)
            .map(|r| r * machine);
        let (change_pct, ok) = match adjusted {
            Some(a) => {
                let change = (a / base_rate - 1.0) * 100.0;
                (change, change >= -threshold_pct)
            }
            None => (-100.0, false),
        };
        verdicts.push(Verdict {
            id: id.clone(),
            baseline_per_sec: base_rate,
            adjusted_per_sec: adjusted,
            change_pct,
            ok,
        });
    }
    verdicts
}

/// Folds several fresh runs of the same bench into one best-case
/// document: per benchmark the **highest** throughput and lowest
/// ns/iter seen, and the smallest calibration constant.  Interference
/// noise is one-sided — the scheduler can only ever slow a run down —
/// so the best observation across process runs is the closest estimate
/// of the code's real capability, which is what the gate should judge.
pub fn merge_best(mut runs: Vec<BenchDoc>) -> Option<BenchDoc> {
    let mut out = runs.pop()?;
    for run in runs {
        if run.bench != out.bench {
            return None;
        }
        out.calibration_ns_per_elem = out.calibration_ns_per_elem.min(run.calibration_ns_per_elem);
        out.quick &= run.quick;
        for (id, e) in run.results {
            match out.results.get_mut(&id) {
                Some(best) => {
                    best.ns_per_iter = best.ns_per_iter.min(e.ns_per_iter);
                    best.per_sec = match (best.per_sec, e.per_sec) {
                        (Some(a), Some(b)) => Some(a.max(b)),
                        (a, b) => a.or(b),
                    };
                }
                None => {
                    out.results.insert(id, e);
                }
            }
        }
    }
    Some(out)
}

/// The gate's noise threshold in percent.
pub const GATE_PCT: f64 = 15.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(calibration: f64, entries: &[(&str, f64, Option<f64>)]) -> BenchDoc {
        BenchDoc {
            bench: "t".to_string(),
            calibration_ns_per_elem: calibration,
            quick: true,
            results: entries
                .iter()
                .map(|&(id, ns, per_sec)| {
                    (
                        id.to_string(),
                        BenchEntry {
                            ns_per_iter: ns,
                            per_sec,
                        },
                    )
                })
                .collect(),
        }
    }

    /// Round-trip: the shim's writer output parses back to the same
    /// measurements.
    #[test]
    fn parses_writer_output() {
        let results = vec![
            criterion::BenchResult {
                id: "g/a".to_string(),
                ns_per_iter: 100.0,
                throughput: Some(criterion::Throughput::Elements(1000)),
            },
            criterion::BenchResult {
                id: "g/b".to_string(),
                ns_per_iter: 50.0,
                throughput: None,
            },
        ];
        let json = criterion::render_json("analysis_throughput", true, 2.5, &results);
        let doc = BenchDoc::parse(&json).expect("valid");
        assert_eq!(doc.bench, "analysis_throughput");
        assert_eq!(doc.calibration_ns_per_elem, 2.5);
        assert!(doc.quick);
        assert_eq!(doc.results["g/a"].per_sec, Some(1e10));
        assert_eq!(doc.results["g/b"].per_sec, None);
    }

    #[test]
    fn rejects_bad_schema() {
        assert!(BenchDoc::parse("{}").is_err());
        assert!(BenchDoc::parse("{\"schema\": 2}").is_err());
        assert!(BenchDoc::parse("not json").is_err());
    }

    /// Identical rates on an identical machine pass; a drop past the
    /// threshold fails; a drop within it passes.
    #[test]
    fn thresholding() {
        let base = doc(1.0, &[("g/a", 100.0, Some(1000.0))]);
        let same = compare(&base, &base.clone(), 15.0);
        assert!(same.iter().all(|v| v.ok));

        let slower = doc(1.0, &[("g/a", 125.0, Some(800.0))]);
        let v = compare(&base, &slower, 15.0);
        assert!(!v[0].ok, "20% drop must fail a 15% gate");
        assert!((v[0].change_pct - -20.0).abs() < 1e-9);

        let v = compare(&base, &slower, 25.0);
        assert!(v[0].ok, "20% drop passes a 25% gate");
    }

    /// A uniformly slower machine (larger calibration constant) is not
    /// a regression once normalized — and a genuinely slower result on
    /// a faster machine still is.
    #[test]
    fn calibration_normalizes_machines() {
        let base = doc(1.0, &[("g/a", 100.0, Some(1000.0))]);
        // Machine 2x slower across the board: calibration 2.0, rate
        // halved.  Adjusted rate = 500 * 2 = 1000 -> pass.
        let slow_machine = doc(2.0, &[("g/a", 200.0, Some(500.0))]);
        assert!(compare(&base, &slow_machine, 15.0)[0].ok);

        // Machine 2x faster, but the code only holds the same absolute
        // rate: adjusted = 1000 * 0.5 = 500 -> 50% regression.
        let fast_machine = doc(0.5, &[("g/a", 100.0, Some(1000.0))]);
        let v = compare(&base, &fast_machine, 15.0);
        assert!(!v[0].ok, "a faster machine must not mask a regression");
    }

    /// A benchmark that vanished from the fresh run fails the gate.
    #[test]
    fn missing_benchmark_fails() {
        let base = doc(1.0, &[("g/a", 100.0, Some(1000.0))]);
        let fresh = doc(1.0, &[("g/other", 1.0, Some(1.0))]);
        let v = compare(&base, &fresh, 15.0);
        assert_eq!(v.len(), 1);
        assert!(!v[0].ok);
        assert!(v[0].adjusted_per_sec.is_none());
    }

    /// Merging fresh runs keeps each benchmark's best observation and
    /// the smallest calibration constant.
    #[test]
    fn merge_takes_best_observation() {
        let a = doc(
            1.2,
            &[("g/a", 100.0, Some(1000.0)), ("g/only_a", 7.0, Some(70.0))],
        );
        let b = doc(
            1.0,
            &[("g/a", 90.0, Some(1100.0)), ("g/only_b", 9.0, Some(90.0))],
        );
        let m = merge_best(vec![a, b]).expect("same bench");
        assert_eq!(m.calibration_ns_per_elem, 1.0);
        assert_eq!(m.results["g/a"].per_sec, Some(1100.0));
        assert_eq!(m.results["g/a"].ns_per_iter, 90.0);
        assert_eq!(m.results["g/only_a"].per_sec, Some(70.0));
        assert_eq!(m.results["g/only_b"].per_sec, Some(90.0));
        assert!(merge_best(vec![]).is_none());
    }

    /// Within-run ratios ignore the machine entirely.
    #[test]
    fn ratio_invariant() {
        let d = doc(
            7.0,
            &[
                ("g/fast", 10.0, Some(4000.0)),
                ("g/slow", 40.0, Some(1000.0)),
                ("g/unrated", 5.0, None),
            ],
        );
        assert_eq!(d.ratio("g/fast", "g/slow"), Some(4.0));
        assert_eq!(d.ratio("g/fast", "g/unrated"), None);
        assert_eq!(d.ratio("g/fast", "g/gone"), None);
    }
}
