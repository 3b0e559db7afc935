//! Output checks.  Every check returns `Err` naming the broken
//! invariant; one failed check fails the iteration, and failed
//! iterations are what `fail_ratio` counts.
//!
//! No digest is compared against a golden value: output bytes are the
//! job of the repository's golden tests.  The digest check only demands
//! that one seed gives the same bytes on every iteration and in every
//! process that runs it.

use std::path::{Path, PathBuf};

use hwprof::analysis::Reconstruction;
use hwprof::{validate_json, Coverage, RecorderLedger};
use hwprof_fleet::FleetCoverage;

/// The outcome of one check.
pub type Check = Result<(), String>;

/// The supervisor's coverage ledger: `covered + gap == timeline`.
pub fn coverage_identity(c: &Coverage) -> Check {
    if c.covered_us + c.gap_us == c.timeline_us {
        Ok(())
    } else {
        Err(format!(
            "coverage ledger: covered {} us + gap {} us != timeline {} us",
            c.covered_us, c.gap_us, c.timeline_us
        ))
    }
}

/// The flight recorder's `covered + dark + evicted == elapsed` ledger.
pub fn recorder_ledger(l: &RecorderLedger) -> Check {
    if l.is_exact() {
        Ok(())
    } else {
        Err(format!("recorder ledger not exact: {}", l.describe()))
    }
}

/// The fleet's `covered + dark + lost == timeline` ledger.
pub fn fleet_ledger(c: &FleetCoverage) -> Check {
    if c.is_exact() {
        Ok(())
    } else {
        Err(c.describe())
    }
}

/// Analysis saw exactly the records the capture delivered.
pub fn tags_match(what: &str, analyzed: usize, delivered: u64) -> Check {
    if analyzed as u64 == delivered {
        Ok(())
    } else {
        Err(format!(
            "{what}: analyzed {analyzed} tags, delivered {delivered} records"
        ))
    }
}

/// A drain-while-armed capture hands over only full banks, then one
/// final partial bank, so the analyzed tag count must fill every bank
/// but the last.
pub fn full_banks(analyzed: usize, banks: u64, bank_records: usize) -> Check {
    let full = banks.saturating_sub(1) * bank_records as u64;
    let analyzed = analyzed as u64;
    if banks > 0 && analyzed > full && analyzed <= full + bank_records as u64 {
        Ok(())
    } else {
        Err(format!(
            "streamed {analyzed} tags do not fill {banks} banks of {bank_records} records"
        ))
    }
}

/// The Chrome trace is one well-formed JSON document.
///
/// `validate_json` re-checks the UTF-8 of the whole remaining input for
/// every string character, so its cost grows with the square of the
/// document and a 40 MB trace would take hours.  The check therefore
/// hands it each element of `traceEvents` on its own, then the document
/// with that array emptied: together these accept exactly the
/// documents `validate_json` accepts whole.
pub fn chrome_json(trace: &str) -> Check {
    const KEY: &str = "\"traceEvents\":[";
    let bad = |e: String| format!("chrome trace is not valid JSON: {e}");
    let open = trace
        .find(KEY)
        .ok_or_else(|| bad("no traceEvents array".into()))?
        + KEY.len();
    let (events, close) =
        split_array(&trace[open..]).ok_or_else(|| bad("unclosed array".into()))?;
    for (i, ev) in events.iter().enumerate() {
        validate_json(ev).map_err(|e| bad(format!("event {i}: {e}")))?;
    }
    let skeleton = format!("{}{}", &trace[..open], &trace[open + close..]);
    validate_json(&skeleton).map(|_| ()).map_err(bad)
}

/// Splits the body of a JSON array (the text after its `[`) at its
/// top-level commas.  Returns the elements and the offset of the
/// closing `]`, or `None` when the array never closes.
fn split_array(s: &str) -> Option<(Vec<&str>, usize)> {
    let mut elems = Vec::new();
    let (mut depth, mut in_str, mut escaped, mut start) = (0usize, false, false, 0usize);
    for (i, c) in s.bytes().enumerate() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            b'"' => in_str = true,
            b'{' | b'[' => depth += 1,
            b'}' | b']' if depth > 0 => depth -= 1,
            b']' => {
                if !elems.is_empty() || !s[start..i].trim().is_empty() {
                    elems.push(&s[start..i]);
                }
                return Some((elems, i));
            }
            b',' if depth == 0 => {
                elems.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    None
}

/// Folded-stack weights sum to the reconstruction's total net time.
pub fn folded_total(folded: &str, r: &Reconstruction) -> Check {
    let mut total = 0u64;
    for line in folded.lines() {
        let weight = line
            .rsplit_once(' ')
            .and_then(|(_, w)| w.parse::<u64>().ok())
            .ok_or_else(|| format!("folded line without a weight: {line:?}"))?;
        total += weight;
    }
    let net: u64 = r.stats.iter().map(|a| a.net).sum();
    if total == net {
        Ok(())
    } else {
        Err(format!(
            "folded weights sum to {total} us, net total is {net} us"
        ))
    }
}

/// FNV-1a over the byte outputs, each part length-prefixed so that
/// moving bytes between parts changes the digest.
pub fn digest(parts: &[&str]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in (part.len() as u64)
            .to_le_bytes()
            .iter()
            .chain(part.as_bytes())
        {
            h ^= u64::from(*b);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

/// Holds one digest per (workload, seed, build): the first iteration
/// sets it for this process, and a file shared by every process of the
/// same build makes a later process compare against the first one.
pub struct DigestCheck {
    first: Option<u64>,
    file: PathBuf,
}

impl DigestCheck {
    /// A check whose cross-process reference lives under `dir`, keyed
    /// by `key` (workload, seed and build).
    pub fn new(dir: &Path, key: &str) -> Self {
        DigestCheck {
            first: None,
            file: dir.join(format!("{key}.digest")),
        }
    }

    /// The digest every iteration has matched so far.
    pub fn value(&self) -> Option<u64> {
        self.first
    }

    /// Compares `d` with this process's first digest and, for the
    /// first iteration, with the digest an earlier process recorded.
    pub fn check(&mut self, d: u64) -> Check {
        match self.first {
            Some(first) if first == d => Ok(()),
            Some(first) => Err(format!(
                "output digest {d:016x} differs from the first iteration's {first:016x}"
            )),
            None => {
                self.first = Some(d);
                self.check_file(d)
            }
        }
    }

    fn check_file(&self, d: u64) -> Check {
        let text = format!("{d:016x}\n");
        match std::fs::read_to_string(&self.file) {
            Ok(prev) if prev == text => Ok(()),
            Ok(prev) => Err(format!(
                "output digest {d:016x} differs from an earlier process's {}",
                prev.trim()
            )),
            Err(_) => {
                if let Some(parent) = self.file.parent() {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
                }
                std::fs::write(&self.file, text)
                    .map_err(|e| format!("cannot write {}: {e}", self.file.display()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwprof::analysis::Analyzer;
    use hwprof::profiler::RawRecord;
    use hwprof::tagfile::parse;

    fn profile() -> Reconstruction {
        let tf = parse("a/100\nb/102\n").expect("tag file parses");
        let records =
            [(100, 0), (102, 5), (103, 9), (101, 20)].map(|(tag, time)| RawRecord { tag, time });
        Analyzer::for_tagfile(&tf)
            .records(&records)
            .expect("strict analysis has no budget")
    }

    fn folded_of(r: &Reconstruction) -> String {
        hwprof::Profile::new(r).folded()
    }

    #[test]
    fn coverage_identity_trips_on_a_corrupted_ledger() {
        let good = Coverage {
            timeline_us: 100,
            covered_us: 70,
            gap_us: 30,
            ..Coverage::default()
        };
        assert!(coverage_identity(&good).is_ok());
        let bad = Coverage { gap_us: 29, ..good };
        assert!(coverage_identity(&bad).is_err());
    }

    #[test]
    fn recorder_ledger_trips_on_a_corrupted_ledger() {
        let good = RecorderLedger {
            elapsed_us: 100,
            covered_us: 60,
            dark_us: 30,
            evicted_us: 10,
            ..RecorderLedger::default()
        };
        assert!(recorder_ledger(&good).is_ok());
        let bad = RecorderLedger {
            evicted_us: 11,
            ..good
        };
        assert!(recorder_ledger(&bad).is_err());
    }

    #[test]
    fn fleet_ledger_trips_on_a_corrupted_ledger() {
        let good = FleetCoverage {
            machines: 2,
            timeline_us: 100,
            covered_us: 50,
            dark_us: 25,
            lost_us: 25,
        };
        assert!(fleet_ledger(&good).is_ok());
        let bad = FleetCoverage { lost_us: 0, ..good };
        assert!(fleet_ledger(&bad).is_err());
    }

    #[test]
    fn tag_checks_trip_on_a_lost_record() {
        assert!(tags_match("run", 10, 10).is_ok());
        assert!(tags_match("run", 9, 10).is_err());
        assert!(full_banks(8192 + 1, 2, 8192).is_ok());
        assert!(full_banks(2 * 8192, 2, 8192).is_ok());
        assert!(full_banks(8192, 2, 8192).is_err());
        assert!(full_banks(2 * 8192 + 1, 2, 8192).is_err());
        assert!(full_banks(0, 0, 8192).is_err());
    }

    #[test]
    fn chrome_check_trips_on_a_corrupted_trace() {
        let r = profile();
        let trace = hwprof::Profile::new(&r).chrome_trace();
        assert!(chrome_json(&trace).is_ok());
        assert!(chrome_json(&trace[..trace.len() - 1]).is_err());
        let corruptions = [
            trace.replacen("\"ph\":\"B\"", "\"ph\":B", 1),
            trace.replacen("},{", "},,{", 1),
            trace.replacen("},{", "}{", 1),
            trace.replacen("\"displayTimeUnit\":", "\"displayTimeUnit\"", 1),
        ];
        for bad in corruptions {
            assert_ne!(bad, trace, "fixture has the text to corrupt");
            assert!(validate_json(&bad).is_err());
            assert!(chrome_json(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn folded_check_trips_on_a_changed_weight() {
        let r = profile();
        let folded = folded_of(&r);
        assert!(folded_total(&folded, &r).is_ok(), "{folded}");
        let bumped = folded.replacen(" 4", " 5", 1);
        assert_ne!(bumped, folded, "fixture has a weight to corrupt");
        assert!(folded_total(&bumped, &r).is_err());
        assert!(folded_total("a;b\n", &r).is_err());
    }

    #[test]
    fn digest_check_trips_within_and_across_processes() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        let mut first = DigestCheck::new(&dir, "w-seed1");
        assert!(first.check(digest(&["ab", "c"])).is_ok());
        assert!(first.check(digest(&["ab", "c"])).is_ok());
        assert!(first.check(digest(&["a", "bc"])).is_err());
        // A second process of the same build must see the same bytes.
        let mut later = DigestCheck::new(&dir, "w-seed1");
        assert!(later.check(digest(&["ab", "d"])).is_err());
        let mut again = DigestCheck::new(&dir, "w-seed1");
        assert!(again.check(digest(&["ab", "c"])).is_ok());
        std::fs::remove_dir_all(&dir).expect("test directory removable");
    }
}
