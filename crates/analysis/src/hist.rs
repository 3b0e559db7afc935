//! Per-call time histograms (the paper's future-work item: "building
//! histograms of the function time and usage for easy detection of
//! bottlenecks").

use crate::recon::{ItemKind, Reconstruction};

/// A per-call net-time histogram for one function.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Function name.
    pub name: String,
    /// Bucket upper bounds (µs).
    pub bounds: Vec<u64>,
    /// Counts per bucket (last bucket is overflow).
    pub counts: Vec<u64>,
    /// Samples observed.
    pub n: u64,
}

/// Builds a histogram of `name`'s per-call net times from the trace.
///
/// Buckets are power-of-two µs bounds from 1 µs up to `max_bound`.
pub fn histogram(r: &Reconstruction, name: &str, max_bound: u64) -> Option<Histogram> {
    let sym = r.syms.lookup(name)?;
    let mut bounds = Vec::new();
    let mut b = Some(1u64);
    while let Some(ub) = b.filter(|&ub| ub <= max_bound) {
        bounds.push(ub);
        b = ub.checked_mul(2);
    }
    let mut counts = vec![0u64; bounds.len() + 1];
    let mut n = 0u64;
    for segment in r.trace.segments() {
        for item in segment {
            if let ItemKind::Call {
                sym: s,
                net,
                closed: true,
                ..
            } = item.kind
            {
                if s == sym {
                    let idx = bounds
                        .iter()
                        .position(|&ub| net <= ub)
                        .unwrap_or(bounds.len());
                    counts[idx] += 1;
                    n += 1;
                }
            }
        }
    }
    Some(Histogram {
        name: name.to_string(),
        bounds,
        counts,
        n,
    })
}

/// Renders a text histogram with proportional bars.
pub fn render(h: &Histogram, width: usize) -> String {
    let mut out = format!("{} — {} calls\n", h.name, h.n);
    let max = h.counts.iter().copied().max().unwrap_or(0).max(1);
    for (i, &c) in h.counts.iter().enumerate() {
        let label = if i < h.bounds.len() {
            format!("<= {:>6} us", h.bounds[i])
        } else {
            format!(">  {:>6} us", h.bounds.last().copied().unwrap_or(0))
        };
        let bar = "#".repeat((c as usize * width).div_ceil(max as usize).min(width));
        out.push_str(&format!("{label} {c:>7} {bar}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::events::decode;
    fn analyze(syms: &crate::Symbols, events: &[crate::Event]) -> crate::Reconstruction {
        crate::Analyzer::new(syms).session(events).expect("ungated")
    }
    use hwprof_profiler::RawRecord;

    #[test]
    fn histogram_buckets_per_call_times() {
        let tf = hwprof_tagfile::parse("f/100\n").unwrap();
        // Three calls: 3 us, 6 us, 100 us.
        let recs = [
            RawRecord { tag: 100, time: 0 },
            RawRecord { tag: 101, time: 3 },
            RawRecord { tag: 100, time: 10 },
            RawRecord { tag: 101, time: 16 },
            RawRecord { tag: 100, time: 20 },
            RawRecord {
                tag: 101,
                time: 120,
            },
        ];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        let h = super::histogram(&r, "f", 64).unwrap();
        assert_eq!(h.n, 3);
        // 3 -> bucket <=4; 6 -> <=8; 100 -> overflow.
        assert_eq!(h.counts[h.bounds.iter().position(|&b| b == 4).unwrap()], 1);
        assert_eq!(h.counts[h.bounds.iter().position(|&b| b == 8).unwrap()], 1);
        assert_eq!(*h.counts.last().unwrap(), 1);
        let text = super::render(&h, 40);
        assert!(text.contains("f — 3 calls"));
        assert!(super::histogram(&r, "missing", 64).is_none());
    }

    /// A bound past 2^63 stops at the last power of two instead of
    /// overflowing the doubling.
    #[test]
    fn histogram_bounds_stop_at_the_largest_power_of_two() {
        let tf = hwprof_tagfile::parse("f/100\n").unwrap();
        let recs = [
            RawRecord { tag: 100, time: 0 },
            RawRecord { tag: 101, time: 3 },
        ];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        let h = super::histogram(&r, "f", u64::MAX).unwrap();
        assert_eq!(h.bounds.len(), 64);
        assert_eq!(h.bounds.last(), Some(&(1u64 << 63)));
        assert_eq!((h.n, h.counts[2]), (1, 1), "3 us lands in <= 4");
    }
}
