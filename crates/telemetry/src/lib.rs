//! Self-metrics for the hwprof pipeline.
//!
//! McRae's board is observable only after the fact: the RAMs come back
//! to the host and you learn the overflow LED lit hours ago.  The
//! supervised pipeline makes run-time decisions (re-arm, mask ladder,
//! retry, circuit-break) and this crate gives those decisions a live
//! health channel that is separate from the trace data itself.
//!
//! Three metric kinds, all lock-free on the hot path:
//!
//! * [`Counter`] — monotonically increasing event count.
//! * [`Gauge`] — last-write-wins level (bank fill, queue depth).
//! * [`Histo`] — log2-bucketed histogram of a u64 sample (gap widths,
//!   backoff delays), with exact `count` and `sum` alongside.
//!
//! Handles are `Arc`-backed atomics handed out by a [`Registry`]; the
//! registry's mutex is touched only at registration and snapshot time,
//! never per-event.  Re-registering a name returns the *same* handle,
//! so independent subsystems can share a metric by name.
//!
//! Observation is opt-in, and the off switch lives here rather than at
//! every call site.  The `Default` of every handle — [`Counter`],
//! [`Gauge`], [`Histo`], [`Registry`] and [`SpanLog`] — is *inert*: it
//! holds no allocation, touches no atomic, and every operation on it
//! does nothing.  An inert registry hands out inert metric handles and
//! inert [`Registry::prefixed`] views, so a producer built from one
//! simply calls its handles and never tests whether telemetry is on.
//! [`Registry::new`] and [`SpanLog::new`] make live ones.
//!
//! All atomics use `Relaxed` ordering: metrics are statistical while
//! the run is live, and exact once the run has quiesced (thread joins
//! and supervisor `finish()` provide the happens-before edge that the
//! consistency tests rely on).
//!
//! ```
//! use hwprof_telemetry::Registry;
//! let reg = Registry::new();
//! let triggers = reg.counter("board.triggers");
//! triggers.add(3);
//! reg.gauge("board.fill_pct").set(42);
//! reg.histo("gap.us").observe(130);
//! let snap = reg.snapshot();
//! assert_eq!(snap.value("board.triggers"), Some(3));
//! assert_eq!(snap.value("board.fill_pct"), Some(42));
//! ```

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

mod spans;

pub use spans::{SpanEvent, SpanLog, SpanName, SpanPhase, SpanTrack, SPAN_LOG_CAPACITY};

/// Number of log2 buckets in a [`Histo`]: bucket `i` counts samples
/// whose bit length is `i`, i.e. `0` goes to bucket 0 and a value `v`
/// with `2^(i-1) <= v < 2^i` goes to bucket `i`.  Bucket 64 holds the
/// top half of the u64 range.
pub const HISTO_BUCKETS: usize = 65;

/// Bucket index for a sample: its bit length (0 for 0).
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`None` for the unbounded top
/// bucket).
pub fn bucket_bound(i: usize) -> Option<u64> {
    match i {
        0 => Some(0),
        1..=63 => Some((1u64 << i) - 1),
        _ => None,
    }
}

/// Monotonic event counter; inert by default.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Relaxed))
    }
}

/// Last-write-wins level; inert by default.  `inc`/`dec` support
/// depth-style gauges (spill shelf, worker queue); `dec` saturates at
/// zero rather than wrapping, so a racy underflow cannot turn into 2^64.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    #[inline]
    pub fn set(&self, v: u64) {
        self.set_with(|| v);
    }

    /// Sets the level to `level()`, evaluated only on a live handle: a
    /// level derived per event costs nothing while telemetry is off.
    #[inline]
    pub fn set_with(&self, level: impl FnOnce() -> u64) {
        if let Some(g) = &self.0 {
            g.store(level(), Relaxed);
        }
    }

    #[inline]
    pub fn inc(&self) {
        if let Some(g) = &self.0 {
            g.fetch_add(1, Relaxed);
        }
    }

    #[inline]
    pub fn dec(&self) {
        if let Some(g) = &self.0 {
            let _ = g.fetch_update(Relaxed, Relaxed, |v| Some(v.saturating_sub(1)));
        }
    }

    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |g| g.load(Relaxed))
    }
}

#[derive(Debug)]
struct HistoInner {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTO_BUCKETS],
}

/// Log2-bucketed histogram with exact count and sum; inert by default.
#[derive(Clone, Debug, Default)]
pub struct Histo(Option<Arc<HistoInner>>);

impl Histo {
    fn live() -> Self {
        Histo(Some(Arc::new(HistoInner {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [(); HISTO_BUCKETS].map(|_| AtomicU64::new(0)),
        })))
    }

    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.count.fetch_add(1, Relaxed);
            h.sum.fetch_add(v, Relaxed);
            h.buckets[bucket_of(v)].fetch_add(1, Relaxed);
        }
    }

    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.count.load(Relaxed))
    }

    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.sum.load(Relaxed))
    }

    fn buckets(&self) -> Vec<u64> {
        self.0.as_ref().map_or_else(Vec::new, |h| {
            h.buckets.iter().map(|b| b.load(Relaxed)).collect()
        })
    }
}

#[derive(Clone)]
enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histo(Histo),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histo(_) => "histo",
        }
    }
}

/// Handle factory and snapshot point; inert by default
/// ([`Registry::new`] makes a live one).  Cloning shares the underlying
/// store; the mutex guards only the name table, never the atomics.
///
/// A registry may carry a *prefix* ([`Registry::prefixed`]): every
/// metric name registered through it is stored under
/// `{prefix}{name}`, while the underlying table stays shared.  That is
/// how a fleet gives each machine its own `m{i}.` namespace — N
/// machines' supervisors all write `sup.gaps`, the shared table keeps
/// `m0.sup.gaps` … `mN.sup.gaps`, and one [`Registry::snapshot`] of
/// the fleet serves them all without collisions.
#[derive(Clone, Default)]
pub struct Registry {
    /// The shared name table; `None` is the inert registry.
    slots: Option<Arc<Mutex<BTreeMap<String, Slot>>>>,
    prefix: String,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let metrics = self.slots.as_ref().map(|s| {
            let slots = s.lock().unwrap_or_else(|e| e.into_inner());
            slots.len()
        });
        f.debug_struct("Registry")
            .field("metrics", &metrics)
            .field("prefix", &self.prefix)
            .finish()
    }
}

impl Registry {
    /// A live, empty registry.
    pub fn new() -> Self {
        Registry {
            slots: Some(Arc::default()),
            prefix: String::new(),
        }
    }

    /// Whether this registry records anything (`false` for the inert
    /// default).
    pub fn is_on(&self) -> bool {
        self.slots.is_some()
    }

    /// A view of the same registry that stores every metric under
    /// `{prefix}{name}`.  The slot table stays shared — a snapshot
    /// taken from any view sees all views' metrics — and prefixes
    /// compose: `reg.prefixed("fleet.").prefixed("m0.")` writes under
    /// `fleet.m0.`.  A view of the inert registry is inert.
    pub fn prefixed(&self, prefix: &str) -> Registry {
        match &self.slots {
            Some(slots) => Registry {
                slots: Some(Arc::clone(slots)),
                prefix: format!("{}{}", self.prefix, prefix),
            },
            None => Registry::default(),
        }
    }

    /// This view's prefix (empty for a bare or inert registry).
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The handle registered as `name`, creating it with `make` on first
    /// use; an inert handle from the inert registry.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    fn handle<T: Default>(
        &self,
        name: &str,
        kind: &str,
        make: impl FnOnce() -> Slot,
        get: impl FnOnce(&Slot) -> Option<T>,
    ) -> T {
        let Some(slots) = &self.slots else {
            return T::default();
        };
        let mut slots = slots.lock().unwrap();
        let slot = slots
            .entry(format!("{}{}", self.prefix, name))
            .or_insert_with(make);
        get(slot).unwrap_or_else(|| panic!("metric {name:?} is a {}, not a {kind}", slot.kind()))
    }

    /// Counter handle for `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let live = || Slot::Counter(Counter(Some(Arc::default())));
        self.handle(name, "counter", live, |slot| match slot {
            Slot::Counter(c) => Some(c.clone()),
            _ => None,
        })
    }

    /// Gauge handle for `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let live = || Slot::Gauge(Gauge(Some(Arc::default())));
        self.handle(name, "gauge", live, |slot| match slot {
            Slot::Gauge(g) => Some(g.clone()),
            _ => None,
        })
    }

    /// Histogram handle for `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histo(&self, name: &str) -> Histo {
        let live = || Slot::Histo(Histo::live());
        self.handle(name, "histo", live, |slot| match slot {
            Slot::Histo(h) => Some(h.clone()),
            _ => None,
        })
    }

    /// Point-in-time copy of every registered metric, sorted by name
    /// (empty for the inert registry).
    pub fn snapshot(&self) -> Snapshot {
        let Some(slots) = &self.slots else {
            return Snapshot::default();
        };
        let slots = slots.lock().unwrap();
        let metrics = slots
            .iter()
            .map(|(name, slot)| {
                let value = match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.get()),
                    Slot::Gauge(g) => MetricValue::Gauge(g.get()),
                    Slot::Histo(h) => MetricValue::Histo(HistoValue {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.buckets(),
                    }),
                };
                (name.clone(), value)
            })
            .collect();
        Snapshot { metrics }
    }
}

/// One captured metric value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(u64),
    Histo(HistoValue),
}

impl MetricValue {
    /// Scalar view: the counter or gauge value; a histogram's count.
    pub fn scalar(&self) -> u64 {
        match self {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => *v,
            MetricValue::Histo(h) => h.count,
        }
    }
}

/// Captured histogram: exact count and sum plus the log2 buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistoValue {
    pub count: u64,
    pub sum: u64,
    /// `HISTO_BUCKETS` entries; `buckets[i]` counts samples of bit
    /// length `i`.
    pub buckets: Vec<u64>,
}

/// Point-in-time registry capture, sorted by metric name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub metrics: Vec<(String, MetricValue)>,
}

impl Snapshot {
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| &self.metrics[i].1)
    }

    /// Scalar value of `name` (counter/gauge value, histo count).
    pub fn value(&self, name: &str) -> Option<u64> {
        self.get(name).map(MetricValue::scalar)
    }

    /// Exact sum of all samples observed by histogram `name`.
    pub fn histo_sum(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Histo(h) => Some(h.sum),
            _ => None,
        }
    }

    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The metrics under `prefix`, with the prefix stripped: the
    /// inverse of writing through [`Registry::prefixed`].  A fleet
    /// snapshot's `m3.` slice comes back looking exactly like a
    /// single-machine snapshot, so per-machine consumers
    /// (`HealthReport`) run unchanged.  Relative order — and therefore
    /// sortedness — is preserved.
    pub fn strip_prefix(&self, prefix: &str) -> Snapshot {
        let metrics = self
            .metrics
            .iter()
            .filter_map(|(name, value)| {
                name.strip_prefix(prefix)
                    .map(|rest| (rest.to_string(), value.clone()))
            })
            .collect();
        Snapshot { metrics }
    }

    /// Element-wise union of several snapshots: counters and gauges
    /// sum, histograms add count/sum/buckets element-wise.  Feeding it
    /// the per-machine [`Snapshot::strip_prefix`] slices of a fleet
    /// snapshot yields the fleet-aggregate view of the same metric
    /// names a single machine would report.
    ///
    /// # Panics
    /// If the same name appears with different metric kinds.
    pub fn aggregate<'a>(parts: impl IntoIterator<Item = &'a Snapshot>) -> Snapshot {
        let mut merged: BTreeMap<String, MetricValue> = BTreeMap::new();
        for part in parts {
            for (name, value) in &part.metrics {
                match merged.entry(name.clone()) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(value.clone());
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        match (e.get_mut(), value) {
                            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
                            (MetricValue::Histo(a), MetricValue::Histo(b)) => {
                                a.count += b.count;
                                a.sum += b.sum;
                                for (x, y) in a.buckets.iter_mut().zip(&b.buckets) {
                                    *x += y;
                                }
                            }
                            (have, _) => {
                                panic!("metric {name:?} aggregated across kinds (have {have:?})")
                            }
                        }
                    }
                }
            }
        }
        Snapshot {
            metrics: merged.into_iter().collect(),
        }
    }
}

impl fmt::Display for Snapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.metrics {
            match value {
                MetricValue::Counter(v) => writeln!(f, "{name} = {v}")?,
                MetricValue::Gauge(v) => writeln!(f, "{name} = {v} (gauge)")?,
                MetricValue::Histo(h) => {
                    writeln!(f, "{name} = {{count {}, sum {}}}", h.count, h.sum)?
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_accumulate_and_share_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        assert_eq!(reg.snapshot().value("x"), Some(5));
    }

    #[test]
    fn gauge_dec_saturates() {
        let reg = Registry::new();
        let g = reg.gauge("depth");
        g.dec();
        assert_eq!(g.get(), 0);
        g.inc();
        g.inc();
        g.dec();
        g.set(7);
        assert_eq!(reg.snapshot().value("depth"), Some(7));
    }

    #[test]
    fn histo_buckets_by_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_bound(0), Some(0));
        assert_eq!(bucket_bound(3), Some(7));
        assert_eq!(bucket_bound(64), None);

        let reg = Registry::new();
        let h = reg.histo("gap.us");
        for v in [0, 1, 2, 3, 7, 8, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.sum(), 1021);
        match reg.snapshot().get("gap.us").unwrap() {
            MetricValue::Histo(hv) => {
                assert_eq!(hv.buckets.len(), HISTO_BUCKETS);
                assert_eq!(hv.buckets[0], 1); // 0
                assert_eq!(hv.buckets[1], 1); // 1
                assert_eq!(hv.buckets[2], 2); // 2, 3
                assert_eq!(hv.buckets[3], 1); // 7
                assert_eq!(hv.buckets[4], 1); // 8
                assert_eq!(hv.buckets[10], 1); // 1000
                assert_eq!(hv.buckets.iter().sum::<u64>(), hv.count);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("x");
        let _ = reg.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_indexable() {
        let reg = Registry::new();
        reg.counter("b").inc();
        reg.counter("a").add(2);
        reg.gauge("c").set(9);
        let snap = reg.snapshot();
        let names: Vec<_> = snap.metrics.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!(snap.value("a"), Some(2));
        assert_eq!(snap.value("missing"), None);
    }

    #[test]
    fn prefixed_views_share_one_table_without_collisions() {
        let reg = Registry::new();
        let m0 = reg.prefixed("m0.");
        let m1 = reg.prefixed("m1.");
        m0.counter("sup.gaps").add(3);
        m1.counter("sup.gaps").add(8);
        m1.histo("gap.us").observe(100);
        // One snapshot from any view sees every machine's metrics.
        let snap = reg.snapshot();
        assert_eq!(snap.value("m0.sup.gaps"), Some(3));
        assert_eq!(snap.value("m1.sup.gaps"), Some(8));
        assert_eq!(snap.histo_sum("m1.gap.us"), Some(100));
        // Prefixes compose.
        let deep = reg.prefixed("fleet.").prefixed("m0.");
        assert_eq!(deep.prefix(), "fleet.m0.");
        deep.counter("x").inc();
        assert_eq!(reg.snapshot().value("fleet.m0.x"), Some(1));
    }

    #[test]
    fn strip_prefix_recovers_single_machine_view() {
        let reg = Registry::new();
        reg.prefixed("m0.").counter("a").add(1);
        reg.prefixed("m1.").counter("a").add(2);
        reg.prefixed("m1.").gauge("b").set(9);
        let snap = reg.snapshot();
        let m1 = snap.strip_prefix("m1.");
        assert_eq!(m1.len(), 2);
        assert_eq!(m1.value("a"), Some(2));
        assert_eq!(m1.value("b"), Some(9));
        // Still sorted, so binary-search lookups keep working.
        assert!(m1.metrics.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn aggregate_sums_scalars_and_histos_element_wise() {
        let reg = Registry::new();
        for (m, n) in [("m0.", 3u64), ("m1.", 5)] {
            let view = reg.prefixed(m);
            view.counter("c").add(n);
            view.gauge("g").set(n);
            view.histo("h").observe(n);
        }
        let snap = reg.snapshot();
        let parts = [snap.strip_prefix("m0."), snap.strip_prefix("m1.")];
        let agg = Snapshot::aggregate(parts.iter());
        assert_eq!(agg.value("c"), Some(8));
        assert_eq!(agg.value("g"), Some(8));
        match agg.get("h").unwrap() {
            MetricValue::Histo(h) => {
                assert_eq!(h.count, 2);
                assert_eq!(h.sum, 8);
                assert_eq!(h.buckets[bucket_of(3)] + h.buckets[bucket_of(5)], 2);
            }
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn inert_handles_do_nothing() {
        let (c, g, h) = (Counter::default(), Gauge::default(), Histo::default());
        c.inc();
        c.add(5);
        g.set(7);
        g.inc();
        g.dec();
        g.set_with(|| unreachable!("an inert gauge never evaluates its level"));
        h.observe(130);
        assert_eq!((c.get(), g.get(), h.count(), h.sum()), (0, 0, 0, 0));
    }

    #[test]
    fn inert_registry_stays_inert() {
        let reg = Registry::default();
        assert!(!reg.is_on());
        reg.counter("x").inc();
        reg.gauge("g").set(3);
        reg.histo("h").observe(9);
        // Re-registering as another kind cannot clash in an empty table.
        reg.gauge("x").set(1);
        assert!(reg.snapshot().is_empty());
        let view = reg.prefixed("m0.").prefixed("sup.");
        assert!(!view.is_on());
        assert_eq!(view.prefix(), "");
        view.counter("gaps").add(4);
        assert!(view.snapshot().is_empty());
        assert!(reg.snapshot().is_empty());
        assert!(Registry::new().is_on());
    }

    #[test]
    fn concurrent_increments_are_exact_after_join() {
        let reg = Registry::new();
        let c = reg.counter("n");
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.snapshot().value("n"), Some(80_000));
    }
}
