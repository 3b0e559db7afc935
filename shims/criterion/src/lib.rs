//! Offline shim for the `criterion` API surface this workspace uses.
//!
//! The build environment has no registry access, so the real crate
//! cannot be fetched.  This harness keeps `criterion_group!` /
//! `criterion_main!`, benchmark groups, throughput annotation and
//! `Bencher::iter`/`iter_batched`, measuring mean wall-clock time per
//! iteration over a fixed time budget and printing one line per
//! benchmark.
//!
//! Two extensions the real crate does not have, both driven by
//! environment variables so `cargo bench` invocations stay unchanged:
//!
//! * **quick mode** — `HWPROF_BENCH_QUICK=1` shrinks the per-benchmark
//!   measuring budget from 300 ms to 40 ms so a full bench binary
//!   finishes in seconds (the CI bench-gate runs this way);
//! * **machine-readable results** — `HWPROF_BENCH_JSON=<dir>` makes
//!   `criterion_main!` write `BENCH_<binary>.json` into `<dir>` when
//!   the binary exits: every benchmark's ns/iter and derived
//!   throughput, plus a calibration constant measured in-process that
//!   lets the regression gate normalize across machines.  Keys are
//!   emitted sorted, so the files diff cleanly.

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export of `std::hint::black_box` under criterion's name.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// How a benchmark's work scales, for derived rates.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Batch sizing hints for `iter_batched` (ignored; every batch is 1).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration state.
    SmallInput,
    /// Large per-iteration state.
    LargeInput,
    /// One invocation per batch.
    PerIteration,
}

/// A parameterized benchmark name.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    full: String,
}

impl BenchmarkId {
    /// `name/parameter`, as criterion renders it.
    pub fn new<P: Display>(name: &str, parameter: P) -> Self {
        BenchmarkId {
            full: format!("{name}/{parameter}"),
        }
    }
}

/// One finished benchmark, as collected for the JSON emitter.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/benchmark` id.
    pub id: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Declared per-iteration work, if the group annotated one.
    pub throughput: Option<Throughput>,
}

/// True when quick mode is on (`HWPROF_BENCH_QUICK` set non-`0`):
/// benchmarks measure over a 40 ms budget instead of 300 ms.
pub fn quick_mode() -> bool {
    std::env::var_os("HWPROF_BENCH_QUICK").is_some_and(|v| v != "0")
}

/// Time budget spent measuring one benchmark.
fn budget() -> Duration {
    if quick_mode() {
        Duration::from_millis(40)
    } else {
        Duration::from_millis(300)
    }
}

/// Measurement slices per benchmark.  The budget is split into slices
/// and the **minimum** slice mean is reported: scheduler interference
/// only ever inflates a slice, so the minimum tracks the code's true
/// cost far more stably than one long mean — which is what a
/// regression gate needs.
const SLICES: u32 = 4;

/// The measurement driver passed to benchmark closures.
pub struct Bencher {
    /// Mean nanoseconds per iteration, recorded by `iter*`.
    ns_per_iter: f64,
}

impl Bencher {
    /// Times `routine`: the budget is split into `SLICES` slices of
    /// as many runs as fit, and the minimum slice mean is reported.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        // Warm-up and single-run estimate.
        let start = Instant::now();
        std_black_box(routine());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let slice_budget = budget().as_nanos() / u128::from(SLICES);
        let runs = (slice_budget / once.as_nanos()).clamp(1, 100_000) as u32;
        let mut best = f64::INFINITY;
        for _ in 0..SLICES {
            let start = Instant::now();
            for _ in 0..runs {
                std_black_box(routine());
            }
            best = best.min(start.elapsed().as_nanos() as f64 / f64::from(runs));
        }
        self.ns_per_iter = best;
    }

    /// Times `routine` over values built by `setup` (setup excluded),
    /// with the same minimum-of-slices estimate as [`iter`].
    ///
    /// [`iter`]: Bencher::iter
    pub fn iter_batched<I, R, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> R,
    {
        let input = setup();
        let start = Instant::now();
        std_black_box(routine(input));
        let once = start.elapsed().max(Duration::from_nanos(1));
        let slice_budget = budget().as_nanos() / u128::from(SLICES);
        let runs = (slice_budget / once.as_nanos()).clamp(1, 100_000) as u32;
        let mut best = f64::INFINITY;
        for _ in 0..SLICES {
            let inputs: Vec<I> = (0..runs).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                std_black_box(routine(input));
            }
            best = best.min(start.elapsed().as_nanos() as f64 / f64::from(runs));
        }
        self.ns_per_iter = best;
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Annotates how much work one iteration does.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Accepted for compatibility; the shim sizes runs by time budget.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for compatibility; the shim sizes runs by time budget.
    pub fn measurement_time(&mut self, _d: std::time::Duration) -> &mut Self {
        self
    }

    fn run_one(&mut self, id: &str, f: impl FnOnce(&mut Bencher)) {
        let mut b = Bencher { ns_per_iter: 0.0 };
        f(&mut b);
        let rate = match self.throughput {
            Some(Throughput::Bytes(n)) => {
                format!(
                    "  ({:.1} MiB/s)",
                    n as f64 / (1024.0 * 1024.0) / (b.ns_per_iter / 1e9)
                )
            }
            Some(Throughput::Elements(n)) => {
                format!("  ({:.0} elem/s)", n as f64 / (b.ns_per_iter / 1e9))
            }
            None => String::new(),
        };
        println!(
            "bench {:<44} {:>12.0} ns/iter{}",
            format!("{}/{}", self.name, id),
            b.ns_per_iter,
            rate
        );
        self.criterion.results.push(BenchResult {
            id: format!("{}/{}", self.name, id),
            ns_per_iter: b.ns_per_iter,
            throughput: self.throughput,
        });
    }

    /// Runs one benchmark in the group.
    pub fn bench_function(&mut self, id: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        self.run_one(id, f);
        self
    }

    /// Runs one parameterized benchmark with a borrowed input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        f: impl FnOnce(&mut Bencher, &I),
    ) -> &mut Self {
        self.run_one(&id.full.clone(), |b| f(b, input));
        self
    }

    /// Ends the group (printing happened per benchmark).
    pub fn finish(&mut self) {}
}

/// The top-level benchmark driver; collects every result for the JSON
/// emitter.
#[derive(Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Starts a named group.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            throughput: None,
            criterion: self,
        }
    }

    /// Runs one stand-alone benchmark.
    pub fn bench_function(&mut self, id: &str, f: impl FnOnce(&mut Bencher)) -> &mut Self {
        let mut g = BenchmarkGroup {
            name: "bench".to_string(),
            throughput: None,
            criterion: self,
        };
        g.run_one(id, f);
        self
    }

    /// Every result collected so far, in run order.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Writes `BENCH_<bench_name>.json` into `$HWPROF_BENCH_JSON` if
    /// that variable is set; a no-op otherwise.  Called by
    /// `criterion_main!` when the binary finishes.
    pub fn emit(&self, bench_name: &str) {
        let Some(dir) = std::env::var_os("HWPROF_BENCH_JSON") else {
            return;
        };
        let json = render_json(bench_name, quick_mode(), calibrate(), &self.results);
        let dir = std::path::PathBuf::from(dir);
        let path = dir.join(format!("BENCH_{bench_name}.json"));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
            eprintln!("bench json: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("bench json -> {}", path.display());
    }
}

/// Measures the machine's calibration constant: nanoseconds per element
/// of a fixed dependent-multiply walk.  The regression gate divides
/// throughput by the baseline's calibration before comparing, so a
/// slower CI machine is not misread as a regression (and a faster one
/// does not mask a real regression).  Best-of-three to shave scheduler
/// noise.
pub fn calibrate() -> f64 {
    const N: u64 = 1 << 18;
    fn walk() -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..N {
            x = std_black_box(x.wrapping_mul(0x100_0000_01b3).rotate_left(17) ^ i);
        }
        x
    }
    std_black_box(walk()); // warm
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        std_black_box(walk());
        best = best.min(start.elapsed().as_nanos() as f64 / N as f64);
    }
    best
}

/// Escapes a string for JSON (the ids are plain ASCII, but corrupt
/// input must not produce corrupt JSON).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float with fixed precision (deterministic, locale-free).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

/// Renders the BENCH json document: schema version, bench name, quick
/// flag, calibration constant, and one entry per benchmark id with
/// ns/iter and derived per-second throughput.  **Keys are emitted in
/// sorted order and every number has fixed precision**, so the output
/// is byte-deterministic for a given set of measurements regardless of
/// run order — the writer's unit tests pin exactly that.
pub fn render_json(
    bench_name: &str,
    quick: bool,
    calibration: f64,
    results: &[BenchResult],
) -> String {
    // Last result wins for a repeated id (criterion semantics: an id
    // rerun replaces its record).
    let mut by_id: std::collections::BTreeMap<&str, &BenchResult> = Default::default();
    for r in results {
        by_id.insert(&r.id, r);
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", escape(bench_name)));
    out.push_str(&format!(
        "  \"calibration_ns_per_elem\": {},\n",
        num(calibration)
    ));
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"results\": {\n");
    let n = by_id.len();
    for (i, (id, r)) in by_id.iter().enumerate() {
        let (per_sec, unit) = match r.throughput {
            Some(Throughput::Elements(k)) => (
                num(k as f64 / (r.ns_per_iter / 1e9)),
                "\"elements\"".to_string(),
            ),
            Some(Throughput::Bytes(k)) => (
                num(k as f64 / (r.ns_per_iter / 1e9)),
                "\"bytes\"".to_string(),
            ),
            None => ("null".to_string(), "null".to_string()),
        };
        out.push_str(&format!(
            "    \"{}\": {{ \"ns_per_iter\": {}, \"per_sec\": {}, \"unit\": {} }}{}\n",
            escape(id),
            num(r.ns_per_iter),
            per_sec,
            unit,
            if i + 1 < n { "," } else { "" }
        ));
    }
    out.push_str("  },\n");
    out.push_str("  \"schema\": 1\n");
    out.push_str("}\n");
    out
}

/// Declares a group-runner function invoking each benchmark fn.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Declares `main` running the listed groups over one shared
/// [`Criterion`], then emitting the BENCH json (if configured).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // cargo bench passes harness flags like `--bench`; ignore.
            let mut c = $crate::Criterion::default();
            $($group(&mut c);)+
            c.emit(env!("CARGO_CRATE_NAME"));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher { ns_per_iter: 0.0 };
        b.iter(|| (0..1000u64).sum::<u64>());
        assert!(b.ns_per_iter > 0.0);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Elements(10));
        g.sample_size(10);
        g.bench_function("noop", |b| b.iter(|| black_box(1 + 1)));
        g.bench_with_input(BenchmarkId::new("param", 4), &4u32, |b, &n| {
            b.iter(|| black_box(n * 2))
        });
        g.finish();
        assert_eq!(c.results().len(), 2);
        assert_eq!(c.results()[0].id, "g/noop");
        assert_eq!(c.results()[1].id, "g/param/4");
    }

    fn sample() -> Vec<BenchResult> {
        vec![
            BenchResult {
                id: "z/last".into(),
                ns_per_iter: 250.0,
                throughput: Some(Throughput::Elements(1000)),
            },
            BenchResult {
                id: "a/first".into(),
                ns_per_iter: 125.5,
                throughput: Some(Throughput::Bytes(4096)),
            },
            BenchResult {
                id: "m/middle".into(),
                ns_per_iter: 10.0,
                throughput: None,
            },
        ]
    }

    /// The writer's schema: every declared field present, results keyed
    /// by benchmark id, derived throughput correct.
    #[test]
    fn json_writer_schema() {
        let json = render_json("capture_path", true, 0.5, &sample());
        assert!(json.contains("\"bench\": \"capture_path\""));
        assert!(json.contains("\"schema\": 1"));
        assert!(json.contains("\"quick\": true"));
        assert!(json.contains("\"calibration_ns_per_elem\": 0.500"));
        // 1000 elements / 250 ns = 4e9 per second.
        assert!(json.contains(
            "\"z/last\": { \"ns_per_iter\": 250.000, \"per_sec\": 4000000000.000, \"unit\": \"elements\" }"
        ));
        assert!(json.contains("\"unit\": \"bytes\""));
        assert!(json.contains(
            "\"m/middle\": { \"ns_per_iter\": 10.000, \"per_sec\": null, \"unit\": null }"
        ));
    }

    /// Key order is sorted, not insertion order: any permutation of the
    /// same measurements renders byte-identical JSON.
    #[test]
    fn json_writer_is_deterministic_over_input_order() {
        let mut shuffled = sample();
        shuffled.reverse();
        let a = render_json("x", false, 1.0, &sample());
        let b = render_json("x", false, 1.0, &shuffled);
        assert_eq!(a, b);
        let a_pos = a.find("\"a/first\"").expect("present");
        let m_pos = a.find("\"m/middle\"").expect("present");
        let z_pos = a.find("\"z/last\"").expect("present");
        assert!(a_pos < m_pos && m_pos < z_pos, "sorted keys");
    }

    /// A repeated id keeps the last measurement, and ids with JSON
    /// metacharacters cannot corrupt the document.
    #[test]
    fn json_writer_last_wins_and_escapes() {
        let results = vec![
            BenchResult {
                id: "g/b".into(),
                ns_per_iter: 1.0,
                throughput: None,
            },
            BenchResult {
                id: "g/b".into(),
                ns_per_iter: 2.0,
                throughput: None,
            },
            BenchResult {
                id: "g/\"q\"".into(),
                ns_per_iter: 3.0,
                throughput: None,
            },
        ];
        let json = render_json("x", false, 1.0, &results);
        assert!(json.contains("\"g/b\": { \"ns_per_iter\": 2.000"));
        assert!(!json.contains("\"g/b\": { \"ns_per_iter\": 1.000"));
        assert!(json.contains("g/\\\"q\\\""));
    }
}
