//! The always-on flight recorder: continuous supervised capture folded
//! into fixed-width time-window rollups, with differential reports.
//!
//! A [`FlightRecorder`] is fed by the run's
//! [`SupervisedFold`](crate::SupervisedFold), which decodes each
//! delivered bank once: every session's events are split across the
//! fixed windows they fall in, every gap is charged to the windows it
//! darkens.  Each window's rollup is a full [`Reconstruction`] — the
//! monoid again — folded in session-index order, so a window is
//! bit-identical to a one-shot analysis of the same span no matter how
//! the spill shelf permuted delivery (`recorder_props` pins this at 256
//! cases).  A fold computes the summary only: its trace stays pending
//! on the window's fragments until something reads it, so the
//! summary-only reads (`range`, `window`, `diff`, the sentinel's scan)
//! never build one.  A fragment is a range of its bank's one shared
//! event buffer, and a cached fold keeps only its non-zero stats rows.
//!
//! Windows tile absolute machine time from 0: window `w` covers
//! `[w·W, (w+1)·W)` for width `W = RecorderConfig::window_us()`, clipped
//! to the recorder's observed timeline.  The ring retains at most
//! `RecorderConfig::retain()` windows; when a new window would exceed the
//! budget the oldest is evicted and its clipped span charged to the
//! [`RecorderLedger`], which stays exact at every instant:
//! `covered + dark + evicted == elapsed`.
//!
//! On top of the ring sits the query surface — [`FlightRecorder::window`],
//! [`FlightRecorder::range`] (merged through the monoid),
//! [`FlightRecorder::diff`] and [`WindowDiff::movers`] — and the same
//! [`Profile`] render surface every other capture path
//! uses, plus a self-contained byte-deterministic HTML report per
//! window ([`WindowRollup::html`]) and per diff ([`WindowDiff::html`]).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use hwprof_profiler::{Coverage, Gap, GapCause, RecorderConfig, SupervisedRun, SupervisedSession};
use hwprof_tagfile::TagFile;
use hwprof_telemetry::{
    Counter, Gauge, Registry, SpanEvent, SpanLog, SpanName, SpanPhase, SpanTrack,
};

use crate::columnar::{ColumnarDecoder, DenseTagTable};
use crate::events::{Event, SymId, Symbols};
use crate::profile::{html_esc, Profile, HTML_STYLE};
use crate::recon::{FnAgg, Reconstruction, Replay, SessionRecon, SparseRecon};
use crate::report::fmt_us;
use crate::stitch::{visibility, visible_us, MaskVisibility};

/// Movers threshold for differential reports, in parts-per-million of
/// relative growth of a function's coverage-scaled net rate (5%).
const DIFF_THRESHOLD_PPM: u32 = 50_000;

/// One session's events landing in one window: a range of the bank's
/// shared buffer, rebased to the window origin when a trace is built.
/// The window's fold shares it with its pending trace.
struct Frag {
    session: u64,
    replay: Replay,
}

/// One session's covered overlap with one window.
struct CovSpan {
    start_us: u64,
    end_us: u64,
    level: usize,
}

/// One gap's overlap with one window.
struct GapSpan {
    overflow: bool,
}

/// One retained window's raw material (strict decode flags no decode
/// anomalies to charge) plus its cached fold.
#[derive(Default)]
struct WindowSlot {
    frags: Vec<Frag>,
    spans: Vec<CovSpan>,
    gaps: Vec<GapSpan>,
    /// Cached fold, tagged with the clipped window span it covers.
    cache: Option<((u64, u64), SparseRecon)>,
}

/// `rec.*` self-metrics; inert until [`FlightRecorder::set_telemetry`].
#[derive(Default)]
struct RecMetrics {
    sessions: Counter,
    fragments: Counter,
    gaps: Counter,
    windows: Counter,
    evicted: Counter,
    evicted_us: Counter,
    late_sessions: Counter,
    retained: Gauge,
}

impl RecMetrics {
    fn new(reg: &Registry) -> Self {
        RecMetrics {
            sessions: reg.counter("rec.sessions"),
            fragments: reg.counter("rec.fragments"),
            gaps: reg.counter("rec.gaps"),
            windows: reg.counter("rec.windows"),
            evicted: reg.counter("rec.evicted"),
            evicted_us: reg.counter("rec.evicted_us"),
            late_sessions: reg.counter("rec.late_sessions"),
            retained: reg.gauge("rec.retained"),
        }
    }
}

struct RecorderInner {
    cfg: RecorderConfig,
    tf: TagFile,
    syms: Symbols,
    table: DenseTagTable,
    /// Absolute index of `windows[0]`; meaningless until `seen`.
    base_w: u64,
    windows: VecDeque<WindowSlot>,
    seen: bool,
    evicted_windows: u64,
    late_sessions: u64,
    sessions: u64,
    first_seen: Option<u64>,
    last_seen: u64,
    /// Hot tags of the sealed run, for coverage-scaled diffs.
    hot_tags: Vec<u16>,
    sealed: bool,
    metrics: RecMetrics,
    journal: SpanLog,
}

impl RecorderInner {
    /// Current clip bounds of the observed timeline.
    fn bounds(&self) -> Option<(u64, u64)> {
        self.first_seen.map(|s| (s, self.last_seen.max(s)))
    }

    /// Absolute boundary below which everything is evicted territory.
    fn evicted_boundary(&self) -> u64 {
        self.base_w * self.cfg.window_us()
    }

    /// Materializes window `w` (and any intermediate windows needed to
    /// keep the ring contiguous), enforcing the retention budget.
    /// Returns false when `w` is already evicted — a late arrival.
    fn ensure_window(&mut self, w: u64) -> bool {
        let before = self.windows.len();
        if !self.seen {
            self.seen = true;
            self.base_w = w;
        } else if w < self.base_w {
            if self.evicted_windows > 0 {
                return false;
            }
            // Extend the front — only legal while nothing was evicted,
            // so the evicted region stays one contiguous prefix.
            while w < self.base_w {
                self.windows.push_front(WindowSlot::default());
                self.base_w -= 1;
            }
        }
        while w >= self.base_w + self.windows.len() as u64 {
            self.windows.push_back(WindowSlot::default());
        }
        self.metrics
            .windows
            .add((self.windows.len() - before) as u64);
        self.trim();
        self.metrics.retained.set(self.windows.len() as u64);
        w >= self.base_w
    }

    /// Evicts oldest-first down to the retention budget, charging each
    /// evicted window's clipped span to the ledger.
    fn trim(&mut self) {
        while self.windows.len() > self.cfg.retain() {
            self.windows.pop_front();
            let w = self.base_w;
            self.base_w += 1;
            self.evicted_windows += 1;
            let (ws, we) = self.window_span(w);
            self.metrics.evicted.inc();
            self.metrics.evicted_us.add(we - ws);
            self.journal
                .instant(SpanTrack::Recorder, SpanName::Evict, we, w, we - ws);
        }
    }

    /// Window `w`'s span clipped to the observed timeline.
    fn window_span(&self, w: u64) -> (u64, u64) {
        let wd = self.cfg.window_us();
        let (start, end) = self.bounds().unwrap_or((0, 0));
        let ws = (w * wd).max(start).min(end);
        let we = ((w + 1) * wd).min(end).max(ws);
        (ws, we)
    }

    /// Ingests one delivered session from its decoded `events`: split
    /// the events and the covered span across the windows they fall in.
    fn ingest_session(&mut self, s: &SupervisedSession, events: Arc<Vec<Event>>) {
        if self.sealed {
            return;
        }
        self.sessions += 1;
        self.metrics.sessions.inc();
        let wd = self.cfg.window_us();

        self.note_seen(s.start_us, s.end_us);
        let last_event_end = events
            .iter()
            .map(|e| s.start_us + e.t)
            .max()
            .map(|t| t + 1)
            .unwrap_or(s.end_us);
        self.note_seen(s.start_us, last_event_end.max(s.end_us));

        // Materialize every window the span or an event touches.
        let w_lo = s.start_us / wd;
        let w_hi = (s.end_us.max(last_event_end).max(s.start_us + 1) - 1) / wd;
        let mut any_retained = false;
        for w in w_lo..=w_hi {
            any_retained |= self.ensure_window(w);
        }

        // Covered span per window.
        let level = s.level.idx();
        if s.end_us > s.start_us {
            for w in (s.start_us / wd)..=((s.end_us - 1) / wd) {
                if w < self.base_w {
                    continue;
                }
                let ws = (w * wd).max(s.start_us);
                let we = ((w + 1) * wd).min(s.end_us);
                self.touch(w).spans.push(CovSpan {
                    start_us: ws,
                    end_us: we,
                    level,
                });
            }
        }

        // Events per window, as ranges of the shared buffer rebased to
        // the window origin.
        let mut frags = 0u64;
        let window_of = |e: &Event| (s.start_us + e.t) / wd;
        let mut end = 0;
        for run in events.chunk_by(|a, b| window_of(a) == window_of(b)) {
            let range = end..end + run.len();
            end = range.end;
            let w = window_of(&run[0]);
            if w < self.base_w {
                continue;
            }
            let replay = Replay {
                events: events.clone(),
                range,
                shift: s.start_us.wrapping_sub(w * wd),
            };
            let frag = Frag {
                session: s.index,
                replay,
            };
            self.touch(w).frags.push(frag);
            frags += 1;
        }
        self.metrics.fragments.add(frags);

        if !any_retained {
            self.late_sessions += 1;
            self.metrics.late_sessions.inc();
        }
    }

    /// Ingests one dark-window gap.
    fn ingest_gap(&mut self, g: &Gap) {
        if self.sealed {
            return;
        }
        self.metrics.gaps.inc();
        self.note_seen(g.start_us, g.end_us);
        if g.end_us <= g.start_us {
            return;
        }
        let wd = self.cfg.window_us();
        for w in (g.start_us / wd)..=((g.end_us - 1) / wd) {
            if !self.ensure_window(w) {
                continue;
            }
            let overflow = g.cause == GapCause::Overflow;
            self.touch(w).gaps.push(GapSpan { overflow });
        }
    }

    fn note_seen(&mut self, start: u64, end: u64) {
        let first = self.first_seen.get_or_insert(start);
        if start < *first {
            *first = start;
        }
        self.last_seen = self.last_seen.max(end).max(start);
    }

    /// Window `w`'s slot, about to change: its cached fold is dropped.
    fn touch(&mut self, w: u64) -> &mut WindowSlot {
        let slot = &mut self.windows[(w - self.base_w) as usize];
        slot.cache = None;
        slot
    }

    /// Seals the finished run into the recorder: extends the timeline
    /// to the run's exact coverage bounds (the trailing idle/dark tail
    /// never reaches the sink as a session) and stores the hot-tag set
    /// for coverage-scaled diffs.
    fn seal(&mut self, run: &SupervisedRun) {
        if self.sealed {
            return;
        }
        let base = run
            .sessions
            .iter()
            .map(|s| s.start_us)
            .chain(run.gaps.iter().map(|g| g.start_us))
            .min();
        if let Some(base) = base {
            let end = base + run.coverage.timeline_us;
            self.note_seen(base, end);
            if end > 0 {
                // Materialize the full sealed timeline so the ring
                // tiles it exactly (the trailing idle/dark tail has no
                // delivered item of its own).
                self.ensure_window(base / self.cfg.window_us());
                let last_w = (end - 1) / self.cfg.window_us();
                if !self.seen || last_w >= self.base_w {
                    self.ensure_window(last_w);
                }
            }
        }
        self.hot_tags = run.hot_tags.clone();
        self.sealed = true;
        // Journal the retained ring once it is final: one window
        // span per retained window, at its clipped bounds.
        let spans = (0..self.windows.len()).flat_map(|off| {
            let w = self.base_w + off as u64;
            let (ws, we) = self.window_span(w);
            let frags = self.windows[off].frags.len() as u64;
            let event = |t_us, phase, arg| SpanEvent {
                t_us,
                phase,
                track: SpanTrack::Recorder,
                name: SpanName::Window,
                id: w,
                arg,
            };
            [
                event(ws, SpanPhase::Begin, 0),
                event(we, SpanPhase::End, frags),
            ]
        });
        self.journal.extend(spans);
    }

    /// Window `w`'s fold, built into its slot on first read and lent
    /// from there until the slot or the window's clipped span changes.
    fn fold(&mut self, w: u64) -> Option<&mut SparseRecon> {
        if !self.seen || w < self.base_w || w >= self.base_w + self.windows.len() as u64 {
            return None;
        }
        let span = self.window_span(w);
        let idx = (w - self.base_w) as usize;
        // Disjoint field borrows: the slot mutably, the symbols shared.
        let RecorderInner { windows, syms, .. } = self;
        let slot = &mut windows[idx];
        if !matches!(&slot.cache, Some((cached, _)) if *cached == span) {
            slot.cache = Some((span, Self::fold_slot(slot, syms, span)));
        }
        slot.cache.as_mut().map(|(_, r)| r)
    }

    /// Folds a slot's fragments, coverage and gaps over the clipped
    /// span `[ws, we)`.  The fold is a summary: its trace is one
    /// pending segment over the fragments, built only when read, and
    /// its stats keep only their non-zero rows.
    fn fold_slot(slot: &mut WindowSlot, syms: &Symbols, (ws, we): (u64, u64)) -> SparseRecon {
        slot.frags.sort_by_key(|f| f.session);
        let mut out = Reconstruction::empty(syms.clone());
        let sessions = slot.frags.iter().map(|f| f.replay.clone()).collect();
        SessionRecon::new(syms, false).sessions_pending(sessions, &mut out);
        let mut cov = Coverage::empty();
        cov.timeline_us = we - ws;
        for span in &slot.spans {
            let s = span.start_us.max(ws);
            let e = span.end_us.min(we);
            if e > s {
                cov.covered_us += e - s;
                cov.level_us[span.level] += e - s;
            }
        }
        cov.gap_us = cov.timeline_us - cov.covered_us;
        cov.gaps = slot.gaps.len() as u64;
        cov.overflow_gaps = slot.gaps.iter().filter(|g| g.overflow).count() as u64;
        out.note_coverage(&cov);
        SparseRecon::new(out)
    }

    /// The exact eviction ledger at this instant.
    fn ledger(&mut self) -> RecorderLedger {
        let Some((start, end)) = self.bounds() else {
            return RecorderLedger::default();
        };
        let evicted_us = if self.evicted_windows > 0 {
            self.evicted_boundary().min(end) - start
        } else {
            0
        };
        let mut covered = 0u64;
        let mut dark = 0u64;
        for off in 0..self.windows.len() {
            let w = self.base_w + off as u64;
            let (ws, we) = self.window_span(w);
            let slot = &self.windows[off];
            let c: u64 = slot
                .spans
                .iter()
                .map(|s| s.end_us.min(we).saturating_sub(s.start_us.max(ws)))
                .sum();
            covered += c;
            dark += (we - ws) - c;
        }
        RecorderLedger {
            elapsed_us: end - start,
            covered_us: covered,
            dark_us: dark,
            evicted_us,
            windows: self.windows.len() as u64,
            evicted_windows: self.evicted_windows,
            late_sessions: self.late_sessions,
        }
    }

    /// Window `w`'s rollup (see [`FlightRecorder::window`]).
    fn window(&mut self, w: u64) -> Option<WindowRollup> {
        let recon = self.fold(w)?.to_dense();
        let (start_us, end_us) = self.window_span(w);
        Some(WindowRollup {
            index: w,
            start_us,
            end_us,
            recon,
            name: format!("window {w}"),
        })
    }

    /// The per-function delta between two windows (see
    /// [`FlightRecorder::diff`]).
    fn diff(&mut self, a: u64, b: u64) -> Option<WindowDiff> {
        let ra = self.window(a)?;
        let rb = self.window(b)?;
        let mut rows = Vec::new();
        let syms = &ra.recon.syms;
        for s in 0..ra.recon.stats.len() {
            let fa = ra.recon.stats[s];
            let fb = rb.recon.stats[s];
            let active = |f: &FnAgg| f.calls > 0 || f.net > 0 || f.inline_hits > 0;
            if !active(&fa) && !active(&fb) {
                continue;
            }
            let name = syms.name(s as u32).to_string();
            let vis = visibility(&self.tf, &self.hot_tags, &name)
                .unwrap_or(MaskVisibility::UnlessSwitchOnly);
            let rate = |f: &FnAgg, r: &Reconstruction| -> Option<f64> {
                let vis_us = visible_us(&r.coverage, vis);
                if vis_us == 0 {
                    None
                } else {
                    Some(f.net as f64 / vis_us as f64)
                }
            };
            let a_rate = rate(&fa, &ra.recon);
            let b_rate = rate(&fb, &rb.recon);
            let growth_pct = match (a_rate, b_rate) {
                (Some(x), Some(y)) if x > 0.0 => Some((y / x - 1.0) * 100.0),
                _ => None,
            };
            rows.push(DiffRow {
                name,
                a: fa,
                b: fb,
                d_calls: fb.calls as i64 - fa.calls as i64,
                d_net: fb.net as i64 - fa.net as i64,
                d_elapsed: fb.elapsed as i64 - fa.elapsed as i64,
                d_inline: fb.inline_hits as i64 - fa.inline_hits as i64,
                a_rate,
                b_rate,
                growth_pct,
            });
        }
        rows.sort_by(|x, y| {
            y.d_net
                .abs()
                .cmp(&x.d_net.abs())
                .then_with(|| x.name.cmp(&y.name))
        });
        Some(WindowDiff {
            a,
            b,
            a_span: (ra.start_us, ra.end_us),
            b_span: (rb.start_us, rb.end_us),
            rows,
            d_anomalies: rb.recon.anomalies.total() as i64 - ra.recon.anomalies.total() as i64,
            threshold_ppm: DIFF_THRESHOLD_PPM,
        })
    }
}

/// The exact time-accounting ledger of the recorder ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecorderLedger {
    /// Observed timeline span (first seen µs to last seen µs).
    pub elapsed_us: u64,
    /// Armed-and-storing µs still retained in the ring.
    pub covered_us: u64,
    /// Dark µs (gaps, idle tails) still retained in the ring.
    pub dark_us: u64,
    /// µs written off with evicted windows.
    pub evicted_us: u64,
    /// Windows currently retained.
    pub windows: u64,
    /// Windows evicted so far.
    pub evicted_windows: u64,
    /// Sessions that arrived entirely after their windows were evicted
    /// (their span is already charged to `evicted_us`).
    pub late_sessions: u64,
}

impl RecorderLedger {
    /// The recorder invariant, exact or not at all.
    pub fn is_exact(&self) -> bool {
        self.covered_us + self.dark_us + self.evicted_us == self.elapsed_us
    }

    /// One deterministic ledger line, in the shared report dialect.
    pub fn describe(&self) -> String {
        format!(
            "recorder ledger: covered {} + dark {} + evicted {} == elapsed {} ({}; {} windows retained, {} evicted)",
            fmt_us(self.covered_us),
            fmt_us(self.dark_us),
            fmt_us(self.evicted_us),
            fmt_us(self.elapsed_us),
            if self.is_exact() { "exact" } else { "BROKEN" },
            self.windows,
            self.evicted_windows,
        )
    }
}

/// One window's finished rollup: a full [`Reconstruction`] over the
/// window's clipped span, renderable through [`Profile`] like any
/// other capture.
#[derive(Debug, Clone)]
pub struct WindowRollup {
    /// Absolute window index (first window of the range, for ranges).
    pub index: u64,
    /// Clipped span start, absolute µs.
    pub start_us: u64,
    /// Clipped span end, absolute µs.
    pub end_us: u64,
    /// The rollup itself.
    pub recon: Reconstruction,
    name: String,
}

impl WindowRollup {
    /// The unified render surface over this window.
    pub fn as_profile(&self) -> Profile<'_> {
        Profile::new(&self.recon).name(&self.name)
    }

    /// Self-contained byte-deterministic HTML report for this window.
    pub fn html(&self) -> String {
        self.as_profile().html()
    }
}

/// An exact per-function delta between two windows.
#[derive(Debug, Clone)]
pub struct WindowDiff {
    /// Left window index.
    pub a: u64,
    /// Right window index.
    pub b: u64,
    /// Left window's clipped span.
    pub a_span: (u64, u64),
    /// Right window's clipped span.
    pub b_span: (u64, u64),
    /// Per-function rows, ranked by `|d_net|` descending (ties by
    /// name) — the same order in both diff directions.
    pub rows: Vec<DiffRow>,
    /// Total-anomaly delta (`b - a`).
    pub d_anomalies: i64,
    /// Movers threshold in ppm of relative rate growth.
    pub threshold_ppm: u32,
}

/// One function's exact delta between two windows.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Function name.
    pub name: String,
    /// Aggregate in the left window.
    pub a: FnAgg,
    /// Aggregate in the right window.
    pub b: FnAgg,
    /// Exact call-count delta (`b - a`).
    pub d_calls: i64,
    /// Exact net-time delta, µs.
    pub d_net: i64,
    /// Exact gross-time delta, µs.
    pub d_elapsed: i64,
    /// Exact inline-hit delta.
    pub d_inline: i64,
    /// Coverage-scaled net rate in the left window (net µs per visible
    /// µs under the function's [`MaskVisibility`] class); `None` when
    /// the class was never visible there.
    pub a_rate: Option<f64>,
    /// Same for the right window.
    pub b_rate: Option<f64>,
    /// Relative rate growth in percent (`(b_rate / a_rate - 1) · 100`);
    /// `None` when either side has no rate or the left rate is zero.
    pub growth_pct: Option<f64>,
}

impl DiffRow {
    /// Whether this row clears a movers threshold (ppm of relative
    /// rate growth).  A function appearing from a zero left rate is
    /// always a mover.
    pub fn exceeds(&self, threshold_ppm: u32) -> bool {
        match (self.a_rate, self.b_rate) {
            (Some(ra), Some(rb)) => {
                if ra == 0.0 {
                    rb > 0.0
                } else {
                    ((rb - ra).abs() / ra) * 1_000_000.0 >= f64::from(threshold_ppm)
                }
            }
            (None, Some(rb)) => rb > 0.0,
            (Some(ra), None) => ra > 0.0,
            (None, None) => false,
        }
    }
}

impl WindowDiff {
    /// The ranked movers: rows clearing the movers threshold, in
    /// rank order, at most `n`.
    pub fn movers(&self, n: usize) -> Vec<&DiffRow> {
        self.rows
            .iter()
            .filter(|r| r.exceeds(self.threshold_ppm))
            .take(n)
            .collect()
    }

    /// Deterministic text report: headline, then one line per mover.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "window diff {} -> {}: {} functions changed, anomalies {:+}",
            self.a,
            self.b,
            self.rows
                .iter()
                .filter(|r| r.d_net != 0 || r.d_calls != 0)
                .count(),
            self.d_anomalies,
        );
        for row in self.movers(usize::MAX) {
            let growth = match row.growth_pct {
                Some(g) => format!("grew {g:.2}%"),
                None if row.a.net == 0 && row.b.net > 0 => "new".to_string(),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<14} net {:+8} us  calls {:+6}  {}",
                row.name, row.d_net, row.d_calls, growth
            );
        }
        out
    }

    /// Self-contained byte-deterministic HTML report for this diff.
    pub fn html(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n");
        let _ = writeln!(
            out,
            "<title>hwprof &mdash; window diff {} &rarr; {}</title>",
            self.a, self.b
        );
        out.push_str(HTML_STYLE);
        out.push_str("</head>\n<body>\n");
        let _ = writeln!(out, "<h1>window diff {} &rarr; {}</h1>", self.a, self.b);
        let _ = writeln!(
            out,
            "<p>window {}: [{}, {}) &middot; window {}: [{}, {}) &middot; \
             anomalies {:+} &middot; threshold {} ppm</p>",
            self.a,
            self.a_span.0,
            self.a_span.1,
            self.b,
            self.b_span.0,
            self.b_span.1,
            self.d_anomalies,
            self.threshold_ppm,
        );
        out.push_str("<table class=\"fns\">\n");
        out.push_str(
            "<tr><th>function</th><th>net a</th><th>net b</th><th>&Delta;net</th>\
             <th>calls a</th><th>calls b</th><th>&Delta;calls</th>\
             <th>&Delta;elapsed</th><th>growth</th><th>mover</th></tr>\n",
        );
        for row in &self.rows {
            let growth = match row.growth_pct {
                Some(g) => format!("{g:+.2}%"),
                None if row.a.net == 0 && row.b.net > 0 => "new".to_string(),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "<tr><td class=\"fn\">{}</td><td>{}</td><td>{}</td><td>{:+}</td>\
                 <td>{}</td><td>{}</td><td>{:+}</td><td>{:+}</td><td>{}</td><td>{}</td></tr>",
                html_esc(&row.name),
                row.a.net,
                row.b.net,
                row.d_net,
                row.a.calls,
                row.b.calls,
                row.d_calls,
                row.d_elapsed,
                growth,
                if row.exceeds(self.threshold_ppm) {
                    "yes"
                } else {
                    ""
                },
            );
        }
        out.push_str("</table>\n</body>\n</html>\n");
        out
    }
}

/// The always-on flight recorder; inert by default.  Clones share
/// state, like every other handle in this workspace: the run's
/// [`SupervisedFold`](crate::SupervisedFold) feeds one clone, the
/// harness queries another live.
///
/// [`FlightRecorder::default`] is the inert recorder a supervised run
/// without one carries: it allocates nothing, ignores every ingest,
/// seal and `set_*` call, and reads empty — no retained windows, an
/// all-zero ledger, `None` from every window query.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    /// The window ring; `None` is the inert recorder.
    inner: Option<Arc<Mutex<RecorderInner>>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ledger = self.ledger();
        f.debug_struct("FlightRecorder")
            .field("windows", &ledger.windows)
            .field("evicted", &ledger.evicted_windows)
            .field("elapsed_us", &ledger.elapsed_us)
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder folding captures of `tf`'s tag namespace into
    /// `cfg`-shaped windows.
    pub fn new(tf: &TagFile, cfg: RecorderConfig) -> Self {
        let inner = RecorderInner {
            cfg,
            tf: tf.clone(),
            syms: Symbols::from_tagfile(tf),
            table: DenseTagTable::from_tagfile(tf),
            base_w: 0,
            windows: VecDeque::new(),
            seen: false,
            evicted_windows: 0,
            late_sessions: 0,
            sessions: 0,
            first_seen: None,
            last_seen: 0,
            hot_tags: Vec::new(),
            sealed: false,
            metrics: RecMetrics::default(),
            journal: SpanLog::default(),
        };
        FlightRecorder {
            inner: Some(Arc::new(Mutex::new(inner))),
        }
    }

    /// Runs `f` on the live ring; the inert recorder answers
    /// `T::default()` without running it.
    fn with<T: Default>(&self, f: impl FnOnce(&mut RecorderInner) -> T) -> T {
        match &self.inner {
            Some(inner) => f(&mut inner.lock().expect("recorder lock")),
            None => T::default(),
        }
    }

    /// Publishes live self-metrics under `rec.` into `reg`; an inert
    /// `reg` (the default) records nothing.
    pub fn set_telemetry(&self, reg: &Registry) {
        self.with(|inner| inner.metrics = RecMetrics::new(reg));
    }

    /// Attaches a span journal: window spans land on the `recorder`
    /// lane at seal, evictions as instants when they happen.  An inert
    /// `log` (the default) records nothing and computes no span.
    pub fn set_span_log(&self, log: &SpanLog) {
        self.with(|inner| inner.journal = log.clone());
    }

    /// Feeds one delivered session, decoding it strictly: the replay
    /// entry for harnesses without a supervisor (supervised runs feed
    /// the recorder decoded events through `SupervisedFold`).
    pub fn ingest_session(&self, s: &SupervisedSession) {
        self.with(|inner| {
            let mut events = Vec::new();
            ColumnarDecoder::new(&inner.table).extend(&s.records, &mut events);
            inner.ingest_session(s, Arc::new(events));
        });
    }

    /// Feeds one delivered session already decoded into `events`, which
    /// the windows share.
    pub(crate) fn ingest_events(&self, s: &SupervisedSession, events: Arc<Vec<Event>>) {
        self.with(|inner| inner.ingest_session(s, events));
    }

    /// Feeds one gap (see [`FlightRecorder::ingest_session`]).
    pub fn ingest_gap(&self, g: &Gap) {
        self.with(|inner| inner.ingest_gap(g));
    }

    /// Seals the finished run: reconciles the timeline with the run's
    /// exact coverage bounds and stores its hot tags for scaled diffs.
    /// Further ingest is ignored.
    pub fn seal(&self, run: &SupervisedRun) {
        self.with(|inner| inner.seal(run));
    }

    /// Absolute indices of the retained windows, oldest to newest.
    pub fn retained(&self) -> std::ops::Range<u64> {
        self.with(|inner| {
            if !inner.seen {
                return 0..0;
            }
            inner.base_w..inner.base_w + inner.windows.len() as u64
        })
    }

    /// The exact eviction ledger at this instant.
    pub fn ledger(&self) -> RecorderLedger {
        self.with(|inner| inner.ledger())
    }

    /// Per-symbol [`MaskVisibility`], indexed by `SymId` — the same
    /// classification the scaled diff rates use (hot tags are known
    /// once the run is sealed; before that every function classifies
    /// as visible unless switch-only).
    pub fn visibilities(&self) -> Vec<MaskVisibility> {
        self.with(|inner| {
            (0..inner.syms.len() as SymId)
                .map(|s| {
                    visibility(&inner.tf, &inner.hot_tags, inner.syms.name(s))
                        .unwrap_or(MaskVisibility::UnlessSwitchOnly)
                })
                .collect()
        })
    }

    /// Window `w`'s rollup; `None` when `w` was evicted or never
    /// materialized.
    pub fn window(&self, w: u64) -> Option<WindowRollup> {
        self.with(|inner| inner.window(w))
    }

    /// The monoid merge of windows `range` (half-open, absolute
    /// indices); `None` when the range is empty or any window is
    /// outside the retained ring.
    pub fn range(&self, range: std::ops::Range<u64>) -> Option<WindowRollup> {
        if range.is_empty() {
            return None;
        }
        self.with(|inner| {
            let mut out = Reconstruction::empty(inner.syms.clone());
            for w in range.clone() {
                inner.fold(w)?.merge_into(&mut out);
            }
            let (start_us, _) = inner.window_span(range.start);
            let (_, end_us) = inner.window_span(range.end - 1);
            Some(WindowRollup {
                index: range.start,
                start_us,
                end_us,
                recon: out,
                name: format!("windows {}..{}", range.start, range.end),
            })
        })
    }

    /// Runs `f` on each available window of `range` in order, with the
    /// window's index, clipped end and fold lent under one lock.  Every
    /// fold's stats are lent in one reused vector, zeroed again after
    /// each window.
    pub fn each_fold(
        &self,
        range: std::ops::Range<u64>,
        mut f: impl FnMut(u64, u64, &Reconstruction),
    ) {
        self.with(|inner| {
            let mut zeros = vec![FnAgg::default(); inner.syms.len()];
            for w in range {
                let (_, end_us) = inner.window_span(w);
                if let Some(r) = inner.fold(w) {
                    r.lend(&mut zeros, |r| f(w, end_us, r));
                }
            }
        });
    }

    /// The exact per-function delta between windows `a` and `b`,
    /// ranked by `|d_net|`; `None` when either window is unavailable.
    pub fn diff(&self, a: u64, b: u64) -> Option<WindowDiff> {
        self.with(|inner| inner.diff(a, b))
    }

    /// Sessions ingested.
    pub fn sessions(&self) -> u64 {
        self.with(|inner| inner.sessions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sentinel::{Sentinel, SentinelConfig};
    use hwprof_profiler::{RawRecord, TagMaskLevel};

    /// Two back-to-back 400 µs sessions in which `a` calls `b` and then
    /// switches, every 25 µs, and the run they make.
    fn two_sessions() -> (TagFile, SupervisedRun) {
        let tf = hwprof_tagfile::parse("a/100\nb/102\nswtch/200!\n").expect("static tag file");
        let session = |index: u64| SupervisedSession {
            index,
            start_us: index * 400,
            end_us: (index + 1) * 400,
            level: TagMaskLevel::All,
            records: (0..16u32)
                .flat_map(|i| {
                    let t = i * 25;
                    [
                        (100, t),
                        (102, t + 5),
                        (103, t + 10),
                        (200, t + 12),
                        (201, t + 14),
                        (101, t + 20),
                    ]
                })
                .map(|(tag, time)| RawRecord { tag, time })
                .collect(),
        };
        let run = SupervisedRun {
            sessions: vec![session(0), session(1)],
            gaps: Vec::new(),
            coverage: Coverage {
                timeline_us: 800,
                covered_us: 800,
                level_us: [800, 0, 0],
                ..Coverage::empty()
            },
            final_level: TagMaskLevel::All,
            hot_tags: Vec::new(),
        };
        (tf, run)
    }

    /// A recorder of 100 µs windows that keeps every window.
    fn recorder(tf: &TagFile) -> FlightRecorder {
        let cfg = RecorderConfig::builder()
            .window_us(100)
            .retain(64)
            .build()
            .expect("non-degenerate config");
        FlightRecorder::new(tf, cfg)
    }

    /// Window `w`'s fragments reconstructed into an eager trace.
    fn eager_fold(rec: &FlightRecorder, w: u64) -> Option<Reconstruction> {
        rec.with(|inner| {
            let slot = &inner.windows[(w - inner.base_w) as usize];
            let mut out = Reconstruction::empty(inner.syms.clone());
            let mut recon = SessionRecon::new(&inner.syms, false);
            for frag in &slot.frags {
                let Replay {
                    events,
                    range,
                    shift,
                } = &frag.replay;
                let rebased: Vec<Event> = events[range.clone()]
                    .iter()
                    .map(|e| Event {
                        t: e.t.wrapping_add(*shift),
                        kind: e.kind,
                    })
                    .collect();
                recon.session_into(&rebased, &mut out);
            }
            Some(out)
        })
    }

    /// Whether each cached window fold's pending trace is built.
    fn built(rec: &FlightRecorder) -> Vec<bool> {
        rec.with(|inner| {
            let folds = inner.windows.iter().filter_map(|s| s.cache.as_ref());
            folds.flat_map(|(_, r)| r.trace().pending_built()).collect()
        })
    }

    #[test]
    fn summary_reads_never_build_a_window_trace() {
        let (tf, run) = two_sessions();
        let rec = recorder(&tf);
        for s in &run.sessions {
            rec.ingest_session(s);
        }
        rec.seal(&run);
        let cfg = SentinelConfig::builder().warmup_windows(2).build();
        let mut sentinel = Sentinel::new(cfg.expect("valid config"));
        sentinel.scan(&rec);
        assert_eq!(sentinel.windows_evaluated(), 8);
        let all = rec.retained();
        assert_eq!(all, 0..8);
        let range = rec.range(all.clone()).expect("retained");
        let windows: Vec<WindowRollup> = all.clone().map(|w| rec.window(w).unwrap()).collect();
        assert!(rec.diff(all.start, all.end - 1).is_some());
        let items: usize = windows.iter().map(|w| w.recon.trace.len()).sum();
        assert_eq!(range.recon.trace.len(), items);
        assert_eq!(
            built(&rec),
            [false; 8],
            "one unbuilt pending trace per window"
        );
        // Rendering a rollup builds its own window's trace, and only
        // that one: the eager fold's items.
        let dot = crate::graph::to_dot(&windows[1].recon);
        assert!(dot.contains("\"a\" -> \"b\""), "{dot}");
        let mut want = [false; 8];
        want[1] = true;
        assert_eq!(built(&rec), want);
        let eager = eager_fold(&rec, 1).expect("retained");
        assert!(windows[1].recon.trace.iter().eq(&eager.trace));
    }

    #[test]
    fn an_interior_window_keeps_its_fold_when_the_timeline_grows() {
        let (tf, run) = two_sessions();
        let rec = recorder(&tf);
        rec.ingest_session(&run.sessions[0]);
        let first = rec.window(1).expect("materialized");
        assert_eq!(first.recon.trace.iter().count(), first.recon.trace.len());
        // The next session moves the timeline's end past window 1's.
        rec.ingest_session(&run.sessions[1]);
        assert_eq!(rec.ledger().elapsed_us, 800);
        let again = rec.window(1).expect("retained");
        assert_eq!((again.start_us, again.end_us), (100, 200));
        assert_eq!(
            again.recon.trace.pending_built(),
            [true],
            "the cached fold, built above, was lent again"
        );
        let fresh = rec.with(|inner| {
            let span = inner.window_span(1);
            let RecorderInner { windows, syms, .. } = inner;
            Some(RecorderInner::fold_slot(&mut windows[1], syms, span).to_dense())
        });
        assert_eq!(fresh.expect("retained"), again.recon);
        assert!(again
            .recon
            .trace
            .iter()
            .eq(&eager_fold(&rec, 1).expect("retained").trace));
    }

    #[test]
    fn the_default_recorder_is_inert() {
        let tf = hwprof_tagfile::parse("a/100\n").expect("static tag file");
        let session = SupervisedSession {
            index: 0,
            start_us: 0,
            end_us: 2_500,
            level: TagMaskLevel::All,
            records: vec![
                RawRecord { tag: 100, time: 0 },
                RawRecord {
                    tag: 101,
                    time: 2_000,
                },
            ],
        };
        let gap = Gap {
            start_us: 2_500,
            end_us: 3_000,
            cause: GapCause::Drain,
        };
        let run = SupervisedRun {
            sessions: vec![session.clone()],
            gaps: vec![gap],
            coverage: Coverage {
                timeline_us: 3_000,
                covered_us: 2_500,
                gap_us: 500,
                gaps: 1,
                level_us: [2_500, 0, 0],
                ..Coverage::empty()
            },
            final_level: TagMaskLevel::All,
            hot_tags: Vec::new(),
        };
        let inert = FlightRecorder::default();
        assert!(
            inert.inner.is_none(),
            "the inert recorder allocates nothing"
        );
        let (reg, log) = (Registry::new(), SpanLog::new());
        inert.set_telemetry(&reg);
        inert.set_span_log(&log);
        let live = FlightRecorder::new(&tf, RecorderConfig::default());
        for rec in [&inert, &live] {
            rec.ingest_session(&session);
            rec.ingest_gap(&gap);
            rec.seal(&run);
        }
        assert_eq!(reg.snapshot().value("rec.sessions"), None);
        assert!(log.is_empty(), "the inert recorder journals nothing");
        // The same feed fills a live recorder's ring.
        assert_eq!(live.sessions(), 1);
        assert_eq!(live.retained(), 0..3);
        assert!(live.window(0).is_some());
        // Every read of the inert recorder is empty.
        assert_eq!(inert.sessions(), 0);
        assert_eq!(inert.retained(), 0..0);
        assert_eq!(inert.ledger(), RecorderLedger::default());
        assert!(inert.window(0).is_none());
        assert!(inert.range(0..3).is_none());
        assert!(inert.diff(0, 2).is_none());
        assert!(inert.visibilities().is_empty());
    }
}
