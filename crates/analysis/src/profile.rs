//! The one front door for rendering anything captured, by any path.
//!
//! Every capture surface — `BackendCapture`, `SupervisedCapture`,
//! `StreamCapture`, a fleet merge, a flight-recorder window — bottoms
//! out in the same [`Reconstruction`] monoid, so they all render the
//! same way: convert into a [`Profile`] view and call one of its
//! methods.  A `Profile` borrows the reconstruction (plus optional
//! supervised-run context and span journal) and owns nothing heavier
//! than a name, so conversion is free.
//!
//! ```
//! use hwprof_analysis::{Profile, Reconstruction, Symbols};
//! let r = Reconstruction::empty(Symbols::default());
//! let p = Profile::new(&r).name("quiet run");
//! assert!(p.chrome_trace().contains("quiet run"));
//! assert!(p.html().starts_with("<!DOCTYPE html>"));
//! ```
//!
//! The text reports ([`Profile::summary_report`], [`Profile::describe`])
//! render here and in [`crate::report`]; the machine formats
//! ([`Profile::chrome_trace`], [`Profile::speedscope`],
//! [`Profile::folded`]) render in [`crate::export`]; [`Profile::html`]
//! renders a self-contained, byte-deterministic HTML report with no
//! external assets and no new dependencies.

use hwprof_profiler::SupervisedRun;
use hwprof_telemetry::{SpanEvent, SpanLog};

use crate::events::SymId;
use crate::recon::Reconstruction;
use crate::report::{fmt_us, summary_report};
use crate::sentinel::AlertEntry;

/// A borrowed, render-ready view over one reconstruction.
#[derive(Debug, Clone)]
pub struct Profile<'a> {
    pub(crate) r: &'a Reconstruction,
    pub(crate) run: Option<&'a SupervisedRun>,
    /// Span-journal events in the total order [`Profile::spans`] sorts
    /// them into.
    pub(crate) spans: Vec<SpanEvent>,
    pub(crate) alerts: Vec<AlertEntry>,
    pub(crate) name: String,
}

impl<'a> Profile<'a> {
    /// A profile view over a plain reconstruction.
    pub fn new(r: &'a Reconstruction) -> Self {
        Profile {
            r,
            run: None,
            spans: Vec::new(),
            alerts: Vec::new(),
            name: "hwprof".to_string(),
        }
    }

    /// Profile name stamped into every rendered output.
    pub fn name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Attaches supervised-run context: exports re-base sessions onto
    /// the run timeline and render gap/mask/coverage overlays.
    pub fn run(mut self, run: &'a SupervisedRun) -> Self {
        self.run = Some(run);
        self
    }

    /// Attaches a span journal; its events render as pipeline lanes in
    /// the Chrome trace.  An inert journal attaches nothing.
    pub fn spans(mut self, log: &SpanLog) -> Self {
        let mut events = log.snapshot();
        // Concurrent writers (analysis workers) make the journal's slot
        // order nondeterministic; a total order on the event value
        // itself makes every export deterministic.
        events.sort_by_key(|e| (e.t_us, e.track, e.name, e.id, e.phase, e.arg));
        self.spans = events;
        self
    }

    /// Attaches sentinel alert-journal entries: they render as an
    /// Alerts section in [`Profile::html`] and as instant markers in
    /// [`Profile::chrome_trace`].  An empty slice leaves every output
    /// byte-identical to a profile with no alerts attached.
    pub fn alerts(mut self, entries: &[AlertEntry]) -> Self {
        self.alerts = entries.to_vec();
        self
    }

    /// The underlying reconstruction.
    pub fn reconstruction(&self) -> &'a Reconstruction {
        self.r
    }

    /// The paper's Figure-3 per-function summary (`top` caps the body
    /// rows; `None` = all).
    pub fn summary_report(&self, top: Option<usize>) -> String {
        summary_report(self.r, top)
    }

    /// A short deterministic text digest: headline totals, the top
    /// five functions by net time, and the coverage ledger when
    /// supervised-run context is attached.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let r = self.r;
        let _ = writeln!(
            out,
            "profile \"{}\": elapsed {}, run {}, idle {}, {} tags, {} sessions",
            self.name,
            fmt_us(r.total_elapsed),
            fmt_us(r.run_time()),
            fmt_us(r.idle),
            r.tags,
            r.sessions,
        );
        let order = function_order(r);
        let run = r.run_time();
        if !order.is_empty() {
            let _ = writeln!(out, "top functions (net us):");
            for &s in order.iter().take(5) {
                let agg = &r.stats[s as usize];
                let _ = writeln!(
                    out,
                    "  {:<14} {:>8} calls {:>10} us {:>6.2}%",
                    r.syms.name(s),
                    agg.calls,
                    agg.net,
                    if run == 0 {
                        0.0
                    } else {
                        agg.net as f64 * 100.0 / run as f64
                    },
                );
            }
        }
        if !r.anomalies.is_clean() {
            for line in r.anomalies.describe() {
                let _ = writeln!(out, "  {line}");
            }
        }
        if let Some(run) = self.run {
            for line in run.coverage.describe() {
                let _ = writeln!(out, "  {line}");
            }
        }
        out
    }

    /// A self-contained HTML report: headline totals, the full
    /// per-function table, and coverage/anomaly blocks when present.
    /// No scripts, no external assets; byte-deterministic for a given
    /// profile, so two identical runs render identical files.
    pub fn html(&self) -> String {
        use std::fmt::Write as _;
        let r = self.r;
        let mut out = String::new();
        out.push_str("<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n");
        let _ = writeln!(
            out,
            "<title>hwprof &mdash; {}</title>",
            html_esc(&self.name)
        );
        out.push_str(HTML_STYLE);
        out.push_str("</head>\n<body>\n");
        let _ = writeln!(out, "<h1>{}</h1>", html_esc(&self.name));

        out.push_str("<table class=\"meta\">\n");
        let pct = |x: u64| {
            if r.total_elapsed == 0 {
                0.0
            } else {
                x as f64 * 100.0 / r.total_elapsed as f64
            }
        };
        let _ = writeln!(
            out,
            "<tr><th>Elapsed time</th><td>{} ({} tags)</td></tr>",
            fmt_us(r.total_elapsed),
            r.tags
        );
        let _ = writeln!(
            out,
            "<tr><th>Accumulated run time</th><td>{} ({:.2}%)</td></tr>",
            fmt_us(r.run_time()),
            pct(r.run_time())
        );
        let _ = writeln!(
            out,
            "<tr><th>Idle time</th><td>{} ({:.2}%)</td></tr>",
            fmt_us(r.idle),
            pct(r.idle)
        );
        let _ = writeln!(out, "<tr><th>Sessions</th><td>{}</td></tr>", r.sessions);
        let _ = writeln!(
            out,
            "<tr><th>Context switches</th><td>{}</td></tr>",
            r.context_switches
        );
        out.push_str("</table>\n");

        out.push_str("<h2>Functions</h2>\n<table class=\"fns\">\n");
        out.push_str(
            "<tr><th>function</th><th>calls</th><th>net us</th><th>elapsed us</th>\
             <th>max</th><th>avg</th><th>min</th><th>% real</th><th>% net</th></tr>\n",
        );
        for &s in &function_order(r) {
            let agg = &r.stats[s as usize];
            let avg = agg.net.checked_div(agg.calls).unwrap_or(0);
            let _ = writeln!(
                out,
                "<tr><td class=\"fn\">{}</td><td>{}</td><td>{}</td><td>{}</td>\
                 <td>{}</td><td>{}</td><td>{}</td><td>{:.2}</td><td>{:.2}</td></tr>",
                html_esc(r.syms.name(s)),
                agg.calls,
                agg.net,
                agg.elapsed,
                agg.max_net,
                avg,
                agg.min_net,
                pct(agg.net),
                if r.run_time() == 0 {
                    0.0
                } else {
                    agg.net as f64 * 100.0 / r.run_time() as f64
                },
            );
        }
        out.push_str("</table>\n");

        let cov = if let Some(run) = self.run {
            Some(&run.coverage)
        } else if r.coverage.timeline_us > 0 {
            Some(&r.coverage)
        } else {
            None
        };
        if let Some(cov) = cov {
            out.push_str("<h2>Coverage</h2>\n<ul>\n");
            for line in cov.describe() {
                let _ = writeln!(out, "<li>{}</li>", html_esc(&line));
            }
            out.push_str("</ul>\n");
        }
        if !r.anomalies.is_clean() {
            out.push_str("<h2>Capture integrity</h2>\n<ul>\n");
            for line in r.anomalies.describe() {
                let _ = writeln!(out, "<li>{}</li>", html_esc(&line));
            }
            out.push_str("</ul>\n");
        }
        if !self.alerts.is_empty() {
            out.push_str("<h2>Alerts</h2>\n<table class=\"alerts\">\n");
            out.push_str(
                "<tr><th>#</th><th>window</th><th>at us</th><th>detector</th>\
                 <th>subject</th><th>transition</th><th>baseline</th>\
                 <th>observed</th><th>delta</th><th>unit</th></tr>\n",
            );
            for a in &self.alerts {
                let _ = writeln!(
                    out,
                    "<tr><td>{}</td><td>{}</td><td>{}</td><td class=\"fn\">{}</td>\
                     <td class=\"fn\">{}</td><td class=\"fn\">{}</td><td>{}</td>\
                     <td>{}</td><td>{:+}</td><td class=\"fn\">{}</td></tr>",
                    a.seq,
                    a.window,
                    a.at_us,
                    a.detector.label(),
                    html_esc(&a.subject),
                    a.transition.label(),
                    a.baseline,
                    a.observed,
                    a.delta,
                    a.detector.unit(),
                );
            }
            out.push_str("</table>\n");
        }
        out.push_str("</body>\n</html>\n");
        out
    }
}

/// Symbols with any recorded activity, highest net time first (ties by
/// symbol id) — the same presentation order as `summary_report`.
pub(crate) fn function_order(r: &Reconstruction) -> Vec<SymId> {
    let mut order: Vec<SymId> = (0..r.stats.len() as SymId)
        .filter(|&s| {
            let a = &r.stats[s as usize];
            a.calls > 0 || a.net > 0 || a.inline_hits > 0
        })
        .collect();
    order.sort_by(|&a, &b| {
        r.stats[b as usize]
            .net
            .cmp(&r.stats[a as usize].net)
            .then_with(|| r.syms.name(a).cmp(r.syms.name(b)))
    });
    order
}

/// Escapes text for an HTML context.
pub(crate) fn html_esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// The report stylesheet, inlined so the file stands alone.
pub(crate) const HTML_STYLE: &str = "<style>\n\
body{font-family:monospace;margin:2em;background:#fdfdfd;color:#222}\n\
h1{font-size:1.3em}h2{font-size:1.1em;margin-top:1.5em}\n\
table{border-collapse:collapse}\n\
th,td{border:1px solid #bbb;padding:2px 8px;text-align:right}\n\
th{background:#eee}\n\
td.fn{text-align:left}\n\
table.meta th{text-align:left}\n\
table.meta td{text-align:left}\n\
</style>\n";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::Symbols;

    #[test]
    fn empty_profile_renders_every_surface() {
        let r = Reconstruction::empty(Symbols::default());
        let p = Profile::new(&r).name("empty");
        assert!(p.chrome_trace().contains("empty"));
        assert!(p.speedscope().contains("empty"));
        assert_eq!(p.folded(), "");
        assert!(p.summary_report(None).contains("Elapsed time = 0 us"));
        assert!(p.describe().starts_with("profile \"empty\""));
        let html = p.html();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>\n"));
    }

    #[test]
    fn html_is_escaped_and_deterministic() {
        let r = Reconstruction::empty(Symbols::default());
        let p = Profile::new(&r).name("a<b>&\"c\"");
        let html = p.html();
        assert!(html.contains("a&lt;b&gt;&amp;&quot;c&quot;"));
        assert!(!html.contains("a<b>"));
        assert_eq!(html, Profile::new(&r).name("a<b>&\"c\"").html());
    }
}
