//! The real-time code path trace report (Figure 4).

use crate::recon::{ItemKind, Reconstruction};

/// Rendering options for the trace report.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceStyle {
    /// Maximum lines to emit (None = all).  When the trace is longer, a
    /// `... truncated (N more lines)` marker closes the report.
    pub max_lines: Option<usize>,
}

/// Indent width per nesting level.
const INDENT: usize = 4;

/// Formats `t` microseconds as the paper's `s:mmm uuu` column.
pub fn fmt_time(t: u64) -> String {
    format!("{}:{:03} {:03}", t / 1_000_000, (t / 1000) % 1000, t % 1000)
}

/// Renders the nested code path trace: entries as
/// `-> func (net us, total total)`, inline triggers marked with `==`,
/// context switches flagged, and returns shown for frames that span a
/// switch (named) or contained subcalls (bare), per Figure 4.
pub fn trace_report(r: &Reconstruction, style: &TraceStyle) -> String {
    let mut out = String::new();
    let mut lines = 0usize;
    let mut suppressed = 0usize;
    for segment in r.trace.segments() {
        for item in segment {
            let Some(line) = render_item(r, item) else {
                continue;
            };
            if style.max_lines.is_some_and(|max| lines >= max) {
                suppressed += 1;
                continue;
            }
            out.push_str(&line);
            out.push('\n');
            lines += 1;
        }
    }
    if suppressed > 0 {
        out.push_str(&format!(
            "             ... truncated ({suppressed} more line{})\n",
            if suppressed == 1 { "" } else { "s" }
        ));
    }
    if !r.anomalies.is_clean() {
        out.push_str(&format!(
            "          ---- capture integrity: {} ----\n",
            r.anomalies
        ));
    }
    out
}

/// Renders one trace item, or `None` for a session boundary in a
/// single-session capture.
fn render_item(r: &Reconstruction, item: &crate::recon::TraceItem) -> Option<String> {
    let pad = " ".repeat(INDENT * item.depth as usize);
    let line = match item.kind {
        ItemKind::Call {
            sym,
            net,
            elapsed,
            children,
            closed,
            ..
        } => {
            let name = r.syms.name(sym);
            if !closed {
                format!(
                    "{} {}-> {} (open at capture end)",
                    fmt_time(item.t),
                    pad,
                    name
                )
            } else if children == 0 {
                format!("{} {}-> {} ({} us)", fmt_time(item.t), pad, name, net)
            } else {
                format!(
                    "{} {}-> {} ({} us, {} total)",
                    fmt_time(item.t),
                    pad,
                    name,
                    net,
                    elapsed
                )
            }
        }
        ItemKind::Return { sym, net, elapsed } => match sym {
            Some(s) if r.syms.is_cswitch(s) => {
                format!("{} {}<- {}", fmt_time(item.t), pad, r.syms.name(s))
            }
            Some(s) => format!(
                "{} {}<- {} ({} us, {} total)",
                fmt_time(item.t),
                pad,
                r.syms.name(s),
                net,
                elapsed
            ),
            None => format!("{} {}<-", fmt_time(item.t), pad),
        },
        ItemKind::Inline { sym } => {
            format!("{} {}== {}", fmt_time(item.t), pad, r.syms.name(sym))
        }
        ItemKind::SwitchIn { birth } => format!(
            "{} <- ---- Context switch in{} ----",
            fmt_time(item.t),
            if birth { " (new process)" } else { "" }
        ),
        ItemKind::SessionBreak => {
            if r.sessions <= 1 {
                return None;
            }
            format!(
                "{} ======== capture session boundary ========",
                fmt_time(item.t)
            )
        }
    };
    Some(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::decode;
    fn analyze(syms: &crate::Symbols, events: &[crate::Event]) -> crate::Reconstruction {
        crate::Analyzer::new(syms).session(events).expect("ungated")
    }
    use hwprof_profiler::RawRecord;

    #[test]
    fn time_format_matches_figure_4() {
        assert_eq!(fmt_time(2_671), "0:002 671");
        assert_eq!(fmt_time(5_488), "0:005 488");
        assert_eq!(fmt_time(1_000_001), "1:000 001");
    }

    #[test]
    fn trace_shows_nesting_and_inline_markers() {
        let tf = hwprof_tagfile::parse("outer/100\ninner/102\nMGET/300=\n").unwrap();
        let recs = [
            RawRecord {
                tag: 100,
                time: 1000,
            },
            RawRecord {
                tag: 102,
                time: 1010,
            },
            RawRecord {
                tag: 300,
                time: 1015,
            },
            RawRecord {
                tag: 103,
                time: 1030,
            },
            RawRecord {
                tag: 101,
                time: 1050,
            },
        ];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        let t = trace_report(&r, &TraceStyle::default());
        assert!(t.contains("-> outer (30 us, 50 total)"), "trace:\n{t}");
        assert!(t.contains("    -> inner (20 us)"));
        assert!(t.contains("== MGET"));
        // outer had a child, so it closes with a bare return.
        assert!(t.contains("0:000 050 <-"));
    }

    #[test]
    fn truncation_is_explicit_and_counts_suppressed_lines() {
        let tf = hwprof_tagfile::parse("outer/100\ninner/102\n").unwrap();
        let mut recs = Vec::new();
        for i in 0..10u32 {
            recs.push(RawRecord {
                tag: 102,
                time: i * 10,
            });
            recs.push(RawRecord {
                tag: 103,
                time: i * 10 + 5,
            });
        }
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        let full = trace_report(&r, &TraceStyle::default());
        let full_lines = full.lines().count();
        let style = TraceStyle { max_lines: Some(3) };
        let t = trace_report(&r, &style);
        let expect = format!("... truncated ({} more lines)", full_lines - 3);
        assert!(t.contains(&expect), "trace:\n{t}");
        assert_eq!(t.lines().count(), 4, "3 lines + marker:\n{t}");
        // A limit the trace fits under adds no marker.
        let roomy = TraceStyle {
            max_lines: Some(1000),
        };
        assert!(!trace_report(&r, &roomy).contains("truncated"));
    }

    #[test]
    fn context_switch_is_flagged() {
        let tf = hwprof_tagfile::parse("a/100\nswtch/200!\n").unwrap();
        let recs = [
            RawRecord { tag: 100, time: 0 },
            RawRecord { tag: 200, time: 10 },
            RawRecord { tag: 201, time: 30 },
            RawRecord { tag: 101, time: 40 },
        ];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        let t = trace_report(&r, &TraceStyle::default());
        assert!(t.contains("<- swtch"), "trace:\n{t}");
    }
}
