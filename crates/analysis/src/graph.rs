//! Call-graph export (future work: "graphically representing the code
//! path").

use std::collections::BTreeMap;

use crate::events::SymId;
use crate::recon::{ItemKind, Reconstruction, Trace};

/// Renders the reconstructed call graph as Graphviz dot, edges labelled
/// with call counts, nodes with net µs.
pub fn to_dot(r: &Reconstruction) -> String {
    let mut out = String::from("digraph kernel {\n  rankdir=LR;\n  node [shape=box];\n");
    for s in 0..r.stats.len() {
        let a = r.stats[s];
        if a.calls == 0 {
            continue;
        }
        let name = quoted(r.syms.name(s as u32));
        out.push_str(&format!(
            "  \"{name}\" [label=\"{name}\\n{} us net / {} calls\"];\n",
            a.net, a.calls
        ));
    }
    for ((from, to), count) in call_edges(&r.trace) {
        out.push_str(&format!(
            "  \"{}\" -> \"{}\" [label=\"{}\"];\n",
            quoted(r.syms.name(from)),
            quoted(r.syms.name(to)),
            count
        ));
    }
    out.push_str("}\n");
    out
}

/// Escapes `"` and `\` so `name` can sit inside a quoted dot id or label.
fn quoted(name: &str) -> String {
    name.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Call-graph edges read off the trace: (caller, callee) -> completed
/// calls.  Within one session and lane a call at depth `d` sits under
/// the latest call at depth `d - 1`, so each closed call below the top
/// level counts one edge from it; force-closed and still-open frames
/// count none.
fn call_edges(trace: &Trace) -> BTreeMap<(SymId, SymId), u64> {
    let mut edges = BTreeMap::new();
    // Per lane: the syms of the latest call at each depth.
    let mut lanes: Vec<Vec<SymId>> = Vec::new();
    for segment in trace.segments() {
        for item in segment {
            match item.kind {
                ItemKind::SessionBreak => lanes.clear(),
                ItemKind::Call { sym, closed, .. } => {
                    let lane = item.lane as usize;
                    if lanes.len() <= lane {
                        lanes.resize_with(lane + 1, Vec::new);
                    }
                    let stack = &mut lanes[lane];
                    stack.truncate(item.depth as usize);
                    if let (true, Some(&caller)) = (closed, stack.last()) {
                        *edges.entry((caller, sym)).or_insert(0) += 1;
                    }
                    stack.push(sym);
                }
                _ => {}
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use crate::events::decode;
    fn analyze(syms: &crate::Symbols, events: &[crate::Event]) -> crate::Reconstruction {
        crate::Analyzer::new(syms).session(events).expect("ungated")
    }
    use hwprof_profiler::RawRecord;

    #[test]
    fn dot_contains_nodes_and_edges() {
        let tf = hwprof_tagfile::parse("outer/100\ninner/102\n").unwrap();
        let recs = [
            RawRecord { tag: 100, time: 0 },
            RawRecord { tag: 102, time: 5 },
            RawRecord { tag: 103, time: 9 },
            RawRecord { tag: 101, time: 20 },
        ];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        let dot = super::to_dot(&r);
        assert!(dot.contains("\"outer\" -> \"inner\" [label=\"1\"]"));
        assert!(dot.starts_with("digraph kernel {"));
        assert!(dot.ends_with("}\n"));
    }

    /// A name holding `"` or `\` is escaped in node ids, labels and
    /// edge ends, so the dot stays well-formed.
    #[test]
    fn dot_escapes_quotes_and_backslashes() {
        let tf = hwprof_tagfile::parse("outer/100\ninner/102\n").unwrap();
        let recs = [
            RawRecord { tag: 100, time: 0 },
            RawRecord { tag: 102, time: 5 },
            RawRecord { tag: 103, time: 9 },
            RawRecord { tag: 101, time: 20 },
        ];
        let (_, ev) = decode(&recs, &tf);
        let syms = crate::Symbols::from_names(["say \"hi\"", "C:\\tmp"]);
        let dot = super::to_dot(&analyze(&syms, &ev));
        assert!(dot.contains("  \"say \\\"hi\\\"\" [label=\"say \\\"hi\\\"\\n"));
        assert!(dot.contains("  \"say \\\"hi\\\"\" -> \"C:\\\\tmp\" [label=\"1\"];"));
        // Outside the escapes every quote delimits an id or a label.
        let unescaped = dot.replace("\\\\", "").replace("\\\"", "");
        for line in unescaped.lines() {
            assert_eq!(
                line.matches('"').count() % 2,
                0,
                "unbalanced quotes: {line}"
            );
        }
    }
}
