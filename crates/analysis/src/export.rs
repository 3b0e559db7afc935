//! Standards-based trace export.
//!
//! The paper renders its reconstruction as the Figure 4 ASCII report;
//! this module lifts the same [`Reconstruction`](crate::Reconstruction)
//! into three formats modern tooling consumes directly, each rendered
//! from the [`Profile`] view:
//!
//! * **Chrome Trace Event JSON** ([`Profile::chrome_trace`]) — loads
//!   in Perfetto / `chrome://tracing`.  Each capture session becomes a
//!   process, and each thread of control the reconstructor untangled
//!   from the paper's `!`-multiplexed stream becomes a thread lane of
//!   nested `B`/`E` spans.  When a
//!   [`SupervisedRun`](hwprof_profiler::SupervisedRun) is attached,
//!   coverage [`Gap`](hwprof_profiler::Gap)s and mask-ladder moves are
//!   emitted as instant events on a "capture timeline" process,
//!   anomaly totals as a counter track, and a
//!   [`SpanLog`](hwprof_telemetry::SpanLog) journal renders as
//!   pipeline lanes (supervisor / transport / analyzer / board) on the
//!   same clock — a supervised run reads as one unified timeline.
//! * **speedscope JSON** ([`Profile::speedscope`]) — one evented
//!   profile per thread of control.
//! * **folded stacks** ([`Profile::folded`]) — `a;b;c net_us` lines
//!   for flamegraph tooling, aggregated across the whole run.  The
//!   weights are per-call *net* (exclusive) microseconds, so the folded
//!   total equals the reconstruction's net-time accounting exactly.
//!
//! Output is deterministic: lanes are emitted in (session, lane) order,
//! span-journal events are totally ordered by a fixed key, and all JSON
//! is hand-built with a fixed field order — goldens diff cleanly.
//!
//! Every timestamp is microseconds.  Plain exports place each session
//! at its own µs-from-session-start times; attaching a run re-bases
//! every session at its recorded place on the supervised timeline.

use std::any::Any;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};

use hwprof_profiler::{GapCause, TagMaskLevel};
use hwprof_telemetry::{SpanEvent, SpanName, SpanPhase, SpanTrack};

use crate::events::SymId;
use crate::profile::Profile;
use crate::recon::{ItemKind, Trace, TraceItem};

/// Synthetic pid of the coverage/anomaly overlay process.
const OVERLAY_PID: u64 = 0;
/// Synthetic pid of the span-journal pipeline process.
const PIPELINE_PID: u64 = 1_000_000;
/// Chrome output bytes reserved per trace item: a net-receive capture
/// renders about 110, and half as many of speedscope JSON.
const BYTES_PER_ITEM: usize = 128;
/// How many lane groups ahead of the calling thread a render helper
/// may work ([`render_in_order`]); it bounds the chunks held at once.
const RENDER_WINDOW: usize = 4;
/// Deepest array/object nesting [`validate_json`] accepts; past it the
/// document is rejected instead of recursing further.
const MAX_JSON_DEPTH: usize = 512;

/// Trace items grouped per (session, lane), in (session, lane) order,
/// from one pass over the trace.
fn lanes(trace: &Trace) -> Vec<(usize, usize, Vec<&TraceItem>)> {
    let mut lanes: Vec<(usize, usize, Vec<&TraceItem>)> = Vec::new();
    // The session's number and the index of its lane 0 in `lanes`.
    let (mut session, mut first) = (0, 0);
    for segment in trace.segments() {
        for item in segment {
            if matches!(item.kind, ItemKind::SessionBreak) {
                (session, first) = (session + 1, lanes.len());
                continue;
            }
            let lane = first + item.lane as usize;
            while lanes.len() <= lane {
                lanes.push((session, lanes.len() - first, Vec::new()));
            }
            lanes[lane].2.push(item);
        }
    }
    lanes.retain(|(_, _, items)| !items.is_empty());
    lanes
}

/// The three export formats, rendered from the [`Profile`] view.
///
/// Each renderer appends to one pre-sized `String`; Chrome and
/// speedscope render their lane groups through `render_in_order`.
/// List elements end in `,` as they are written and `end_list` drops
/// the last one.
impl<'a> Profile<'a> {
    /// First microsecond of the supervised timeline (the exporter's
    /// time origin when a run is attached).
    fn base(&self) -> u64 {
        let Some(run) = self.run else { return 0 };
        run.sessions
            .iter()
            .map(|s| s.start_us)
            .chain(run.gaps.iter().map(|g| g.start_us))
            .min()
            .unwrap_or(0)
    }

    /// Timeline offset added to session-local µs of `session`.
    fn session_offset(&self, session: usize, base: u64) -> u64 {
        self.run
            .and_then(|run| run.sessions.get(session))
            .map(|s| s.start_us.saturating_sub(base))
            .unwrap_or(0)
    }

    /// Last microsecond of the export (for counter tracks).
    fn end_ts(&self) -> u64 {
        if let Some(run) = self.run {
            return run.coverage.timeline_us;
        }
        self.r
            .trace
            .segments()
            .flatten()
            .map(|it| match it.kind {
                ItemKind::Call { elapsed, .. } => it.t + elapsed,
                _ => it.t,
            })
            .max()
            .unwrap_or(0)
    }

    /// Every symbol name JSON-escaped once, indexed by [`SymId`].
    fn escaped_names(&self) -> Vec<String> {
        (0..self.r.syms.len())
            .map(|i| esc(self.r.syms.name(i as SymId)))
            .collect()
    }

    // ---- Chrome Trace Event JSON ---------------------------------------

    /// Chrome Trace Event JSON (object form), loadable in Perfetto or
    /// `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        self.chrome_trace_with(render_helpers())
    }

    /// [`Profile::chrome_trace`] with `helpers` threads rendering
    /// kernel lanes beside the calling thread; every count writes the
    /// same bytes.
    pub(crate) fn chrome_trace_with(&self, helpers: usize) -> String {
        let base = self.base();
        let lanes = lanes(&self.r.trace);
        let names = self.escaped_names();
        let mut json = String::with_capacity(self.r.trace.len() * BYTES_PER_ITEM + 4096);
        let out = &mut json;
        let _ = write!(
            out,
            "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"exporter\":\"{}\",\
             \"sessions\":{},\"context_switches\":{}}},\"traceEvents\":[",
            esc(&self.name),
            self.r.sessions,
            self.r.context_switches,
        );

        // Metadata: name every process and thread lane up front.
        meta(out, OVERLAY_PID, None, "capture timeline");
        meta(out, OVERLAY_PID, Some(0), "coverage");
        if !self.alerts.is_empty() {
            meta(out, OVERLAY_PID, Some(1), "alerts");
        }
        let mut named_session = usize::MAX;
        for &(session, lane, _) in &lanes {
            if session != named_session {
                named_session = session;
                let label = match self.run.and_then(|r| r.sessions.get(session)) {
                    Some(s) => format!(
                        "kernel session {session} (bank {}, {})",
                        s.index,
                        level_label(s.level)
                    ),
                    None => format!("kernel session {session}"),
                };
                meta(out, session as u64 + 1, None, &label);
            }
            let (pid, tid) = (session as u64 + 1, Some(lane as u64 + 1));
            meta(out, pid, tid, &format!("control {lane}"));
        }
        if !self.spans.is_empty() {
            meta(out, PIPELINE_PID, None, "capture pipeline");
            for track in [
                SpanTrack::Supervisor,
                SpanTrack::Transport,
                SpanTrack::Analyzer,
                SpanTrack::Board,
                SpanTrack::Recorder,
            ] {
                let tid = Some(u64::from(track.idx()) + 1);
                meta(out, PIPELINE_PID, tid, track.label());
            }
        }

        // Kernel lanes: the bulk of the output, written piece by piece,
        // one (session, lane) group per render.
        let name = |sym: SymId| names[sym as usize].as_str();
        render_in_order(&lanes, helpers, out, |(session, lane, items), out| {
            let head = head(*session as u64 + 1, *lane as u64 + 1);
            let off = self.session_offset(*session, base);
            lane_call_events(items, |cev| {
                let (ph, t, pieces) = match cev {
                    CallEv::Open { sym, t, .. } => ("B", t, [name(sym), ""]),
                    CallEv::Close { sym, t } => ("E", t, [name(sym), ""]),
                    CallEv::Mark { sym, t } => ("i", t, ["== ", name(sym)]),
                    CallEv::OpenEnd { sym, t } => ("i", t, [name(sym), " (open at capture end)"]),
                    CallEv::Switch { t, birth: true } => ("i", t, ["switch in (new process)", ""]),
                    CallEv::Switch { t, birth: false } => ("i", t, ["switch in", ""]),
                };
                event(out, ph, &head, t + off);
                out.push_str(",\"name\":\"");
                out.push_str(pieces[0]);
                out.push_str(pieces[1]);
                if let CallEv::Open { net, elapsed, .. } = cev {
                    out.push_str("\",\"args\":{\"net_us\":");
                    push_u64(out, net);
                    out.push_str(",\"elapsed_us\":");
                    push_u64(out, elapsed);
                    out.push_str("}},");
                } else {
                    out.push_str("\"},");
                }
            });
        });

        // Coverage overlay: one slice plus one instant per dark window,
        // and an instant at every mask-level change.
        let coverage = head(OVERLAY_PID, 0);
        if let Some(run) = self.run {
            for (i, gap) in run.gaps.iter().enumerate() {
                let ts = gap.start_us.saturating_sub(base);
                let (cause, span) = (cause_label(gap.cause), gap.span_us());
                event(out, "X", &coverage, ts);
                let _ = write!(
                    out,
                    ",\"dur\":{span},\"name\":\"dark ({cause})\",\
                     \"args\":{{\"gap\":{i},\"span_us\":{span}}}}},"
                );
                event(out, "i", &coverage, ts);
                let _ = write!(out, ",\"name\":\"gap ({cause})\"}},");
            }
            let mut level: Option<TagMaskLevel> = None;
            for s in &run.sessions {
                if level != Some(s.level) {
                    level = Some(s.level);
                    event(out, "i", &coverage, s.start_us.saturating_sub(base));
                    let _ = write!(
                        out,
                        ",\"name\":\"mask level = {}\"}},",
                        level_label(s.level)
                    );
                }
            }
        }

        // Anomaly totals as a counter track (flat line start -> end).
        let a = &self.r.anomalies;
        for ts in [0, self.end_ts()] {
            event(out, "C", &coverage, ts);
            let _ = write!(
                out,
                ",\"name\":\"anomalies\",\"args\":{{\"orphan_exits\":{},\"unmatched_entries\":{},\
                 \"unknown_tags\":{},\"time_jumps\":{},\"duplicates\":{},\"truncations\":{}}}}},",
                a.orphan_exits,
                a.unmatched_entries,
                a.unknown_tags,
                a.time_jumps,
                a.duplicates,
                a.truncations,
            );
        }

        // Sentinel alert transitions as instant markers on their own
        // overlay lane, in journal order.
        for a in &self.alerts {
            let label = format!(
                "{} {}({}) delta {:+} {}",
                a.transition.label(),
                a.detector.label(),
                esc(&a.subject),
                a.delta,
                a.detector.unit(),
            );
            let ts = a.at_us.saturating_sub(base);
            event(out, "i", &head(OVERLAY_PID, 1), ts);
            let _ = write!(out, ",\"name\":\"{}\"}},", esc(&label));
        }

        // Pipeline lanes from the span journal: begin/end pairs render
        // as complete (`X`) slices, instants as instants.
        for span in self.paired_spans(base) {
            let head = head(PIPELINE_PID, u64::from(span.track.idx()) + 1);
            match span.dur {
                Some(dur) => {
                    event(out, "X", &head, span.ts);
                    let _ = write!(out, ",\"dur\":{dur}");
                }
                None => event(out, "i", &head, span.ts),
            }
            let _ = write!(
                out,
                ",\"name\":\"{}\",\"args\":{{\"id\":{},\"arg\":{}}}}},",
                esc(&span.name),
                span.id,
                span.arg,
            );
        }

        end_list(out, "]}");
        json
    }

    /// Span-journal events with begin/end pairs joined and times
    /// re-based onto the export timeline.
    fn paired_spans(&self, base: u64) -> Vec<PairedSpan> {
        let rebase = |ev: &SpanEvent| -> u64 {
            match (ev.track, self.run) {
                // Analysis workers only know bank-relative time; place
                // them at their session's spot on the timeline.
                (SpanTrack::Analyzer, Some(run)) => {
                    let off = run
                        .sessions
                        .get(ev.id as usize)
                        .map(|s| s.start_us.saturating_sub(base))
                        .unwrap_or(0);
                    ev.t_us + off
                }
                (_, Some(_)) => ev.t_us.saturating_sub(base),
                (_, None) => ev.t_us,
            }
        };
        let mut open: BTreeMap<(SpanTrack, SpanName, u64), (u64, u64)> = BTreeMap::new();
        let mut out = Vec::new();
        for ev in &self.spans {
            let ts = rebase(ev);
            match ev.phase {
                SpanPhase::Begin => {
                    open.insert((ev.track, ev.name, ev.id), (ts, ev.arg));
                }
                SpanPhase::End => match open.remove(&(ev.track, ev.name, ev.id)) {
                    Some((begin_ts, _)) => out.push(PairedSpan {
                        track: ev.track,
                        name: ev.name.label().to_string(),
                        ts: begin_ts,
                        dur: Some(ts.saturating_sub(begin_ts)),
                        id: ev.id,
                        arg: ev.arg,
                    }),
                    None => out.push(PairedSpan {
                        track: ev.track,
                        name: format!("{} (unmatched end)", ev.name.label()),
                        ts,
                        dur: None,
                        id: ev.id,
                        arg: ev.arg,
                    }),
                },
                SpanPhase::Instant => out.push(PairedSpan {
                    track: ev.track,
                    name: ev.name.label().to_string(),
                    ts,
                    dur: None,
                    id: ev.id,
                    arg: ev.arg,
                }),
            }
        }
        for ((track, name, id), (ts, arg)) in open {
            out.push(PairedSpan {
                track,
                name: format!("{} (open at capture end)", name.label()),
                ts,
                dur: None,
                id,
                arg,
            });
        }
        out.sort_by(|a, b| (a.ts, a.track, &a.name, a.id).cmp(&(b.ts, b.track, &b.name, b.id)));
        out
    }

    // ---- speedscope ----------------------------------------------------

    /// speedscope JSON: one evented profile per thread of control.
    pub fn speedscope(&self) -> String {
        self.speedscope_with(render_helpers())
    }

    /// [`Profile::speedscope`] with `helpers` threads rendering lane
    /// profiles beside the calling thread.
    pub(crate) fn speedscope_with(&self, helpers: usize) -> String {
        let base = self.base();
        let mut out = String::with_capacity(self.r.trace.len() * BYTES_PER_ITEM / 2 + 4096);
        let _ = write!(
            out,
            "{{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",\
             \"name\":\"{}\",\"activeProfileIndex\":0,\"exporter\":\"hwprof\",\
             \"shared\":{{\"frames\":[",
            esc(&self.name),
        );
        for name in self.escaped_names() {
            let _ = write!(out, "{{\"name\":\"{name}\"}},");
        }
        end_list(&mut out, "]},\"profiles\":[");
        let lanes = lanes(&self.r.trace);
        render_in_order(&lanes, helpers, &mut out, |(session, lane, items), out| {
            // A lane's events run from its first closed call's open to
            // the latest close; a lane without one has no profile.
            let mut spans = items.iter().filter_map(|it| match it.kind {
                ItemKind::Call {
                    elapsed,
                    closed: true,
                    ..
                } => Some((it.t, it.t + elapsed)),
                _ => None,
            });
            let Some((first, end)) = spans.next() else {
                return;
            };
            let last = spans.fold(end, |last, (_, end)| last.max(end));
            let off = self.session_offset(*session, base);
            let _ = write!(
                out,
                "{{\"type\":\"evented\",\"name\":\"session {session} control {lane}\",\
                 \"unit\":\"microseconds\",\"startValue\":{},\"endValue\":{},\"events\":[",
                first + off,
                last + off,
            );
            lane_call_events(items, |cev| {
                let (open, sym, t) = match cev {
                    CallEv::Open { sym, t, .. } => ("{\"type\":\"O\",\"frame\":", sym, t),
                    CallEv::Close { sym, t } => ("{\"type\":\"C\",\"frame\":", sym, t),
                    // Inline marks, unclosed frames and switch points
                    // have no evented-profile representation.
                    _ => return,
                };
                out.push_str(open);
                push_u64(out, u64::from(sym));
                out.push_str(",\"at\":");
                push_u64(out, t + off);
                out.push_str("},");
            });
            end_list(out, "]},");
        });
        end_list(&mut out, "]}");
        out
    }

    // ---- folded stacks -------------------------------------------------

    /// Folded-stack flamegraph text: `a;b;c net_us` per line, sorted,
    /// aggregated over every session and thread of control.  Weights
    /// are per-call net µs, so the column total equals the
    /// reconstruction's total net time exactly.
    ///
    /// Calls sum on a tree of symbol paths whose frames nest by depth
    /// per lane, as in the Chrome lanes; each path's names join once.
    pub fn folded(&self) -> String {
        /// The root node, parent of every top-level frame.
        const ROOT: usize = 0;
        let syms = &self.r.syms;
        // (parent, sym, summed net) per distinct path after the root; a
        // parent always precedes its children.
        let mut nodes: Vec<(usize, SymId, u64)> = vec![(ROOT, 0, 0)];
        // Per node: (sym, node) of each child, sorted by sym.
        let mut children: Vec<Vec<(SymId, usize)>> = vec![Vec::new()];
        // Per lane of the current session: (node, depth) of each call
        // still open.
        let mut stacks: Vec<Vec<(usize, u32)>> = Vec::new();
        for segment in self.r.trace.segments() {
            for item in segment {
                match item.kind {
                    ItemKind::SessionBreak => stacks.clear(),
                    ItemKind::Call {
                        sym, net, closed, ..
                    } => {
                        let lane = item.lane as usize;
                        if stacks.len() <= lane {
                            stacks.resize_with(lane + 1, Vec::new);
                        }
                        let stack = &mut stacks[lane];
                        while stack.last().is_some_and(|&(_, d)| d >= item.depth) {
                            stack.pop();
                        }
                        if closed {
                            let parent = stack.last().map_or(ROOT, |&(node, _)| node);
                            let kids = &mut children[parent];
                            let node = match kids.binary_search_by_key(&sym, |&(s, _)| s) {
                                Ok(i) => kids[i].1,
                                Err(i) => {
                                    kids.insert(i, (sym, nodes.len()));
                                    nodes.push((parent, sym, 0));
                                    children.push(Vec::new());
                                    nodes.len() - 1
                                }
                            };
                            nodes[node].2 += net;
                            stack.push((node, item.depth));
                        }
                    }
                    _ => {}
                }
            }
        }
        // Context-switch frames shape the path but have no net time of
        // their own in the accounting; paths whose names join equal sum.
        let mut paths: Vec<String> = Vec::with_capacity(nodes.len());
        paths.push(String::new());
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for &(parent, sym, net) in &nodes[1..] {
            let path = match parent {
                ROOT => syms.name(sym).to_string(),
                _ => format!("{};{}", paths[parent], syms.name(sym)),
            };
            if !syms.is_cswitch(sym) {
                *agg.entry(path.clone()).or_insert(0) += net;
            }
            paths.push(path);
        }
        let mut out = String::new();
        for (path, net) in agg {
            let _ = writeln!(out, "{path} {net}");
        }
        out
    }
}

/// One pipeline slice or point ready for the Chrome writer.
struct PairedSpan {
    track: SpanTrack,
    name: String,
    ts: u64,
    dur: Option<u64>,
    id: u64,
    arg: u64,
}

/// Balanced per-lane call stream derived from trace items.
#[derive(Clone, Copy)]
enum CallEv {
    /// A completed call opens (its net/elapsed are known).
    Open {
        sym: SymId,
        t: u64,
        net: u64,
        elapsed: u64,
    },
    /// A previously opened call closes.
    Close { sym: SymId, t: u64 },
    /// An inline trigger point.
    Mark { sym: SymId, t: u64 },
    /// A call whose exit was never captured.
    OpenEnd { sym: SymId, t: u64 },
    /// Control switched onto this lane.
    Switch { t: u64, birth: bool },
}

/// Replays one lane's trace items into a balanced open/close stream,
/// handing each event to `f`.
///
/// Only *closed* calls open spans (their end time is `t + elapsed`);
/// a span is closed as soon as a later call at the same-or-shallower
/// depth proves the frame ended, or at lane end.  Closes pop deepest
/// first, so spans nest properly and times never run backwards.
fn lane_call_events(items: &[&TraceItem], mut f: impl FnMut(CallEv)) {
    // (sym, end time, depth) of every call still open.
    let mut stack: Vec<(SymId, u64, u32)> = Vec::new();
    for item in items {
        match item.kind {
            ItemKind::Call {
                sym,
                net,
                elapsed,
                closed,
                ..
            } => {
                while stack.last().is_some_and(|&(_, _, d)| d >= item.depth) {
                    let (s, end, _) = stack.pop().expect("guarded");
                    f(CallEv::Close { sym: s, t: end });
                }
                if closed {
                    f(CallEv::Open {
                        sym,
                        t: item.t,
                        net,
                        elapsed,
                    });
                    stack.push((sym, item.t + elapsed, item.depth));
                } else {
                    f(CallEv::OpenEnd { sym, t: item.t });
                }
            }
            ItemKind::Inline { sym } => f(CallEv::Mark { sym, t: item.t }),
            ItemKind::SwitchIn { birth } => f(CallEv::Switch { t: item.t, birth }),
            ItemKind::Return { .. } | ItemKind::SessionBreak => {}
        }
    }
    while let Some((s, end, _)) = stack.pop() {
        f(CallEv::Close { sym: s, t: end });
    }
}

/// Render helpers beside the calling thread: one per further core.
fn render_helpers() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get() - 1)
}

/// [`render_in_order`]'s claim counter and reorder slots.
#[derive(Default)]
struct Reorder {
    /// The first group nobody has claimed.
    next: usize,
    /// The group the calling thread appends next.
    at: usize,
    /// Chunks rendered ahead, group `i` in slot `i % RENDER_WINDOW`.
    ready: [Option<String>; RENDER_WINDOW],
    /// Appended chunks, emptied for reuse.
    spare: Vec<String>,
    /// A helper's panic, for the calling thread to resume.
    panic: Option<Box<dyn Any + Send>>,
    /// Set when the calling thread leaves or a helper panics: helpers
    /// render nothing more.
    stop: bool,
}

impl Reorder {
    /// Claims the first unclaimed group if it lies inside the window
    /// ahead of the calling thread, with a spare chunk to render it in.
    fn claim_ahead(&mut self, groups: usize) -> Option<(usize, String)> {
        let i = self.next;
        if i == groups || i >= self.at + RENDER_WINDOW {
            return None;
        }
        self.next += 1;
        Some((i, self.spare.pop().unwrap_or_default()))
    }
}

/// Appends `render(group)` for every group to `out`, in order.
///
/// With `helpers` > 0, up to that many scoped threads (one per group
/// after the first, and fewer than [`RENDER_WINDOW`]) claim groups from
/// the calling thread's in-order counter, never [`RENDER_WINDOW`] or
/// more groups ahead of the group it appends next.  Each renders into
/// a reused chunk and parks it in that group's reorder slot.  The
/// calling thread walks the groups in order: one nobody has claimed it
/// claims and renders straight into `out`, and a parked chunk it
/// appends.  While its next group is still rendering elsewhere it
/// claims one ahead and parks that too, rather than wait.  Renders
/// share no state, so the bytes are the serial loop's.  A panic in a
/// helper's render is resumed on the calling thread.
fn render_in_order<G: Sync>(
    groups: &[G],
    helpers: usize,
    out: &mut String,
    render: impl Fn(&G, &mut String) + Sync,
) {
    let helpers = helpers
        .min(groups.len().saturating_sub(1))
        .min(RENDER_WINDOW - 1);
    if helpers == 0 {
        for group in groups {
            render(group, out);
        }
        return;
    }
    let (state, turn) = (&Mutex::new(Reorder::default()), &Condvar::new());
    let render = &render;
    std::thread::scope(|scope| {
        for _ in 0..helpers {
            scope.spawn(move || {
                let mut st = state.lock().unwrap();
                while !st.stop && st.next < groups.len() {
                    let Some((i, mut chunk)) = st.claim_ahead(groups.len()) else {
                        st = turn.wait(st).unwrap();
                        continue;
                    };
                    drop(st);
                    let rendered =
                        catch_unwind(AssertUnwindSafe(|| render(&groups[i], &mut chunk)));
                    st = state.lock().unwrap();
                    match rendered {
                        Ok(()) => st.ready[i % RENDER_WINDOW] = Some(chunk),
                        Err(panic) => (st.panic, st.stop) = (Some(panic), true),
                    }
                    turn.notify_all();
                }
            });
        }
        /// Stops the helpers however the calling thread leaves.
        struct Stop<'s>(&'s Mutex<Reorder>, &'s Condvar);
        impl Drop for Stop<'_> {
            fn drop(&mut self) {
                self.0.lock().unwrap_or_else(|e| e.into_inner()).stop = true;
                self.1.notify_all();
            }
        }
        let _stop = Stop(state, turn);
        for (i, group) in groups.iter().enumerate() {
            let mut st = state.lock().unwrap();
            st.at = i;
            turn.notify_all();
            loop {
                if st.next == i {
                    st.next += 1;
                    drop(st);
                    render(group, out);
                    break;
                }
                if let Some(mut chunk) = st.ready[i % RENDER_WINDOW].take() {
                    drop(st);
                    out.push_str(&chunk);
                    chunk.clear();
                    state.lock().unwrap().spare.push(chunk);
                    break;
                }
                if let Some(panic) = st.panic.take() {
                    drop(st);
                    resume_unwind(panic);
                }
                st = match st.claim_ahead(groups.len()) {
                    Some((j, mut chunk)) => {
                        drop(st);
                        render(&groups[j], &mut chunk);
                        let mut st = state.lock().unwrap();
                        st.ready[j % RENDER_WINDOW] = Some(chunk);
                        st
                    }
                    None => turn.wait(st).unwrap(),
                };
            }
        }
    });
}

/// Names a process, or with a `tid` one of its thread lanes.
fn meta(out: &mut String, pid: u64, tid: Option<u64>, name: &str) {
    let (kind, tid) = match tid {
        Some(tid) => ("thread", format!(",\"tid\":{tid}")),
        None => ("process", String::new()),
    };
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{pid}{tid},\"name\":\"{kind}_name\",\
         \"args\":{{\"name\":\"{}\"}}}},",
        esc(name)
    );
}

/// The middle of every event on one (pid, tid) lane, from the close of
/// its `ph` value to the `ts` key: `","pid":<pid>,"tid":<tid>,"ts":`.
fn head(pid: u64, tid: u64) -> String {
    format!("\",\"pid\":{pid},\"tid\":{tid},\"ts\":")
}

/// Opens one event on a lane's [`head`], up to its timestamp; instants
/// are thread-scoped.
fn event(out: &mut String, ph: &str, head: &str, ts: u64) {
    out.push_str("{\"ph\":\"");
    out.push_str(ph);
    out.push_str(head);
    push_u64(out, ts);
    if ph == "i" {
        out.push_str(",\"s\":\"t\"");
    }
}

/// Appends `n` in decimal.
fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[i..]).expect("decimal digits are ASCII"));
}

/// Drops the `,` after a list's last element, then appends `close`.
fn end_list(out: &mut String, close: &str) {
    if out.ends_with(',') {
        out.pop();
    }
    out.push_str(close);
}

fn level_label(level: TagMaskLevel) -> &'static str {
    match level {
        TagMaskLevel::All => "All",
        TagMaskLevel::HotMasked => "HotMasked",
        TagMaskLevel::SwitchOnly => "SwitchOnly",
    }
}

fn cause_label(cause: GapCause) -> &'static str {
    match cause {
        GapCause::Overflow => "overflow",
        GapCause::Drain => "drain",
        GapCause::BankLost => "bank lost",
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---- minimal JSON reader (for gates and property tests) ----------------

/// Parsed JSON value, produced by [`validate_json`].  Just enough
/// structure for the repro gates and property tests to walk exported
/// documents without external dependencies.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }
}

/// Parses `s` as one JSON document, rejecting trailing garbage and
/// arrays or objects nested deeper than 512.  This is the schema floor
/// every exported JSON must clear; the repro gate and property tests
/// run all output through it.
pub fn validate_json(s: &str) -> Result<JsonValue, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

/// Parses the value at `pos`, inside `depth` arrays or objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(b, pos, depth + 1),
        Some(b'[') => parse_array(b, pos, depth + 1),
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        other => Err(format!(
            "unexpected {:?} at byte {}",
            other.map(|&x| x as char),
            *pos
        )),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => {
                        return Err(format!(
                            "bad escape {:?} at byte {}",
                            other.map(|&x| x as char),
                            *pos
                        ))
                    }
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run of unescaped characters whole: `"` and
                // `\` are ASCII, so the run ends on a character boundary.
                let start = *pos;
                let run = b[start..].iter().position(|&c| c == b'"' || c == b'\\');
                *pos = run.map_or(b.len(), |n| start + n);
                let run = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(out));
            }
            other => {
                return Err(format!(
                    "expected ',' or ']' at byte {} (found {:?})",
                    *pos,
                    other.map(|&x| x as char)
                ))
            }
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    expect(b, pos, b'{')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos, depth)?;
        out.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(out));
            }
            other => {
                return Err(format!(
                    "expected ',' or '}}' at byte {} (found {:?})",
                    *pos,
                    other.map(|&x| x as char)
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{decode, EvKind, Event, Symbols};
    use crate::recon::Reconstruction;
    use hwprof_profiler::RawRecord;
    use hwprof_telemetry::SpanLog;

    fn rec(tag: u16, time: u32) -> RawRecord {
        RawRecord { tag, time }
    }

    const TF: &str = "a/100\nb/102\nc/104\nswtch/200!\nMARK/300=\n";

    fn fixture() -> Reconstruction {
        let tf = hwprof_tagfile::parse(TF).unwrap();
        // a{ b{} MARK } with a switch to a newborn process running c{}.
        let recs = [
            rec(100, 0),
            rec(102, 10),
            rec(103, 40),
            rec(300, 45),
            rec(200, 50),
            rec(201, 60), // birth
            rec(104, 70),
            rec(105, 90),
            rec(200, 95),
            rec(201, 100), // back to the first lane
            rec(101, 120),
        ];
        let (syms, ev) = decode(&recs, &tf);
        crate::Analyzer::new(&syms).session(&ev).expect("ungated")
    }

    #[test]
    fn chrome_trace_is_valid_json_with_balanced_spans() {
        let r = fixture();
        let out = Profile::new(&r).chrome_trace();
        let doc = validate_json(&out).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        // Per (pid, tid, name): every B is eventually closed by an E at
        // a time >= its own.
        let mut open: std::collections::HashMap<(u64, u64, String), Vec<u64>> =
            std::collections::HashMap::new();
        for ev in events {
            let ph = ev.get("ph").unwrap().as_str().unwrap();
            if ph != "B" && ph != "E" {
                continue;
            }
            let key = (
                ev.get("pid").unwrap().as_u64().unwrap(),
                ev.get("tid").unwrap().as_u64().unwrap(),
                ev.get("name").unwrap().as_str().unwrap().to_string(),
            );
            let ts = ev.get("ts").unwrap().as_u64().unwrap();
            if ph == "B" {
                open.entry(key).or_default().push(ts);
            } else {
                let begin = open
                    .get_mut(&key)
                    .and_then(|v| v.pop())
                    .unwrap_or_else(|| panic!("E without B: {key:?}"));
                assert!(ts >= begin, "negative duration for {key:?}");
            }
        }
        for (key, stack) in open {
            assert!(stack.is_empty(), "unclosed B events for {key:?}");
        }
        // The two threads of control got distinct lanes.
        assert!(out.contains("\"name\":\"control 0\""));
        assert!(out.contains("\"name\":\"control 1\""));
        assert!(out.contains("== MARK"));
    }

    #[test]
    fn speedscope_profiles_are_monotonic() {
        let r = fixture();
        let out = Profile::new(&r).speedscope();
        let doc = validate_json(&out).expect("valid JSON");
        let profiles = doc.get("profiles").unwrap().as_array().unwrap();
        assert!(!profiles.is_empty());
        for p in profiles {
            let events = p.get("events").unwrap().as_array().unwrap();
            let mut depth = 0i64;
            let mut last = 0u64;
            for ev in events {
                let at = ev.get("at").unwrap().as_u64().unwrap();
                assert!(at >= last, "time went backwards");
                last = at;
                match ev.get("type").unwrap().as_str().unwrap() {
                    "O" => depth += 1,
                    "C" => depth -= 1,
                    other => panic!("unexpected event type {other}"),
                }
                assert!(depth >= 0, "close before open");
            }
            assert_eq!(depth, 0, "profile left frames open");
            let start = p.get("startValue").unwrap().as_u64().unwrap();
            let end = p.get("endValue").unwrap().as_u64().unwrap();
            assert!(start <= end);
        }
    }

    #[test]
    fn folded_total_matches_net_accounting() {
        let r = fixture();
        let out = Profile::new(&r).folded();
        let total: u64 = out
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        let net: u64 = r.stats.iter().map(|a| a.net).sum();
        assert_eq!(total, net, "folded:\n{out}");
        // Nested paths show up folded.
        assert!(out.contains("a;b "), "folded:\n{out}");
        // The newborn lane's call is its own root.
        assert!(out.lines().any(|l| l.starts_with("c ")), "folded:\n{out}");
    }

    #[test]
    fn span_journal_renders_as_pipeline_lanes() {
        let r = fixture();
        let log = SpanLog::new();
        log.begin(SpanTrack::Supervisor, SpanName::Bank, 10, 0, 0);
        log.end(SpanTrack::Supervisor, SpanName::Bank, 90, 0, 11);
        log.instant(SpanTrack::Transport, SpanName::Retry, 95, 0, 1);
        log.begin(SpanTrack::Transport, SpanName::Upload, 90, 0, 0);
        // Deliberately left open.
        let out = Profile::new(&r).spans(&log).chrome_trace();
        validate_json(&out).expect("valid JSON");
        assert!(out.contains("\"name\":\"capture pipeline\""));
        assert!(out.contains("\"ph\":\"X\""), "paired span becomes a slice");
        assert!(out.contains("\"dur\":80"));
        assert!(out.contains("retry"));
        assert!(out.contains("upload (open at capture end)"));
    }

    #[test]
    fn validator_accepts_tricky_and_rejects_broken() {
        let ok = r#"{"a":[1,2.5,-3,true,false,null],"b":"q\"\\\u0041\n","c":{}}"#;
        let doc = validate_json(ok).expect("valid");
        assert_eq!(doc.get("b").unwrap().as_str(), Some("q\"\\A\n"));
        assert!(validate_json("{\"a\":1,}").is_err());
        assert!(validate_json("{\"a\":1} extra").is_err());
        assert!(validate_json("[1,2").is_err());
        assert!(validate_json("").is_err());
    }

    /// Nesting up to the depth bound parses; one level more, or a
    /// million unclosed `[` or `{`, is an error instead of a stack
    /// overflow.
    #[test]
    fn validator_bounds_nesting_depth() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let nest = |n: usize| format!("{}0{}", open.repeat(n), close.repeat(n));
            assert!(validate_json(&nest(MAX_JSON_DEPTH)).is_ok());
            let err = validate_json(&nest(MAX_JSON_DEPTH + 1)).expect_err("too deep");
            assert!(err.starts_with("nesting deeper than 512"), "{err}");
            assert!(validate_json(&open.repeat(1_000_000)).is_err());
        }
    }

    /// A helper's render panics partway through its group: the calling
    /// thread resumes that panic instead of waiting on the group's
    /// reorder slot.
    #[test]
    fn a_helper_panic_resumes_on_the_calling_thread() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let caller = std::thread::current().id();
        let helper_failed = AtomicBool::new(false);
        let groups: Vec<usize> = (0..16).collect();
        let mut out = String::new();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            render_in_order(&groups, 1, &mut out, |&g, out| {
                if std::thread::current().id() == caller {
                    // Hold the calling thread's first group until the
                    // helper has failed on one of its own.
                    while !helper_failed.load(Ordering::SeqCst) {
                        std::thread::yield_now();
                    }
                    out.push_str("ok,");
                } else {
                    out.push_str("half");
                    helper_failed.store(true, Ordering::SeqCst);
                    panic!("render of group {g} failed");
                }
            })
        }));
        let panic = caught.expect_err("the helper's panic reaches the caller");
        let message = panic.downcast_ref::<String>().expect("formatted message");
        assert!(message.starts_with("render of group "), "{message}");
    }

    /// A group that panics on whichever thread renders it, the calling
    /// thread included (helpers may be waiting on the window then):
    /// at every helper count the panic reaches the caller and every
    /// helper stops.
    #[test]
    fn a_failing_group_panics_the_render_at_every_helper_count() {
        let groups: Vec<usize> = (0..64).collect();
        for helpers in 0..=3 {
            let mut out = String::new();
            let caught = catch_unwind(AssertUnwindSafe(|| {
                render_in_order(&groups, helpers, &mut out, |&g, out| {
                    out.push_str("part");
                    assert_ne!(g, 9, "group 9 fails");
                })
            }));
            assert!(caught.is_err(), "{helpers} helpers");
        }
    }

    /// Every helper count appends every group once, in order.
    #[test]
    fn groups_append_in_order_at_every_helper_count() {
        let groups: Vec<usize> = (0..100).collect();
        let serial: String = groups.iter().map(|g| format!("{g},")).collect();
        for helpers in 0..=5 {
            let mut out = String::from("[");
            render_in_order(&groups, helpers, &mut out, |g, out| {
                let _ = write!(out, "{g},");
            });
            assert_eq!(out, format!("[{serial}"), "{helpers} helpers");
        }
    }

    /// A document holding one 1 MiB string, multi-byte characters
    /// included, parses back to that string: unescaped runs are copied
    /// whole instead of re-checking the rest of the input per character.
    #[test]
    fn validator_parses_a_mebibyte_string() {
        let text = "in µs, ".repeat(1 << 17);
        assert_eq!(text.len(), 1 << 20);
        let doc = validate_json(&format!("\"{text}\"")).expect("valid");
        assert_eq!(doc.as_str(), Some(text.as_str()));
    }

    /// Names holding JSON metacharacters, control characters and
    /// non-ASCII text go through the escaped-name table: both JSON
    /// exports parse, and every name reads back as the original, with
    /// the inline-mark and open-frame decorations around it.
    #[test]
    fn awkward_names_read_back_from_both_json_exports() {
        let names = [
            "quo\"te",
            "back\\slash",
            "new\nline",
            "tab\tbed",
            "ctl\u{1}x",
            "µs path",
        ];
        let syms = Symbols::from_names(names);
        let ev = |t, kind| Event { t, kind };
        let events = [
            ev(0, EvKind::Entry(0)),
            ev(5, EvKind::Entry(1)),
            ev(9, EvKind::Exit(1)),
            ev(12, EvKind::Inline(2)),
            ev(15, EvKind::Entry(3)),
            ev(20, EvKind::Exit(3)),
            ev(22, EvKind::Entry(5)),
            ev(30, EvKind::Exit(5)),
            ev(40, EvKind::Exit(0)),
            ev(45, EvKind::Entry(4)),
        ];
        let r = crate::Analyzer::new(&syms)
            .session(&events)
            .expect("ungated");
        let title = "a \"quoted\" µs run";
        let p = Profile::new(&r).name(title);
        let str_at = |v: &JsonValue, path: &[&str]| -> String {
            let leaf = path.iter().fold(v, |v, k| v.get(k).expect("field present"));
            leaf.as_str().expect("string field").to_string()
        };

        let chrome = validate_json(&p.chrome_trace()).expect("chrome export is valid JSON");
        assert_eq!(str_at(&chrome, &["otherData", "exporter"]), title);
        let kernel: std::collections::BTreeSet<String> = chrome
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array")
            .iter()
            .filter(|e| e.get("pid").and_then(JsonValue::as_u64) == Some(1))
            .filter(|e| str_at(e, &["ph"]) != "M")
            .map(|e| str_at(e, &["name"]))
            .collect();
        let mut expected: std::collections::BTreeSet<String> =
            [0, 1, 3, 5].iter().map(|&i| names[i].to_string()).collect();
        expected.insert(format!("== {}", names[2]));
        expected.insert(format!("{} (open at capture end)", names[4]));
        assert_eq!(kernel, expected);

        let ss = validate_json(&p.speedscope()).expect("speedscope export is valid JSON");
        assert_eq!(str_at(&ss, &["name"]), title);
        let frames: Vec<String> = ss
            .get("shared")
            .and_then(|s| s.get("frames"))
            .and_then(JsonValue::as_array)
            .expect("frames array")
            .iter()
            .map(|f| str_at(f, &["name"]))
            .collect();
        assert_eq!(frames, names);
    }

    #[test]
    fn escaping_round_trips() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
