//! Standards-based trace export.
//!
//! The paper renders its reconstruction as the Figure 4 ASCII report;
//! this module lifts the same [`Reconstruction`] into three formats
//! modern tooling consumes directly:
//!
//! * **Chrome Trace Event JSON** ([`Exporter::chrome_trace`]) — loads
//!   in Perfetto / `chrome://tracing`.  Each capture session becomes a
//!   process, and each thread of control the reconstructor untangled
//!   from the paper's `!`-multiplexed stream becomes a thread lane of
//!   nested `B`/`E` spans.  When a [`SupervisedRun`] is attached,
//!   coverage [`Gap`](hwprof_profiler::Gap)s and mask-ladder moves are
//!   emitted as instant
//!   events on a "capture timeline" process, anomaly totals as a
//!   counter track, and a [`SpanLog`] journal renders as pipeline lanes
//!   (supervisor / transport / analyzer / board) on the same clock — a
//!   supervised run reads as one unified timeline.
//! * **speedscope JSON** ([`Exporter::speedscope`]) — one evented
//!   profile per thread of control.
//! * **folded stacks** ([`Exporter::folded`]) — `a;b;c net_us` lines
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

use std::collections::BTreeMap;

use hwprof_profiler::{GapCause, SupervisedRun, TagMaskLevel};
use hwprof_telemetry::{SpanEvent, SpanLog, SpanName, SpanPhase, SpanTrack};

use crate::events::SymId;
use crate::recon::{ItemKind, Reconstruction, TraceItem};
use crate::sentinel::AlertEntry;

/// Synthetic pid of the coverage/anomaly overlay process.
const OVERLAY_PID: u64 = 0;
/// Synthetic pid of the span-journal pipeline process.
const PIPELINE_PID: u64 = 1_000_000;

/// Builder that renders a [`Reconstruction`] (plus optional supervised
/// run context and span journal) into the three export formats.
#[derive(Debug, Clone)]
pub struct Exporter<'a> {
    r: &'a Reconstruction,
    run: Option<&'a SupervisedRun>,
    spans: Vec<SpanEvent>,
    alerts: Vec<AlertEntry>,
    name: String,
}

impl<'a> Exporter<'a> {
    /// An exporter over a plain reconstruction.
    pub fn new(r: &'a Reconstruction) -> Self {
        Exporter {
            r,
            run: None,
            spans: Vec::new(),
            alerts: Vec::new(),
            name: "hwprof".to_string(),
        }
    }

    /// Profile name stamped into the JSON outputs.
    pub fn name(mut self, name: &str) -> Self {
        self.name = name.to_string();
        self
    }

    /// Attaches supervised-run context: sessions are re-based onto the
    /// run timeline, and gaps / mask moves / coverage render as overlay
    /// events.
    pub fn run(mut self, run: &'a SupervisedRun) -> Self {
        self.run = Some(run);
        self
    }

    /// Attaches a span journal; its events render as pipeline lanes in
    /// the Chrome trace.
    pub fn spans(self, log: &SpanLog) -> Self {
        let events = log.snapshot();
        self.span_events(events)
    }

    /// Attaches sentinel alert-journal entries; they render as instant
    /// markers on a dedicated overlay lane in the Chrome trace.  An
    /// empty slice leaves every output byte-identical to an exporter
    /// with no alerts attached.
    pub fn alerts(mut self, entries: &[AlertEntry]) -> Self {
        self.alerts = entries.to_vec();
        self
    }

    /// Like [`Exporter::spans`], from an already-snapshotted event list.
    pub fn span_events(mut self, mut events: Vec<SpanEvent>) -> Self {
        // Concurrent writers (analysis workers) make the journal's slot
        // order nondeterministic; a total order on the event value
        // itself makes every export deterministic.
        events.sort_by_key(|e| (e.t_us, e.track, e.name, e.id, e.phase, e.arg));
        self.spans = events;
        self
    }

    // ---- shared walk ---------------------------------------------------

    /// Crate-internal constructor for [`Profile`](crate::Profile), the
    /// one place outside this module allowed to assemble an exporter:
    /// every other caller goes through the `Profile` surface.
    pub(crate) fn assemble(
        r: &'a Reconstruction,
        run: Option<&'a SupervisedRun>,
        spans: Vec<SpanEvent>,
        alerts: Vec<AlertEntry>,
        name: &str,
    ) -> Self {
        let mut ex = Exporter::new(r).name(name).span_events(spans);
        ex.run = run;
        ex.alerts = alerts;
        ex
    }

    /// Trace items grouped per (session, lane), in deterministic order.
    fn lanes(&self) -> BTreeMap<(usize, u32), Vec<&'a TraceItem>> {
        let mut lanes: BTreeMap<(usize, u32), Vec<&TraceItem>> = BTreeMap::new();
        let mut session = 0usize;
        for item in &self.r.trace {
            if matches!(item.kind, ItemKind::SessionBreak) {
                session += 1;
                continue;
            }
            lanes.entry((session, item.lane)).or_default().push(item);
        }
        lanes
    }

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
    fn end_ts(&self, base: u64) -> u64 {
        if let Some(run) = self.run {
            return run.coverage.timeline_us;
        }
        let _ = base;
        self.r
            .trace
            .iter()
            .map(|it| match it.kind {
                ItemKind::Call { elapsed, .. } => it.t + elapsed,
                _ => it.t,
            })
            .max()
            .unwrap_or(0)
    }

    // ---- Chrome Trace Event JSON ---------------------------------------

    /// Chrome Trace Event JSON (object form), loadable in Perfetto or
    /// `chrome://tracing`.
    pub fn chrome_trace(&self) -> String {
        let base = self.base();
        let lanes = self.lanes();
        let mut ev: Vec<String> = Vec::new();

        // Metadata: name every process and thread lane up front.
        ev.push(meta_process(OVERLAY_PID, "capture timeline"));
        ev.push(meta_thread(OVERLAY_PID, 0, "coverage"));
        if !self.alerts.is_empty() {
            ev.push(meta_thread(OVERLAY_PID, 1, "alerts"));
        }
        let mut named_session = usize::MAX;
        for &(session, lane) in lanes.keys() {
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
                ev.push(meta_process(session as u64 + 1, &label));
            }
            ev.push(meta_thread(
                session as u64 + 1,
                u64::from(lane) + 1,
                &format!("control {lane}"),
            ));
        }
        if !self.spans.is_empty() {
            ev.push(meta_process(PIPELINE_PID, "capture pipeline"));
            for track in [
                SpanTrack::Supervisor,
                SpanTrack::Transport,
                SpanTrack::Analyzer,
                SpanTrack::Board,
                SpanTrack::Recorder,
            ] {
                ev.push(meta_thread(
                    PIPELINE_PID,
                    u64::from(track.idx()) + 1,
                    track.label(),
                ));
            }
        }

        // Kernel lanes.
        for (&(session, lane), items) in &lanes {
            let pid = session as u64 + 1;
            let tid = u64::from(lane) + 1;
            let off = self.session_offset(session, base);
            for cev in lane_call_events(items) {
                match cev {
                    CallEv::Open {
                        sym,
                        t,
                        net,
                        elapsed,
                    } => ev.push(format!(
                        "{{\"ph\":\"B\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":\"{}\",\
                         \"args\":{{\"net_us\":{net},\"elapsed_us\":{elapsed}}}}}",
                        t + off,
                        esc(self.r.syms.name(sym)),
                    )),
                    CallEv::Close { sym, t } => ev.push(format!(
                        "{{\"ph\":\"E\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":\"{}\"}}",
                        t + off,
                        esc(self.r.syms.name(sym)),
                    )),
                    CallEv::Mark { sym, t } => ev.push(instant(
                        pid,
                        tid,
                        t + off,
                        &format!("== {}", self.r.syms.name(sym)),
                    )),
                    CallEv::OpenEnd { sym, t } => ev.push(instant(
                        pid,
                        tid,
                        t + off,
                        &format!("{} (open at capture end)", self.r.syms.name(sym)),
                    )),
                    CallEv::Switch { t, birth } => ev.push(instant(
                        pid,
                        tid,
                        t + off,
                        if birth {
                            "switch in (new process)"
                        } else {
                            "switch in"
                        },
                    )),
                }
            }
        }

        // Coverage overlay: one slice plus one instant per dark window,
        // and an instant at every mask-level change.
        if let Some(run) = self.run {
            for (i, gap) in run.gaps.iter().enumerate() {
                let ts = gap.start_us.saturating_sub(base);
                ev.push(format!(
                    "{{\"ph\":\"X\",\"pid\":{OVERLAY_PID},\"tid\":0,\"ts\":{ts},\"dur\":{},\
                     \"name\":\"dark ({})\",\"args\":{{\"gap\":{i},\"span_us\":{}}}}}",
                    gap.span_us(),
                    cause_label(gap.cause),
                    gap.span_us(),
                ));
                ev.push(instant(
                    OVERLAY_PID,
                    0,
                    ts,
                    &format!("gap ({})", cause_label(gap.cause)),
                ));
            }
            let mut level: Option<TagMaskLevel> = None;
            for s in &run.sessions {
                if level != Some(s.level) {
                    level = Some(s.level);
                    ev.push(instant(
                        OVERLAY_PID,
                        0,
                        s.start_us.saturating_sub(base),
                        &format!("mask level = {}", level_label(s.level)),
                    ));
                }
            }
        }

        // Anomaly totals as a counter track (flat line start -> end).
        let a = &self.r.anomalies;
        let counters = format!(
            "{{\"orphan_exits\":{},\"unmatched_entries\":{},\"unknown_tags\":{},\
             \"time_jumps\":{},\"duplicates\":{},\"truncations\":{}}}",
            a.orphan_exits,
            a.unmatched_entries,
            a.unknown_tags,
            a.time_jumps,
            a.duplicates,
            a.truncations,
        );
        for ts in [0, self.end_ts(base)] {
            ev.push(format!(
                "{{\"ph\":\"C\",\"pid\":{OVERLAY_PID},\"tid\":0,\"ts\":{ts},\
                 \"name\":\"anomalies\",\"args\":{counters}}}",
            ));
        }

        // Sentinel alert transitions as instant markers on their own
        // overlay lane, in journal order.
        for a in &self.alerts {
            ev.push(instant(
                OVERLAY_PID,
                1,
                a.at_us.saturating_sub(base),
                &format!(
                    "{} {}({}) delta {:+} {}",
                    a.transition.label(),
                    a.detector.label(),
                    esc(&a.subject),
                    a.delta,
                    a.detector.unit(),
                ),
            ));
        }

        // Pipeline lanes from the span journal: begin/end pairs render
        // as complete (`X`) slices, instants as instants.
        for span in self.paired_spans(base) {
            let pid = PIPELINE_PID;
            let tid = u64::from(span.track.idx()) + 1;
            match span.dur {
                Some(dur) => ev.push(format!(
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{dur},\
                     \"name\":\"{}\",\"args\":{{\"id\":{},\"arg\":{}}}}}",
                    span.ts,
                    esc(&span.name),
                    span.id,
                    span.arg,
                )),
                None => ev.push(format!(
                    "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"s\":\"t\",\
                     \"name\":\"{}\",\"args\":{{\"id\":{},\"arg\":{}}}}}",
                    span.ts,
                    esc(&span.name),
                    span.id,
                    span.arg,
                )),
            }
        }

        format!(
            "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"exporter\":\"{}\",\
             \"sessions\":{},\"context_switches\":{}}},\"traceEvents\":[{}]}}",
            esc(&self.name),
            self.r.sessions,
            self.r.context_switches,
            ev.join(","),
        )
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
        let base = self.base();
        let frames: Vec<String> = (0..self.r.syms.len())
            .map(|i| format!("{{\"name\":\"{}\"}}", esc(self.r.syms.name(i as SymId))))
            .collect();
        let mut profiles: Vec<String> = Vec::new();
        for (&(session, lane), items) in &self.lanes() {
            let off = self.session_offset(session, base);
            let mut events: Vec<String> = Vec::new();
            let mut first = None;
            let mut last = 0u64;
            for cev in lane_call_events(items) {
                let (ty, sym, at) = match cev {
                    CallEv::Open { sym, t, .. } => ("O", sym, t + off),
                    CallEv::Close { sym, t } => ("C", sym, t + off),
                    // Inline marks, unclosed frames and switch points
                    // have no evented-profile representation.
                    _ => continue,
                };
                first.get_or_insert(at);
                last = last.max(at);
                events.push(format!("{{\"type\":\"{ty}\",\"frame\":{sym},\"at\":{at}}}"));
            }
            let Some(first) = first else { continue };
            profiles.push(format!(
                "{{\"type\":\"evented\",\"name\":\"session {session} control {lane}\",\
                 \"unit\":\"microseconds\",\"startValue\":{first},\"endValue\":{last},\
                 \"events\":[{}]}}",
                events.join(","),
            ));
        }
        format!(
            "{{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",\
             \"name\":\"{}\",\"activeProfileIndex\":0,\"exporter\":\"hwprof\",\
             \"shared\":{{\"frames\":[{}]}},\"profiles\":[{}]}}",
            esc(&self.name),
            frames.join(","),
            profiles.join(","),
        )
    }

    // ---- folded stacks -------------------------------------------------

    /// Folded-stack flamegraph text: `a;b;c net_us` per line, sorted,
    /// aggregated over every session and thread of control.  Weights
    /// are per-call net µs, so the column total equals the
    /// reconstruction's total net time exactly.
    pub fn folded(&self) -> String {
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for items in self.lanes().values() {
            let mut path: Vec<SymId> = Vec::new();
            for cev in lane_call_events(items) {
                match cev {
                    CallEv::Open { sym, net, .. } => {
                        path.push(sym);
                        // Context-switch frames shape the path but have
                        // no net time of their own in the accounting.
                        if !self.r.syms.is_cswitch(sym) {
                            let key = path
                                .iter()
                                .map(|&s| self.r.syms.name(s))
                                .collect::<Vec<_>>()
                                .join(";");
                            *agg.entry(key).or_insert(0) += net;
                        }
                    }
                    CallEv::Close { .. } => {
                        path.pop();
                    }
                    _ => {}
                }
            }
        }
        let mut out = String::new();
        for (path, net) in agg {
            out.push_str(&path);
            out.push(' ');
            out.push_str(&net.to_string());
            out.push('\n');
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

/// Replays one lane's trace items into a balanced open/close stream.
///
/// Only *closed* calls open spans (their end time is `t + elapsed`);
/// a span is closed as soon as a later call at the same-or-shallower
/// depth proves the frame ended, or at lane end.  Closes pop deepest
/// first, so spans nest properly and times never run backwards.
fn lane_call_events(items: &[&TraceItem]) -> Vec<CallEv> {
    let mut out = Vec::new();
    // (sym, end time, depth) of every call still open.
    let mut stack: Vec<(SymId, u64, usize)> = Vec::new();
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
                    out.push(CallEv::Close { sym: s, t: end });
                }
                if closed {
                    out.push(CallEv::Open {
                        sym,
                        t: item.t,
                        net,
                        elapsed,
                    });
                    stack.push((sym, item.t + elapsed, item.depth));
                } else {
                    out.push(CallEv::OpenEnd { sym, t: item.t });
                }
            }
            ItemKind::Inline { sym } => out.push(CallEv::Mark { sym, t: item.t }),
            ItemKind::SwitchIn { birth } => out.push(CallEv::Switch { t: item.t, birth }),
            ItemKind::Return { .. } | ItemKind::SessionBreak => {}
        }
    }
    while let Some((s, end, _)) = stack.pop() {
        out.push(CallEv::Close { sym: s, t: end });
    }
    out
}

fn meta_process(pid: u64, name: &str) -> String {
    format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
         \"args\":{{\"name\":\"{}\"}}}}",
        esc(name)
    )
}

fn meta_thread(pid: u64, tid: u64, name: &str) -> String {
    format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
         \"args\":{{\"name\":\"{}\"}}}}",
        esc(name)
    )
}

fn instant(pid: u64, tid: u64, ts: u64, name: &str) -> String {
    format!(
        "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"s\":\"t\",\
         \"name\":\"{}\"}}",
        esc(name)
    )
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

/// Parses `s` as one JSON document, rejecting trailing garbage.  This
/// is the schema floor every exported JSON must clear; the repro gate
/// and property tests run all output through it.
pub fn validate_json(s: &str) -> Result<JsonValue, String> {
    let bytes = s.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
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

fn parse_value(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
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

fn parse_array(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos)?);
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

fn parse_object(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
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
        let value = parse_value(b, pos)?;
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
    use crate::events::decode;
    use hwprof_profiler::RawRecord;

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
        let out = Exporter::new(&r).chrome_trace();
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
        let out = Exporter::new(&r).speedscope();
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
        let out = Exporter::new(&r).folded();
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
        let log = SpanLog::with_capacity(16);
        log.begin(SpanTrack::Supervisor, SpanName::Bank, 10, 0, 0);
        log.end(SpanTrack::Supervisor, SpanName::Bank, 90, 0, 11);
        log.instant(SpanTrack::Transport, SpanName::Retry, 95, 0, 1);
        log.begin(SpanTrack::Transport, SpanName::Upload, 90, 0, 0);
        // Deliberately left open.
        let out = Exporter::new(&r).spans(&log).chrome_trace();
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

    #[test]
    fn escaping_round_trips() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
