//! Call-path reconstruction from the decoded event stream.
//!
//! "Identification of function entry and exit points allow a code path
//! trace to be constructed with timing information at each call and
//! return point."  The hard part is the kernel's multiplexed control
//! flow: at a `!`-tagged function (`swtch`) "a discontinuous change in
//! the subroutine call/return model" occurs.  The reconstructor keeps one
//! stack per thread of control; at each `swtch` exit it decides which
//! suspended stack resumed by looking ahead for the first unmatched
//! function exit (the resumed process must unwind through the function
//! that called `swtch`).

use std::collections::BTreeMap;

use crate::anomaly::Anomalies;
use crate::columnar::{ColumnarDecoder, DenseTagTable};
use crate::events::{EvKind, Event, SymId, Symbols};
use hwprof_profiler::{Coverage, RawRecord};

/// Aggregate statistics for one function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FnAgg {
    /// Completed entry/exit pairs.
    pub calls: u64,
    /// Inline-trigger hits (for `=` tags).
    pub inline_hits: u64,
    /// Accumulated elapsed (inclusive) microseconds.
    pub elapsed: u64,
    /// Accumulated net (exclusive) microseconds.
    pub net: u64,
    /// Largest per-call net.
    pub max_net: u64,
    /// Smallest per-call net.
    pub min_net: u64,
}

impl FnAgg {
    /// Folds `other` into `self` (the monoid the streaming analyzer
    /// merges chunk results with).  Merging per-session aggregates in
    /// session order reproduces the sequential accumulation exactly:
    /// every field is a sum, a max, or a min over completed calls.
    pub fn merge(&mut self, other: &FnAgg) {
        if other.calls > 0 {
            self.min_net = if self.calls == 0 {
                other.min_net
            } else {
                self.min_net.min(other.min_net)
            };
            self.max_net = self.max_net.max(other.max_net);
        }
        self.calls += other.calls;
        self.inline_hits += other.inline_hits;
        self.elapsed += other.elapsed;
        self.net += other.net;
    }
}

/// One rendered-trace element (the trace report works from these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceItem {
    /// Event time (µs from session start).
    pub t: u64,
    /// Nesting depth at the event.
    pub depth: usize,
    /// Thread of control the item belongs to, numbered per session in
    /// order of first appearance (0 is the thread running at capture
    /// start; each birth allocates the next lane).  The exporters use
    /// this to split the paper's `!`-multiplexed stream into per-pid
    /// lanes; the ASCII renderer ignores it.
    pub lane: u32,
    /// What happened.
    pub kind: ItemKind,
}

/// Trace element kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemKind {
    /// A call; times are patched in when the frame closes.
    Call {
        /// Function.
        sym: SymId,
        /// Net µs (valid when `closed`).
        net: u64,
        /// Elapsed µs (valid when `closed`).
        elapsed: u64,
        /// Subcalls observed.
        children: u32,
        /// A context switch occurred inside this frame.
        spans_switch: bool,
        /// The frame closed before the capture ended.
        closed: bool,
    },
    /// An explicit return line (context-switch frames and frames that
    /// span a switch get these).
    Return {
        /// Function (None renders as a bare `<-`).
        sym: Option<SymId>,
        /// Net µs.
        net: u64,
        /// Elapsed µs.
        elapsed: u64,
    },
    /// An inline trigger.
    Inline {
        /// The point.
        sym: SymId,
    },
    /// Control switched to a different thread of control.
    SwitchIn {
        /// The resumed stack had never been seen before (process birth).
        birth: bool,
    },
    /// Boundary between concatenated capture sessions.
    SessionBreak,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    sym: SymId,
    entered: u64,
    child: u64,
    item: usize,
    children: u32,
    spans_switch: bool,
    is_cswitch: bool,
}

#[derive(Debug, Default)]
struct PStack {
    frames: Vec<Frame>,
    /// Lane id carried by trace items while this stack is active.
    lane: u32,
}

/// The full result of reconstruction.
///
/// `Reconstruction` is a monoid: [`Reconstruction::empty`] is the
/// identity and [`Reconstruction::merge`] combines per-session results
/// in session order into exactly what one sequential pass over the
/// concatenated sessions would produce.  That property is what lets
/// the streaming analyzer fan sessions out across worker threads — and
/// what lets a fleet aggregator fold per-machine reconstructions into
/// one fleet-wide profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Reconstruction {
    /// Symbol table used.
    pub syms: Symbols,
    /// Per-symbol aggregates.
    pub stats: Vec<FnAgg>,
    /// Wall-clock µs covered (sum over sessions).
    pub total_elapsed: u64,
    /// Idle µs (inside `swtch`, less device interrupts).
    pub idle: u64,
    /// Total hardware events.
    pub tags: usize,
    /// Completed `swtch` intervals that changed the thread of control.
    pub context_switches: u64,
    /// Completed `swtch` frames (any resume).
    pub swtch_calls: u64,
    /// Exits with no matching open frame (capture started mid-call).
    pub unmatched_exits: u64,
    /// Tags absent from the name file.
    pub unknown_tags: u64,
    /// Frames still open when the capture ended.
    pub open_at_end: u64,
    /// Threads of control first seen at a `swtch` exit.
    pub births: u64,
    /// Trace elements (across all sessions, with breaks).
    pub trace: Vec<TraceItem>,
    /// Call-graph edges: (caller, callee) -> completed calls.
    pub edges: std::collections::HashMap<(SymId, SymId), u64>,
    /// Number of capture sessions analyzed.
    pub sessions: usize,
    /// Classified anomaly summary (always populated from the counters
    /// above plus any decode/upload-level anomalies folded in with
    /// [`Reconstruction::note`]).
    pub anomalies: Anomalies,
    /// Timeline coverage of the capture(s) behind this reconstruction.
    /// Zero (the merge identity) for plain captures; populated via
    /// [`Reconstruction::note_coverage`] when sessions come from a
    /// supervised run.  Merges field-wise like every other counter.
    pub coverage: Coverage,
}

impl Reconstruction {
    /// The merge identity: zero sessions analyzed against `syms`.
    pub fn empty(syms: Symbols) -> Self {
        let n = syms.len();
        Reconstruction {
            syms,
            stats: vec![FnAgg::default(); n],
            total_elapsed: 0,
            idle: 0,
            tags: 0,
            context_switches: 0,
            swtch_calls: 0,
            unmatched_exits: 0,
            unknown_tags: 0,
            open_at_end: 0,
            births: 0,
            trace: Vec::new(),
            edges: std::collections::HashMap::new(),
            sessions: 0,
            anomalies: Anomalies::default(),
            coverage: Coverage::empty(),
        }
    }

    /// Folds `other` (the next sessions in order) into `self`.
    ///
    /// Every aggregate is a per-session sum/max/min and the trace is a
    /// concatenation, so `empty ∘ merge` over per-session results is
    /// bit-identical to one sequential pass: reconstruction state
    /// (stacks, idle windows) never crosses a session boundary.
    pub fn merge(&mut self, other: Reconstruction) {
        debug_assert_eq!(self.syms.len(), other.syms.len(), "same tag file");
        for (a, b) in self.stats.iter_mut().zip(&other.stats) {
            a.merge(b);
        }
        self.total_elapsed += other.total_elapsed;
        self.idle += other.idle;
        self.tags += other.tags;
        self.context_switches += other.context_switches;
        self.swtch_calls += other.swtch_calls;
        self.unmatched_exits += other.unmatched_exits;
        self.unknown_tags += other.unknown_tags;
        self.open_at_end += other.open_at_end;
        self.births += other.births;
        self.trace.extend(other.trace);
        for (k, v) in other.edges {
            *self.edges.entry(k).or_insert(0) += v;
        }
        self.sessions += other.sessions;
        self.anomalies.merge(&other.anomalies);
        self.coverage.merge(&other.coverage);
    }

    /// Folds decode- or upload-level anomalies (duplicates, time jumps,
    /// truncations — flagged before events reach reconstruction) into
    /// the summary.
    pub fn note(&mut self, a: &Anomalies) {
        self.anomalies.merge(a);
    }

    /// Folds supervised-run coverage accounting (gaps, mask downgrades,
    /// transport retries) into the result, exactly like
    /// [`Reconstruction::note`] folds anomalies.
    pub fn note_coverage(&mut self, c: &Coverage) {
        self.coverage.merge(c);
    }

    /// Accumulated non-idle µs.
    pub fn run_time(&self) -> u64 {
        self.total_elapsed.saturating_sub(self.idle)
    }

    /// Aggregate for a named function, if present.
    pub fn agg(&self, name: &str) -> Option<FnAgg> {
        self.syms.lookup(name).map(|s| self.stats[s as usize])
    }

    /// Net µs of `name` as a fraction of total elapsed (the `% real`
    /// column).
    pub fn pct_real(&self, name: &str) -> f64 {
        let a = self.agg(name).unwrap_or_default();
        if self.total_elapsed == 0 {
            0.0
        } else {
            a.net as f64 * 100.0 / self.total_elapsed as f64
        }
    }

    /// Net µs of `name` as a fraction of non-idle time (`% net`).
    pub fn pct_net(&self, name: &str) -> f64 {
        let a = self.agg(name).unwrap_or_default();
        let run = self.run_time();
        if run == 0 {
            0.0
        } else {
            a.net as f64 * 100.0 / run as f64
        }
    }
}

/// The reusable session reconstructor — the arena of the hot path.
///
/// Per-session allocation (symbol tables, stats vectors, edge maps,
/// trace vectors, a frame stack per process birth) would dominate at
/// fleet scale, so a `SessionRecon` is created once and fed many
/// sessions:
///
/// * results accumulate **directly into a shared [`Reconstruction`]**
///   ([`session_into`](SessionRecon::session_into)) — bit-identical to
///   merging per-session results, since every field is a sum, min, max
///   or concatenation (the monoid argument), with zero intermediate
///   allocation;
/// * frame stacks come from an internal **free pool**: a stack retired
///   at a context switch or session end keeps its capacity and is
///   handed to the next birth, so steady-state reconstruction performs
///   no frame allocation at all.
pub struct SessionRecon<'a> {
    syms: &'a Symbols,
    recover: bool,
    active: PStack,
    suspended: Vec<PStack>,
    /// Retired frame stacks, capacity kept for the next birth/session.
    free: Vec<Vec<Frame>>,
    /// Next lane id to hand a freshly born thread of control.
    next_lane: u32,
    in_switch: bool,
    switch_start: u64,
    intr_in_switch: u64,
}

/// Outcome of the forward scan after a `swtch` exit.
enum ResumeId {
    /// First unmatched exit: the resumed stack unwinds through this.
    Exit(SymId),
    /// A new switch began before any unmatched exit — only a freshly
    /// born thread of control runs entries-only to its next switch.
    NextSwitch,
    /// The capture ended first; ambiguous.
    End,
}

/// Scans forward from a `swtch` exit for the function the resumed stack
/// unwinds through: the first exit not matching a post-resume entry.
fn identify_resume(events: &[Event], syms: &Symbols) -> ResumeId {
    let mut depth = 0i64;
    for ev in events {
        match ev.kind {
            EvKind::Entry(s) => {
                if syms.is_cswitch(s) {
                    return ResumeId::NextSwitch;
                }
                depth += 1;
            }
            EvKind::Exit(s) => {
                if depth > 0 {
                    depth -= 1;
                } else {
                    return ResumeId::Exit(s);
                }
            }
            EvKind::Inline(_) | EvKind::Unknown(_) => {}
        }
    }
    ResumeId::End
}

impl<'a> SessionRecon<'a> {
    /// A fresh reconstructor over `syms`; `recover` resynchronizes a
    /// mismatched exit by force-closing the frames above its own (never
    /// past a context-switch frame) instead of counting an orphan, each
    /// intervention classified in [`Reconstruction::anomalies`].
    pub fn new(syms: &'a Symbols, recover: bool) -> Self {
        SessionRecon {
            syms,
            recover,
            active: PStack::default(),
            suspended: Vec::new(),
            free: Vec::new(),
            next_lane: 1,
            in_switch: false,
            switch_start: 0,
            intr_in_switch: 0,
        }
    }

    /// Pops the top frame without contributing to any statistic: its
    /// exit was never seen, so its times are unknowable.  The trace
    /// item stays unclosed and the parent's child-time accumulator is
    /// untouched (the orphaned interval will be net time of whichever
    /// ancestor does close cleanly).
    fn force_close(&mut self, out: &mut Reconstruction) {
        self.active.frames.pop().expect("caller checked");
        out.anomalies.unmatched_entries += 1;
    }

    fn push(&mut self, out: &mut Reconstruction, sym: SymId, t: u64, is_cswitch: bool) {
        let depth = self.active.frames.len();
        let item = out.trace.len();
        out.trace.push(TraceItem {
            t,
            depth,
            lane: self.active.lane,
            kind: ItemKind::Call {
                sym,
                net: 0,
                elapsed: 0,
                children: 0,
                spans_switch: false,
                closed: false,
            },
        });
        self.active.frames.push(Frame {
            sym,
            entered: t,
            child: 0,
            item,
            children: 0,
            spans_switch: false,
            is_cswitch,
        });
    }

    /// Pops the active top frame at time `t`, accounting and patching
    /// its trace item.
    fn pop(&mut self, out: &mut Reconstruction, t: u64) -> Frame {
        let f = self.active.frames.pop().expect("caller checked");
        let elapsed = t.saturating_sub(f.entered);
        let net = elapsed.saturating_sub(f.child);
        if let Some(parent) = self.active.frames.last_mut() {
            parent.child += elapsed;
            parent.children += 1;
        }
        if f.is_cswitch {
            out.swtch_calls += 1;
        } else {
            let a = &mut out.stats[f.sym as usize];
            a.calls += 1;
            a.elapsed += elapsed;
            a.net += net;
            a.max_net = a.max_net.max(net);
            a.min_net = if a.calls == 1 {
                net
            } else {
                a.min_net.min(net)
            };
            // An interrupt completing directly under an open swtch frame
            // during the idle window is run time, not idle.
            if self.in_switch && self.active.frames.last().is_some_and(|p| p.is_cswitch) {
                self.intr_in_switch += elapsed;
            }
        }
        if let ItemKind::Call {
            net: n,
            elapsed: e,
            children,
            spans_switch,
            closed,
            ..
        } = &mut out.trace[f.item].kind
        {
            *n = net;
            *e = elapsed;
            *children = f.children;
            *spans_switch = f.spans_switch;
            *closed = true;
        }
        // Call-graph edge.
        if let Some(parent) = self.active.frames.last() {
            *out.edges.entry((parent.sym, f.sym)).or_insert(0) += 1;
        }
        // Explicit return lines for frames the renderer may want to
        // close visually: switch spanners (named, with times) and
        // non-leaf frames (bare).
        if !f.is_cswitch && (f.spans_switch || f.children > 0) {
            out.trace.push(TraceItem {
                t,
                depth: self.active.frames.len(),
                lane: self.active.lane,
                kind: ItemKind::Return {
                    sym: if f.spans_switch { Some(f.sym) } else { None },
                    net,
                    elapsed,
                },
            });
        }
        f
    }

    fn handle_cswitch_exit(&mut self, out: &mut Reconstruction, t: u64, rest: &[Event]) {
        // Close the idle window.
        if self.in_switch {
            let window = t.saturating_sub(self.switch_start);
            out.idle += window.saturating_sub(self.intr_in_switch);
            self.in_switch = false;
        }
        let wanted = identify_resume(rest, self.syms);
        let top_is_swtch = |st: &PStack| st.frames.last().is_some_and(|f| f.is_cswitch);
        let matches_exit = |st: &PStack, x: SymId| -> bool {
            top_is_swtch(st) && st.frames.len().checked_sub(2).map(|i| st.frames[i].sym) == Some(x)
        };
        // A thread suspended at top level (a lone swtch frame) resumes to
        // entries-only execution, indistinguishable from a birth except
        // that its stack exists.
        let lone_swtch = |st: &PStack| st.frames.len() == 1 && top_is_swtch(st);
        let choice: Choice = match wanted {
            ResumeId::Exit(x) => {
                if matches_exit(&self.active, x) {
                    Choice::Active
                } else if let Some(i) = self.suspended.iter().rposition(|s| matches_exit(s, x)) {
                    Choice::Suspended(i)
                } else {
                    Choice::Birth
                }
            }
            ResumeId::NextSwitch => {
                if lone_swtch(&self.active) {
                    Choice::Active
                } else if let Some(i) = self.suspended.iter().rposition(lone_swtch) {
                    Choice::Suspended(i)
                } else {
                    Choice::Birth
                }
            }
            ResumeId::End => {
                if top_is_swtch(&self.active) {
                    Choice::Active
                } else if let Some(i) = self.suspended.iter().rposition(top_is_swtch) {
                    Choice::Suspended(i)
                } else {
                    Choice::Birth
                }
            }
        };
        let depth_for_item = |frames: &PStack| frames.frames.len().saturating_sub(1);
        match choice {
            Choice::Active => {
                out.trace.push(TraceItem {
                    t,
                    depth: depth_for_item(&self.active),
                    lane: self.active.lane,
                    kind: ItemKind::Return {
                        sym: self.active.frames.last().map(|f| f.sym),
                        net: 0,
                        elapsed: 0,
                    },
                });
                self.pop(out, t);
            }
            Choice::Suspended(i) => {
                let resumed = self.suspended.remove(i);
                let old = std::mem::replace(&mut self.active, resumed);
                self.suspended.push(old);
                out.context_switches += 1;
                // Everything still open on the resumed stack spans a
                // switch.
                for f in &mut self.active.frames {
                    f.spans_switch = true;
                }
                out.trace.push(TraceItem {
                    t,
                    depth: 0,
                    lane: self.active.lane,
                    kind: ItemKind::SwitchIn { birth: false },
                });
                out.trace.push(TraceItem {
                    t,
                    depth: depth_for_item(&self.active),
                    lane: self.active.lane,
                    kind: ItemKind::Return {
                        sym: self.active.frames.last().map(|f| f.sym),
                        net: 0,
                        elapsed: 0,
                    },
                });
                self.pop(out, t);
            }
            Choice::Birth => {
                // The fresh stack comes from the arena's free pool; the
                // outgoing one parks on `suspended` with its capacity
                // (an empty one goes straight back to the pool).
                let fresh = PStack {
                    frames: self.free.pop().unwrap_or_default(),
                    lane: 0,
                };
                let old = std::mem::replace(&mut self.active, fresh);
                if old.frames.is_empty() {
                    self.free.push(old.frames);
                } else {
                    self.suspended.push(old);
                }
                self.active.lane = self.next_lane;
                self.next_lane += 1;
                out.context_switches += 1;
                out.births += 1;
                out.trace.push(TraceItem {
                    t,
                    depth: 0,
                    lane: self.active.lane,
                    kind: ItemKind::SwitchIn { birth: true },
                });
            }
        }
    }

    /// Reconstructs one capture session, accumulating the result
    /// directly into `out` — exactly what merging the session's own
    /// `Reconstruction` into `out` would produce, without building that
    /// intermediate (every field
    /// is a sum, min, max or concatenation, so direct accumulation and
    /// merge-of-parts are the same fold).  Reconstruction state never
    /// crosses a session boundary; the frame pool does, which is the
    /// point.
    pub fn session_into(&mut self, events: &[Event], out: &mut Reconstruction) {
        debug_assert_eq!(self.syms.len(), out.syms.len(), "same tag file");
        out.sessions += 1;
        out.tags += events.len();
        if let (Some(first), Some(last)) = (events.first(), events.last()) {
            out.total_elapsed += last.t - first.t;
        }
        for (i, ev) in events.iter().enumerate() {
            match ev.kind {
                EvKind::Entry(sym) => {
                    let cs = self.syms.is_cswitch(sym);
                    self.push(out, sym, ev.t, cs);
                    if cs {
                        self.in_switch = true;
                        self.switch_start = ev.t;
                        self.intr_in_switch = 0;
                    }
                }
                EvKind::Exit(sym) => {
                    if self.syms.is_cswitch(sym) {
                        self.handle_cswitch_exit(out, ev.t, &events[i + 1..]);
                    } else if self
                        .active
                        .frames
                        .last()
                        .is_some_and(|f| f.sym == sym && !f.is_cswitch)
                    {
                        self.pop(out, ev.t);
                    } else if self.recover {
                        // Resynchronize: a dropped entry-or-exit leaves
                        // the matching frame deeper on the stack (or
                        // nowhere).  Search top-down — never across a
                        // context-switch frame, which belongs to a
                        // different control discontinuity — and
                        // force-close the skipped frames.
                        let mut found = None;
                        for (fi, f) in self.active.frames.iter().enumerate().rev() {
                            if f.is_cswitch {
                                break;
                            }
                            if f.sym == sym {
                                found = Some(fi);
                                break;
                            }
                        }
                        if let Some(fi) = found {
                            while self.active.frames.len() > fi + 1 {
                                self.force_close(out);
                            }
                            self.pop(out, ev.t);
                        } else {
                            out.unmatched_exits += 1;
                            out.anomalies.orphan_exits += 1;
                        }
                    } else {
                        out.unmatched_exits += 1;
                        out.anomalies.orphan_exits += 1;
                    }
                }
                EvKind::Inline(sym) => {
                    out.stats[sym as usize].inline_hits += 1;
                    out.trace.push(TraceItem {
                        t: ev.t,
                        depth: self.active.frames.len(),
                        lane: self.active.lane,
                        kind: ItemKind::Inline { sym },
                    });
                }
                EvKind::Unknown(_) => {
                    out.unknown_tags += 1;
                    out.anomalies.unknown_tags += 1;
                }
            }
        }
        // Session teardown: open frames are incomplete calls.
        let open: usize =
            self.active.frames.len() + self.suspended.iter().map(|s| s.frames.len()).sum::<usize>();
        out.open_at_end += open as u64;
        out.anomalies.unmatched_entries += open as u64;
        // Retire every stack into the free pool, keeping capacity for
        // the next session.
        self.active.frames.clear();
        self.active.lane = 0;
        for mut s in self.suspended.drain(..) {
            s.frames.clear();
            self.free.push(s.frames);
        }
        self.next_lane = 1;
        self.in_switch = false;
        out.trace.push(TraceItem {
            t: events.last().map_or(0, |e| e.t),
            depth: 0,
            lane: 0,
            kind: ItemKind::SessionBreak,
        });
    }
}

enum Choice {
    Active,
    Suspended(usize),
    Birth,
}

/// The per-bank step every capture path shares: one carried RAM (or
/// drained bank, or fleet shard) decoded and reconstructed as one
/// session.  Holds the worker-lifetime hot-path state — the columnar
/// decoder's scratch columns, the event buffer and the
/// reconstructor's frame pool — so a warm `BankRecon` decodes and
/// reconstructs without touching the allocator.
pub struct BankRecon<'a> {
    decoder: ColumnarDecoder<'a>,
    recon: SessionRecon<'a>,
    events: Vec<Event>,
}

impl<'a> BankRecon<'a> {
    /// A bank step over `table`/`syms`; `recover` selects tolerant
    /// decode plus resynchronizing reconstruction.
    pub fn new(table: &'a DenseTagTable, syms: &'a Symbols, recover: bool) -> Self {
        BankRecon {
            decoder: ColumnarDecoder::new(table),
            recon: SessionRecon::new(syms, recover),
            events: Vec::new(),
        }
    }

    /// Decodes `records` as one session, accumulates its
    /// reconstruction into `out` with the decode-level anomalies noted
    /// (strict decode never flags any), and returns the decoded events.
    pub fn bank_into(&mut self, records: &[RawRecord], out: &mut Reconstruction) -> &[Event] {
        self.decoder.reset();
        self.events.clear();
        if self.recon.recover {
            self.decoder.extend_recovering(records, &mut self.events);
        } else {
            self.decoder.extend(records, &mut self.events);
        }
        self.recon.session_into(&self.events, out);
        out.note(&self.decoder.anomalies());
        &self.events
    }
}

/// The index-ordered bank fold: banks arrive in any order, each
/// decoded once, through a [`BankRecon`] the caller lends
/// ([`push`](BankFold::push)).  The next expected index (from 0) folds
/// straight in; any other bank waits as its own part until the indices
/// before it arrive, and [`finish`](BankFold::finish) merges parts
/// stuck behind a hole in index order — bit-identical, by the monoid,
/// to folding the banks sorted by index as
/// [`Analyzer::run`](crate::Analyzer::run) does.
#[derive(Debug)]
pub struct BankFold {
    out: Reconstruction,
    next: u64,
    parts: BTreeMap<u64, Reconstruction>,
}

/// What one bank decodes into, lent out of a [`BankFold`]: the fold's
/// accumulator when the bank is the next expected one, else a fresh
/// part for bank `part`.
#[derive(Debug)]
pub(crate) struct Lent {
    part: Option<u64>,
    pub(crate) out: Reconstruction,
}

impl BankFold {
    /// An empty fold against `syms`, expecting bank 0 first.
    pub fn new(syms: &Symbols) -> Self {
        BankFold {
            out: Reconstruction::empty(syms.clone()),
            next: 0,
            parts: BTreeMap::new(),
        }
    }

    /// Whether bank `index` is already folded or waiting.
    pub fn holds(&self, index: u64) -> bool {
        index < self.next || self.parts.contains_key(&index)
    }

    /// Decodes and folds bank `index`, returning its events; `None`
    /// (nothing decoded) when the fold already holds that index.
    pub fn push<'b>(
        &mut self,
        bank: &'b mut BankRecon<'_>,
        index: u64,
        records: &[RawRecord],
    ) -> Option<&'b [Event]> {
        if self.holds(index) {
            return None;
        }
        let mut lent = self.lend(index);
        bank.bank_into(records, &mut lent.out);
        self.restore(lent);
        Some(&bank.events)
    }

    /// Lends out what bank `index` decodes into, so the caller can
    /// decode it without holding the fold.  The caller checks
    /// [`holds`](BankFold::holds) first and has at most one loan per
    /// index out; other banks may be lent and restored meanwhile.
    pub(crate) fn lend(&mut self, index: u64) -> Lent {
        let mut out = Reconstruction::empty(self.out.syms.clone());
        let part = (index != self.next).then_some(index);
        if part.is_none() {
            std::mem::swap(&mut out, &mut self.out);
        }
        Lent { part, out }
    }

    /// Folds a lent bank back in, with every part it releases.
    pub(crate) fn restore(&mut self, lent: Lent) {
        match lent.part {
            None => {
                self.out = lent.out;
                self.next += 1;
            }
            Some(index) => _ = self.parts.insert(index, lent.out),
        }
        while let Some(part) = self.parts.remove(&self.next) {
            self.out.merge(part);
            self.next += 1;
        }
    }

    /// The fold over every bank pushed.
    pub fn finish(mut self) -> Reconstruction {
        for part in std::mem::take(&mut self.parts).into_values() {
            self.out.merge(part);
        }
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::decode;
    use hwprof_profiler::RawRecord;
    use hwprof_tagfile::parse;

    fn rec(tag: u16, time: u32) -> RawRecord {
        RawRecord { tag, time }
    }

    // These tests pin the reconstruction semantics, which live behind
    // the facade.
    fn analyze(syms: &Symbols, events: &[Event]) -> Reconstruction {
        crate::Analyzer::new(syms).session(events).expect("ungated")
    }

    fn analyze_sessions(syms: &Symbols, sessions: &[Vec<Event>]) -> Reconstruction {
        crate::Analyzer::new(syms)
            .sessions(sessions)
            .expect("ungated")
    }

    const TF: &str = "a/100\nb/102\nc/104\nswtch/200!\nMARK/300=\n";

    #[test]
    fn simple_nesting() {
        let tf = parse(TF).unwrap();
        // a[0..100] calling b[20..50].
        let recs = [rec(100, 0), rec(102, 20), rec(103, 50), rec(101, 100)];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        let a = r.agg("a").unwrap();
        assert_eq!(a.calls, 1);
        assert_eq!(a.elapsed, 100);
        assert_eq!(a.net, 70);
        let b = r.agg("b").unwrap();
        assert_eq!(b.net, 30);
        assert_eq!(r.total_elapsed, 100);
        assert_eq!(r.idle, 0);
        assert_eq!(r.unmatched_exits, 0);
    }

    #[test]
    fn context_switch_splits_stacks() {
        let tf = parse(TF).unwrap();
        // Process P: a -> b -> swtch (switch out at t=30).
        // Process Q resumes: swtch exit, then exits c (its sleeper),
        // runs a bit, re-enters swtch at t=90; P resumes, exits b and a.
        let recs = [
            // P
            rec(100, 0),  // a enter
            rec(102, 10), // b enter
            rec(200, 30), // swtch enter (P out)
            // Q was suspended before capture inside c -> swtch; its
            // stack is unknown, so this resume is a birth.
            rec(201, 40),  // swtch exit (Q in) -- birth
            rec(105, 50),  // c exit (unmatched on fresh stack)
            rec(104, 60),  // c enter
            rec(105, 70),  // c exit
            rec(200, 90),  // swtch enter (Q out)
            rec(201, 95),  // swtch exit (P in)
            rec(103, 120), // b exit
            rec(101, 140), // a exit
        ];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        // P's frames survived the switch.
        let a = r.agg("a").unwrap();
        assert_eq!(a.calls, 1);
        assert_eq!(a.elapsed, 140);
        let b = r.agg("b").unwrap();
        assert_eq!(b.elapsed, 110); // 10..120, spanning the switch
                                    // Q's completed c call counted; the stray first exit tolerated.
        let c = r.agg("c").unwrap();
        assert_eq!(c.calls, 1);
        assert_eq!(c.net, 10);
        assert_eq!(r.unmatched_exits, 1);
        assert_eq!(r.births, 1);
        assert!(r.context_switches >= 2);
        // Idle: windows 30..40 and 90..95.
        assert_eq!(r.idle, 15);
        // b's net excludes the whole swtch interval 30..95.
        assert_eq!(b.net, 110 - 65);
    }

    #[test]
    fn interrupt_during_idle_is_not_idle() {
        let tf = parse(TF).unwrap();
        let recs = [
            rec(100, 0),  // a enter
            rec(200, 10), // swtch enter: idle starts
            rec(104, 20), // c enter (device interrupt in idle loop)
            rec(105, 45), // c exit
            rec(201, 50), // swtch exit, same process resumes
            rec(101, 60), // a exit
        ];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        // Window is 40 us, of which 25 was the interrupt.
        assert_eq!(r.idle, 15);
        assert_eq!(r.agg("c").unwrap().net, 25);
        assert_eq!(r.context_switches, 0, "same stack resumed");
        assert_eq!(r.swtch_calls, 1);
    }

    #[test]
    fn inline_tags_count_without_frames() {
        let tf = parse(TF).unwrap();
        let recs = [rec(100, 0), rec(300, 5), rec(300, 8), rec(101, 20)];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        assert_eq!(r.agg("MARK").unwrap().inline_hits, 2);
        assert_eq!(r.agg("a").unwrap().net, 20);
    }

    #[test]
    fn capture_starting_mid_call_is_tolerated() {
        let tf = parse(TF).unwrap();
        let recs = [rec(103, 5), rec(101, 10), rec(100, 20), rec(101, 30)];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        assert_eq!(r.unmatched_exits, 2);
        assert_eq!(r.agg("a").unwrap().calls, 1);
        assert_eq!(r.agg("a").unwrap().net, 10);
    }

    #[test]
    fn open_frames_at_end_are_not_counted() {
        let tf = parse(TF).unwrap();
        let recs = [rec(100, 0), rec(102, 10)];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        assert_eq!(r.agg("a").unwrap().calls, 0);
        assert_eq!(r.open_at_end, 2);
    }

    #[test]
    fn sessions_accumulate() {
        let tf = parse(TF).unwrap();
        let s1 = [rec(100, 0), rec(101, 50)];
        let s2 = [rec(100, 0), rec(101, 70)];
        let (syms, e1) = decode(&s1, &tf);
        let (_, e2) = decode(&s2, &tf);
        let r = analyze_sessions(&syms, &[e1, e2]);
        assert_eq!(r.agg("a").unwrap().calls, 2);
        assert_eq!(r.agg("a").unwrap().elapsed, 120);
        assert_eq!(r.total_elapsed, 120);
        assert_eq!(r.sessions, 2);
    }

    /// Three small banks and their in-order fold, the fold's oracle.
    fn fold_fixture() -> (hwprof_tagfile::TagFile, Vec<Vec<RawRecord>>, Reconstruction) {
        let tf = parse(TF).unwrap();
        let banks = vec![
            vec![rec(100, 0), rec(102, 10), rec(103, 30)],
            vec![rec(101, 50), rec(100, 60), rec(101, 90)],
            vec![rec(104, 100), rec(300, 105), rec(105, 120)],
        ];
        let sequential = crate::Analyzer::for_tagfile(&tf)
            .record_sessions(&banks)
            .expect("ungated");
        (tf, banks, sequential)
    }

    #[test]
    fn bank_fold_keeps_early_banks_aside_until_the_hole_fills() {
        let (tf, banks, sequential) = fold_fixture();
        let table = DenseTagTable::from_tagfile(&tf);
        let syms = Symbols::from_tagfile(&tf);
        let mut bank = BankRecon::new(&table, &syms, false);
        let mut fold = BankFold::new(&syms);
        for i in [2u64, 1] {
            let events = fold.push(&mut bank, i, &banks[i as usize]);
            assert_eq!(events.map(<[Event]>::len), Some(3), "bank {i} decoded");
            assert!(fold.holds(i));
        }
        assert_eq!(fold.parts.len(), 2, "banks 1 and 2 wait behind bank 0");
        assert!(!fold.holds(0));
        fold.push(&mut bank, 0, &banks[0]).expect("fresh index");
        assert!(fold.parts.is_empty(), "bank 0 released both parts");
        assert_eq!(fold.next, 3);
        assert_eq!(fold.finish(), sequential);
    }

    #[test]
    fn bank_fold_drains_parts_behind_a_permanent_hole_at_finish() {
        let (tf, banks, _) = fold_fixture();
        let table = DenseTagTable::from_tagfile(&tf);
        let syms = Symbols::from_tagfile(&tf);
        let mut bank = BankRecon::new(&table, &syms, false);
        let mut fold = BankFold::new(&syms);
        // Bank 0 never arrives: both later banks wait until finish,
        // which merges them in index order, not arrival order.
        fold.push(&mut bank, 2, &banks[2]).expect("fresh index");
        fold.push(&mut bank, 1, &banks[1]).expect("fresh index");
        assert_eq!(fold.parts.len(), 2, "banks 1 and 2 still wait");
        let want = crate::Analyzer::for_tagfile(&tf)
            .record_sessions(&banks[1..])
            .expect("ungated");
        assert_eq!(fold.finish(), want);
    }

    #[test]
    fn bank_fold_lends_the_next_bank_in_place_and_parks_the_rest() {
        let (tf, banks, sequential) = fold_fixture();
        let table = DenseTagTable::from_tagfile(&tf);
        let syms = Symbols::from_tagfile(&tf);
        let mut bank = BankRecon::new(&table, &syms, false);
        let mut fold = BankFold::new(&syms);
        let mut zero = fold.lend(0);
        // While bank 0 is out, banks 1 and 2 are lent as parts; bank 2
        // waits, and bank 1, back last, releases it.
        let mut one = fold.lend(1);
        let mut two = fold.lend(2);
        assert_eq!((zero.part, one.part, two.part), (None, Some(1), Some(2)));
        for (lent, i) in [(&mut zero, 0), (&mut one, 1), (&mut two, 2)] {
            bank.bank_into(&banks[i], &mut lent.out);
        }
        fold.restore(two);
        fold.restore(zero);
        assert_eq!((fold.next, fold.parts.len()), (1, 1));
        fold.restore(one);
        assert_eq!((fold.next, fold.parts.len()), (3, 0), "bank 1 released 2");
        assert_eq!(fold.finish(), sequential);
    }

    #[test]
    fn bank_fold_refuses_a_duplicate_index_without_decoding() {
        let (tf, banks, sequential) = fold_fixture();
        let table = DenseTagTable::from_tagfile(&tf);
        let syms = Symbols::from_tagfile(&tf);
        let mut bank = BankRecon::new(&table, &syms, false);
        let mut fold = BankFold::new(&syms);
        fold.push(&mut bank, 1, &banks[1]).expect("fresh index");
        // A waiting index and a folded one are both duplicates, even
        // with different records behind them.
        assert!(fold.push(&mut bank, 1, &banks[2]).is_none());
        fold.push(&mut bank, 0, &banks[0]).expect("fresh index");
        assert!(fold.push(&mut bank, 0, &banks[2]).is_none());
        fold.push(&mut bank, 2, &banks[2]).expect("fresh index");
        assert_eq!(fold.finish(), sequential);
    }

    #[test]
    fn unknown_tags_are_counted_not_fatal() {
        let tf = parse(TF).unwrap();
        let recs = [rec(100, 0), rec(999, 5), rec(101, 10)];
        let (syms, ev) = decode(&recs, &tf);
        let r = analyze(&syms, &ev);
        assert_eq!(r.unknown_tags, 1);
        assert_eq!(r.agg("a").unwrap().calls, 1);
    }
}
