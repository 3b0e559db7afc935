//! The board proper: counters, capture RAM, control logic, LEDs.

use std::sync::Arc;

use hwprof_machine::EpromTap;
use hwprof_telemetry::{Counter, Gauge, Registry, SpanLog, SpanName, SpanTrack};
use parking_lot::Mutex;

use crate::record::RawRecord;

/// Hardware build options.
///
/// The stock board stores 16384 events of (16-bit tag, 24-bit time at
/// 1 MHz).  The paper's future-work section considers more RAM and "a
/// wider RAM module for accepting more clock data bits"; both are plain
/// parameters here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoardConfig {
    /// Capture RAM depth in events.
    pub capacity: usize,
    /// Time field width in bits (24 on the stock board).
    pub time_bits: u32,
}

impl Default for BoardConfig {
    fn default() -> Self {
        BoardConfig {
            capacity: 16384,
            time_bits: 24,
        }
    }
}

impl BoardConfig {
    /// The future-work variant: 64 K events with a 32-bit timestamp.
    pub fn wide() -> Self {
        BoardConfig {
            capacity: 65536,
            time_bits: 32,
        }
    }

    fn time_mask(&self) -> u64 {
        if self.time_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << self.time_bits) - 1
        }
    }
}

/// Where drained capture-RAM banks go while the board stays armed.
///
/// Drain-while-armed mode models the paper's repeated re-arm runs
/// ("the operator swapped battery-backed RAMs between runs") as a
/// double-buffered capture RAM: when one bank fills, it is handed to
/// the sink whole while the other bank keeps recording.  Each bank is
/// one capture session to the analysis software.
pub trait BankSink: Send {
    /// Accepts a full bank.  Returning `false` means the sink could not
    /// take it (the operator was not ready with an empty RAM); the
    /// board then overflows exactly like a full single-bank capture.
    fn bank(&mut self, records: Vec<RawRecord>) -> bool;
}

impl BankSink for std::sync::mpsc::Sender<Vec<RawRecord>> {
    fn bank(&mut self, records: Vec<RawRecord>) -> bool {
        self.send(records).is_ok()
    }
}

impl BankSink for std::sync::mpsc::SyncSender<Vec<RawRecord>> {
    fn bank(&mut self, records: Vec<RawRecord>) -> bool {
        // A full channel is the hardware analogue of no empty RAM on
        // hand: refuse rather than stall the machine being profiled.
        self.try_send(records).is_ok()
    }
}

/// A cheap point-in-time snapshot of the board: fill level, missed
/// triggers, and control state, read under one lock acquisition.
///
/// This is what a supervising operator can observe without disturbing
/// the capture — the LEDs plus the counters the SmartSocket exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoardHealth {
    /// Events currently in the capture RAM.
    pub stored: usize,
    /// Configured RAM depth in events.
    pub capacity: usize,
    /// Trigger reads that arrived while the board was not storing
    /// (switch off or overflowed).
    pub missed_while_off: u64,
    /// The arm switch position.
    pub armed: bool,
    /// The overflow LED.
    pub overflowed: bool,
    /// Banks handed to a drain sink so far.
    pub banks_drained: u64,
}

impl BoardHealth {
    /// Fill level as a fraction of capacity.
    pub fn fill(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.stored as f64 / self.capacity as f64
        }
    }
}

/// The two indicator LEDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Leds {
    /// "the Profiler is active and storing data".
    pub active: bool,
    /// "the address counter has overflowed and the Profiler has
    /// automatically ceased storing data".
    pub overflow: bool,
}

/// Telemetry handles for the board's hot path — a handful of relaxed
/// atomics, registered once; inert (no atomics touched) until
/// [`Profiler::set_telemetry`].
#[derive(Default)]
struct BoardMetrics {
    triggers: Counter,
    missed: Counter,
    overflows: Counter,
    banks_drained: Counter,
    fill_pct: Gauge,
}

impl BoardMetrics {
    fn new(reg: &Registry) -> Self {
        BoardMetrics {
            triggers: reg.counter("board.triggers"),
            missed: reg.counter("board.missed"),
            overflows: reg.counter("board.overflows"),
            banks_drained: reg.counter("board.banks_drained"),
            fill_pct: reg.gauge("board.fill_pct"),
        }
    }
}

struct BoardState {
    config: BoardConfig,
    ram: Vec<RawRecord>,
    armed: bool,
    overflowed: bool,
    /// Total trigger reads seen while not storing (armed off or
    /// overflowed); useful to quantify what a capture missed.
    missed: u64,
    /// Drain-while-armed sink; `None` is the stock single-bank board.
    drain: Option<Box<dyn BankSink>>,
    /// Banks handed to the sink so far (including the final flush).
    banks_drained: u64,
    /// Live self-metrics; inert unless telemetry is set.
    metrics: BoardMetrics,
    /// Span journal; bank swaps and overflows drop instants here.
    /// Inert unless a journal is set, like `metrics`.
    journal: SpanLog,
}

impl BoardState {
    /// Events one bank holds: half the RAM in drain mode (double
    /// buffer), all of it on the stock board.
    fn bank_capacity(&self) -> usize {
        if self.drain.is_some() {
            (self.config.capacity / 2).max(1)
        } else {
            self.config.capacity
        }
    }

    /// One trigger read at the socket: store the record, swap banks, or
    /// count the miss.  The body behind both [`EpromTap`] for
    /// [`Profiler`] and the supervisor's [`Profiler::trigger`].
    fn on_read(&mut self, offset: u16, now_us: u64) {
        if !self.armed || self.overflowed {
            self.missed += 1;
            self.metrics.missed.inc();
            return;
        }
        if self.ram.len() >= self.bank_capacity() {
            match self.drain.as_mut() {
                Some(sink) => {
                    // Bank swap: the full bank goes to the sink, the
                    // other bank keeps recording the same time stream.
                    let cap = (self.config.capacity / 2).max(1);
                    let full = std::mem::replace(&mut self.ram, Vec::with_capacity(cap));
                    self.banks_drained += 1;
                    self.metrics.banks_drained.inc();
                    self.journal.instant(
                        SpanTrack::Board,
                        SpanName::Drain,
                        now_us,
                        self.banks_drained - 1,
                        full.len() as u64,
                    );
                    if !sink.bank(full) {
                        // No empty RAM ready: overflow, stop storing.
                        self.overflow(now_us);
                        return;
                    }
                }
                None => {
                    // Address counter overflow: stop storing, light the
                    // LED.
                    self.overflow(now_us);
                    return;
                }
            }
        }
        let mask = self.config.time_mask();
        self.ram.push(RawRecord {
            tag: offset,
            time: (now_us & mask) as u32,
        });
        self.metrics.triggers.inc();
        self.metrics
            .fill_pct
            .set_with(|| (self.ram.len() * 100 / self.bank_capacity().max(1)) as u64);
    }

    /// The overflow LED lights: storing stops and this trigger is missed.
    fn overflow(&mut self, now_us: u64) {
        self.overflowed = true;
        self.armed = false;
        self.missed += 1;
        self.metrics.overflows.inc();
        self.metrics.missed.inc();
        self.journal
            .instant(SpanTrack::Board, SpanName::Overflow, now_us, 0, 0);
    }

    fn health(&self) -> BoardHealth {
        BoardHealth {
            stored: self.ram.len(),
            capacity: self.config.capacity,
            missed_while_off: self.missed,
            armed: self.armed,
            overflowed: self.overflowed,
            banks_drained: self.banks_drained,
        }
    }
}

/// A handle to the Profiler board.
///
/// Clones share the same hardware: the machine holds one clone as its
/// EPROM-socket tap; the operator holds another to flip the switch and
/// carry the RAMs to the analysis host.
///
/// # Examples
///
/// ```
/// use hwprof_profiler::Profiler;
/// use hwprof_machine::EpromTap;
///
/// let mut board = Profiler::stock();
/// board.set_switch(true);
/// board.on_read(502, 1000);
/// board.on_read(503, 1042);
/// let records = board.records();
/// assert_eq!(records.len(), 2);
/// assert_eq!(records[1].time - records[0].time, 42);
/// ```
#[derive(Clone)]
pub struct Profiler {
    state: Arc<Mutex<BoardState>>,
}

impl Profiler {
    /// Builds a board with the given configuration, switch off.
    pub fn new(config: BoardConfig) -> Self {
        Profiler {
            state: Arc::new(Mutex::new(BoardState {
                config,
                ram: Vec::with_capacity(config.capacity),
                armed: false,
                overflowed: false,
                missed: 0,
                drain: None,
                banks_drained: 0,
                metrics: BoardMetrics::default(),
                journal: SpanLog::default(),
            })),
        }
    }

    /// The stock 16384-event, 24-bit board.
    pub fn stock() -> Self {
        Self::new(BoardConfig::default())
    }

    /// Flips the recording switch.
    ///
    /// Switching on clears overflow and begins storing at the current RAM
    /// address (the RAMs are *not* erased — the operator clears them
    /// explicitly with [`Profiler::clear`], since they are battery
    /// backed).
    pub fn set_switch(&self, on: bool) {
        let mut s = self.state.lock();
        s.armed = on;
        if on {
            s.overflowed = false;
        }
    }

    /// Erases the capture RAM and resets the address counter.
    pub fn clear(&self) {
        let mut s = self.state.lock();
        s.ram.clear();
        s.overflowed = false;
        s.missed = 0;
    }

    /// The LED pair.
    pub fn leds(&self) -> Leds {
        let s = self.state.lock();
        Leds {
            active: s.armed && !s.overflowed,
            overflow: s.overflowed,
        }
    }

    /// Copies the stored records out (the SmartSocket transfer).
    pub fn records(&self) -> Vec<RawRecord> {
        self.state.lock().ram.clone()
    }

    /// Trigger reads that arrived while the board was not storing.
    pub fn missed(&self) -> u64 {
        self.state.lock().missed
    }

    /// Snapshots fill level, missed count and control state in one lock
    /// acquisition.
    pub fn health(&self) -> BoardHealth {
        self.state.lock().health()
    }

    /// One trigger read followed by the health snapshot, under a single
    /// lock acquisition — the supervisor's per-trigger step.
    pub(crate) fn trigger(&self, offset: u16, now_us: u64) -> BoardHealth {
        let mut s = self.state.lock();
        s.on_read(offset, now_us);
        s.health()
    }

    /// Switches on drain-while-armed mode: the capture RAM becomes a
    /// double buffer and every full half-RAM bank is handed to `sink`
    /// while the other half keeps recording, so captures are no longer
    /// bounded by the 16384-event RAM.
    pub fn set_drain(&self, sink: Box<dyn BankSink>) {
        let mut s = self.state.lock();
        s.drain = Some(sink);
    }

    /// Banks handed to the drain sink so far.
    pub fn banks_drained(&self) -> u64 {
        self.state.lock().banks_drained
    }

    /// Hands the current partial bank to the drain sink (the operator
    /// pulling the last RAM after the run).  Returns `false` if no
    /// drain is configured or the sink refused the bank.
    pub fn flush_drain(&self) -> bool {
        let mut s = self.state.lock();
        let st = &mut *s;
        match st.drain.as_mut() {
            Some(sink) => {
                if st.ram.is_empty() {
                    return true;
                }
                st.banks_drained += 1;
                st.metrics.banks_drained.inc();
                st.metrics.fill_pct.set(0);
                sink.bank(std::mem::take(&mut st.ram))
            }
            None => false,
        }
    }

    /// Removes the drain sink and returns the board to stock
    /// single-bank behaviour.  Dropping the returned sink is what closes
    /// a streaming pipeline's feed, letting its workers finish.
    pub fn clear_drain(&self) -> Option<Box<dyn BankSink>> {
        self.state.lock().drain.take()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.state.lock().config.capacity
    }

    /// Publishes live self-metrics into `reg`: per-trigger counts, fill
    /// level, overflow and drained-bank counters under the `board.`
    /// prefix.  An inert `reg` (the default) leaves the hot path
    /// touching no atomics.
    pub fn set_telemetry(&self, reg: &Registry) {
        self.state.lock().metrics = BoardMetrics::new(reg);
    }

    /// Attaches a span journal: bank swaps record a `drain` instant
    /// (`id` = bank ordinal, `arg` = events in the bank) and overflow
    /// an `overflow` instant, both on the board track at trigger time.
    /// Purely observational — the capture stream is bit-identical with
    /// or without it, and an inert `log` (the default) records nothing.
    pub fn set_span_log(&self, log: &SpanLog) {
        self.state.lock().journal = log.clone();
    }
}

impl EpromTap for Profiler {
    fn on_read(&mut self, offset: u16, now_us: u64) {
        self.state.lock().on_read(offset, now_us);
    }

    fn stored(&self) -> usize {
        self.state.lock().ram.len()
    }

    fn overflowed(&self) -> bool {
        self.state.lock().overflowed
    }
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.state.lock();
        f.debug_struct("Profiler")
            .field("stored", &s.ram.len())
            .field("capacity", &s.config.capacity)
            .field("armed", &s.armed)
            .field("overflowed", &s.overflowed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hwprof_machine::EpromTap;

    #[test]
    fn switch_gates_recording() {
        let mut b = Profiler::stock();
        b.on_read(10, 5);
        assert_eq!(b.stored(), 0);
        assert_eq!(b.missed(), 1);
        b.set_switch(true);
        b.on_read(10, 6);
        assert_eq!(b.stored(), 1);
        b.set_switch(false);
        b.on_read(10, 7);
        assert_eq!(b.stored(), 1);
    }

    #[test]
    fn overflow_stops_storage_and_lights_led() {
        let mut b = Profiler::new(BoardConfig {
            capacity: 4,
            time_bits: 24,
        });
        b.set_switch(true);
        for i in 0..10u64 {
            b.on_read(i as u16, i);
        }
        assert_eq!(b.stored(), 4);
        assert!(b.overflowed());
        let leds = b.leds();
        assert!(!leds.active);
        assert!(leds.overflow);
        assert_eq!(b.missed(), 6);
        // Re-arming resumes (operator emptied it first in practice).
        b.clear();
        b.set_switch(true);
        b.on_read(1, 100);
        assert_eq!(b.stored(), 1);
        assert!(b.leds().active);
    }

    #[test]
    fn time_wraps_at_24_bits() {
        let mut b = Profiler::stock();
        b.set_switch(true);
        b.on_read(1, (1 << 24) - 1);
        b.on_read(2, 1 << 24);
        b.on_read(3, (1 << 24) + 10);
        let r = b.records();
        assert_eq!(r[0].time, 0xFF_FFFF);
        assert_eq!(r[1].time, 0);
        assert_eq!(r[2].time, 10);
    }

    #[test]
    fn clones_share_hardware() {
        let board = Profiler::stock();
        let mut machine_side = board.clone();
        board.set_switch(true);
        machine_side.on_read(502, 9);
        assert_eq!(board.stored(), 1);
    }

    #[test]
    fn wide_board_keeps_32_bits() {
        let mut b = Profiler::new(BoardConfig::wide());
        b.set_switch(true);
        b.on_read(1, 0xFFFF_FFFF);
        assert_eq!(b.records()[0].time, 0xFFFF_FFFF);
    }

    #[test]
    fn drain_mode_swaps_banks_without_overflow() {
        let b = Profiler::new(BoardConfig {
            capacity: 8,
            time_bits: 24,
        });
        let (tx, rx) = std::sync::mpsc::channel();
        b.set_drain(Box::new(tx));
        b.set_switch(true);
        let mut tap = b.clone();
        // 23 events through a 2x4-event double buffer.
        for i in 0..23u64 {
            tap.on_read(i as u16, i * 10);
        }
        assert!(!b.overflowed(), "drain mode never fills");
        assert_eq!(b.missed(), 0);
        // 5 full banks drained, 3 events still in the recording bank.
        assert_eq!(b.banks_drained(), 5);
        assert_eq!(b.stored(), 3);
        assert!(b.flush_drain());
        assert_eq!(b.banks_drained(), 6);
        assert_eq!(b.stored(), 0);
        let banks: Vec<Vec<RawRecord>> = rx.try_iter().collect();
        assert_eq!(banks.len(), 6);
        let all: Vec<RawRecord> = banks.concat();
        assert_eq!(all.len(), 23);
        // The concatenated banks are the uninterrupted event stream.
        for (i, r) in all.iter().enumerate() {
            assert_eq!(r.tag, i as u16);
            assert_eq!(r.time, (i as u32) * 10);
        }
    }

    #[test]
    fn refused_bank_overflows_the_board() {
        let b = Profiler::new(BoardConfig {
            capacity: 4,
            time_bits: 24,
        });
        // Bound 1: the second full bank finds the channel occupied.
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        b.set_drain(Box::new(tx));
        b.set_switch(true);
        let mut tap = b.clone();
        for i in 0..10u64 {
            tap.on_read(i as u16, i);
        }
        assert!(b.overflowed(), "sink full means no empty RAM ready");
        assert!(b.leds().overflow);
        assert!(b.missed() > 0);
        drop(rx);
    }

    #[test]
    fn flush_without_drain_reports_false() {
        let mut b = Profiler::stock();
        b.set_switch(true);
        b.on_read(1, 5);
        assert!(!b.flush_drain());
        assert_eq!(b.stored(), 1, "stock board keeps its RAM");
    }

    #[test]
    fn health_snapshot_tracks_fill_and_misses() {
        let mut b = Profiler::new(BoardConfig {
            capacity: 4,
            time_bits: 24,
        });
        let h = b.health();
        assert_eq!(h.stored, 0);
        assert_eq!(h.capacity, 4);
        assert!(!h.armed);
        assert!((h.fill() - 0.0).abs() < f64::EPSILON);
        b.on_read(1, 5); // switch off: missed
        b.set_switch(true);
        b.on_read(1, 6);
        b.on_read(2, 7);
        let h = b.health();
        assert_eq!(h.stored, 2);
        assert_eq!(h.missed_while_off, 1);
        assert!(h.armed);
        assert!(!h.overflowed);
        assert!((h.fill() - 0.5).abs() < f64::EPSILON);
        for i in 0..5u64 {
            b.on_read(3, 10 + i);
        }
        let h = b.health();
        assert!(h.overflowed);
        assert_eq!(h.stored, 4);
        assert!(h.missed_while_off > 1);
    }
}
