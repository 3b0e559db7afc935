//! The Profiler board.
//!
//! From the paper: "The Profiler consists of a block of RAM which is 40
//! bits wide, an incrementing address counter, a free running counter
//! clocking at 1 Megahertz, and some control logic.  The RAM is split into
//! two sections, one holding an identification code (event tag) which is
//! 16 bits in width, and the other 24 bit wide section connected to the
//! microsecond clock.  When an event tag is presented to the Profiler, it
//! stores this code along with the microsecond counter value into RAM.
//! The RAM address is automatically incremented every time an event is
//! stored [...] The list is currently 16384 events long [...] The
//! microsecond timer is 24 bits long, allowing a maximum time of 16
//! seconds between events before the time is wrapped around and
//! information is lost."
//!
//! The board model here is bit-exact on those properties: tag width, time
//! width and wrap, capacity, the arm switch, the two LEDs (active,
//! overflow), and the battery-backed-RAM upload path (a raw 5-byte record
//! stream).  [`Profiler`] is a cheaply cloneable handle so the simulated
//! machine can own one clone as its EPROM-socket tap while the experiment
//! harness keeps another to flip the switch and pull the data.

mod board;
mod faults;
mod health;
mod record;
mod recorder;
mod supervisor;
mod zif;

pub use board::{BankSink, BoardConfig, BoardHealth, Leds, Profiler};
pub use faults::{FaultInjector, FaultSpec, FaultySink, InjectedFaults, SPURIOUS_TAG_BASE};
pub use health::{FleetHealthReport, HealthReport};
pub use record::{parse_raw, parse_raw_lossy, serialize_raw, RawRecord, RecordError, TIME_MASK};
pub use recorder::{RecorderConfig, RecorderConfigBuilder, RecorderConfigError, SessionSink};
pub use supervisor::{
    CaptureSupervisor, Coverage, FlakyTransport, Gap, GapCause, MemoryTransport, RetryPolicy,
    SupervisedRun, SupervisedSession, SupervisorPolicy, TagMask, TagMaskLevel, Transport,
    TransportError,
};
pub use zif::{ram_chip_view, reassemble, RamChip};
