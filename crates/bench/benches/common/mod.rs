//! The synthetic delivered-session stream the recorder and sentinel
//! benches share.

use hwprof_profiler::{RawRecord, SupervisedSession, TagMaskLevel};
use hwprof_tagfile::{TagFile, TagKind};

/// Sessions in the stream.
pub const SESSIONS: u64 = 64;
/// Records per session.
pub const SESSION_RECORDS: usize = 2048;
/// The recorder window both benches use.
pub const WINDOW_US: u64 = 1_000;

/// A continuous run's worth of synthetic delivered sessions: nested
/// calls with periodic context switches, each session picking up where
/// the previous one ended so the ring tiles one long timeline.
pub fn synthetic_sessions() -> (TagFile, Vec<SupervisedSession>) {
    let mut tf = TagFile::new(500);
    let fns: Vec<u16> = (0..40)
        .map(|i| {
            tf.assign(&format!("fn{i}"), TagKind::Function)
                .expect("fresh file")
        })
        .collect();
    let swtch = tf.assign("swtch", TagKind::ContextSwitch).expect("fresh");
    let mut sessions = Vec::new();
    let mut start = 1_000u64;
    for index in 0..SESSIONS {
        let mut records = Vec::with_capacity(SESSION_RECORDS);
        let mut t = 0u64;
        let mut i = index as usize;
        while records.len() + 8 < SESSION_RECORDS {
            let a = fns[i % fns.len()];
            let b = fns[(i * 7 + 3) % fns.len()];
            for tag in [a, b, b + 1] {
                t += 7;
                records.push(RawRecord::latch(tag, t));
            }
            if i % 11 == 10 {
                t += 9;
                records.push(RawRecord::latch(swtch, t));
                t += 25;
                records.push(RawRecord::latch(swtch + 1, t));
            }
            t += 4;
            records.push(RawRecord::latch(a + 1, t));
            i += 1;
        }
        let end = start + t + 5;
        sessions.push(SupervisedSession {
            index,
            start_us: start,
            end_us: end,
            level: TagMaskLevel::All,
            records,
        });
        start = end;
    }
    (tf, sessions)
}
