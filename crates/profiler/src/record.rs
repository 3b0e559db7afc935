//! The raw capture record and its RAM image.
//!
//! One stored event is 40 bits: a 16-bit tag and a 24-bit microsecond
//! count.  The upload path (physically carrying the battery-backed RAMs to
//! another host in the paper) is modelled as a byte stream of 5-byte
//! little-endian records: tag low, tag high, time low, time mid, time
//! high.

/// Mask of the 24-bit microsecond counter.
pub const TIME_MASK: u32 = 0x00FF_FFFF;

/// One 40-bit capture RAM word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawRecord {
    /// The 16-bit event tag (the EPROM address lines).
    pub tag: u16,
    /// The latched 24-bit 1 MHz counter value.
    pub time: u32,
}

impl RawRecord {
    /// Builds a record, truncating `time_us` to the counter width exactly
    /// as the hardware latch does.
    pub fn latch(tag: u16, time_us: u64) -> Self {
        RawRecord {
            tag,
            time: (time_us as u32) & TIME_MASK,
        }
    }
}

/// Errors decoding an uploaded RAM image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The byte stream length is not a multiple of 5.
    TruncatedStream {
        /// Total length seen.
        len: usize,
    },
}

impl std::fmt::Display for RecordError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecordError::TruncatedStream { len } => {
                write!(f, "raw stream length {len} is not a multiple of 5")
            }
        }
    }
}

impl std::error::Error for RecordError {}

/// Serializes records to the 5-byte-per-event upload format.
pub fn serialize_raw(records: &[RawRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * 5);
    for r in records {
        out.extend_from_slice(&r.tag.to_le_bytes());
        let t = r.time & TIME_MASK;
        out.push((t & 0xff) as u8);
        out.push(((t >> 8) & 0xff) as u8);
        out.push(((t >> 16) & 0xff) as u8);
    }
    out
}

/// One 5-byte upload record.
fn record(c: &[u8]) -> RawRecord {
    RawRecord {
        tag: u16::from_le_bytes([c[0], c[1]]),
        time: u32::from_le_bytes([c[2], c[3], c[4], 0]),
    }
}

/// Parses an uploaded RAM image back into records.
pub fn parse_raw(bytes: &[u8]) -> Result<Vec<RawRecord>, RecordError> {
    if !bytes.len().is_multiple_of(5) {
        return Err(RecordError::TruncatedStream { len: bytes.len() });
    }
    Ok(bytes.chunks_exact(5).map(record).collect())
}

/// Parses an uploaded RAM image, tolerating a truncated tail: every
/// complete 5-byte record decodes, and the count of trailing bytes that
/// never completed a record is returned alongside (0 for a clean
/// upload, 1-4 for one cut mid-record).
pub fn parse_raw_lossy(bytes: &[u8]) -> (Vec<RawRecord>, usize) {
    (bytes.chunks_exact(5).map(record).collect(), bytes.len() % 5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_truncates_to_24_bits() {
        let r = RawRecord::latch(502, 0x12_3456_789A);
        assert_eq!(r.time, 0x0056_789A & TIME_MASK);
        // Exactly at the wrap boundary.
        assert_eq!(RawRecord::latch(0, 1 << 24).time, 0);
        assert_eq!(RawRecord::latch(0, (1 << 24) - 1).time, TIME_MASK);
    }

    #[test]
    fn serialize_parse_roundtrip() {
        let recs = vec![
            RawRecord::latch(502, 0),
            RawRecord::latch(503, 16_777_215),
            RawRecord::latch(65535, 123_456),
        ];
        let bytes = serialize_raw(&recs);
        assert_eq!(bytes.len(), 15);
        assert_eq!(parse_raw(&bytes).unwrap(), recs);
    }

    #[test]
    fn lossy_parse_recovers_complete_records() {
        let recs = vec![RawRecord::latch(502, 10), RawRecord::latch(503, 20)];
        let mut bytes = serialize_raw(&recs);
        assert_eq!(parse_raw_lossy(&bytes), (recs.clone(), 0));
        bytes.truncate(bytes.len() - 2); // cut the last record short
        assert_eq!(parse_raw_lossy(&bytes), (recs[..1].to_vec(), 3));
        assert_eq!(parse_raw_lossy(&[]), (vec![], 0));
    }

    #[test]
    fn truncated_stream_rejected() {
        assert!(matches!(
            parse_raw(&[1, 2, 3]),
            Err(RecordError::TruncatedStream { len: 3 })
        ));
        assert!(parse_raw(&[]).unwrap().is_empty());
    }
}
