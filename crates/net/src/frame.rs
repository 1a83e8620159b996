//! Length-prefixed, checksummed byte framing for stream transports.
//!
//! A TCP socket is a byte stream: message boundaries do not survive the
//! trip. This module restores them with the cheapest possible scheme — a
//! little-endian `u32` payload-length prefix, a payload, and a CRC32
//! trailer — and a **streaming decoder** that accepts arbitrary read
//! chunks: one byte at a time, torn across a length prefix, torn
//! mid-payload, or many frames per read all decode to the identical frame
//! sequence.
//!
//! The trailer is what turns "a corrupted byte on the wire" from a silent
//! garbage decode at the protocol codec into a typed, countable event at
//! the framing layer: every payload is followed by its IEEE CRC32, and a
//! mismatch is [`FrameError::BadChecksum`] — the connection is poisoned
//! from that point and should be reset, exactly like an oversized
//! declaration.
//!
//! Everything a [`FrameDecoder`] consumes is network-controlled input, so
//! there are no panics on malformed data: an absurd declared length is a
//! typed [`FrameError::Oversized`] (never an allocation), and a stream
//! that ends mid-prefix or mid-frame is reported by [`FrameDecoder::finish`]
//! as [`FrameError::TruncatedPrefix`] / [`FrameError::TruncatedFrame`].
//!
//! ```rust
//! use atp_net::frame::{write_frame, FrameDecoder};
//!
//! let mut wire = Vec::new();
//! write_frame(&mut wire, b"hello");
//! write_frame(&mut wire, b"world");
//!
//! let mut dec = FrameDecoder::new();
//! // Feed the stream one byte at a time — the frames still come out whole.
//! let mut frames = Vec::new();
//! for b in &wire {
//!     dec.push(std::slice::from_ref(b));
//!     while let Some(f) = dec.next_frame().unwrap() {
//!         frames.push(f);
//!     }
//! }
//! assert_eq!(frames, vec![b"hello".to_vec(), b"world".to_vec()]);
//! assert!(dec.finish().is_ok());
//! ```

/// Byte length of the `u32` length prefix.
pub const FRAME_HEADER_LEN: usize = 4;

/// Byte length of the CRC32 trailer following every payload.
pub const FRAME_TRAILER_LEN: usize = 4;

/// Default cap on a declared payload length. Generous for this protocol
/// family (the largest frame is a token carrying a bounded history window)
/// while keeping a hostile 4 GiB length prefix from ever allocating.
pub const MAX_FRAME_LEN: u32 = 1 << 24; // 16 MiB

/// IEEE CRC32 lookup tables (reflected polynomial 0xEDB88320) for
/// slicing-by-8, built at compile time. `CRC_TABLES[0]` is the classic
/// one-byte table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, so eight loads advance the checksum by eight bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xff) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// IEEE CRC32 of `bytes` (the checksum carried in every frame trailer).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = CRC_TABLES[7][(lo & 0xff) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xff) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xff) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][w[4] as usize]
            ^ CRC_TABLES[2][w[5] as usize]
            ^ CRC_TABLES[1][w[6] as usize]
            ^ CRC_TABLES[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Why a byte stream failed to frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// A length prefix declared a payload larger than the decoder's cap.
    Oversized {
        /// The declared payload length.
        declared: u32,
        /// The decoder's configured maximum.
        max: u32,
    },
    /// The stream ended inside a length prefix (`got < 4` bytes of it).
    TruncatedPrefix {
        /// Prefix bytes that did arrive.
        got: usize,
    },
    /// The stream ended inside a frame body or its trailer (mid-frame
    /// disconnect).
    TruncatedFrame {
        /// The declared payload length.
        declared: u32,
        /// Payload bytes that did arrive (capped at `declared`; a frame
        /// missing only trailer bytes reports `got == declared`).
        got: usize,
    },
    /// The payload's CRC32 did not match the trailer: a byte was corrupted
    /// in flight. The stream is poisoned from this frame on — reset the
    /// connection.
    BadChecksum {
        /// The checksum the trailer carried.
        expected: u32,
        /// The checksum the received payload hashes to.
        got: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { declared, max } => {
                write!(f, "declared frame length {declared} exceeds cap {max}")
            }
            FrameError::TruncatedPrefix { got } => {
                write!(f, "stream ended inside a length prefix ({got}/4 bytes)")
            }
            FrameError::TruncatedFrame { declared, got } => {
                write!(f, "stream ended inside a frame ({got}/{declared} bytes)")
            }
            FrameError::BadChecksum { expected, got } => {
                write!(f, "frame checksum mismatch (trailer {expected:#010x}, payload hashes to {got:#010x})")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends `payload` to `out` as one length-prefixed, CRC32-trailed frame.
///
/// Writers batch by calling this repeatedly on one buffer and flushing the
/// buffer to the socket in a single `write_all`.
///
/// # Panics
///
/// Panics if `payload` exceeds [`MAX_FRAME_LEN`] — frame size is
/// sender-controlled, so an oversized local frame is a programming error,
/// not a network condition.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_FRAME_LEN as usize,
        "frame payload {} exceeds MAX_FRAME_LEN {}",
        payload.len(),
        MAX_FRAME_LEN
    );
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Streaming frame reassembler: feed it whatever the socket returns, take
/// out whole frames.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted periodically so a long-lived
    /// connection does not grow its buffer without bound.
    start: usize,
    max_frame: u32,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

impl FrameDecoder {
    /// A decoder with the default [`MAX_FRAME_LEN`] cap.
    pub fn new() -> Self {
        FrameDecoder::with_max_frame(MAX_FRAME_LEN)
    }

    /// A decoder rejecting declared lengths above `max_frame`.
    pub fn with_max_frame(max_frame: u32) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            start: 0,
            max_frame,
        }
    }

    /// Appends raw stream bytes (any chunking, including single bytes).
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: everything before `start` is dead.
        if self.start > 0 && (self.start >= self.buf.len() || self.start > 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed bytes currently buffered.
    pub fn buffered_len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Unconsumed bytes currently buffered (alias of
    /// [`FrameDecoder::buffered_len`]).
    pub fn buffered(&self) -> usize {
        self.buffered_len()
    }

    /// Takes the next complete frame, if one has fully arrived and its
    /// checksum verifies.
    ///
    /// `Ok(None)` means "need more bytes"; call [`FrameDecoder::push`] and
    /// retry. An [`FrameError::Oversized`] declaration or a
    /// [`FrameError::BadChecksum`] is permanent: the stream is unframeable
    /// (or corrupt) from that point and should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let avail = self.buf.len() - self.start;
        if avail < FRAME_HEADER_LEN {
            return Ok(None);
        }
        let declared = u32::from_le_bytes(
            self.buf[self.start..self.start + FRAME_HEADER_LEN]
                .try_into()
                .expect("4-byte slice"),
        );
        if declared > self.max_frame {
            return Err(FrameError::Oversized {
                declared,
                max: self.max_frame,
            });
        }
        let need = FRAME_HEADER_LEN + declared as usize + FRAME_TRAILER_LEN;
        if avail < need {
            return Ok(None);
        }
        let body_start = self.start + FRAME_HEADER_LEN;
        let body_end = body_start + declared as usize;
        let expected = u32::from_le_bytes(
            self.buf[body_end..body_end + FRAME_TRAILER_LEN]
                .try_into()
                .expect("4-byte slice"),
        );
        let got = crc32(&self.buf[body_start..body_end]);
        if got != expected {
            return Err(FrameError::BadChecksum { expected, got });
        }
        let frame = self.buf[body_start..body_end].to_vec();
        self.start += need;
        Ok(Some(frame))
    }

    /// End-of-stream check: a cleanly framed stream ends exactly on a
    /// frame boundary. Leftover bytes mean the peer disconnected mid-prefix
    /// or mid-frame.
    pub fn finish(&self) -> Result<(), FrameError> {
        let avail = self.buf.len() - self.start;
        if avail == 0 {
            return Ok(());
        }
        if avail < FRAME_HEADER_LEN {
            return Err(FrameError::TruncatedPrefix { got: avail });
        }
        let declared = u32::from_le_bytes(
            self.buf[self.start..self.start + FRAME_HEADER_LEN]
                .try_into()
                .expect("4-byte slice"),
        );
        Err(FrameError::TruncatedFrame {
            declared,
            got: (avail - FRAME_HEADER_LEN).min(declared as usize),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames_of(dec: &mut FrameDecoder) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(f) = dec.next_frame().expect("well-formed") {
            out.push(f);
        }
        out
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The one-table, byte-at-a-time loop `crc32` used to be: the reference
    /// the sliced version must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop_at_every_length_and_offset() {
        use atp_util::rng::{Rng, RngCore, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xC4C32);
        for case in 0..2000usize {
            let (offset, len) = (case % 8, rng.gen_range(0..=4099usize));
            let mut buf = vec![0u8; offset + len];
            rng.fill_bytes(&mut buf);
            let bytes = &buf[offset..];
            assert_eq!(
                crc32(bytes),
                crc32_bytewise(bytes),
                "case {case}: {offset}+{len}"
            );
        }
        for len in 0..64 {
            let bytes = vec![0xA5u8; len];
            assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "len {len}");
        }
    }

    #[test]
    fn whole_stream_decodes_in_one_push() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"");
        write_frame(&mut wire, b"a");
        write_frame(&mut wire, &[7u8; 300]);
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        let frames = frames_of(&mut dec);
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0], b"");
        assert_eq!(frames[1], b"a");
        assert_eq!(frames[2], vec![7u8; 300]);
        assert!(dec.finish().is_ok());
        assert_eq!(dec.buffered_len(), 0);
    }

    #[test]
    fn single_byte_reads_reassemble_exactly() {
        let mut wire = Vec::new();
        for i in 0..5u8 {
            write_frame(&mut wire, &vec![i; i as usize * 3]);
        }
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for b in &wire {
            dec.push(std::slice::from_ref(b));
            frames.extend(frames_of(&mut dec));
        }
        assert_eq!(frames.len(), 5);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(*f, vec![i as u8; i * 3]);
        }
        assert!(dec.finish().is_ok());
    }

    #[test]
    fn oversized_declaration_is_typed_error_not_allocation() {
        let mut dec = FrameDecoder::with_max_frame(16);
        dec.push(&17u32.to_le_bytes());
        match dec.next_frame() {
            Err(FrameError::Oversized { declared: 17, max: 16 }) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
        // u32::MAX with the default cap: still a typed error.
        let mut dec = FrameDecoder::new();
        dec.push(&u32::MAX.to_le_bytes());
        assert!(matches!(dec.next_frame(), Err(FrameError::Oversized { .. })));
    }

    #[test]
    fn corrupted_byte_is_a_bad_checksum_not_a_garbage_frame() {
        let payload = [9u8; 32];
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload);
        // Flip one byte at every payload offset: each must surface as a
        // typed checksum mismatch, never as a successfully decoded frame.
        for off in 0..payload.len() {
            let mut corrupt = wire.clone();
            corrupt[FRAME_HEADER_LEN + off] ^= 0x40;
            let mut dec = FrameDecoder::new();
            dec.push(&corrupt);
            match dec.next_frame() {
                Err(FrameError::BadChecksum { expected, got }) => assert_ne!(expected, got),
                other => panic!("offset {off}: expected BadChecksum, got {other:?}"),
            }
            // Poison is sticky: the stream stays corrupt.
            assert!(matches!(dec.next_frame(), Err(FrameError::BadChecksum { .. })));
        }
        // A corrupted trailer byte is equally detected.
        let mut corrupt = wire.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0x01;
        let mut dec = FrameDecoder::new();
        dec.push(&corrupt);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadChecksum { .. })));
    }

    #[test]
    fn eof_mid_prefix_and_mid_frame_are_distinguished() {
        let mut dec = FrameDecoder::new();
        dec.push(&[1, 0]);
        assert_eq!(dec.next_frame(), Ok(None));
        assert_eq!(dec.finish(), Err(FrameError::TruncatedPrefix { got: 2 }));

        let mut dec = FrameDecoder::new();
        let mut wire = Vec::new();
        write_frame(&mut wire, &[9u8; 10]);
        // Cut inside the payload: 4 (prefix) + 10 (payload) + 4 (crc) = 18
        // on the wire; stopping 7 short leaves 7 payload bytes.
        dec.push(&wire[..wire.len() - 7]);
        assert_eq!(dec.next_frame(), Ok(None));
        assert_eq!(
            dec.finish(),
            Err(FrameError::TruncatedFrame { declared: 10, got: 7 })
        );

        // Cut inside the trailer: the payload arrived whole but the frame
        // is still incomplete.
        let mut dec = FrameDecoder::new();
        dec.push(&wire[..wire.len() - 2]);
        assert_eq!(dec.next_frame(), Ok(None));
        assert_eq!(
            dec.finish(),
            Err(FrameError::TruncatedFrame { declared: 10, got: 10 })
        );
    }

    #[test]
    fn compaction_keeps_buffer_bounded() {
        let mut dec = FrameDecoder::new();
        let mut wire = Vec::new();
        write_frame(&mut wire, &[3u8; 2048]);
        for _ in 0..100 {
            dec.push(&wire);
            assert_eq!(frames_of(&mut dec).len(), 1);
        }
        assert!(dec.buf.len() < 3 * wire.len(), "buffer grew without bound");
    }

    #[test]
    fn errors_display() {
        assert!(FrameError::Oversized { declared: 9, max: 4 }
            .to_string()
            .contains("exceeds cap"));
        assert!(FrameError::TruncatedPrefix { got: 1 }.to_string().contains("prefix"));
        assert!(FrameError::TruncatedFrame { declared: 8, got: 2 }
            .to_string()
            .contains("2/8"));
        assert!(FrameError::BadChecksum { expected: 1, got: 2 }
            .to_string()
            .contains("checksum mismatch"));
    }
}
