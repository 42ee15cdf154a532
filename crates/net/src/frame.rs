//! Length-prefixed frame transport: the byte layer under the codec.
//!
//! On the socket, every frame is
//!
//! ```text
//! frame := payload_len:u32be payload_len bytes of payload
//! ```
//!
//! where the payload is a [`codec`](crate::codec) bit stream beginning
//! with the version byte. The length prefix is what lets a reader slice
//! frames off a TCP stream without understanding their contents; the cap
//! on `payload_len` is what keeps a corrupted or hostile prefix from
//! forcing a giant allocation.

use std::io::{ErrorKind, Read, Write};
use std::ops::Range;

use crate::error::{NetError, WireError};

/// Default cap on one *request* frame's payload: 64 MiB comfortably
/// holds a full-load `n = 1024` routing instance (~21 MB) while bounding
/// what a bad length prefix can demand.
pub const DEFAULT_MAX_FRAME_BYTES: u64 = 64 * 1024 * 1024;

/// Default cap on one *reply* frame's payload, as enforced by the
/// client. Replies legitimately outgrow their requests — a `Sort`
/// request's 8-byte keys come back as 16-byte tagged keys, plus
/// per-round metrics — so a client capping replies at the request cap
/// would reject answers to requests the server validly accepted. 4x
/// gives the 2x worst-case data growth comfortable headroom.
pub const DEFAULT_MAX_REPLY_FRAME_BYTES: u64 = 4 * DEFAULT_MAX_FRAME_BYTES;

/// Writes one frame (length prefix + payload) as a single `write_all` —
/// one syscall and one TCP segment on unbuffered nodelay sockets, rather
/// than a 4-byte prefix segment followed by the payload. The caller
/// flushes.
///
/// # Errors
///
/// Propagates transport errors.
///
/// # Panics
///
/// Panics if `payload` exceeds `u32::MAX` bytes (unencodable length
/// prefix; the codec's own length caps keep real frames far below this).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), NetError> {
    w.write_all(&frame_vec(payload))?;
    Ok(())
}

/// One frame (length prefix + payload) as a contiguous byte vector — the
/// unit a write queue holds so a nonblocking writer can resume a partial
/// send mid-frame.
///
/// # Panics
///
/// Panics if `payload` exceeds `u32::MAX` bytes, as [`write_frame`].
pub fn frame_vec(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    frame_into(&mut buf, payload);
    buf
}

/// Builds one frame (length prefix + payload) into a reused buffer: the
/// write-side half of the zero-copy wire path. `buf` is cleared and
/// refilled; once it has grown to a connection's steady frame size, no
/// further allocation happens — the reactor recycles flushed outbound
/// buffers through exactly this call.
///
/// # Panics
///
/// Panics if `payload` exceeds `u32::MAX` bytes, as [`write_frame`].
pub fn frame_into(buf: &mut Vec<u8>, payload: &[u8]) {
    let len = u32::try_from(payload.len()).expect("frame payload exceeds u32::MAX bytes");
    buf.clear();
    buf.reserve(4 + payload.len());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(payload);
}

/// Reads one frame's payload, or `None` on a clean end-of-stream at a
/// frame boundary (the peer closed after its last complete frame).
///
/// # Errors
///
/// [`NetError::Disconnected`] if the stream ends inside a frame,
/// [`NetError::Wire`] with [`WireError::FrameTooLarge`] if the length
/// prefix exceeds `max_frame_bytes`, [`NetError::Io`] for transport
/// failures.
pub fn read_frame(r: &mut impl Read, max_frame_bytes: u64) -> Result<Option<Vec<u8>>, NetError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(None);
                }
                return Err(NetError::Disconnected);
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(NetError::Io(e)),
        }
    }
    let len = u64::from(u32::from_be_bytes(len_buf));
    if len > max_frame_bytes {
        return Err(NetError::Wire(WireError::FrameTooLarge {
            len,
            max: max_frame_bytes,
        }));
    }
    let mut payload = vec![0u8; len as usize];
    match r.read_exact(&mut payload) {
        Ok(()) => Ok(Some(payload)),
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => Err(NetError::Disconnected),
        Err(e) => Err(NetError::Io(e)),
    }
}

/// An incremental frame slicer over **one reused buffer**: bytes are
/// appended by [`fill_from`](FrameDecoder::fill_from) (each call is a
/// single `read`, so it composes with nonblocking sockets), complete
/// frames are sliced off by [`next_frame`](FrameDecoder::next_frame), and
/// the backing `Vec<u8>` is never reallocated while frame sizes stay
/// within what the connection has already seen — the first bite of the
/// zero-copy wire path: steady-state traffic does **zero** per-frame
/// allocations on the read side (pinned by a capacity test below).
///
/// Both read paths — the reactor's connections and the client — slice
/// frames through this; the allocate-per-frame [`read_frame`] is for
/// one-shot blocking reads off a raw stream.
///
/// Layout: `buf[start..end]` holds unconsumed bytes. A frame must be
/// contiguous from `start`, so the decoder compacts (copies the tail to
/// offset 0) before growing — memory stays bounded by one maximal frame.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// Initial backing-buffer size: enough for a burst of small control
/// frames without growth; large frames grow the buffer once and keep it.
const INITIAL_DECODER_CAPACITY: usize = 4 * 1024;

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder::new()
    }
}

impl FrameDecoder {
    /// An empty decoder with the default initial capacity.
    pub fn new() -> Self {
        FrameDecoder {
            buf: vec![0; INITIAL_DECODER_CAPACITY],
            start: 0,
            end: 0,
        }
    }

    /// Unconsumed bytes currently buffered.
    #[inline]
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Whether bytes are buffered that do not yet form a complete frame's
    /// worth of input — i.e. a partial frame is pending. (Exactly the
    /// read-idle condition a slow-loris deadline watches.) Bytes that do
    /// form complete frames but have not been sliced yet do not count.
    pub fn has_partial_frame(&self) -> bool {
        let buffered = self.buffered();
        if buffered == 0 {
            return false;
        }
        if buffered < 4 {
            return true;
        }
        let len = u32::from_be_bytes(
            self.buf[self.start..self.start + 4]
                .try_into()
                .expect("4-byte slice"),
        ) as usize;
        buffered < 4 + len
    }

    /// The backing buffer's size in bytes (for no-realloc assertions).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Discards all buffered bytes; keeps the backing buffer.
    pub fn clear(&mut self) {
        self.start = 0;
        self.end = 0;
    }

    /// Appends bytes with one `read` into the buffer's spare room,
    /// growing (after compaction) only when there is none. Returns the
    /// byte count — `Ok(0)` is end-of-stream. On a nonblocking source,
    /// `ErrorKind::WouldBlock` simply means "nothing available now".
    ///
    /// # Errors
    ///
    /// Propagates the underlying `read` error untouched.
    pub fn fill_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        if self.end == self.buf.len() {
            if self.start > 0 {
                self.compact();
            }
            if self.end == self.buf.len() {
                let grown = (self.buf.len() * 2).max(INITIAL_DECODER_CAPACITY);
                self.buf.resize(grown, 0);
            }
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Slices the next complete frame off the buffer, returning the
    /// payload's range (resolve it with [`payload`](FrameDecoder::payload))
    /// or `None` when the buffered bytes end mid-frame. Oversized length
    /// prefixes are rejected *before* any allocation, exactly like
    /// [`read_frame`].
    ///
    /// # Errors
    ///
    /// [`WireError::FrameTooLarge`] when the length prefix exceeds
    /// `max_frame_bytes`.
    pub fn next_frame(&mut self, max_frame_bytes: u64) -> Result<Option<Range<usize>>, WireError> {
        if self.buffered() < 4 {
            return Ok(None);
        }
        let len = u64::from(u32::from_be_bytes(
            self.buf[self.start..self.start + 4]
                .try_into()
                .expect("4-byte slice"),
        ));
        if len > max_frame_bytes {
            return Err(WireError::FrameTooLarge {
                len,
                max: max_frame_bytes,
            });
        }
        let total = 4 + len as usize;
        if self.buffered() < total {
            // Pre-size for the announced frame so the remaining fills land
            // without growth churn: compact first (the frame must sit
            // contiguous from `start`), then grow once if still short.
            if self.buf.len() - self.start < total {
                self.compact();
                if self.buf.len() < total {
                    self.buf.resize(total, 0);
                }
            }
            return Ok(None);
        }
        let payload = self.start + 4..self.start + total;
        self.start += total;
        if self.start == self.end {
            // Frame boundary with nothing pending: rewind for free instead
            // of compacting later.
            self.start = 0;
            self.end = 0;
        }
        Ok(Some(payload))
    }

    /// Resolves a range returned by [`next_frame`](FrameDecoder::next_frame)
    /// against the backing buffer. Valid until the next `fill_from` /
    /// `next_frame` / `clear` call.
    #[inline]
    pub fn payload(&self, range: Range<usize>) -> &[u8] {
        &self.buf[range]
    }

    fn compact(&mut self) {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"alpha").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, b"gamma!").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r, 1024).unwrap().as_deref(),
            Some(&b"alpha"[..])
        );
        assert_eq!(read_frame(&mut r, 1024).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(
            read_frame(&mut r, 1024).unwrap().as_deref(),
            Some(&b"gamma!"[..])
        );
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn eof_inside_a_frame_is_disconnection() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abcdef").unwrap();
        // Cut inside the length prefix and inside the payload.
        for cut in [2usize, 7] {
            let mut r = Cursor::new(buf[..cut].to_vec());
            assert!(matches!(
                read_frame(&mut r, 1024),
                Err(NetError::Disconnected)
            ));
        }
    }

    #[test]
    fn decoder_slices_frames_fed_byte_by_byte() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[9u8; 300]).unwrap();
        let mut dec = FrameDecoder::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for byte in wire {
            let n = dec.fill_from(&mut Cursor::new([byte])).unwrap();
            assert_eq!(n, 1);
            while let Some(range) = dec.next_frame(1024).unwrap() {
                got.push(dec.payload(range).to_vec());
            }
            // Between frames the partial flag tracks exactly whether bytes
            // are pending that do not yet complete a frame.
            assert_eq!(dec.has_partial_frame(), dec.buffered() > 0);
        }
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], b"alpha");
        assert_eq!(got[1], b"");
        assert_eq!(got[2], vec![9u8; 300]);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_rejects_oversized_prefix_before_allocating() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[7u8; 100]).unwrap();
        let mut dec = FrameDecoder::new();
        dec.fill_from(&mut Cursor::new(&wire)).unwrap();
        let before = dec.capacity();
        match dec.next_frame(64) {
            Err(WireError::FrameTooLarge { len: 100, max: 64 }) => {}
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        assert_eq!(dec.capacity(), before, "rejection must not allocate");
    }

    /// The zero-copy contract of the read path: after the first frame of a
    /// given size has passed through, further frames of that size (or
    /// smaller) reuse the same backing buffer — no reallocation, no
    /// per-frame `Vec`. Pinned via raw-pointer and capacity identity.
    #[test]
    fn decoder_reuses_one_buffer_across_frames_without_reallocating() {
        const BODY: usize = 9 * 1024; // bigger than the initial capacity
        let mut wire = Vec::new();
        for round in 0u8..16 {
            write_frame(&mut wire, &vec![round; BODY]).unwrap();
        }
        let mut cursor = Cursor::new(&wire);
        let mut dec = FrameDecoder::new();

        // Warm-up: pull exactly one frame through (growing as needed).
        let mut seen = 0u8;
        while seen == 0 {
            dec.fill_from(&mut cursor).unwrap();
            while let Some(range) = dec.next_frame(1 << 20).unwrap() {
                assert_eq!(dec.payload(range).len(), BODY);
                seen += 1;
            }
        }
        let pinned_capacity = dec.capacity();
        let pinned_ptr = dec.buf.as_ptr();
        assert!(pinned_capacity >= BODY + 4);

        // Steady state: every remaining frame reuses the warmed buffer.
        loop {
            let n = dec.fill_from(&mut cursor).unwrap();
            while let Some(range) = dec.next_frame(1 << 20).unwrap() {
                let round = dec.payload(range.clone())[0];
                assert_eq!(dec.payload(range), &vec![round; BODY][..]);
                seen += 1;
            }
            assert_eq!(dec.capacity(), pinned_capacity, "realloc after warm-up");
            assert_eq!(dec.buf.as_ptr(), pinned_ptr, "buffer moved after warm-up");
            if n == 0 {
                break;
            }
        }
        assert_eq!(seen, 16);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_reading() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[7u8; 100]).unwrap();
        let mut r = Cursor::new(buf);
        match read_frame(&mut r, 64) {
            Err(NetError::Wire(WireError::FrameTooLarge { len: 100, max: 64 })) => {}
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }
}
