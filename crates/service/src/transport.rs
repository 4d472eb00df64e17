//! Non-blocking socket plumbing for the [`crate::core_runtime`] loops:
//! the raw `poll(2)` shim, incremental frame reassembly over a growable
//! read buffer, and the front-end transport counters.

use std::io::{self, Read};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::proto::{FrontendStats, WireError, MAX_FRAME};

/// Raw `poll(2)` binding — the only non-std surface this crate touches,
/// and still libc-free: std already links the platform C library, so a
/// direct `extern "C"` declaration suffices.
pub(crate) mod sys {
    use std::io;
    use std::os::raw::{c_int, c_short};

    #[cfg(target_os = "macos")]
    type Nfds = u32;
    #[cfg(not(target_os = "macos"))]
    type Nfds = std::os::raw::c_ulong;

    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const POLLNVAL: c_short = 0x020;

    /// `struct pollfd` — identical layout on every supported unix.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// Blocks until an fd is ready or `timeout_ms` elapses (`-1` waits
    /// forever), retrying on `EINTR`.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, timeout_ms) };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// Bytes asked of the socket per `read(2)` when filling a frame buffer.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// Monotonic front-end counters, shared by the acceptor and every loop.
#[derive(Default)]
pub(crate) struct Counters {
    pub(crate) accepted: AtomicU64,
    pub(crate) closed: AtomicU64,
    pub(crate) reaped_idle: AtomicU64,
    pub(crate) reaped_partial: AtomicU64,
    pub(crate) desynced: AtomicU64,
    pub(crate) frames_in: AtomicU64,
    pub(crate) replies_out: AtomicU64,
    pub(crate) busy_replies: AtomicU64,
    pub(crate) bytes_in: AtomicU64,
    pub(crate) bytes_out: AtomicU64,
}

impl Counters {
    /// Snapshot as the wire-visible [`FrontendStats`] (also served
    /// in-band through the `Stats` response).
    pub(crate) fn snapshot(&self) -> FrontendStats {
        let accepted = self.accepted.load(Ordering::Relaxed);
        let closed = self.closed.load(Ordering::Relaxed);
        FrontendStats {
            accepted,
            active: accepted.saturating_sub(closed),
            closed,
            reaped_idle: self.reaped_idle.load(Ordering::Relaxed),
            reaped_partial: self.reaped_partial.load(Ordering::Relaxed),
            desynced: self.desynced.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            replies_out: self.replies_out.load(Ordering::Relaxed),
            busy_replies: self.busy_replies.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// Incremental frame reassembly
// ---------------------------------------------------------------------

/// Incremental reassembly over a growable buffer: bytes land at the
/// tail, complete frames are consumed from `pos`, and [`compact`]
/// reclaims the consumed prefix between poll iterations. The buffer
/// owns the bytes; frame payloads are borrowed slices of it — no
/// per-frame allocation or copy.
///
/// [`compact`]: FrameBuf::compact
#[derive(Debug, Default)]
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
}

/// What one readable event yielded.
pub(crate) enum ReadOutcome {
    /// Bytes appended (possibly 0 if the socket was already drained);
    /// `true` when the peer also half-closed.
    Progress(usize, bool),
    /// Transport error; the connection is unusable.
    Broken,
}

impl FrameBuf {
    /// Appends raw bytes (test seam; the live path reads straight from
    /// the socket via [`FrameBuf::fill_from`]).
    #[cfg(test)]
    fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Reads from `stream` until it would block (or EOF/error),
    /// appending to the tail.
    pub(crate) fn fill_from(&mut self, stream: &mut TcpStream) -> ReadOutcome {
        let mut total = 0usize;
        loop {
            let old = self.buf.len();
            self.buf.resize(old + READ_CHUNK, 0);
            match stream.read(&mut self.buf[old..]) {
                Ok(0) => {
                    self.buf.truncate(old);
                    return ReadOutcome::Progress(total, true);
                }
                Ok(n) => {
                    self.buf.truncate(old + n);
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.buf.truncate(old);
                    return ReadOutcome::Progress(total, false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    self.buf.truncate(old);
                }
                Err(_) => {
                    self.buf.truncate(old);
                    return ReadOutcome::Broken;
                }
            }
        }
    }

    /// Pops the next complete frame as a payload range into the buffer,
    /// `Ok(None)` while the head frame is still partial.
    ///
    /// # Errors
    ///
    /// [`WireError::Oversized`] when the length prefix exceeds
    /// [`MAX_FRAME`] — framing is lost and the stream must be dropped.
    pub(crate) fn next_frame(&mut self) -> Result<Option<(usize, usize)>, WireError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let prefix: [u8; 4] = self.buf[self.pos..self.pos + 4].try_into().unwrap();
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME {
            return Err(WireError::Oversized { len: len as u64 });
        }
        if avail - 4 < len {
            return Ok(None);
        }
        let start = self.pos + 4;
        self.pos = start + len;
        Ok(Some((start, start + len)))
    }

    /// The payload bytes of a range returned by [`FrameBuf::next_frame`].
    pub(crate) fn slice(&self, (a, b): (usize, usize)) -> &[u8] {
        &self.buf[a..b]
    }

    /// Drops the consumed prefix so the buffer only holds the (at most
    /// one) partial frame at its head.
    pub(crate) fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.copy_within(self.pos.., 0);
            let keep = self.buf.len() - self.pos;
            self.buf.truncate(keep);
            self.pos = 0;
        }
    }

    /// `true` while an incomplete frame (or stray bytes) sits in the
    /// buffer — the state the slow-loris deadline polices.
    pub(crate) fn has_partial(&self) -> bool {
        self.pos < self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_request, write_frame, Request, SessionId};

    /// Three representative frames, length-prefixed, as one byte stream.
    fn frame_stream() -> (Vec<u8>, Vec<Vec<u8>>) {
        let payloads = vec![
            encode_request(&Request::Stats),
            encode_request(&Request::Open {
                resources: 7,
                processes: 9,
            }),
            encode_request(&Request::Batch {
                session: SessionId(3),
                events: vec![crate::proto::Event::Probe; 5],
            }),
        ];
        let mut wire = Vec::new();
        for p in &payloads {
            write_frame(&mut wire, p).unwrap();
        }
        (wire, payloads)
    }

    /// Collects every currently-complete frame payload (owned, for
    /// comparison only — the live path borrows).
    fn drain(fb: &mut FrameBuf) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(range) = fb.next_frame().unwrap() {
            out.push(fb.slice(range).to_vec());
        }
        fb.compact();
        out
    }

    #[test]
    fn reassembles_one_byte_at_a_time() {
        let (wire, payloads) = frame_stream();
        let mut fb = FrameBuf::default();
        let mut got = Vec::new();
        for &b in &wire {
            fb.extend(&[b]);
            got.extend(drain(&mut fb));
            // Compaction never strands bytes: buffer holds at most the
            // partial head frame.
            assert!(fb.buf.len() < 4 + payloads.iter().map(Vec::len).max().unwrap() + 1);
        }
        assert_eq!(got, payloads);
        assert!(!fb.has_partial(), "no residue after the final byte");
    }

    #[test]
    fn reassembles_across_every_split_point() {
        let (wire, payloads) = frame_stream();
        for cut in 0..=wire.len() {
            let mut fb = FrameBuf::default();
            let mut got = Vec::new();
            fb.extend(&wire[..cut]);
            got.extend(drain(&mut fb));
            fb.extend(&wire[cut..]);
            got.extend(drain(&mut fb));
            assert_eq!(got, payloads, "split at byte {cut}");
        }
    }

    #[test]
    fn whole_stream_in_one_chunk_yields_all_frames() {
        let (wire, payloads) = frame_stream();
        let mut fb = FrameBuf::default();
        fb.extend(&wire);
        assert_eq!(drain(&mut fb), payloads);
    }

    #[test]
    fn oversized_prefix_is_a_framing_error() {
        let mut fb = FrameBuf::default();
        fb.extend(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn partial_flag_tracks_the_head_frame() {
        let (wire, _) = frame_stream();
        let mut fb = FrameBuf::default();
        assert!(!fb.has_partial());
        fb.extend(&wire[..2]); // half a length prefix
        assert!(fb.next_frame().unwrap().is_none());
        assert!(fb.has_partial());
        fb.extend(&wire[2..]);
        let _ = drain(&mut fb);
        assert!(!fb.has_partial());
    }
}
