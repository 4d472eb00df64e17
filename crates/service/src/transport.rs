//! Non-blocking socket plumbing for the [`crate::core_runtime`] loops:
//! the raw `poll(2)` shim, incremental frame reassembly over a read
//! buffer that is zeroed only when it grows, and the front-end transport
//! counters.

use std::io::{self, Read};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::proto::{FrontendStats, WireError, MAX_FRAME};

/// Raw `poll(2)` binding — the only non-std surface this crate touches,
/// and still libc-free: std already links the platform C library, so a
/// direct `extern "C"` declaration suffices. The crate denies
/// `unsafe_code`; this module is its one exception.
#[allow(unsafe_code)]
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
            // SAFETY: `fds` is a live, exclusively borrowed slice of
            // `#[repr(C)]` `pollfd`s and `nfds` is its length, so `poll`
            // reads and writes (only `revents`) inside it.
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

/// Incremental reassembly over a read buffer that stays initialised:
/// `buf[pos..end]` holds received bytes not yet consumed, and
/// `buf[end..]` is spare space that the next `read` lands in. Complete
/// frames are consumed from `pos`, and [`compact`] moves the unconsumed
/// bytes to the front between poll iterations. Bytes are zeroed only
/// when the buffer grows, so a connection in steady state never pays a
/// memset. The buffer owns the bytes; frame payloads are borrowed slices
/// of it — no per-frame allocation or copy.
///
/// [`compact`]: FrameBuf::compact
#[derive(Debug, Default)]
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
    end: usize,
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
    /// Appends raw bytes through [`FrameBuf::fill_from`], the path the
    /// loop reads the socket with (test seam).
    #[cfg(test)]
    fn extend(&mut self, bytes: &[u8]) {
        let got = self.fill_from(&mut &bytes[..]);
        assert!(matches!(got, ReadOutcome::Progress(n, _) if n == bytes.len()));
    }

    /// Reads from `src` into the spare space after the filled bytes,
    /// first growing the buffer by the missing bytes if that space is
    /// below [`READ_CHUNK`]. A read that fills the space is followed by
    /// another; a shorter one drained the socket, so the call returns —
    /// `poll` is level-triggered, and reports later bytes (or EOF) on
    /// the next iteration.
    pub(crate) fn fill_from(&mut self, src: &mut impl Read) -> ReadOutcome {
        let mut total = 0usize;
        loop {
            if self.buf.len() - self.end < READ_CHUNK {
                self.buf.resize(self.end + READ_CHUNK, 0);
            }
            let spare = &mut self.buf[self.end..];
            let room = spare.len();
            match src.read(spare) {
                Ok(0) => return ReadOutcome::Progress(total, true),
                Ok(n) => {
                    self.end += n;
                    total += n;
                    if n < room {
                        return ReadOutcome::Progress(total, false);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return ReadOutcome::Progress(total, false);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Broken,
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
        let avail = self.end - self.pos;
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

    /// Moves the unconsumed bytes (at most one partial frame) to the
    /// front; the spare space after them keeps its initialised bytes.
    pub(crate) fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
    }

    /// `true` while an incomplete frame (or stray bytes) sits in the
    /// buffer — the state the slow-loris deadline polices.
    pub(crate) fn has_partial(&self) -> bool {
        self.pos < self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_request, write_frame, Request, SessionId};
    use std::collections::VecDeque;

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
            // Compaction never strands bytes: the filled length covers at
            // most the partial head frame.
            assert!(fb.end < 4 + payloads.iter().map(Vec::len).max().unwrap() + 1);
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

    /// One scripted `read` result.
    enum Step {
        /// Writes `data` at the front of the offered space and `junk`
        /// right after it, and reports only `data` as read.
        Data {
            data: Vec<u8>,
            junk: Vec<u8>,
        },
        /// Fills the whole offered space.
        Fill,
        Eof,
        Fail(io::ErrorKind),
    }

    /// A reader that plays a script and records what each `read` was
    /// offered; reading past the script fails the test.
    struct Script {
        steps: VecDeque<Step>,
        offered: Vec<Vec<u8>>,
    }

    impl Script {
        fn new(steps: Vec<Step>) -> Script {
            Script {
                steps: steps.into(),
                offered: Vec::new(),
            }
        }

        fn data(bytes: &[u8]) -> Step {
            Step::Data {
                data: bytes.to_vec(),
                junk: Vec::new(),
            }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.offered.push(buf.to_vec());
            match self
                .steps
                .pop_front()
                .expect("read past the end of the script")
            {
                Step::Data { data, junk } => {
                    buf[..data.len()].copy_from_slice(&data);
                    buf[data.len()..data.len() + junk.len()].copy_from_slice(&junk);
                    Ok(data.len())
                }
                Step::Fill => {
                    buf.fill(0x5A);
                    Ok(buf.len())
                }
                Step::Eof => Ok(0),
                Step::Fail(kind) => Err(kind.into()),
            }
        }
    }

    fn progress(outcome: ReadOutcome) -> (usize, bool) {
        match outcome {
            ReadOutcome::Progress(n, eof) => (n, eof),
            ReadOutcome::Broken => panic!("unexpected Broken"),
        }
    }

    #[test]
    fn spare_bytes_survive_compaction_unzeroed() {
        let (wire, payloads) = frame_stream();
        // The first frame whole plus three bytes of the second, with
        // junk written past the reported length.
        let first = 4 + payloads[0].len();
        let cut = first + 3;
        let junk = vec![0xA5; 16];
        let mut script = Script::new(vec![
            Step::Data {
                data: wire[..cut].to_vec(),
                junk: junk.clone(),
            },
            Script::data(&wire[cut..]),
        ]);
        let mut fb = FrameBuf::default();
        assert_eq!(progress(fb.fill_from(&mut script)), (cut, false));
        assert_eq!(drain(&mut fb), payloads[..1]);
        // Compaction moved the three partial bytes to the front.
        assert_eq!(fb.end, 3);
        assert_eq!(
            progress(fb.fill_from(&mut script)),
            (wire.len() - cut, false)
        );
        assert_eq!(drain(&mut fb), payloads[1..]);
        // The second read was offered `buf[3..]`: the junk that sat at
        // `cut..cut + 16` is still there, not zero-filled.
        assert_eq!(script.offered[1][cut - 3..cut - 3 + junk.len()], junk[..]);
    }

    #[test]
    fn a_short_read_ends_the_fill() {
        let mut script = Script::new(vec![Script::data(b"hello")]);
        let mut fb = FrameBuf::default();
        assert_eq!(progress(fb.fill_from(&mut script)), (5, false));
        assert_eq!(script.offered.len(), 1);
        assert_eq!(script.offered[0].len(), READ_CHUNK);
    }

    #[test]
    fn a_read_that_fills_the_space_is_followed_by_another() {
        let mut script = Script::new(vec![Step::Fill, Script::data(b"tail")]);
        let mut fb = FrameBuf::default();
        assert_eq!(progress(fb.fill_from(&mut script)), (READ_CHUNK + 4, false));
        assert_eq!(script.offered.len(), 2);
        // The buffer grew by one chunk before the second read.
        assert_eq!(script.offered[1].len(), READ_CHUNK);
        assert_eq!(fb.end, READ_CHUNK + 4);
    }

    #[test]
    fn eof_errors_and_retries() {
        // EOF behind a short data read shows on the next call.
        let mut script = Script::new(vec![Script::data(b"abc"), Step::Eof]);
        let mut fb = FrameBuf::default();
        assert_eq!(progress(fb.fill_from(&mut script)), (3, false));
        assert_eq!(progress(fb.fill_from(&mut script)), (0, true));
        assert_eq!(script.offered.len(), 2);

        let mut script = Script::new(vec![
            Step::Fail(io::ErrorKind::Interrupted),
            Script::data(b"abc"),
        ]);
        assert_eq!(
            progress(FrameBuf::default().fill_from(&mut script)),
            (3, false)
        );

        let mut script = Script::new(vec![Step::Fail(io::ErrorKind::WouldBlock)]);
        assert_eq!(
            progress(FrameBuf::default().fill_from(&mut script)),
            (0, false)
        );

        let mut script = Script::new(vec![Step::Fail(io::ErrorKind::ConnectionReset)]);
        assert!(matches!(
            FrameBuf::default().fill_from(&mut script),
            ReadOutcome::Broken
        ));
    }
}
