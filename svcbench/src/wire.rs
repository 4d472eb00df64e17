//! The load generator: one thread driving pre-encoded request streams
//! over loopback TCP in a closed loop, checking every reply byte for
//! byte against the oracle's, and timing each request from the write
//! that sent it to its checked reply.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use deltaos_service::proto::{decode_response, encode_request};
use deltaos_service::{Request, Response, ShardStats};

use crate::spans::{Clock, Latencies, Span, ROOT};
use crate::trace::Stream;

/// A reply that has not arrived after this long is a stall.
const STALL: Duration = Duration::from_secs(10);

/// One client connection with its own read buffer.
pub struct Conn {
    sock: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let sock = TcpStream::connect(addr)?;
        sock.set_nodelay(true)?;
        sock.set_read_timeout(Some(STALL))?;
        Ok(Conn {
            sock,
            buf: vec![0; 1 << 16],
            start: 0,
            end: 0,
        })
    }

    /// Whether a whole frame is already buffered.
    fn buffered_frame(&self) -> bool {
        let have = self.end - self.start;
        have >= 4
            && have
                >= 4 + u32::from_le_bytes(
                    self.buf[self.start..self.start + 4]
                        .try_into()
                        .expect("four bytes"),
                ) as usize
    }

    /// Reads one frame and returns the payload's range in the buffer.
    fn read_frame(&mut self) -> io::Result<(usize, usize)> {
        loop {
            let have = self.end - self.start;
            if have >= 4 {
                let len = u32::from_le_bytes(
                    self.buf[self.start..self.start + 4]
                        .try_into()
                        .expect("four bytes"),
                ) as usize;
                if len > deltaos_service::MAX_FRAME {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "oversized reply",
                    ));
                }
                if have >= 4 + len {
                    let at = self.start + 4;
                    self.start = at + len;
                    return Ok((at, at + len));
                }
                if self.buf.len() < 4 + len {
                    self.buf.resize(4 + len, 0);
                }
            }
            if self.start > 0 && (self.end == self.buf.len() || self.start == self.end) {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            }
            match self.sock.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// One request and its reply, outside any measurement.
    pub fn call(&mut self, req: &Request) -> io::Result<Response> {
        let payload = encode_request(req);
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&payload);
        self.sock.write_all(&frame)?;
        let (a, b) = self.read_frame()?;
        decode_response(&self.buf[a..b])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// The service's shard counters (the benchmark runs one shard).
    pub fn shard_stats(&mut self) -> io::Result<ShardStats> {
        match self.call(&Request::Stats)? {
            Response::Stats { shards, .. } if shards.len() == 1 => Ok(shards[0]),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("stats answered {other:?}"),
            )),
        }
    }
}

/// How the requests of one drive ended. Every request attempted either
/// matched the oracle's reply or counts in exactly one failure class.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub attempted: u64,
    pub ok: u64,
    pub busy: u64,
    pub error: u64,
    pub decode: u64,
    pub mismatch: u64,
    /// Requests lost to a broken connection or a reply that never came.
    pub transport: u64,
    /// Set when a reply did not come within the stall timeout.
    pub stalled: bool,
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.busy + self.error + self.decode + self.mismatch + self.transport
    }

    pub fn add(&mut self, o: &Outcome) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.busy += o.busy;
        self.error += o.error;
        self.decode += o.decode;
        self.mismatch += o.mismatch;
        self.transport += o.transport;
        self.stalled |= o.stalled;
    }

    fn classify(&mut self, got: &[u8], want: &[u8]) {
        if got == want {
            self.ok += 1;
            return;
        }
        match decode_response(got) {
            Ok(Response::Busy) => self.busy += 1,
            Ok(Response::Error(_)) => self.error += 1,
            Ok(_) => self.mismatch += 1,
            Err(_) => self.decode += 1,
        }
    }
}

/// Where latencies go: every sample, and optionally one root span per
/// request.
pub struct Sink<'a> {
    pub lat: &'a mut Latencies,
    pub roots: Option<&'a mut Vec<Span>>,
}

/// Sends every op of `stream` on `conn`, at most `depth` in flight, and
/// checks each reply in order. Request `j` of the stream has request id
/// `j`.
pub fn drive(
    conn: &mut Conn,
    stream: &Stream,
    depth: usize,
    clock: &Clock,
    sink: &mut Sink<'_>,
) -> Outcome {
    let n = stream.ops.len();
    let mut out = Outcome {
        attempted: n as u64,
        ..Outcome::default()
    };
    let mut sent_at = vec![0u64; n];
    let (mut sent, mut done) = (0usize, 0usize);
    while done < n {
        // Top the window up in one write.
        let hi = n.min(done + depth);
        if sent < hi {
            let bytes = &stream.req_bytes[stream.ops[sent].req.start..stream.ops[hi - 1].req.end];
            let t = clock.now_ns();
            if conn.sock.write_all(bytes).is_err() {
                break;
            }
            sent_at[sent..hi].fill(t);
            sent = hi;
        }
        // Block for the oldest reply, then take every reply already
        // buffered behind it.
        let mut blocking = true;
        while done < sent && (blocking || conn.buffered_frame()) {
            blocking = false;
            match conn.read_frame() {
                Ok((a, b)) => {
                    let t = clock.now_ns();
                    let start = sent_at[done];
                    sink.lat.record(t - start);
                    if let Some(roots) = sink.roots.as_deref_mut() {
                        roots.push(Span {
                            name: "request",
                            start_ns: start,
                            end_ns: t,
                            parent: ROOT,
                            req: done as u32,
                        });
                    }
                    out.classify(&conn.buf[a..b], stream.expected(done));
                    done += 1;
                }
                Err(e) => {
                    out.stalled |= matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    );
                    out.transport = (n - done) as u64;
                    return out;
                }
            }
        }
    }
    out.transport = (n - done) as u64;
    out
}
