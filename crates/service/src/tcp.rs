//! Blocking TCP client for the service wire protocol: strict
//! request/response over the length-prefixed frames of
//! [`crate::proto`], or pipelined with [`TcpClient::send`] /
//! [`TcpClient::recv`]. Portable — it needs only `std::net`.

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};

use crate::proto::{
    decode_response, encode_request_into, read_frame_into, write_frame, Request, Response,
    WireError,
};

/// Blocking TCP client speaking the service wire protocol.
///
/// [`TcpClient::call`] is the strict request/response path;
/// [`TcpClient::send`] / [`TcpClient::recv`] split it so a caller can
/// **pipeline** — write several requests before reading the replies,
/// which arrive in submission order: the k-th response always answers
/// the k-th request.
#[derive(Debug)]
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Reusable encode scratch — no allocation per sent frame.
    wscratch: Vec<u8>,
    /// Reusable frame-payload scratch — no allocation per received frame.
    rscratch: Vec<u8>,
}

impl TcpClient {
    /// Connects to a server speaking the service wire protocol.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            wscratch: Vec::new(),
            rscratch: Vec::new(),
        })
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from framing, transport or decoding.
    pub fn call(&mut self, req: &Request) -> Result<Response, WireError> {
        self.send(req)?;
        self.recv()
    }

    /// Writes (and flushes) one request frame without waiting for the
    /// response; pair with [`TcpClient::recv`], one recv per send, in
    /// order.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from framing or transport.
    pub fn send(&mut self, req: &Request) -> Result<(), WireError> {
        self.wscratch.clear();
        encode_request_into(req, &mut self.wscratch);
        write_frame(&mut self.writer, &self.wscratch)
    }

    /// Blocks for the next response frame.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] from framing, transport or decoding.
    pub fn recv(&mut self) -> Result<Response, WireError> {
        read_frame_into(&mut self.reader, &mut self.rscratch)?;
        decode_response(&self.rscratch)
    }
}
