//! The client layer: HTTP/1.1 over one keep-alive loopback connection,
//! split into a writing half and a reading half so an open-loop
//! generator can send on schedule while another thread reads.
//!
//! `nai_serve::HttpClient` keeps both halves behind one `&mut self`,
//! which rules out a writer thread, so the benchmark carries its own.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Renders one `POST /v1` request carrying a newline-JSON body.
pub fn post_v1(body: &str) -> Vec<u8> {
    format!(
        "POST /v1 HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The writing half.
pub struct Writer(TcpStream);

/// The reading half.
pub struct Reader(BufReader<TcpStream>);

/// Connects with `TCP_NODELAY` and a read timeout, so a stalled server
/// fails the run instead of hanging it.
pub fn connect(addr: SocketAddr) -> std::io::Result<(Writer, Reader)> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    let read = stream.try_clone()?;
    Ok((
        Writer(stream),
        Reader(BufReader::with_capacity(1 << 16, read)),
    ))
}

impl Writer {
    /// Writes raw request bytes (one request or a pipelined burst).
    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.0.write_all(bytes)
    }
}

impl Reader {
    /// Reads one response: status code and body.
    pub fn recv(&mut self) -> std::io::Result<(u16, String)> {
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
        let mut line = String::new();
        if self.0.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.0.read_line(&mut line)? == 0 {
                return Err(bad("eof inside headers"));
            }
            let h = line.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((k, v)) = h.split_once(':') {
                if k.trim().eq_ignore_ascii_case("content-length") {
                    len = v.trim().parse().map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; len];
        self.0.read_exact(&mut body)?;
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|_| bad("non-UTF-8 body"))
    }

    /// `send` then `recv` with one request in flight.
    pub fn call(&mut self, w: &mut Writer, bytes: &[u8]) -> std::io::Result<(u16, String)> {
        w.send(bytes)?;
        self.recv()
    }
}
