//! A tiny HTTP/1.1 client for the `nai loadgen` driver and the
//! end-to-end tests — one keep-alive connection, blocking requests,
//! with optional request pipelining (`send` × N, then `recv` × N, or
//! the batched [`HttpClient::pipeline`]). Clients carry no
//! shard-routing state: the service applies every mutation to its one
//! engine, which every worker reads, so any connection can issue any
//! request.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One keep-alive connection to a [`crate::http::Server`].
pub struct HttpClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    host: String,
}

impl HttpClient {
    /// Connects with a 10 s connect timeout and 30 s read timeout.
    ///
    /// # Errors
    /// Propagates resolution/connection failures.
    pub fn connect(addr: impl ToSocketAddrs + std::fmt::Display) -> std::io::Result<Self> {
        let host = addr.to_string();
        let resolved = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "no address"))?;
        let stream = TcpStream::connect_timeout(&resolved, Duration::from_secs(10))?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            writer,
            reader: BufReader::new(stream),
            host,
        })
    }

    /// Renders one request's wire bytes (shared by the immediate and
    /// pipelined send paths).
    fn render(&self, method: &str, path: &str, body: &str, close: bool) -> String {
        let connection = if close { "Connection: close\r\n" } else { "" };
        format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n{connection}Content-Length: {}\r\n\r\n{body}",
            self.host,
            body.len()
        )
    }

    /// Writes one request without reading its response — the pipelined
    /// half of [`Self::request`]. Pair each `send` with a later
    /// [`Self::recv`]; the server answers strictly in request order.
    ///
    /// # Errors
    /// Propagates I/O failures.
    pub fn send(&mut self, method: &str, path: &str, body: Option<&str>) -> std::io::Result<()> {
        let bytes = self.render(method, path, body.unwrap_or(""), false);
        self.writer.write_all(bytes.as_bytes())?;
        self.writer.flush()
    }

    /// Reads one response (status, body) — the other half of
    /// [`Self::send`].
    ///
    /// # Errors
    /// Propagates I/O failures and malformed responses.
    pub fn recv(&mut self) -> std::io::Result<(u16, String)> {
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
            })?;
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside response headers",
                ));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((key, value)) = header.split_once(':') {
                if key.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 response body")
        })?;
        Ok((status, body))
    }

    /// Sends one request and reads the response.
    ///
    /// # Errors
    /// Propagates I/O failures and malformed responses.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        self.send(method, path, body)?;
        self.recv()
    }

    /// As [`Self::request`], with `Connection: close`: the server
    /// answers, then closes. The client is spent afterwards.
    ///
    /// # Errors
    /// As [`Self::request`].
    pub fn request_closing(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        let bytes = self.render(method, path, body.unwrap_or(""), true);
        self.writer.write_all(bytes.as_bytes())?;
        self.writer.flush()?;
        self.recv()
    }

    /// Pipelines a burst: writes every request back to back in one
    /// buffer (one write syscall), then reads the responses in order.
    /// This is what lets the server's reactor drain the whole burst
    /// into its admission queue in a single syscall round-trip.
    ///
    /// # Errors
    /// Propagates I/O failures; on error, responses already read are
    /// lost with it.
    pub fn pipeline(
        &mut self,
        method: &str,
        path: &str,
        bodies: &[&str],
    ) -> std::io::Result<Vec<(u16, String)>> {
        let mut burst = String::new();
        for body in bodies {
            burst.push_str(&self.render(method, path, body, false));
        }
        self.writer.write_all(burst.as_bytes())?;
        self.writer.flush()?;
        bodies.iter().map(|_| self.recv()).collect()
    }
}

/// One-shot convenience: connect, request, disconnect.
///
/// # Errors
/// As [`HttpClient::request`].
pub fn http_call(
    addr: impl ToSocketAddrs + std::fmt::Display,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<(u16, String)> {
    HttpClient::connect(addr)?.request(method, path, body)
}
