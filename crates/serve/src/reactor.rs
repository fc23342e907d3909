//! Event-driven HTTP transport: one reactor thread multiplexing every
//! connection over a readiness poller.
//!
//! This replaced the thread-per-connection loop in [`crate::http`]: a
//! single `nai-serve-reactor` thread blocks in
//! [`crate::sync::poll::Poller::wait`] and drives non-blocking sockets
//! through per-connection state machines — read buffer → incremental
//! HTTP/1.1 parse → dispatch → ordered response queue → write buffer.
//! A readable socket drains *all* pipelined `/v1` lines into one
//! submission group in one syscall round-trip, so pipelining depth —
//! not connection count — sets the admission pressure. A group of reads
//! may be answered on this thread: the service runs its first share
//! inline, and those replies fill their slots at submission, like cache
//! hits. Every other reply comes
//! back through a [`CompletionQueue`] and the wake pipe instead of a
//! parked thread per request.
//!
//! The state machine's invariants:
//!
//! * **Ordering.** Responses go out in request order. Each request
//!   reserves a slot in the connection's response queue at parse time
//!   (`Response::Ready` immediately, `Response::Pending` for `/v1`
//!   batches awaiting engine replies); the writer only ever pumps the
//!   queue's completed front.
//! * **Backpressure.** When a connection's write backlog reaches
//!   `WRITE_BUF_CAP`, the reactor stops parsing *and* stops reading
//!   from it (the read interest is dropped), so a slow reader
//!   pipelining requests is throttled by TCP instead of ballooning
//!   server memory.
//! * **Liveness.** `last_activity` advances on every completed request
//!   parse and on every byte of write progress. The kernel send buffer
//!   is fixed at `SEND_BUF`, so once it is full a write makes progress
//!   only when the peer has taken bytes out of it. A connection with no
//!   activity for `read_timeout` is evicted *regardless of its write
//!   backlog* — this covers slowloris senders, half-open peers, idle
//!   keep-alive connections, and readers that never drain their
//!   responses (unflushed bytes are dropped with the connection; a
//!   peer that stalls its receive window is not owed delivery).
//!   Pending batches carry their own deadline: missing replies are
//!   filled with `timeout` error lines so one stuck request cannot
//!   wedge the connection behind it, and eviction waits for that fill
//!   so a slow engine reply surfaces as a typed timeout line, not a
//!   reset.
//! * **Drain.** Shutdown closes the listener, marks every connection
//!   `no_new_requests`, and gives in-flight responses `drain_grace` to
//!   flush before teardown closes the stragglers.

use crate::http::{route_basic, ServerState, CT_JSON};
use crate::json::Json;
use crate::proto::{error_line, parse_request, render_reply, Request};
use crate::service::{CompletionQueue, ReplySink, ServeError};
use crate::sync::poll::{Event, Interest, Poller};
use crate::sync::time::Instant;
use crate::sync::Arc;
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Poller key of the listening socket.
const KEY_LISTENER: usize = 0;
/// Poller key of the wake pipe's read end.
const KEY_WAKE: usize = 1;
/// Connection slot `s` registers under key `s + KEY_CONN_BASE`.
const KEY_CONN_BASE: usize = 2;

/// Upper bound on accepted request bodies (1 MiB — far above any
/// realistic micro-batch line, far below memory trouble).
pub(crate) const MAX_BODY: usize = 1 << 20;
/// Upper bound on one request/header line; longer lines are rejected
/// before they buffer further.
const MAX_HEADER_LINE: usize = 8 << 10;
/// Upper bound on headers per request.
const MAX_HEADERS: usize = 100;
/// Per-connection write backlog (flushing bytes plus queued rendered
/// responses) above which the reactor stops reading and parsing.
const WRITE_BUF_CAP: usize = 256 * 1024;
/// Bytes read per `read(2)` on a readable connection.
const READ_CHUNK: usize = 16 * 1024;
/// Kernel send buffer of every connection (`SO_SNDBUF`; the kernel
/// doubles it for bookkeeping). Fixing it turns off send-buffer
/// autotuning, which on loopback grows to megabytes while the peer
/// reads nothing: every `write()` into that slack would count as write
/// progress and keep a non-reading peer alive for seconds, while the
/// reactor renders responses nobody reads.
const SEND_BUF: i32 = 64 * 1024;

/// Tuning knobs for the event-driven transport.
#[derive(Debug, Clone, Copy)]
pub struct TransportConfig {
    /// Idle/eviction timeout: a connection with nothing in flight and
    /// no completed request parse for this long is closed, and a
    /// pending `/v1` batch older than this has its missing replies
    /// filled with `timeout` error lines.
    pub read_timeout: Duration,
    /// How long shutdown lets in-flight responses flush before
    /// teardown closes the remaining connections.
    pub drain_grace: Duration,
}

impl Default for TransportConfig {
    fn default() -> Self {
        TransportConfig {
            read_timeout: Duration::from_secs(30),
            drain_grace: Duration::from_secs(2),
        }
    }
}

fn dur_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// One parsed HTTP/1.1 request.
pub(crate) struct HttpRequest {
    pub(crate) method: String,
    pub(crate) path: String,
    /// Close after responding — the `Connection` header's verdict, or
    /// the version default (HTTP/1.0 closes, HTTP/1.1 keeps alive).
    pub(crate) close: bool,
    pub(crate) body: String,
}

/// Parses one `Connection` header value into a close verdict:
/// `Some(true)` to close, `Some(false)` to keep alive, `None` when the
/// value names neither token and the version default applies. Values
/// are comma-separated token lists (`Connection: keep-alive, upgrade`)
/// and tokens are case-insensitive, so each comma-split token is
/// trimmed and compared whole — a substring scan would misread headers
/// like `Connection: not-close`.
fn connection_close(value: &str) -> Option<bool> {
    let mut verdict = None;
    for token in value.split(',') {
        let token = token.trim();
        if token.eq_ignore_ascii_case("close") {
            // `close` wins outright, whatever else the list names.
            return Some(true);
        }
        if token.eq_ignore_ascii_case("keep-alive") {
            verdict = Some(false);
        }
    }
    verdict
}

/// Takes the next CRLF/LF-terminated line out of `buf` starting at
/// `*pos`, advancing `*pos` past it. `Ok(None)` means the line is not
/// complete yet (caller waits for more bytes); an unterminated tail or
/// terminated line longer than [`MAX_HEADER_LINE`] is a protocol
/// error, as is non-UTF-8.
fn next_line<'a>(buf: &'a [u8], pos: &mut usize) -> Result<Option<&'a str>, String> {
    let rest = &buf[*pos..];
    let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
        if rest.len() > MAX_HEADER_LINE {
            return Err("header line too long".to_string());
        }
        return Ok(None);
    };
    if nl > MAX_HEADER_LINE {
        return Err("header line too long".to_string());
    }
    let mut line = &rest[..nl];
    if line.last() == Some(&b'\r') {
        line = &line[..line.len() - 1];
    }
    let line = std::str::from_utf8(line).map_err(|_| "non-UTF-8 header".to_string())?;
    *pos += nl + 1;
    Ok(Some(line))
}

/// Incremental HTTP/1.1 request parse over a connection's read buffer.
///
/// `Ok(None)` means the buffer holds a prefix of a valid request —
/// park it and wait for more bytes. `Ok(Some((req, consumed)))` hands
/// back one complete request and how many bytes it occupied (the
/// caller drains them and may call again immediately: pipelined
/// requests parse back to back from one buffer). `Err` is a protocol
/// violation; the caller answers 400 and closes.
///
/// The parse is pure and restartable — it never mutates the buffer, so
/// re-running it on a grown buffer is always safe.
pub(crate) fn try_parse_request(buf: &[u8]) -> Result<Option<(HttpRequest, usize)>, String> {
    let mut pos = 0usize;
    let Some(request_line) = next_line(buf, &mut pos)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m.to_string(), p.to_string(), v),
        _ => return Err("malformed request line".to_string()),
    };
    let http10 = version == "HTTP/1.0";
    let mut content_length: Option<usize> = None;
    let mut explicit_close: Option<bool> = None;
    let mut seen = 0usize;
    loop {
        let Some(header) = next_line(buf, &mut pos)? else {
            return Ok(None);
        };
        if header.is_empty() {
            break;
        }
        seen += 1;
        if seen > MAX_HEADERS {
            return Err("too many headers".to_string());
        }
        if let Some((key, value)) = header.split_once(':') {
            let key = key.trim();
            let value = value.trim();
            if key.eq_ignore_ascii_case("content-length") {
                let parsed: usize = value
                    .parse()
                    .map_err(|_| "bad content-length".to_string())?;
                if parsed > MAX_BODY {
                    return Err("body too large".to_string());
                }
                // Repeated identical Content-Length headers are
                // tolerated; conflicting ones are a request-smuggling
                // shape and reject outright.
                if let Some(prev) = content_length {
                    if prev != parsed {
                        return Err("conflicting content-length".to_string());
                    }
                }
                content_length = Some(parsed);
            } else if key.eq_ignore_ascii_case("transfer-encoding") {
                // The parser does not implement chunked decoding;
                // treating a chunked body as Content-Length: 0 would
                // desync the pipeline (its body bytes would parse as
                // the next request), so any Transfer-Encoding rejects.
                return Err("transfer-encoding not supported".to_string());
            } else if key.eq_ignore_ascii_case("connection") {
                if let Some(c) = connection_close(value) {
                    // Close is sticky across repeated Connection
                    // headers; keep-alive never overrides it.
                    if explicit_close != Some(true) {
                        explicit_close = Some(c);
                    }
                }
            }
        }
    }
    let content_length = content_length.unwrap_or(0);
    if buf.len() < pos + content_length {
        return Ok(None);
    }
    let body = std::str::from_utf8(&buf[pos..pos + content_length])
        .map_err(|_| "non-UTF-8 body".to_string())?
        .to_string();
    Ok(Some((
        HttpRequest {
            method,
            path,
            close: explicit_close.unwrap_or(http10),
            body,
        },
        pos + content_length,
    )))
}

/// Sets the connection's kernel send buffer to [`SEND_BUF`].
fn fix_send_buffer(stream: &std::net::TcpStream) -> io::Result<()> {
    #[cfg(target_os = "linux")]
    const SOL_SOCKET: i32 = 1;
    #[cfg(target_os = "linux")]
    const SO_SNDBUF: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    const SOL_SOCKET: i32 = 0xffff;
    #[cfg(not(target_os = "linux"))]
    const SO_SNDBUF: i32 = 0x1001;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const std::ffi::c_void,
            optlen: u32,
        ) -> i32;
    }
    // SAFETY: a plain syscall on the open fd `stream` owns; the kernel
    // copies the int behind `optval`.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_SNDBUF,
            &SEND_BUF as *const i32 as *const std::ffi::c_void,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

/// Renders a complete HTTP/1.1 response to wire bytes.
pub(crate) fn render_response(status: u16, body: &str, content_type: &str, close: bool) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    };
    let connection = if close { "close" } else { "keep-alive" };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A `/v1` batch whose engine replies are still arriving. `slots`
/// holds one rendered newline-JSON line per request line, in body
/// order; `None` marks a reply still in flight ( `missing` counts
/// them). Once `missing` hits zero the batch renders and the response
/// queue can pump past it.
struct PendingBatch {
    slots: Vec<Option<String>>,
    missing: usize,
    status: u16,
    /// Single-line bodies surface per-line failures in the HTTP
    /// status; multi-line bodies always answer 200.
    single: bool,
    close: bool,
    /// Fill-by-timeout deadline for the missing replies.
    deadline: Instant,
}

fn render_batch(batch: &PendingBatch) -> Vec<u8> {
    let mut body = String::new();
    for slot in &batch.slots {
        match slot {
            Some(line) => body.push_str(line),
            None => body.push_str(&error_line("timeout", None).to_string()),
        }
        body.push('\n');
    }
    render_response(batch.status, &body, CT_JSON, batch.close)
}

/// One queued response, in request order.
enum Response {
    /// Fully rendered wire bytes, ready to pump.
    Ready(Vec<u8>),
    /// A `/v1` batch awaiting engine replies.
    Pending(PendingBatch),
}

/// Per-connection state machine.
struct Conn {
    stream: std::net::TcpStream,
    /// Generation stamp: tokens for replies in flight carry it, so a
    /// reply for a closed connection can never land on a successor
    /// reusing the same slot.
    gen: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    responses: VecDeque<Response>,
    /// Response id of `responses[0]`; ids are assigned at parse time
    /// and never reused, so a completion for an already-popped
    /// (timeout-filled) batch is detected by `resp < resp_base`.
    resp_base: u64,
    next_resp: u64,
    /// Peer sent EOF. Buffered pipelined requests still parse; only
    /// further reads stop.
    read_closed: bool,
    /// Stop parsing new requests: close requested, protocol error, or
    /// server drain. The connection closes once responses flush.
    no_new_requests: bool,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Advanced on each completed request parse; eviction clock.
    last_activity: Instant,
}

impl Conn {
    fn new(stream: std::net::TcpStream, gen: u64) -> Self {
        Conn {
            stream,
            gen,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            responses: VecDeque::new(),
            resp_base: 0,
            next_resp: 0,
            read_closed: false,
            no_new_requests: false,
            interest: Interest::READ,
            last_activity: Instant::now(),
        }
    }

    /// Bytes owed to the peer: unflushed write buffer plus rendered
    /// responses still queued behind a pending batch.
    fn write_backlog(&self) -> usize {
        let queued: usize = self
            .responses
            .iter()
            .map(|r| match r {
                Response::Ready(bytes) => bytes.len(),
                Response::Pending(_) => 0,
            })
            .sum();
        (self.write_buf.len() - self.write_pos) + queued
    }

    /// Moves the completed front of the response queue into the write
    /// buffer (responses strictly in request order).
    fn pump_ready(&mut self) {
        loop {
            match self.responses.front() {
                Some(Response::Ready(_)) => {
                    if let Some(Response::Ready(bytes)) = self.responses.pop_front() {
                        self.write_buf.extend_from_slice(&bytes);
                        self.resp_base += 1;
                    }
                }
                Some(Response::Pending(batch)) if batch.missing == 0 => {
                    let rendered = render_batch(batch);
                    self.write_buf.extend_from_slice(&rendered);
                    self.responses.pop_front();
                    self.resp_base += 1;
                }
                _ => break,
            }
        }
    }

    /// Writes the buffer out until done or the socket would block.
    /// Write progress counts as activity: a peer that keeps draining
    /// responses is alive, while one that stalls its receive window
    /// stops refreshing the eviction clock and is closed at
    /// `read_timeout` even with bytes still owed.
    fn flush(&mut self) -> io::Result<()> {
        while self.write_pos < self.write_buf.len() {
            match (&self.stream).write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
                Ok(n) => {
                    self.write_pos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        Ok(())
    }
}

/// Where a completion token's reply lands: connection slot (guarded by
/// `gen`), response id, and line index within the batch body.
struct TokenDest {
    slot: usize,
    gen: u64,
    resp: u64,
    line: usize,
}

/// The event loop: owns the poller, the listener, every connection,
/// and the token map routing engine completions back to batch slots.
pub(crate) struct Reactor {
    poller: Poller,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    state: Arc<ServerState>,
    queue: Arc<CompletionQueue>,
    cfg: TransportConfig,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    tokens: HashMap<u64, TokenDest>,
    next_token: u64,
    /// `/v1` lines parsed in the current pass, submitted together by
    /// [`Self::submit_parsed`]; `dests` is parallel to `group`.
    group: Vec<(Request, u64, ReplySink)>,
    dests: Vec<(u64, TokenDest)>,
    next_gen: u64,
    draining: bool,
    drain_deadline: Instant,
}

impl Reactor {
    pub(crate) fn new(
        listener: TcpListener,
        wake_rx: UnixStream,
        state: Arc<ServerState>,
        cfg: TransportConfig,
    ) -> io::Result<Reactor> {
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), KEY_LISTENER, Interest::READ)?;
        poller.add(wake_rx.as_raw_fd(), KEY_WAKE, Interest::READ)?;
        // Engine workers completing a reply poke the wake pipe so the
        // reactor leaves `wait` promptly; the write end is non-blocking
        // and a full pipe is fine (a wake byte is already pending).
        let wake_tx = state.waker.try_clone()?;
        let queue = Arc::new(CompletionQueue::new(Box::new(move || {
            let _ = (&wake_tx).write(&[1u8]);
        })));
        Ok(Reactor {
            poller,
            listener: Some(listener),
            wake_rx,
            state,
            queue,
            cfg,
            conns: Vec::new(),
            free: Vec::new(),
            tokens: HashMap::new(),
            next_token: 0,
            group: Vec::new(),
            dests: Vec::new(),
            next_gen: 0,
            draining: false,
            drain_deadline: Instant::now(),
        })
    }

    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let now = Instant::now();
            if self.state.stop.is_set() && !self.draining {
                self.begin_drain(now);
            }
            if self.draining {
                let live = self.conns.iter().filter(|c| c.is_some()).count();
                if live == 0 || now >= self.drain_deadline {
                    break;
                }
            }
            let timeout = self.next_timeout(now);
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            for &ev in &events {
                match ev.key {
                    KEY_LISTENER => self.on_accept(),
                    KEY_WAKE => self.on_wake(),
                    key => {
                        let slot = key - KEY_CONN_BASE;
                        if ev.readable {
                            self.on_readable(slot);
                        }
                        if ev.writable {
                            self.pump(slot);
                        }
                    }
                }
            }
            self.drain_completions();
            self.expire(Instant::now());
        }
        // Teardown: close the stragglers.
        for slot in 0..self.conns.len() {
            self.close_conn(slot);
        }
    }

    /// Earliest deadline the loop must wake for: the drain grace, each
    /// pending batch's fill-by-timeout, each connection's eviction
    /// clock. `None` (block forever) only with no connections and no
    /// drain in progress — then only listener/wake events matter.
    fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let mut next: Option<Instant> = if self.draining {
            Some(self.drain_deadline)
        } else {
            None
        };
        for conn in self.conns.iter().flatten() {
            let cand = conn
                .responses
                .iter()
                .find_map(|r| match r {
                    Response::Pending(p) if p.missing > 0 => Some(p.deadline),
                    _ => None,
                })
                .unwrap_or(conn.last_activity + self.cfg.read_timeout);
            next = Some(match next {
                Some(n) => n.min(cand),
                None => cand,
            });
        }
        next.map(|t| t.saturating_duration_since(now))
    }

    fn on_accept(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.state.stop.is_set() {
                        // Drain the accept queue so stragglers get a
                        // reset instead of a hang.
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err()
                        || stream.set_nodelay(true).is_err()
                        || fix_send_buffer(&stream).is_err()
                    {
                        continue;
                    }
                    let slot = match self.free.pop() {
                        Some(s) => s,
                        None => {
                            self.conns.push(None);
                            self.conns.len() - 1
                        }
                    };
                    if self
                        .poller
                        .add(stream.as_raw_fd(), slot + KEY_CONN_BASE, Interest::READ)
                        .is_err()
                    {
                        self.free.push(slot);
                        continue;
                    }
                    let gen = self.next_gen;
                    self.next_gen += 1;
                    self.conns[slot] = Some(Conn::new(stream, gen));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Drains the wake pipe; the level-triggered poller would
    /// otherwise re-report it forever.
    fn on_wake(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => break,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break, // WouldBlock: drained.
            }
        }
    }

    fn on_readable(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                return;
            };
            if conn.read_closed || conn.no_new_requests || conn.write_backlog() >= WRITE_BUF_CAP {
                break;
            }
            let mut chunk = [0u8; READ_CHUNK];
            let n = match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return;
                }
            };
            conn.read_buf.extend_from_slice(&chunk[..n]);
            let ingress = Instant::now();
            self.parse_loop(slot, ingress);
            if n < READ_CHUNK {
                // Short read: the socket is likely drained. The
                // level-triggered poller re-reports if not.
                break;
            }
        }
        self.pump(slot);
    }

    /// Parses every complete request sitting in the read buffer, then
    /// submits the pass's `/v1` lines as one group — a pipelined burst
    /// reaches each worker as one batch.
    fn parse_loop(&mut self, slot: usize, ingress: Instant) {
        self.parse_requests(slot);
        self.submit_parsed(ingress);
    }

    fn parse_requests(&mut self, slot: usize) {
        loop {
            enum Parsed {
                Req(HttpRequest),
                Bad(String),
            }
            let parsed = {
                let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                    return;
                };
                if conn.no_new_requests
                    || conn.read_buf.is_empty()
                    || conn.write_backlog() >= WRITE_BUF_CAP
                {
                    return;
                }
                match try_parse_request(&conn.read_buf) {
                    Ok(None) => return,
                    Ok(Some((req, consumed))) => {
                        conn.read_buf.drain(..consumed);
                        conn.last_activity = Instant::now();
                        Parsed::Req(req)
                    }
                    Err(msg) => Parsed::Bad(msg),
                }
            };
            match parsed {
                Parsed::Req(req) => self.handle_request(slot, req),
                Parsed::Bad(msg) => {
                    if let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) {
                        conn.no_new_requests = true;
                    }
                    let body = format!("{}\n", error_line("bad_request", Some(&msg)));
                    self.queue_ready(slot, 400, &body, CT_JSON, true);
                    return;
                }
            }
        }
    }

    fn handle_request(&mut self, slot: usize, req: HttpRequest) {
        // Split the query string off the path; only /metrics reads it.
        let (path, query) = match req.path.split_once('?') {
            Some((p, q)) => (p, q),
            None => (req.path.as_str(), ""),
        };
        let shutdown = req.method == "POST" && path == "/shutdown";
        let close = req.close || shutdown;
        if close {
            if let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) {
                conn.no_new_requests = true;
            }
        }
        if shutdown {
            // Stop *before* queuing the acknowledgement: a client that
            // fires /shutdown and disconnects without reading the
            // reply must still take the server down.
            self.state.request_stop();
            let body = format!(
                "{}\n",
                Json::obj(vec![("status", Json::str("shutting_down"))])
            );
            self.queue_ready(slot, 200, &body, CT_JSON, true);
            return;
        }
        if req.method == "POST" && path == "/v1" {
            self.queue_v1(slot, &req.body, close);
            return;
        }
        let (status, body, ct) = route_basic(&req.method, path, query, &self.state.service);
        self.queue_ready(slot, status, &body, ct, close);
    }

    /// Adds every line of a newline-JSON `/v1` body to the pass's
    /// submission group, preserving order: each parsed line reserves a
    /// `None` slot, filled when its reply arrives — at submission for
    /// cache hits, inline reads and rejections. The HTTP status
    /// reflects the single-line case (503 overloaded / 400 invalid);
    /// multi-line bodies always get 200 with per-line `"ok"` flags.
    fn queue_v1(&mut self, slot: usize, body: &str, close: bool) {
        let lines: Vec<&str> = body.lines().filter(|l| !l.trim().is_empty()).collect();
        if lines.is_empty() {
            let body = format!("{}\n", error_line("empty_body", None));
            self.queue_ready(slot, 400, &body, CT_JSON, close);
            return;
        }
        let single = lines.len() == 1;
        let (gen, resp) = {
            let Some(conn) = self.conns.get(slot).and_then(|c| c.as_ref()) else {
                return;
            };
            (conn.gen, conn.next_resp)
        };
        let mut slots: Vec<Option<String>> = Vec::with_capacity(lines.len());
        let mut missing = 0usize;
        let mut status = 200u16;
        for (i, line) in lines.iter().enumerate() {
            match parse_request(line) {
                Err(msg) => {
                    if single {
                        status = 400;
                    }
                    slots.push(Some(error_line("invalid", Some(&msg)).to_string()));
                }
                Ok(req) => {
                    let token = self.next_token;
                    self.next_token += 1;
                    let sink = ReplySink::Completion {
                        queue: Arc::clone(&self.queue),
                        token,
                    };
                    self.group.push((req, 0, sink));
                    let dest = TokenDest {
                        slot,
                        gen,
                        resp,
                        line: i,
                    };
                    self.dests.push((token, dest));
                    slots.push(None);
                    missing += 1;
                }
            }
        }
        let deadline = Instant::now() + self.cfg.read_timeout;
        if let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) {
            conn.responses.push_back(Response::Pending(PendingBatch {
                slots,
                missing,
                status,
                single,
                close,
                deadline,
            }));
            conn.next_resp += 1;
        }
    }

    /// Submits the `/v1` lines parsed since the last call as one group.
    /// Lines the service answers at once (cache hits, reads run inline
    /// on this thread, rejections) fill their slots here; the
    /// others are routed by token when their replies complete.
    fn submit_parsed(&mut self, ingress: Instant) {
        if self.group.is_empty() {
            return;
        }
        // Nothing is submitted before the whole pass is parsed, so every
        // line's parse stage ends here.
        let parse_ns = dur_ns(ingress.elapsed());
        let mut group = std::mem::take(&mut self.group);
        for entry in &mut group {
            entry.1 = parse_ns;
        }
        let outcomes = self.state.service.submit_group(group, true);
        for ((token, dest), outcome) in std::mem::take(&mut self.dests).into_iter().zip(outcomes) {
            let (line, status) = match outcome {
                Ok(None) => {
                    self.tokens.insert(token, dest);
                    continue;
                }
                Ok(Some(reply)) => (render_reply(&reply), None),
                Err(e) => {
                    let (kind, message): (&str, Option<&str>) = match &e {
                        ServeError::Overloaded => ("overloaded", None),
                        ServeError::ShuttingDown => ("shutting_down", None),
                        ServeError::Timeout => ("timeout", None),
                        ServeError::Invalid(m) => ("invalid", Some(m.as_str())),
                    };
                    let status = match e {
                        ServeError::Invalid(_) => 400,
                        _ => 503,
                    };
                    (error_line(kind, message).to_string(), Some(status))
                }
            };
            self.fill(&dest, line, status);
        }
    }

    /// Fills line `dest.line` of its pending batch, unless the
    /// connection or batch is gone or the line was already filled (by
    /// the timeout sweep). `status`, if given, becomes a single-line
    /// batch's HTTP status. Returns whether the line was filled.
    fn fill(&mut self, dest: &TokenDest, line: String, status: Option<u16>) -> bool {
        let Some(conn) = self.conns.get_mut(dest.slot).and_then(|c| c.as_mut()) else {
            return false;
        };
        if conn.gen != dest.gen {
            return false;
        }
        let Some(idx) = dest.resp.checked_sub(conn.resp_base) else {
            return false;
        };
        let Some(Response::Pending(batch)) = conn.responses.get_mut(idx as usize) else {
            return false;
        };
        let Some(slot) = batch.slots.get_mut(dest.line).filter(|l| l.is_none()) else {
            return false;
        };
        *slot = Some(line);
        batch.missing = batch.missing.saturating_sub(1);
        if let (Some(status), true) = (status, batch.single) {
            batch.status = status;
        }
        true
    }

    fn queue_ready(
        &mut self,
        slot: usize,
        status: u16,
        body: &str,
        content_type: &str,
        close: bool,
    ) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) {
            conn.responses.push_back(Response::Ready(render_response(
                status,
                body,
                content_type,
                close,
            )));
            conn.next_resp += 1;
        }
    }

    /// Pump + flush + re-arm for one connection.
    ///
    /// After flushing, re-runs the parse loop whenever the write
    /// backlog has dropped back under [`WRITE_BUF_CAP`] with bytes
    /// still in `read_buf`: backpressure can strand *complete*
    /// pipelined requests there, and if the client already sent its
    /// whole burst the kernel socket is empty, so no readable event
    /// will ever re-trigger parsing — the drain itself must. The loop
    /// exits once parsing makes no progress (the residue is a request
    /// prefix awaiting more bytes) or backpressure re-engages.
    fn pump(&mut self, slot: usize) {
        loop {
            let flushed = {
                let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) else {
                    return;
                };
                conn.pump_ready();
                conn.flush()
            };
            if flushed.is_err() {
                self.close_conn(slot);
                return;
            }
            let before = {
                let Some(conn) = self.conns.get(slot).and_then(|c| c.as_ref()) else {
                    return;
                };
                if conn.no_new_requests
                    || conn.read_buf.is_empty()
                    || conn.write_backlog() >= WRITE_BUF_CAP
                {
                    break;
                }
                conn.read_buf.len()
            };
            self.parse_loop(slot, Instant::now());
            match self.conns.get(slot).and_then(|c| c.as_ref()) {
                Some(conn) if conn.read_buf.len() != before => {} // progress: pump again
                Some(_) => break,
                None => return,
            }
        }
        self.after_io(slot);
    }

    /// Closes a finished connection or re-registers its interest:
    /// readable while accepting requests under the backlog cap,
    /// writable while bytes are owed.
    fn after_io(&mut self, slot: usize) {
        let (done, desired, fd, current) = {
            let Some(conn) = self.conns.get(slot).and_then(|c| c.as_ref()) else {
                return;
            };
            let unflushed = conn.write_buf.len() - conn.write_pos;
            let done = (conn.no_new_requests || conn.read_closed)
                && conn.responses.is_empty()
                && unflushed == 0;
            let desired = Interest {
                readable: !conn.read_closed
                    && !conn.no_new_requests
                    && conn.write_backlog() < WRITE_BUF_CAP,
                writable: unflushed > 0,
            };
            (done, desired, conn.stream.as_raw_fd(), conn.interest)
        };
        if done {
            self.close_conn(slot);
            return;
        }
        if desired != current {
            if self
                .poller
                .modify(fd, slot + KEY_CONN_BASE, desired)
                .is_err()
            {
                self.close_conn(slot);
                return;
            }
            if let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.as_mut()) {
                conn.interest = desired;
            }
        }
    }

    fn close_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(|c| c.take()) else {
            return;
        };
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        let gen = conn.gen;
        // Purge token residue so late completions for this connection
        // drop instead of dangling in the map forever.
        self.tokens.retain(|_, d| !(d.slot == slot && d.gen == gen));
        self.free.push(slot);
    }

    /// Routes completed engine replies into their batch slots. Guards
    /// in order: token still live, connection still the same
    /// generation, response not already popped (timeout-filled), slot
    /// not already filled.
    fn drain_completions(&mut self) {
        let completed = self.queue.drain();
        if completed.is_empty() {
            return;
        }
        let mut touched: Vec<usize> = Vec::new();
        for (token, reply) in completed {
            let Some(dest) = self.tokens.remove(&token) else {
                continue;
            };
            if self.fill(&dest, render_reply(&reply), None) {
                touched.push(dest.slot);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for slot in touched {
            self.pump(slot);
        }
    }

    /// Deadline sweep: fills overdue pending batches with `timeout`
    /// error lines (one stuck request must not wedge the pipeline
    /// behind it) and evicts connections idle past `read_timeout` —
    /// slowloris senders, half-open peers, idle keep-alives.
    fn expire(&mut self, now: Instant) {
        for slot in 0..self.conns.len() {
            let mut filled = false;
            let mut evict = false;
            if let Some(conn) = self.conns[slot].as_mut() {
                for r in conn.responses.iter_mut() {
                    if let Response::Pending(batch) = r {
                        if batch.missing > 0 && now >= batch.deadline {
                            for line in batch.slots.iter_mut() {
                                if line.is_none() {
                                    *line = Some(error_line("timeout", None).to_string());
                                }
                            }
                            batch.missing = 0;
                            if batch.single {
                                batch.status = 503;
                            }
                            filled = true;
                        }
                    }
                }
                // Evict on inactivity *regardless of write backlog*:
                // a peer that neither sends requests nor drains its
                // responses must not pin the slot (nor spin the loop
                // on an expired deadline `expire` would never act on).
                // The one deferral: a pending batch still awaiting
                // engine replies keeps the connection alive until its
                // own deadline fills it with timeout lines — that
                // deadline is never later than `read_timeout` from
                // parse, so the deferral is bounded.
                evict = !filled
                    && now >= conn.last_activity + self.cfg.read_timeout
                    && !conn
                        .responses
                        .iter()
                        .any(|r| matches!(r, Response::Pending(b) if b.missing > 0));
            }
            if filled {
                self.pump(slot);
            } else if evict {
                self.close_conn(slot);
            }
        }
    }

    /// Shutdown observed: stop accepting (listener closed), stop
    /// parsing everywhere, give in-flight responses `drain_grace`.
    fn begin_drain(&mut self, now: Instant) {
        self.draining = true;
        self.drain_deadline = now + self.cfg.drain_grace;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(listener.as_raw_fd());
        }
        for conn in self.conns.iter_mut().flatten() {
            conn.no_new_requests = true;
        }
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                // Closes already-idle connections immediately.
                self.pump(slot);
            }
        }
    }
}

#[cfg(all(test, not(nai_model)))]
mod tests {
    use super::*;

    #[test]
    fn connection_header_parses_whole_tokens() {
        // Case-insensitive whole tokens, not substrings.
        assert_eq!(connection_close("close"), Some(true));
        assert_eq!(connection_close("Close"), Some(true));
        assert_eq!(connection_close("keep-alive"), Some(false));
        assert_eq!(connection_close("Keep-Alive"), Some(false));
        assert_eq!(connection_close("keep-alive, upgrade"), Some(false));
        assert_eq!(connection_close("upgrade, close"), Some(true));
        // close wins even when keep-alive is also present.
        assert_eq!(connection_close("keep-alive, close"), Some(true));
        // Unknown tokens leave the version default in charge.
        assert_eq!(connection_close("upgrade"), None);
        // A substring scan would have tripped on these.
        assert_eq!(connection_close("not-close"), None);
        assert_eq!(connection_close("closed"), None);
    }

    #[test]
    fn connection_defaults_follow_http_version() {
        let parse = |raw: &str| {
            try_parse_request(raw.as_bytes())
                .expect("valid request")
                .expect("complete request")
                .0
        };
        // HTTP/1.1 defaults to keep-alive.
        assert!(!parse("GET /healthz HTTP/1.1\r\n\r\n").close);
        // HTTP/1.0 defaults to close...
        assert!(parse("GET /healthz HTTP/1.0\r\n\r\n").close);
        // ...unless keep-alive is explicit.
        assert!(!parse("GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").close);
        // `Connection: Close` closes an HTTP/1.1 connection.
        assert!(parse("GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n").close);
        // Token lists keep the connection alive when they say so.
        assert!(!parse("GET /healthz HTTP/1.1\r\nConnection: keep-alive, upgrade\r\n\r\n").close);
    }

    #[test]
    fn parse_is_incremental_and_restartable() {
        let full = "POST /v1 HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        // Every strict prefix is incomplete, never an error.
        for cut in 0..full.len() {
            let r = try_parse_request(&full.as_bytes()[..cut]).expect("prefix parses");
            assert!(r.is_none(), "prefix of {cut} bytes should be incomplete");
        }
        let (req, consumed) = try_parse_request(full.as_bytes())
            .expect("valid")
            .expect("complete");
        assert_eq!(consumed, full.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1");
        assert_eq!(req.body, "hello");
        assert!(!req.close);
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let a = "POST /v1 HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
        let b = "GET /metrics HTTP/1.1\r\n\r\n";
        let buf = format!("{a}{b}");
        let (first, consumed) = try_parse_request(buf.as_bytes())
            .expect("valid")
            .expect("complete");
        assert_eq!(first.body, "abc");
        assert_eq!(consumed, a.len());
        let (second, consumed2) = try_parse_request(&buf.as_bytes()[consumed..])
            .expect("valid")
            .expect("complete");
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/metrics");
        assert_eq!(consumed2, b.len());
    }

    #[test]
    fn protocol_violations_are_errors_not_hangs() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_HEADER_LINE + 1));
        assert!(try_parse_request(long_line.as_bytes()).is_err());
        // An unterminated line past the cap errors instead of buffering.
        let unterminated = "x".repeat(MAX_HEADER_LINE + 2);
        assert!(try_parse_request(unterminated.as_bytes()).is_err());
        assert!(
            try_parse_request(b"GET\r\n\r\n").is_err(),
            "short request line"
        );
        assert!(
            try_parse_request(b"GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err(),
            "bad content-length"
        );
        let huge = format!(
            "POST /v1 HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        assert!(
            try_parse_request(huge.as_bytes()).is_err(),
            "body too large"
        );
    }

    #[test]
    fn smuggling_shapes_are_rejected() {
        // Transfer-Encoding is not implemented; accepting it as
        // Content-Length: 0 would desync pipelined requests.
        assert!(
            try_parse_request(b"POST /v1 HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").is_err(),
            "chunked must be rejected"
        );
        assert!(
            try_parse_request(b"POST /v1 HTTP/1.1\r\nTransfer-Encoding: identity\r\n\r\n").is_err(),
            "any transfer-encoding must be rejected"
        );
        // Conflicting duplicate Content-Length headers reject...
        assert!(
            try_parse_request(
                b"POST /v1 HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde"
            )
            .is_err(),
            "conflicting content-length must be rejected"
        );
        // ...while repeated identical ones still parse.
        let (req, _) = try_parse_request(
            b"POST /v1 HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc",
        )
        .expect("valid")
        .expect("complete");
        assert_eq!(req.body, "abc");
    }

    #[test]
    fn responses_render_with_keepalive_and_close() {
        let keep = String::from_utf8(render_response(200, "{}\n", CT_JSON, false)).expect("utf8");
        assert!(keep.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(keep.contains("Connection: keep-alive\r\n"));
        assert!(keep.contains("Content-Length: 3\r\n"));
        let close = String::from_utf8(render_response(503, "x", CT_JSON, true)).expect("utf8");
        assert!(close.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(close.contains("Connection: close\r\n"));
    }
}
