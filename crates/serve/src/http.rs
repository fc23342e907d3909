//! HTTP/1.1 front end: endpoint routing, rendering, and server
//! lifecycle over the event-driven transport in [`crate::reactor`].
//!
//! Endpoints:
//!
//! | method | path          | body                  | answer |
//! |--------|---------------|-----------------------|--------|
//! | GET    | `/healthz`    | —                     | deployment facts + queue depth |
//! | GET    | `/metrics`    | —                     | [`crate::service::MetricsSnapshot`] as JSON |
//! | GET    | `/metrics?format=prom` | —            | the same snapshot as Prometheus text exposition 0.0.4 |
//! | GET    | `/debug/slow` | —                     | slowest recent requests with full stage timelines, JSON |
//! | POST   | `/v1`         | newline-JSON requests | newline-JSON replies, in order |
//! | POST   | `/shutdown`   | —                     | ack, then the server stops accepting |
//!
//! The server speaks just enough HTTP/1.1 for `curl`, the bundled
//! [`crate::client::HttpClient`], and browsers: request line, headers,
//! `Content-Length` bodies, keep-alive (closed on request or on
//! HTTP/1.0), and request pipelining on persistent connections. One
//! reactor thread multiplexes every connection over a readiness
//! poller ([`crate::sync::poll`]); per-request work is bounded by the
//! service's admission control and per-connection memory by the
//! reactor's write-backlog cap, so neither connection count nor
//! pipelining depth is an unbounded resource. This replaced a
//! thread-per-connection loop whose blocking `/v1` handler parked one
//! OS thread per in-flight request.

use crate::json::Json;
use crate::proto::error_line;
use crate::reactor::{Reactor, TransportConfig};
use crate::service::NaiService;
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::thread::{self, JoinHandle};
use crate::sync::{lock_recover, Arc, Condvar, Mutex};
use nai_obs::{PromWriter, Stage, TraceRecord};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// Content type of every JSON body.
pub(crate) const CT_JSON: &str = "application/json";
/// Content type of the Prometheus text exposition format.
const CT_PROM: &str = "text/plain; version=0.0.4";

/// Shutdown gate for the connection pool: a stop flag plus a counted
/// set of active connections with a condition variable for the drain.
///
/// This replaced a `stop: AtomicBool` + `active_conns: AtomicUsize`
/// pair whose join path slept in a 5 ms poll loop: the count now lives
/// under a mutex with [`Self::end_conn`] signalling the last exit, so
/// [`Self::await_drained`] wakes exactly when the pool empties (or the
/// grace deadline fires) — no poll latency, no schedule where the
/// notify is lost. `tests/model.rs` checks under `--cfg nai_model`
/// that stop/begin/end/await interleavings never hang and never strand
/// an accepted connection uncounted.
pub struct ConnGate {
    stop: AtomicBool,
    active: Mutex<usize>,
    drained: Condvar,
}

impl ConnGate {
    /// An open gate with no active connections.
    pub fn new() -> Self {
        Self {
            stop: AtomicBool::new(false),
            active: Mutex::new(0),
            drained: Condvar::new(),
        }
    }

    /// Whether shutdown has been requested. Acquire: pairs with the
    /// AcqRel swap in [`Self::request_stop`], so a connection accepted
    /// after the observing load sees everything the stopper did first.
    pub fn stopping(&self) -> bool {
        // Acquire: pairs with request_stop's AcqRel swap (see doc).
        self.stop.load(Ordering::Acquire)
    }

    /// Latches the stop flag; returns whether this call was the first
    /// (the swap makes concurrent stop requests race-free: exactly one
    /// caller performs the reactor-waking side effect).
    pub fn request_stop(&self) -> bool {
        // AcqRel: exactly one winner, and the winner's prior writes
        // are visible to every later stopping() load.
        !self.stop.swap(true, Ordering::AcqRel)
    }

    /// Counts a connection in (poison-recovering: the count is a plain
    /// integer a panic cannot leave half-updated).
    pub fn begin_conn(&self) {
        *lock_recover(&self.active) += 1;
    }

    /// Counts a connection out, waking the drain waiter when the pool
    /// empties.
    pub fn end_conn(&self) {
        let mut active = lock_recover(&self.active);
        debug_assert!(*active > 0, "end_conn without begin_conn");
        *active = active.saturating_sub(1);
        if *active == 0 {
            self.drained.notify_all();
        }
    }

    /// Blocks until every counted connection has ended, or `grace` has
    /// elapsed; returns whether the pool drained. Loops only on real
    /// wakeups — one timeout ends the wait (re-arming would extend the
    /// grace unboundedly under repeated spurious wakeups).
    pub fn await_drained(&self, grace: Duration) -> bool {
        let mut active = lock_recover(&self.active);
        while *active > 0 {
            let (guard, timeout) = self
                .drained
                .wait_timeout(active, grace)
                .unwrap_or_else(|p| p.into_inner());
            active = guard;
            if timeout.timed_out() {
                return *active == 0;
            }
        }
        true
    }
}

impl Default for ConnGate {
    fn default() -> Self {
        Self::new()
    }
}

pub(crate) struct ServerState {
    pub(crate) service: Arc<NaiService>,
    pub(crate) addr: SocketAddr,
    pub(crate) gate: ConnGate,
    /// Write end of the reactor's wake pipe: one byte makes the
    /// reactor leave `Poller::wait` and re-check the stop flag and the
    /// completion queue. Non-blocking — a full pipe means a wake is
    /// already pending, so the dropped byte is harmless.
    pub(crate) waker: UnixStream,
}

impl ServerState {
    pub(crate) fn request_stop(&self) {
        if self.gate.request_stop() {
            self.wake();
        }
    }

    pub(crate) fn wake(&self) {
        let _ = (&self.waker).write(&[1u8]);
    }
}

/// A running HTTP server; dropping it does *not* stop it — call
/// [`Server::shutdown`] (or POST `/shutdown`) then [`Server::join`].
pub struct Server {
    state: Arc<ServerState>,
    reactor: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// reactor for `service` with default [`TransportConfig`] knobs.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn start(service: Arc<NaiService>, addr: impl ToSocketAddrs) -> std::io::Result<Server> {
        Self::start_with(service, addr, TransportConfig::default())
    }

    /// As [`Server::start`], with explicit transport knobs.
    ///
    /// # Errors
    /// Propagates bind / poller-setup failures.
    pub fn start_with(
        service: Arc<NaiService>,
        addr: impl ToSocketAddrs,
        cfg: TransportConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let (wake_rx, waker) = UnixStream::pair()?;
        wake_rx.set_nonblocking(true)?;
        waker.set_nonblocking(true)?;
        let state = Arc::new(ServerState {
            service,
            addr: local,
            gate: ConnGate::new(),
            waker,
        });
        let reactor = Reactor::new(listener, wake_rx, Arc::clone(&state), cfg)?;
        let handle = thread::Builder::new()
            .name("nai-serve-reactor".to_string())
            .spawn(move || reactor.run())
            // nai-lint: allow(hot-path-panic) -- spawn fails only on OS
            // resource exhaustion at startup, before any request is in flight.
            .expect("spawn reactor thread");
        Ok(Server {
            state,
            reactor: Some(handle),
        })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Signals the reactor to stop (equivalent to POST `/shutdown`).
    pub fn shutdown(&self) {
        self.state.request_stop();
    }

    /// Blocks until the reactor has drained and stopped (after
    /// [`Server::shutdown`] or a POST `/shutdown`), then shuts the
    /// service itself down (draining every admitted request).
    pub fn join(mut self) {
        if let Some(handle) = self.reactor.take() {
            let _ = handle.join();
        }
        // The reactor counts every connection out before exiting, so
        // this returns immediately; it stays as a guard on the gate's
        // invariant (and would bound the wait if that ever broke).
        let _ = self.state.gate.await_drained(Duration::from_secs(2));
        self.state.service.shutdown();
    }
}

/// Routes the bodyless GET endpoints plus the 404/405 fallbacks; the
/// reactor handles `POST /v1` and `POST /shutdown` itself (they need
/// the connection's response queue and the server's stop switch).
pub(crate) fn route_basic(
    method: &str,
    path: &str,
    query: &str,
    service: &NaiService,
) -> (u16, String, &'static str) {
    let json = |status: u16, body: String| (status, body, CT_JSON);
    match (method, path) {
        ("GET", "/healthz") => json(200, format!("{}\n", health_json(service))),
        ("GET", "/metrics") => {
            if query.split('&').any(|kv| kv == "format=prom") {
                (200, metrics_prom(service), CT_PROM)
            } else {
                json(200, format!("{}\n", metrics_json(service)))
            }
        }
        ("GET", "/debug/slow") => json(200, format!("{}\n", slow_json(service))),
        ("GET" | "POST", _) => json(404, format!("{}\n", error_line("not_found", None))),
        _ => json(405, format!("{}\n", error_line("method_not_allowed", None))),
    }
}

fn health_json(service: &NaiService) -> Json {
    let info = service.info();
    Json::obj(vec![
        ("status", Json::str("ok")),
        ("shards", Json::uint(info.shards as u64)),
        ("feature_dim", Json::uint(info.feature_dim as u64)),
        ("k", Json::uint(info.k as u64)),
        ("seed_nodes", Json::uint(info.seed_nodes as u64)),
        ("queue_depth", Json::uint(service.queue_depth() as u64)),
    ])
}

fn metrics_json(service: &NaiService) -> Json {
    let m = service.metrics();
    // Histograms record nanoseconds; the JSON surface keeps its
    // microsecond convention. Quantiles as integers, means as floats
    // (the stage-accounting test sums stage means against the
    // end-to-end mean — rounding to whole µs would eat the budget).
    // Nonzero sub-microsecond spans clamp to 1µs instead of truncating
    // to 0 — cache hits answer in hundreds of nanoseconds, and a
    // dashboard reading `p50: 0` would call that "no latency data".
    // The exact values live in the additive `latency_ns` block.
    let us = |ns: u64| Json::uint(if ns == 0 { 0 } else { (ns / 1_000).max(1) });
    let us_f = |ns: f64| Json::Num(ns / 1_000.0);
    let lq = m.latency.quantiles(&[0.5, 0.95, 0.99]);
    Json::obj(vec![
        ("queue_depth", Json::uint(m.queue_depth as u64)),
        ("served", Json::uint(m.served)),
        ("overloaded", Json::uint(m.overloaded)),
        ("batches", Json::uint(m.batches)),
        ("degraded_batches", Json::uint(m.degraded_batches)),
        ("shed_ops", Json::uint(m.shed_ops)),
        ("edges_observed", Json::uint(m.edges_observed)),
        ("op_errors", Json::uint(m.op_errors)),
        ("cache_hits", Json::uint(m.cache_hits)),
        ("cache_misses", Json::uint(m.cache_misses)),
        ("cache_evicted", Json::uint(m.cache_evicted)),
        ("cache_invalidated", Json::uint(m.cache_invalidated)),
        (
            "latency_us",
            Json::obj(vec![
                ("p50", us(lq[0])),
                ("p95", us(lq[1])),
                ("p99", us(lq[2])),
                ("max", us(m.latency.max())),
                ("mean", us_f(m.latency.mean())),
            ]),
        ),
        (
            // Exact nanosecond quantiles, for consumers that care
            // about the sub-microsecond cache-hit regime the clamped
            // `latency_us` block rounds away.
            "latency_ns",
            Json::obj(vec![
                ("p50", Json::uint(lq[0])),
                ("p95", Json::uint(lq[1])),
                ("p99", Json::uint(lq[2])),
                ("max", Json::uint(m.latency.max())),
            ]),
        ),
        (
            "stages",
            Json::Obj(
                Stage::ALL
                    .iter()
                    .map(|&s| {
                        let h = &m.stages[s.index()];
                        let q = h.quantiles(&[0.5, 0.95, 0.99]);
                        (
                            s.name().to_string(),
                            Json::obj(vec![
                                ("count", Json::uint(h.count())),
                                ("mean_us", us_f(h.mean())),
                                ("p50_us", us(q[0])),
                                ("p95_us", us(q[1])),
                                ("p99_us", us(q[2])),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "batch",
            Json::obj(vec![
                ("closed_on_max_batch", Json::uint(m.closed_on_max_batch)),
                ("closed_on_idle", Json::uint(m.closed_on_idle)),
                ("mean_size", Json::Num(m.batch_sizes.mean())),
                ("p99_size", Json::uint(m.batch_sizes.quantile(0.99))),
                (
                    "size_histogram",
                    Json::Arr(
                        m.batch_sizes
                            .exact_small_counts()
                            .iter()
                            .map(|&c| Json::uint(c))
                            .collect(),
                    ),
                ),
            ]),
        ),
        ("mean_depth", Json::Num(m.mean_depth())),
        (
            "depth_histogram",
            Json::Arr(
                m.depths
                    .exact_small_counts()
                    .iter()
                    .map(|&c| Json::uint(c))
                    .collect(),
            ),
        ),
        ("throughput", Json::Num(m.throughput())),
        (
            "macs",
            Json::obj(vec![
                ("propagation", Json::uint(m.macs.propagation)),
                ("nap", Json::uint(m.macs.nap)),
                ("classification", Json::uint(m.macs.classification)),
                // Replicated mutation work, attributed once (max over
                // replicas) — never multiplied by the shard count.
                ("replication", Json::uint(m.macs.replication)),
                ("total", Json::uint(m.macs.total())),
            ]),
        ),
    ])
}

/// The same snapshot as Prometheus text exposition 0.0.4: counters as
/// `_total` series, durations in seconds, dimensions as labels, and the
/// log-bucketed histograms as native cumulative `_bucket`/`_sum`/
/// `_count` series.
fn metrics_prom(service: &NaiService) -> String {
    let m = service.metrics();
    let mut w = PromWriter::new();
    for (name, help, value) in [
        (
            "nai_requests_served_total",
            "Predictions answered (one per node result; cache hits included).",
            m.served,
        ),
        (
            "nai_overloaded_total",
            "Submissions rejected at the admission bound.",
            m.overloaded,
        ),
        ("nai_batches_total", "Batches dispatched.", m.batches),
        (
            "nai_degraded_batches_total",
            "Batches dispatched under a load-shed depth budget.",
            m.degraded_batches,
        ),
        (
            "nai_shed_ops_total",
            "Requests dispatched inside degraded batches.",
            m.shed_ops,
        ),
        (
            "nai_edges_observed_total",
            "Edge mutations answered.",
            m.edges_observed,
        ),
        (
            "nai_op_errors_total",
            "Per-op validation failures answered.",
            m.op_errors,
        ),
        (
            "nai_cache_hits_total",
            "Reads answered entirely from the prediction cache.",
            m.cache_hits,
        ),
        (
            "nai_cache_misses_total",
            "Reads that consulted the cache and fell through.",
            m.cache_misses,
        ),
        (
            "nai_cache_evicted_total",
            "Cache entries dropped under capacity pressure.",
            m.cache_evicted,
        ),
        (
            "nai_cache_invalidated_total",
            "Cache entries dropped by mutation invalidation.",
            m.cache_invalidated,
        ),
    ] {
        w.family(name, "counter", help);
        w.counter(name, &[], value);
    }
    w.family(
        "nai_batch_closed_total",
        "counter",
        "Batches closed, by close reason (max_batch, idle).",
    );
    for (reason, value) in [
        ("max_batch", m.closed_on_max_batch),
        ("idle", m.closed_on_idle),
    ] {
        w.counter("nai_batch_closed_total", &[("reason", reason)], value);
    }
    w.family(
        "nai_macs_total",
        "counter",
        "Cumulative multiply-accumulates, by engine stage.",
    );
    for (stage, value) in [
        ("propagation", m.macs.propagation),
        ("nap", m.macs.nap),
        ("classification", m.macs.classification),
        ("replication", m.macs.replication),
    ] {
        w.counter("nai_macs_total", &[("stage", stage)], value);
    }
    w.family(
        "nai_queue_depth",
        "gauge",
        "Requests currently queued or being served.",
    );
    w.gauge("nai_queue_depth", &[], m.queue_depth as f64);
    w.family(
        "nai_request_duration_seconds",
        "histogram",
        "End-to-end latency (transport ingress or admission to reply), one sample per prediction.",
    );
    w.histogram("nai_request_duration_seconds", &[], &m.latency, 1e-9);
    w.family(
        "nai_request_stage_duration_seconds",
        "histogram",
        "Per-stage request lifecycle spans, one sample per request.",
    );
    for s in Stage::ALL {
        w.histogram(
            "nai_request_stage_duration_seconds",
            &[("stage", s.name())],
            &m.stages[s.index()],
            1e-9,
        );
    }
    w.family(
        "nai_batch_size",
        "histogram",
        "Requests per dispatched batch.",
    );
    w.histogram("nai_batch_size", &[], &m.batch_sizes, 1.0);
    w.family(
        "nai_exit_depth",
        "histogram",
        "NAP exit depth, one sample per prediction.",
    );
    w.histogram("nai_exit_depth", &[], &m.depths, 1.0);
    w.finish()
}

/// `GET /debug/slow`: the flight recorder's slowest recent requests,
/// slowest first, each with its full stage timeline.
fn slow_json(service: &NaiService) -> Json {
    let traces = service.slow_traces();
    Json::obj(vec![
        ("count", Json::uint(traces.len() as u64)),
        ("traces", Json::Arr(traces.iter().map(trace_json).collect())),
    ])
}

fn trace_json(t: &TraceRecord) -> Json {
    Json::obj(vec![
        ("trace_id", Json::uint(t.trace_id)),
        ("total_us", Json::Num(t.total_ns as f64 / 1_000.0)),
        (
            "stages_us",
            Json::Obj(
                Stage::ALL
                    .iter()
                    .map(|&s| {
                        (
                            s.name().to_string(),
                            Json::Num(t.stages.get(s) as f64 / 1_000.0),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "nodes",
            Json::Arr(t.nodes.iter().map(|&n| Json::uint(n as u64)).collect()),
        ),
        (
            "depths",
            Json::Arr(t.depths.iter().map(|&d| Json::uint(d as u64)).collect()),
        ),
        ("cache_hit", Json::Bool(t.cache_hit)),
        ("applied_seq", Json::uint(t.applied_seq)),
        ("batch_size", Json::uint(t.batch_size as u64)),
        ("close_reason", Json::str(t.close_reason)),
    ])
}
