//! Torture tests for the event-driven HTTP transport — the reactor's
//! externally visible contract, over real sockets:
//!
//! * **pipelining determinism** — a keep-alive connection writing
//!   whole bursts in one syscall and a fleet of per-request
//!   `Connection: close` connections produce **bit-equal** response
//!   streams, both matching a single-threaded engine oracle replay;
//! * **isolation** — a slowloris connection (drip-feeding a request
//!   forever) and a half-open connection (connected, then silent) are
//!   evicted on `read_timeout` without stalling concurrent healthy
//!   traffic;
//! * **drain semantics** — `/shutdown` racing an in-flight pipelined
//!   burst still answers every request of the burst before the
//!   reactor closes the connection and exits;
//! * **protocol edges** — HTTP/1.0 defaults to close, oversized
//!   bodies are rejected with 400 without killing the server.
#![cfg(not(nai_model))]

use nai_core::config::{CacheConfig, InferenceConfig, LoadShedPolicy, ServeConfig};
use nai_models::{DepthClassifier, ModelKind};
use nai_serve::{proto, HttpClient, Json, NaiService, Op, Request, Server, TransportConfig};
use nai_stream::{DynamicGraph, StreamingEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const F: usize = 6;
const K: usize = 2;
const CLASSES: usize = 4;
const SEED_NODES: usize = 90;

/// Engines with deterministic (seeded, untrained) weights: every call
/// builds a bit-identical replica, so transports and oracles agree.
fn engine() -> StreamingEngine {
    let g = nai_graph::generators::generate(
        &nai_graph::generators::GeneratorConfig {
            num_nodes: SEED_NODES,
            num_classes: CLASSES,
            feature_dim: F,
            avg_degree: 5.0,
            ..Default::default()
        },
        &mut StdRng::seed_from_u64(41),
    );
    let mut rng = StdRng::seed_from_u64(42);
    let classifiers: Vec<DepthClassifier> = (1..=K)
        .map(|d| DepthClassifier::new(ModelKind::Sgc, d, F, CLASSES, &[8], 0.0, &mut rng))
        .collect();
    StreamingEngine::with_lambda2(DynamicGraph::from_graph(&g), classifiers, None, 0.5, 0.9)
}

fn infer_cfg() -> InferenceConfig {
    InferenceConfig::distance(0.5, 1, K)
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        workers: 1, // one replica: `shard` is constant, replies are bit-stable
        max_batch: 8,
        queue_cap: 256,
        shed: LoadShedPolicy {
            trigger_fraction: 1.0,
            t_max_cap: 0, // shedding off: depths must match the oracle
        },
        cache: CacheConfig::off(),
    }
}

fn boot(cfg: TransportConfig) -> Server {
    let service = NaiService::new(vec![engine()], infer_cfg(), serve_cfg()).unwrap();
    Server::start_with(Arc::new(service), "127.0.0.1:0", cfg).unwrap()
}

fn render_line(op: &Op) -> String {
    let line = proto::render_request(&Request {
        op: op.clone(),
        shard: None,
    });
    format!("{line}\n")
}

/// A deterministic burst script: every burst is one mutation followed
/// by three reads, the first of which reads back the newest ingested
/// id — read-your-writes *within* a single pipelined burst (the
/// admission queue is FIFO, so a read admitted after a mutation
/// always observes it). Bursts carry exactly one mutation each
/// because co-batched mutations are answered by one flush after the
/// whole prefix: their predictions legitimately depend on racy batch
/// composition, which would make a bit-equality check meaningless.
fn burst_script(seed: u64, bursts: usize) -> Vec<Vec<Op>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes = SEED_NODES as u32;
    let mut last_ingested: Option<u32> = None;
    (0..bursts)
        .map(|i| {
            let mutation = if i % 2 == 0 {
                let neighbors: Vec<u32> = (0..3).map(|_| rng.gen_range(0..nodes)).collect();
                nodes += 1;
                last_ingested = Some(nodes - 1);
                Op::Ingest {
                    features: (0..F).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                    neighbors,
                }
            } else {
                let u = rng.gen_range(0..nodes);
                let v = (u + 1 + rng.gen_range(0..nodes - 1)) % nodes;
                Op::ObserveEdge { u, v }
            };
            let mut ops = vec![mutation];
            for j in 0..3 {
                let mut read = vec![rng.gen_range(0..nodes)];
                if j == 0 {
                    if let Some(fresh) = last_ingested {
                        read.push(fresh);
                    }
                }
                ops.push(Op::Infer { nodes: read });
            }
            ops
        })
        .collect()
}

#[test]
fn pipelined_bursts_and_per_request_connections_are_bit_equal_to_the_oracle() {
    let script = burst_script(9001, 8);

    // Transport A: one keep-alive connection, each burst written in a
    // single syscall, responses read back in order.
    let server = boot(TransportConfig::default());
    let addr = server.local_addr();
    let mut client = HttpClient::connect(addr).unwrap();
    let mut pipelined: Vec<(u16, String)> = Vec::new();
    for burst in &script {
        let bodies: Vec<String> = burst.iter().map(render_line).collect();
        let refs: Vec<&str> = bodies.iter().map(String::as_str).collect();
        pipelined.extend(client.pipeline("POST", "/v1", &refs).unwrap());
    }
    drop(client);
    server.shutdown();

    // Transport B: a fresh connection per request, `Connection: close`
    // on each — the old thread-per-connection usage pattern.
    let server = boot(TransportConfig::default());
    let addr = server.local_addr();
    let mut per_request: Vec<(u16, String)> = Vec::new();
    for op in script.iter().flatten() {
        let mut client = HttpClient::connect(addr).unwrap();
        per_request.push(
            client
                .request_closing("POST", "/v1", Some(&render_line(op)))
                .unwrap(),
        );
        // The server honors the close: the next read sees EOF.
        assert!(
            client.recv().is_err(),
            "connection must be closed after Connection: close"
        );
    }
    server.shutdown();

    assert_eq!(
        pipelined, per_request,
        "the transport must not change a single response byte"
    );

    // Both match a single-threaded oracle replay of the same stream.
    let mut oracle = engine();
    for (op, (status, body)) in script.iter().flatten().zip(&pipelined) {
        assert_eq!(*status, 200, "body: {body}");
        let reply = Json::parse(body.trim()).unwrap();
        assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
        match op {
            Op::Infer { nodes } => {
                let expected = oracle.infer_nodes(nodes, &infer_cfg());
                let results = reply.get("results").unwrap().as_arr().unwrap();
                assert_eq!(results.len(), nodes.len());
                for (r, &(pred, depth)) in results.iter().zip(&expected) {
                    assert_eq!(r.get("prediction").unwrap().as_u64(), Some(pred as u64));
                    assert_eq!(r.get("depth").unwrap().as_u64(), Some(depth as u64));
                }
            }
            Op::Ingest {
                features,
                neighbors,
            } => {
                let id = oracle.ingest(features, neighbors);
                let expected = oracle.flush(&infer_cfg());
                assert_eq!(reply.get("node").unwrap().as_u64(), Some(id as u64));
                assert_eq!(
                    reply.get("prediction").unwrap().as_u64(),
                    Some(expected[0].prediction as u64)
                );
            }
            Op::ObserveEdge { u, v } => {
                let added = oracle.observe_edge(*u, *v);
                assert_eq!(reply.get("added").and_then(Json::as_bool), Some(added));
            }
        }
    }
}

#[test]
fn slowloris_and_half_open_connections_are_evicted_without_stalling_others() {
    let server = boot(TransportConfig {
        read_timeout: Duration::from_millis(200),
        drain_grace: Duration::from_secs(2),
    });
    let addr = server.local_addr();

    // A half-open connection: connects, then never sends a byte.
    let mut half_open = TcpStream::connect(addr).unwrap();
    half_open
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // A slowloris: starts a request it will never finish.
    let mut slowloris = TcpStream::connect(addr).unwrap();
    slowloris
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    slowloris.write_all(b"POST /v1 HTTP/1.1\r\nHo").unwrap();

    // Healthy traffic flows past both for longer than `read_timeout`;
    // its own activity keeps refreshing its eviction clock.
    let mut client = HttpClient::connect(addr).unwrap();
    let started = Instant::now();
    let mut served = 0u32;
    while started.elapsed() < Duration::from_millis(500) {
        let line = format!("{{\"op\": \"infer\", \"nodes\": [{}]}}\n", served % 10);
        let (status, body) = client.request("POST", "/v1", Some(&line)).unwrap();
        assert_eq!(status, 200, "healthy request stalled: {body}");
        served += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(served > 10);

    // Both stuck connections were evicted: the server closed them, so
    // a blocking read observes EOF (or a reset) rather than our 5 s
    // client timeout.
    let evicted = |stream: &mut TcpStream| {
        let mut sink = [0u8; 16];
        match stream.read(&mut sink) {
            Ok(0) => true,
            Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
            Ok(_) => false,
        }
    };
    assert!(
        evicted(&mut half_open),
        "half-open connection must be closed by the eviction sweep"
    );
    assert!(
        evicted(&mut slowloris),
        "slowloris must be evicted, not waited on forever"
    );

    // The healthy connection is still serving after the evictions.
    let (status, _) = client
        .request("POST", "/v1", Some("{\"op\": \"infer\", \"nodes\": [1]}\n"))
        .unwrap();
    assert_eq!(status, 200);
    server.shutdown();
}

/// Clamps the client-side receive buffer to 16 KiB. Setting SO_RCVBUF
/// also disables the kernel's receive-buffer autotuning (which can
/// otherwise grow to tens of megabytes on loopback), so a client that
/// stops reading jams the server's write path after ~100 KiB instead
/// of letting the kernel silently absorb the whole test.
fn shrink_rcvbuf(stream: &TcpStream) {
    #[cfg(target_os = "linux")]
    const SOL_SOCKET: i32 = 1;
    #[cfg(target_os = "linux")]
    const SO_RCVBUF: i32 = 8;
    #[cfg(not(target_os = "linux"))]
    const SOL_SOCKET: i32 = 0xffff;
    #[cfg(not(target_os = "linux"))]
    const SO_RCVBUF: i32 = 0x1002;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            optname: i32,
            optval: *const std::ffi::c_void,
            optlen: u32,
        ) -> i32;
    }
    use std::os::unix::io::AsRawFd;
    let size: i32 = 16 * 1024;
    // SAFETY: plain syscall on an open fd; the kernel copies optval.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_RCVBUF,
            &size as *const i32 as *const std::ffi::c_void,
            std::mem::size_of::<i32>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF) failed");
}

/// One full `GET /metrics` exchange over a raw socket, to size the
/// flood tests: returns the wire length of a single response.
fn metrics_wire_len(addr: std::net::SocketAddr) -> usize {
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = Vec::new();
    raw.read_to_end(&mut response).unwrap();
    assert!(response.starts_with(b"HTTP/1.1 200"), "metrics probe");
    response.len()
}

#[test]
fn non_reading_peer_is_evicted_despite_write_backlog() {
    const REQ: &[u8] = b"GET /metrics HTTP/1.1\r\n\r\n";
    let read_timeout = Duration::from_millis(300);
    let server = boot(TransportConfig {
        read_timeout,
        drain_grace: Duration::from_secs(2),
    });
    let addr = server.local_addr();

    // Flood pipelined requests until the server's backpressure
    // genuinely stalls us — it stops reading once the backlog cap
    // trips and we never drain a byte, so a sustained write stall
    // means response bytes are pinned in the reactor's write backlog
    // beyond anything the kernel's socket buffers could absorb. The
    // 8 MiB ceiling (~420 MiB of implied responses) is a runtime
    // bound, not the expected stop: the stall fires long before it.
    const MAX_FLOOD_BYTES: usize = 8 * 1024 * 1024;
    let mut stalled = TcpStream::connect(addr).unwrap();
    shrink_rcvbuf(&stalled);
    stalled
        .set_write_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut written = 0usize;
    let mut stalls = 0u32;
    'flood: while written < MAX_FLOOD_BYTES {
        let mut line = REQ;
        while !line.is_empty() {
            match stalled.write(line) {
                Ok(0) => break 'flood,
                Ok(n) => {
                    written += n;
                    line = &line[n..];
                    stalls = 0;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    stalls += 1;
                    if stalls >= 3 {
                        break 'flood; // ~300 ms without a byte: saturated
                    }
                }
                Err(_) => break 'flood, // reset: already evicted
            }
        }
    }
    let sent = written / REQ.len();
    assert!(sent > 16, "flood never got going: {sent}");

    // Never read a byte for well past `read_timeout`: no write
    // progress is possible, so the eviction sweep must fire even
    // though the connection still owes response bytes.
    std::thread::sleep(read_timeout * 4);

    // Healthy traffic was never pinned behind the stalled peer.
    let (status, _) = nai_serve::http_call(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);

    // The server must have closed us: draining what the kernel
    // buffered ends in EOF or a reset, never our 2 s client timeout,
    // and the undelivered backlog means we see fewer responses than
    // requests we sent.
    let mut drained = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    let terminated = loop {
        match stalled.read(&mut chunk) {
            Ok(0) => break true,
            Ok(n) => drained.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => break true,
            Err(_) => break false, // timed out: the server never evicted us
        }
    };
    assert!(terminated, "non-reading peer must be evicted, not held");
    let received = drained.windows(12).filter(|w| w == b"HTTP/1.1 200").count();
    assert!(
        received < sent,
        "eviction must drop the stalled backlog ({received} responses for {sent} requests)"
    );
    server.shutdown();
}

#[test]
fn backpressured_pipelined_burst_is_fully_answered_once_the_client_drains() {
    let server = boot(TransportConfig::default());
    let addr = server.local_addr();

    // Size the burst so its responses overflow both the reactor's
    // write-backlog cap and the (clamped) kernel socket buffers:
    // parsing stops mid-burst with complete requests stranded in the
    // reactor's read buffer and nothing left in the kernel socket.
    let burst = (2 * 1024 * 1024 / metrics_wire_len(addr)).max(256);
    let mut client = TcpStream::connect(addr).unwrap();
    shrink_rcvbuf(&client);
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let writer = {
        let mut tx = client.try_clone().unwrap();
        std::thread::spawn(move || {
            let req = b"GET /metrics HTTP/1.1\r\n\r\n".repeat(burst);
            tx.write_all(&req).unwrap();
        })
    };

    // Let the burst land and the backpressure stall settle before
    // draining a single byte — the stranded tail can then only be
    // parsed by the backlog-drain path, never by a readable event.
    std::thread::sleep(Duration::from_millis(300));

    // Drain everything: every request of the burst must be answered.
    let mut received = 0usize;
    let mut tail: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    while received < burst {
        let n = match client.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("burst stalled after {received}/{burst} responses: {e}"),
        };
        tail.extend_from_slice(&chunk[..n]);
        received += tail.windows(12).filter(|w| w == b"HTTP/1.1 200").count();
        // Keep only a potential split status-line prefix across reads.
        let keep = tail.len().min(11);
        tail = tail.split_off(tail.len() - keep);
    }
    assert_eq!(
        received, burst,
        "backpressure must not strand pipelined requests"
    );
    writer.join().unwrap();
    server.shutdown();
}

#[test]
fn shutdown_races_a_pipelined_burst_without_losing_responses() {
    const BURST: usize = 16;
    let server = boot(TransportConfig::default());
    let addr = server.local_addr();

    // One client writes a whole burst, then a second connection fires
    // /shutdown while those requests are in flight.
    let mut client = HttpClient::connect(addr).unwrap();
    let bodies: Vec<String> = (0..BURST)
        .map(|i| format!("{{\"op\": \"infer\", \"nodes\": [{}]}}\n", i % SEED_NODES))
        .collect();
    for body in &bodies {
        client.send("POST", "/v1", Some(body)).unwrap();
    }
    let (status, _) = nai_serve::http_call(addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(status, 200);

    // Drain contract: every request admitted before the stop must be
    // answered (200) or refused as shutting down (503) — never dropped
    // with an unanswered slot or a mid-stream hang.
    for _ in 0..BURST {
        let (status, body) = client.recv().expect("burst response lost in shutdown");
        assert!(
            status == 200 || status == 503,
            "unexpected status {status}: {body}"
        );
    }
    // After the burst is answered the reactor closes the connection
    // and exits; join() must return promptly.
    assert!(client.recv().is_err(), "connection must close after drain");
    let joined = Instant::now();
    server.join();
    assert!(
        joined.elapsed() < Duration::from_secs(5),
        "reactor failed to exit after drain"
    );
}

#[test]
fn http_10_and_oversized_bodies_follow_the_protocol_edges() {
    let server = boot(TransportConfig::default());
    let addr = server.local_addr();

    // HTTP/1.0 without a Connection header defaults to close.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let mut response = Vec::new();
    raw.read_to_end(&mut response).unwrap(); // EOF = server closed
    let response = String::from_utf8(response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200"), "{response}");
    assert!(
        response.to_ascii_lowercase().contains("connection: close"),
        "HTTP/1.0 default must be advertised: {response}"
    );

    // An oversized Content-Length is refused at header time with 400;
    // the server survives and the next connection still works.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(b"POST /v1 HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n")
        .unwrap();
    let mut response = Vec::new();
    raw.read_to_end(&mut response).unwrap();
    let response = String::from_utf8(response).unwrap();
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");

    let (status, _) = nai_serve::http_call(addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 200);
    server.shutdown();
}
