//! A minimal HTTP scrape endpoint over the server's [`Telemetry`].
//!
//! Production metrics pipelines pull: Prometheus scrapes an HTTP
//! endpoint on an interval, dashboards poll a JSON one. This module
//! serves both from a plain [`std::net::TcpListener`] — no async
//! runtime, no HTTP framework, no new dependency — because the two
//! responses it ever produces (a [`Telemetry::render_prometheus`]
//! text page and a [`TelemetrySnapshot::to_json`] document) need
//! nothing beyond status-line-plus-headers framing:
//!
//! | path | response |
//! |---|---|
//! | `GET /metrics` | Prometheus text exposition (`text/plain; version=0.0.4`) |
//! | `GET /snapshot` | the full [`TelemetrySnapshot`] as canonical JSON |
//!
//! ```no_run
//! # use decisionflow::server::EngineServer;
//! # use decisionflow::telemetry::MetricsServer;
//! let server = EngineServer::builder().shards(4).strategy("PSE100".parse().unwrap()).build().unwrap();
//! let metrics = MetricsServer::bind("127.0.0.1:0", server.telemetry()).unwrap();
//! println!("scrape me at http://{}/metrics", metrics.addr());
//! ```
//!
//! The endpoint runs on one dedicated thread and serves requests
//! sequentially: a scrape is two lock-free snapshots and a render,
//! microseconds of work, and metrics endpoints see one client every
//! few seconds — concurrency would buy nothing but threads. Requests
//! are bounded (4 KiB of header, 2 s of socket inactivity) so a stuck
//! or malicious client cannot wedge the endpoint. Dropping the handle
//! stops the thread.
//!
//! [`TelemetrySnapshot`]: crate::telemetry::TelemetrySnapshot
//! [`TelemetrySnapshot::to_json`]: crate::telemetry::TelemetrySnapshot::to_json

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::telemetry::Telemetry;

/// Largest request head (request line + headers) the endpoint reads;
/// longer requests are answered `431` and dropped.
const MAX_HEAD_BYTES: usize = 4096;

/// Per-connection socket read/write timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// A running metrics endpoint; see the [module docs](self).
///
/// The listener thread holds a clone of the [`Telemetry`] handle (it
/// is all `Arc`s), so the endpoint keeps serving even after the
/// `EngineServer` it observes is dropped — final post-mortem scrapes
/// included.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (use port 0 for an OS-assigned port, then read it
    /// back from [`MetricsServer::addr`]) and start serving
    /// `telemetry` on a dedicated thread.
    pub fn bind(addr: impl ToSocketAddrs, telemetry: Telemetry) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let thread = std::thread::Builder::new()
            .name("dflow-metrics".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    // ordering: pairs with the Drop-side store; the
                    // wake-up self-connect sequences the two, SeqCst
                    // keeps the latch unambiguous.
                    if flag.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // One slow client must not starve the next scrape.
                    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
                    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
                    let _ = serve_one(stream, &telemetry);
                }
            })?;
        Ok(MetricsServer {
            addr,
            shutdown,
            thread: Some(thread),
        })
    }

    /// The bound address, with the OS-assigned port resolved.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        // ordering: pairs with the accept-loop load (see above).
        self.shutdown.store(true, Ordering::SeqCst);
        // `incoming()` blocks in accept(2); a throwaway self-connect
        // wakes it so it observes the flag and exits. A wildcard bind
        // (0.0.0.0 / ::) is not a connectable destination on every
        // platform — aim the wake-up at loopback on the bound port.
        let wake = if self.addr.ip().is_unspecified() {
            let loopback: IpAddr = match self.addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            };
            SocketAddr::new(loopback, self.addr.port())
        } else {
            self.addr
        };
        let _ = TcpStream::connect(wake);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Read one request head and write the matching response.
fn serve_one(stream: TcpStream, telemetry: &Telemetry) -> io::Result<()> {
    let mut reader = BufReader::new(stream);
    let mut head = String::new();
    let mut line = String::new();
    // Request line, then headers until the blank line. The handler
    // never reads a body: GET has none, and anything else is rejected
    // by method before a body would matter.
    loop {
        line.clear();
        let n = reader
            .by_ref()
            .take(MAX_HEAD_BYTES as u64)
            .read_line(&mut line)?;
        if head.len() + n > MAX_HEAD_BYTES {
            let mut stream = reader.into_inner();
            return respond(
                &mut stream,
                "431 Request Header Fields Too Large",
                "text/plain",
                "request head too large\n",
            );
        }
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
        head.push_str(&line);
    }
    let mut stream = reader.into_inner();
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "only GET is served here\n",
        );
    }
    // Scrape paths carry no query strings in practice, but tolerate
    // them: Prometheus setups occasionally append cache-busters.
    let path = path.split('?').next().unwrap_or("");
    match path {
        "/metrics" => respond(
            &mut stream,
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            &telemetry.render_prometheus(),
        ),
        "/snapshot" => respond(
            &mut stream,
            "200 OK",
            "application/json",
            &telemetry.snapshot().to_json(),
        ),
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain",
            "try /metrics (Prometheus) or /snapshot (JSON)\n",
        ),
    }
}

/// Write a complete `HTTP/1.1` response and close the connection.
fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{ShardTelemetry, SpanRecorder, Stage, TelemetrySnapshot};

    fn test_telemetry() -> Telemetry {
        let shard = Arc::new(ShardTelemetry::new());
        shard.record_stage(Stage::EndToEnd, 1_500);
        Telemetry {
            shards: vec![shard],
            spans: Arc::new(SpanRecorder::new(4)),
            extras: Vec::new(),
        }
    }

    /// Send one request, return (status line, body).
    fn get(addr: SocketAddr, request: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("{request}\r\nHost: test\r\n\r\n").as_bytes())
            .expect("send");
        let mut raw = String::new();
        use std::io::Read;
        stream.read_to_string(&mut raw).expect("read");
        let (head, body) = raw.split_once("\r\n\r\n").expect("framed response");
        let status = head.lines().next().expect("status line").to_string();
        (status, body.to_string())
    }

    #[test]
    fn serves_prometheus_and_json() {
        let server = MetricsServer::bind("127.0.0.1:0", test_telemetry()).expect("bind");
        let addr = server.addr();

        let (status, body) = get(addr, "GET /metrics HTTP/1.1");
        assert!(status.contains("200"), "{status}");
        assert!(body.contains("dflow_shards 1"), "{body}");
        assert!(body.contains("dflow_stage_latency_seconds"), "{body}");

        let (status, body) = get(addr, "GET /snapshot HTTP/1.1");
        assert!(status.contains("200"), "{status}");
        let snap = TelemetrySnapshot::from_json(&body).expect("json round trip");
        assert_eq!(snap.shards, 1);
        assert_eq!(snap.stage("e2e").map(|h| h.count()), Some(1));
    }

    #[test]
    fn rejects_unknown_paths_and_methods() {
        let server = MetricsServer::bind("127.0.0.1:0", test_telemetry()).expect("bind");
        let addr = server.addr();
        let (status, _) = get(addr, "GET /nope HTTP/1.1");
        assert!(status.contains("404"), "{status}");
        let (status, _) = get(addr, "POST /metrics HTTP/1.1");
        assert!(status.contains("405"), "{status}");
    }

    #[test]
    fn drop_stops_a_wildcard_bound_listener() {
        // 0.0.0.0 is not a connectable destination everywhere; the
        // drop-side wake-up must aim at loopback or join() hangs until
        // an external client happens to connect.
        let server = MetricsServer::bind("0.0.0.0:0", test_telemetry()).expect("bind");
        let addr = server.addr();
        drop(server);
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "listener thread must exit on drop");
    }

    #[test]
    fn drop_stops_the_listener_thread() {
        let server = MetricsServer::bind("127.0.0.1:0", test_telemetry()).expect("bind");
        let addr = server.addr();
        drop(server);
        // The port is released once the thread exits; a rebind proves
        // it (connects racing the teardown would be flaky, binds are
        // not).
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "listener thread must exit on drop");
    }
}
