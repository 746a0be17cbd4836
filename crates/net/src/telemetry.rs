//! The live telemetry plane: a shared registry the pool's shards
//! publish into, and a tiny blocking HTTP listener that serves its
//! merged snapshot in Prometheus text exposition format.
//!
//! The design keeps the hot path honest: shards own their
//! [`Registry`] outright and only *clone it out* into their
//! [`SharedRegistry`] slot every `publish_every` datagrams, so workers
//! never contend on a global lock per frame, and a scrape reads a
//! consistent per-shard snapshot (merging is order-independent — counter
//! sums, histogram bucket sums, gauge min/max envelopes).
//!
//! The server is deliberately minimal — no external HTTP crate (the
//! workspace is hermetic): a non-blocking `TcpListener` polled every few
//! milliseconds, one response per connection, `Connection: close`. That
//! is all a Prometheus scraper or `curl` needs.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dap_simnet::Registry;

/// One registry slot per shard (plus any extra sources), merged on read.
#[derive(Debug)]
pub struct SharedRegistry {
    slots: Vec<Mutex<Registry>>,
}

impl SharedRegistry {
    /// A shared registry with `slots` independent publish slots.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        assert!(slots >= 1, "need at least one telemetry slot");
        Self {
            slots: (0..slots).map(|_| Mutex::new(Registry::new())).collect(),
        }
    }

    /// Number of publish slots.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Replaces slot `slot` with a clone of `registry`. Cheap relative
    /// to the publish interval; never blocks other slots.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn publish(&self, slot: usize, registry: &Registry) {
        *self.slots[slot].lock().expect("telemetry slot poisoned") = registry.clone();
    }

    /// The merged view across every slot.
    #[must_use]
    pub fn snapshot(&self) -> Registry {
        let mut merged = Registry::new();
        for slot in &self.slots {
            merged.merge(&slot.lock().expect("telemetry slot poisoned"));
        }
        merged
    }
}

/// A one-shot-per-connection HTTP exposition endpoint.
///
/// Serves `GET /` (any path, actually — there is exactly one resource)
/// with the [`SharedRegistry`] snapshot rendered by
/// [`Registry::render_prometheus`].
pub struct TelemetryServer {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl TelemetryServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, or port `0` for ephemeral)
    /// and starts the accept loop on its own thread.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn bind(addr: &str, shared: Arc<SharedRegistry>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("dap-telemetry".into())
            .spawn(move || accept_loop(&listener, &shared, &stop_flag))
            .expect("spawn telemetry thread");
        Ok(Self {
            stop,
            thread: Some(thread),
            addr: local,
        })
    }

    /// The bound address (which port an ephemeral bind got).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the thread.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &SharedRegistry, stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut conn, _peer)) => {
                // Drain whatever request line arrived (best-effort; a
                // scraper that sends nothing still gets the body).
                let _ = conn.set_read_timeout(Some(Duration::from_millis(50)));
                let mut scratch = [0u8; 1024];
                let _ = conn.read(&mut scratch);
                let body = shared.snapshot().render_prometheus();
                let response = format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                    body.len(),
                    body
                );
                let _ = conn.write_all(response.as_bytes());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dap_simnet::keys;
    use std::net::TcpStream;

    #[test]
    fn snapshot_merges_slots() {
        let shared = SharedRegistry::new(2);
        let mut a = Registry::new();
        a.incr(keys::NET_INGRESS_FRAMES);
        a.record(keys::NET_STAGE_VERIFY_NS, 100);
        let mut b = Registry::new();
        b.add(keys::NET_INGRESS_FRAMES, 2);
        b.record(keys::NET_STAGE_VERIFY_NS, 300);
        shared.publish(0, &a);
        shared.publish(1, &b);
        let merged = shared.snapshot();
        assert_eq!(merged.counters().get(keys::NET_INGRESS_FRAMES), 3);
        assert_eq!(
            merged
                .get_histogram(keys::NET_STAGE_VERIFY_NS)
                .map(dap_obs::Histogram::count),
            Some(2)
        );
        // Re-publishing replaces, not accumulates.
        shared.publish(1, &b);
        assert_eq!(
            shared.snapshot().counters().get(keys::NET_INGRESS_FRAMES),
            3
        );
    }

    #[test]
    fn server_serves_prometheus_text() {
        let shared = Arc::new(SharedRegistry::new(1));
        let mut reg = Registry::new();
        reg.add(keys::NET_REVEAL_AUTH, 7);
        shared.publish(0, &reg);
        let server = TelemetryServer::bind("127.0.0.1:0", Arc::clone(&shared)).unwrap();
        let addr = server.local_addr();
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
        assert!(response.contains("net_reveal_auth 7"), "{response}");
        server.stop();
    }
}
