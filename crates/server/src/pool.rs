//! Keep-alive connection pooling for [`Client`].
//!
//! Before this module, every helper call (`request_once`, the bench
//! harnesses' register probes, the router's would-be forwards) paid a
//! full TCP handshake: connect, one request, drop. The daemon keeps
//! connections alive precisely so callers don't have to do that — the
//! pool is the missing client half of that contract.
//!
//! ## Semantics
//!
//! * One idle list **per backend address**; checkout pops the most
//!   recently parked connection (LIFO — the hottest socket, most likely
//!   still open), falling back to a fresh connect.
//! * After a successful exchange the connection is parked again unless
//!   the response said `Connection: close` (drain, shed, framing
//!   error) or the idle list is at capacity.
//! * **Stale-reuse retry**: a parked keep-alive connection can be
//!   closed by the server at any moment (read timeout, drain, restart).
//!   The failure mode is an I/O error on the *first* byte of the next
//!   exchange. A request that fails on a **reused** connection is
//!   retried exactly once on a **fresh** connection; a failure on a
//!   fresh connection is the caller's error. This keeps the retry safe
//!   even for non-idempotent requests in practice: the daemon reads the
//!   full request before acting, so a connection that dies mid-request
//!   was almost surely already dead when checked out.
//! * [`PoolStats`] counts checkouts, hits, misses, discards and
//!   retries so the soak bench (and `/healthz`-style introspection in
//!   the router) can prove reuse is actually happening.

use crate::client::Client;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Cap on idle parked connections per backend address.
pub const MAX_IDLE_PER_ADDR: usize = 16;

/// Lifetime counters for one [`ClientPool`]. All monotone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Connections handed to callers (hits + misses).
    pub checkouts: u64,
    /// Checkouts served from the idle list (no TCP handshake).
    pub hits: u64,
    /// Checkouts that had to open a fresh connection.
    pub misses: u64,
    /// Connections dropped instead of parked (server said close, idle
    /// list full, or the exchange failed).
    pub discarded: u64,
    /// Requests retried on a fresh connection after a stale reused one.
    pub retries: u64,
}

/// A thread-safe keep-alive connection pool keyed by backend address.
pub struct ClientPool {
    idle: Mutex<HashMap<SocketAddr, Vec<Client>>>,
    checkouts: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    discarded: AtomicU64,
    retries: AtomicU64,
}

impl Default for ClientPool {
    fn default() -> ClientPool {
        ClientPool::new()
    }
}

impl ClientPool {
    pub fn new() -> ClientPool {
        ClientPool {
            idle: Mutex::new(HashMap::new()),
            checkouts: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            retries: AtomicU64::new(0),
        }
    }

    /// Check out a connection to `addr`: pooled if one is parked,
    /// freshly connected otherwise. Returns the client plus whether it
    /// was reused (callers need that to decide retry eligibility).
    pub fn checkout(&self, addr: SocketAddr) -> io::Result<(Client, bool)> {
        self.checkouts.fetch_add(1, Ordering::Relaxed);
        if let Some(client) = self.idle.lock().unwrap().get_mut(&addr).and_then(Vec::pop) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((client, true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((Client::connect(addr)?, false))
    }

    /// Return a connection after use. Parked for the next checkout
    /// unless the server closed it or the idle list is full.
    pub fn check_in(&self, addr: SocketAddr, client: Client) {
        if !client.is_reusable() {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let mut idle = self.idle.lock().unwrap();
        let parked = idle.entry(addr).or_default();
        if parked.len() >= MAX_IDLE_PER_ADDR {
            self.discarded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        parked.push(client);
    }

    /// One pooled request/response exchange, with the stale-reuse
    /// retry described in the module docs.
    pub fn request(
        &self,
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: &str,
    ) -> io::Result<(u16, String)> {
        let (mut client, reused) = self.checkout(addr)?;
        match client.request(method, path, body) {
            Ok(resp) => {
                self.check_in(addr, client);
                Ok(resp)
            }
            Err(first_err) => {
                self.discarded.fetch_add(1, Ordering::Relaxed);
                if !reused {
                    return Err(first_err);
                }
                // The parked connection went stale under us; one fresh
                // attempt, reported as the real outcome.
                self.retries.fetch_add(1, Ordering::Relaxed);
                let mut fresh = Client::connect(addr)?;
                let resp = fresh.request(method, path, body)?;
                self.check_in(addr, fresh);
                Ok(resp)
            }
        }
    }

    /// Drop every parked connection for `addr` (the router calls this
    /// when a backend is declared down — its sockets are dead weight).
    pub fn evict_addr(&self, addr: SocketAddr) {
        if let Some(parked) = self.idle.lock().unwrap().remove(&addr) {
            self.discarded.fetch_add(parked.len() as u64, Ordering::Relaxed);
        }
    }

    /// Connections currently parked, across all addresses.
    pub fn idle_count(&self) -> usize {
        self.idle.lock().unwrap().values().map(Vec::len).sum()
    }

    pub fn stats(&self) -> PoolStats {
        PoolStats {
            checkouts: self.checkouts.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// A micro keep-alive server: answers `n` requests per connection
    /// with an empty 200, then closes. Serial (one conn at a time) —
    /// enough for pool semantics.
    fn tiny_server(requests_per_conn: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                let mut served = 0;
                let mut buf = [0u8; 4096];
                'conn: while served < requests_per_conn {
                    // Read until the blank line; requests in these tests
                    // have no body.
                    let mut head = Vec::new();
                    while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                        match stream.read(&mut buf) {
                            Ok(0) | Err(_) => break 'conn,
                            Ok(n) => head.extend_from_slice(&buf[..n]),
                        }
                    }
                    // The pool only parks on absent `Connection: close`,
                    // so signal keep-alive except on the last request.
                    served += 1;
                    let conn =
                        if served == requests_per_conn { "close" } else { "keep-alive" };
                    let resp = format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: {conn}\r\n\r\n"
                    );
                    if stream.write_all(resp.as_bytes()).is_err() {
                        break;
                    }
                    if head.starts_with(b"GET /stop") {
                        return;
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn pool_reuses_connections() {
        let (addr, server) = tiny_server(100);
        let pool = ClientPool::new();
        for _ in 0..5 {
            let (status, _) = pool.request(addr, "GET", "/x", "").unwrap();
            assert_eq!(status, 200);
        }
        let stats = pool.stats();
        assert_eq!(stats.checkouts, 5);
        assert_eq!(stats.misses, 1, "only the first request should dial: {stats:?}");
        assert_eq!(stats.hits, 4, "{stats:?}");
        assert_eq!(pool.idle_count(), 1);
        pool.request(addr, "GET", "/stop", "").unwrap();
        server.join().unwrap();
    }

    #[test]
    fn connection_close_is_not_parked() {
        // Server closes after every request: nothing must be parked.
        let (addr, server) = tiny_server(1);
        let pool = ClientPool::new();
        for _ in 0..3 {
            let (status, _) = pool.request(addr, "GET", "/x", "").unwrap();
            assert_eq!(status, 200);
        }
        let stats = pool.stats();
        assert_eq!(stats.misses, 3, "every request must dial fresh: {stats:?}");
        assert_eq!(pool.idle_count(), 0);
        pool.request(addr, "GET", "/stop", "").unwrap();
        server.join().unwrap();
    }

    #[test]
    fn stale_parked_connection_retries_once() {
        let (addr, server) = tiny_server(100);
        let pool = ClientPool::new();
        pool.request(addr, "GET", "/x", "").unwrap();
        assert_eq!(pool.idle_count(), 1);
        // Kill the server; the parked connection is now stale.
        pool.request(addr, "GET", "/stop", "").unwrap();
        server.join().unwrap();
        // New server on the same port is not guaranteed on all OSes, so
        // prove the retry path differently: the stale checkout must
        // error (no server), consuming the parked conn and counting a
        // retry attempt that also fails to connect.
        let err = pool.request(addr, "GET", "/x", "").unwrap_err();
        let _ = err;
        let stats = pool.stats();
        assert_eq!(stats.retries, 1, "stale reuse must be retried: {stats:?}");
        assert_eq!(pool.idle_count(), 0, "stale conn must not be re-parked");
    }
}
