//! The daemon shell: an event-driven acceptor (readiness-polled
//! multiplexing over the vendored [`polling`] shim), a scoped request
//! worker pool, bounded-overload backpressure, and graceful drain.
//!
//! ## Life of a connection
//!
//! One event-loop thread owns the listener and every **idle**
//! connection, registered for readability with the poller. When a
//! connection becomes readable — the client started writing a request —
//! it moves onto a **bounded** dispatch queue; a worker pops it, reads
//! and serves requests until the client pauses (no pipelined bytes
//! left buffered), then hands the connection back to the event loop,
//! which re-arms it. Idle keep-alive connections therefore cost one fd
//! and a poll registration, not a parked thread.
//!
//! ## Backpressure
//!
//! The dispatch queue is bounded by [`ServerConfig::max_pending`].
//! When a readable connection finds the queue full, the server **sheds
//! deterministically** instead of queueing without bound: it answers
//! `429 Too Many Requests` with a `Retry-After` header and closes that
//! connection. Under overload, queueing delay — and with it p99/p999 —
//! stays bounded by `max_pending × per-request cost`; the excess load
//! is visible to clients as 429s and to operators as the
//! `qrhint_http_shed_total` counter.
//!
//! ## Accept errors
//!
//! An accept error other than `WouldBlock`, `Interrupted` or
//! `ConnectionAborted` pauses accepting. Typically it is `EMFILE`: the
//! process is out of file descriptors, for the accept itself or for the
//! clone of the accepted stream. The error is logged at warn, and the
//! listener stays un-armed until something else wakes the event loop
//! (a returned connection, another event or the 500 ms wait timeout).
//! Closing connections free their fds meanwhile, and the loop never
//! spins on a backlog it cannot accept.
//!
//! ## Handler panics
//!
//! A handler that panics costs one request, not a worker: the shell
//! answers that request `500`, closes its connection, logs the panic at
//! error, and the worker takes the next connection, so [`Server::run`]
//! still drains cleanly.
//!
//! `POST /shutdown` flips the service's draining flag; the worker that
//! answered it wakes the event loop, which stops accepting, drops its
//! idle connections, lets workers finish queued connections, and
//! [`Server::run`] returns.
//!
//! Readiness polling needs `poll(2)`; where the `polling` shim has none,
//! [`Server::run`] returns its `Unsupported` error.

use crate::http::{self, HttpError, Request, Response};
use crate::service::{QrHintService, ServiceConfig};
use polling::{Event, Poller};
use qrhint_obs::log::{self as obs_log, Level};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Per-socket read timeout, so a dead client cannot pin a worker.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// What the serving shell needs from a request handler. Implemented by
/// [`QrHintService`] (the grading daemon) and the router's forwarding
/// service, so both share one acceptor, worker pool, backpressure and
/// drain implementation.
pub trait HttpHandler: Send + Sync {
    /// Answer one request. Must be infallible: every failure mode is a
    /// well-formed error [`Response`]. Should it panic anyway, the shell
    /// answers `500` and closes that connection.
    fn handle(&self, req: &Request) -> Response;

    /// `true` once a shutdown request has been accepted; the shell
    /// stops accepting, finishes queued work, and returns from `run`.
    fn is_draining(&self) -> bool;

    /// One connection was answered `429` by the bounded-queue overload
    /// guard without its request being read.
    fn observe_shed(&self);
}

/// Everything `qr-hint serve` configures.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` = ephemeral port,
    /// readable back from [`Server::addr`]).
    pub addr: String,
    /// Request workers (`0` = use available parallelism).
    pub workers: usize,
    pub service: ServiceConfig,
    /// Bound on connections queued for a worker; a readable connection
    /// beyond it is shed with `429 Too Many Requests` + `Retry-After`.
    pub max_pending: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7878".into(),
            workers: 0,
            service: ServiceConfig::default(),
            max_pending: 1024,
        }
    }
}

/// One keep-alive connection's transport state. The `BufReader` travels
/// with the connection: it may hold bytes of the *next* pipelined
/// request, which the poller cannot see (they already left the socket).
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn new(stream: TcpStream) -> io::Result<Conn> {
        // Keep-alive request/response traffic is many small segments;
        // without TCP_NODELAY the Nagle/delayed-ACK interaction adds
        // ~40 ms to every response.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Conn { reader: BufReader::new(stream), writer })
    }

    fn fd_source(&self) -> &TcpStream {
        self.reader.get_ref()
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        self.reader.get_ref().set_nonblocking(nb)
    }
}

/// The bounded dispatch queue shared by the acceptor/event loop and the
/// workers. `try_push` refusing is the backpressure signal.
struct BoundedQueue<T> {
    queue: Mutex<VecDeque<T>>,
    capacity: usize,
    ready: Condvar,
    /// Set once no more work will arrive: workers drain and exit.
    closed: AtomicBool,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            queue: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            ready: Condvar::new(),
            closed: AtomicBool::new(false),
        }
    }

    /// Enqueue unless full or closed; the rejected item comes back so
    /// the caller can shed it.
    fn try_push(&self, item: T) -> Result<(), T> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(item);
        }
        let mut queue = self.queue.lock().unwrap();
        if queue.len() >= self.capacity {
            return Err(item);
        }
        queue.push_back(item);
        drop(queue);
        self.ready.notify_one();
        Ok(())
    }

    /// Pop the next item, blocking; `None` once closed *and* empty.
    fn pop(&self) -> Option<T> {
        let mut queue = self.queue.lock().unwrap();
        loop {
            if let Some(item) = queue.pop_front() {
                return Some(item);
            }
            if self.closed.load(Ordering::SeqCst) {
                return None;
            }
            queue = self.ready.wait(queue).unwrap();
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.ready.notify_all();
    }
}

/// What a worker reports back to the event loop about a dispatched
/// connection.
enum Returned {
    /// Still healthy and keep-alive: re-arm for the next request.
    KeepAlive(usize, Conn),
    /// Closed (client hangup, framing error, opt-out, drain): the event
    /// loop must unregister its poller entry before the fd can be
    /// reused by a new accept.
    Closed(Conn),
}

/// The transport-only half of [`ServerConfig`]: everything the serving
/// shell needs that is not the grading service itself. The router binds
/// its shell with one of these plus its own handler.
#[derive(Debug, Clone)]
pub struct ShellConfig {
    pub addr: String,
    pub workers: usize,
    pub max_pending: usize,
}

impl Default for ShellConfig {
    fn default() -> ShellConfig {
        let cfg = ServerConfig::default();
        ShellConfig { addr: cfg.addr, workers: cfg.workers, max_pending: cfg.max_pending }
    }
}

/// A bound-but-not-yet-running daemon shell around a handler `H` —
/// the grading service by default, the router's forwarding service for
/// `qr-hint route`.
pub struct Server<H = QrHintService> {
    listener: TcpListener,
    addr: SocketAddr,
    service: Arc<H>,
    workers: usize,
    max_pending: usize,
}

impl Server<QrHintService> {
    /// Bind the listener (so the caller knows the ephemeral port before
    /// the serve loop starts) and build the grading service.
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        let shell =
            ShellConfig { addr: cfg.addr, workers: cfg.workers, max_pending: cfg.max_pending };
        Server::bind_with(shell, Arc::new(QrHintService::new(cfg.service)))
    }

    pub fn service(&self) -> &Arc<QrHintService> {
        &self.service
    }
}

impl<H: HttpHandler> Server<H> {
    /// Bind the listener around an arbitrary handler.
    pub fn bind_with(shell: ShellConfig, handler: Arc<H>) -> io::Result<Server<H>> {
        let listener = TcpListener::bind(&shell.addr)?;
        let addr = listener.local_addr()?;
        let workers = crate::service::resolve_jobs(shell.workers).max(2);
        Ok(Server {
            listener,
            addr,
            service: handler,
            workers,
            max_pending: shell.max_pending.max(1),
        })
    }

    /// The actually-bound address (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn handler(&self) -> &Arc<H> {
        &self.service
    }

    /// Serve until a `POST /shutdown` drains the daemon. Blocks the
    /// calling thread; run it on a spawned thread to keep a handle
    /// (the integration tests and the classroom example do).
    pub fn run(self) -> io::Result<()> {
        const LISTENER_KEY: usize = 0;
        let poller = Arc::new(Poller::new()?);
        self.listener.set_nonblocking(true)?;
        let queue: BoundedQueue<(usize, Conn)> = BoundedQueue::new(self.max_pending);
        let returned: Mutex<Vec<Returned>> = Mutex::new(Vec::new());
        poller.add(&self.listener, Event::readable(LISTENER_KEY))?;

        std::thread::scope(|scope| {
            let server = &self;
            for _ in 0..server.workers {
                let poller = Arc::clone(&poller);
                let queue = &queue;
                let returned = &returned;
                scope.spawn(move || {
                    while let Some((key, conn)) = queue.pop() {
                        let ret = server.serve_dispatched(key, conn);
                        returned.lock().unwrap().push(ret);
                        // Wake the event loop to re-arm or unregister.
                        let _ = poller.notify();
                    }
                });
            }

            // The event loop (this thread).
            let mut idle: HashMap<usize, Conn> = HashMap::new();
            let mut next_key: usize = 1;
            let mut events: Vec<Event> = Vec::new();
            let mut listener_armed = true;
            let loop_result: io::Result<()> = loop {
                if self.service.is_draining() {
                    break Ok(());
                }
                events.clear();
                // The timeout is a liveness backstop (missed wake) and
                // bounds how long a paused listener stays un-armed; all
                // real transitions arrive as events.
                if let Err(e) = poller.wait(&mut events, Some(Duration::from_millis(500))) {
                    break Err(e);
                }
                if !listener_armed {
                    listener_armed =
                        poller.modify(&self.listener, Event::readable(LISTENER_KEY)).is_ok();
                }

                // Returned connections first: unregister closed fds
                // *before* accepting (fd reuse), re-arm keep-alives.
                for ret in returned.lock().unwrap().drain(..) {
                    match ret {
                        Returned::KeepAlive(key, conn) => {
                            if conn.set_nonblocking(true).is_err() {
                                let _ = poller.delete(conn.fd_source());
                                continue;
                            }
                            if poller.modify(conn.fd_source(), Event::readable(key)).is_ok() {
                                idle.insert(key, conn);
                            }
                        }
                        Returned::Closed(conn) => {
                            let _ = poller.delete(conn.fd_source());
                        }
                    }
                }
                if self.service.is_draining() {
                    break Ok(());
                }

                for event in &events {
                    if event.key == LISTENER_KEY {
                        // One-shot interests need explicit re-arming; a
                        // paused listener waits for the next wake-up.
                        listener_armed = self.accept_pending(&poller, &mut idle, &mut next_key)
                            && poller.modify(&self.listener, Event::readable(LISTENER_KEY)).is_ok();
                        continue;
                    }
                    let Some(conn) = idle.remove(&event.key) else { continue };
                    match queue.try_push((event.key, conn)) {
                        Ok(()) => {}
                        Err((_, conn)) => {
                            // Backpressure: bounded queue is full.
                            self.shed(conn);
                        }
                    }
                }
            };
            let _ = poller.delete(&self.listener);
            // Idle connections carry no in-flight request; drop them.
            for (_, conn) in idle.drain() {
                let _ = poller.delete(conn.fd_source());
            }
            queue.close();
            loop_result
            // Scope end joins the workers, which finish queued conns.
        })
    }

    /// Accept every pending connection and register it as idle. Returns
    /// `false` when accepting must pause: after an error such as
    /// `EMFILE` the backlog stays readable, so re-arming the listener at
    /// once would spin. A connection whose stream cannot be cloned
    /// pauses too: it was accepted with the last free fd, and going on
    /// would accept and drop the rest of the backlog one by one.
    fn accept_pending(
        &self,
        poller: &Poller,
        idle: &mut HashMap<usize, Conn>,
        next_key: &mut usize,
    ) -> bool {
        loop {
            let conn = match self.listener.accept().and_then(|(stream, _)| Conn::new(stream)) {
                Ok(conn) => conn,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                Err(e) => {
                    obs_log::event(
                        Level::Warn,
                        "server",
                        "accept failed; pausing accepts",
                        &[("err", &e.to_string())],
                    );
                    return false;
                }
            };
            if conn.set_nonblocking(true).is_err() {
                continue;
            }
            let key = *next_key;
            *next_key += 1;
            if poller.add(conn.fd_source(), Event::readable(key)).is_ok() {
                idle.insert(key, conn);
            }
        }
    }

    /// Serve a dispatched (readable) connection: blocking reads from
    /// here on, one request at a time, staying with the connection only
    /// while pipelined bytes are already buffered. Pausing clients go
    /// back to the event loop instead of pinning this worker.
    fn serve_dispatched(&self, key: usize, conn: Conn) -> Returned {
        if conn.set_nonblocking(false).is_err() {
            return Returned::Closed(conn);
        }
        let _ = conn.fd_source().set_read_timeout(Some(READ_TIMEOUT));
        let mut conn = conn;
        loop {
            match self.serve_one(&mut conn) {
                ServeOutcome::Continue => {
                    // More pipelined request bytes already in userspace?
                    // The poller can't see those — keep serving.
                    if conn.reader.buffer().is_empty() {
                        return Returned::KeepAlive(key, conn);
                    }
                }
                ServeOutcome::Close => return Returned::Closed(conn),
            }
        }
    }

    /// Answer one connection with the overload shed: `429` +
    /// `Retry-After`, then close. Called from the event loop with the
    /// request bytes still unread — the connection cannot be reused
    /// (its stream position is mid-request), hence the close.
    fn shed(&self, conn: Conn) {
        self.service.observe_shed();
        let resp = crate::service::error_response(
            429,
            "overloaded",
            "server overloaded: dispatch queue is full; retry later",
        )
        .with_retry_after(1);
        let mut writer = conn.writer;
        // Best effort on a nonblocking socket: the response is ~150
        // bytes into an empty send buffer, so a partial write means the
        // peer is gone anyway.
        let _ = http::write_response(&mut writer, &resp, false);
        // The request was never read: closing with bytes still in the
        // receive queue makes the kernel send RST, which discards the
        // 429 before the peer reads it. Half-close, then drain what
        // already arrived so the close goes out as a clean FIN.
        let _ = writer.shutdown(std::net::Shutdown::Write);
        let mut scratch = [0u8; 1024];
        while let Ok(n) = (&writer).read(&mut scratch) {
            if n == 0 {
                break;
            }
        }
    }

    /// Read, dispatch and answer exactly one request. A handler that
    /// panics gets its request answered `500` and its connection closed,
    /// and the worker lives on to serve the next connection.
    fn serve_one(&self, conn: &mut Conn) -> ServeOutcome {
        let request = http::read_request(&mut conn.reader, &mut conn.writer, http::MAX_BODY_BYTES);
        match request {
            Ok(req) => {
                // The handler's shared state is its own to keep
                // consistent; the shell only needs its worker back.
                let resp = match catch_unwind(AssertUnwindSafe(|| self.service.handle(&req))) {
                    Ok(resp) => resp,
                    // The panic hook has already printed the message.
                    Err(_) => {
                        obs_log::event(
                            Level::Error,
                            "server",
                            "request handler panicked",
                            &[("method", &req.method), ("path", &req.path)],
                        );
                        let resp = crate::service::error_response(
                            500,
                            "internal",
                            "internal error: the request handler panicked",
                        );
                        let _ = http::write_response(&mut conn.writer, &resp, false);
                        return ServeOutcome::Close;
                    }
                };
                // Keep-alive survives unless the client opted out or
                // the server is draining after this response. (A drain
                // needs no wake-up here: the worker notifies the event
                // loop when it returns the connection.)
                let keep = req.keep_alive && !self.service.is_draining();
                let wrote = http::write_response(&mut conn.writer, &resp, keep);
                if wrote.is_err() || !keep {
                    ServeOutcome::Close
                } else {
                    ServeOutcome::Continue
                }
            }
            Err(HttpError::Closed) => ServeOutcome::Close,
            Err(HttpError::Malformed(msg)) => {
                // Framing is broken — answer, then close (the stream
                // position is no longer trustworthy).
                let resp = crate::service::error_response(400, "bad_http", msg);
                let _ = http::write_response(&mut conn.writer, &resp, false);
                ServeOutcome::Close
            }
            Err(HttpError::TooLarge(msg)) => {
                let resp = crate::service::error_response(413, "too_large", msg);
                let _ = http::write_response(&mut conn.writer, &resp, false);
                ServeOutcome::Close
            }
            Err(HttpError::Io(_)) => ServeOutcome::Close,
        }
    }
}

enum ServeOutcome {
    Continue,
    Close,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_sheds_beyond_capacity() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3), "third push must be refused");
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok(), "space freed by pop");
        q.close();
        assert_eq!(q.try_push(9), Err(9), "closed queue refuses work");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None, "closed and drained");
    }
}
