//! Minimal HTTP/1.1 front-end over any [`JobApi`] service — the local
//! [`ServeHandle`] or a cluster coordinator — built on `std::net` only;
//! no async runtime, no HTTP crate.
//!
//! One accept thread, blocked in `accept` so a connection is taken the
//! moment it arrives, hands sockets to a bounded pool of
//! connection-handler threads over an in-process queue; every response is
//! JSON. The pool is what keeps one slow or stalled client from
//! head-of-line-blocking everyone else: a handler stuck in the 10 s
//! socket timeout occupies one slot while the other handlers keep
//! serving, and when every slot *and* the hand-off queue are busy the
//! accept thread answers 503 immediately rather than queueing unbounded
//! sockets. Request parsing is bounded end to end — header bytes and line
//! counts are capped (431), bodies are capped (400), and chunked transfer
//! encoding is refused (501) — so a hostile client cannot balloon memory.
//! All of it stays inside the standard library, which the offline build
//! environment requires.
//!
//! The hand-off queue, the table of connections being served and the
//! stop flag share one mutex, so a handler between its stop check and its
//! wait cannot miss the stop, and [`HttpServer::stop`] never joins a
//! handler that slept through it.
//!
//! # Keep-alive
//!
//! Connections are persistent per HTTP/1.1 semantics: a handler serves
//! requests back to back on one socket until the client sends
//! `Connection: close` (HTTP/1.0 closes unless it asks for keep-alive),
//! goes idle past [`KEEP_ALIVE_IDLE`], or hits the per-connection request
//! cap. The idle deadline is measured on the injected [`Clock`], so tests
//! on a `TestClock` control it exactly. An idle handler *blocks* on the
//! socket — there is no poll tick burning CPU: the server's stop path and
//! the clock's waker hooks wake it by shutting the socket down, and on
//! the real clock the read timeout is sized to the remaining idle budget
//! so expiry costs exactly one wait. Coordinator↔node RPC rides this: one
//! heartbeat's health probe and checkpoint pull share one TCP connection
//! instead of paying a fresh connect each.
//!
//! [`Clock`]: breaksym_testkit::Clock
//!
//! # One write per response
//!
//! Accepted sockets set `TCP_NODELAY`, and each response's head and body
//! are built into one buffer and leave in one write. Sent as two writes,
//! the body waited behind Nagle's algorithm for the client's delayed ACK
//! of the head — about 40 ms on Linux loopback, on every request, which
//! was most of a served job's latency.
//!
//! # Endpoints
//!
//! | Method & path              | Body              | Success payload      |
//! |----------------------------|-------------------|----------------------|
//! | `POST /jobs`               | [`JobSpec`] JSON  | [`SubmitResponse`]   |
//! | `GET /jobs/{id}`           | —                 | [`StatusResponse`]   |
//! | `GET /jobs/{id}/report`    | —                 | `RunReport`          |
//! | `GET /jobs/{id}/checkpoint`| —                 | `RunCheckpoint`      |
//! | `POST /jobs/{id}/cancel`   | —                 | [`StatusResponse`]   |
//! | `GET /stats`               | —                 | [`ServerStats`]      |
//! | `GET /healthz`             | —                 | [`Healthz`]          |
//! | `GET /checkpoints`         | —                 | `[`[`JobExport`]`]`  |
//! | `POST /shutdown`           | —                 | `{"draining": true}` |
//!
//! Failures use the [`ServeError`] wire shape with its
//! [`http_status`](ServeError::http_status) code.
//!
//! [`Healthz`]: crate::protocol::Healthz
//! [`JobExport`]: crate::protocol::JobExport
//! [`ServerStats`]: crate::protocol::ServerStats
//! [`StatusResponse`]: crate::protocol::StatusResponse

use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use breaksym_core::{RunCheckpoint, RunReport};
use breaksym_testkit::{real_clock, FaultAction, SharedClock};
use serde::Serialize;

use crate::engine::ServeHandle;
use crate::protocol::{JobId, JobSpec, ServeError, StatusResponse, SubmitResponse};

/// Failpoint hit after routing, just before the response bytes go out. A
/// `Drop` action closes the socket without responding (a mid-flight
/// connection loss from the client's point of view); a `DelayMs` stalls
/// the handler, occupying its pool slot, exactly like a slow client.
pub const FAIL_HTTP_RESPOND: &str = "serve::http_respond";

/// Largest accepted request body — far above any real [`JobSpec`], small
/// enough that a hostile Content-Length cannot balloon memory.
const MAX_BODY_BYTES: u64 = 4 * 1024 * 1024;

/// Total bytes accepted for the request line plus all headers. A single
/// `read_line` into a `String` is otherwise unbounded — a client that
/// never sends `\r\n` could grow it until memory runs out.
const MAX_HEADER_BYTES: usize = 8 * 1024;

/// Maximum header lines per request, so a drip-feed of tiny headers
/// cannot hold a handler hostage within the byte budget.
const MAX_HEADER_LINES: usize = 64;

/// Per-connection socket timeout while a request is in flight, so a
/// client that stalls mid-request caps how long it occupies one handler
/// slot.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a keep-alive connection may sit idle *between* requests
/// before the server closes it, measured on the injected clock.
pub const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(5);

/// Requests served per connection before the server closes it anyway — a
/// fairness valve so one immortal connection cannot pin a handler slot
/// forever while fresh connections are being shed.
const MAX_REQUESTS_PER_CONN: usize = 1024;

/// Default size of the connection-handler pool ([`HttpServer::bind`]).
pub const DEFAULT_CONN_WORKERS: usize = 4;

/// Accepted sockets waiting for a handler, per handler thread. Beyond
/// this the accept thread sheds load with an immediate 503 instead of
/// queueing sockets without bound.
const PENDING_PER_WORKER: usize = 8;

/// The service surface the HTTP front-end exposes: exactly the job
/// lifecycle the wire protocol speaks, abstracted so the same front-end
/// can sit over a single-node [`ServeHandle`] or a multi-node cluster
/// coordinator. Stats and health have service-specific shapes (a node
/// reports `ServerStats`, a cluster reports a fold over nodes), so those
/// return pre-serialised JSON values.
pub trait JobApi: Send + Sync {
    /// Submits a job; see [`ServeHandle::submit`].
    ///
    /// # Errors
    ///
    /// [`ServeError`] per the wire protocol — notably
    /// [`ServeError::QueueFull`] (429) and [`ServeError::ShuttingDown`]
    /// (503), the backpressure signals.
    fn submit(&self, spec: JobSpec) -> Result<JobId, ServeError>;

    /// Lifecycle state plus latest progress; see [`ServeHandle::status`].
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] / [`ServeError::JobEvicted`].
    fn status(&self, id: JobId) -> Result<StatusResponse, ServeError>;

    /// Final report of a completed job; see [`ServeHandle::report`].
    ///
    /// # Errors
    ///
    /// [`ServeError::NotReady`] until done.
    fn report(&self, id: JobId) -> Result<RunReport, ServeError>;

    /// Latest resumable checkpoint; see [`ServeHandle::checkpoint`].
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] / [`ServeError::JobEvicted`].
    fn checkpoint(&self, id: JobId) -> Result<Option<RunCheckpoint>, ServeError>;

    /// Cancels a job; see [`ServeHandle::cancel`].
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] / [`ServeError::JobEvicted`].
    fn cancel(&self, id: JobId) -> Result<StatusResponse, ServeError>;

    /// The `/stats` payload, already serialised — its shape is
    /// service-specific.
    fn stats_value(&self) -> serde_json::Value;

    /// The `/healthz` payload, already serialised — its shape is
    /// service-specific.
    fn healthz_value(&self) -> serde_json::Value;

    /// The `/checkpoints` payload (bulk replication export), already
    /// serialised — its shape is service-specific.
    fn checkpoints_value(&self) -> serde_json::Value;

    /// Flags the service to drain; see [`ServeHandle::request_drain`].
    fn request_drain(&self);
}

/// The single-node service: every method delegates to the engine handle.
impl JobApi for ServeHandle {
    fn submit(&self, spec: JobSpec) -> Result<JobId, ServeError> {
        ServeHandle::submit(self, spec)
    }

    fn status(&self, id: JobId) -> Result<StatusResponse, ServeError> {
        ServeHandle::status(self, id)
    }

    fn report(&self, id: JobId) -> Result<RunReport, ServeError> {
        ServeHandle::report(self, id)
    }

    fn checkpoint(&self, id: JobId) -> Result<Option<RunCheckpoint>, ServeError> {
        ServeHandle::checkpoint(self, id)
    }

    fn cancel(&self, id: JobId) -> Result<StatusResponse, ServeError> {
        ServeHandle::cancel(self, id)
    }

    fn stats_value(&self) -> serde_json::Value {
        serde_json::to_value(self.stats()).unwrap_or(serde_json::Value::Null)
    }

    fn healthz_value(&self) -> serde_json::Value {
        serde_json::to_value(self.healthz()).unwrap_or(serde_json::Value::Null)
    }

    fn checkpoints_value(&self) -> serde_json::Value {
        serde_json::to_value(self.export_jobs()).unwrap_or(serde_json::Value::Null)
    }

    fn request_drain(&self) {
        ServeHandle::request_drain(self);
    }
}

/// One connection currently inside a handler: a shared handle to its
/// socket, and — while the handler is parked between requests — the
/// deadline (on the injected clock) past which the idle wait must end.
#[derive(Debug)]
struct ActiveConn {
    stream: TcpStream,
    /// `Some` only while the handler is blocked in [`await_request`];
    /// `None` while a request is in flight.
    idle_deadline: Option<Instant>,
}

/// What the accept thread and the handler pool share, behind the
/// [`ConnQueue`]'s one mutex.
#[derive(Debug, Default)]
struct Conns {
    /// Accepted sockets waiting for a handler.
    pending: VecDeque<TcpStream>,
    /// Connections currently being served, keyed by a per-server token.
    active: HashMap<u64, ActiveConn>,
    next_token: u64,
    stop: bool,
}

/// The accept thread's hand-off point to the handler pool: a bounded
/// queue of accepted sockets, the stop flag, and a table of the
/// connections currently being served, all behind one mutex. The table is
/// how blocked reads are woken without polling: [`ConnQueue::shut_down`]
/// and the clock's waker hooks shut the tracked sockets down, which
/// unblocks the handler's `read(2)` immediately. A handler tracks its
/// connection before it first checks the stop flag, so a stop is either
/// seen by that check or finds the connection in the table.
#[derive(Debug)]
struct ConnQueue {
    conns: Mutex<Conns>,
    /// Notified when a socket is queued or the server stops.
    available: Condvar,
    cap: usize,
    /// The clock idle deadlines are measured on; [`ConnQueue::close_expired`]
    /// runs from its waker hooks when virtual time steps.
    clock: SharedClock,
}

impl ConnQueue {
    fn new(cap: usize, clock: SharedClock) -> Self {
        ConnQueue { conns: Mutex::new(Conns::default()), available: Condvar::new(), cap, clock }
    }

    fn lock(&self) -> MutexGuard<'_, Conns> {
        self.conns.lock().expect("http connection table poisoned")
    }

    /// Hands an accepted socket to the pool; a full queue returns the
    /// socket so the caller can shed the connection.
    fn push(&self, stream: TcpStream) -> Option<TcpStream> {
        let mut conns = self.lock();
        if conns.pending.len() >= self.cap {
            return Some(stream);
        }
        conns.pending.push_back(stream);
        self.available.notify_one();
        None
    }

    /// Blocks until a socket is available or the server stops; `None`
    /// means shut down.
    fn pop(&self) -> Option<TcpStream> {
        let mut conns = self.lock();
        loop {
            if conns.stop {
                return None;
            }
            if let Some(stream) = conns.pending.pop_front() {
                return Some(stream);
            }
            conns = self.available.wait(conns).expect("http connection table poisoned");
        }
    }

    fn stopped(&self) -> bool {
        self.lock().stop
    }

    /// Tracks a connection so shutdown and the clock waker can wake its
    /// blocked reads; `None` when its socket cannot be cloned, and the
    /// connection is then closed unserved.
    fn track(&self, stream: &TcpStream) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let mut conns = self.lock();
        conns.next_token += 1;
        let token = conns.next_token;
        conns.active.insert(token, ActiveConn { stream: clone, idle_deadline: None });
        Some(token)
    }

    fn untrack(&self, token: u64) {
        self.lock().active.remove(&token);
    }

    /// Marks a tracked connection as parked between requests (deadline on
    /// the injected clock) or back in flight (`None`).
    fn set_idle(&self, token: u64, deadline: Option<Instant>) {
        if let Some(conn) = self.lock().active.get_mut(&token) {
            conn.idle_deadline = deadline;
        }
    }

    /// Shuts down every parked connection whose idle deadline has passed
    /// on the injected clock. Runs from the clock's waker hooks, so a
    /// virtual-time step expires idle keep-alive connections immediately
    /// instead of leaving them blocked until a real-time timeout.
    fn close_expired(&self) {
        let now = self.clock.now();
        for conn in self.lock().active.values() {
            if conn.idle_deadline.is_some_and(|deadline| now >= deadline) {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
    }

    fn shut_down(&self) {
        // Reached from `Drop`, so a poisoned table is recovered instead of
        // panicking: raising the flag and shutting sockets down is sound
        // whatever state a panicking thread left behind.
        let mut conns = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
        conns.stop = true;
        self.available.notify_all();
        // Wake every handler blocked in an idle or mid-request read —
        // stopping must not wait out socket timeouts.
        for conn in conns.active.values() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }
}

/// A running HTTP listener bound to a [`JobApi`] service. Dropping it (or
/// calling [`HttpServer::stop`]) stops the accept thread and the handler
/// pool; the service behind it keeps running and is shut down separately.
#[derive(Debug)]
pub struct HttpServer {
    addr: SocketAddr,
    queue: Arc<ConnQueue>,
    threads: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds the listener with [`DEFAULT_CONN_WORKERS`] connection
    /// handlers on the real clock. Bind to port 0 to let the OS pick a
    /// free port, then read it back from [`HttpServer::addr`].
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(service: impl JobApi + 'static, addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::bind_with(service, addr, DEFAULT_CONN_WORKERS)
    }

    /// As [`HttpServer::bind`] with an explicit handler-pool size, on the
    /// real clock.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind_with(
        service: impl JobApi + 'static,
        addr: impl ToSocketAddrs,
        conn_workers: usize,
    ) -> io::Result<Self> {
        Self::bind_with_clock(service, addr, conn_workers, real_clock())
    }

    /// Binds the listener and starts one accept thread plus
    /// `conn_workers` connection-handler threads (clamped to at least 1).
    /// The accept thread only moves sockets onto the hand-off queue, so a
    /// client that stalls mid-request ties up one handler slot — never
    /// the accept path or the other handlers. The clock drives the
    /// keep-alive idle deadline; tests pass a
    /// [`TestClock`](breaksym_testkit::TestClock) to control it exactly.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind_with_clock(
        service: impl JobApi + 'static,
        addr: impl ToSocketAddrs,
        conn_workers: usize,
        clock: SharedClock,
    ) -> io::Result<Self> {
        let service: Arc<dyn JobApi> = Arc::new(service);
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let conn_workers = conn_workers.max(1);
        let queue = Arc::new(ConnQueue::new(conn_workers * PENDING_PER_WORKER, clock.clone()));
        // Virtual-time steps must expire idle keep-alive connections
        // without any real-time polling: the clock's waker sweeps the
        // connection table and shuts down parked sockets past their deadline.
        // (The real clock drops the waker; there, the idle read timeout
        // itself is sized to the remaining budget.)
        {
            let weak = Arc::downgrade(&queue);
            clock.register_waker(Arc::new(move || {
                if let Some(queue) = weak.upgrade() {
                    queue.close_expired();
                }
            }));
        }
        let mut threads = Vec::with_capacity(conn_workers + 1);
        threads.push({
            let queue = Arc::clone(&queue);
            std::thread::Builder::new()
                .name("breaksym-serve-http".into())
                .spawn(move || accept_loop(&listener, &queue))
                .expect("http accept thread spawns")
        });
        for i in 0..conn_workers {
            let queue = Arc::clone(&queue);
            let service = Arc::clone(&service);
            let clock = clock.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("breaksym-serve-conn-{i}"))
                    .spawn(move || {
                        while let Some(stream) = queue.pop() {
                            // A broken connection is the client's problem,
                            // not the server's: log-free best effort.
                            let _ = handle_connection(&*service, &queue, &clock, stream);
                        }
                    })
                    .expect("http handler threads spawn"),
            );
        }
        Ok(HttpServer { addr, queue, threads })
    }

    /// The bound address (with the OS-assigned port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many connection handlers are serving a connection right now.
    /// Observability for tests: "the stalled client occupies exactly one
    /// slot" becomes a poll on this gauge instead of a guessed sleep.
    pub fn busy_handlers(&self) -> usize {
        self.queue.lock().active.len()
    }

    /// Stops the accept thread and the handler pool and waits for them to
    /// exit; queued-but-unserved sockets are dropped and in-flight
    /// connections are woken immediately by shutting their sockets down.
    /// The accept thread blocks in `accept`, so it is woken by one
    /// connection to the listener's own address (loopback when bound to
    /// the unspecified address), after which it sees the stop flag. If
    /// that connection cannot be made (out of file descriptors, say), the
    /// accept thread is not waited for: it ends at its next accept.
    /// Idempotent.
    pub fn stop(&mut self) {
        self.queue.shut_down();
        let mut threads = self.threads.drain(..);
        if let Some(accept) = threads.next() {
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
                let _ = accept.join();
            }
        }
        for thread in threads {
            let _ = thread.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Blocks in `accept` and hands each socket to the pool.
/// [`HttpServer::stop`] wakes it with a connection of its own, which the
/// stop check after every accept drops.
fn accept_loop(listener: &TcpListener, queue: &ConnQueue) {
    loop {
        let accepted = listener.accept();
        if queue.stopped() {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                if let Some(rejected) = queue.push(stream) {
                    // Every handler busy and the queue full: shed load
                    // now, best effort, instead of parking the socket.
                    let _ = reject_busy(rejected);
                }
            }
            // A persistent error (`EMFILE`: out of file descriptors)
            // fails every call at once; back off so it cannot spin.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// 503 for a connection the pool has no room for. Bounded by a short
/// write timeout so a client that refuses to read cannot stall accepts.
fn reject_busy(mut stream: TcpStream) -> io::Result<()> {
    stream.set_write_timeout(Some(Duration::from_millis(250)))?;
    let body = "{\"error\": \"busy\", \"reason\": \"all connection handlers are busy; retry\"}";
    write_response(&mut stream, 503, body, false)
}

/// The framing one message head declares, as [`read_head`] parsed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Head {
    /// The request or status line, terminator trimmed.
    pub start_line: String,
    /// The declared body length; 0 when the head declares none.
    pub content_length: u64,
    /// The `Connection` header's value, lowercased; empty when absent.
    pub connection: String,
}

/// Why [`read_head`] refused a head. After any of these the bytes that
/// follow cannot be framed, so the connection must close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadError {
    /// The head exceeds the header byte or line budget.
    TooLarge,
    /// A `Content-Length` that does not parse, or a second one that
    /// disagrees: the body's end is unknown.
    BadLength,
    /// Chunked transfer encoding, which this protocol does not speak.
    Chunked,
}

impl HeadError {
    /// The status the server answers this refusal with.
    pub fn http_status(self) -> u16 {
        match self {
            HeadError::TooLarge => 431,
            HeadError::BadLength => 400,
            HeadError::Chunked => 501,
        }
    }

    /// A one-line explanation.
    pub fn reason(self) -> String {
        match self {
            HeadError::TooLarge => {
                format!("headers exceed {MAX_HEADER_BYTES} bytes or {MAX_HEADER_LINES} lines")
            }
            HeadError::BadLength => "malformed or conflicting Content-Length".into(),
            HeadError::Chunked => {
                "chunked transfer encoding is not supported; send Content-Length".into()
            }
        }
    }
}

/// Reads one message head, a request's or a response's, through its
/// blank line: at most 8 KiB in at most 64 header lines, one
/// `Content-Length` (a repeat must agree), no chunked transfer encoding.
/// The server frames requests with it and the cluster's node client
/// frames responses with it, so on a kept-alive connection neither side
/// can take a body's bytes for the next message.
///
/// # Errors
///
/// The socket's error, or `UnexpectedEof` when the peer closes before
/// the head ends. A head it refuses is `Ok(Err(_))`, returned as soon as
/// the problem is seen.
pub fn read_head(reader: &mut impl BufRead) -> io::Result<Result<Head, HeadError>> {
    let mut budget = MAX_HEADER_BYTES;
    let HeaderLine::Line(start_line) = read_line_capped(reader, &mut budget)? else {
        return Ok(Err(HeadError::TooLarge));
    };
    let mut content_length: Option<u64> = None;
    let mut chunked = false;
    let mut connection = String::new();
    let mut lines = 0usize;
    loop {
        let HeaderLine::Line(line) = read_line_capped(reader, &mut budget)? else {
            return Ok(Err(HeadError::TooLarge));
        };
        if line.is_empty() {
            break;
        }
        lines += 1;
        if lines > MAX_HEADER_LINES {
            return Ok(Err(HeadError::TooLarge));
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                match value.trim().parse::<u64>() {
                    Ok(n) if content_length.is_none_or(|prev| prev == n) => {
                        content_length = Some(n);
                    }
                    _ => return Ok(Err(HeadError::BadLength)),
                }
            } else if name.eq_ignore_ascii_case("transfer-encoding")
                && value.to_ascii_lowercase().contains("chunked")
            {
                chunked = true;
            } else if name.eq_ignore_ascii_case("connection") {
                connection = value.trim().to_ascii_lowercase();
            }
        }
    }
    if chunked {
        return Ok(Err(HeadError::Chunked));
    }
    Ok(Ok(Head { start_line, content_length: content_length.unwrap_or(0), connection }))
}

/// One header (or request) line, read with a hard byte budget.
enum HeaderLine {
    /// A complete line, terminator trimmed.
    Line(String),
    /// The byte budget ran out before the line terminator arrived.
    TooLong,
}

/// Reads one `\n`-terminated line without ever buffering more than
/// `budget` bytes, decrementing the budget by what was consumed.
/// `UnexpectedEof` when the peer has closed.
fn read_line_capped(reader: &mut impl BufRead, budget: &mut usize) -> io::Result<HeaderLine> {
    let mut line = String::new();
    // `take` bounds how much read_line can pull: one byte beyond the
    // budget distinguishes "exactly fits" from "still no terminator".
    let n = reader.by_ref().take(*budget as u64 + 1).read_line(&mut line)?;
    if n == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed inside a message head"));
    }
    if n > *budget {
        return Ok(HeaderLine::TooLong);
    }
    *budget -= n;
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(HeaderLine::Line(line))
}

/// What the between-requests wait observed.
enum Waited {
    /// Request bytes are buffered and ready to parse.
    Data,
    /// The connection should close: client EOF, idle deadline passed, or
    /// the server is stopping.
    Close,
}

/// Waits for the next request's first byte under the keep-alive idle
/// budget, measured on the injected clock — frozen virtual time never
/// expires a connection on its own. The wait *blocks*; there is no poll
/// tick. Three things can wake it: request bytes, the stop path or clock
/// waker shutting the socket down (via the [`ConnQueue`] table), or —
/// on the real clock — the read timeout, which is sized to the remaining
/// idle budget so expiry costs exactly one wait.
fn await_request(
    stream: &TcpStream,
    reader: &mut BufReader<TcpStream>,
    queue: &ConnQueue,
    clock: &SharedClock,
    token: u64,
) -> io::Result<Waited> {
    let idle_from = clock.now();
    let deadline = idle_from + KEEP_ALIVE_IDLE;
    queue.set_idle(token, Some(deadline));
    let waited = loop {
        if queue.stopped() {
            break Ok(Waited::Close);
        }
        let now = clock.now();
        if now.duration_since(idle_from) >= KEEP_ALIVE_IDLE {
            break Ok(Waited::Close);
        }
        stream.set_read_timeout(Some((deadline - now).max(Duration::from_millis(1))))?;
        match reader.fill_buf() {
            Ok([]) => break Ok(Waited::Close),
            Ok(_) => break Ok(Waited::Data),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Real-clock expiry (or a spurious wake under a frozen
                // TestClock, where the virtual deadline can't pass by
                // itself); the loop head re-checks both clocks' views.
            }
            Err(e) => {
                // A shutdown injected by shut_down or close_expired can
                // surface as a reset instead of an EOF; both mean close.
                let woken =
                    queue.stopped() || clock.now().duration_since(idle_from) >= KEEP_ALIVE_IDLE;
                break if woken { Ok(Waited::Close) } else { Err(e) };
            }
        }
    };
    queue.set_idle(token, None);
    if matches!(waited, Ok(Waited::Data)) {
        stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    }
    waited
}

/// Serves one keep-alive connection: requests back to back on one socket
/// until the client closes, asks to close, idles out, or the per-
/// connection cap is reached.
fn handle_connection(
    api: &dyn JobApi,
    queue: &ConnQueue,
    clock: &SharedClock,
    stream: TcpStream,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    let mut stream = stream;
    let mut reader = BufReader::new(stream.try_clone()?);
    // Tracked so the stop path and the clock waker can wake this
    // handler's blocked reads by shutting the socket down.
    let Some(token) = queue.track(&stream) else {
        return Ok(());
    };
    let result = (|| {
        for _ in 0..MAX_REQUESTS_PER_CONN {
            match await_request(&stream, &mut reader, queue, clock, token)? {
                Waited::Close => return Ok(()),
                Waited::Data => {}
            }
            if !serve_request(api, &mut stream, &mut reader)? {
                return Ok(());
            }
        }
        Ok(())
    })();
    queue.untrack(token);
    result
}

/// Parses and answers one request; returns whether the connection stays
/// open for the next one.
fn serve_request(
    api: &dyn JobApi,
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
) -> io::Result<bool> {
    let head = match read_head(reader)? {
        Ok(head) => head,
        Err(refused) => {
            // A head whose framing cannot be trusted would let its bytes
            // pass as the next request: answer, then close.
            let status = refused.http_status();
            let err = ServeError::BadRequest { reason: refused.reason() };
            reject(stream, reader, status, &json(status, &err).1)?;
            return Ok(false);
        }
    };
    let mut parts = head.start_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    // Strip any query string: routing is path-only.
    let path = parts.next().unwrap_or("").split('?').next().unwrap_or("").to_string();
    let http11 = parts.next().unwrap_or("HTTP/1.1").eq_ignore_ascii_case("HTTP/1.1");

    // HTTP/1.1 defaults to keep-alive; 1.0 must opt in; an explicit
    // `close` always wins.
    let keep_alive = if head.connection.contains("close") {
        false
    } else {
        http11 || head.connection.contains("keep-alive")
    };

    let content_length = head.content_length;
    if content_length > MAX_BODY_BYTES {
        let err = ServeError::BadRequest { reason: format!("body exceeds {MAX_BODY_BYTES} bytes") };
        reject(stream, reader, err.http_status(), &json(err.http_status(), &err).1)?;
        return Ok(false);
    }
    // Read the body through the same BufReader — its buffer may already
    // hold body bytes pulled in while reading the headers.
    let mut request_body = vec![0u8; content_length as usize];
    reader.read_exact(&mut request_body)?;
    let (status, body) = route(api, &method, &path, &request_body);
    if let Some(FaultAction::Drop) = breaksym_testkit::fault::hit(FAIL_HTTP_RESPOND) {
        // Injected connection loss: the request was served, the response
        // never leaves — the client sees a mid-flight drop. (A `DelayMs`
        // action stalls inside `hit` before this branch is reached.)
        let _ = stream.shutdown(Shutdown::Both);
        return Ok(false);
    }
    write_response(stream, status, &body, keep_alive)?;
    Ok(keep_alive)
}

/// Most bytes a rejected request's unread remainder is drained for.
const MAX_DRAIN_BYTES: usize = 256 * 1024;

/// Answers an early-rejected request whose body was never read; the
/// connection always closes afterwards (the request framing cannot be
/// trusted). The response goes out first, then the write side shuts down
/// and the unread input is drained (bounded in bytes and time) — closing
/// with unread data would send an RST that can beat the response bytes to
/// the client and destroy them.
fn reject(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    status: u16,
    body: &str,
) -> io::Result<()> {
    write_response(stream, status, body, false)?;
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    while drained < MAX_DRAIN_BYTES {
        match reader.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
    Ok(())
}

/// Maps one request to a `(status, JSON body)` pair.
fn route(api: &dyn JobApi, method: &str, path: &str, body: &[u8]) -> (u16, String) {
    match (method, path) {
        ("POST", "/jobs") => match serde_json::from_slice::<JobSpec>(body) {
            Ok(spec) => reply(api.submit(spec).map(|id| SubmitResponse { id })),
            Err(e) => {
                let err =
                    ServeError::BadRequest { reason: format!("job spec does not parse: {e}") };
                json(err.http_status(), &err)
            }
        },
        ("GET", "/stats") => (200, api.stats_value().to_string()),
        ("GET", "/healthz") => (200, api.healthz_value().to_string()),
        ("GET", "/checkpoints") => (200, api.checkpoints_value().to_string()),
        ("POST", "/shutdown") => {
            api.request_drain();
            (200, "{\"draining\": true}".to_string())
        }
        _ => route_job(api, method, path),
    }
}

/// The `/jobs/{id}[/…]` sub-tree.
fn route_job(api: &dyn JobApi, method: &str, path: &str) -> (u16, String) {
    let Some(rest) = path.strip_prefix("/jobs/") else {
        return not_found();
    };
    let (id_text, action) = match rest.split_once('/') {
        Some((id_text, action)) => (id_text, Some(action)),
        None => (rest, None),
    };
    let Ok(id) = id_text.parse::<u64>() else {
        let err = ServeError::BadRequest { reason: format!("job id `{id_text}` is not a number") };
        return json(err.http_status(), &err);
    };
    let id = JobId(id);
    match (method, action) {
        ("GET", None) => reply(api.status(id)),
        ("GET", Some("report")) => reply(api.report(id)),
        ("GET", Some("checkpoint")) => reply(api.checkpoint(id).and_then(|ckpt| {
            ckpt.ok_or_else(|| ServeError::NotReady {
                reason: "no checkpoint: none captured yet (poll again after a slice completes), \
                         or the job is done (fetch its report)"
                    .into(),
            })
        })),
        ("POST", Some("cancel")) => reply(api.cancel(id)),
        _ => not_found(),
    }
}

fn not_found() -> (u16, String) {
    (404, "{\"error\": \"not_found\"}".to_string())
}

/// Serialises a success payload. Serialisation of our own wire types
/// cannot fail; the fallback keeps the connection well-formed regardless.
fn json<T: Serialize>(status: u16, value: &T) -> (u16, String) {
    match serde_json::to_string(value) {
        Ok(body) => (status, body),
        Err(_) => (500, "{\"error\": \"serialisation_failed\"}".to_string()),
    }
}

/// Collapses a handle call into the wire: `Ok` → 200 + payload, `Err` →
/// the error's HTTP status + its tagged JSON shape.
fn reply<T: Serialize>(result: Result<T, ServeError>) -> (u16, String) {
    match result {
        Ok(value) => json(200, &value),
        Err(e) => json(e.http_status(), &e),
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        410 => "Gone",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Sends the head and the body in one write (see "One write per
/// response" in the module docs).
fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: \
         {}\r\nConnection: {}\r\n\r\n{body}",
        status_reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" }
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_rejects_unknown_paths_and_bad_ids() {
        use crate::engine::{ServeConfig, ServeEngine};
        let engine = ServeEngine::start(ServeConfig { workers: 1, ..ServeConfig::default() });
        let handle = engine.handle();
        assert_eq!(route(&handle, "GET", "/nope", b"").0, 404);
        assert_eq!(route(&handle, "DELETE", "/jobs", b"").0, 404);
        assert_eq!(route(&handle, "GET", "/jobs/abc", b"").0, 400);
        assert_eq!(route(&handle, "GET", "/jobs/7", b"").0, 404);
        assert_eq!(route(&handle, "POST", "/jobs", b"{").0, 400);
        assert_eq!(route(&handle, "GET", "/stats", b"").0, 200);
        assert_eq!(route(&handle, "GET", "/healthz", b"").0, 200);
        assert_eq!(route(&handle, "GET", "/checkpoints", b"").0, 200);
        engine.shutdown();
    }

    #[test]
    fn status_reasons_cover_every_serve_error() {
        for status in [200u16, 400, 404, 409, 410, 429, 431, 500, 501, 503] {
            assert_ne!(status_reason(status), "Unknown", "{status}");
        }
    }

    #[test]
    fn capped_line_reader_enforces_its_budget() {
        let mut budget = 16;
        let mut reader = BufReader::new(&b"GET /stats HTTP/1.1\r\n"[..]);
        match read_line_capped(&mut reader, &mut budget).unwrap() {
            HeaderLine::TooLong => {}
            HeaderLine::Line(line) => panic!("21-byte line fit a 16-byte budget: {line:?}"),
        }

        let mut budget = 64;
        let mut reader = BufReader::new(&b"Host: test\r\nX: y\r\n"[..]);
        match read_line_capped(&mut reader, &mut budget).unwrap() {
            HeaderLine::Line(line) => assert_eq!(line, "Host: test"),
            HeaderLine::TooLong => panic!("a short line must fit"),
        }
        // The budget shrinks by the consumed bytes (terminator included).
        assert_eq!(budget, 64 - "Host: test\r\n".len());
        match read_line_capped(&mut reader, &mut budget).unwrap() {
            HeaderLine::Line(line) => assert_eq!(line, "X: y"),
            HeaderLine::TooLong => panic!("the second line must fit too"),
        }
    }
}
