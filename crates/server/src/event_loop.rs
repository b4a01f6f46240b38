//! The event loop: one thread owning the epoll instance, the listener
//! and every connection — reads, pipelined parsing, dispatch, inline
//! sheds, writes, drain and the idle sweep.

use crate::config::ServerConfig;
use crate::http::{parse_request, HttpError, Request};
use crate::metrics::ServerMetrics;
use crate::pool::{Bridge, Job, JobQueue};
use crate::reply::{ApiError, Reply};
use crate::sys::{Epoll, EpollEvent, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::collections::VecDeque;
use std::io::{self, Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Epoll tag for the listener.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Epoll tag for the worker wake pipe.
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Epoll tick, ms: bounds how stale the timeout sweep and the
/// shutdown-flag check can get while the loop is otherwise idle.
const TICK_MS: i32 = 100;
/// Pipelining bounds, per connection: while this many parsed requests
/// wait behind the one in flight, or this many response bytes wait for
/// the peer to read them, the loop parses nothing more and stops
/// reading the socket. Without them one client pipelining 1 MiB bodies
/// and never reading holds memory without limit.
const MAX_PENDING: usize = 32;
const MAX_UNFLUSHED: usize = 4 << 20;

/// What the server handle, the event loop and the workers tell each
/// other.
#[derive(Debug, Default)]
pub(crate) struct Flags {
    /// Set by `Server::shutdown`; the loop notices within one tick.
    pub(crate) shutdown: AtomicBool,
    /// The loop is draining: every response closes its connection.
    pub(crate) draining: AtomicBool,
    /// `/v1/healthz?ready=1` answers `200`.
    pub(crate) ready: AtomicBool,
}

/// Per-connection state machine.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Generation tag: completions for a recycled slot are dropped
    /// when their generation doesn't match.
    gen: u64,
    /// Bytes read but not yet parsed into a request.
    read_buf: Vec<u8>,
    /// Parsed requests waiting their turn (pipelining). Dispatch is
    /// one-at-a-time per connection so responses keep request order.
    pending: VecDeque<Request>,
    /// A job for this connection is in flight with a worker.
    busy: bool,
    /// Bytes queued for the socket; `write_pos` marks the flushed
    /// prefix.
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Close once the write buffer drains (Connection: close, wire
    /// error, or forced by drain mode).
    closing: bool,
    /// Peer shut down its write half (EOF / EPOLLRDHUP).
    read_eof: bool,
    /// Epoll interest currently registered for the socket.
    interest: u32,
    /// Requests dispatched on this connection so far.
    served: u64,
    last_activity: Instant,
    /// A wire-level parse failure, deferred until the pipelined
    /// requests ahead of it have been answered.
    wire_error: Option<HttpError>,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64) -> Conn {
        Conn {
            stream,
            gen,
            read_buf: Vec::new(),
            pending: VecDeque::new(),
            busy: false,
            write_buf: Vec::new(),
            write_pos: 0,
            closing: false,
            read_eof: false,
            interest: EPOLLIN | EPOLLRDHUP,
            served: 0,
            last_activity: Instant::now(),
            wire_error: None,
        }
    }

    fn write_drained(&self) -> bool {
        self.write_pos >= self.write_buf.len()
    }

    /// A pipelining bound holds.
    fn backlogged(&self) -> bool {
        self.pending.len() >= MAX_PENDING || self.write_buf.len() - self.write_pos >= MAX_UNFLUSHED
    }

    /// Whether more requests may be parsed off `read_buf` — and so
    /// whether reading more into it has any point.
    fn may_parse(&self) -> bool {
        !self.closing && self.wire_error.is_none() && !self.backlogged()
    }
}

/// The event loop: owns the epoll instance, the listener, the wake
/// pipe, and the connection slab.
pub(crate) struct EventLoop {
    epoll: Epoll,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    next_gen: u64,
    open: usize,
    jobs: Arc<JobQueue>,
    bridge: Arc<Bridge>,
    metrics: Arc<ServerMetrics>,
    flags: Arc<Flags>,
    config: ServerConfig,
}

impl EventLoop {
    /// A loop over an empty slab, with the (non-blocking) listener and
    /// the read end of the workers' wake pipe registered.
    pub(crate) fn new(
        listener: TcpListener,
        wake_rx: UnixStream,
        jobs: Arc<JobQueue>,
        bridge: Arc<Bridge>,
        metrics: Arc<ServerMetrics>,
        flags: Arc<Flags>,
        config: ServerConfig,
    ) -> io::Result<EventLoop> {
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), LISTENER_TOKEN, EPOLLIN | EPOLLET)?;
        epoll.add(wake_rx.as_raw_fd(), WAKE_TOKEN, EPOLLIN)?;
        Ok(EventLoop {
            epoll,
            listener: Some(listener),
            wake_rx,
            conns: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
            open: 0,
            jobs,
            bridge,
            metrics,
            flags,
            config,
        })
    }

    pub(crate) fn run(mut self) {
        let mut events = [EpollEvent::default(); 256];
        loop {
            let n = self.epoll.wait(&mut events, TICK_MS).unwrap_or(0);
            if n > 0 {
                self.metrics
                    .ready_events_total
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
            for event in &events[..n] {
                let token = event.data;
                let bits = event.events;
                match token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKE_TOKEN => self.drain_wake(),
                    slot => self.conn_ready(slot as usize, bits),
                }
            }
            self.apply_completions();
            if self.flags.shutdown.load(Ordering::Relaxed) && self.listener.is_some() {
                self.begin_drain();
            }
            if self.flags.draining.load(Ordering::Relaxed) {
                self.sweep_drain();
                if self.open == 0 {
                    return;
                }
            }
            self.sweep_timeouts();
        }
    }

    /// Edge-triggered accept: drain the backlog until `WouldBlock`.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.metrics.accepted_total.fetch_add(1, Ordering::Relaxed);
                    self.register(stream);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn register(&mut self, stream: TcpStream) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        self.next_gen += 1;
        let gen = self.next_gen;
        if self
            .epoll
            .add(stream.as_raw_fd(), slot as u64, EPOLLIN | EPOLLRDHUP)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(Conn::new(stream, gen));
        self.open += 1;
        self.metrics
            .connections_open
            .fetch_add(1, Ordering::Relaxed);
    }

    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn conn_ready(&mut self, slot: usize, bits: u32) {
        if self.conns.get(slot).is_none_or(|c| c.is_none()) {
            return; // already closed this iteration
        }
        // Both are reported whatever the registered interest: the peer
        // is gone for good (reset, or both halves shut).
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            self.close(slot);
            return;
        }
        if bits & (EPOLLIN | EPOLLRDHUP) == 0 || self.read_socket(slot) {
            self.advance(slot);
        }
    }

    /// Reads what arrived, parsing as it goes so that a deep pipeline
    /// stops being read at the bound instead of piling up in
    /// `read_buf`. `false` if the connection died and was closed.
    fn read_socket(&mut self, slot: usize) -> bool {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let conn = self.conns[slot].as_mut().expect("conn checked by caller");
            if !conn.may_parse() {
                return true;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_eof = true;
                    return true;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    if n < chunk.len() {
                        return true; // socket drained
                    }
                    self.parse_pending(slot);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return false;
                }
            }
        }
    }

    /// Moves a connection as far as it will go — parse and dispatch
    /// what the bounds allow, flush — then closes it if nothing more
    /// can happen, or registers the interest its state calls for.
    fn advance(&mut self, slot: usize) {
        loop {
            self.try_dispatch(slot);
            let conn = self.conns[slot].as_ref().expect("conn checked by caller");
            let was_backlogged = conn.backlogged();
            if !self.flush(slot) {
                return;
            }
            // A flush that lifted the byte bound freed requests already
            // sitting in `read_buf`; no socket event will announce them.
            let conn = self.conns[slot].as_ref().expect("flush left it open");
            if !was_backlogged || conn.backlogged() {
                break;
            }
        }
        self.maybe_close(slot);
        if let Some(conn) = self.conns[slot].as_ref() {
            let read = !conn.read_eof && conn.may_parse();
            let write = !conn.write_drained();
            self.set_interest(slot, read, write);
        }
    }

    fn parse_pending(&mut self, slot: usize) {
        let conn = self.conns[slot].as_mut().expect("conn checked by caller");
        let mut pipelined = 0u64;
        while !conn.read_buf.is_empty() && conn.may_parse() {
            match parse_request(&mut conn.read_buf) {
                Ok(Some(req)) => {
                    if conn.busy || !conn.pending.is_empty() {
                        pipelined += 1;
                    }
                    conn.pending.push_back(req);
                }
                Ok(None) => break,
                Err(e) => {
                    // Defer: requests already pipelined ahead of the
                    // bad bytes still get answers before the error
                    // closes the connection.
                    conn.wire_error = Some(e);
                    break;
                }
            }
        }
        if pipelined > 0 {
            self.metrics
                .pipelined_requests_total
                .fetch_add(pipelined, Ordering::Relaxed);
        }
    }

    /// Parses what the bounds allow and dispatches the head-of-line
    /// request if the connection is free. Sheds (full queue) are
    /// answered inline and dispatch continues with the next pipelined
    /// request — the connection survives.
    fn try_dispatch(&mut self, slot: usize) {
        loop {
            self.parse_pending(slot);
            let draining = self.flags.draining.load(Ordering::Relaxed);
            let conn = self.conns[slot].as_mut().expect("conn checked by caller");
            if conn.busy || conn.closing {
                return;
            }
            let Some(req) = conn.pending.pop_front() else {
                // Everything answered: a deferred wire error now takes
                // its turn and the connection closes behind it.
                if let Some(e) = conn.wire_error.take() {
                    let reply = ApiError::from(&e).reply();
                    reply.encode_into(&mut conn.write_buf, false, false);
                    conn.closing = true;
                    self.metrics.record_status(e.status);
                }
                return;
            };
            if conn.served > 0 {
                self.metrics
                    .keepalive_reuses_total
                    .fetch_add(1, Ordering::Relaxed);
            }
            conn.served += 1;
            let keep = req.keep_alive && !draining;
            // GET probes bypass the bound: health and metrics stay
            // answerable while query traffic is being shed.
            let force = req.method == "GET";
            let gen = conn.gen;
            match self.jobs.push(Job { slot, gen, req }, force) {
                Ok(()) => {
                    self.metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
                    let conn = self.conns[slot].as_mut().expect("conn exists");
                    conn.busy = true;
                    // Refill the slot the dispatch freed, so a backlog
                    // in `read_buf` keeps the socket unread.
                    self.parse_pending(slot);
                    return;
                }
                Err(job) => {
                    // Inline shed: one buffered 429, keep-alive
                    // preserved, loop on to the next pipelined request.
                    self.metrics.shed_total.fetch_add(1, Ordering::Relaxed);
                    self.metrics.record_status(429);
                    let reply = shed_reply(&self.config);
                    let conn = self.conns[slot].as_mut().expect("conn exists");
                    reply.encode_into(&mut conn.write_buf, keep, job.req.http11);
                    if !keep {
                        conn.closing = true;
                    }
                }
            }
        }
    }

    fn apply_completions(&mut self) {
        for completion in self.bridge.drain() {
            let Some(conn) = self.conns.get_mut(completion.slot).and_then(|c| c.as_mut()) else {
                continue;
            };
            if conn.gen != completion.gen {
                continue; // slot was recycled under the worker
            }
            conn.busy = false;
            if conn.write_buf.is_empty() {
                // Common case: nothing pending — adopt the worker's
                // buffer instead of copying it, and cycle the drained
                // predecessor back to the workers.
                let old = std::mem::replace(&mut conn.write_buf, completion.bytes);
                conn.write_pos = 0;
                self.bridge.retire_spare(old);
            } else {
                conn.write_buf.extend_from_slice(&completion.bytes);
                self.bridge.retire_spare(completion.bytes);
            }
            conn.last_activity = Instant::now();
            if completion.close {
                conn.closing = true;
                conn.pending.clear();
                conn.wire_error = None;
            }
            self.advance(completion.slot);
        }
    }

    /// Flushes the write buffer as far as the socket allows. `false`
    /// if the connection died and was closed.
    fn flush(&mut self, slot: usize) -> bool {
        loop {
            let conn = self.conns[slot].as_mut().expect("conn checked by caller");
            if conn.write_drained() {
                conn.write_buf.clear();
                conn.write_pos = 0;
                return true;
            }
            match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
                Ok(0) => break,
                Ok(n) => {
                    conn.write_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        self.close(slot);
        false
    }

    /// Registers what the loop wants to hear about the socket.
    /// Connection sockets are level-triggered, so input that is not
    /// wanted (a bound holds, EOF was seen) must be deregistered — just
    /// not reading it would spin the loop.
    fn set_interest(&mut self, slot: usize, read: bool, write: bool) {
        let conn = self.conns[slot].as_mut().expect("conn checked by caller");
        let mut interest = 0;
        if read {
            interest |= EPOLLIN | EPOLLRDHUP;
        }
        if write {
            interest |= EPOLLOUT;
        }
        if interest != conn.interest
            && self
                .epoll
                .modify(conn.stream.as_raw_fd(), slot as u64, interest)
                .is_ok()
        {
            conn.interest = interest;
        }
    }

    /// Closes the connection if nothing more can happen on it.
    fn maybe_close(&mut self, slot: usize) {
        let Some(conn) = self.conns.get(slot).and_then(|c| c.as_ref()) else {
            return;
        };
        if conn.busy || !conn.write_drained() {
            return;
        }
        if conn.closing || (conn.read_eof && conn.pending.is_empty() && conn.wire_error.is_none()) {
            self.close(slot);
        }
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.open -= 1;
            self.metrics
                .connections_open
                .fetch_sub(1, Ordering::Relaxed);
            self.free.push(slot);
        }
    }

    /// Enters drain mode: stop accepting, clear readiness; existing
    /// connections finish what they started.
    fn begin_drain(&mut self) {
        self.flags.draining.store(true, Ordering::Relaxed);
        self.flags.ready.store(false, Ordering::Release);
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
        }
    }

    /// During drain, closes connections that have been served (or hung
    /// up) and have nothing left in flight. Connections that connected
    /// but have not yet sent a request stay until they do (their
    /// response is forced to `Connection: close`) or until the idle
    /// sweep reaps them.
    fn sweep_drain(&mut self) {
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            if !conn.busy
                && conn.pending.is_empty()
                && conn.wire_error.is_none()
                && conn.write_drained()
                && (conn.served > 0 || conn.read_eof)
            {
                self.close(slot);
            }
        }
    }

    /// Slowloris guard: reaps connections idle past the configured
    /// timeout with no request in flight.
    fn sweep_timeouts(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else {
                continue;
            };
            if !conn.busy && now.duration_since(conn.last_activity) > self.config.io_timeout {
                self.close(slot);
            }
        }
    }
}

/// The `429` the event loop writes itself when the dispatch queue is
/// full.
fn shed_reply(config: &ServerConfig) -> Reply {
    ApiError::new(429, "shed", "dispatch queue is full, retry later")
        .with_retry_after(config.retry_after_secs)
        .reply()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reply::assert_envelope;

    #[test]
    fn parsing_pauses_at_either_pipelining_bound() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let mut conn = Conn::new(stream, 1);
        assert!(conn.may_parse());

        conn.pending
            .extend((1..MAX_PENDING).map(|_| Request::default()));
        assert!(!conn.backlogged(), "one under the request bound");
        conn.pending.push_back(Request::default());
        assert!(conn.backlogged() && !conn.may_parse());
        conn.pending.pop_front();
        assert!(conn.may_parse(), "a dispatch lifts it");

        conn.write_buf = vec![0; MAX_UNFLUSHED + 8];
        conn.write_pos = 8;
        assert!(conn.backlogged() && !conn.may_parse());
        conn.write_pos = 9;
        assert!(conn.may_parse(), "a flush lifts it");

        // A connection that will close parses nothing more either.
        conn.wire_error = Some(HttpError::bad_request("x"));
        assert!(!conn.may_parse() && !conn.backlogged());
    }

    #[test]
    fn shed_reply_is_an_envelope_with_retry_after() {
        let reply = shed_reply(&ServerConfig::default());
        assert_envelope(&reply, 429, "shed");
        assert!(reply.body.contains("\"retry_after\": 1"), "{}", reply.body);
        assert!(reply
            .headers
            .iter()
            .any(|(name, value)| *name == "Retry-After" && value == "1"));
    }
}
