//! The query server: [`Server`] starts an epoll event loop and a fixed
//! set of worker threads around a bounded dispatch queue, and shuts
//! them down gracefully. The modules beside this one hold the parts:
//! `event_loop` (connections), `pool` (queue, workers, completion
//! bridge), `route` (endpoints and options), `render` (success
//! bodies), `reply` (the error envelope), `config`.
//!
//! ## Life of a request
//!
//! 1. The **event loop** (one thread, [`sys::Epoll`](crate::sys::Epoll))
//!    owns the listener and every connection. Sockets are non-blocking;
//!    reads append into a per-connection buffer and
//!    [`parse_request`] peels complete requests off the front — several
//!    pipelined requests parse out of one readable event. Responses
//!    queue into a per-connection write buffer flushed as the socket
//!    allows (`EPOLLOUT` is armed only while bytes are pending).
//!    Pipelining is bounded per connection: with 32 requests parsed
//!    and waiting, or 4 MiB of responses the peer has not read, the
//!    loop stops parsing and deregisters the socket for reading until
//!    both fall back under.
//! 2. Parsed requests are **dispatched** to a bounded job queue, one at
//!    a time per connection so pipelined responses keep request order.
//!    A full queue sheds with `429` + `Retry-After` written inline by
//!    the event loop — back-pressure costs one buffered write, never a
//!    worker, and the connection *stays open* (a shed under pipelining
//!    does not sacrifice the keep-alive socket). `GET` requests
//!    (`/v1/healthz`, `/metrics`) bypass the bound so probes stay
//!    responsive under overload.
//! 3. A **worker** (fixed set of threads, each owning an evaluation
//!    pool) pops a job, routes it, and frames the response bytes
//!    (`Content-Length`, or chunked transfer-encoding for large bodies
//!    on HTTP/1.1). Evaluation happens only here, never on the event
//!    loop — that is what keeps sheds, probes and other connections
//!    moving while a PSPACE-class query runs. A handler that panics
//!    costs its request a `500` on a closing connection and a tick of
//!    `panics_total`; the worker pops the next job. Query evaluation
//!    pins one store [`Snapshot`](owql_store::Store::snapshot) per
//!    request — writers never block readers, and the response reports
//!    the epoch it is consistent with. A parallel-mode query fans out
//!    over the worker's own evaluation pool against that same snapshot.
//! 4. Deadlines ride the unified API: `deadline_ms` becomes
//!    [`ExecOpts::deadline`], the engine's cooperative budget unwinds
//!    the evaluation, and the worker maps [`EvalError::Timeout`] to
//!    `504`. Likewise the **admission policy**: a configured
//!    [`ServerConfig::admission_ceiling`] (tightenable per request)
//!    becomes [`ExecOpts::max_class`]; a query whose statically
//!    determined complexity class exceeds it is shed with `429` before
//!    any evaluation work, the body carrying an `AD001` diagnostic
//!    from `owql-lint`.
//! 5. **Shutdown** flips a flag; the event loop drops the listener,
//!    clears readiness, and drains: connections finish their in-flight
//!    and pipelined requests (responses forced to `Connection: close`),
//!    idle served connections close, and the loop exits once the slab
//!    is empty. Then the job queue closes and every worker joins.
//!
//! ## Wire surface
//!
//! `POST /v1/query|/v1/explain|/v1/lint` take a JSON body
//! `{"pattern": "...", "opts": {...}}`; `GET /v1/healthz` and
//! `GET /metrics` take none. Every non-2xx answer — routed, shed, or a
//! wire-level failure — carries the one envelope
//! `{"error": {"code", "message", "span"?, "retry_after"?}}`.
//!
//! [`parse_request`]: crate::http::parse_request
//! [`ExecOpts::deadline`]: owql_eval::ExecOpts::deadline
//! [`ExecOpts::max_class`]: owql_eval::ExecOpts::max_class
//! [`EvalError::Timeout`]: owql_eval::EvalError::Timeout

pub use crate::config::{ServerConfig, ServerConfigBuilder};
use crate::event_loop::{EventLoop, Flags};
use crate::metrics::ServerMetrics;
use crate::pool::{worker_loop, Bridge, JobQueue};
use crate::route::route;
use owql_exec::Pool;
use owql_store::Store;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running query server. Dropping it without calling
/// [`Server::shutdown`] detaches the threads (the test and example
/// entry points always shut down explicitly).
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    flags: Arc<Flags>,
    jobs: Arc<JobQueue>,
    metrics: Arc<ServerMetrics>,
    io_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts the event loop plus `config.workers` workers
    /// (at least one). Readiness (`/v1/healthz?ready=1`) turns true
    /// here, once the queue and the event loop are wired and before
    /// the first connection is served.
    pub fn start(store: Arc<Store>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;

        let flags = Arc::new(Flags::default());
        let metrics = Arc::new(ServerMetrics::default());
        let jobs = Arc::new(JobQueue::new(config.queue_capacity.max(1)));
        let bridge = Arc::new(Bridge::new(wake_tx));
        let event_loop = EventLoop::new(
            listener,
            wake_rx,
            jobs.clone(),
            bridge.clone(),
            metrics.clone(),
            flags.clone(),
            config.clone(),
        )?;

        flags.ready.store(true, Ordering::Release);

        let worker_handles: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|_| {
                let jobs = jobs.clone();
                let bridge = bridge.clone();
                let store = store.clone();
                let config = config.clone();
                let metrics = metrics.clone();
                let flags = flags.clone();
                std::thread::spawn(move || {
                    // Each worker owns its pool: concurrent requests
                    // never contend for evaluation threads.
                    let pool = Pool::new(config.pool_threads.max(1));
                    worker_loop(&jobs, &bridge, &metrics, &flags.draining, |req| {
                        let ready = flags.ready.load(Ordering::Acquire);
                        route(req, &store, &pool, &config, &metrics, ready)
                    })
                })
            })
            .collect();

        let io_handle = std::thread::spawn(move || event_loop.run());

        Ok(Server {
            addr,
            flags,
            jobs,
            metrics,
            io_handle: Some(io_handle),
            worker_handles,
        })
    }

    /// The bound address (resolves port 0 to the OS-assigned port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared request counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Graceful shutdown: stop accepting, drain in-flight and
    /// pipelined requests, join every thread. The event loop notices
    /// the flag within one tick, drops the listener, and exits once
    /// every connection has been served and closed; then the job queue
    /// closes and the workers join.
    pub fn shutdown(mut self) {
        self.flags.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.io_handle.take() {
            let _ = handle.join();
        }
        self.jobs.close();
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}
