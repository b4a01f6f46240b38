//! The worker pool: the bounded dispatch queue the event loop feeds,
//! the workers that drain it, and the completion bridge back.

use crate::http::Request;
use crate::metrics::ServerMetrics;
use crate::render::retire_body;
use crate::reply::{ApiError, Reply};
use std::collections::VecDeque;
use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};

/// One parsed request bound for a worker, tagged with the connection
/// slot and generation that must receive the response.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) slot: usize,
    pub(crate) gen: u64,
    pub(crate) req: Request,
}

/// One framed response coming back from a worker. `close` mirrors the
/// framing decision (`Connection: close`) so the event loop tears the
/// connection down after the flush.
#[derive(Debug)]
pub(crate) struct Completion {
    pub(crate) slot: usize,
    pub(crate) gen: u64,
    pub(crate) bytes: Vec<u8>,
    pub(crate) close: bool,
}

/// The bounded dispatch queue: a `Mutex<VecDeque>` + `Condvar`.
/// `push` never blocks (full ⇒ the caller sheds); `pop` blocks until a
/// job arrives or the queue is closed *and* drained.
#[derive(Debug)]
pub(crate) struct JobQueue {
    inner: Mutex<JobQueueInner>,
    cv: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct JobQueueInner {
    queue: VecDeque<Job>,
    closed: bool,
}

impl JobQueue {
    pub(crate) fn new(capacity: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(JobQueueInner {
                queue: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            capacity,
        }
    }

    /// Offers a job; hands it back if the queue is full (unless
    /// `force`) or closed. `force` lets `GET` probes (`/v1/healthz`,
    /// `/metrics`) bypass the bound so observability survives
    /// overload.
    pub(crate) fn push(&self, job: Job, force: bool) -> Result<(), Job> {
        let mut inner = self.inner.lock().expect("job queue lock poisoned");
        if inner.closed || (!force && inner.queue.len() >= self.capacity) {
            return Err(job);
        }
        inner.queue.push_back(job);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once closed and drained.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut inner = self.inner.lock().expect("job queue lock poisoned");
        loop {
            if let Some(job) = inner.queue.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.cv.wait(inner).expect("job queue lock poisoned");
        }
    }

    /// Closes the queue: queued jobs still drain, new pushes bounce,
    /// blocked poppers wake.
    pub(crate) fn close(&self) {
        self.inner.lock().expect("job queue lock poisoned").closed = true;
        self.cv.notify_all();
    }
}

/// Worker → event-loop completion channel: completions accumulate
/// under a mutex and a byte on the wake pipe makes the epoll wait
/// return to drain them.
#[derive(Debug)]
pub(crate) struct Bridge {
    completions: Mutex<Vec<Completion>>,
    wake_tx: UnixStream,
    /// Retired response buffers cycling back from the event loop so
    /// workers can encode large responses without fresh allocations.
    spares: Mutex<Vec<Vec<u8>>>,
}

impl Bridge {
    /// A bridge waking the event loop through `wake_tx` (non-blocking;
    /// the loop polls the other end).
    pub(crate) fn new(wake_tx: UnixStream) -> Bridge {
        Bridge {
            completions: Mutex::new(Vec::new()),
            wake_tx,
            spares: Mutex::new(Vec::new()),
        }
    }

    /// Pops a recycled encode buffer, empty but with capacity.
    pub(crate) fn take_spare(&self) -> Vec<u8> {
        self.spares
            .lock()
            .expect("bridge spares lock poisoned")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a drained response buffer for reuse by a worker.
    pub(crate) fn retire_spare(&self, mut buf: Vec<u8>) {
        if buf.capacity() < 4096 {
            return;
        }
        buf.clear();
        let mut spares = self.spares.lock().expect("bridge spares lock poisoned");
        if spares.len() < 8 {
            spares.push(buf);
        }
    }

    pub(crate) fn push(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("bridge lock poisoned")
            .push(completion);
        // A full pipe means a wakeup is already pending — dropping the
        // byte is fine.
        let _ = (&self.wake_tx).write(&[1]);
    }

    pub(crate) fn drain(&self) -> Vec<Completion> {
        std::mem::take(&mut *self.completions.lock().expect("bridge lock poisoned"))
    }
}

/// One worker: pops jobs, answers each with `handle` (the router, or a
/// test's stand-in), frames the response bytes, and pushes the
/// completion back to the event loop.
pub(crate) fn worker_loop(
    jobs: &JobQueue,
    bridge: &Bridge,
    metrics: &ServerMetrics,
    draining: &AtomicBool,
    handle: impl Fn(&Request) -> Reply,
) {
    while let Some(job) = jobs.pop() {
        metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        metrics.in_flight.fetch_add(1, Ordering::Relaxed);
        // A panic must cost one response, not the worker: a dead worker
        // leaves its connection `busy` forever, which no sweep reaps and
        // shutdown waits on. What the handler was mutating is unknown,
        // so the `500` also closes the connection.
        let (reply, panicked) = match catch_unwind(AssertUnwindSafe(|| handle(&job.req))) {
            Ok(reply) => (reply, false),
            Err(_) => {
                metrics.panics_total.fetch_add(1, Ordering::Relaxed);
                let reply = ApiError::new(500, "internal", "request handler panicked").reply();
                (reply, true)
            }
        };
        metrics.record_status(reply.status);
        // Shutdown drains by forcing every in-flight response to
        // Connection: close.
        let keep = !panicked && job.req.keep_alive && !draining.load(Ordering::Relaxed);
        let mut bytes = bridge.take_spare();
        if reply.encode_into(&mut bytes, keep, job.req.http11) {
            metrics
                .chunked_responses_total
                .fetch_add(1, Ordering::Relaxed);
        }
        metrics.in_flight.fetch_sub(1, Ordering::Relaxed);
        bridge.push(Completion {
            slot: job.slot,
            gen: job.gen,
            bytes,
            close: !keep,
        });
        retire_body(reply.body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_queue_bounds_forces_and_drains() {
        let q = JobQueue::new(2);
        let mk = || Job {
            slot: 0,
            gen: 0,
            req: Request::default(),
        };
        assert!(q.push(mk(), false).is_ok());
        assert!(q.push(mk(), false).is_ok());
        assert!(
            q.push(mk(), false).is_err(),
            "third push exceeds capacity 2"
        );
        assert!(q.push(mk(), true).is_ok(), "force bypasses the bound");
        assert!(q.pop().is_some());
        q.close();
        assert!(q.pop().is_some(), "close drains remaining entries");
        assert!(q.pop().is_some());
        assert!(q.pop().is_none());
        assert!(q.push(mk(), true).is_err(), "closed queue rejects pushes");
    }

    /// A panicking handler answers `500 internal` on a closing
    /// connection and bumps the counter — and the worker lives to pop
    /// the next job.
    #[test]
    fn a_panicking_handler_costs_one_response_not_the_worker() {
        let jobs = JobQueue::new(2);
        for (slot, path) in ["/boom", "/fine"].into_iter().enumerate() {
            let req = Request {
                path: path.into(),
                ..Request::default()
            };
            let job = Job { slot, gen: 7, req };
            jobs.push(job, false).expect("queue has room");
        }
        jobs.close();
        let (wake_tx, _wake_rx) = UnixStream::pair().expect("socket pair");
        let bridge = Bridge::new(wake_tx);
        let metrics = ServerMetrics::default();

        worker_loop(&jobs, &bridge, &metrics, &AtomicBool::new(false), |req| {
            assert_ne!(req.path, "/boom", "injected handler panic");
            Reply::json(200, "{}\n".to_owned())
        });

        let done = bridge.drain();
        assert_eq!(done.len(), 2, "both jobs answered");
        let text = |i: usize| String::from_utf8_lossy(&done[i].bytes).into_owned();
        assert!(text(0).starts_with("HTTP/1.1 500 "), "{}", text(0));
        assert!(text(0).contains("Connection: close"), "{}", text(0));
        assert!(
            text(0).contains("{\"error\": {\"code\": \"internal\""),
            "{}",
            text(0)
        );
        assert!(done[0].close && (done[0].slot, done[0].gen) == (0, 7));
        assert!(text(1).starts_with("HTTP/1.1 200 "), "{}", text(1));
        assert!(!done[1].close, "the next job keeps its connection");
        assert_eq!(metrics.panics_total.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.responses_5xx.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.in_flight.load(Ordering::Relaxed), 0);
    }
}
