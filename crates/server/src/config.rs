//! Server tuning knobs: [`ServerConfig`] and its chainable builder.

use std::time::Duration;

/// Server tuning knobs. Construct via [`ServerConfig::builder`] (or
/// struct literal with `..Default::default()`).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (see
    /// [`Server::addr`](crate::Server::addr)).
    pub addr: String,
    /// Worker threads answering requests (at least one: `0` is
    /// clamped to `1`). Evaluation never runs on the event-loop thread,
    /// so sheds and `GET` probes stay answerable while a query runs.
    pub workers: usize,
    /// Dispatch-queue bound: parsed requests waiting for a worker.
    /// A full queue sheds with `429` (`GET`s bypass the bound).
    pub queue_capacity: usize,
    /// Evaluation pool width *per worker* (parallel-mode requests).
    pub pool_threads: usize,
    /// Deadline applied to requests that don't set `deadline_ms`.
    pub default_deadline: Option<Duration>,
    /// Value of the `Retry-After` header on `429` responses, seconds.
    pub retry_after_secs: u64,
    /// Idle-connection timeout (slowloris guard): connections with no
    /// traffic and no in-flight request for this long are closed.
    pub io_timeout: Duration,
    /// Admission ceiling: queries whose statically determined
    /// complexity class ranks above this are shed with `429` before
    /// evaluation. Requests can tighten it with `max_class` but never
    /// raise it. `None` admits every class.
    pub admission_ceiling: Option<owql_lint::ComplexityClass>,
    /// Queries slower than this land in the store's slow-query ring
    /// buffer (exported under `GET /metrics?format=json`). Requests can
    /// override it with `slow_ms` (`slow_ms=0` captures every query —
    /// the smoke-test injection mechanism). `None` disables capture.
    pub slow_query_threshold: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_capacity: 64,
            pool_threads: 2,
            default_deadline: Some(Duration::from_secs(30)),
            retry_after_secs: 1,
            io_timeout: Duration::from_secs(5),
            admission_ceiling: None,
            slow_query_threshold: Some(Duration::from_millis(250)),
        }
    }
}

impl ServerConfig {
    /// Chainable constructor starting from [`ServerConfig::default`].
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }
}

/// Chainable constructor for [`ServerConfig`]; see
/// [`ServerConfig::builder`].
#[derive(Clone, Debug)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Bind address (port 0 = OS-assigned).
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.config.addr = addr.into();
        self
    }

    /// Worker threads answering requests (`0` is clamped to `1`).
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Dispatch-queue bound (full ⇒ `429`).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Evaluation pool width per worker.
    pub fn pool_threads(mut self, threads: usize) -> Self {
        self.config.pool_threads = threads;
        self
    }

    /// Default per-request deadline.
    pub fn default_deadline(mut self, deadline: Option<Duration>) -> Self {
        self.config.default_deadline = deadline;
        self
    }

    /// `Retry-After` seconds on `429`.
    pub fn retry_after_secs(mut self, secs: u64) -> Self {
        self.config.retry_after_secs = secs;
        self
    }

    /// Idle-connection timeout.
    pub fn io_timeout(mut self, timeout: Duration) -> Self {
        self.config.io_timeout = timeout;
        self
    }

    /// Complexity-class admission ceiling.
    pub fn admission_ceiling(mut self, ceiling: Option<owql_lint::ComplexityClass>) -> Self {
        self.config.admission_ceiling = ceiling;
        self
    }

    /// Slow-query capture threshold.
    pub fn slow_query_threshold(mut self, threshold: Option<Duration>) -> Self {
        self.config.slow_query_threshold = threshold;
        self
    }

    /// The finished configuration.
    pub fn build(self) -> ServerConfig {
        self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builder_sets_every_knob() {
        let config = ServerConfig::builder()
            .addr("127.0.0.1:0")
            .workers(2)
            .queue_capacity(16)
            .pool_threads(3)
            .default_deadline(Some(Duration::from_secs(5)))
            .retry_after_secs(7)
            .io_timeout(Duration::from_secs(9))
            .admission_ceiling(Some(owql_lint::ComplexityClass::Np))
            .slow_query_threshold(None)
            .build();
        assert_eq!(config.workers, 2);
        assert_eq!(config.queue_capacity, 16);
        assert_eq!(config.pool_threads, 3);
        assert_eq!(config.default_deadline, Some(Duration::from_secs(5)));
        assert_eq!(config.retry_after_secs, 7);
        assert_eq!(config.io_timeout, Duration::from_secs(9));
        assert_eq!(
            config.admission_ceiling,
            Some(owql_lint::ComplexityClass::Np)
        );
        assert_eq!(config.slow_query_threshold, None);
    }
}
