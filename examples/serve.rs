//! Boots a query server over a small social-network store and prints
//! ready-to-paste curl commands.
//!
//! ```text
//! cargo run --example serve
//! curl -s localhost:PORT/v1/healthz
//! curl -s -X POST localhost:PORT/v1/query -d '{"pattern": "(?x, knows, ?y)"}'
//! ```
//!
//! The `/v1` endpoints take a JSON envelope (`pattern` plus an
//! optional `opts` object) and answer errors in a unified
//! `{"error": {"code", "message", ...}}` envelope.
//!
//! `GET /metrics` speaks Prometheus text exposition (0.0.4), so the
//! server can be scraped directly. Quickstart with a local Prometheus:
//!
//! ```text
//! # prometheus.yml
//! scrape_configs:
//!   - job_name: owql
//!     scrape_interval: 5s
//!     static_configs:
//!       - targets: ["127.0.0.1:7878"]
//! # validate the config, then sanity-check the exposition format:
//! promtool check config prometheus.yml
//! curl -s localhost:7878/metrics | promtool check metrics
//! ```
//!
//! `GET /metrics?format=json` returns the same counters as a JSON
//! document, including the slow-query ring buffer (queries over the
//! 250 ms default threshold; override per request with
//! `"opts": {"slow_ms": ...}`).
//!
//! Set `OWQL_SERVE_ADDR` to pick the bind address (default
//! `127.0.0.1:7878`); set `OWQL_SERVE_ONESHOT=1` to boot, self-query,
//! and exit (used by CI). Pass `--data-dir <path>` (or set
//! `OWQL_SERVE_DATA_DIR`) to serve a **durable** store: commits are
//! WAL-logged and checkpointed there, and restarting the server
//! recovers them (`GET /metrics` then carries a `persist` section).

use owql_rdf::Triple;
use owql_server::{Server, ServerConfig};
use owql_store::Store;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// `--data-dir <path>` from argv, falling back to `OWQL_SERVE_DATA_DIR`.
fn data_dir_arg() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--data-dir" {
            return Some(args.next().expect("--data-dir needs a path"));
        }
        if let Some(path) = arg.strip_prefix("--data-dir=") {
            return Some(path.to_owned());
        }
    }
    std::env::var("OWQL_SERVE_DATA_DIR").ok()
}

fn main() {
    let store = Arc::new(match data_dir_arg() {
        Some(dir) => {
            let store = Store::open_default(&dir).expect("failed to open data dir");
            let report = store.recovery_report().expect("durable store");
            println!(
                "recovered {} at epoch {} (segment gen {} + {} replayed WAL records)",
                dir,
                store.epoch(),
                report.segment_generation,
                report.replayed_records
            );
            store
        }
        None => Store::new(),
    });
    if store.is_empty() {
        store.insert(Triple::new("alice", "knows", "bob"));
        store.insert(Triple::new("bob", "knows", "carol"));
        store.insert(Triple::new("carol", "knows", "dave"));
        store.insert(Triple::new("alice", "age", "42"));
        store.insert(Triple::new("bob", "age", "37"));
    }

    let config = ServerConfig {
        addr: std::env::var("OWQL_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:7878".to_owned()),
        ..ServerConfig::default()
    };
    let server = Server::start(store, config).expect("failed to bind");
    let addr = server.addr();
    println!("owql-server listening on http://{addr}");
    println!();
    println!("Try:");
    println!("  curl -s {addr}/v1/healthz              # liveness (add ?ready=1 for readiness)");
    println!("  curl -s {addr}/metrics                 # Prometheus text format");
    println!("  curl -s '{addr}/metrics?format=json'   # JSON + slow-query log");
    println!("  curl -s {addr}/metrics | promtool check metrics");
    println!("  curl -s -X POST {addr}/v1/query -d '{{\"pattern\": \"(?x, knows, ?y)\"}}'");
    println!("  curl -s -X POST {addr}/v1/query -d '{{\"pattern\": \"((?x, knows, ?y) AND (?y, knows, ?z))\", \"opts\": {{\"mode\": \"parallel\", \"trace\": true}}}}'");
    println!("  curl -s -X POST {addr}/v1/explain -d '{{\"pattern\": \"((?x, knows, ?y) AND (?y, age, ?a))\"}}'");
    println!("  curl -s -X POST {addr}/v1/lint -d '{{\"pattern\": \"((?x, knows, ?y) OPT (?z, age, ?a))\"}}'");

    if std::env::var("OWQL_SERVE_ONESHOT").as_deref() == Ok("1") {
        // CI smoke mode: issue one /v1 query against ourselves and exit.
        let mut conn = TcpStream::connect(addr).expect("connect");
        let body = r#"{"pattern": "(?x, knows, ?y)"}"#;
        write!(
            conn,
            "POST /v1/query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("write");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("read");
        assert!(response.contains("\"count\": 3"), "unexpected: {response}");
        println!("\noneshot query OK: 3 mappings");
        server.shutdown();
        return;
    }

    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}
