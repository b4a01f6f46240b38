//! An incremental HTTP/1.1 codec over byte buffers.
//!
//! The workspace is dependency-free, so this module hand-rolls the
//! slice of HTTP the query server needs. Unlike the blocking
//! `BufReader` codec it replaced, parsing is **incremental**: the
//! event loop appends whatever bytes arrived into a per-connection
//! buffer and calls [`parse_request`], which either consumes one
//! complete request from the front of the buffer, asks for more bytes
//! (`Ok(None)`), or fails with the status code the connection should
//! answer before dying. Several pipelined requests in one buffer parse
//! out one [`parse_request`] call at a time.
//!
//! The response side writes HTTP/1.1 keep-alive framing: either
//! `Content-Length` or, for large bodies on 1.1 clients,
//! `Transfer-Encoding: chunked` ([`encode_response_into`]). A matching
//! [`decode_chunked`] is exported for clients (the integration tests).

/// Hard cap on the header section — a wire-level guard so a hostile
/// client cannot balloon memory before admission control sees the
/// request.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Maximum accepted `Content-Length`.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Response bodies larger than this stream as chunked
/// transfer-encoding (HTTP/1.1 requests only).
pub const CHUNK_THRESHOLD: usize = 16 * 1024;
/// Size of each chunk frame when streaming a large body. Large frames
/// keep the per-frame overhead (size line, CRLFs, client reassembly)
/// negligible against the payload.
pub const CHUNK_SIZE: usize = 64 * 1024;

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Uppercase method, e.g. `GET`, `POST`.
    pub method: String,
    /// Path without the query string, e.g. `/v1/query`.
    pub path: String,
    /// The raw query string (no leading `?`), empty if absent.
    pub query: String,
    /// The request body.
    pub body: Vec<u8>,
    /// Whether the connection survives this exchange (`HTTP/1.1`
    /// default, overridden by `Connection: close` / `keep-alive`).
    pub keep_alive: bool,
    /// `true` for `HTTP/1.1`, `false` for `HTTP/1.0` (chunked
    /// responses are only legal on 1.1).
    pub http11: bool,
}

impl Default for Request {
    fn default() -> Request {
        Request {
            method: String::new(),
            path: String::new(),
            query: String::new(),
            body: Vec::new(),
            keep_alive: true,
            http11: true,
        }
    }
}

impl Request {
    /// Iterates `key=value` pairs of the query string (no percent
    /// decoding — the option grammar is plain ASCII).
    pub fn query_params(&self) -> impl Iterator<Item = (&str, &str)> {
        self.query
            .split('&')
            .filter(|kv| !kv.is_empty())
            .map(|kv| kv.split_once('=').unwrap_or((kv, "")))
    }

    /// The body as UTF-8, if valid.
    pub fn body_utf8(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::bad_request("request body is not valid UTF-8"))
    }
}

/// A wire-level failure while reading a request, carrying the status
/// code the connection should die with.
#[derive(Clone, Debug)]
pub struct HttpError {
    /// Status code to answer with.
    pub status: u16,
    /// Human-readable description (sent as the response body).
    pub message: String,
}

impl HttpError {
    pub fn bad_request(message: impl Into<String>) -> HttpError {
        HttpError {
            status: 400,
            message: message.into(),
        }
    }
}

/// Attempts to parse one complete request from the front of `buf`,
/// draining the consumed bytes on success. `Ok(None)` means the buffer
/// holds only a prefix — read more and call again.
pub fn parse_request(buf: &mut Vec<u8>) -> Result<Option<Request>, HttpError> {
    // Tolerate stray CRLFs between pipelined requests (RFC 9112 §2.2).
    let start = buf
        .iter()
        .position(|&b| b != b'\r' && b != b'\n')
        .unwrap_or(buf.len());

    // Locate the header/body separator.
    let Some(head_end) = find(&buf[start..], b"\r\n\r\n").map(|i| start + i) else {
        if buf.len() - start > MAX_HEADER_BYTES {
            return Err(HttpError {
                status: 431,
                message: "header section too large".into(),
            });
        }
        return Ok(None);
    };
    if head_end - start > MAX_HEADER_BYTES {
        return Err(HttpError {
            status: 431,
            message: "header section too large".into(),
        });
    }

    let head = std::str::from_utf8(&buf[start..head_end])
        .map_err(|_| HttpError::bad_request("request head is not valid UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::bad_request("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::bad_request("request line has no target"))?
        .to_owned();
    let version = parts.next().unwrap_or("HTTP/1.1");
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => {
            return Err(HttpError::bad_request(format!(
                "unsupported protocol version '{other}'"
            )))
        }
    };
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target, String::new()),
    };

    // Headers: Content-Length frames the body, Connection controls
    // keep-alive, Transfer-Encoding on a *request* stays unsupported.
    let mut content_length = 0usize;
    let mut keep_alive = http11;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| HttpError::bad_request("invalid Content-Length"))?;
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError {
                status: 501,
                message: "transfer encodings are not supported on requests".into(),
            });
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError {
            status: 413,
            message: format!("body of {content_length} bytes exceeds the {MAX_BODY_BYTES} cap"),
        });
    }

    let body_start = head_end + 4;
    let total = body_start + content_length;
    if buf.len() < total {
        return Ok(None); // body still in flight
    }
    let body = buf[body_start..total].to_vec();
    buf.drain(..total);
    Ok(Some(Request {
        method,
        path,
        query,
        body,
        keep_alive,
        http11,
    }))
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

pub(crate) fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Serializes one response into `out`. Bodies above [`CHUNK_THRESHOLD`]
/// stream as chunked transfer-encoding when the client speaks 1.1
/// (`chunk_ok`); everything else is `Content-Length`-framed. Returns
/// `true` if the response was chunked.
pub fn encode_response_into(
    out: &mut Vec<u8>,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
    chunk_ok: bool,
) -> bool {
    use std::io::Write as _;
    let chunked = chunk_ok && body.len() > CHUNK_THRESHOLD;
    let connection = if keep_alive { "keep-alive" } else { "close" };
    out.reserve(body.len() + 256);
    let _ = write!(
        out,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nConnection: {connection}\r\n",
        status_text(status),
    );
    for (name, value) in extra_headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    if chunked {
        let _ = write!(out, "Transfer-Encoding: chunked\r\n\r\n");
        for chunk in body.chunks(CHUNK_SIZE) {
            let _ = write!(out, "{:x}\r\n", chunk.len());
            out.extend_from_slice(chunk);
            out.extend_from_slice(b"\r\n");
        }
        out.extend_from_slice(b"0\r\n\r\n");
    } else {
        let _ = write!(out, "Content-Length: {}\r\n\r\n", body.len());
        out.extend_from_slice(body);
    }
    chunked
}

/// Decodes a chunked transfer-encoded body. Returns the reassembled
/// payload, or `None` while the terminating `0\r\n\r\n` frame has not
/// arrived yet (read more and call again) — a framing error also
/// returns `None` from the caller's perspective there is nothing more
/// to wait for, so malformed input yields `Some(Err)`.
pub fn decode_chunked(data: &[u8]) -> Option<Result<Vec<u8>, String>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    loop {
        let rest = &data[pos..];
        let line_end = find(rest, b"\r\n")?;
        let size_str = match std::str::from_utf8(&rest[..line_end]) {
            Ok(s) => s.split(';').next().unwrap_or("").trim(),
            Err(_) => return Some(Err("chunk size is not UTF-8".into())),
        };
        let Ok(size) = usize::from_str_radix(size_str, 16) else {
            return Some(Err(format!("invalid chunk size '{size_str}'")));
        };
        let chunk_start = pos + line_end + 2;
        if size == 0 {
            // Trailer section: we emit none, expect the bare CRLF.
            if data.len() < chunk_start + 2 {
                return None;
            }
            return Some(Ok(out));
        }
        if data.len() < chunk_start + size + 2 {
            return None;
        }
        out.extend_from_slice(&data[chunk_start..chunk_start + size]);
        if &data[chunk_start + size..chunk_start + size + 2] != b"\r\n" {
            return Some(Err("chunk not terminated by CRLF".into()));
        }
        pos = chunk_start + size + 2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(raw: &[u8]) -> (Vec<Request>, Vec<u8>) {
        let mut buf = raw.to_vec();
        let mut out = Vec::new();
        while let Some(req) = parse_request(&mut buf).expect("parse") {
            out.push(req);
        }
        (out, buf)
    }

    #[test]
    fn parses_post_with_body() {
        let (reqs, rest) = parse_all(
            b"POST /query?mode=parallel&trace=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n(?a,b,?c)",
        );
        assert_eq!(reqs.len(), 1);
        let req = &reqs[0];
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        let params: Vec<_> = req.query_params().collect();
        assert_eq!(params, vec![("mode", "parallel"), ("trace", "1")]);
        assert_eq!(req.body_utf8().expect("utf8"), "(?a,b,?c)");
        assert!(req.keep_alive, "1.1 defaults to keep-alive");
        assert!(rest.is_empty());
    }

    #[test]
    fn parses_pipelined_requests_one_at_a_time() {
        let raw = b"POST /query HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc\
                    GET /healthz HTTP/1.1\r\n\r\n\
                    POST /lint HTTP/1.1\r\nConnection: close\r\nContent-Length: 2\r\n\r\nhi";
        let (reqs, rest) = parse_all(raw);
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].body, b"abc");
        assert_eq!(reqs[1].method, "GET");
        assert_eq!(reqs[1].path, "/healthz");
        assert!(reqs[1].keep_alive);
        assert_eq!(reqs[2].body, b"hi");
        assert!(!reqs[2].keep_alive, "Connection: close honored");
        assert!(rest.is_empty());
    }

    #[test]
    fn incremental_prefixes_ask_for_more_bytes() {
        let full = b"POST /query HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        for cut in [3usize, 20, 38, full.len() - 1] {
            let mut buf = full[..cut].to_vec();
            assert!(
                parse_request(&mut buf)
                    .expect("prefix parses clean")
                    .is_none(),
                "cut at {cut} must ask for more"
            );
            assert_eq!(buf.len(), cut, "prefix must not be consumed");
        }
        let mut buf = full.to_vec();
        let req = parse_request(&mut buf).expect("parse").expect("complete");
        assert_eq!(req.body, b"hello");
        assert!(buf.is_empty());
    }

    #[test]
    fn connection_close_and_http10_defaults() {
        let (reqs, _) = parse_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!reqs[0].keep_alive);
        let (reqs, _) = parse_all(b"GET /healthz HTTP/1.0\r\n\r\n");
        assert!(!reqs[0].keep_alive, "1.0 defaults to close");
        assert!(!reqs[0].http11);
        let (reqs, _) = parse_all(b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(reqs[0].keep_alive, "explicit 1.0 keep-alive honored");
    }

    #[test]
    fn oversized_body_is_rejected() {
        let mut buf = format!(
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        )
        .into_bytes();
        let err = parse_request(&mut buf).expect_err("too large");
        assert_eq!(err.status, 413);
    }

    #[test]
    fn oversized_headers_are_rejected() {
        let mut buf = b"GET / HTTP/1.1\r\n".to_vec();
        buf.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES + 16));
        let err = parse_request(&mut buf).expect_err("too large");
        assert_eq!(err.status, 431);
    }

    #[test]
    fn chunked_request_encoding_is_rejected() {
        let mut buf = b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        let err = parse_request(&mut buf).expect_err("unsupported");
        assert_eq!(err.status, 501);
    }

    #[test]
    fn small_responses_are_content_length_framed() {
        let mut out = Vec::new();
        let chunked = encode_response_into(
            &mut out,
            200,
            "application/json",
            &[("Retry-After", "1".to_owned())],
            b"{}",
            true,
            true,
        );
        assert!(!chunked);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 2\r\n"), "{text}");
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
    }

    #[test]
    fn large_bodies_chunk_and_roundtrip() {
        let body: Vec<u8> = (0..3 * CHUNK_THRESHOLD).map(|i| (i % 251) as u8).collect();
        let mut out = Vec::new();
        let chunked =
            encode_response_into(&mut out, 200, "application/json", &[], &body, true, true);
        assert!(chunked);
        let text_head = String::from_utf8_lossy(&out[..200]);
        assert!(
            text_head.contains("Transfer-Encoding: chunked"),
            "{text_head}"
        );
        assert!(!text_head.contains("Content-Length"), "{text_head}");
        let sep = find(&out, b"\r\n\r\n").expect("header end") + 4;
        let decoded = decode_chunked(&out[sep..])
            .expect("complete")
            .expect("well-formed");
        assert_eq!(decoded, body);

        // A truncated stream asks for more bytes.
        assert!(decode_chunked(&out[sep..out.len() - 3]).is_none());

        // Without 1.1 chunking permission the body stays whole.
        let mut plain = Vec::new();
        let chunked = encode_response_into(
            &mut plain,
            200,
            "application/json",
            &[],
            &body,
            false,
            false,
        );
        assert!(!chunked);
        assert!(String::from_utf8_lossy(&plain[..200]).contains("Content-Length"));
    }
}
