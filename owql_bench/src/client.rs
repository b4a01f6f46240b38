//! A keep-alive HTTP/1.1 client: one persistent connection, one
//! request outstanding, responses framed by `Content-Length` or
//! chunked transfer-encoding.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One de-framed response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub chunked: bool,
    /// The server asked for the connection to be closed.
    pub close: bool,
    pub body: Vec<u8>,
}

/// Incremental response de-framer: bytes arrive in whatever pieces the
/// socket delivers; a response is handed out once its last byte is in.
#[derive(Debug, Default)]
pub struct Deframer {
    buf: Vec<u8>,
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

impl Deframer {
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Takes one complete response off the front of the buffer, or
    /// `Ok(None)` while more bytes are needed.
    pub fn take(&mut self) -> io::Result<Option<Response>> {
        let Some(head_end) = find(&self.buf, b"\r\n\r\n") else {
            return Ok(None);
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?
            .to_ascii_lowercase();
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let header = |name: &str| {
            head.lines()
                .filter_map(|l| l.split_once(':'))
                .find(|(k, _)| k.trim() == name)
                .map(|(_, v)| v.trim().to_owned())
        };
        let close = header("connection").is_some_and(|v| v == "close");
        let chunked = header("transfer-encoding").is_some_and(|v| v == "chunked");
        let body_start = head_end + 4;

        let (body, consumed) = if chunked {
            let mut body = Vec::new();
            let mut pos = body_start;
            loop {
                let Some(line_len) = find(&self.buf[pos..], b"\r\n") else {
                    return Ok(None);
                };
                let size_text = std::str::from_utf8(&self.buf[pos..pos + line_len])
                    .map_err(|_| bad("chunk size is not UTF-8"))?;
                let size_text = size_text.split(';').next().unwrap_or("").trim();
                let size =
                    usize::from_str_radix(size_text, 16).map_err(|_| bad("bad chunk size"))?;
                let data = pos + line_len + 2;
                // Every chunk, the last one too, ends with CRLF.
                let Some(end) = data.checked_add(size).and_then(|e| e.checked_add(2)) else {
                    return Err(bad("chunk size overflows"));
                };
                if self.buf.len() < end {
                    return Ok(None);
                }
                if &self.buf[end - 2..end] != b"\r\n" {
                    return Err(bad("chunk not terminated by CRLF"));
                }
                if size == 0 {
                    break (body, end);
                }
                body.extend_from_slice(&self.buf[data..data + size]);
                pos = end;
            }
        } else {
            let length: usize = header("content-length")
                .ok_or_else(|| bad("neither Content-Length nor chunked"))?
                .parse()
                .map_err(|_| bad("bad Content-Length"))?;
            let Some(end) = body_start.checked_add(length) else {
                return Err(bad("Content-Length overflows"));
            };
            if self.buf.len() < end {
                return Ok(None);
            }
            (self.buf[body_start..end].to_vec(), end)
        };
        self.buf.drain(..consumed);
        Ok(Some(Response {
            status,
            chunked,
            close,
            body,
        }))
    }
}

/// One persistent connection to the server under test.
#[derive(Debug)]
pub struct ClientConn {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    deframer: Deframer,
    scratch: Vec<u8>,
}

impl ClientConn {
    pub fn new(addr: SocketAddr) -> ClientConn {
        ClientConn {
            addr,
            conn: None,
            deframer: Deframer::default(),
            scratch: vec![0u8; 64 * 1024],
        }
    }

    /// Sends pre-encoded request bytes and waits for the reply. An I/O
    /// error drops the connection; the next call reconnects.
    pub fn request(&mut self, wire: &[u8]) -> io::Result<Response> {
        let result = self.try_request(wire);
        if !matches!(&result, Ok(r) if !r.close) {
            self.conn = None;
            self.deframer = Deframer::default();
        }
        result
    }

    fn try_request(&mut self, wire: &[u8]) -> io::Result<Response> {
        if self.conn.is_none() {
            let conn = TcpStream::connect(self.addr)?;
            conn.set_read_timeout(Some(Duration::from_secs(5)))?;
            conn.set_nodelay(true)?;
            self.conn = Some(conn);
        }
        let conn = self.conn.as_mut().expect("connected above");
        conn.write_all(wire)?;
        loop {
            if let Some(response) = self.deframer.take()? {
                return Ok(response);
            }
            let n = conn.read(&mut self.scratch)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.deframer.feed(&self.scratch[..n]);
        }
    }
}

/// Encodes one `POST /v1/query` request for a keep-alive connection.
pub fn encode_query(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/query HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    const LENGTH_FRAMED: &[u8] =
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nConnection: keep-alive\r\n\
          Content-Length: 11\r\n\r\nhello world";
    const CHUNKED: &[u8] = b"HTTP/1.1 200 OK\r\nConnection: close\r\n\
          Transfer-Encoding: chunked\r\n\r\n6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n";

    fn expected(chunked: bool) -> Response {
        Response {
            status: 200,
            chunked,
            close: chunked,
            body: b"hello world".to_vec(),
        }
    }

    /// Two pipelined responses split at every pair of byte boundaries
    /// de-frame to the same two responses, with nothing left over.
    #[test]
    fn deframes_both_framings_at_every_split() {
        let mut wire = LENGTH_FRAMED.to_vec();
        wire.extend_from_slice(CHUNKED);
        for a in 0..=wire.len() {
            for b in [a, (a + wire.len()) / 2, wire.len()] {
                let mut d = Deframer::default();
                let mut got = Vec::new();
                for piece in [&wire[..a], &wire[a..b], &wire[b..]] {
                    d.feed(piece);
                    while let Some(r) = d.take().expect("well-formed input") {
                        got.push(r);
                    }
                }
                assert_eq!(got, [expected(false), expected(true)], "split {a}/{b}");
                assert!(d.buf.is_empty());
            }
        }
    }

    #[test]
    fn byte_at_a_time_and_incomplete_input() {
        let mut d = Deframer::default();
        for &byte in &CHUNKED[..CHUNKED.len() - 1] {
            d.feed(&[byte]);
            assert_eq!(d.take().expect("prefix is well-formed"), None);
        }
        d.feed(&CHUNKED[CHUNKED.len() - 1..]);
        assert_eq!(d.take().expect("complete"), Some(expected(true)));
    }

    #[test]
    fn malformed_framing_is_an_error() {
        let mut d = Deframer::default();
        d.feed(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n");
        assert!(d.take().is_err());
        let mut d = Deframer::default();
        d.feed(b"HTTP/1.1 200 OK\r\n\r\n");
        assert!(d.take().is_err());
    }

    #[test]
    fn encode_query_frames_the_body() {
        let wire = encode_query("{\"pattern\": \"(?s, p, ?o)\"}");
        let text = String::from_utf8(wire).expect("ascii");
        assert!(text.starts_with("POST /v1/query HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 26\r\n\r\n{"));
    }
}
