//! Routed replies and the one error envelope every non-2xx answer
//! carries: `{"error": {"code", "message", "span"?, "retry_after"?}}`.

use crate::http::{encode_response_into, HttpError};
use owql_obs::json;
use std::fmt::Write as _;

/// One routed response before wire framing: the worker (or, for inline
/// sheds, the event loop) turns this into bytes with
/// [`Reply::encode_into`].
#[derive(Clone, Debug)]
pub(crate) struct Reply {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) headers: Vec<(&'static str, String)>,
    pub(crate) body: String,
}

impl Reply {
    pub(crate) fn json(status: u16, body: String) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }

    pub(crate) fn text(status: u16, body: String) -> Reply {
        Reply {
            status,
            content_type: "text/plain; version=0.0.4",
            headers: Vec::new(),
            body,
        }
    }

    pub(crate) fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Reply {
        self.headers.push((name, value.into()));
        self
    }

    /// Appends the framed response to `out`; `true` if the body went
    /// out chunked (only legal on `http11`).
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>, keep_alive: bool, http11: bool) -> bool {
        encode_response_into(
            out,
            self.status,
            self.content_type,
            &self.headers,
            self.body.as_bytes(),
            keep_alive,
            http11,
        )
    }
}

/// A `/v1` API failure: status + the unified error envelope
/// `{"error": {"code", "message", "span"?, "retry_after"?}}`.
#[derive(Clone, Debug)]
pub(crate) struct ApiError {
    status: u16,
    code: &'static str,
    message: String,
    /// `(offset, line, column)` into the submitted pattern.
    span: Option<(usize, usize, usize)>,
    retry_after: Option<u64>,
    /// Extra raw-JSON sibling of `"error"` (the AD001 diagnostic).
    diagnostic: Option<String>,
}

impl ApiError {
    pub(crate) fn new(status: u16, code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code,
            message: message.into(),
            span: None,
            retry_after: None,
            diagnostic: None,
        }
    }

    pub(crate) fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(400, "bad_request", message)
    }

    pub(crate) fn with_span(mut self, offset: usize, line: usize, column: usize) -> ApiError {
        self.span = Some((offset, line, column));
        self
    }

    pub(crate) fn with_retry_after(mut self, secs: u64) -> ApiError {
        self.retry_after = Some(secs);
        self
    }

    pub(crate) fn with_diagnostic(mut self, diagnostic: String) -> ApiError {
        self.diagnostic = Some(diagnostic);
        self
    }

    /// Renders the envelope body.
    fn body(&self) -> String {
        let mut out = String::with_capacity(96 + self.message.len());
        out.push_str("{\"error\": {\"code\": ");
        out.push_str(&json::string(self.code));
        out.push_str(", \"message\": ");
        out.push_str(&json::string(&self.message));
        if let Some((offset, line, column)) = self.span {
            let _ = write!(
                out,
                ", \"span\": {{\"offset\": {offset}, \"line\": {line}, \"column\": {column}}}"
            );
        }
        if let Some(secs) = self.retry_after {
            let _ = write!(out, ", \"retry_after\": {secs}");
        }
        out.push('}');
        if let Some(diagnostic) = &self.diagnostic {
            out.push_str(", \"diagnostic\": ");
            out.push_str(diagnostic);
        }
        out.push_str("}\n");
        out
    }

    /// The envelope as a routed reply (`Retry-After` header rides
    /// along when `retry_after` is set).
    pub(crate) fn reply(&self) -> Reply {
        let mut reply = Reply::json(self.status, self.body());
        if let Some(secs) = self.retry_after {
            reply = reply.with_header("Retry-After", secs.to_string());
        }
        reply
    }
}

/// The envelope for a wire-level failure (answered by the event loop;
/// routing never sees the request).
impl From<&HttpError> for ApiError {
    fn from(e: &HttpError) -> ApiError {
        let code = match e.status {
            400 => "bad_request",
            413 => "payload_too_large",
            431 => "headers_too_large",
            501 => "not_implemented",
            _ => "internal",
        };
        ApiError::new(e.status, code, e.message.as_str())
    }
}

/// Asserts `reply` is `status` carrying the envelope with `code`.
#[cfg(test)]
pub(crate) fn assert_envelope(reply: &Reply, status: u16, code: &str) {
    assert_eq!(reply.status, status, "{}", reply.body);
    let needle = format!("{{\"error\": {{\"code\": \"{code}\"");
    assert!(reply.body.starts_with(&needle), "{}", reply.body);
}
