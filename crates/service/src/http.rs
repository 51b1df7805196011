//! A minimal, defensive HTTP/1.1 layer over [`std::io`]: just enough
//! protocol to serve JSON requests, written to never panic on hostile
//! input — malformed heads, truncated bodies and oversized payloads all
//! surface as typed 4xx errors.
//!
//! Connections are persistent by default: requests are framed by
//! `Content-Length`, `Connection: keep-alive`/`close` is honored per
//! RFC 7230 for both HTTP/1.0 and HTTP/1.1 peers ([`Head::wants_keepalive`]),
//! and every response declares its own connection disposition
//! ([`Response::render`]). The server loop decides when a connection
//! actually closes (client preference, per-connection request bound, idle
//! timeout, drain); this module only parses and serializes.

use std::io::{BufRead, Read, Write};
use std::time::Instant;

/// Default cap on request bodies (1 MiB — analysis requests are tiny).
pub const DEFAULT_MAX_BODY_BYTES: usize = 1 << 20;

/// Cap on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A typed HTTP-level failure, mapped to a response status.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line, header, or body (400).
    BadRequest(String),
    /// Request body longer than the configured cap (413).
    PayloadTooLarge {
        /// The configured cap the declared body length exceeded.
        limit: usize,
    },
    /// Request head longer than [`MAX_HEAD_BYTES`] (431).
    HeadTooLarge,
    /// An HTTP version other than 1.x (505).
    VersionNotSupported,
    /// The whole-request deadline elapsed before the request arrived (408)
    /// — per-`read` socket timeouts alone would let a slow-drip client pin
    /// a worker for hours, one byte at a time.
    DeadlineExceeded,
    /// The underlying socket failed mid-request (mapped to 400; there is
    /// usually nobody left to read the response).
    Io(String),
}

impl HttpError {
    /// The response status code for this error.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) | HttpError::Io(_) => 400,
            HttpError::PayloadTooLarge { .. } => 413,
            HttpError::HeadTooLarge => 431,
            HttpError::VersionNotSupported => 505,
            HttpError::DeadlineExceeded => 408,
        }
    }

    /// Human-readable detail for the JSON error body.
    #[must_use]
    pub fn message(&self) -> String {
        match self {
            HttpError::BadRequest(m) => m.clone(),
            HttpError::PayloadTooLarge { limit } => {
                format!("request body exceeds the {limit}-byte limit")
            }
            HttpError::HeadTooLarge => {
                format!("request head exceeds the {MAX_HEAD_BYTES}-byte limit")
            }
            HttpError::VersionNotSupported => "only HTTP/1.x is supported".to_string(),
            HttpError::DeadlineExceeded => {
                "the request did not complete within the server's deadline".to_string()
            }
            HttpError::Io(m) => format!("i/o error mid-request: {m}"),
        }
    }
}

/// A parsed request head: the request line plus lowercased headers.
#[derive(Debug, Clone)]
pub struct Head {
    /// Request method, as sent (e.g. `GET`, `POST`).
    pub method: String,
    /// Request target (e.g. `/v1/plan`). Query strings are not split off —
    /// the service's routes do not use them.
    pub path: String,
    /// HTTP minor version: 0 for `HTTP/1.0`, 1 for `HTTP/1.1` (higher 1.x
    /// minors are treated as 1.1 — same connection semantics).
    pub minor_version: u8,
    /// Headers as `(lowercased-name, trimmed-value)` pairs.
    pub headers: Vec<(String, String)>,
    /// Parsed `Content-Length` (0 when absent).
    pub content_length: usize,
}

impl Head {
    /// The first value of `name` (ASCII case-insensitive), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// True when the client sent `Expect: 100-continue` and is waiting for
    /// an interim response before transmitting the body.
    #[must_use]
    pub fn expects_continue(&self) -> bool {
        self.header("expect")
            .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
    }

    /// Whether this request asks for a persistent connection, per RFC 7230
    /// §6.3: an explicit `close` token always closes, an explicit
    /// `keep-alive` token always persists, and absent both the default is
    /// keep-alive for HTTP/1.1 and close for HTTP/1.0. The `Connection`
    /// header is a comma-separated token list (`keep-alive, TE`), matched
    /// case-insensitively; `close` wins over `keep-alive` if a confused
    /// client sends both.
    #[must_use]
    pub fn wants_keepalive(&self) -> bool {
        let mut close = false;
        let mut keep = false;
        if let Some(value) = self.header("connection") {
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    close = true;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep = true;
                }
            }
        }
        if close {
            false
        } else if keep {
            true
        } else {
            self.minor_version >= 1
        }
    }
}

/// A complete request: head plus body.
#[derive(Debug, Clone)]
pub struct Request {
    /// The request head.
    pub head: Head,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

fn check_deadline(deadline: Option<Instant>) -> Result<(), HttpError> {
    match deadline {
        Some(d) if Instant::now() > d => Err(HttpError::DeadlineExceeded),
        _ => Ok(()),
    }
}

/// Maps one failed socket read to a typed error: a per-read timeout
/// (`SO_RCVTIMEO` firing surfaces as `WouldBlock` on Unix, `TimedOut` on
/// Windows) means the peer stalled mid-request — a deadline violation
/// (408), not a malformed request (400).
fn read_error(e: &std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            HttpError::DeadlineExceeded
        }
        _ => HttpError::Io(e.to_string()),
    }
}

/// Reads and parses the request head (everything up to the `\r\n\r\n`
/// terminator) through a [`BufRead`]er's buffer. Call [`read_body`]
/// afterwards — split so the server can interpose a `100 Continue` between
/// the two. Exactly the head is consumed, so pipelined bytes stay buffered
/// for the next request: a readiness-driven server needs that, since
/// bytes parked in the user-space buffer are invisible to `epoll` and must
/// be consumed from here, not re-awaited on the socket. `deadline` bounds
/// the *whole* head transfer (checked between reads; pair it with a
/// per-read socket timeout so a silent peer cannot park the thread
/// either).
///
/// # Errors
///
/// [`HttpError::HeadTooLarge`] past [`MAX_HEAD_BYTES`];
/// [`HttpError::BadRequest`] on EOF, malformed request line, or malformed
/// headers; [`HttpError::VersionNotSupported`] for non-1.x versions;
/// [`HttpError::DeadlineExceeded`] past `deadline`; [`HttpError::Io`] when
/// the socket fails.
pub fn read_head_buffered<R: BufRead>(
    reader: &mut R,
    deadline: Option<Instant>,
) -> Result<Head, HttpError> {
    let mut head: Vec<u8> = Vec::with_capacity(512);
    loop {
        check_deadline(deadline)?;
        let available = match reader.fill_buf() {
            Ok([]) => {
                return Err(HttpError::BadRequest(
                    "connection closed before the request head completed".to_string(),
                ))
            }
            Ok(buf) => buf,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(read_error(&e)),
        };
        // The terminator may straddle a fill boundary: rescan from up to
        // three bytes before the old tail.
        let rescan_from = head.len().saturating_sub(3);
        head.extend_from_slice(available);
        let take = match head[rescan_from..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
        {
            // Bytes past the terminator belong to the next request: put
            // them back by consuming only through the terminator.
            Some(at) => {
                let end = rescan_from + at + 4;
                let consumed = head.len() - end;
                head.truncate(end);
                available.len() - consumed
            }
            None => available.len(),
        };
        reader.consume(take);
        if head.len() > MAX_HEAD_BYTES
            || (!head.ends_with(b"\r\n\r\n") && head.len() == MAX_HEAD_BYTES)
        {
            return Err(HttpError::HeadTooLarge);
        }
        if head.ends_with(b"\r\n\r\n") {
            return parse_head(&head);
        }
    }
}

/// Parses a complete request head (terminated by `\r\n\r\n` or not — the
/// terminator is optional here so unit tests can feed bare heads).
///
/// # Errors
///
/// As [`read_head_buffered`], minus the I/O cases.
pub fn parse_head(head: &[u8]) -> Result<Head, HttpError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| HttpError::BadRequest("request head is not valid UTF-8".to_string()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request".to_string()))?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(HttpError::BadRequest(format!(
                "malformed request line `{request_line}`"
            )))
        }
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::BadRequest(format!(
            "malformed method `{method}`"
        )));
    }
    if !path.starts_with('/') {
        return Err(HttpError::BadRequest(format!(
            "request target `{path}` must start with `/`"
        )));
    }
    let minor_version = match version.strip_prefix("HTTP/1.") {
        // Minors beyond 1 never shipped; parse them as 1.1 semantics.
        Some(minor) => match minor.parse::<u32>() {
            Ok(m) => u8::from(m >= 1),
            Err(_) => return Err(HttpError::VersionNotSupported),
        },
        None => return Err(HttpError::VersionNotSupported),
    };

    let mut headers = Vec::new();
    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue; // the blank line terminating the head
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "malformed header line `{line}`"
            )));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name.is_empty() {
            return Err(HttpError::BadRequest("empty header name".to_string()));
        }
        if name == "content-length" {
            let parsed = value
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("invalid Content-Length `{value}`")))?;
            // Conflicting duplicates are the request-smuggling classic
            // (RFC 9112 §6.3): a fronting proxy honoring the first value
            // and this server honoring another must never disagree about
            // where the body ends.
            if content_length.is_some_and(|existing| existing != parsed) {
                return Err(HttpError::BadRequest(
                    "conflicting Content-Length headers".to_string(),
                ));
            }
            content_length = Some(parsed);
        }
        headers.push((name, value));
    }
    Ok(Head {
        method: method.to_string(),
        path: path.to_string(),
        minor_version,
        headers,
        content_length: content_length.unwrap_or(0),
    })
}

/// Reads the declared request body.
///
/// # Errors
///
/// [`HttpError::PayloadTooLarge`] when the declared length exceeds
/// `max_body` (nothing is read in that case — the connection is going to be
/// closed anyway); [`HttpError::DeadlineExceeded`] past `deadline`;
/// [`HttpError::BadRequest`] when the connection ends (or times out)
/// before the declared length arrives.
pub fn read_body<R: Read>(
    reader: &mut R,
    declared_len: usize,
    max_body: usize,
    deadline: Option<Instant>,
) -> Result<Vec<u8>, HttpError> {
    if declared_len > max_body {
        return Err(HttpError::PayloadTooLarge { limit: max_body });
    }
    let mut body = vec![0u8; declared_len];
    let mut filled = 0;
    while filled < declared_len {
        check_deadline(deadline)?;
        match reader.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(HttpError::BadRequest(format!(
                    "truncated body: got {filled} of {declared_len} declared bytes"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(read_error(&e)),
        }
    }
    Ok(body)
}

/// Head + body in one call, no interim responses and no deadline — the
/// server's framing minus the `100 Continue` step, for tests and simple
/// callers.
///
/// # Errors
///
/// As [`read_head_buffered`] and [`read_body`].
pub fn read_request<R: BufRead>(reader: &mut R, max_body: usize) -> Result<Request, HttpError> {
    let head = read_head_buffered(reader, None)?;
    let body = read_body(reader, head.content_length, max_body, None)?;
    Ok(Request { head, body })
}

/// The canonical reason phrase for the status codes this service emits.
#[must_use]
pub fn status_reason(status: u16) -> &'static str {
    match status {
        100 => "Continue",
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// An HTTP response: status plus a JSON body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Response body (always JSON in this service).
    pub body: String,
    /// Seconds to advertise in a `Retry-After` header — set on every
    /// load-shed `503` so clients know the saturation is transient and
    /// bounded, absent everywhere else.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A JSON response with the given status.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            retry_after: None,
        }
    }

    /// A JSON error response: `{"error": ..., "status": ...}`.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        #[derive(serde::Serialize)]
        struct ErrorBody {
            error: String,
            status: u16,
        }
        let body = serde_json::to_string(&ErrorBody {
            error: message.to_string(),
            status,
        })
        .unwrap_or_else(|_| format!("{{\"error\":\"unrenderable\",\"status\":{status}}}"));
        Response {
            status,
            body,
            retry_after: None,
        }
    }

    /// The load-shed response: `503` with a `Retry-After` header (and a
    /// matching `retry_after_seconds` body field) telling the client when
    /// to come back. Every 503 this service emits goes through here so the
    /// retry contract is uniform.
    #[must_use]
    pub fn unavailable(message: &str, retry_after_secs: u32) -> Self {
        #[derive(serde::Serialize)]
        struct ShedBody {
            error: String,
            status: u16,
            retry_after_seconds: u32,
        }
        let body = serde_json::to_string(&ShedBody {
            error: message.to_string(),
            status: 503,
            retry_after_seconds: retry_after_secs,
        })
        .unwrap_or_else(|_| "{\"error\":\"unrenderable\",\"status\":503}".to_string());
        Response {
            status: 503,
            body,
            retry_after: Some(retry_after_secs),
        }
    }

    /// The full wire bytes of this response (status line, headers, body)
    /// with the given connection disposition. The header set and order are
    /// fixed — a golden fixture pins them — so log scrapers and tests can
    /// rely on the exact shape.
    #[must_use]
    pub fn render(&self, keep_alive: bool) -> String {
        let retry = self
            .retry_after
            .map(|secs| format!("Retry-After: {secs}\r\n"))
            .unwrap_or_default();
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n{}",
            self.status,
            status_reason(self.status),
            self.body.len(),
            retry,
            if keep_alive { "keep-alive" } else { "close" },
            self.body
        )
    }

    /// Serializes the response onto `writer` with the given connection
    /// disposition (`Connection: keep-alive` or `Connection: close`).
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn write_conn<W: Write>(&self, writer: &mut W, keep_alive: bool) -> std::io::Result<()> {
        writer.write_all(self.render(keep_alive).as_bytes())?;
        writer.flush()
    }

    /// Serializes the response onto `writer`, closing the connection
    /// (`Connection: close`) — the one-shot path.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> std::io::Result<()> {
        self.write_conn(writer, false)
    }
}

/// Writes the `100 Continue` interim response.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn write_continue<W: Write>(writer: &mut W) -> std::io::Result<()> {
    write!(writer, "HTTP/1.1 100 Continue\r\n\r\n")?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(raw.as_bytes()), DEFAULT_MAX_BODY_BYTES)
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            parse("POST /v1/plan HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"co\":64}")
                .unwrap();
        assert_eq!(req.head.method, "POST");
        assert_eq!(req.head.path, "/v1/plan");
        assert_eq!(req.head.header("host"), Some("x"));
        assert_eq!(req.body, b"{\"co\":64}");
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.head.method, "GET");
        assert_eq!(req.head.content_length, 0);
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_malformed_request_line() {
        for raw in [
            "GET\r\n\r\n",
            "GET /x\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            " / HTTP/1.1\r\n\r\n",
        ] {
            let err = parse(raw).unwrap_err();
            assert_eq!(err.status(), 400, "{raw:?} -> {err:?}");
        }
    }

    #[test]
    fn rejects_bad_method_token() {
        // Lowercase / mixed tokens are not methods; routing handles
        // well-formed-but-unsupported methods (405) separately.
        let err = parse("get /healthz HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 400);
        let err = parse("P@ST /x HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn rejects_unsupported_http_version() {
        let err = parse("GET / HTTP/2.0\r\n\r\n").unwrap_err();
        assert_eq!(err, HttpError::VersionNotSupported);
        assert_eq!(err.status(), 505);
    }

    #[test]
    fn rejects_relative_request_target() {
        let err = parse("GET healthz HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn rejects_malformed_headers() {
        let err = parse("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 400);
        let err = parse("GET / HTTP/1.1\r\nContent-Length: ten\r\n\r\n").unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn rejects_conflicting_content_lengths() {
        // The request-smuggling precondition: two Content-Length values
        // that disagree must be a hard 400, not last-one-wins.
        let err = parse("POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nab")
            .unwrap_err();
        assert_eq!(err.status(), 400);
        // Identical duplicates are harmless and accepted.
        let req =
            parse("POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab").unwrap();
        assert_eq!(req.body, b"ab");
    }

    #[test]
    fn rejects_truncated_body_with_400_not_panic() {
        let err = parse("POST /v1/plan HTTP/1.1\r\nContent-Length: 50\r\n\r\n{\"co\"").unwrap_err();
        assert_eq!(err.status(), 400);
        assert!(err.message().contains("truncated"));
    }

    #[test]
    fn rejects_oversized_payload_without_reading_it() {
        let raw = "POST /v1/plan HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        let err = read_request(&mut Cursor::new(raw.as_bytes()), 1024).unwrap_err();
        assert_eq!(err, HttpError::PayloadTooLarge { limit: 1024 });
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn rejects_unterminated_head() {
        let err = parse("GET / HTTP/1.1\r\nHost: x").unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn rejects_oversized_head() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        while raw.len() <= MAX_HEAD_BYTES {
            raw.push_str("X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        raw.push_str("\r\n");
        let err = parse(&raw).unwrap_err();
        assert_eq!(err, HttpError::HeadTooLarge);
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn rejects_non_utf8_head() {
        let mut raw = b"GET /\xff HTTP/1.1\r\n\r\n".to_vec();
        let err = read_request(&mut Cursor::new(&mut raw), 1024).unwrap_err();
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn expired_deadline_rejects_slow_requests_with_408() {
        let past = Some(Instant::now() - std::time::Duration::from_secs(1));
        let mut cursor = Cursor::new(&b"GET / HTTP/1.1\r\n\r\n"[..]);
        let err = read_head_buffered(&mut cursor, past).unwrap_err();
        assert_eq!(err, HttpError::DeadlineExceeded);
        assert_eq!(err.status(), 408);
        let mut cursor = Cursor::new(&b"abcdef"[..]);
        let err = read_body(&mut cursor, 6, 1024, past).unwrap_err();
        assert_eq!(err, HttpError::DeadlineExceeded);
        // A live deadline lets a complete request straight through.
        let future = Some(Instant::now() + std::time::Duration::from_secs(60));
        let mut cursor = Cursor::new(&b"GET / HTTP/1.1\r\n\r\n"[..]);
        assert!(read_head_buffered(&mut cursor, future).is_ok());
    }

    #[test]
    fn expect_continue_detected() {
        let head = parse_head(b"POST /v1/plan HTTP/1.1\r\nExpect: 100-continue\r\n").unwrap();
        assert!(head.expects_continue());
        let head = parse_head(b"POST /v1/plan HTTP/1.1\r\n").unwrap();
        assert!(!head.expects_continue());
    }

    #[test]
    fn keepalive_negotiation_follows_rfc7230() {
        // HTTP/1.1 defaults to keep-alive; explicit close wins.
        let head = parse_head(b"GET / HTTP/1.1\r\n").unwrap();
        assert_eq!(head.minor_version, 1);
        assert!(head.wants_keepalive());
        let head = parse_head(b"GET / HTTP/1.1\r\nConnection: close\r\n").unwrap();
        assert!(!head.wants_keepalive());
        // HTTP/1.0 defaults to close; explicit keep-alive opts in.
        let head = parse_head(b"GET / HTTP/1.0\r\n").unwrap();
        assert_eq!(head.minor_version, 0);
        assert!(!head.wants_keepalive());
        let head = parse_head(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n").unwrap();
        assert!(head.wants_keepalive());
        // Token lists and case-insensitivity.
        let head = parse_head(b"GET / HTTP/1.1\r\nConnection: Keep-Alive, TE\r\n").unwrap();
        assert!(head.wants_keepalive());
        let head = parse_head(b"GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n").unwrap();
        assert!(!head.wants_keepalive(), "close must win over keep-alive");
        // Unknown tokens fall back to the version default.
        let head = parse_head(b"GET / HTTP/1.0\r\nConnection: upgrade\r\n").unwrap();
        assert!(!head.wants_keepalive());
    }

    #[test]
    fn version_minor_must_be_numeric() {
        // `HTTP/1.x` used to slip through the old prefix check.
        let err = parse_head(b"GET / HTTP/1.x\r\n").unwrap_err();
        assert_eq!(err, HttpError::VersionNotSupported);
        // Hypothetical higher 1.x minors get 1.1 semantics.
        let head = parse_head(b"GET / HTTP/1.2\r\n").unwrap();
        assert_eq!(head.minor_version, 1);
    }

    #[test]
    fn timed_out_reads_surface_as_408_not_400() {
        struct TimesOut;
        impl Read for TimesOut {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
            }
        }
        let err = read_head_buffered(&mut std::io::BufReader::new(TimesOut), None).unwrap_err();
        assert_eq!(err, HttpError::DeadlineExceeded);
        assert_eq!(err.status(), 408);
        let err = read_body(&mut TimesOut, 4, 1024, None).unwrap_err();
        assert_eq!(err, HttpError::DeadlineExceeded);
    }

    /// A reader that hands out its bytes in fixed-size fills, so buffered
    /// head parsing is exercised across arbitrary fill boundaries
    /// (including terminators straddling two fills).
    struct Chunked<'a> {
        bytes: &'a [u8],
        at: usize,
        chunk: usize,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(out.len()).min(self.bytes.len() - self.at);
            out[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn buffered_head_matches_byte_at_a_time_for_every_fill_size() {
        let raw = b"POST /v1/plan HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"co\":64}extra";
        for chunk in 1..=raw.len() {
            let mut reader = std::io::BufReader::with_capacity(
                16,
                Chunked {
                    bytes: raw,
                    at: 0,
                    chunk,
                },
            );
            let head = read_head_buffered(&mut reader, None).unwrap_or_else(|e| {
                panic!("chunk size {chunk}: {e:?}");
            });
            assert_eq!(head.method, "POST", "chunk {chunk}");
            assert_eq!(head.content_length, 9, "chunk {chunk}");
            // Exactly the body (and the pipelined tail) must remain.
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).unwrap();
            assert_eq!(rest, b"{\"co\":64}extra", "chunk {chunk}");
        }
    }

    #[test]
    fn buffered_head_rejects_the_same_hostile_inputs() {
        // EOF mid-head.
        let err = read_head_buffered(&mut std::io::BufReader::new(Cursor::new(b"GET / HT")), None)
            .unwrap_err();
        assert_eq!(err.status(), 400);
        // Oversized head.
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        while raw.len() <= MAX_HEAD_BYTES {
            raw.push_str("X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        raw.push_str("\r\n");
        let err = read_head_buffered(
            &mut std::io::BufReader::new(Cursor::new(raw.into_bytes())),
            None,
        )
        .unwrap_err();
        assert_eq!(err, HttpError::HeadTooLarge);
        // Expired deadline.
        let past = Some(Instant::now() - std::time::Duration::from_secs(1));
        let err = read_head_buffered(
            &mut std::io::BufReader::new(Cursor::new(b"GET / HTTP/1.1\r\n\r\n")),
            past,
        )
        .unwrap_err();
        assert_eq!(err, HttpError::DeadlineExceeded);
        // A timed-out socket surfaces as 408, not as a malformed request.
        struct TimesOut;
        impl Read for TimesOut {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::from(std::io::ErrorKind::WouldBlock))
            }
        }
        let err = read_head_buffered(&mut std::io::BufReader::new(TimesOut), None).unwrap_err();
        assert_eq!(err, HttpError::DeadlineExceeded);
    }

    #[test]
    fn render_controls_connection_and_retry_after_headers() {
        let ok = Response::json(200, "{}");
        assert!(ok.render(true).contains("Connection: keep-alive\r\n"));
        assert!(ok.render(false).contains("Connection: close\r\n"));
        assert!(!ok.render(true).contains("Retry-After"));

        let shed = Response::unavailable("server is saturated; retry with backoff", 1);
        assert_eq!(shed.status, 503);
        let wire = shed.render(true);
        assert!(wire.contains("Retry-After: 1\r\n"), "{wire}");
        assert!(wire.contains("Connection: keep-alive\r\n"), "{wire}");
        assert!(wire.contains("\"retry_after_seconds\":1"), "{wire}");
    }

    #[test]
    fn response_serializes_with_content_length() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
    }

    #[test]
    fn error_response_is_json() {
        let r = Response::error(422, "bad \"layer\"");
        assert_eq!(r.status, 422);
        assert_eq!(r.body, "{\"error\":\"bad \\\"layer\\\"\",\"status\":422}");
    }
}
