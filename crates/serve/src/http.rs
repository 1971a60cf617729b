//! Minimal HTTP/1.1 request parsing and response writing.
//!
//! Just enough protocol for the job API: one request per connection
//! (`Connection: close`), `Content-Length` bodies only (no chunked
//! encoding), percent-decoded query strings. Every input dimension is
//! bounded — header block and body sizes are capped and produce typed
//! 431/413 refusals instead of unbounded buffering, in line with the
//! serving layer's "never OOM" rule.
//!
//! The parser works over any [`Read`], so unit tests drive it with
//! in-memory cursors and the server hands it `TcpStream`s wrapped in a
//! [`DeadlineReader`], which bounds the total wall-clock spent reading one
//! request (a per-read socket timeout alone resets on every byte, so a
//! slow-loris client could pin a handler thread indefinitely).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Upper bound on the request line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Typed failures while reading a request. Each maps to an HTTP status via
/// [`HttpError::status`]; I/O errors abort the connection instead.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure (including read timeouts).
    Io(io::Error),
    /// The request was syntactically invalid.
    BadRequest(&'static str),
    /// The header block exceeded [`MAX_HEAD_BYTES`].
    HeadersTooLarge {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// `Content-Length` exceeded the server's body cap.
    BodyTooLarge {
        /// Declared content length.
        length: usize,
        /// The limit that was exceeded.
        limit: usize,
    },
}

impl HttpError {
    /// Status code to answer with, or `None` when the connection is dead
    /// and no answer can be delivered.
    pub fn status(&self) -> Option<u16> {
        match self {
            HttpError::Io(_) => None,
            HttpError::BadRequest(_) => Some(400),
            HttpError::HeadersTooLarge { .. } => Some(431),
            HttpError::BodyTooLarge { .. } => Some(413),
        }
    }

    /// Short reason string for response bodies.
    pub fn reason(&self) -> String {
        match self {
            HttpError::Io(e) => format!("i/o: {e}"),
            HttpError::BadRequest(m) => (*m).to_string(),
            HttpError::HeadersTooLarge { limit } => {
                format!("header block exceeds {limit} bytes")
            }
            HttpError::BodyTooLarge { length, limit } => {
                format!("body of {length} bytes exceeds {limit} bytes")
            }
        }
    }
}

/// A parsed request. Header names are lower-cased; query keys/values are
/// percent-decoded.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Path component, without the query string.
    pub path: String,
    /// Decoded query parameters in arrival order; bounded by
    /// [`MAX_HEAD_BYTES`] since they come from the request line.
    pub query: Vec<(String, String)>,
    /// Lower-cased header name/value pairs; bounded by [`MAX_HEAD_BYTES`].
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First header with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// [`Read`] adapter that enforces a total wall-clock budget across every
/// read of one request. Before each read it installs `min(per_read, time
/// left)` as the socket read timeout, so no single read outlives the
/// deadline and the whole request fails with [`io::ErrorKind::TimedOut`]
/// once the budget is spent — regardless of how slowly the peer drips
/// bytes.
pub struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    per_read: Duration,
    deadline: Instant,
}

impl<'a> DeadlineReader<'a> {
    /// Wraps `stream` with a fresh `budget` starting now; `per_read` caps
    /// each individual read on top of the overall deadline.
    pub fn new(stream: &'a TcpStream, per_read: Duration, budget: Duration) -> Self {
        DeadlineReader {
            stream,
            per_read,
            #[expect(
                clippy::disallowed_methods,
                reason = "slow-loris defense: the read deadline bounds I/O time; a timeout \
                          aborts a request and never alters a successful response's bytes"
            )]
            deadline: Instant::now() + budget,
        }
    }
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        #[expect(
            clippy::disallowed_methods,
            reason = "deadline enforcement for the same reader; see DeadlineReader::new"
        )]
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request wall-clock budget exhausted",
            ));
        }
        self.stream
            .set_read_timeout(Some(left.min(self.per_read)))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// Reads and parses one request. `max_body` caps the accepted
/// `Content-Length`; the header block, blank line included, is capped at
/// [`MAX_HEAD_BYTES`]. No more than `MAX_HEAD_BYTES + max_body` bytes are
/// ever read from `reader`.
pub fn read_request(reader: &mut impl Read, max_body: usize) -> Result<Request, HttpError> {
    // Accumulate until the blank line; anything past it is body prefix.
    // Never read past MAX_HEAD_BYTES before the blank line is seen.
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    let split = loop {
        if let Some(pos) = find_head_end(&head) {
            break pos;
        }
        if head.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::HeadersTooLarge {
                limit: MAX_HEAD_BYTES,
            });
        }
        let want = chunk.len().min(MAX_HEAD_BYTES - head.len());
        let n = reader.read(&mut chunk[..want]).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::BadRequest("truncated request head"));
        }
        head.extend_from_slice(&chunk[..n]);
    };
    let body_prefix = head[split + 4..].to_vec();
    head.truncate(split);
    let head_text =
        std::str::from_utf8(&head).map_err(|_| HttpError::BadRequest("non-utf8 header block"))?;

    let mut lines = head_text.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::BadRequest("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(HttpError::BadRequest("missing method"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or(HttpError::BadRequest("missing request target"))?;
    let version = parts
        .next()
        .ok_or(HttpError::BadRequest("missing http version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest("unsupported http version"));
    }

    let (path_raw, query_raw) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(path_raw).ok_or(HttpError::BadRequest("bad path encoding"))?;
    let mut query = Vec::new();
    for pair in query_raw.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let k = percent_decode(k).ok_or(HttpError::BadRequest("bad query encoding"))?;
        let v = percent_decode(v).ok_or(HttpError::BadRequest("bad query encoding"))?;
        query.push((k, v));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::BadRequest("malformed header line"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest("bad content-length"))?,
        None => 0,
    };
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge {
            length: content_length,
            limit: max_body,
        });
    }

    let mut body = body_prefix;
    if body.len() > content_length {
        return Err(HttpError::BadRequest("body longer than content-length"));
    }
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        let n = reader.read(&mut chunk[..want]).map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::BadRequest("truncated body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

/// Position of the `\r\n\r\n` separator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Percent-decodes a URL component (`%41` → `A`, `+` → space). Returns
/// `None` on malformed escapes or non-UTF-8 results.
pub fn percent_decode(s: &str) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let text = std::str::from_utf8(hex).ok()?;
                out.push(u8::from_str_radix(text, 16).ok()?);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// A response ready to serialize.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// A JSON error body `{"error": <kind>, "message": <message>}`.
    pub fn error(status: u16, kind: &str, message: &str) -> Self {
        Response::json(
            status,
            format!(
                "{{\"error\":{},\"message\":{}}}",
                json_str(kind),
                json_str(message)
            ),
        )
    }
}

/// Serializes a response with `Connection: close` and a `Content-Length`.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        resp.status,
        status_text(resp.status),
        resp.content_type,
        resp.body.len()
    )?;
    w.write_all(&resp.body)?;
    w.flush()
}

/// Canonical reason phrases for the statuses the server emits.
fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// Escapes a string into a JSON string literal (with quotes), as every
/// fc-obs sink does.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    fc_obs::json::push_json_str(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(raw.as_bytes().to_vec()), 1 << 20)
    }

    #[test]
    fn parses_request_line_query_and_headers() {
        let req = parse(
            "POST /jobs?tenant=alice&priority=high HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nACGT",
        )
        .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.query_param("tenant"), Some("alice"));
        assert_eq!(req.query_param("priority"), Some("high"));
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"ACGT");
    }

    #[test]
    fn percent_decoding_applies_to_query() {
        let req = parse("GET /x?name=a%2Fb+c HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(req.query_param("name"), Some("a/b c"));
        assert_eq!(percent_decode("%zz"), None);
    }

    #[test]
    fn oversized_body_is_a_typed_413() {
        let err = read_request(
            &mut Cursor::new(b"POST /jobs HTTP/1.1\r\ncontent-length: 100\r\n\r\n".to_vec()),
            10,
        )
        .expect_err("too large");
        assert_eq!(err.status(), Some(413));
    }

    #[test]
    fn oversized_head_is_a_typed_431() {
        let mut raw = b"GET /x HTTP/1.1\r\nx-pad: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 1024));
        raw.extend_from_slice(b"\r\n\r\n");
        let err = read_request(&mut Cursor::new(raw), 10).expect_err("too large");
        assert_eq!(err.status(), Some(431));
    }

    #[test]
    fn truncated_requests_are_bad_requests() {
        for raw in ["GET /x HTTP/1.1\r\n", "", "GET\r\n\r\n"] {
            let err = parse(raw).expect_err("truncated");
            assert_eq!(err.status(), Some(400), "{raw:?}");
        }
        let err = parse("POST /x HTTP/1.1\r\ncontent-length: 9\r\n\r\nshort").expect_err("body");
        assert_eq!(err.status(), Some(400));
    }

    #[test]
    fn response_serializes_with_length_and_close() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(429, "{\"error\":\"saturated\"}")).expect("write");
        let text = String::from_utf8(out).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("content-length: 21\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"saturated\"}"));
    }

    /// Counts the bytes a reader hands out.
    struct Counting<R> {
        inner: R,
        read: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.read += n;
            Ok(n)
        }
    }

    /// Valid requests mutated by setting, inserting and truncating bytes,
    /// some with a random `Content-Length` or a padded head: every case
    /// ends in a request or a typed refusal, never a panic, and never
    /// reads more than `MAX_HEAD_BYTES + max_body` bytes. A request it
    /// accepts carries exactly the body its `Content-Length` declares.
    #[test]
    fn mutated_requests_end_typed_within_the_read_bound() {
        let valid: [&[u8]; 4] = [
            b"GET /jobs/job-000001 HTTP/1.1\r\nhost: x\r\n\r\n",
            b"POST /jobs?tenant=alice&priority=high HTTP/1.1\r\ncontent-length: 4\r\n\r\nACGT",
            b"DELETE /jobs/job-000002 HTTP/1.0\r\n\r\n",
            b"GET /x?name=a%2Fb+c HTTP/1.1\r\nx-a: 1\r\nx-b:2\r\n\r\n",
        ];
        fc_rng::cases(2_000, |rng| {
            let max_body = rng.range(0usize..64);
            let mut raw = valid[rng.range(0..valid.len())].to_vec();
            if rng.bool(0.3) {
                let length = match rng.range(0u8..3) {
                    0 => rng.range(0usize..2 * max_body + 2).to_string(),
                    1 => rng.range(0..=u64::MAX).to_string(),
                    _ => format!("{}x", rng.range(0u8..10)),
                };
                let at = raw.windows(2).position(|w| w == b"\r\n").unwrap() + 2;
                let header = format!("content-length: {length}\r\n");
                raw.splice(at..at, header.bytes());
                raw.extend(std::iter::repeat_n(b'G', rng.range(0..2 * max_body + 2)));
            }
            if rng.bool(0.1) {
                let at = raw.windows(2).position(|w| w == b"\r\n").unwrap() + 2;
                let pad = rng.range(MAX_HEAD_BYTES - 64..MAX_HEAD_BYTES + 64);
                let header = format!("x-pad: {}\r\n", "p".repeat(pad));
                raw.splice(at..at, header.bytes());
            }
            for _ in 0..rng.range(0..4) {
                let at = rng.range(0..=raw.len());
                match rng.range(0u8..3) {
                    0 if at < raw.len() => raw[at] = rng.range(0u8..=255),
                    1 => {
                        let grammar = b" \r\n:?&=%+";
                        raw.insert(at, grammar[rng.range(0..grammar.len())]);
                    }
                    _ => raw.truncate(at),
                }
            }
            let mut reader = Counting {
                inner: Cursor::new(raw),
                read: 0,
            };
            let result = read_request(&mut reader, max_body);
            assert!(
                reader.read <= MAX_HEAD_BYTES + max_body,
                "read {}",
                reader.read
            );
            match result {
                Ok(req) => {
                    let declared = req
                        .header("content-length")
                        .map_or(Some(0), |v| v.parse().ok());
                    assert_eq!(declared, Some(req.body.len()));
                    assert!(req.body.len() <= max_body);
                }
                Err(e) => assert!(e.status().is_some(), "{e:?}"),
            }
        });
    }

    #[test]
    fn json_str_escapes_controls() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
