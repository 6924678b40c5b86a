//! Hand-rolled HTTP/1.1 subset: request-head parsing, response writing,
//! and a minimal blocking client for the load generator and tests.
//!
//! The server speaks exactly what its clients need and nothing more:
//! `GET` requests, one request per connection (`Connection: close` on
//! every response), bodies only in responses, `Content-Length` framing.
//! The parser is a total function over byte buffers — malformed input
//! maps to a status code, never a panic — and enforces hard limits on
//! the request head so a slow or hostile client cannot balloon memory.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest accepted request head (request line + all headers + CRLFCRLF).
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Longest accepted request-target (path + query string).
pub const MAX_TARGET_BYTES: usize = 4 * 1024;

/// A parsed request head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    /// Origin-form target: `/path?query`.
    pub target: String,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
}

/// A protocol-level rejection: the HTTP status to answer with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpError {
    pub status: u16,
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// Reason phrases for every status this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Content Too Large",
        414 => "URI Too Long",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Parse a complete request head (everything through `\r\n\r\n`).
///
/// Total: every malformed input returns an [`HttpError`] (400 for syntax,
/// 405 for non-GET methods, 414 for oversized targets), never panics.
pub fn parse_head(head: &[u8]) -> Result<Request, HttpError> {
    let text =
        std::str::from_utf8(head).map_err(|_| HttpError::new(400, "request head is not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::new(400, "empty request"))?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(HttpError::new(
                400,
                format!("malformed request line {request_line:?}"),
            ))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::new(
            400,
            format!("unsupported protocol {version:?}"),
        ));
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(HttpError::new(400, format!("malformed method {method:?}")));
    }
    if method != "GET" {
        return Err(HttpError::new(405, format!("method {method} not allowed")));
    }
    if target.len() > MAX_TARGET_BYTES {
        return Err(HttpError::new(414, "request target too long"));
    }
    if !target.starts_with('/') {
        return Err(HttpError::new(
            400,
            format!("target {target:?} is not origin-form"),
        ));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break; // the CRLFCRLF terminator
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::new(400, format!("malformed header {line:?}")));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::new(
                400,
                format!("malformed header name {name:?}"),
            ));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
    })
}

/// Read a request head from `stream` (everything through `\r\n\r\n`),
/// enforcing [`MAX_HEAD_BYTES`] (→ 413) and the stream's read timeout
/// (→ 408). GET requests carry no body, so nothing further is read.
pub fn read_head(stream: &mut TcpStream) -> Result<Vec<u8>, HttpError> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    // Bytes already searched for the terminator. It may straddle two
    // reads, so each search resumes three bytes before the last one
    // ended instead of at byte 0.
    let mut searched = 0usize;
    loop {
        let from = searched.saturating_sub(3);
        if buf[from..].windows(4).any(|w| w == b"\r\n\r\n") {
            return Ok(buf);
        }
        searched = buf.len();
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::new(413, "request head too large"));
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(HttpError::new(400, "connection closed mid-request"));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(HttpError::new(408, "timed out reading request"));
            }
            Err(e) => return Err(HttpError::new(400, format!("read failed: {e}"))),
        }
    }
}

/// Write one response — head and body in a single `write`, so a
/// `Connection: close` exchange is one segment where it fits — and
/// flush. `extra_headers` are raw `Name: value` lines (no CRLF).
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &str,
    extra_headers: &[&str],
) -> io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    );
    for h in extra_headers {
        out.push_str(h);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// JSON error body for `err`, shared by all error responses.
pub fn error_body(err: &HttpError) -> String {
    format!(
        "{{\"error\":\"{}\",\"status\":{}}}\n",
        inspire_trace::json::escape(&err.message),
        err.status
    )
}

/// A client-side response.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Blocking GET against `addr` (the whole exchange bounded by `timeout`):
/// opens a fresh connection, sends the request, reads to EOF, parses the
/// status line, headers, and body.
pub fn get(addr: SocketAddr, path: &str, timeout: Duration) -> io::Result<Response> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

/// Parse a full response buffer (head + body).
pub fn parse_response(raw: &[u8]) -> io::Result<Response> {
    let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator in response"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let body_raw = &raw[head_end + 4..];
    let body_len = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(body_raw.len())
        .min(body_raw.len());
    let body =
        String::from_utf8(body_raw[..body_len].to_vec()).map_err(|_| bad("non-UTF-8 body"))?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Request, HttpError> {
        parse_head(s.as_bytes())
    }

    #[test]
    fn parses_a_plain_get() {
        let req = parse("GET /healthz HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert_eq!(req.headers.len(), 2);
        assert_eq!(req.headers[0], ("host".to_string(), "x".to_string()));
    }

    #[test]
    fn malformed_request_lines_are_400_never_panic() {
        for bad in [
            "",
            "\r\n\r\n",
            "GET\r\n\r\n",
            "GET /x\r\n\r\n",
            "GET /x HTTP/1.1 extra\r\n\r\n",
            "GET /x SMTP/1.0\r\n\r\n",
            " GET /x HTTP/1.1\r\n\r\n",
            "GET relative HTTP/1.1\r\n\r\n",
            "G@T /x HTTP/1.1\r\n\r\n",
            "get /x HTTP/1.1\r\n\r\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.status, 400, "{bad:?} -> {err:?}");
        }
    }

    #[test]
    fn non_get_methods_are_405() {
        for m in ["POST", "PUT", "DELETE", "HEAD", "OPTIONS"] {
            let err = parse(&format!("{m} /x HTTP/1.1\r\n\r\n")).unwrap_err();
            assert_eq!(err.status, 405, "{m}");
        }
    }

    #[test]
    fn malformed_headers_are_400() {
        for bad in [
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "GET /x HTTP/1.1\r\n: empty-name\r\n\r\n",
            "GET /x HTTP/1.1\r\nbad name: v\r\n\r\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.status, 400, "{bad:?}");
        }
    }

    #[test]
    fn oversized_target_is_414() {
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_TARGET_BYTES + 1));
        assert_eq!(parse(&long).unwrap_err().status, 414);
    }

    #[test]
    fn non_utf8_head_is_400() {
        assert_eq!(
            parse_head(b"GET /\xff\xfe HTTP/1.1\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn response_round_trip() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\n{\"a\":";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "{\"a\":");
        assert_eq!(resp.header("content-type"), Some("application/json"));
    }

    /// Records each `write` it is handed, accepting all of it.
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_of_the_exact_wire_bytes() {
        let mut wire = Writes(Vec::new());
        write_response(&mut wire, 200, "application/json", "{\"a\":1}\n", &[]).unwrap();
        assert_eq!(
            wire.0,
            [
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 8\r\n\
               Connection: close\r\n\r\n{\"a\":1}\n"
                    .to_vec()
            ]
        );

        let err = HttpError::new(429, "server saturated, retry shortly");
        let body = error_body(&err);
        let mut wire = Writes(Vec::new());
        write_response(
            &mut wire,
            429,
            "application/json",
            &body,
            &["Retry-After: 1"],
        )
        .unwrap();
        assert_eq!(wire.0.len(), 1, "head and body must leave in one write");
        let want = format!(
            "HTTP/1.1 429 Too Many Requests\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\nRetry-After: 1\r\n\r\n{body}",
            body.len()
        );
        assert_eq!(wire.0[0], want.as_bytes());
        let resp = parse_response(&wire.0[0]).unwrap();
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!((resp.status, resp.body), (429, body));

        // An empty body still ends the head.
        let mut wire = Writes(Vec::new());
        write_response(&mut wire, 200, "text/plain", "", &[]).unwrap();
        assert!(wire
            .0
            .concat()
            .ends_with(b"Content-Length: 0\r\nConnection: close\r\n\r\n"));
    }

    #[test]
    fn error_body_is_json() {
        let e = HttpError::new(404, "unknown route \"/nope\"");
        let body = error_body(&e);
        let v = inspire_trace::json::parse(&body).expect("error body parses");
        assert_eq!(v.get("status").and_then(|s| s.as_f64()), Some(404.0));
    }
}
