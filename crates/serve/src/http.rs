//! Minimal HTTP/1.1 framing over `std::net` — just enough protocol for
//! the job API, in the spirit of `wmpt_obs::json`: no external crates,
//! no speculative generality.
//!
//! Supported: request line + headers + `Content-Length` bodies,
//! `Connection: close` semantics (one request per connection), and
//! plain-text/JSON responses. Not supported, by design: chunked
//! encoding, keep-alive pipelining, TLS.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on a request body (an embedded trace document can be
/// large, but a gigabyte body is an accident or an attack).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// Upper bound on the request line plus headers.
const MAX_HEAD_BYTES: usize = 64 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Path with the query string split off.
    pub path: String,
    /// Raw query string (no leading `?`), empty when absent.
    pub query: String,
    /// Body bytes (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// True when the query string contains `flag` as a `k` or `k=1`
    /// style member.
    pub fn query_flag(&self, flag: &str) -> bool {
        self.query.split('&').any(|kv| {
            kv == flag || kv.strip_prefix(flag).and_then(|r| r.strip_prefix('=')) == Some("1")
        })
    }

    /// The value of the first `key=value` query member, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .split('&')
            .find_map(|kv| kv.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
    }
}

/// Reads and parses one request from the stream. `Err` is a malformed
/// or oversized request (the connection handler answers 400 and drops).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut head_bytes = 0usize;
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    head_bytes += line.len();
    let line = line.trim_end();
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().ok_or("malformed request line")?.to_string();
    if method.is_empty() || parts.next().map(|v| v.starts_with("HTTP/1.")) != Some(true) {
        return Err(format!("malformed request line: {line:?}"));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target, String::new()),
    };

    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).map_err(|e| e.to_string())?;
        head_bytes += header.len();
        if head_bytes > MAX_HEAD_BYTES {
            return Err("headers too large".to_string());
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(format!("malformed header: {header:?}"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| "bad Content-Length".to_string())?;
            if content_length > MAX_BODY_BYTES {
                return Err("body too large".to_string());
            }
        }
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Human text of the interesting status codes.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        410 => "Gone",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response and flushes. Errors are ignored — the
/// peer hanging up mid-response is its problem, not the server's.
pub fn write_response(stream: &mut TcpStream, status: u16, content_type: &str, body: &[u8]) {
    write_response_with(stream, status, content_type, &[], body);
}

/// [`write_response`] with extra headers (e.g. `X-Request-Id`).
pub fn write_response_with(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let _ = stream.write_all(&message(head, body));
    let _ = stream.flush();
}

/// `head` and `body` as one buffer, so a message leaves in one write: a
/// head written alone on a socket with Nagle's algorithm on can hold the
/// body back until the peer's delayed ACK of the head.
fn message(head: String, body: &[u8]) -> Vec<u8> {
    let mut msg = head.into_bytes();
    msg.extend_from_slice(body);
    msg
}

/// A parsed response from [`http_request`].
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value (empty when absent).
    pub content_type: String,
    /// `X-Request-Id` header value (empty when absent).
    pub request_id: String,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// Body as UTF-8 (lossy — test/bench convenience).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A one-shot blocking HTTP client: connect, send, read to EOF. Serves
/// the load generator and the tests; deliberately as simple as the
/// server it talks to.
pub fn http_request(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len(),
    );
    stream
        .write_all(&message(head, body))
        .map_err(|e| format!("send: {e}"))?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader
        .read_line(&mut status_line)
        .map_err(|e| format!("status: {e}"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line: {status_line:?}"))?;

    let mut content_type = String::new();
    let mut request_id = String::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).map_err(|e| e.to_string())?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-type") {
                content_type = value.trim().to_string();
            } else if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("x-request-id") {
                request_id = value.trim().to_string();
            }
        }
    }
    // Read to EOF even past `Content-Length`: the server closes a
    // `Connection: close` exchange only after its post-response
    // bookkeeping (the lifecycle record), so once this returns that
    // record is visible to the next request.
    let mut body = Vec::new();
    reader.read_to_end(&mut body).map_err(|e| e.to_string())?;
    if let Some(n) = content_length {
        if body.len() < n {
            return Err(format!("body: {} of {n} bytes before EOF", body.len()));
        }
        body.truncate(n);
    }
    Ok(Response {
        status,
        content_type,
        request_id,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    #[test]
    fn request_and_response_round_trip_over_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let req = read_request(&mut stream).expect("parse");
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/api/v1/jobs");
            assert_eq!(req.query, "wait=1&format=prom");
            assert!(req.query_flag("wait"));
            assert!(!req.query_flag("nope"));
            assert_eq!(req.query_param("format"), Some("prom"));
            assert_eq!(req.query_param("nope"), None);
            assert_eq!(req.body, b"{\"kind\":\"noc\"}");
            write_response_with(
                &mut stream,
                200,
                "text/plain",
                &[("X-Request-Id", "r42")],
                b"hello",
            );
        });
        let resp = http_request(
            &addr,
            "POST",
            "/api/v1/jobs?wait=1&format=prom",
            b"{\"kind\":\"noc\"}",
        )
        .expect("request");
        server.join().expect("server thread");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "text/plain");
        assert_eq!(resp.request_id, "r42");
        assert_eq!(resp.body, b"hello");
    }

    #[test]
    fn malformed_request_lines_are_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            assert!(read_request(&mut stream).is_err());
        });
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream.write_all(b"not http at all\r\n\r\n").expect("send");
        drop(stream);
        server.join().expect("server thread");
    }
}
