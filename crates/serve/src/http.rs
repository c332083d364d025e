//! Minimal HTTP/1.1 framing over [`TcpStream`].
//!
//! Just enough of the protocol for a loopback prediction service:
//! request line + headers + `Content-Length` bodies, one request per
//! connection (`Connection: close` on every response). Header and body
//! sizes are bounded so a misbehaving peer cannot balloon memory, and
//! sockets carry read/write timeouts so a stalled peer cannot wedge a
//! worker.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::error::ServeError;

/// Upper bound on request-line + header bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on body bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Socket read/write timeout: a stalled peer times out instead of
/// pinning a worker forever.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Total budget for receiving a *request* head. The per-read
/// [`IO_TIMEOUT`] only bounds a fully stalled peer; a slow writer
/// dripping one byte per ~9 s could otherwise hold a worker for
/// minutes across a 16 KiB head. Responses are exempt: a loaded
/// server may legitimately take long before its first response byte.
pub const HEAD_DEADLINE: Duration = Duration::from_secs(10);

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), upper-cased as received.
    pub method: String,
    /// Request path (query strings are kept verbatim; the server's
    /// routes do not use them).
    pub path: String,
    /// Headers with lower-cased names.
    pub headers: BTreeMap<String, String>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// The body decoded as UTF-8.
    pub fn body_str(&self) -> Result<&str, ServeError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| ServeError::Protocol("request body is not valid utf-8".into()))
    }
}

/// A parsed HTTP response (client side).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: BTreeMap<String, String>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// The body decoded as UTF-8.
    pub fn body_str(&self) -> Result<&str, ServeError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| ServeError::Protocol("response body is not valid utf-8".into()))
    }
}

/// Applies the standard socket timeouts to a stream.
pub fn configure(stream: &TcpStream) -> Result<(), ServeError> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(())
}

/// Reads bytes until the `\r\n\r\n` head terminator, bounded by
/// [`MAX_HEAD_BYTES`] and, when `deadline` is set, by a total wall
/// clock across all reads. Returns `(head, leftover-after-terminator)`.
///
/// The head may arrive across any number of TCP segments — even split
/// mid-terminator — so the loop keeps reading until the delimiter is
/// seen, rescanning only the bytes a new segment could complete (the
/// terminator can start at most 3 bytes before the old buffer end).
/// Under a deadline the socket read timeout is shrunk to the remaining
/// budget each iteration, so a slow writer cannot stretch the wait
/// past `deadline` by trickling bytes; the caller restores the
/// standard timeout afterwards.
fn read_head(
    stream: &mut TcpStream,
    deadline: Option<Duration>,
) -> Result<(Vec<u8>, Vec<u8>), ServeError> {
    // wlc-lint: sanitize(determinism-taint, reason = "deadline arithmetic only; the clock never escapes into the returned bytes")
    let start = std::time::Instant::now();
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    let mut scanned = 0usize;
    loop {
        if let Some(end) = find_terminator(&buf, scanned) {
            let rest = buf.split_off(end + 4);
            buf.truncate(end);
            if deadline.is_some() {
                stream.set_read_timeout(Some(IO_TIMEOUT))?;
            }
            return Ok((buf, rest));
        }
        scanned = buf.len().saturating_sub(3);
        if buf.len() > MAX_HEAD_BYTES {
            return Err(ServeError::Protocol("request head too large".into()));
        }
        if let Some(total) = deadline {
            let timeout_err = || ServeError::HeaderTimeout {
                deadline_ms: total.as_millis() as u64,
            };
            let remaining = total
                .checked_sub(start.elapsed())
                .filter(|r| !r.is_zero())
                .ok_or_else(timeout_err)?;
            stream.set_read_timeout(Some(remaining.min(IO_TIMEOUT)))?;
            match read_some(stream, &mut chunk) {
                Ok(0) => {
                    return Err(ServeError::Protocol(
                        "connection closed before end of headers".into(),
                    ))
                }
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(ServeError::Io(e))
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(timeout_err())
                }
                Err(e) => return Err(e),
            }
        } else {
            let n = read_some(stream, &mut chunk)?;
            if n == 0 {
                return Err(ServeError::Protocol(
                    "connection closed before end of headers".into(),
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// One `read`, retrying [`io::ErrorKind::Interrupted`]: a signal
/// landing mid-read must not tear down the connection as a protocol
/// error.
fn read_some(stream: &mut TcpStream, chunk: &mut [u8]) -> Result<usize, ServeError> {
    loop {
        match stream.read(chunk) {
            Ok(n) => return Ok(n),
            Err(err) if err.kind() == io::ErrorKind::Interrupted => continue,
            Err(err) => return Err(err.into()),
        }
    }
}

/// First `\r\n\r\n` at or after byte `from` (absolute index).
fn find_terminator(buf: &[u8], from: usize) -> Option<usize> {
    buf.get(from..)?
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| from + i)
}

fn parse_headers(lines: std::str::Lines<'_>) -> Result<BTreeMap<String, String>, ServeError> {
    let mut headers = BTreeMap::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ServeError::Protocol(format!("malformed header line `{line}`")))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
    Ok(headers)
}

fn read_body(
    stream: &mut TcpStream,
    headers: &BTreeMap<String, String>,
    mut leftover: Vec<u8>,
) -> Result<Vec<u8>, ServeError> {
    let length = match headers.get("content-length") {
        None => return Ok(Vec::new()),
        Some(raw) => raw
            .parse::<usize>()
            .map_err(|_| ServeError::Protocol(format!("bad content-length `{raw}`")))?,
    };
    if length > MAX_BODY_BYTES {
        return Err(ServeError::BodyTooLarge {
            length,
            limit: MAX_BODY_BYTES,
        });
    }
    if leftover.len() < length {
        let mut rest = vec![0u8; length - leftover.len()];
        stream.read_exact(&mut rest).map_err(|e| match e.kind() {
            // A clean close short of the promised length is a malformed
            // message. A reset or timeout is a connection failure, as it
            // is while reading the head; clients retry those. (A server
            // that sheds without reading the request resets the
            // connection, which can cut its 503 off mid-body.)
            io::ErrorKind::UnexpectedEof => {
                ServeError::Protocol(format!("connection closed mid-body: {e}"))
            }
            _ => ServeError::Io(e),
        })?;
        leftover.extend_from_slice(&rest);
    }
    leftover.truncate(length);
    Ok(leftover)
}

/// Reads and parses one request from a connection. The head must
/// arrive within [`HEAD_DEADLINE`] total (not merely per read); the
/// server answers a breach with 408.
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ServeError> {
    read_request_deadline(stream, HEAD_DEADLINE)
}

/// [`read_request`] with an explicit head deadline (tests shrink it).
pub fn read_request_deadline(
    stream: &mut TcpStream,
    deadline: Duration,
) -> Result<Request, ServeError> {
    let (head, leftover) = read_head(stream, Some(deadline))?;
    let head = std::str::from_utf8(&head)
        .map_err(|_| ServeError::Protocol("request head is not valid utf-8".into()))?;
    let mut lines = head.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| ServeError::Protocol("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m, p, v),
        _ => {
            return Err(ServeError::Protocol(format!(
                "malformed request line `{request_line}`"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ServeError::Protocol(format!(
            "unsupported protocol version `{version}`"
        )));
    }
    let headers = parse_headers(lines)?;
    let body = read_body(stream, &headers, leftover)?;
    Ok(Request {
        method: method.to_ascii_uppercase(),
        path: path.to_string(),
        headers,
        body,
    })
}

/// Reads and parses one response from a connection. No total head
/// deadline: a loaded server may take a while before its first byte;
/// the per-read [`IO_TIMEOUT`] still applies.
pub fn read_response(stream: &mut TcpStream) -> Result<Response, ServeError> {
    let (head, leftover) = read_head(stream, None)?;
    let head = std::str::from_utf8(&head)
        .map_err(|_| ServeError::Protocol("response head is not valid utf-8".into()))?;
    let mut lines = head.lines();
    let status_line = lines
        .next()
        .ok_or_else(|| ServeError::Protocol("empty response".into()))?;
    let mut parts = status_line.split_whitespace();
    let status = match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => code
            .parse::<u16>()
            .map_err(|_| ServeError::Protocol(format!("bad status line `{status_line}`")))?,
        _ => {
            return Err(ServeError::Protocol(format!(
                "bad status line `{status_line}`"
            )))
        }
    };
    let headers = parse_headers(lines)?;
    let body = read_body(stream, &headers, leftover)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one response and flushes. Adds `Connection: close`,
/// `Content-Type: application/json` and a `Retry-After: 1` hint on
/// 503/504 so well-behaved clients back off.
pub fn write_response(stream: &mut TcpStream, status: u16, body: &str) -> Result<(), ServeError> {
    write_response_retry_after(stream, status, body, 1)
}

/// [`write_response`] with an explicit `Retry-After` value (seconds) on
/// 503/504 responses; other statuses carry no hint. The acceptor's shed
/// path passes a seeded-jittered value here so synchronized clients do
/// not retry in lockstep.
pub fn write_response_retry_after(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    retry_after_secs: u64,
) -> Result<(), ServeError> {
    let retry_hint = if status == 503 || status == 504 {
        format!("Retry-After: {retry_after_secs}\r\n")
    } else {
        String::new()
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {len}\r\nConnection: close\r\n{retry_hint}\r\n",
        reason = reason(status),
        len = body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    Ok(())
}

/// Writes one request and flushes (`Connection: close`).
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(), ServeError> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: wlc\r\nContent-Type: application/json\r\nContent-Length: {len}\r\nConnection: close\r\n\r\n",
        len = body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = thread::spawn(move || TcpStream::connect(addr).unwrap());
        let (server, _) = listener.accept().unwrap();
        let client = join.join().unwrap();
        (client, server)
    }

    #[test]
    fn request_round_trip() {
        let (mut client, mut server) = pair();
        write_request(&mut client, "POST", "/predict", "{\"inputs\":[1.0]}").unwrap();
        let req = read_request(&mut server).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.body_str().unwrap(), "{\"inputs\":[1.0]}");
        assert_eq!(
            req.headers.get("connection").map(String::as_str),
            Some("close")
        );

        write_response(&mut server, 200, "{\"ok\":true}").unwrap();
        let resp = read_response(&mut client).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_str().unwrap(), "{\"ok\":true}");
    }

    #[test]
    fn shed_responses_carry_retry_after() {
        let (mut client, mut server) = pair();
        write_response(&mut server, 503, "{}").unwrap();
        let resp = read_response(&mut client).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(
            resp.headers.get("retry-after").map(String::as_str),
            Some("1")
        );

        // Explicit (jittered) values pass through verbatim on 503/504
        // and never appear on other statuses.
        let (mut client, mut server) = pair();
        write_response_retry_after(&mut server, 504, "{}", 3).unwrap();
        let resp = read_response(&mut client).unwrap();
        assert_eq!(
            resp.headers.get("retry-after").map(String::as_str),
            Some("3")
        );
        let (mut client, mut server) = pair();
        write_response_retry_after(&mut server, 200, "{}", 3).unwrap();
        let resp = read_response(&mut client).unwrap();
        assert!(!resp.headers.contains_key("retry-after"));
    }

    #[test]
    fn request_split_across_many_tcp_writes_is_reassembled() {
        // Regression: the reader must tolerate heads and bodies arriving
        // across arbitrarily many TCP segments, including a split in the
        // middle of the `\r\n\r\n` terminator, not assume one read
        // yields the full head.
        let (mut client, mut server) = pair();
        let raw =
            b"POST /predict HTTP/1.1\r\nHost: wlc\r\nContent-Length: 16\r\n\r\n{\"inputs\":[1.0]}";
        let writer = thread::spawn(move || {
            // 3-byte chunks with pauses: every boundary lands somewhere
            // interesting at least once, including inside `\r\n\r\n`.
            for chunk in raw.chunks(3) {
                client.write_all(chunk).unwrap();
                client.flush().unwrap();
                thread::sleep(std::time::Duration::from_millis(1));
            }
            client
        });
        let req = read_request(&mut server).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/predict");
        assert_eq!(req.body_str().unwrap(), "{\"inputs\":[1.0]}");
        writer.join().unwrap();
    }

    #[test]
    fn terminator_split_exactly_at_segment_boundary() {
        // The nastiest split: `\r\n` then, in a later segment, `\r\n`
        // plus the body. The incremental rescan must still find the
        // terminator that straddles the boundary.
        let (mut client, mut server) = pair();
        let writer = thread::spawn(move || {
            client.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
            client.flush().unwrap();
            thread::sleep(std::time::Duration::from_millis(5));
            client.write_all(b"\r\n").unwrap();
            client.flush().unwrap();
            client
        });
        let req = read_request(&mut server).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        writer.join().unwrap();
    }

    #[test]
    fn response_split_across_tcp_writes_is_reassembled() {
        let (mut client, mut server) = pair();
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\n{\"ok\":true}".to_vec();
        let writer = thread::spawn(move || {
            for chunk in raw.chunks(7) {
                server.write_all(chunk).unwrap();
                server.flush().unwrap();
                thread::sleep(std::time::Duration::from_millis(1));
            }
            server
        });
        let resp = read_response(&mut client).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_str().unwrap(), "{\"ok\":true}");
        writer.join().unwrap();
    }

    #[test]
    fn malformed_requests_are_protocol_errors() {
        let (mut client, mut server) = pair();
        client.write_all(b"NONSENSE\r\n\r\n").unwrap();
        client.flush().unwrap();
        assert!(matches!(
            read_request(&mut server),
            Err(ServeError::Protocol(_))
        ));

        let (mut client2, mut server2) = pair();
        client2
            .write_all(b"POST / HTTP/1.1\r\nContent-Length: zzz\r\n\r\n")
            .unwrap();
        assert!(matches!(
            read_request(&mut server2),
            Err(ServeError::Protocol(_))
        ));
    }

    #[test]
    fn oversized_bodies_are_rejected_without_allocation() {
        let (mut client, mut server) = pair();
        let head = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", usize::MAX);
        client.write_all(head.as_bytes()).unwrap();
        assert!(matches!(
            read_request(&mut server),
            Err(ServeError::BodyTooLarge { .. })
        ));
    }

    #[test]
    fn body_at_exactly_the_limit_split_across_writes_is_accepted() {
        // Boundary regression: Content-Length == MAX_BODY_BYTES must
        // pass framing even when the body arrives in many TCP segments.
        let (mut client, mut server) = pair();
        let body = vec![b'x'; MAX_BODY_BYTES];
        let head = format!("POST /predict HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n");
        let writer = thread::spawn(move || {
            client.write_all(head.as_bytes()).unwrap();
            for chunk in body.chunks(64 * 1024) {
                client.write_all(chunk).unwrap();
                client.flush().unwrap();
            }
            client
        });
        let req = read_request(&mut server).unwrap();
        assert_eq!(req.body.len(), MAX_BODY_BYTES);
        assert!(req.body.iter().all(|&b| b == b'x'));
        writer.join().unwrap();
    }

    #[test]
    fn body_one_byte_over_the_limit_is_413_before_any_body_read() {
        let (mut client, mut server) = pair();
        let over = MAX_BODY_BYTES + 1;
        let head = format!("POST /predict HTTP/1.1\r\nContent-Length: {over}\r\n\r\n");
        // Only the head is sent; the reader must reject from the
        // declared length alone instead of waiting for body bytes.
        client.write_all(head.as_bytes()).unwrap();
        client.flush().unwrap();
        match read_request(&mut server) {
            Err(ServeError::BodyTooLarge { length, limit }) => {
                assert_eq!(length, over);
                assert_eq!(limit, MAX_BODY_BYTES);
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn slow_header_writer_hits_the_head_deadline() {
        // A peer trickling header bytes must be cut off by the total
        // head deadline, not granted a fresh IO_TIMEOUT per read.
        let (mut client, mut server) = pair();
        configure(&server).unwrap();
        let writer = thread::spawn(move || {
            // Never send the terminator; drip a byte at a time.
            for _ in 0..50 {
                if client.write_all(b"G").is_err() {
                    break;
                }
                let _ = client.flush();
                thread::sleep(std::time::Duration::from_millis(10));
            }
            drop(client);
        });
        let deadline = Duration::from_millis(120);
        let started = std::time::Instant::now();
        match read_request_deadline(&mut server, deadline) {
            Err(ServeError::HeaderTimeout { deadline_ms }) => {
                assert_eq!(deadline_ms, 120);
            }
            other => panic!("expected HeaderTimeout, got {other:?}"),
        }
        // The wait was bounded by the deadline, not by IO_TIMEOUT.
        assert!(started.elapsed() < Duration::from_secs(5));
        writer.join().unwrap();
    }

    #[test]
    fn fast_header_within_deadline_still_parses() {
        let (mut client, mut server) = pair();
        configure(&server).unwrap();
        let writer = thread::spawn(move || {
            client.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
            client.flush().unwrap();
            client
        });
        let req = read_request_deadline(&mut server, Duration::from_secs(5)).unwrap();
        assert_eq!(req.path, "/healthz");
        writer.join().unwrap();
    }

    /// A peer that resets the connection mid-body has failed at the
    /// connection level, as it would have while sending the head: the
    /// client retries such failures instead of reporting a malformed
    /// message.
    #[test]
    fn reset_mid_body_is_a_connection_failure() {
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
            .unwrap();
        // Bytes the client never reads make its close a reset (RST)
        // rather than a clean end of stream.
        server.write_all(b"unread").unwrap();
        drop(client);
        match read_request(&mut server) {
            Err(ServeError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::ConnectionReset),
            other => panic!("expected a connection reset, got {other:?}"),
        }
    }

    #[test]
    fn truncated_body_reports_protocol_error() {
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
            .unwrap();
        drop(client); // close before the promised 10 bytes arrive
        assert!(matches!(
            read_request(&mut server),
            Err(ServeError::Protocol(_))
        ));
    }
}
