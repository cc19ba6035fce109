//! Minimal HTTP/1.1 request reading and response writing over
//! `std::net::TcpStream`, built for hostile clients.
//!
//! Every read races a per-request deadline: the socket read timeout is
//! re-armed with the *remaining* time before each `read`, so a
//! slowloris client dripping one byte per pause cannot hold a worker
//! past the deadline — the loop returns [`RecvError::Deadline`] and the
//! worker answers 408. Head bytes (request line + headers) and body
//! bytes are capped independently ([`HttpCaps`]), a lying
//! `Content-Length` is a typed 400/413, and a peer that hangs up
//! mid-request is a clean [`RecvError::Closed`] — in every case the
//! worker survives and the failure is counted, which is the robustness
//! envelope the soak harness pins.
//!
//! The same deadline then covers the request's compute: `/check` stops
//! before its next file once the deadline has passed and answers the
//! same 408 a read overrun gets (see `crate::handlers`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Size caps for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpCaps {
    /// Request line + headers, bytes.
    pub max_head_bytes: usize,
    /// Body bytes (also the cap on `Content-Length`).
    pub max_body_bytes: usize,
    /// Header count.
    pub max_headers: usize,
}

impl HttpCaps {
    /// Production defaults: 64 KiB of head, 32 MiB of body — a 10 MB
    /// "Java file" fits (and then quarantines in the pipeline on its
    /// own source budget); a 64 MiB bomb is shed at the HTTP layer.
    pub(crate) const DEFAULT: HttpCaps = HttpCaps {
        max_head_bytes: 64 * 1024,
        max_body_bytes: 32 * 1024 * 1024,
        max_headers: 128,
    };
}

impl Default for HttpCaps {
    fn default() -> Self {
        HttpCaps::DEFAULT
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    /// Uppercase method token as sent (`GET`, `POST`).
    pub method: String,
    /// The request target (path, no normalization).
    pub path: String,
    /// Headers with lowercased names, in wire order.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// First header value for `name` (lowercase).
    pub(crate) fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecvError {
    /// The per-request deadline elapsed mid-read (slowloris, stalls).
    Deadline,
    /// Head bytes or header count exceeded [`HttpCaps`].
    HeadTooLarge,
    /// Declared body length exceeded [`HttpCaps`].
    BodyTooLarge,
    /// Syntactically broken request (bad request line, bogus
    /// `Content-Length`, truncated head or body).
    Malformed(&'static str),
    /// The peer closed before sending anything; nothing to answer.
    Closed,
    /// A transport error other than timeout; the socket is unusable.
    Io,
}

impl RecvError {
    /// The HTTP status this error maps to, or `None` when the peer is
    /// gone and no response can be delivered.
    pub(crate) fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            RecvError::Deadline => Some((408, "request deadline exceeded")),
            RecvError::HeadTooLarge => Some((431, "request head exceeds the configured cap")),
            RecvError::BodyTooLarge => Some((413, "request body exceeds the configured cap")),
            RecvError::Malformed(what) => Some((400, what)),
            RecvError::Closed | RecvError::Io => None,
        }
    }

    /// The stable `serve.recv_<kind>` counter this error counts in.
    pub(crate) fn counter(&self) -> &'static str {
        match self {
            RecvError::Deadline => "serve.recv_deadline",
            RecvError::HeadTooLarge => "serve.recv_head_too_large",
            RecvError::BodyTooLarge => "serve.recv_body_too_large",
            RecvError::Malformed(_) => "serve.recv_malformed",
            RecvError::Closed => "serve.recv_closed",
            RecvError::Io => "serve.recv_io",
        }
    }
}

/// One deadline-aware read: re-arms the socket timeout with the time
/// remaining, then reads. `Ok(0)` is EOF.
fn read_some(
    stream: &mut TcpStream,
    deadline: Instant,
    buf: &mut [u8],
) -> Result<usize, RecvError> {
    loop {
        let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
            return Err(RecvError::Deadline);
        };
        if stream
            .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
            .is_err()
        {
            return Err(RecvError::Io);
        }
        match stream.read(buf) {
            Ok(n) => return Ok(n),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Err(RecvError::Deadline)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Err(RecvError::Io),
        }
    }
}

/// Reads one full request under `deadline` and `caps`.
///
/// # Errors
///
/// See [`RecvError`]; every failure mode of a hostile or broken client
/// maps to exactly one variant.
pub(crate) fn read_request(
    stream: &mut TcpStream,
    deadline: Instant,
    caps: &HttpCaps,
) -> Result<Request, RecvError> {
    // Phase 1: accumulate until the blank line ends the head.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(end) = find_head_end(&buf) {
            break end;
        }
        if buf.len() > caps.max_head_bytes {
            return Err(RecvError::HeadTooLarge);
        }
        let mut chunk = [0u8; 4096];
        let n = read_some(stream, deadline, &mut chunk)?;
        if n == 0 {
            return if buf.is_empty() {
                Err(RecvError::Closed)
            } else {
                Err(RecvError::Malformed("truncated request head"))
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    if head_end > caps.max_head_bytes {
        return Err(RecvError::HeadTooLarge);
    }

    let head_bytes = buf[..head_end].to_vec();
    let head =
        std::str::from_utf8(&head_bytes).map_err(|_| RecvError::Malformed("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default();
    let path = parts.next().unwrap_or_default();
    let version = parts.next().unwrap_or_default();
    if method.is_empty()
        || path.is_empty()
        || !version.starts_with("HTTP/1.")
        || parts.next().is_some()
    {
        return Err(RecvError::Malformed("bad request line"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= caps.max_headers {
            return Err(RecvError::HeadTooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RecvError::Malformed("bad header line"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
    }

    // Phase 2: the body, exactly Content-Length bytes.
    let body_len = match headers.iter().find(|(k, _)| k == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| RecvError::Malformed("invalid content-length"))?,
        None => 0,
    };
    if body_len > caps.max_body_bytes {
        return Err(RecvError::BodyTooLarge);
    }
    let mut body = buf.split_off(head_end + 4);
    body.reserve(body_len.saturating_sub(body.len()));
    while body.len() < body_len {
        let mut chunk = [0u8; 16 * 1024];
        let want = (body_len - body.len()).min(chunk.len());
        let n = read_some(stream, deadline, &mut chunk[..want])?;
        if n == 0 {
            return Err(RecvError::Malformed("truncated request body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(body_len);

    Ok(Request {
        method: method.to_owned(),
        path: path.to_owned(),
        headers,
        body,
    })
}

/// Byte offset of the `\r\n\r\n` head terminator, if present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// One response to deliver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
    /// Adds a `Retry-After: <seconds>` header (load shedding).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response.
    pub(crate) fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// A plain-text response (a newline is appended).
    pub(crate) fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: format!("{body}\n").into_bytes(),
            retry_after: None,
        }
    }

    /// The standard reason phrase for the statuses this server emits.
    pub(crate) fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// Serializes and writes `resp`. Write failures are returned for
/// accounting but the connection is torn down either way — every
/// response carries `Connection: close`.
///
/// # Errors
///
/// Transport errors (including the socket write timeout).
pub(crate) fn write_response(stream: &mut TcpStream, resp: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
        resp.status,
        Response::reason(resp.status),
        resp.content_type,
        resp.body.len(),
    );
    if let Some(secs) = resp.retry_after {
        head.push_str(&format!("retry-after: {secs}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(&resp.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn deadline_ms(ms: u64) -> Instant {
        Instant::now() + Duration::from_millis(ms)
    }

    #[test]
    fn reads_a_post_with_body() {
        let (mut client, mut server) = pair();
        client
            .write_all(b"POST /mine HTTP/1.1\r\nContent-Length: 4\r\nX-Tag: a\r\n\r\nbody")
            .unwrap();
        let req = read_request(&mut server, deadline_ms(500), &HttpCaps::DEFAULT).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/mine");
        assert_eq!(req.header("x-tag"), Some("a"));
        assert_eq!(req.body, b"body");
    }

    #[test]
    fn slowloris_hits_the_deadline_not_the_worker() {
        let (client, mut server) = pair();
        // Client sends nothing at all; the read loop must give up.
        let start = Instant::now();
        let err = read_request(&mut server, deadline_ms(80), &HttpCaps::DEFAULT).unwrap_err();
        assert_eq!(err, RecvError::Deadline);
        assert!(start.elapsed() < Duration::from_secs(2));
        drop(client);
    }

    #[test]
    fn truncated_and_bogus_requests_are_typed() {
        let (mut client, mut server) = pair();
        client.write_all(b"POST /mi").unwrap();
        drop(client);
        assert_eq!(
            read_request(&mut server, deadline_ms(500), &HttpCaps::DEFAULT),
            Err(RecvError::Malformed("truncated request head"))
        );

        let (mut client, mut server) = pair();
        client
            .write_all(b"POST / HTTP/1.1\r\ncontent-length: banana\r\n\r\n")
            .unwrap();
        assert_eq!(
            read_request(&mut server, deadline_ms(500), &HttpCaps::DEFAULT),
            Err(RecvError::Malformed("invalid content-length"))
        );

        let (client, mut server) = pair();
        drop(client);
        assert_eq!(
            read_request(&mut server, deadline_ms(500), &HttpCaps::DEFAULT),
            Err(RecvError::Closed)
        );
    }

    #[test]
    fn caps_reject_oversized_head_and_body() {
        let caps = HttpCaps {
            max_head_bytes: 256,
            max_body_bytes: 128,
            max_headers: 4,
        };
        let (mut client, mut server) = pair();
        let mut big = b"GET / HTTP/1.1\r\n".to_vec();
        big.extend(std::iter::repeat_n(b'a', 4096));
        client.write_all(&big).unwrap();
        assert_eq!(
            read_request(&mut server, deadline_ms(500), &caps),
            Err(RecvError::HeadTooLarge)
        );

        let (mut client, mut server) = pair();
        client
            .write_all(b"POST / HTTP/1.1\r\ncontent-length: 4096\r\n\r\n")
            .unwrap();
        assert_eq!(
            read_request(&mut server, deadline_ms(500), &caps),
            Err(RecvError::BodyTooLarge)
        );

        let (mut client, mut server) = pair();
        client
            .write_all(b"GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\nd: 4\r\ne: 5\r\n\r\n")
            .unwrap();
        assert_eq!(
            read_request(&mut server, deadline_ms(500), &caps),
            Err(RecvError::HeadTooLarge)
        );
    }

    #[test]
    fn responses_round_trip_with_retry_after() {
        let (mut client, mut server) = pair();
        let mut resp = Response::json(429, "{}".to_owned());
        resp.retry_after = Some(1);
        write_response(&mut server, &resp).unwrap();
        drop(server);
        let mut text = String::new();
        client.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
