//! A small, strict HTTP/1.1 implementation over `std::net::TcpStream`.
//!
//! No `hyper`, no `tokio`: the build environment has no registry access, and the front door's
//! needs are modest — parse one request at a time off a blocking socket (with a byte limit and
//! a read timeout enforced by the caller via `set_read_timeout`), and write fixed or
//! **chunked** responses back.  Chunked transfer encoding is what lets `/batch` stream each
//! answer as soon as its batch resolves instead of buffering the whole response.
//!
//! Requests arrive in a per-connection [`Request`]: the head is read into one `String`, the
//! method, path and headers are ranges of it, and the body has its own buffer.  All three keep
//! their capacity from one keep-alive request to the next, so reading a request allocates
//! nothing once the connection has read one as large.
//!
//! Responses leave through a per-connection [`ResponseWriter`]: the head (or head and chunk
//! framing) and the body's own text are built in two buffers reused across keep-alive
//! requests, and go to the socket — with whatever slice the body [lent](Part::lend), from
//! where it lies — in **one** `write_vectored` (continued after a partial write, retried when
//! interrupted).  On a `TCP_NODELAY` socket every write is a segment and a wake-up of the
//! peer; a fresh buffer per response is memory the allocator trims and faults back in; and an
//! answer's memoised rendering is 91 KB that nothing needs to copy before the kernel does.

use std::fmt::{self, Write as _};
use std::io::{BufRead, IoSlice, Read, Write};
use std::ops::Range;

/// Hard cap on the request head (request line + headers) — generous for curl and the bench
/// client, small enough that a slow-loris connection cannot balloon memory either.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// The body capacity a connection keeps between requests: a request body is a few specs, and
/// an idle connection need not hold on to the megabyte an odd request once sent.
const KEPT_BODY_BYTES: usize = 64 * 1024;

/// One request, and the buffers the next request of its connection is read into.
///
/// The head — request line and header lines, line ends dropped — is kept as one `String`, and
/// the method, the path and each header are ranges into it; header names are lowercased in
/// place.  [`read_from`](Request::read_from) clears the head, the ranges and the body and reads
/// the next request into them, so a keep-alive connection allocates for its largest request
/// once and reads every later one into the capacity already there.
#[derive(Debug, Default)]
pub struct Request {
    head: String,
    method: Range<usize>,
    path: Range<usize>,
    http10: bool,
    /// Each header's name and value (trimmed), in arrival order.
    headers: Vec<(Range<usize>, Range<usize>)>,
    body: Vec<u8>,
}

impl Request {
    /// The method, uppercased by the client (`GET`, `POST`, …; passed through verbatim).
    #[must_use]
    pub fn method(&self) -> &str {
        &self.head[self.method.clone()]
    }

    /// The request target (path + optional query string, verbatim).
    #[must_use]
    pub fn path(&self) -> &str {
        &self.head[self.path.clone()]
    }

    /// Whether the request line said `HTTP/1.0`: such a peer cannot frame a chunked body and
    /// expects the connection to close after the response.
    #[must_use]
    pub fn http10(&self) -> bool {
        self.http10
    }

    /// The body (empty when no `Content-Length` was sent).
    #[must_use]
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// The first header with this (lowercase) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| self.head[k.clone()] == *name)
            .map(|(_, v)| &self.head[v.clone()])
    }

    /// Whether the connection must close after this request's response: an HTTP/1.0 peer, or
    /// a `connection: close` header.
    #[must_use]
    pub fn wants_close(&self) -> bool {
        self.http10
            || self.header("connection").is_some_and(|v| {
                v.split(',')
                    .any(|token| token.trim().eq_ignore_ascii_case("close"))
            })
    }

    /// Reads the next request off `reader` into `self`, in place of the last one.
    ///
    /// [`HttpError::Closed`] when the peer hung up between requests; [`HttpError::Io`] when
    /// the socket's read timeout fired mid-request (the slow-loris case — the caller set the
    /// timeout on the underlying `TcpStream`).  Bodies require an explicit `Content-Length`
    /// and are rejected with [`HttpError::BodyTooLarge`] *before* any body byte is read, so an
    /// oversized upload costs the server nothing.  After an error the request is unspecified.
    pub fn read_from(
        &mut self,
        reader: &mut impl BufRead,
        max_body_bytes: usize,
    ) -> Result<(), HttpError> {
        self.head.clear();
        self.headers.clear();
        self.body.clear();
        self.body.shrink_to(KEPT_BODY_BYTES);
        let line = self.read_line(reader, true)?;
        let request_line = &self.head[line.clone()];
        let mut parts = request_line.split(' ');
        let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next())
        {
            (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
            _ => {
                return Err(HttpError::Malformed(format!(
                    "bad request line '{request_line}'"
                )))
            }
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed(format!("bad version '{version}'")));
        }
        self.method = 0..method.len();
        self.path = self.method.end + 1..self.method.end + 1 + path.len();
        self.http10 = version == "HTTP/1.0";

        loop {
            let line = self.read_line(reader, false)?;
            if line.is_empty() {
                break;
            }
            if self.head.len() > MAX_HEAD_BYTES {
                return Err(HttpError::Malformed("request head too large".into()));
            }
            let text = &self.head[line.clone()];
            let Some(colon) = text.find(':') else {
                return Err(HttpError::Malformed(format!("bad header '{text}'")));
            };
            let name = trimmed(text, line.start, 0..colon);
            let value = trimmed(text, line.start, colon + 1..text.len());
            self.head[name.clone()].make_ascii_lowercase();
            self.headers.push((name, value));
        }

        let content_length = match self.header("content-length") {
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad content-length '{v}'")))?,
            None => 0,
        };
        if content_length > max_body_bytes {
            return Err(HttpError::BodyTooLarge {
                declared: content_length,
                limit: max_body_bytes,
            });
        }
        self.body.resize(content_length, 0);
        reader.read_exact(&mut self.body).map_err(HttpError::Io)
    }

    /// Appends one line of the head — terminator dropped, bare LF tolerated — and returns
    /// where in the head it lies.
    fn read_line(
        &mut self,
        reader: &mut impl BufRead,
        first: bool,
    ) -> Result<Range<usize>, HttpError> {
        let start = self.head.len();
        let mut limited = reader.by_ref().take(MAX_HEAD_BYTES as u64 + 1);
        match limited.read_line(&mut self.head) {
            Ok(0) if first => return Err(HttpError::Closed),
            Ok(0) => return Err(HttpError::Malformed("unexpected end of head".into())),
            Ok(_) if !self.head.ends_with('\n') => {
                return Err(HttpError::Malformed("request head too large".into()))
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                return Err(HttpError::Malformed("non-UTF-8 request head".into()))
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
        let end = self.head.trim_end_matches(['\n', '\r']).len().max(start);
        self.head.truncate(end);
        Ok(start..end)
    }
}

/// `range` of `text` with surrounding whitespace dropped, as a range of the head `text`
/// starts at `offset` of.
fn trimmed(text: &str, offset: usize, range: Range<usize>) -> Range<usize> {
    let part = &text[range.clone()];
    let start = range.start + (part.len() - part.trim_start().len());
    let end = range.end - (part.len() - part.trim_end().len());
    offset + start..offset + end.max(start)
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before a request line arrived (normal keep-alive end).
    Closed,
    /// The socket timed out mid-request (slow-loris) or failed.
    Io(std::io::Error),
    /// The request was syntactically invalid; respond 400.
    Malformed(String),
    /// The declared body exceeds the configured limit; respond 413.
    BodyTooLarge {
        /// The offending `Content-Length`.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
}

impl HttpError {
    /// Whether this error is a mid-request socket timeout.
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            HttpError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

/// The reason phrase for the status codes this server emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// What a response says before its body; the framing headers are the writer's business.
#[derive(Debug, Clone, Copy)]
pub struct Head<'a> {
    /// The status code.
    pub status: u16,
    /// The `content-type`.
    pub content_type: &'a str,
    /// Extra response headers (e.g. `retry-after`, the `x-trace-id` echo).
    pub extra: &'a [(&'a str, String)],
}

impl<'a> Head<'a> {
    /// A JSON response head — everything this server emits but the Prometheus exposition.
    #[must_use]
    pub fn json(status: u16, extra: &'a [(&'a str, String)]) -> Self {
        Head {
            status,
            content_type: "application/json",
            extra,
        }
    }

    /// Appends the head, framed by `content-length` (`Some`) or as chunked (`None`).
    fn write(&self, out: &mut String, content_length: Option<usize>, close: bool) {
        let infallible = "writing to a String cannot fail";
        let (status, content_type) = (self.status, self.content_type);
        write!(
            out,
            "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\n",
            reason(status)
        )
        .expect(infallible);
        match content_length {
            Some(length) => write!(out, "content-length: {length}\r\n").expect(infallible),
            None => out.push_str("transfer-encoding: chunked\r\n"),
        }
        for (name, value) in self.extra {
            write!(out, "{name}: {value}\r\n").expect(infallible);
        }
        if close {
            out.push_str("connection: close\r\n");
        }
        out.push_str("\r\n");
    }
}

/// The response half of one connection.
///
/// Owns the two buffers every response of the connection is assembled in — what goes in front
/// (the head, a chunk's size line) and the body's own text — so a keep-alive connection
/// allocates for its largest response once.  Each response (or each chunk of a streamed one)
/// reaches the socket as a single vectored write of those and, between them, whatever slice
/// the body [lent](Part::lend).  Generic over the sink so tests can count the writes.
pub struct ResponseWriter<W: Write> {
    stream: W,
    /// What precedes the body in the next write: the response head and/or a chunk's size line,
    /// both of which state a length only known once the body is built.
    front: String,
    /// The owned text of the next write's body.
    buf: String,
    close: bool,
}

/// A slice a body part lent, and where in the part's own text it belongs.
type Lent<'a> = Option<(usize, &'a str)>;

/// One part of a body under construction: text appended to the connection's buffer and, at
/// most once, a slice that is *lent* — sent from where it lies, never copied in user space.
pub struct Part<'w, 'a> {
    text: &'w mut String,
    lent: Lent<'a>,
}

impl<'w, 'a> Part<'w, 'a> {
    /// A part that copies everything into `text` — its one loan is spent, on nothing: the
    /// one-`String` rendering of whatever writes itself through a `Part`.
    pub fn copying(text: &'w mut String) -> Self {
        Part {
            text,
            lent: Some((0, "")),
        }
    }

    /// Appends `text`.
    pub fn push_str(&mut self, text: &str) {
        self.text.push_str(text);
    }

    /// Appends `c`.
    pub fn push(&mut self, c: char) {
        self.text.push(c);
    }

    /// Appends `slice`, which outlives the write, without copying it — once per part; a
    /// second slice, or one into a part gathered for a later write, is copied.
    pub fn lend(&mut self, slice: &'a str) {
        match self.lent {
            Some(_) => self.text.push_str(slice),
            None => self.lent = Some((self.text.len(), slice)),
        }
    }
}

impl fmt::Write for Part<'_, '_> {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        self.text.push_str(text);
        Ok(())
    }
}

impl<W: Write> ResponseWriter<W> {
    /// A writer over `stream` (the write half of the connection).
    pub fn new(stream: W) -> Self {
        ResponseWriter {
            stream,
            front: String::new(),
            buf: String::new(),
            close: false,
        }
    }

    /// Whether responses announce `connection: close` (the caller then closes after one).
    pub fn set_close(&mut self, close: bool) {
        self.close = close;
    }

    /// Whether the connection is to close after the current response.
    #[must_use]
    pub fn closing(&self) -> bool {
        self.close
    }

    /// Sends a fixed-length JSON response (errors and small documents).
    pub fn json(
        &mut self,
        status: u16,
        extra: &[(&str, String)],
        body: &str,
    ) -> std::io::Result<()> {
        self.send(Head::json(status, extra), |out| out.push_str(body))
    }

    /// Sends a fixed-length response whose body `fill` builds: one write.
    pub fn send<'a>(
        &mut self,
        head: Head<'_>,
        fill: impl FnOnce(&mut Part<'_, 'a>),
    ) -> std::io::Result<()> {
        self.begin(head, false).end(fill)
    }

    /// Starts a response whose body arrives in parts.  `chunked`: each part is sent as one
    /// chunk the moment it is built (the head rides with the first, the terminator with the
    /// last).  Otherwise the parts are gathered and sent fixed-length at
    /// [`end`](Body::end) — the framing an HTTP/1.0 peer needs.
    pub fn begin<'h>(&'h mut self, head: Head<'h>, chunked: bool) -> Body<'h, W> {
        self.front.clear();
        self.buf.clear();
        if chunked {
            head.write(&mut self.front, None, self.close);
        }
        Body {
            writer: self,
            head,
            chunked,
        }
    }

    /// Runs `fill` over the body buffer: the slice it lent, and the body's length with it.
    fn fill<'a>(&mut self, fill: impl FnOnce(&mut Part<'_, 'a>)) -> (Lent<'a>, usize) {
        let mut part = Part {
            text: &mut self.buf,
            lent: None,
        };
        fill(&mut part);
        let lent = part.lent;
        (
            lent,
            self.buf.len() + lent.map_or(0, |(_, slice)| slice.len()),
        )
    }

    /// Hands `front`, then `buf` with `lent` spliced in, to the socket as one vectored write
    /// (carrying on after a partial one), and empties both buffers.
    fn flush(&mut self, lent: Lent<'_>) -> std::io::Result<()> {
        let (at, lent) = lent.unwrap_or((self.buf.len(), ""));
        let (before, after) = self.buf.as_bytes().split_at(at);
        let mut slices = [self.front.as_bytes(), before, lent.as_bytes(), after].map(IoSlice::new);
        let mut left = &mut slices[..];
        IoSlice::advance_slices(&mut left, 0); // drops leading empty slices: nothing to send
        while !left.is_empty() {
            match self.stream.write_vectored(left) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(written) => IoSlice::advance_slices(&mut left, written),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.front.clear();
        self.buf.clear();
        self.stream.flush()
    }
}

/// A response body under construction (see [`ResponseWriter::begin`]).  Dropping a chunked
/// body without [`end`](Body::end) leaves the chunk stream unterminated, which clients
/// correctly treat as a truncated response.
pub struct Body<'h, W: Write> {
    writer: &'h mut ResponseWriter<W>,
    head: Head<'h>,
    chunked: bool,
}

impl<W: Write> Body<'_, W> {
    /// Adds one part of the body; on a chunked response it is on the wire when this returns.
    pub fn part<'a>(&mut self, fill: impl FnOnce(&mut Part<'_, 'a>)) -> std::io::Result<()> {
        if !self.chunked {
            // Gathered for the write `end` makes, by when a lent slice may be gone: copied.
            fill(&mut Part::copying(&mut self.writer.buf));
            return Ok(());
        }
        match self.frame_chunk(fill) {
            (lent, true) => self.writer.flush(lent),
            (_, false) => Ok(()),
        }
    }

    /// Adds the last part and completes the response.
    pub fn end<'a>(mut self, fill: impl FnOnce(&mut Part<'_, 'a>)) -> std::io::Result<()> {
        let lent = if self.chunked {
            let (lent, _) = self.frame_chunk(fill);
            self.writer.buf.push_str("0\r\n\r\n");
            lent
        } else {
            let (lent, length) = self.writer.fill(fill);
            let writer = &mut *self.writer;
            self.head
                .write(&mut writer.front, Some(length), writer.close);
            lent
        };
        self.writer.flush(lent)
    }

    /// Builds `fill`'s output as one chunk — size line in front, CRLF behind — and says
    /// whether there is one: an empty chunk would terminate the stream, so none is framed.
    fn frame_chunk<'a>(&mut self, fill: impl FnOnce(&mut Part<'_, 'a>)) -> (Lent<'a>, bool) {
        let (lent, size) = self.writer.fill(fill);
        if size > 0 {
            write!(self.writer.front, "{size:x}\r\n").expect("writing to a String cannot fail");
            self.writer.buf.push_str("\r\n");
        }
        (lent, size > 0)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A sink that counts the write calls it receives — a vectored one is one call, as it is
    /// one `writev` — and keeps their bytes.  With a `limit`, it accepts at most that many
    /// bytes per call and is interrupted before every other one.
    #[derive(Default)]
    pub(crate) struct CountingWrite {
        pub(crate) writes: usize,
        pub(crate) bytes: Vec<u8>,
        limit: Option<usize>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.writes += 1;
            if self.limit.is_some() && self.writes % 2 == 1 {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            let mut room = self.limit.unwrap_or(usize::MAX);
            for buf in bufs {
                let taken = &buf[..buf.len().min(room)];
                self.bytes.extend_from_slice(taken);
                room -= taken.len();
            }
            Ok(self.limit.unwrap_or(usize::MAX) - room)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl CountingWrite {
        /// Everything written since the last call, as text; resets the counters.
        pub(crate) fn take(out: &mut ResponseWriter<CountingWrite>) -> (usize, String) {
            let sink = std::mem::take(&mut out.stream);
            (sink.writes, String::from_utf8(sink.bytes).unwrap())
        }
    }

    #[test]
    fn keep_alive_requests_are_read_into_the_buffers_of_the_last() {
        let raw = "POST /query HTTP/1.1\r\nHost: urm\r\nContent-Length: 13\r\n\
                   X-Trace-Id:  t1 \r\n\r\n{\"spec\":\"Q1\"}\
                   GET /healthz HTTP/1.0\nconnection: keep-alive, Close\n\n";
        let mut reader = raw.as_bytes();
        let mut request = Request::default();
        request.read_from(&mut reader, 1024).unwrap();
        assert_eq!((request.method(), request.path()), ("POST", "/query"));
        assert!(!request.http10() && !request.wants_close());
        assert_eq!(request.header("host"), Some("urm"));
        assert_eq!(request.header("x-trace-id"), Some("t1"));
        assert_eq!(request.body(), b"{\"spec\":\"Q1\"}");
        let capacities = |r: &Request| (r.head.capacity(), r.headers.capacity(), r.body.capacity());
        let before = capacities(&request);

        request.read_from(&mut reader, 1024).unwrap();
        assert_eq!((request.method(), request.path()), ("GET", "/healthz"));
        assert!(request.http10() && request.wants_close());
        assert_eq!((request.header("host"), request.body()), (None, &b""[..]));
        assert_eq!(capacities(&request), before, "nothing reallocated");
        assert!(matches!(
            request.read_from(&mut reader, 1024),
            Err(HttpError::Closed)
        ));

        // A body past what a connection keeps is let go at the next request.
        let big = format!(
            "POST / HTTP/1.1\r\ncontent-length: 100000\r\n\r\n{}",
            "x".repeat(100_000)
        );
        request.read_from(&mut big.as_bytes(), 1 << 20).unwrap();
        assert_eq!(request.body().len(), 100_000);
        request.read_from(&mut raw.as_bytes(), 1024).unwrap();
        assert!(request.body.capacity() <= KEPT_BODY_BYTES);
    }

    #[test]
    fn a_malformed_head_is_refused_with_its_reason() {
        let many_headers = format!("GET / HTTP/1.1\r\n{}\r\n", "x: y\r\n".repeat(5_000));
        let cases: [(&[u8], &str); 8] = [
            (b"GET /x HTTP/2.0\r\n\r\n", "bad version 'HTTP/2.0'"),
            (
                b"GET x HTTP/1.1\r\n\r\n",
                "bad request line 'GET x HTTP/1.1'",
            ),
            (
                b"GET /x HTTP/1.1\r\nno colon\r\n\r\n",
                "bad header 'no colon'",
            ),
            (
                b"POST /x HTTP/1.1\r\ncontent-length: z\r\n\r\n",
                "bad content-length 'z'",
            ),
            (b"GET /x HTTP/1.1\r\nhost: a", "request head too large"),
            (b"GET /x HTTP/1.1\r\n", "unexpected end of head"),
            (b"GET /\xff HTTP/1.1\r\n\r\n", "non-UTF-8 request head"),
            (many_headers.as_bytes(), "request head too large"),
        ];
        for (raw, reason) in cases {
            let mut reader = raw;
            match Request::default().read_from(&mut reader, 1024) {
                Err(HttpError::Malformed(message)) => assert_eq!(message, reason),
                other => panic!("{reason}: {other:?}"),
            }
        }
        let mut reader = &b"POST /x HTTP/1.1\r\ncontent-length: 2000\r\n\r\n"[..];
        assert!(matches!(
            Request::default().read_from(&mut reader, 1024),
            Err(HttpError::BodyTooLarge {
                declared: 2000,
                limit: 1024
            })
        ));
    }

    #[test]
    fn a_fixed_length_response_is_one_write_from_a_reused_buffer() {
        let mut out = ResponseWriter::new(CountingWrite::default());
        let big = "x".repeat(40_000);
        out.json(200, &[], &big).unwrap();
        let (writes, sent) = CountingWrite::take(&mut out);
        assert_eq!(writes, 1);
        assert!(sent.ends_with(&big) && sent.contains("content-length: 40000\r\n"));
        let retained = out.buf.capacity();
        assert!(retained >= 40_000);

        // The next, smaller response starts from a clean buffer and does not reallocate it.
        out.json(429, &[("retry-after", "3".to_string())], "{}")
            .unwrap();
        let (writes, sent) = CountingWrite::take(&mut out);
        assert_eq!(writes, 1);
        assert_eq!(
            sent,
            "HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\n\
             content-length: 2\r\nretry-after: 3\r\n\r\n{}"
        );
        assert_eq!(out.buf.capacity(), retained);
    }

    #[test]
    fn a_chunked_response_is_one_write_per_chunk() {
        let mut out = ResponseWriter::new(CountingWrite::default());
        let extra = [("x-trace-id", "t1".to_string())];
        let mut body = out.begin(Head::json(200, &extra), true);
        body.part(|b| b.push_str("{\"answers\":[1")).unwrap();
        body.part(|_| ()).unwrap(); // nothing to say: no write, and no stream-ending empty chunk
        body.part(|b| b.push_str(",2222222222222222")).unwrap();
        body.end(|b| b.push_str(",3]}")).unwrap();
        let (writes, sent) = CountingWrite::take(&mut out);
        assert_eq!(writes, 3);
        assert_eq!(
            sent,
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\
             transfer-encoding: chunked\r\nx-trace-id: t1\r\n\r\n\
             d\r\n{\"answers\":[1\r\n\
             11\r\n,2222222222222222\r\n\
             4\r\n,3]}\r\n0\r\n\r\n"
        );
    }

    /// A fixed-length response, a chunked one and one that lends a 100 000-byte slice, as
    /// the sink receives them.
    fn three_responses(sink: CountingWrite) -> Vec<u8> {
        let lent = "0123456789".repeat(10_000);
        let mut out = ResponseWriter::new(sink);
        out.json(
            429,
            &[("retry-after", "3".to_string())],
            "{\"error\":\"slow down\"}",
        )
        .unwrap();
        let mut body = out.begin(Head::json(200, &[]), true);
        body.part(|b| b.push_str("{\"answers\":[1")).unwrap();
        body.part(|b| {
            b.push(',');
            b.lend(&lent[..70_000]);
            b.lend("(a second slice is copied)");
        })
        .unwrap();
        body.end(|b| b.push_str("]}")).unwrap();
        out.send(Head::json(200, &[]), |b| {
            b.push_str("{\"answer\":\"");
            b.lend(&lent);
            b.push_str("\"}");
        })
        .unwrap();
        assert!(out.front.is_empty() && out.buf.is_empty());
        out.stream.bytes
    }

    #[test]
    fn a_sink_that_takes_a_few_bytes_at_a_time_receives_the_same_bytes() {
        let whole = three_responses(CountingWrite::default());
        let text = std::str::from_utf8(&whole).unwrap();
        assert!(text.contains("content-length: 100013\r\n\r\n{\"answer\":\"0123456789"));
        assert!(text.contains("\r\n1118b\r\n,0123456789")); // 1 + 70 000 + 26 bytes
        assert!(text.ends_with("0123456789\"}"));
        for limit in [1, 7, 4096] {
            let limit = Some(limit);
            let sink = CountingWrite {
                limit,
                ..CountingWrite::default()
            };
            assert!(three_responses(sink) == whole, "{limit:?} bytes per write");
        }
    }

    #[test]
    fn a_sink_that_takes_nothing_is_an_error_not_a_spin() {
        let limit = Some(0);
        let mut out = ResponseWriter::new(CountingWrite {
            limit,
            ..CountingWrite::default()
        });
        let err = out.json(200, &[], "{}").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }

    #[test]
    fn gathered_parts_and_the_close_header_share_the_single_write() {
        let mut out = ResponseWriter::new(CountingWrite::default());
        out.set_close(true);
        let mut body = out.begin(Head::json(200, &[]), false);
        body.part(|b| b.push_str("[1")).unwrap();
        body.part(|b| b.push_str(",2")).unwrap();
        body.end(|b| b.push(']')).unwrap();
        let (writes, sent) = CountingWrite::take(&mut out);
        assert_eq!(writes, 1);
        assert_eq!(
            sent,
            "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 5\r\n\
             connection: close\r\n\r\n[1,2]"
        );
    }
}
