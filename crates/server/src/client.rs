//! A minimal blocking HTTP/1.1 client for the server's own tests, the open-loop benchmark and
//! the CI smoke script.  Speaks exactly the dialect the server emits: fixed-length *and*
//! chunked response bodies, keep-alive connections.
//!
//! A request leaves the way a response does (see [`crate::http`]): head and body are
//! assembled in one buffer the connection keeps, and reach the `TCP_NODELAY` socket in **one**
//! write — one segment, one wake-up of the server.  A response body is read straight into the
//! buffer that is returned, chunk by chunk.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response.
#[derive(Debug)]
pub struct HttpResponse {
    /// The status code.
    pub status: u16,
    /// Headers, lowercased names.
    pub headers: Vec<(String, String)>,
    /// The decoded body (chunked bodies are reassembled).
    pub body: String,
}

impl HttpResponse {
    /// The first header with this (lowercase) name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// The request half of one connection: owns the buffer every request is assembled in, and
/// hands each to the sink as a single `write_all`.  Generic over the sink so tests can count
/// the writes.
struct RequestWriter<W: Write> {
    stream: W,
    buf: Vec<u8>,
}

impl<W: Write> RequestWriter<W> {
    fn send(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: &str,
    ) -> std::io::Result<()> {
        self.buf.clear();
        write!(
            self.buf,
            "{method} {path} HTTP/1.1\r\nhost: urm\r\ncontent-length: {}\r\n",
            body.len()
        )?;
        for (name, value) in extra_headers {
            write!(self.buf, "{name}: {value}\r\n")?;
        }
        self.buf.extend_from_slice(b"\r\n");
        self.buf.extend_from_slice(body.as_bytes());
        self.stream.write_all(&self.buf)?;
        self.stream.flush()
    }
}

/// A keep-alive connection to the server.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: RequestWriter<TcpStream>,
}

impl HttpClient {
    /// Connects, applying `timeout` to connect, reads and writes.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<HttpClient> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let writer = RequestWriter {
            stream: stream.try_clone()?,
            buf: Vec::new(),
        };
        Ok(HttpClient {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one request and reads the response (the connection stays usable afterwards).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        self.request_with_headers(method, path, &[], body)
    }

    /// [`request`](HttpClient::request) with extra request headers (e.g. `x-trace-id`).
    pub fn request_with_headers(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: Option<&str>,
    ) -> std::io::Result<HttpResponse> {
        self.writer
            .send(method, path, extra_headers, body.unwrap_or(""))?;
        self.read_response()
    }

    /// Sends raw bytes verbatim (malformed-request tests) and reads whatever comes back.
    pub fn send_raw(&mut self, raw: &[u8]) -> std::io::Result<HttpResponse> {
        self.writer.stream.write_all(raw)?;
        self.writer.stream.flush()?;
        self.read_response()
    }

    /// Reads one line, without its terminator.
    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        line.truncate(line.trim_end_matches(['\r', '\n']).len());
        Ok(line)
    }

    /// Appends the next `len` bytes off the socket to `body`, reading them into its tail.
    fn read_into(&mut self, body: &mut Vec<u8>, len: usize) -> std::io::Result<()> {
        body.try_reserve(len)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let got = self.reader.by_ref().take(len as u64).read_to_end(body)?;
        if got < len {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        Ok(())
    }

    fn read_response(&mut self) -> std::io::Result<HttpResponse> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let status_line = self.read_line()?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(&format!("bad status line '{status_line}'")))?;
        let mut response = HttpResponse {
            status,
            headers: Vec::new(),
            body: String::new(),
        };
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
            response
                .headers
                .push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }

        let mut body = Vec::new();
        if response.header("transfer-encoding") == Some("chunked") {
            loop {
                let size_line = self.read_line()?;
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .map_err(|_| bad(&format!("bad chunk size '{size_line}'")))?;
                self.read_into(&mut body, size)?;
                self.reader.read_exact(&mut [0u8; 2])?; // the chunk's trailing CRLF
                if size == 0 {
                    break;
                }
            }
        } else {
            let length = response
                .header("content-length")
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
            self.read_into(&mut body, length)?;
        }
        response.body = String::from_utf8(body).map_err(|_| bad("non-UTF-8 body"))?;
        Ok(response)
    }
}

/// One-shot convenience: connect, request, disconnect.
pub fn request_once(
    addr: SocketAddr,
    timeout: Duration,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<HttpResponse> {
    HttpClient::connect(addr, timeout)?.request(method, path, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::tests::CountingWrite;

    #[test]
    fn a_request_is_one_write_from_a_reused_buffer() {
        let mut writer = RequestWriter {
            stream: CountingWrite::default(),
            buf: Vec::new(),
        };
        let headers = [("x-trace-id", "t1"), ("connection", "close")];
        let body = "{\"spec\": \"Q1\"}";
        writer.send("POST", "/query", &headers, body).unwrap();
        let sent = std::mem::take(&mut writer.stream);
        assert_eq!(sent.writes, 1);
        assert_eq!(
            String::from_utf8(sent.bytes).unwrap(),
            "POST /query HTTP/1.1\r\nhost: urm\r\ncontent-length: 14\r\n\
             x-trace-id: t1\r\nconnection: close\r\n\r\n{\"spec\": \"Q1\"}"
        );

        // The next request starts from a clean buffer; one without a body is one write too.
        writer.send("GET", "/healthz", &[], "").unwrap();
        assert_eq!(writer.stream.writes, 1);
        assert_eq!(
            writer.stream.bytes,
            b"GET /healthz HTTP/1.1\r\nhost: urm\r\ncontent-length: 0\r\n\r\n"
        );
    }
}
