//! A minimal HTTP/1.1 layer over blocking streams — just enough protocol
//! for the sweep service: request parsing with hard size limits, fixed
//! and chunked responses on the server side, and head parsing plus
//! chunked decoding on the client side. Every function is generic over
//! [`Read`]/[`Write`] so the whole layer unit-tests against in-memory
//! buffers, no sockets involved.
//!
//! Deliberate simplifications (fine for a point-to-point tool protocol,
//! not a general web server): every connection carries one exchange and
//! the server answers `Connection: close`; no TLS, no compression, no
//! multipart; header names are lowercased at parse time so lookups are
//! case-insensitive the way RFC 9110 requires.

use std::io::{self, BufRead, Read, Write};

/// Cap on the request line + headers, total. Sweeping past this is a
/// malformed or hostile peer, not a grid request.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Cap on a request body. The largest legitimate body is a grid request
/// (a few hundred bytes of JSON).
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed request: method, path (with query string, if any, still
/// attached), lowercased headers, and the full body.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ... (as sent; methods are case-sensitive).
    pub method: String,
    /// The request target, e.g. `/v1/grids/7`.
    pub path: String,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with this (lowercase) name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed. Converted to a 400 (or 413) by the
/// connection handler.
#[derive(Debug)]
pub enum RequestError {
    /// The peer closed the connection before sending a request line.
    Eof,
    /// Underlying transport error.
    Io(io::Error),
    /// The bytes are not HTTP, or violate a protocol limit.
    Malformed(&'static str),
    /// Head or body exceeds its size cap.
    TooLarge(&'static str),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e)
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Eof => f.write_str("connection closed before a request"),
            RequestError::Io(e) => write!(f, "transport error: {e}"),
            RequestError::Malformed(what) => write!(f, "malformed request: {what}"),
            RequestError::TooLarge(what) => write!(f, "request too large: {what}"),
        }
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line, bounding the total head
/// size via `budget`.
fn read_line<R: BufRead>(r: &mut R, budget: &mut usize) -> Result<String, RequestError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Err(RequestError::Eof);
                }
                return Err(RequestError::Malformed("truncated line"));
            }
            Ok(_) => {}
            Err(e) => return Err(RequestError::Io(e)),
        }
        *budget = budget
            .checked_sub(1)
            .ok_or(RequestError::TooLarge("head exceeds MAX_HEAD_BYTES"))?;
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| RequestError::Malformed("non-UTF-8 header line"));
        }
        line.push(byte[0]);
    }
}

/// Parses one full request (head + body) from the stream.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, RequestError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line(r, &mut budget)?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return Err(RequestError::Malformed("bad request line")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed("not HTTP/1.x"));
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(r, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(RequestError::Malformed("header without a colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let mut body = Vec::new();
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>())
        .transpose()
        .map_err(|_| RequestError::Malformed("unparsable content-length"))?;
    if let Some(len) = content_length {
        if len > MAX_BODY_BYTES {
            return Err(RequestError::TooLarge("body exceeds MAX_BODY_BYTES"));
        }
        body.resize(len, 0);
        r.read_exact(&mut body)
            .map_err(|_| RequestError::Malformed("body shorter than content-length"))?;
    }

    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        headers,
        body,
    })
}

/// A response head: the status line, the given headers, the body's
/// framing header, `Connection: close`, and the blank line.
fn response_head(status: u16, reason: &str, headers: &[(&str, &str)], framing: &str) -> Vec<u8> {
    let mut head = format!("HTTP/1.1 {status} {reason}\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(framing);
    head.push_str("\r\nConnection: close\r\n\r\n");
    head.into_bytes()
}

/// Writes a complete fixed-length response (status line, the given
/// headers plus `Content-Length` and `Connection: close`, then the body)
/// in one write, so it leaves as few segments as its size allows.
pub fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let framing = format!("Content-Length: {}", body.len());
    let mut response = response_head(status, reason, headers, &framing);
    response.extend_from_slice(body);
    w.write_all(&response)?;
    w.flush()
}

/// Starts a `Transfer-Encoding: chunked` response and returns the writer
/// for its chunks. Used for the NDJSON progress stream, where the total
/// length is unknown until the grid finishes.
pub fn start_chunked<W: Write>(
    mut w: W,
    status: u16,
    reason: &str,
    headers: &[(&str, &str)],
) -> io::Result<ChunkedWriter<W>> {
    w.write_all(&response_head(
        status,
        reason,
        headers,
        "Transfer-Encoding: chunked",
    ))?;
    w.flush()?;
    Ok(ChunkedWriter { w })
}

/// The body writer of a chunked response: each [`ChunkedWriter::chunk`]
/// goes out in one write, flushed immediately so the peer sees progress
/// events as they happen, and [`ChunkedWriter::finish`] writes the
/// terminating chunk.
#[derive(Debug)]
pub struct ChunkedWriter<W: Write> {
    w: W,
}

impl<W: Write> ChunkedWriter<W> {
    /// Writes one chunk (empty input is skipped — an empty chunk would
    /// terminate the stream).
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let mut chunk = format!("{:x}\r\n", data.len()).into_bytes();
        chunk.extend_from_slice(data);
        chunk.extend_from_slice(b"\r\n");
        self.w.write_all(&chunk)?;
        self.w.flush()
    }

    /// Terminates the stream (the zero-length chunk).
    pub fn finish(mut self) -> io::Result<()> {
        self.w.write_all(b"0\r\n\r\n")?;
        self.w.flush()
    }
}

/// A parsed response head (client side).
#[derive(Debug, Clone)]
pub struct ResponseHead {
    /// The status code.
    pub status: u16,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
}

impl ResponseHead {
    /// The first header with this (lowercase) name, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the body is `Transfer-Encoding: chunked`.
    pub fn is_chunked(&self) -> bool {
        self.header("transfer-encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
    }
}

/// Parses a response status line and headers, leaving the reader at the
/// first body byte.
pub fn read_response_head<R: BufRead>(r: &mut R) -> Result<ResponseHead, RequestError> {
    let mut budget = MAX_HEAD_BYTES;
    let status_line = read_line(r, &mut budget)?;
    let status = status_line
        .strip_prefix("HTTP/1.")
        .and_then(|rest| rest.split(' ').nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or(RequestError::Malformed("bad status line"))?;
    let mut headers = Vec::new();
    loop {
        let line = read_line(r, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(RequestError::Malformed("header without a colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(ResponseHead { status, headers })
}

/// Reads a response body to the end: chunked-decoded if the head says so,
/// by `Content-Length` if given, to EOF otherwise (`Connection: close`).
pub fn read_body<R: BufRead>(r: &mut R, head: &ResponseHead) -> Result<Vec<u8>, RequestError> {
    let mut body = Vec::new();
    if head.is_chunked() {
        ChunkedReader::new(r).read_to_end(&mut body)?;
    } else if let Some(len) = head.header("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| RequestError::Malformed("unparsable content-length"))?;
        body.resize(len, 0);
        r.read_exact(&mut body)
            .map_err(|_| RequestError::Malformed("body shorter than content-length"))?;
    } else {
        r.read_to_end(&mut body)?;
    }
    Ok(body)
}

/// Decodes a chunked body incrementally — [`Read`] over the dechunked
/// bytes, so the client can wrap it in a [`io::BufReader`] and pull
/// NDJSON lines out of a live stream before it terminates.
#[derive(Debug)]
pub struct ChunkedReader<R: BufRead> {
    inner: R,
    /// Bytes left in the current chunk.
    remaining: usize,
    /// The terminating zero chunk has been consumed.
    done: bool,
}

impl<R: BufRead> ChunkedReader<R> {
    /// Wraps a reader positioned at the first chunk-size line.
    pub fn new(inner: R) -> ChunkedReader<R> {
        ChunkedReader {
            inner,
            remaining: 0,
            done: false,
        }
    }

    fn next_chunk(&mut self) -> io::Result<()> {
        let mut line = String::new();
        self.inner.read_line(&mut line)?;
        let size_text = line.trim_end();
        // Chunk extensions (";ext=...") are legal; ignore them.
        let size_text = size_text.split(';').next().unwrap_or(size_text);
        let size = usize::from_str_radix(size_text, 16)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad chunk size"))?;
        if size == 0 {
            // Consume (and discard) any trailers up to the blank line.
            loop {
                let mut trailer = String::new();
                let n = self.inner.read_line(&mut trailer)?;
                if n == 0 || trailer.trim_end().is_empty() {
                    break;
                }
            }
            self.done = true;
        }
        self.remaining = size;
        Ok(())
    }
}

impl<R: BufRead> Read for ChunkedReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            if self.done {
                return Ok(0);
            }
            self.next_chunk()?;
            if self.done {
                return Ok(0);
            }
        }
        let take = buf.len().min(self.remaining);
        let n = self.inner.read(&mut buf[..take])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream ended mid-chunk",
            ));
        }
        self.remaining -= n;
        if self.remaining == 0 {
            // The CRLF that closes every chunk.
            let mut crlf = [0u8; 2];
            self.inner.read_exact(&mut crlf)?;
            if &crlf != b"\r\n" {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "chunk not CRLF-terminated",
                ));
            }
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    fn parse(raw: &str) -> Result<Request, RequestError> {
        read_request(&mut BufReader::new(Cursor::new(raw.as_bytes().to_vec())))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(
            "POST /v1/grids HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n\
             Content-Length: 9\r\n\r\n{\"a\": 1}\n",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/grids");
        assert_eq!(req.header("content-type"), Some("application/json"));
        assert_eq!(req.header("x-missing"), None);
        assert_eq!(req.body, b"{\"a\": 1}\n");
    }

    #[test]
    fn header_names_lowercase_and_values_trim() {
        let req = parse("GET / HTTP/1.1\r\nIf-None-Match:  \"4-abc\" \r\n\r\n").unwrap();
        assert_eq!(req.header("if-none-match"), Some("\"4-abc\""));
    }

    #[test]
    fn rejects_garbage_and_limits() {
        assert!(matches!(parse(""), Err(RequestError::Eof)));
        assert!(matches!(
            parse("NOT-HTTP\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / SMTP/1.0\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbroken header line\r\n\r\n"),
            Err(RequestError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab"),
            Err(RequestError::Malformed(_))
        ));
        let huge = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "y".repeat(MAX_HEAD_BYTES)
        );
        assert!(matches!(parse(&huge), Err(RequestError::TooLarge(_))));
        let fat = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&fat), Err(RequestError::TooLarge(_))));
    }

    #[test]
    fn fixed_response_round_trips() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "OK", &[("ETag", "\"4-ff\"")], b"hello").unwrap();
        let mut r = BufReader::new(Cursor::new(wire));
        let head = read_response_head(&mut r).unwrap();
        assert_eq!(head.status, 200);
        assert_eq!(head.header("etag"), Some("\"4-ff\""));
        assert_eq!(head.header("connection"), Some("close"));
        assert!(!head.is_chunked());
        assert_eq!(read_body(&mut r, &head).unwrap(), b"hello");
    }

    #[test]
    fn chunked_response_round_trips_and_streams() {
        let mut wire = Vec::new();
        {
            let mut chunks = start_chunked(
                &mut wire,
                200,
                "OK",
                &[("Content-Type", "application/x-ndjson")],
            )
            .unwrap();
            chunks.chunk(b"{\"event\":\"start\"}\n").unwrap();
            chunks.chunk(b"").unwrap(); // skipped, must not terminate
            chunks.chunk(b"{\"event\":\"cell\",\"index\":0}\n").unwrap();
            chunks.finish().unwrap();
        }
        let mut r = BufReader::new(Cursor::new(wire));
        let head = read_response_head(&mut r).unwrap();
        assert!(head.is_chunked());
        // Line-by-line through the decoder, the way the client reads it.
        let mut lines = BufReader::new(ChunkedReader::new(&mut r));
        let mut line = String::new();
        lines.read_line(&mut line).unwrap();
        assert_eq!(line, "{\"event\":\"start\"}\n");
        line.clear();
        lines.read_line(&mut line).unwrap();
        assert_eq!(line, "{\"event\":\"cell\",\"index\":0}\n");
        line.clear();
        assert_eq!(lines.read_line(&mut line).unwrap(), 0, "clean EOF");
    }

    /// A writer that counts `write` calls: each one is a syscall, and a
    /// segment on the wire, on an unbuffered `TcpStream`.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_and_chunk_is_one_write() {
        let mut w = CountingWriter::default();
        let headers = [("Content-Type", "application/json"), ("ETag", "\"4-ff\"")];
        write_response(&mut w, 200, "OK", &headers, b"{}\n").unwrap();
        assert_eq!(w.writes, 1, "head and body leave together");
        write_response(&mut w, 304, "Not Modified", &headers[1..], b"").unwrap();
        assert_eq!(w.writes, 2);

        let mut chunks = start_chunked(CountingWriter::default(), 200, "OK", &headers).unwrap();
        assert_eq!(chunks.w.writes, 1, "one write for the head");
        chunks.chunk(b"{\"event\":\"start\"}\n").unwrap();
        chunks.chunk(b"").unwrap();
        chunks.chunk(b"{\"event\":\"cell\"}\n").unwrap();
        assert_eq!(
            chunks.w.writes, 3,
            "one write per chunk, none for an empty one"
        );
        let text = String::from_utf8(chunks.w.bytes.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"));
        assert!(text.ends_with("12\r\n{\"event\":\"start\"}\n\r\n11\r\n{\"event\":\"cell\"}\n\r\n"));
    }

    #[test]
    fn chunked_reader_rejects_truncation() {
        let wire = b"5\r\nhel".to_vec(); // promises 5 bytes, delivers 3
        let mut r = ChunkedReader::new(BufReader::new(Cursor::new(wire)));
        let mut out = Vec::new();
        assert!(r.read_to_end(&mut out).is_err());
    }
}
