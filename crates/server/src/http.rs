//! A minimal HTTP/1.1 layer over [`std::net::TcpStream`].
//!
//! The build environment is offline, so instead of `hyper`/`axum` this
//! module hand-rolls exactly what the job API needs: request-line +
//! header parsing with size limits, `Content-Length` bodies, fixed
//! responses, and a chunked-transfer writer for the NDJSON event
//! stream. Every connection is `Connection: close` — the orchestrator's
//! jobs are long-lived, the HTTP exchanges are not, and keep-alive
//! bookkeeping would buy nothing here.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use stoneage_wire::Value;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on a request body (job specs with an embedded hex
/// snapshot frame are the largest legitimate payload).
const MAX_BODY: usize = 16 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// The method verb, uppercased by the client (`GET`, `POST`, …).
    pub method: String,
    /// The request path, e.g. `/jobs/3/events` (query strings are not
    /// used by this API and are not split off).
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// A request that could not be read; maps onto a 4xx response.
#[derive(Debug)]
pub enum BadRequest {
    /// Socket-level failure (also covers a peer that hung up mid-head).
    Io(io::Error),
    /// The head or body violated the grammar or a size limit.
    Malformed(&'static str),
}

impl From<io::Error> for BadRequest {
    fn from(e: io::Error) -> Self {
        BadRequest::Io(e)
    }
}

/// Reads one request from `stream` (which it wraps in a [`BufReader`];
/// the raw stream handle stays usable for the response).
pub fn read_request(stream: &TcpStream) -> Result<Request, BadRequest> {
    let mut reader = BufReader::new(stream);
    let mut budget = MAX_HEAD;
    let line = read_head_line(&mut reader, &mut budget)?;
    if line.is_empty() {
        return Err(BadRequest::Malformed("empty request"));
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(BadRequest::Malformed("missing method"))?
        .to_string();
    let path = parts
        .next()
        .ok_or(BadRequest::Malformed("missing path"))?
        .to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(BadRequest::Malformed("not HTTP/1.x")),
    }

    let mut content_length: usize = 0;
    loop {
        let header = read_head_line(&mut reader, &mut budget)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| BadRequest::Malformed("bad content-length"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(BadRequest::Malformed("request body too large"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

/// Reads one line of the request head and charges it to the `budget`
/// left of [`MAX_HEAD`]. It reads at most one byte past the budget, so a
/// line sent without a newline cannot grow the buffer without bound; a
/// line that overruns the budget is rejected before its bytes are
/// decoded, so a cut inside a multi-byte character still gets the 400.
fn read_head_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<String, BadRequest> {
    let mut line = Vec::new();
    let n = reader
        .take(*budget as u64 + 1)
        .read_until(b'\n', &mut line)?;
    *budget = budget
        .checked_sub(n)
        .ok_or(BadRequest::Malformed("request head too large"))?;
    String::from_utf8(line).map_err(|_| BadRequest::Malformed("request head is not UTF-8"))
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a complete response with a `Content-Length` body.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a JSON response.
pub fn respond_json(stream: &mut TcpStream, status: u16, value: &Value) -> io::Result<()> {
    let mut body = value.to_string_pretty();
    body.push('\n');
    respond(stream, status, "application/json", body.as_bytes())
}

/// Writes the standard error payload `{"error": ...}`.
pub fn respond_error(stream: &mut TcpStream, status: u16, message: &str) -> io::Result<()> {
    respond_json(
        stream,
        status,
        &Value::Object(vec![("error".into(), message.into())]),
    )
}

/// A `Transfer-Encoding: chunked` response in progress: one chunk per
/// [`ChunkedWriter::chunk`] call, terminated by [`ChunkedWriter::finish`].
/// The NDJSON event stream writes one event line per chunk so clients
/// see events as they happen, not when the job ends.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Starts a chunked response with the given status and content type.
    pub fn start(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
    ) -> io::Result<ChunkedWriter<'a>> {
        write!(
            stream,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            status,
            reason(status),
            content_type
        )?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Writes one chunk and flushes it to the peer.
    pub fn chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            // An empty chunk would terminate the stream early.
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminates the chunked stream.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}
