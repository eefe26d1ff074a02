//! The HTTP/1.1 front end.
//!
//! The same operations as the line-JSON protocol, behind a std-only
//! HTTP/1.1 codec on the daemon's one connection loop — no async runtime,
//! no HTTP dependency. `HttpCodec` frames a request (head, then a
//! length-framed body) through the connection's framed reader, names the
//! op from the path and hands the body's fields to
//! [`Request::from_json`], the decoder the line protocol uses; the loop
//! dispatches and accounts for the request like any other, and the codec
//! renders the response with an HTTP status. So the two transports share
//! one validation path, one dispatch and one set of per-op metrics.
//!
//! | method & path | op | notes |
//! |---|---|---|
//! | `GET /healthz` | — | liveness: `{"ok":true,"uptime_s":…}` |
//! | `GET /metrics` | `metrics` | Prometheus text exposition |
//! | `GET\|POST /v1/stats` | `stats` | counters as JSON |
//! | `POST /v1/prepare` | `prepare` | body: `{"program":…}` |
//! | `POST /v1/query` | `query` | body: `{"program":…,"doc":…}` |
//! | `POST /v1/explain` | `explain` | body: `{"program":…,"analyze"?,"doc"?}` |
//! | `POST /v1/query_corpus` | `query_corpus` | **chunked** streaming response |
//! | `POST /v1/corpus` | `load_corpus` | body: raw text, or JSON with `Content-Type: application/json` |
//! | `POST /v1/corpus/append` | `append_docs` | like `/v1/corpus` |
//! | `POST /v1/corpus/update` | `update_doc` | body: `{"line":…,"text":…}` |
//! | `POST /v1/corpus/delete` | `delete_docs` | body: `{"lines":[…]}` |
//! | `POST /v1/shutdown` | `shutdown` | drain and exit |
//!
//! The path alone names the op: an `"op"` member in a body is ignored.
//!
//! Hostile-input containment mirrors the line transport: the request
//! head is read through [`ServeOptions::max_head_bytes`] (`431` past
//! it), bodies through [`ServeOptions::max_body_bytes`] (`413`, without
//! reading the body), and the idle/slow-drip deadline
//! ([`ServeOptions::idle_timeout`]) applies to head and body reads alike.
//! A request without `Content-Length` has an empty body (`curl -X POST
//! …/v1/shutdown` sends none); two *different* `Content-Length` values are
//! a `400`, and request bodies with a `Transfer-Encoding` a `501`.
//! Connections are keep-alive by default (HTTP/1.1) and honor
//! `Connection: close`; a reject that leaves the stream unframed (a bad or
//! oversized head, an unread body) closes it.
//!
//! Error responses carry the protocol's JSON error body: a plain error
//! (bad program, bad field) is `400`; a request whose handling panicked
//! (`"internal": true`) is `500`. The status is read off the handler's
//! outcome, never off the body it wrote.
//!
//! A `POST /v1/query_corpus` success is sent with `Transfer-Encoding:
//! chunked`, the written body in chunks of at most 32 KiB, and the
//! reassembled body is **byte-identical** to the line-protocol response
//! for the same request — pinned by the HTTP conformance tests.

use crate::conn::{exact_frame, line_frame, Conn, Frame, Limits};
use crate::json::Json;
use crate::protocol::{error_response, Request};
#[cfg_attr(not(doc), allow(unused_imports))] // doc links only
use crate::server::ServeOptions;
use crate::server::{Codec, Incoming, Outcome, Shared};
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A parsed request head.
struct Head {
    method: String,
    /// The path, query string stripped.
    path: String,
    /// `false` for HTTP/1.0 (keep-alive off by default).
    http11: bool,
    /// Header name/value pairs, names lowercased.
    headers: Vec<(String, String)>,
}

impl Head {
    /// The first value of `name` (lowercase), if present.
    fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Whether the connection should stay open after the response.
    fn keep_alive(&self) -> bool {
        match self.header("connection").map(str::to_ascii_lowercase) {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.http11,
        }
    }

    /// The declared body length; `Err` marks a value that is not
    /// `1*DIGIT` (RFC 9110 §8.6: `usize::from_str` would also take `+5`)
    /// or does not fit.
    fn content_length(&self) -> Result<Option<usize>, ()> {
        match self.header("content-length").map(str::trim) {
            None => Ok(None),
            Some(v) if v.bytes().all(|b| b.is_ascii_digit()) => v.parse().map(Some).map_err(|_| ()),
            Some(_) => Err(()),
        }
    }
}

/// The most body bytes one chunk of a streamed response carries.
const CHUNK_BYTES: usize = 32 << 10;

/// The HTTP/1.1 codec: what it decided about the response while reading
/// the request.
#[derive(Default)]
pub(crate) struct HttpCodec {
    /// Whether the connection can be reused after the response. Stays
    /// `false` until the request is framed to its last body byte.
    keep_alive: bool,
    /// The status of a reject, fixed while reading; a dispatched request's
    /// status is read off its [`Outcome`].
    status: Option<u16>,
    /// The `Allow` header of a `405`.
    allow: Option<&'static str>,
    /// Whether a success streams chunked: the request is a `query_corpus`.
    chunked: bool,
}

impl HttpCodec {
    /// Refuses the request in hand with `status` and the protocol's error
    /// body.
    fn reject(
        &mut self,
        status: u16,
        message: impl std::fmt::Display,
    ) -> io::Result<Option<Incoming>> {
        self.status = Some(status);
        Ok(Some(Incoming::Decoded(Err(error_response(message)))))
    }
}

impl Codec for HttpCodec {
    fn read_request(&mut self, conn: &mut Conn, shared: &Shared) -> io::Result<Option<Incoming>> {
        let options = &shared.handler.options;
        *self = HttpCodec::default();
        match conn.read_frame(&shared.limits(options.max_head_bytes), head_frame)? {
            Frame::Complete => {}
            // The unread rest of the head is unframed garbage: close.
            Frame::Oversized => {
                let cap = options.max_head_bytes;
                return self.reject(431, format!("request head exceeds the {cap}-byte limit"));
            }
            // EOF: a partial head is dropped silently (nothing to frame a
            // response for); between requests this is a clean close.
            Frame::Eof | Frame::Expired => return Ok(None),
        }
        // A malformed head, like every reject before the body is framed,
        // leaves the stream unframed: `keep_alive` is still off.
        let head = match parse_head(&conn.input) {
            Ok(head) => head,
            Err(message) => return self.reject(400, message),
        };
        if head.header("transfer-encoding").is_some() {
            // Request bodies must be length-framed; chunked requests are
            // out of scope (the server streams chunked *responses* only).
            return self.reject(501, "chunked request bodies are not supported");
        }
        // Read the body (if any) before routing, so even a 404/405
        // response leaves the connection correctly framed for reuse.
        let length = match head.content_length() {
            Ok(declared) => declared,
            Err(()) => return self.reject(400, "unparseable Content-Length"),
        };
        if let Some(length) = length {
            let cap = options.max_body_bytes;
            if length > cap {
                // The body is never read.
                let message =
                    format!("request body of {length} bytes exceeds the {cap}-byte limit");
                return self.reject(413, message);
            }
            if head
                .header("expect")
                .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
            {
                conn.output
                    .extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                conn.flush()?;
            }
        }
        // No length, no body.
        let length = length.unwrap_or(0);
        if conn.read_frame(&shared.limits(length), exact_frame(length))? != Frame::Complete {
            // EOF or idle deadline mid-body: there is no way to frame a
            // response on a half-sent request.
            return Ok(None);
        }
        self.keep_alive = head.keep_alive();
        let decoded = |request| Ok(Some(Incoming::Decoded(Ok(request))));
        match (head.method.as_str(), head.path.as_str()) {
            ("GET", "/healthz") => Ok(Some(Incoming::Probe(Json::object([
                ("ok", Json::Bool(true)),
                (
                    "uptime_s",
                    Json::Number(shared.handler.started.elapsed().as_secs_f64()),
                ),
            ])))),
            ("GET", "/metrics") => decoded(Request::Metrics),
            ("GET", "/v1/stats") => decoded(Request::Stats),
            ("POST", path) => match post_op(path) {
                None => self.reject(404, "no such endpoint"),
                Some(op) => match decode_body(&head, &conn.input, op) {
                    Ok(request) => {
                        self.chunked = op == "query_corpus";
                        decoded(request)
                    }
                    Err(message) => self.reject(400, message),
                },
            },
            (method, path) => match allowed_methods(path) {
                None => self.reject(404, "no such endpoint"),
                Some(allow) => {
                    self.allow = Some(allow);
                    self.reject(405, format!("method {method} not allowed (allow: {allow})"))
                }
            },
        }
    }

    fn write_response(
        &mut self,
        conn: &mut Conn,
        shared: &Shared,
        body: &[u8],
        outcome: &Outcome,
        last: bool,
    ) -> io::Result<bool> {
        let keep_alive = self.keep_alive && !last;
        let status = self.status.unwrap_or(match outcome {
            Outcome::Ok | Outcome::Metrics(_) => 200,
            Outcome::Failed => 400,
            Outcome::Internal => 500,
        });
        shared.handler.metrics.http_classes[(status / 100 - 2) as usize].inc();
        let head = |out: &mut Vec<u8>, content_type: &str, length: Option<usize>| {
            write!(
                out,
                "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\n",
                reason(status)
            )?;
            if let Some(allow) = self.allow {
                write!(out, "Allow: {allow}\r\n")?;
            }
            match length {
                Some(length) => write!(out, "Content-Length: {length}\r\n")?,
                None => out.extend_from_slice(b"Transfer-Encoding: chunked\r\n"),
            }
            let connection = if keep_alive { "keep-alive" } else { "close" };
            write!(out, "Connection: {connection}\r\n\r\n")
        };
        match outcome {
            // The `metrics` op (`GET /metrics`) is scraped, not decoded.
            Outcome::Metrics(text) => {
                let content_type = "text/plain; version=0.0.4; charset=utf-8";
                head(&mut conn.output, content_type, Some(text.len()))?;
                conn.output.extend_from_slice(text.as_bytes());
            }
            // A `query_corpus` success streams the written body in chunks,
            // coalesced into writes of about a chunk each — reassembled, the
            // byte-identical line-protocol response.
            Outcome::Ok if self.chunked => {
                head(&mut conn.output, "application/json", None)?;
                for chunk in body.chunks(CHUNK_BYTES) {
                    write!(conn.output, "{:x}\r\n", chunk.len())?;
                    conn.output.extend_from_slice(chunk);
                    conn.output.extend_from_slice(b"\r\n");
                    if conn.output.len() >= CHUNK_BYTES {
                        conn.flush()?;
                    }
                }
                conn.output.extend_from_slice(b"0\r\n\r\n");
            }
            _ => {
                head(&mut conn.output, "application/json", Some(body.len()))?;
                conn.output.extend_from_slice(body);
            }
        }
        conn.flush()?;
        Ok(keep_alive)
    }
}

/// The head framer: a head ends with the first blank line, `CRLFCRLF` or
/// bare `LFLF`. The terminator may straddle a chunk boundary, so the bytes
/// before a chunk's newline are looked up in the buffered part as needed.
fn head_frame(buffered: &[u8], chunk: &[u8]) -> (usize, bool) {
    let before = |i: usize, back: usize| match i.checked_sub(back) {
        Some(j) => Some(chunk[j]),
        None => buffered.len().checked_sub(back - i).map(|j| buffered[j]),
    };
    let end = (0..chunk.len()).find(|&i| {
        chunk[i] == b'\n'
            && (before(i, 1) == Some(b'\n')
                || (before(i, 1), before(i, 2), before(i, 3))
                    == (Some(b'\r'), Some(b'\n'), Some(b'\r')))
    });
    end.map_or((chunk.len(), false), |i| (i + 1, true))
}

/// Maps a `POST` path to its protocol op: `/v1/<op>` for every entry of
/// [`Request::OPS`], except that the corpus family nests REST-style under
/// `/v1/corpus` and `metrics` is served the Prometheus way, as
/// `GET /metrics`.
fn post_op(path: &str) -> Option<&'static str> {
    let name = path.strip_prefix("/v1/")?;
    Request::OPS.into_iter().find(|&op| match op {
        "load_corpus" => name == "corpus",
        "append_docs" => name == "corpus/append",
        "update_doc" => name == "corpus/update",
        "delete_docs" => name == "corpus/delete",
        "metrics" => false,
        op => name == op,
    })
}

/// The methods a known path answers — the `Allow` header of its `405`;
/// `None` for paths that are not endpoints.
fn allowed_methods(path: &str) -> Option<&'static str> {
    match path {
        "/healthz" | "/metrics" => Some("GET"),
        "/v1/stats" => Some("GET, POST"),
        path => post_op(path).map(|_| "POST"),
    }
}

/// Decodes a request body into the request `op` names: JSON endpoints
/// carry a JSON object (or nothing); the corpus ingest endpoints accept
/// raw text unless `Content-Type` says JSON, so `curl --data-binary
/// @corpus.txt` works without escaping — and without a JSON round trip on
/// the way to the store.
fn decode_body(head: &Head, body: &[u8], op: &'static str) -> Result<Request, String> {
    let is_json = head
        .header("content-type")
        .is_some_and(|v| v.to_ascii_lowercase().contains("json"));
    let utf8 = || std::str::from_utf8(body).map_err(|_| "request body is not UTF-8".to_string());
    if !is_json && matches!(op, "load_corpus" | "append_docs") {
        // Refused, not rewritten: a lossy decode would shift every span
        // after the bad byte away from the client's own offsets.
        let text = utf8()?.to_string();
        return Ok(match op {
            "load_corpus" => Request::LoadCorpus { text },
            _ => Request::AppendDocs { text },
        });
    }
    if body.is_empty() {
        return Request::from_json(op, Json::Object(Vec::new()));
    }
    match Json::parse(utf8()?).map_err(|e| e.to_string())? {
        fields @ Json::Object(_) => Request::from_json(op, fields),
        _ => Err("request body must be a JSON object".to_string()),
    }
}

/// The reason phrase for the statuses this server produces.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        _ => "Unknown",
    }
}

/// Parses a head's bytes into method, path, version, and headers.
fn parse_head(bytes: &[u8]) -> Result<Head, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "request head is not UTF-8".to_string())?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(format!("malformed request line `{request_line}`"));
    };
    if parts.next().is_some() {
        return Err(format!("malformed request line `{request_line}`"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(format!("unsupported protocol version `{other}`")),
    };
    let path = target.split('?').next().unwrap_or("").to_string();
    if !path.starts_with('/') {
        return Err(format!("unsupported request target `{target}`"));
    }
    Ok(Head {
        method: method.to_string(),
        path,
        http11,
        headers: parse_headers(lines)?,
    })
}

/// Parses header lines up to the blank line into name/value pairs, names
/// lowercased — the one header grammar of server and client.
fn parse_headers<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<Vec<(String, String)>, String> {
    let mut headers = Vec::new();
    for line in lines.take_while(|line| !line.is_empty()) {
        let Some((name, value)) = line.split_once(':') else {
            return Err(format!("malformed header line `{line}`"));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(format!("malformed header name `{name}`"));
        }
        let (name, value) = (name.to_ascii_lowercase(), value.trim());
        // Two lengths that disagree frame two different messages — the
        // request-smuggling shape RFC 9112 §6.3 makes unrecoverable.
        if name == "content-length" && header(&headers, &name).is_some_and(|first| first != value) {
            return Err("conflicting Content-Length headers".to_string());
        }
        headers.push((name, value.to_string()));
    }
    Ok(headers)
}

/// The first value of header `name` (lowercase) among parsed `headers`.
fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A decoded HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    /// The status code.
    pub status: u16,
    /// Header name/value pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The response body (chunked bodies reassembled).
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// The first value of header `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// The body as UTF-8 text.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> io::Result<Json> {
        Json::parse(&self.text()).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad response body: {e}"),
            )
        })
    }
}

/// A small synchronous HTTP/1.1 client with keep-alive: one
/// [`HttpClient`] holds one persistent connection and reuses it across
/// requests (the connection-reuse regression test drives a burst through
/// one client and asserts the server accepted exactly one connection).
/// Reassembles chunked responses, so `POST /v1/query_corpus` round-trips
/// to the same JSON the line protocol returns.
#[derive(Debug)]
pub struct HttpClient {
    conn: Conn,
}

impl HttpClient {
    /// Connects to an HTTP front end.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<HttpClient> {
        Ok(HttpClient {
            conn: Conn::new(TcpStream::connect(addr)?)?,
        })
    }

    /// Sends a `GET`.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        self.request("GET", path, None)
    }

    /// Sends a `POST` with a JSON body.
    pub fn post_json(&mut self, path: &str, body: &Json) -> io::Result<HttpResponse> {
        let body = body.to_string();
        self.request("POST", path, Some(("application/json", body.as_bytes())))
    }

    /// Sends a `POST` with a raw text body (the corpus ingest shape).
    pub fn post_text(&mut self, path: &str, body: &str) -> io::Result<HttpResponse> {
        self.request("POST", path, Some(("text/plain", body.as_bytes())))
    }

    /// Sends one request and reads one response on the persistent
    /// connection.
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<(&str, &[u8])>,
    ) -> io::Result<HttpResponse> {
        let out = &mut self.conn.output;
        out.clear();
        write!(out, "{method} {path} HTTP/1.1\r\n")?;
        if let Some((content_type, bytes)) = body {
            let length = bytes.len();
            write!(
                out,
                "Content-Type: {content_type}\r\nContent-Length: {length}\r\n"
            )?;
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(body.map_or(&[], |(_, bytes)| bytes));
        self.conn.flush()?;
        self.read_response()
    }

    /// Reads one response: status line, headers, then a body framed by
    /// `Content-Length` or reassembled from `Transfer-Encoding: chunked`.
    fn read_response(&mut self) -> io::Result<HttpResponse> {
        self.read_frame(head_frame)?;
        let head = String::from_utf8_lossy(&self.conn.input);
        let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
        let status_line = lines.next().unwrap_or("");
        let status: u16 = status_line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_data(format!("malformed status line `{status_line}`")))?;
        let headers = parse_headers(lines).map_err(bad_data)?;
        // Interim responses (100 Continue) carry no body; read on.
        if status == 100 {
            return self.read_response();
        }
        let chunked = header(&headers, "transfer-encoding")
            .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"));
        let mut body = Vec::new();
        if chunked {
            loop {
                self.read_frame(line_frame)?;
                let size_line = String::from_utf8_lossy(&self.conn.input);
                let size_line = size_line.trim();
                let size = usize::from_str_radix(size_line, 16)
                    .map_err(|_| bad_data(format!("malformed chunk size `{size_line}`")))?;
                if size == 0 {
                    // Trailer section: read through the blank line.
                    while !self.conn.input.trim_ascii().is_empty() {
                        self.read_frame(line_frame)?;
                    }
                    break;
                }
                // The chunk and its CRLF.
                self.read_frame(exact_frame(size.saturating_add(2)))?;
                let Some(chunk) = self.conn.input.strip_suffix(b"\r\n") else {
                    return Err(bad_data("chunk not CRLF-terminated".to_string()));
                };
                body.extend_from_slice(chunk);
            }
        } else {
            let length = header(&headers, "content-length").and_then(|v| v.parse().ok());
            self.read_frame(exact_frame(length.unwrap_or(0)))?;
            body = std::mem::take(&mut self.conn.input);
        }
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }

    /// Reads one whole frame into the connection's input buffer; a stream
    /// that ends first is an error.
    fn read_frame(&mut self, framer: impl FnMut(&[u8], &[u8]) -> (usize, bool)) -> io::Result<()> {
        const UNBOUNDED: Limits<'static> = Limits {
            cap: usize::MAX,
            deadline: None,
            stop: None,
        };
        match self.conn.read_frame(&UNBOUNDED, framer)? {
            Frame::Complete => Ok(()),
            _ => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }
}

/// Shorthand for an [`io::ErrorKind::InvalidData`] error.
fn bad_data(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heads_parse_and_reject() {
        let head = parse_head(
            b"POST /v1/query?x=1 HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 12\r\n\r\n",
        )
        .unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/v1/query");
        assert!(head.http11);
        assert!(head.keep_alive());
        assert_eq!(head.content_length(), Ok(Some(12)));
        assert_eq!(head.header("content-type"), Some("application/json"));

        // Bare-LF heads are tolerated; HTTP/1.0 defaults to close.
        let head = parse_head(b"GET /healthz HTTP/1.0\n\n").unwrap();
        assert!(!head.http11);
        assert!(!head.keep_alive());

        let head = parse_head(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!head.keep_alive());

        for bytes in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /x HTTP/2\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
            b"GET http://example.com HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1\r\nno colon here\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbad name: v\r\n\r\n",
            // Two framings of one request (RFC 9112 §6.3).
            b"POST /x HTTP/1.1\r\nContent-Length: 35\r\nContent-Length: 500\r\n\r\n",
        ] {
            assert!(
                parse_head(bytes).is_err(),
                "{:?}",
                String::from_utf8_lossy(bytes)
            );
        }
    }

    #[test]
    fn heads_end_at_the_first_blank_line_wherever_the_chunks_fall() {
        // A repeated length is not a conflict.
        assert!(parse_head(b"POST /x HTTP/1.1\nContent-Length: 7\nContent-Length: 7\n\n").is_ok());
        for head in [
            &b"GET / HTTP/1.1\r\nA: b\r\n\r\n"[..],
            b"GET / HTTP/1.1\nA: b\n\n",
        ] {
            let mut stream = head.to_vec();
            stream.extend_from_slice(b"next request");
            // Every way of cutting the stream in two finds the same end.
            for cut in 0..stream.len() {
                let (first, second) = stream.split_at(cut);
                let end = match head_frame(&[], first) {
                    (end, true) => end,
                    (taken, false) => {
                        assert_eq!(taken, first.len());
                        let (end, complete) = head_frame(first, second);
                        assert!(complete, "cut at {cut}");
                        first.len() + end
                    }
                };
                assert_eq!(end, head.len(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn endpoint_table_is_total() {
        // Every op has exactly one endpoint: a `POST` path, or `GET /metrics`.
        for op in Request::OPS {
            let paths = [
                "corpus",
                "corpus/append",
                "corpus/update",
                "corpus/delete",
                op,
            ]
            .map(|name| format!("/v1/{name}"));
            let routed = paths.iter().filter(|p| post_op(p) == Some(op)).count();
            assert_eq!(routed, usize::from(op != "metrics"), "{op}");
        }
        assert_eq!(allowed_methods("/metrics"), Some("GET"));
        assert_eq!(allowed_methods("/v1/stats"), Some("GET, POST"));
        assert_eq!(allowed_methods("/v1/query"), Some("POST"));
        assert_eq!(allowed_methods("/v1/load_corpus"), None);

        for (path, op) in [
            ("/v1/prepare", "prepare"),
            ("/v1/query", "query"),
            ("/v1/explain", "explain"),
            ("/v1/query_corpus", "query_corpus"),
            ("/v1/corpus", "load_corpus"),
            ("/v1/corpus/append", "append_docs"),
            ("/v1/corpus/update", "update_doc"),
            ("/v1/corpus/delete", "delete_docs"),
            ("/v1/stats", "stats"),
            ("/v1/shutdown", "shutdown"),
        ] {
            assert_eq!(post_op(path), Some(op));
        }
        assert_eq!(post_op("/v1/nope"), None);
        assert_eq!(post_op("/"), None);
    }
}
