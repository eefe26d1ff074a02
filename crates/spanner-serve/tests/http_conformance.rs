//! HTTP/1.1 conformance and fuzz tests for the front end.
//!
//! The HTTP layer shares one dispatch path with the line protocol, so
//! its correctness claims are (a) protocol-level: torn, pipelined, and
//! oversized requests are contained with the right status codes (431
//! past the head cap, 413 past the body cap, 400/404/405/501 where HTTP
//! says so), keep-alive reuses one connection, and the chunked
//! `query_corpus` stream reassembles to the **byte-identical** JSON the
//! line protocol emits; and (b) robustness: a seed-driven mutation
//! fuzzer over raw request bytes never kills the server — every
//! connection is answered or closed cleanly, and `/healthz` still
//! answers after each case.

use spanner_serve::{Client, HttpClient, Json, ServeOptions, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;

type Handle = JoinHandle<std::io::Result<()>>;

fn http_options() -> ServeOptions {
    ServeOptions {
        http: true,
        threads: 4,
        // Small caps so the rejection paths are cheap to reach.
        max_head_bytes: 2 << 10,
        max_body_bytes: 8 << 10,
        idle_timeout: Duration::from_secs(2),
        ..ServeOptions::default()
    }
}

fn start_http(options: ServeOptions) -> (SocketAddr, Handle) {
    Server::bind("127.0.0.1:0", options)
        .expect("bind HTTP server")
        .spawn()
}

fn shutdown(addr: SocketAddr, handle: Handle) {
    let mut client = HttpClient::connect(addr).unwrap();
    let response = client
        .post_json("/v1/shutdown", &Json::object::<&str>([]))
        .unwrap();
    assert_eq!(response.status, 200);
    handle.join().unwrap().unwrap();
}

/// Sends raw bytes on a fresh connection; returns everything read until
/// EOF or timeout.
fn raw_exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    out
}

fn status_of(response: &[u8]) -> Option<u16> {
    let text = String::from_utf8_lossy(response);
    let mut parts = text.split_ascii_whitespace();
    let _version = parts.next()?;
    parts.next()?.parse().ok()
}

#[test]
fn endpoints_round_trip_with_keep_alive() {
    let (addr, handle) = start_http(http_options());
    let mut client = HttpClient::connect(addr).unwrap();

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(
        health.json().unwrap().get("ok").and_then(Json::as_bool),
        Some(true)
    );

    let query = client
        .post_json(
            "/v1/query",
            &Json::object([
                ("program", Json::string("/{x:a+}b/")),
                ("doc", Json::string("aab")),
            ]),
        )
        .unwrap();
    assert_eq!(query.status, 200);
    let body = query.json().unwrap();
    assert_eq!(body.get("count").and_then(Json::as_usize), Some(1));

    let explain = client
        .post_json(
            "/v1/explain",
            &Json::object([("program", Json::string("/{x:a+}/"))]),
        )
        .unwrap();
    assert_eq!(explain.status, 200);

    // A bad program is a 400 carrying the protocol's JSON error.
    let bad = client
        .post_json(
            "/v1/query",
            &Json::object([
                ("program", Json::string("/{x:/")),
                ("doc", Json::string("a")),
            ]),
        )
        .unwrap();
    assert_eq!(bad.status, 400);
    assert_eq!(
        bad.json().unwrap().get("ok").and_then(Json::as_bool),
        Some(false)
    );

    // /metrics is the Prometheus exposition, and it has seen this very
    // connection's requests — all on one kept-alive connection.
    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .header("content-type")
        .is_some_and(|v| v.starts_with("text/plain")));
    let text = metrics.text();
    assert!(
        text.contains("spanner_http_requests_total{class=\"2xx\"}"),
        "{text}"
    );
    assert!(
        text.contains("spanner_http_requests_total{class=\"4xx\"}"),
        "{text}"
    );

    let stats = client.get("/v1/stats").unwrap();
    assert_eq!(stats.status, 200);
    let connections = stats
        .json()
        .unwrap()
        .get("server")
        .and_then(|s| s.get("connections"))
        .and_then(Json::as_usize)
        .unwrap();
    assert_eq!(
        connections, 1,
        "every request above must share one connection"
    );
    shutdown(addr, handle);
}

/// The chunked `query_corpus` stream reassembles to the byte-identical
/// JSON the line protocol returns for the same state and request.
#[test]
fn chunked_corpus_stream_matches_line_protocol_bytes() {
    // Two daemons, same options modulo transport.
    let (http_addr, http_handle) = start_http(http_options());
    let (line_addr, line_handle) = Server::bind(
        "127.0.0.1:0",
        ServeOptions {
            http: false,
            ..http_options()
        },
    )
    .expect("bind line server")
    .spawn();

    let corpus = "aa\nb\nabab\n\naaa bb";
    let program = "/{x:a+}/";

    let mut http = HttpClient::connect(http_addr).unwrap();
    let loaded = http.post_text("/v1/corpus", corpus).unwrap();
    assert_eq!(loaded.status, 200, "{}", loaded.text());

    let mut line = Client::connect(line_addr).unwrap();
    line.load_corpus(corpus).unwrap();

    for text in [None, Some(corpus)] {
        let mut fields = vec![("program", Json::string(program))];
        if let Some(text) = text {
            fields.push(("text", Json::string(text)));
        }
        let request = Json::object(fields.clone());
        let http_response = http.post_json("/v1/query_corpus", &request).unwrap();
        assert_eq!(http_response.status, 200);
        assert!(
            http_response
                .header("transfer-encoding")
                .is_some_and(|v| v.contains("chunked")),
            "corpus responses must stream chunked"
        );
        let mut line_fields = vec![("op", Json::string("query_corpus"))];
        line_fields.extend(fields);
        let line_response = line
            .request_line(&Json::object(line_fields).to_string())
            .unwrap();
        assert_eq!(
            http_response.text(),
            line_response,
            "chunked reassembly must be byte-identical to the line protocol"
        );
        // And it decodes to a successful response with results.
        let decoded = http_response.json().unwrap();
        assert_eq!(decoded.get("ok").and_then(Json::as_bool), Some(true));
        assert!(decoded.get("results").and_then(Json::as_array).is_some());
    }

    shutdown(http_addr, http_handle);
    line.shutdown().unwrap();
    line_handle.join().unwrap().unwrap();
}

/// Blanks the members that measure time, which no two runs agree on.
fn scrub(value: &mut Json) {
    match value {
        Json::Object(pairs) => {
            for (key, member) in pairs {
                match (key.as_str(), member) {
                    ("uptime_s" | "prepare_seconds" | "nanos", member) => *member = Json::Null,
                    // `explain` with `analyze` renders the measured run after
                    // its static part.
                    ("explain", Json::Str(text)) => {
                        let end = text.find("analyze    :").unwrap_or(text.len());
                        text.truncate(end);
                    }
                    (_, member) => scrub(member),
                }
            }
        }
        Json::Array(items) => items.iter_mut().for_each(scrub),
        _ => {}
    }
}

/// `ops.<op>.{requests,errors}` of a `stats` response.
fn tally(stats: &Json, op: &str) -> (usize, usize) {
    let entry = stats
        .get("ops")
        .and_then(|ops| ops.get(op))
        .unwrap_or_else(|| panic!("no ops.{op} in {stats}"));
    let count = |name| entry.get(name).and_then(Json::as_usize).unwrap();
    (count("requests"), count("errors"))
}

/// One row of the transport-parity table.
struct Case {
    name: &'static str,
    /// The request as the line daemon gets it.
    line: String,
    /// The endpoint of the line's op.
    path: &'static str,
    /// What the HTTP daemon gets, when not `line` itself (`op` member
    /// included — over HTTP the path names the op).
    body: Option<Body>,
    /// The label both daemons must account the request under.
    op: &'static str,
    status: u16,
    /// The response measures time, or each transport words it its own way:
    /// not comparable byte for byte.
    volatile: bool,
}

enum Body {
    /// Raw text, as `text/plain` (the corpus ingest shape).
    Raw(&'static str),
    /// Another JSON text than the line.
    Json(&'static str),
}

fn case(name: &'static str, line: &str, path: &'static str, op: &'static str, status: u16) -> Case {
    Case {
        name,
        line: line.to_string(),
        path,
        body: None,
        op,
        status,
        volatile: false,
    }
}

impl Case {
    fn body(self, body: Body) -> Case {
        Case {
            body: Some(body),
            ..self
        }
    }

    fn volatile(self) -> Case {
        Case {
            volatile: true,
            ..self
        }
    }
}

/// Transport parity as a table: the same request, sent as a line to a line
/// daemon and as a body to the op's endpoint on an HTTP daemon, gets the
/// byte-identical response body and moves the same per-op counters — for
/// every op and every reject class.
#[test]
fn every_op_and_reject_answers_and_counts_alike_on_both_transports() {
    let options = ServeOptions {
        max_line_bytes: 8 << 10,
        ..http_options()
    };
    let (http_addr, http_handle) = start_http(options);
    let (line_addr, line_handle) = start_http(ServeOptions {
        http: false,
        ..options
    });
    let mut http = HttpClient::connect(http_addr).unwrap();
    let mut line = Client::connect(line_addr).unwrap();

    let oversized = format!(
        r#"{{"op":"query","program":"/{{x:a}}/","doc":"{}"}}"#,
        "a".repeat(9 << 10)
    );
    let cases = [
        case(
            "prepare",
            r#"{"op":"prepare","program":"/{x:a+}b*/"}"#,
            "/v1/prepare",
            "prepare",
            200,
        ),
        case(
            "query",
            r#"{"op":"query","program":"/{x:a+}b*/","doc":"aab \"é\" 𝄞"}"#,
            "/v1/query",
            "query",
            200,
        ),
        case(
            "explain",
            r#"{"op":"explain","program":"/{x:a+}b*/"}"#,
            "/v1/explain",
            "explain",
            200,
        ),
        case(
            "explain analyze",
            r#"{"op":"explain","program":"/{x:a+}b*/","analyze":true,"doc":"aab"}"#,
            "/v1/explain",
            "explain",
            200,
        )
        .volatile(),
        case(
            "query_corpus before load",
            r#"{"op":"query_corpus","program":"/{x:a+}b*/"}"#,
            "/v1/query_corpus",
            "query_corpus",
            400,
        ),
        case(
            "load_corpus json",
            r#"{"op":"load_corpus","text":"aa\nb\nabab\n\naaa bb"}"#,
            "/v1/corpus",
            "load_corpus",
            200,
        ),
        case(
            "load_corpus raw",
            r#"{"op":"load_corpus","text":"aa\nb\nabab\n\naaa bb"}"#,
            "/v1/corpus",
            "load_corpus",
            200,
        )
        .body(Body::Raw("aa\nb\nabab\n\naaa bb")),
        case(
            "append_docs json",
            r#"{"op":"append_docs","text":"aaaa\nzz"}"#,
            "/v1/corpus/append",
            "append_docs",
            200,
        ),
        case(
            "append_docs raw",
            r#"{"op":"append_docs","text":"ab"}"#,
            "/v1/corpus/append",
            "append_docs",
            200,
        )
        .body(Body::Raw("ab")),
        case(
            "update_doc",
            r#"{"op":"update_doc","line":1,"text":"baa"}"#,
            "/v1/corpus/update",
            "update_doc",
            200,
        ),
        case(
            "update_doc out of range",
            r#"{"op":"update_doc","line":99,"text":"x"}"#,
            "/v1/corpus/update",
            "update_doc",
            400,
        ),
        case(
            "delete_docs",
            r#"{"op":"delete_docs","lines":[0]}"#,
            "/v1/corpus/delete",
            "delete_docs",
            200,
        ),
        case(
            "query_corpus resident",
            r#"{"op":"query_corpus","program":"/{x:a+}b*/"}"#,
            "/v1/query_corpus",
            "query_corpus",
            200,
        ),
        case(
            "query_corpus text",
            r#"{"op":"query_corpus","program":"/{x:a+}b*/","text":"aa\nb\nabab"}"#,
            "/v1/query_corpus",
            "query_corpus",
            200,
        ),
        case(
            "bad program",
            r#"{"op":"query","program":"/{x:/","doc":"a"}"#,
            "/v1/query",
            "query",
            400,
        ),
        case("stats", r#"{"op":"stats"}"#, "/v1/stats", "stats", 200).volatile(),
        // A body-level `op` never overrides the path.
        case(
            "mismatched body op",
            r#"{"op":"query","program":"/{x:a}/","doc":"a"}"#,
            "/v1/query",
            "query",
            200,
        )
        .body(Body::Json(
            r#"{"op":"shutdown","program":"/{x:a}/","doc":"a"}"#,
        )),
        // Rejects both transports word alike.
        case(
            "malformed JSON",
            r#"{"op":"query","program": "#,
            "/v1/query",
            "invalid",
            400,
        ),
        case(
            "missing field",
            r#"{"op":"query","program":"/a/"}"#,
            "/v1/query",
            "invalid",
            400,
        ),
        case(
            "mistyped field",
            r#"{"op":"update_doc","line":"1","text":"x"}"#,
            "/v1/corpus/update",
            "invalid",
            400,
        ),
        // Rejects each transport words its own way: same class, same
        // accounting.
        case(
            "not an object",
            r#"["op","query"]"#,
            "/v1/query",
            "invalid",
            400,
        )
        .volatile(),
        case(
            "unknown op or path",
            r#"{"op":"frobnicate"}"#,
            "/v1/frobnicate",
            "invalid",
            404,
        )
        .volatile(),
        case("oversized", &oversized, "/v1/query", "invalid", 413).volatile(),
    ];

    for case in cases {
        let Case { name, op, .. } = case;
        let before = (
            tally(&line.stats().unwrap(), op),
            tally(&http.get("/v1/stats").unwrap().json().unwrap(), op),
        );
        let line_response = line.request_line(&case.line).unwrap();
        let http_response = match case.body {
            Some(Body::Raw(text)) => http.post_text(case.path, text),
            // `post_json` re-renders its value — to the identical bytes, for
            // these canonical texts; an undecodable one goes out as it is.
            Some(Body::Json(text)) => http.post_json(case.path, &Json::parse(text).unwrap()),
            None => match Json::parse(&case.line) {
                Ok(value) => http.post_json(case.path, &value),
                Err(_) => http.post_text(case.path, &case.line),
            },
        }
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        let http_text = http_response.text();
        assert_eq!(http_response.status, case.status, "{name}: {http_text}");
        if case.status == 413 {
            // The unread body left the stream unframed: the server closed.
            http = HttpClient::connect(http_addr).unwrap();
        }

        // Same answer…
        let ok = case.status == 200;
        let mut answers = [&line_response, &http_text].map(|text| Json::parse(text).unwrap());
        for answer in &answers {
            assert_eq!(
                answer.get("ok").and_then(Json::as_bool),
                Some(ok),
                "{name}: {answer}"
            );
        }
        if !case.volatile {
            assert_eq!(http_text, line_response, "{name}: not byte-identical");
        } else if ok {
            answers.iter_mut().for_each(scrub);
            assert_eq!(answers[1].to_string(), answers[0].to_string(), "{name}");
        }

        // … and the same accounting, under the same op.
        let after = (
            tally(&line.stats().unwrap(), op),
            tally(&http.get("/v1/stats").unwrap().json().unwrap(), op),
        );
        // The second probe is a `stats` request itself (the first is in
        // its own snapshot: requests are counted on arrival).
        let expected = (1 + usize::from(op == "stats"), usize::from(!ok));
        for (transport, before, after) in [("line", before.0, after.0), ("http", before.1, after.1)]
        {
            assert_eq!(
                (after.0 - before.0, after.1 - before.1),
                expected,
                "{name}: ops.{op} over {transport}"
            );
        }
    }

    shutdown(http_addr, http_handle);
    line.shutdown().unwrap();
    line_handle.join().unwrap().unwrap();
}

#[test]
fn cap_and_method_rejections_use_the_right_status_codes() {
    let (addr, handle) = start_http(http_options());

    // Oversized head: a header far past max_head_bytes → 431.
    let huge_header = format!(
        "GET /healthz HTTP/1.1\r\nX-Filler: {}\r\n\r\n",
        "x".repeat(4 << 10)
    );
    let response = raw_exchange(addr, huge_header.as_bytes());
    assert_eq!(status_of(&response), Some(431), "oversized head");

    // Oversized body, declared up front: rejected without reading → 413.
    let huge_body = format!(
        "POST /v1/query HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        1 << 20
    );
    let response = raw_exchange(addr, huge_body.as_bytes());
    assert_eq!(status_of(&response), Some(413), "oversized body");

    // Unparseable Content-Length → 400. Only `1*DIGIT` frames a body
    // (RFC 9110 §8.6): `+5` parses as a `usize`, but a proxy in front
    // would refuse it, and the two must not frame the bytes differently.
    let body = r#"{"program":"/{x:a}/","doc":"a"}"#;
    for length in ["banana".to_string(), format!("+{}", body.len())] {
        let request = format!("POST /v1/query HTTP/1.1\r\nContent-Length: {length}\r\n\r\n{body}");
        let response = raw_exchange(addr, request.as_bytes());
        assert_eq!(status_of(&response), Some(400), "content-length {length:?}");
    }

    // Two different lengths frame two different requests → 400 + close
    // (RFC 9112 §6.3); the first must not simply win.
    let body = b"{\"program\":\"/{x:a}/\",\"doc\":\"a\"}";
    let mut bytes = format!(
        "POST /v1/query HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\nContent-Length: 500\r\n\r\n",
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    let response = raw_exchange(addr, &bytes);
    assert_eq!(status_of(&response), Some(400), "conflicting lengths");
    assert!(
        String::from_utf8_lossy(&response).contains("Connection: close"),
        "an ambiguously framed request must not leave the connection open"
    );

    // No Content-Length means an empty body, never `411`: `curl -X POST
    // …/v1/shutdown` sends none. Bodiless ops answer; an op that needs
    // fields misses them (400), like an empty JSON object would.
    let response = raw_exchange(
        addr,
        b"POST /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&response), Some(200), "bodiless POST");
    let response = raw_exchange(
        addr,
        b"POST /v1/query HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status_of(&response), Some(400), "no length = empty body");
    assert!(
        String::from_utf8_lossy(&response).contains("`query` needs a string `program` field"),
        "{}",
        String::from_utf8_lossy(&response)
    );

    // Chunked request bodies are not supported → 501.
    let response = raw_exchange(
        addr,
        b"POST /v1/query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
    );
    assert_eq!(status_of(&response), Some(501), "chunked request");

    // Unknown path → 404; known path, wrong method → 405 with Allow.
    let response = raw_exchange(addr, b"GET /nope HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&response), Some(404), "unknown path");
    let response = raw_exchange(addr, b"DELETE /v1/query HTTP/1.1\r\n\r\n");
    assert_eq!(status_of(&response), Some(405), "wrong method");
    assert!(
        String::from_utf8_lossy(&response).contains("Allow: POST"),
        "405 must carry Allow"
    );
    // … as a header of its own, next to an untouched Content-Type.
    let text = String::from_utf8_lossy(&response);
    let headers: Vec<&str> = text.split("\r\n").take_while(|l| !l.is_empty()).collect();
    assert!(headers.contains(&"Allow: POST"), "{headers:?}");
    assert!(
        headers.contains(&"Content-Type: application/json"),
        "{headers:?}"
    );

    // Unsupported version → 400. Malformed request line → 400.
    let response = raw_exchange(addr, b"GET /healthz HTTP/2\r\n\r\n");
    assert_eq!(status_of(&response), Some(400), "bad version");
    let response = raw_exchange(addr, b"GARBAGE\r\n\r\n");
    assert_eq!(status_of(&response), Some(400), "garbage request line");

    // Malformed JSON body → 400 with the parse error in the JSON body.
    let body = b"{\"program\": ";
    let request = format!(
        "POST /v1/query HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut bytes = request.into_bytes();
    bytes.extend_from_slice(body);
    let response = raw_exchange(addr, &bytes);
    assert_eq!(status_of(&response), Some(400), "malformed JSON body");

    shutdown(addr, handle);
}

#[test]
fn torn_and_pipelined_requests_are_framed_correctly() {
    let (addr, handle) = start_http(http_options());

    // Torn request: half a head, then close. The server must just close
    // (nothing to respond to) and stay healthy.
    let response = raw_exchange(addr, b"GET /heal");
    assert!(response.is_empty(), "torn head gets no response");

    // Torn body: head promises more bytes than arrive.
    let response = raw_exchange(
        addr,
        b"POST /v1/query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{",
    );
    assert!(response.is_empty(), "torn body gets no response");

    // Pipelined: two requests in one write; two responses, in order, on
    // one connection.
    let response = raw_exchange(
        addr,
        b"GET /healthz HTTP/1.1\r\n\r\nGET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n",
    );
    let text = String::from_utf8_lossy(&response);
    let responses = text.matches("HTTP/1.1 200 OK").count();
    assert_eq!(
        responses, 2,
        "pipelined requests each get a response:\n{text}"
    );
    assert!(text.contains("\"uptime_s\""), "{text}");
    assert!(text.contains("\"cache\""), "{text}");

    // An Expect: 100-continue request gets the interim response before
    // the final one.
    let body = b"{\"program\":\"/{x:a}/\",\"doc\":\"a\"}";
    let head = format!(
        "POST /v1/query HTTP/1.1\r\nExpect: 100-continue\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body);
    let response = raw_exchange(addr, &bytes);
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 100 Continue"), "{text}");
    assert!(text.contains("HTTP/1.1 200 OK"), "{text}");

    // HTTP/1.0 defaults to close: the server answers and closes.
    let response = raw_exchange(addr, b"GET /healthz HTTP/1.0\r\n\r\n");
    assert_eq!(status_of(&response), Some(200));
    assert!(
        String::from_utf8_lossy(&response).contains("Connection: close"),
        "HTTP/1.0 must not keep alive"
    );

    shutdown(addr, handle);
}

/// A tiny deterministic generator for the fuzzer.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        self.0 = x;
        x
    }
}

/// Seed-driven mutation fuzz over raw request bytes: whatever arrives,
/// the server answers or closes cleanly — it never panics, never hangs,
/// and `/healthz` answers after every case.
#[test]
fn fuzzed_request_bytes_never_kill_the_server() {
    let (addr, handle) = start_http(http_options());

    let bases: Vec<Vec<u8>> = vec![
        b"GET /healthz HTTP/1.1\r\n\r\n".to_vec(),
        b"GET /metrics HTTP/1.1\r\n\r\n".to_vec(),
        b"POST /v1/query HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 31\r\n\r\n{\"program\":\"/{x:a}/\",\"doc\":\"a\"}".to_vec(),
        b"POST /v1/corpus HTTP/1.1\r\nContent-Length: 8\r\n\r\naa\nb\naaa".to_vec(),
        b"POST /v1/query_corpus HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: 40\r\n\r\n{\"program\":\"/{x:a+}/\",\"text\":\"aa\\nb\\na\"}".to_vec(),
        b"POST /v1/query HTTP/1.1\r\nContent-Length: 31\r\nContent-Length: 13\r\n\r\n{\"program\":\"/{x:a}/\",\"doc\":\"a\"}".to_vec(),
    ];

    for seed in 0..120u64 {
        let mut rng = XorShift(seed);
        let mut bytes = bases[(rng.next() as usize) % bases.len()].clone();
        // 1–4 mutations: truncate, flip, insert garbage, duplicate a
        // slice, or scramble a digit (Content-Length corruption).
        for _ in 0..1 + rng.next() % 4 {
            if bytes.is_empty() {
                break;
            }
            let at = (rng.next() as usize) % bytes.len();
            match rng.next() % 5 {
                0 => bytes.truncate(at),
                1 => bytes[at] = (rng.next() & 0xff) as u8,
                2 => {
                    let garbage: Vec<u8> = (0..rng.next() % 16)
                        .map(|_| (rng.next() & 0xff) as u8)
                        .collect();
                    bytes.splice(at..at, garbage);
                }
                3 => {
                    let end = at + ((rng.next() as usize) % (bytes.len() - at));
                    let copy: Vec<u8> = bytes[at..end].to_vec();
                    bytes.extend_from_slice(&copy);
                }
                _ => {
                    if let Some(digit) = bytes.iter().position(u8::is_ascii_digit) {
                        bytes[digit] = b'0' + (rng.next() % 10) as u8;
                    }
                }
            }
        }
        // The server must resolve the connection: a response or a clean
        // close, within the read timeout — never a hang, never a panic.
        let _ = raw_exchange(addr, &bytes);

        // Liveness probe after every case.
        let mut probe = HttpClient::connect(addr).expect("server still accepting");
        let health = probe.get("/healthz").expect("server still answering");
        assert_eq!(health.status, 200, "seed {seed}: healthz after fuzz case");
    }

    shutdown(addr, handle);
}

/// The line transport's `split_character_spans_are_answered_on_every_path`
/// over HTTP: one more split-character query than there are workers, each
/// on its own connection and bounded by `raw_exchange`'s read timeout —
/// each used to kill the worker that served it and get an empty reply —
/// then the liveness probe.
#[test]
fn split_character_queries_leave_every_worker_alive() {
    let options = http_options();
    let (addr, handle) = start_http(options);
    let body = r#"{"program":"/.*{x:.}.*/","doc":"é"}"#;
    let request = format!(
        "POST /v1/query HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    for _ in 0..options.threads + 1 {
        let response = raw_exchange(addr, request.as_bytes());
        assert_eq!(status_of(&response), Some(200));
        let text = String::from_utf8(response).unwrap();
        let (_, body) = text.split_once("\r\n\r\n").unwrap();
        let halves =
            r#""mappings":[{"x":{"span":[1,2],"text":"?"}},{"x":{"span":[2,3],"text":"?"}}]"#
                .replace('?', "\u{fffd}");
        assert!(body.contains(&halves), "{body}");
    }
    let health = raw_exchange(addr, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status_of(&health), Some(200));
    shutdown(addr, handle);
}

/// A raw ingest body that is not UTF-8 is refused with a 400, on both
/// ingest endpoints, and the resident store is left as it was: decoding it
/// lossily would turn `0xFF` (1 byte) into U+FFFD (3 bytes) and move every
/// later span away from the client's own byte offsets.
#[test]
fn non_utf8_raw_ingest_is_refused_and_leaves_the_store_alone() {
    let (addr, handle) = start_http(http_options());
    let mut client = HttpClient::connect(addr).unwrap();
    assert_eq!(
        client.post_text("/v1/corpus", "abcd\ncd").unwrap().status,
        200
    );
    let store = |client: &mut HttpClient| {
        let stats = client.get("/v1/stats").unwrap().json().unwrap();
        stats.get("store").unwrap().to_string()
    };
    let before = store(&mut client);
    assert!(before.contains(r#""documents":2,"bytes":6"#), "{before}");
    for path in ["/v1/corpus", "/v1/corpus/append"] {
        let body = b"ab\xffcd\nabcd\n";
        let request = format!(
            "POST {path} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let response = raw_exchange(addr, &[request.as_bytes(), body].concat());
        assert_eq!(status_of(&response), Some(400), "{path}");
        let text = String::from_utf8(response).unwrap();
        assert!(text.contains("request body is not UTF-8"), "{path}: {text}");
        assert_eq!(store(&mut client), before, "{path}");
    }
    shutdown(addr, handle);
}
