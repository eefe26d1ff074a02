//! The line-delimited JSON request/response protocol.
//!
//! Each request is one JSON object on one line; each response is one JSON
//! object on one line. A request line must be UTF-8, as an HTTP JSON body
//! must: anything else is answered `request line is not UTF-8` and counted
//! under the `invalid` op. A connection carries any number of requests in
//! sequence (the protocol is strictly request/response, no pipelining
//! required on the client side, though the server answers in order).
//!
//! Requests (`op` selects the operation):
//!
//! | `op` | fields | effect |
//! |---|---|---|
//! | `prepare` | `program` | compile into the cache, report the plan outline |
//! | `query` | `program`, `doc` | evaluate on one document |
//! | `load_corpus` | `text` | ingest every line of `text` into the resident trigram-indexed store |
//! | `append_docs` | `text` | append every line of `text` to the resident store |
//! | `update_doc` | `line`, `text` | replace resident document `line` (0-based) with `text` |
//! | `delete_docs` | `lines` | tombstone the given resident document ids (applied in order) |
//! | `query_corpus` | `program`, `text`? | evaluate every line of `text` as its own document; with `text` omitted, run against the resident store incrementally through its maintained query view and trigram index |
//! | `explain` | `program`, `analyze`?, `doc`? | the full multi-line explain, as a string; with `"analyze": true` (which requires `doc`) the query actually runs and the response adds the measured per-operator trace |
//! | `stats` | — | cache + server counters |
//! | `metrics` | — | the whole metrics registry, rendered in Prometheus text exposition format |
//! | `shutdown` | — | stop accepting, drain, exit |
//!
//! Every response carries `"ok"`; failures are
//! `{"ok":false,"error":"…"}` and never tear the connection down — a
//! request whose handling panics included (`"internal error: …"`, with
//! `"internal":true`). Span positions use the paper's 1-based
//! `[start, end⟩` convention, matching the rest of the workspace, and count
//! **bytes**: `.` and the classes match one byte, so a span may begin or
//! end inside a multi-byte character. The `text` beside a span is the
//! covered bytes decoded lossily — a split character renders as U+FFFD —
//! while the span itself stays exact.

use crate::json::{self, Json};
use spanner_core::{Document, MappingSet};
use spanner_obs::TraceNode;

/// A decoded protocol request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Compile `program` into the cache without evaluating it.
    Prepare {
        /// SpannerQL program text.
        program: String,
    },
    /// Evaluate `program` on one document.
    Query {
        /// SpannerQL program text.
        program: String,
        /// The document text.
        doc: String,
    },
    /// Ingest a corpus into the resident trigram-indexed store, one line
    /// per document. Later `query_corpus` requests without `text` run
    /// against it without shipping documents per request.
    LoadCorpus {
        /// The corpus: one document per line.
        text: String,
    },
    /// Append every line of `text` to the resident store as new
    /// documents. The store's maintained query views pick the delta up on
    /// the next `query_corpus`.
    AppendDocs {
        /// The new documents: one per line.
        text: String,
    },
    /// Replace one resident document's content.
    UpdateDoc {
        /// The document id (0-based corpus line).
        line: u32,
        /// The new document text.
        text: String,
    },
    /// Tombstone resident documents (their slots become empty documents;
    /// ids stay stable). Applied in order; the first out-of-bounds id
    /// aborts with an error.
    DeleteDocs {
        /// The document ids to delete.
        lines: Vec<u32>,
    },
    /// Evaluate `program` over a corpus: every line of `text` as its own
    /// document, or — with `text` omitted — the resident store loaded by
    /// [`Request::LoadCorpus`], pruned through its trigram index.
    QueryCorpus {
        /// SpannerQL program text.
        program: String,
        /// The corpus, one document per line; `None` targets the resident
        /// store.
        text: Option<String>,
    },
    /// Render the full explain output of `program`; with `analyze` set,
    /// run it on `doc` through the traced executor and report the
    /// measured per-operator tree as well.
    Explain {
        /// SpannerQL program text.
        program: String,
        /// Whether to actually execute and report measurements
        /// (`"analyze": true`); requires `doc`.
        analyze: bool,
        /// The document to analyze on (required iff `analyze`).
        doc: Option<String>,
    },
    /// Report cache and server counters.
    Stats,
    /// Render the metrics registry in Prometheus text exposition format.
    Metrics,
    /// Stop accepting connections, drain in-flight work, and exit.
    Shutdown,
}

impl Request {
    /// Every protocol op, in the order of the table above. The per-op
    /// metric labels, the unknown-op diagnosis and the HTTP endpoint table
    /// are all derived from this one list.
    pub const OPS: [&'static str; 11] = [
        "prepare",
        "query",
        "load_corpus",
        "append_docs",
        "update_doc",
        "delete_docs",
        "query_corpus",
        "explain",
        "stats",
        "metrics",
        "shutdown",
    ];

    /// Decodes one request line. Errors are human-readable strings, ready
    /// for an error response.
    pub fn parse(line: &str) -> Result<Request, String> {
        let mut value = Json::parse(line).map_err(|e| e.to_string())?;
        match value.take("op") {
            Some(Json::Str(op)) => Request::from_json(&op, value),
            _ => Err("request object needs a string `op` field".to_string()),
        }
    }

    /// Decodes the request `op` from its fields object — the one decoder
    /// behind both transports (the line protocol reads `op` off the object,
    /// HTTP off the path). Consumes `fields`: document and program strings
    /// are moved into the request, not copied. Members the op does not
    /// define are ignored.
    pub fn from_json(op: &str, mut fields: Json) -> Result<Request, String> {
        let fields = &mut fields;
        match op {
            "prepare" => Ok(Request::Prepare {
                program: string(fields, op, "program")?,
            }),
            "query" => Ok(Request::Query {
                program: string(fields, op, "program")?,
                doc: string(fields, op, "doc")?,
            }),
            "load_corpus" => Ok(Request::LoadCorpus {
                text: string(fields, op, "text")?,
            }),
            "append_docs" => Ok(Request::AppendDocs {
                text: string(fields, op, "text")?,
            }),
            "update_doc" => Ok(Request::UpdateDoc {
                line: fields
                    .take("line")
                    .and_then(|v| doc_id(&v))
                    .ok_or_else(|| format!("`{op}` needs a document-id `line` field"))?,
                text: string(fields, op, "text")?,
            }),
            "delete_docs" => {
                let Some(Json::Array(lines)) = fields.take("lines") else {
                    return Err(format!("`{op}` needs a `lines` array field"));
                };
                let lines = lines
                    .iter()
                    .map(|v| {
                        doc_id(v).ok_or_else(|| {
                            format!("`{op}` needs `lines` entries to be document ids")
                        })
                    })
                    .collect::<Result<Vec<u32>, String>>()?;
                Ok(Request::DeleteDocs { lines })
            }
            "query_corpus" => Ok(Request::QueryCorpus {
                program: string(fields, op, "program")?,
                text: optional_string(fields, op, "text")?,
            }),
            "explain" => {
                let analyze = match fields.take("analyze") {
                    None => false,
                    Some(v) => v
                        .as_bool()
                        .ok_or("`explain` needs a boolean `analyze` field")?,
                };
                let doc = optional_string(fields, op, "doc")?;
                if analyze && doc.is_none() {
                    return Err("`explain` with `\"analyze\": true` needs a `doc` field \
                                to run the query on"
                        .to_string());
                }
                Ok(Request::Explain {
                    program: string(fields, op, "program")?,
                    analyze,
                    doc,
                })
            }
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => {
                let (last, rest) = Request::OPS.split_last().expect("OPS is not empty");
                Err(format!(
                    "unknown op `{other}` (expected {}, or {last})",
                    rest.join(", ")
                ))
            }
        }
    }

    /// Encodes this request as the object [`Request::parse`] decodes — the
    /// one encoder: every typed [`crate::Client`] method is built on it.
    /// Optional members are omitted when
    /// unset, so `from_json(to_json(r)) == r` for every request.
    pub fn to_json(&self) -> Json {
        let text = |s: &String| Json::string(s.as_str());
        let mut fields = vec![("op", Json::string(self.op_name()))];
        match self {
            Request::Prepare { program } => fields.push(("program", text(program))),
            Request::Query { program, doc } => {
                fields.extend([("program", text(program)), ("doc", text(doc))]);
            }
            Request::LoadCorpus { text: corpus } | Request::AppendDocs { text: corpus } => {
                fields.push(("text", text(corpus)));
            }
            Request::UpdateDoc { line, text: doc } => {
                fields.extend([("line", Json::number(*line as usize)), ("text", text(doc))]);
            }
            Request::DeleteDocs { lines } => fields.push((
                "lines",
                Json::Array(lines.iter().map(|&id| Json::number(id as usize)).collect()),
            )),
            Request::QueryCorpus {
                program,
                text: corpus,
            } => {
                fields.push(("program", text(program)));
                fields.extend(corpus.as_ref().map(|corpus| ("text", text(corpus))));
            }
            Request::Explain {
                program,
                analyze,
                doc,
            } => {
                fields.push(("program", text(program)));
                fields.extend(analyze.then_some(("analyze", Json::Bool(true))));
                fields.extend(doc.as_ref().map(|doc| ("doc", text(doc))));
            }
            Request::Stats | Request::Metrics | Request::Shutdown => {}
        }
        Json::object(fields)
    }

    /// The protocol op name of this request — the `op` label of the
    /// per-operation request metrics, so every counter family partitions
    /// over exactly [`Request::OPS`] (plus `"invalid"` for input that never
    /// decodes to a request).
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Prepare { .. } => "prepare",
            Request::Query { .. } => "query",
            Request::LoadCorpus { .. } => "load_corpus",
            Request::AppendDocs { .. } => "append_docs",
            Request::UpdateDoc { .. } => "update_doc",
            Request::DeleteDocs { .. } => "delete_docs",
            Request::QueryCorpus { .. } => "query_corpus",
            Request::Explain { .. } => "explain",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Moves the string member `name` out of `fields`.
fn string(fields: &mut Json, op: &str, name: &str) -> Result<String, String> {
    match fields.take(name) {
        Some(Json::Str(value)) => Ok(value),
        _ => Err(format!("`{op}` needs a string `{name}` field")),
    }
}

/// Like [`string`] for a member that may be absent — but when present it
/// must be a string.
fn optional_string(fields: &mut Json, op: &str, name: &str) -> Result<Option<String>, String> {
    match fields.get(name) {
        None => Ok(None),
        Some(_) => string(fields, op, name).map(Some),
    }
}

/// Reads a whole-number JSON value as a `u32` document id.
fn doc_id(value: &Json) -> Option<u32> {
    value.as_usize().and_then(|id| u32::try_from(id).ok())
}

/// Builds the standard failure response.
pub fn error_response(message: impl std::fmt::Display) -> Json {
    Json::object([
        ("ok", Json::Bool(false)),
        ("error", Json::string(message.to_string())),
    ])
}

/// Renders a relation as a JSON array of mapping objects; each mapping
/// maps a variable name to `{"span":[start,end],"text":…}` with the
/// 1-based span convention over bytes; `text` is [`Document::slice`], lossy
/// where the span splits a character.
///
/// This is the *reference* renderer: the daemon never calls it. It writes
/// the same bytes with [`write_mappings`], and the tests that hold the
/// daemon's answers against in-process evaluation render the expected side
/// through this tree, so the two renderers check each other.
pub fn mappings_to_json(doc: &Document, set: &MappingSet) -> Json {
    Json::Array(
        set.iter()
            .map(|mapping| {
                Json::Object(
                    mapping
                        .iter()
                        .map(|(var, span)| {
                            (
                                var.to_string(),
                                Json::object([
                                    (
                                        "span",
                                        Json::Array(vec![
                                            Json::number(span.start as usize),
                                            Json::number(span.end as usize),
                                        ]),
                                    ),
                                    ("text", Json::string(doc.slice(span))),
                                ]),
                            )
                        })
                        .collect(),
                )
            })
            .collect(),
    )
}

/// Appends the rendering of [`mappings_to_json`]`(doc, set)` to `out`
/// without building it: no allocation beyond `out`'s own growth, however
/// many mappings, spans and texts the relation holds.
pub fn write_mappings(out: &mut Vec<u8>, doc: &Document, set: &MappingSet) {
    out.push(b'[');
    for (i, mapping) in set.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.push(b'{');
        for (j, (var, span)) in mapping.iter().enumerate() {
            if j > 0 {
                out.push(b',');
            }
            json::write_str(out, var.name());
            out.extend_from_slice(br#":{"span":["#);
            json::write_int(out, span.start.into());
            out.push(b',');
            json::write_int(out, span.end.into());
            out.extend_from_slice(br#"],"text":"#);
            json::write_lossy_str(out, &doc.bytes()[span.as_range()]);
            out.push(b'}');
        }
        out.push(b'}');
    }
    out.push(b']');
}

/// Renders an execution trace as the `explain` response's `trace` member:
/// `{"label":…,"rows":…,"nanos":…,"counters":{…},"children":[…]}`, with
/// counters in first-recorded order and children in plan order (the schema
/// in `docs/OPS.md`).
pub(crate) fn trace_to_json(trace: &TraceNode) -> Json {
    Json::object([
        ("label", Json::string(trace.label.as_str())),
        ("rows", Json::Number(trace.rows as f64)),
        ("nanos", Json::Number(trace.nanos as f64)),
        (
            "counters",
            Json::Object(
                trace
                    .counters
                    .iter()
                    .map(|(name, value)| (name.clone(), Json::Number(*value as f64)))
                    .collect(),
            ),
        ),
        (
            "children",
            Json::Array(trace.children.iter().map(trace_to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_ql::PreparedQuery;

    /// One request line per op and optional-member combination.
    const LINES: [(&str, &str); 13] = [
        (r#"{"op":"prepare","program":"/a/"}"#, "prepare"),
        (r#"{"op":"query","program":"/a/","doc":"aa"}"#, "query"),
        (r#"{"op":"load_corpus","text":"a\nb"}"#, "load_corpus"),
        (r#"{"op":"append_docs","text":"a\nb"}"#, "append_docs"),
        (r#"{"op":"update_doc","line":3,"text":"new"}"#, "update_doc"),
        (r#"{"op":"delete_docs","lines":[0,2]}"#, "delete_docs"),
        (
            r#"{"op":"query_corpus","program":"/a/","text":"a\nb"}"#,
            "query_corpus",
        ),
        (r#"{"op":"query_corpus","program":"/a/"}"#, "query_corpus"),
        (r#"{"op":"explain","program":"/a/"}"#, "explain"),
        (
            r#"{"op":"explain","program":"/a/","analyze":true,"doc":"aa"}"#,
            "explain",
        ),
        (r#"{"op":"stats"}"#, "stats"),
        (r#"{"op":"metrics"}"#, "metrics"),
        (r#"{"op":"shutdown"}"#, "shutdown"),
    ];

    #[test]
    fn every_op_parses() {
        for (line, op) in LINES {
            let request = Request::parse(line).unwrap();
            assert_eq!(request.op_name(), op, "{line}");
            match (op, &request) {
                ("prepare", Request::Prepare { .. })
                | ("query", Request::Query { .. })
                | ("load_corpus", Request::LoadCorpus { .. })
                | ("append_docs", Request::AppendDocs { .. })
                | ("update_doc", Request::UpdateDoc { .. })
                | ("delete_docs", Request::DeleteDocs { .. })
                | ("query_corpus", Request::QueryCorpus { .. })
                | ("explain", Request::Explain { .. })
                | ("stats", Request::Stats)
                | ("metrics", Request::Metrics)
                | ("shutdown", Request::Shutdown) => {}
                _ => panic!("{line} parsed to {request:?}"),
            }
            // The canonical lines are exactly what the encoder writes, and
            // decoding ignores members the op does not define — so an HTTP
            // body that repeats (or contradicts) the path's op is harmless.
            assert_eq!(request.to_json().to_string(), line);
            let fields = Json::parse(line).unwrap();
            assert_eq!(Request::from_json(op, fields), Ok(request), "{line}");
        }
        // Plain explain defaults to no analysis; analyze carries the doc.
        assert_eq!(
            Request::parse(r#"{"op":"explain","program":"/a/"}"#).unwrap(),
            Request::Explain {
                program: "/a/".into(),
                analyze: false,
                doc: None,
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"explain","program":"/a/","analyze":true,"doc":"aa"}"#)
                .unwrap(),
            Request::Explain {
                program: "/a/".into(),
                analyze: true,
                doc: Some("aa".into()),
            }
        );
        // An omitted `text` targets the resident store, not an error.
        assert_eq!(
            Request::parse(r#"{"op":"query_corpus","program":"/a/"}"#).unwrap(),
            Request::QueryCorpus {
                program: "/a/".into(),
                text: None,
            }
        );
        // Mutation ops decode ids as numbers.
        assert_eq!(
            Request::parse(r#"{"op":"update_doc","line":3,"text":"new"}"#).unwrap(),
            Request::UpdateDoc {
                line: 3,
                text: "new".into(),
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"delete_docs","lines":[2,0,2]}"#).unwrap(),
            Request::DeleteDocs {
                lines: vec![2, 0, 2],
            }
        );
        assert_eq!(
            Request::parse(r#"{"op":"delete_docs","lines":[]}"#).unwrap(),
            Request::DeleteDocs { lines: vec![] }
        );
    }

    /// The wire format is a round trip: whatever strings a request carries,
    /// `to_json` renders a line that `parse` (and `from_json`) decode back
    /// to the same request.
    #[test]
    fn every_request_survives_the_wire() {
        let strings = [
            "",
            "plain",
            "q\"uote",
            "back\\slash",
            "new\nline\ttab",
            "𝄞 é \u{1}",
        ];
        let mut requests = vec![Request::Stats, Request::Metrics, Request::Shutdown];
        for (i, s) in strings.iter().enumerate() {
            let (s, other) = (s.to_string(), strings[(i + 1) % strings.len()].to_string());
            requests.extend([
                Request::Prepare { program: s.clone() },
                Request::Query {
                    program: s.clone(),
                    doc: other.clone(),
                },
                Request::LoadCorpus { text: s.clone() },
                Request::AppendDocs { text: s.clone() },
                Request::UpdateDoc {
                    line: u32::MAX - i as u32,
                    text: s.clone(),
                },
                Request::DeleteDocs {
                    lines: (0..i as u32).map(|id| id * 7).collect(),
                },
                Request::QueryCorpus {
                    program: s.clone(),
                    text: Some(other.clone()),
                },
                Request::QueryCorpus {
                    program: s.clone(),
                    text: None,
                },
                Request::Explain {
                    program: s.clone(),
                    analyze: false,
                    doc: None,
                },
                Request::Explain {
                    program: s.clone(),
                    analyze: false,
                    doc: Some(other.clone()),
                },
                Request::Explain {
                    program: s,
                    analyze: true,
                    doc: Some(other),
                },
            ]);
        }
        for request in requests {
            let json = request.to_json();
            let line = json.to_string();
            assert!(!line.contains('\n'), "one request, one line: {line}");
            assert_eq!(Request::parse(&line).as_ref(), Ok(&request), "{line}");
            assert_eq!(
                Request::from_json(request.op_name(), json),
                Ok(request),
                "{line}"
            );
        }
    }

    /// `OPS` is the one op table: exactly the names requests report, each
    /// decodable, and the unknown-op diagnosis lists all of them.
    #[test]
    fn the_op_table_is_the_set_of_op_names() {
        let mut named: Vec<&str> = LINES
            .iter()
            .map(|(line, _)| Request::parse(line).unwrap().op_name())
            .collect();
        named.dedup();
        assert_eq!(named, Request::OPS);
        let unknown = Request::from_json("frobnicate", Json::Null).unwrap_err();
        assert_eq!(
            unknown,
            "unknown op `frobnicate` (expected prepare, query, load_corpus, \
             append_docs, update_doc, delete_docs, query_corpus, explain, \
             stats, metrics, or shutdown)"
        );
    }

    #[test]
    fn malformed_requests_are_diagnosed() {
        for (line, needle) in [
            ("", "invalid JSON"),
            ("not json", "invalid JSON"),
            ("[1,2]", "`op` field"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"query","program":"/a/"}"#, "`doc`"),
            (r#"{"op":"query","doc":"aa"}"#, "`program`"),
            (r#"{"op":"query","program":7,"doc":"aa"}"#, "`program`"),
            (r#"{"op":"load_corpus"}"#, "`text`"),
            (
                r#"{"op":"query_corpus","program":"/a/","text":7}"#,
                "`text`",
            ),
            (
                r#"{"op":"explain","program":"/a/","analyze":true}"#,
                "`doc`",
            ),
            (
                r#"{"op":"explain","program":"/a/","analyze":"yes"}"#,
                "`analyze`",
            ),
            (r#"{"op":"append_docs"}"#, "`text`"),
            (r#"{"op":"update_doc","text":"x"}"#, "`line`"),
            (r#"{"op":"update_doc","line":-1,"text":"x"}"#, "`line`"),
            (r#"{"op":"update_doc","line":1.5,"text":"x"}"#, "`line`"),
            // JSON has no leading zeros: not line 1.
            (
                r#"{"op":"update_doc","line":01,"text":"x"}"#,
                "invalid number `01`",
            ),
            (r#"{"op":"update_doc","line":0}"#, "`text`"),
            (r#"{"op":"delete_docs"}"#, "`lines`"),
            (r#"{"op":"delete_docs","lines":[0,"x"]}"#, "document ids"),
            // A raw tab inside a string: JSON requires `\t`.
            (
                "{\"op\":\"query\",\"program\":\"/a/\",\"doc\":\"a\tb\"}",
                "unescaped control character",
            ),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line:?}: {err}");
        }
    }

    /// The writer and the reference tree render every relation to the same
    /// bytes: escapes, multi-byte text, split characters, empty spans, many
    /// variables, many mappings, no mappings.
    #[test]
    fn mappings_render_with_paper_spans() {
        // The mapping count and the reference rendering, once the writer
        // has been held to the same bytes (after a prefix it must keep).
        let render = |program: &str, text: &str| {
            let doc = Document::new(text);
            let set = PreparedQuery::prepare(program)
                .unwrap()
                .evaluate(&doc)
                .unwrap();
            let reference = mappings_to_json(&doc, &set).to_string();
            let mut written = b"prefix".to_vec();
            write_mappings(&mut written, &doc, &set);
            assert_eq!(written.strip_prefix(b"prefix"), Some(reference.as_bytes()));
            (set.len(), reference)
        };
        for (program, text, expected) in [
            // x = [1,3⟩ covering "aa" in the 1-based convention.
            ("/{x:a+}b/", "aab", r#"[{"x":{"span":[1,3],"text":"aa"}}]"#),
            // `.` is one byte: each span splits the character (U+FFFD).
            (
                "/.*{x:.}.*/",
                "é",
                r#"[{"x":{"span":[1,2],"text":"�"}},{"x":{"span":[2,3],"text":"�"}}]"#,
            ),
            ("/a{x:}b/", "ab", r#"[{"x":{"span":[2,2],"text":""}}]"#),
            ("/{x:a}/", "b", "[]"),
        ] {
            assert_eq!(render(program, text).1, expected, "{program}");
        }
        let controls: String = (1u8..0x20).map(char::from).collect();
        for (program, text, mappings) in [
            ("/.*{x:[^a]+}a/", "q\"b\\c\td\ne a", 10),
            ("/{x:.*}/", &controls, 1),
            ("/{x:a}{y:.*}/", "aéé𝄞", 1),
            ("/{x:a}{y:b}{z:c*}/", "abcc", 1),
            ("/.*{x:a+}.*/", "aaa", 6),
        ] {
            assert_eq!(render(program, text).0, mappings, "{program}");
        }
    }

    #[test]
    fn trace_json_is_well_formed_and_escaped() {
        let mut node = TraceNode::new("say \"hi\"\n");
        node.add("k\\v", 1);
        assert_eq!(
            trace_to_json(&node).to_string(),
            r#"{"label":"say \"hi\"\n","rows":0,"nanos":0,"counters":{"k\\v":1},"children":[]}"#
        );
        let mut join = TraceNode::new("⋈ (shared: x)");
        join.rows = 4;
        join.children = vec![
            TraceNode::new("scan [compiled]"),
            TraceNode::new("scan [boxed]"),
        ];
        let nested = trace_to_json(&join).to_string();
        assert!(
            nested.contains(r#""children":[{"label":"scan [compiled]""#),
            "{nested}"
        );
    }

    #[test]
    fn error_response_shape() {
        let e = error_response("boom");
        assert_eq!(e.to_string(), r#"{"ok":false,"error":"boom"}"#);
    }
}
