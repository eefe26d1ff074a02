//! A small synchronous client for the serve protocol.
//!
//! One [`Client`] wraps one TCP connection; every call writes one request
//! line and reads one response line. The CLI `client` subcommand, the
//! protocol tests and the serve benchmark all drive the daemon through
//! this type, and every typed method encodes its request with
//! [`Request::to_json`], so the protocol has exactly one encoder.

use crate::conn::{line_frame, Conn, Frame, Limits, POLL_INTERVAL};
use crate::json::Json;
use crate::protocol::Request;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// A connected protocol client.
#[derive(Debug)]
pub struct Client {
    conn: Conn,
    /// Overall per-request response deadline; `None` waits forever (the
    /// interactive CLI default).
    deadline: Option<Duration>,
}

impl Client {
    /// Connects to a running daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Ok(Client {
            conn: Conn::new(TcpStream::connect(addr)?)?,
            deadline: None,
        })
    }

    /// Bounds every subsequent request: a response that does not complete
    /// within `deadline` fails with [`io::ErrorKind::TimedOut`] instead
    /// of blocking forever. `None` restores unbounded waits.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) -> io::Result<()> {
        // The socket wakes every poll interval and the reader checks the
        // overall deadline: a slow-drip server feeding one byte per
        // interval must not reset the clock with every read.
        let stream = self.conn.stream();
        stream.set_read_timeout(deadline.map(|_| POLL_INTERVAL))?;
        stream.set_write_timeout(deadline)?;
        self.deadline = deadline;
        Ok(())
    }

    /// Sends one raw line and returns the raw response line (without the
    /// newline). The lowest-level escape hatch — the CLI uses it so users
    /// can type any JSON they like.
    pub fn request_line(&mut self, line: &str) -> io::Result<String> {
        // A failed earlier write may have left its line behind.
        self.conn.output.clear();
        self.conn.output.extend_from_slice(line.as_bytes());
        self.conn.output.push(b'\n');
        self.conn.flush()?;
        let limits = Limits {
            cap: usize::MAX,
            deadline: self.deadline.and_then(|d| Instant::now().checked_add(d)),
            stop: None,
        };
        // The response is framed as bytes and converted once: a poll tick
        // that lands inside a multi-byte character loses nothing.
        let closed = |message| Err(io::Error::new(io::ErrorKind::UnexpectedEof, message));
        match self.conn.read_frame(&limits, line_frame)? {
            Frame::Complete => {}
            Frame::Eof if self.conn.input.is_empty() => {
                return closed("server closed the connection");
            }
            // A server that closes mid-response must surface as an error,
            // not as a truncated "line".
            Frame::Eof => return closed("server closed the connection mid-response"),
            Frame::Expired => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "response deadline exceeded",
                ));
            }
            Frame::Oversized => unreachable!("responses are read without a cap"),
        }
        let mut response = std::mem::take(&mut self.conn.input);
        response.truncate(response.trim_ascii_end().len());
        String::from_utf8(response).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Sends one request value and parses the response.
    pub fn request(&mut self, request: &Json) -> io::Result<Json> {
        let line = self.request_line(&request.to_string())?;
        Json::parse(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// Sends one typed request.
    fn send(&mut self, request: Request) -> io::Result<Json> {
        self.request(&request.to_json())
    }

    /// `prepare`: compile `program` into the server's cache.
    pub fn prepare(&mut self, program: &str) -> io::Result<Json> {
        self.send(Request::Prepare {
            program: program.into(),
        })
    }

    /// `query`: evaluate `program` on one document.
    pub fn query(&mut self, program: &str, doc: &str) -> io::Result<Json> {
        self.send(Request::Query {
            program: program.into(),
            doc: doc.into(),
        })
    }

    /// `query_corpus`: evaluate `program` over every line of `text`.
    pub fn query_corpus(&mut self, program: &str, text: &str) -> io::Result<Json> {
        self.send(Request::QueryCorpus {
            program: program.into(),
            text: Some(text.into()),
        })
    }

    /// `load_corpus`: ingest every line of `text` into the server's
    /// resident trigram-indexed store.
    pub fn load_corpus(&mut self, text: &str) -> io::Result<Json> {
        self.send(Request::LoadCorpus { text: text.into() })
    }

    /// `append_docs`: append every line of `text` to the resident store.
    pub fn append_docs(&mut self, text: &str) -> io::Result<Json> {
        self.send(Request::AppendDocs { text: text.into() })
    }

    /// `update_doc`: replace resident document `line` (0-based) with
    /// `text`.
    pub fn update_doc(&mut self, line: u32, text: &str) -> io::Result<Json> {
        self.send(Request::UpdateDoc {
            line,
            text: text.into(),
        })
    }

    /// `delete_docs`: tombstone the given resident document ids.
    pub fn delete_docs(&mut self, lines: &[u32]) -> io::Result<Json> {
        self.send(Request::DeleteDocs {
            lines: lines.to_vec(),
        })
    }

    /// `query_corpus` without `text`: evaluate `program` against the
    /// resident store loaded by [`Client::load_corpus`], served
    /// incrementally through its maintained view and trigram index.
    pub fn query_store(&mut self, program: &str) -> io::Result<Json> {
        self.send(Request::QueryCorpus {
            program: program.into(),
            text: None,
        })
    }

    /// `explain`: the full explain rendering of `program`.
    pub fn explain(&mut self, program: &str) -> io::Result<Json> {
        self.send(Request::Explain {
            program: program.into(),
            analyze: false,
            doc: None,
        })
    }

    /// `explain` with `"analyze": true`: run `program` on `doc` through
    /// the traced executor and report the explain text annotated with the
    /// measured per-operator tree, plus the structured trace.
    pub fn explain_analyze(&mut self, program: &str, doc: &str) -> io::Result<Json> {
        self.send(Request::Explain {
            program: program.into(),
            analyze: true,
            doc: Some(doc.into()),
        })
    }

    /// `stats`: cache and server counters.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.send(Request::Stats)
    }

    /// `metrics`: the server's metrics registry as Prometheus text
    /// exposition (in the response's `metrics` field).
    pub fn metrics(&mut self) -> io::Result<Json> {
        self.send(Request::Metrics)
    }

    /// `shutdown`: ask the server to drain and exit.
    pub fn shutdown(&mut self) -> io::Result<Json> {
        self.send(Request::Shutdown)
    }
}
