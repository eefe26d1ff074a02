//! A long-running query service over document spanners.
//!
//! The paper's evaluation model compiles the spanner once and evaluates
//! many documents. This crate answers that question behind one
//! [`Handler`]: the CLI answers each of its evaluating commands through a
//! handler in process, and a std-only TCP daemon shares one between its
//! connection workers, keeping the compiled form *resident* and speaking
//! a line-delimited JSON protocol. The handler is backed by
//!
//! * a shared LRU [`QueryCache`] holding `Arc<PreparedQuery>` — concurrent
//!   requests for the same program evaluate against one compiled plan with
//!   zero per-request compilation ([`cache`]);
//! * a fixed pool of connection workers, the daemon's only long-lived
//!   threads: a corpus request is evaluated on the worker that read it,
//!   split across threads scoped to the request when it is large enough
//!   ([`server`]);
//! * per-request resource limits (the planner's automaton state cap and
//!   `RaOptions::max_signatures`), so a hostile query fails fast with an
//!   error response instead of taking the process down — and a request whose
//!   handling panics anyway is answered with an internal error while its
//!   connection and its worker live on.
//!
//! The protocol ([`protocol`]) has eleven requests — `prepare`, `query`,
//! `explain`, the resident corpus's `load_corpus` / `append_docs` /
//! `update_doc` / `delete_docs` / `query_corpus`, `stats`, `metrics` and
//! `shutdown` (graceful: in-flight work drains before the process exits) —
//! and [`Request`] alone knows their wire format: one decoder, one encoder.
//! [`Client`] is the matching synchronous client; [`json`] is the
//! self-contained JSON layer (the workspace builds offline — no serde).
//!
//! Every connection runs the same loop over the same framed socket reader
//! ([`server`]); a transport is a codec plugged into it — line-delimited
//! JSON by default, or:
//!
//! * [`http`] — an HTTP/1.1 transport (`ServeOptions::http`) exposing the
//!   protocol ops as `/v1/*` endpoints with hard head/body byte caps,
//!   keep-alive, chunked streaming for corpus results, `/metrics`, and
//!   `/healthz`, plus the matching [`HttpClient`].
//!
//! ```
//! use spanner_serve::{Client, ServeOptions, Server};
//!
//! let server = Server::bind("127.0.0.1:0", ServeOptions::default()).unwrap();
//! let (addr, handle) = server.spawn();
//! let mut client = Client::connect(addr).unwrap();
//!
//! let response = client.query("/{x:a+}b/", "aab").unwrap();
//! assert_eq!(response.get("ok").and_then(|v| v.as_bool()), Some(true));
//! assert_eq!(response.get("count").and_then(|v| v.as_usize()), Some(1));
//!
//! client.shutdown().unwrap();
//! handle.join().unwrap().unwrap();
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod client;
mod conn;
pub mod http;
pub mod json;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, QueryCache};
pub use client::Client;
pub use http::{HttpClient, HttpResponse};
pub use json::Json;
pub use protocol::Request;
pub use server::{Handler, ServeOptions, Server};

use std::sync::{Mutex, MutexGuard};

/// Locks `mutex` whatever became of its last holder. A request that panics
/// is answered as an internal error; the lock it held must not fail every
/// later request too. `reset` runs once on the value behind a poisoned
/// lock, to bring it to a state that is valid wherever the holder stopped
/// (a no-op for bookkeeping whose every update is valid on its own), and
/// the poison is cleared.
pub(crate) fn lock_or_reset<T>(mutex: &Mutex<T>, reset: impl FnOnce(&mut T)) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| {
        let mut guard = poisoned.into_inner();
        reset(&mut guard);
        mutex.clear_poison();
        guard
    })
}
