//! Observability primitives for the document-spanners stack.
//!
//! The engine now spans five evaluation surfaces (ad-hoc, executor, corpus
//! pool, serve daemon, indexed store); this crate is the shared
//! instrumentation layer they all report through. It is std-only and has
//! zero dependencies, like the rest of the workspace. Three pieces:
//!
//! * [`metrics`] — a process-wide metrics [`Registry`] of atomic
//!   [`Counter`]s and fixed-bucket [`Histogram`]s. Recording
//!   is one lock-free `fetch_add`; the registry mutex is touched only at
//!   registration and render time, never on the hot path.
//! * [`expo`] — the Prometheus text exposition format ([`Exposition`]):
//!   `# HELP` / `# TYPE` headers, label escaping, histogram
//!   `_bucket`/`_sum`/`_count` triples. The registry renders through it,
//!   and scrape-time values (cache stats, uptime) can be appended to the
//!   same exposition so one scrape carries everything.
//! * [`trace`] — a lightweight span tree ([`TraceNode`]) for per-operator
//!   execution traces: rows, wall time, named counters, children. Traces
//!   from repeated evaluations of the same plan [`TraceNode::merge`] into
//!   an aggregate, which is how `explain --analyze` reports a corpus run.
//!
//! ```
//! use spanner_obs::{Exposition, Registry};
//!
//! let registry = Registry::new();
//! let requests = registry.counter("requests_total", "Requests served", &[("op", "query")]);
//! requests.inc();
//! let mut scrape = Exposition::new();
//! registry.export_into(&mut scrape);
//! let text = scrape.finish();
//! assert!(text.contains(r#"requests_total{op="query"} 1"#));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod expo;
pub mod metrics;
pub mod trace;

pub use expo::Exposition;
pub use metrics::{Counter, Histogram, Registry, LATENCY_BUCKETS, RATIO_BUCKETS};
pub use trace::TraceNode;
