//! The span recorder of the traced run.
//!
//! Spans are recorded from the harness's own files, around its calls into
//! each crate's public functions; they stay in memory and are written out
//! when the run ends. A span's self time is its duration minus its direct
//! children's (one thread: children never overlap). A disabled tracer runs
//! the same closures and records nothing — the untraced replay the tracing
//! overhead is measured against.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// The request (or probe) this span belongs to.
    pub request: u32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Starts a new request: spans recorded from now on carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.span_named(|t| (f(t), name))
    }

    /// Runs `f` inside a span that `f` names once it knows what it did (a
    /// cache lookup is a hit or a compile only after the fact).
    pub fn span_named<T>(&mut self, f: impl FnOnce(&mut Tracer) -> (T, &'static str)) -> T {
        if !self.enabled {
            return f(self).0;
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name: "",
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let start_ns = self.now_ns();
        let (value, name) = f(self);
        let end_ns = self.now_ns();
        self.open.pop();
        let span = &mut self.spans[index as usize];
        (span.name, span.start_ns, span.end_ns) = (name, start_ns, end_ns);
        value
    }

    /// Runs `f` inside a span and also returns how long it took, in
    /// seconds — timed the same with the tracer off, so probes work either
    /// way.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = self.span(name, |_| f());
        (value, start.elapsed().as_secs_f64())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span, in nanoseconds, indexed like [`Tracer::spans`].
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::nanos).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let slot = &mut own[parent as usize];
                *slot = slot.saturating_sub(span.nanos());
            }
        }
        own
    }

    /// For every request that has a span called `name`: the summed duration
    /// of its spans of that name, in microseconds.
    pub fn per_request_us(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u32, u64> = BTreeMap::new();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(span.request).or_default() += span.nanos();
        }
        sums.values().map(|&ns| ns as f64 / 1e3).collect()
    }

    /// Writes every span as one JSON document:
    /// `{"workload":…,"columns":[…],"spans":[[id,parent,request,name,start_ns,end_ns],…]}`
    /// (`parent` is `-1` for a root span).
    pub fn write_json(&self, path: &str, workload: &str) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"columns\":[\"id\",\"parent\",\"request\",\"name\",\"start_ns\",\"end_ns\"],\"spans\":["
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            write!(
                out,
                "{}[{id},{parent},{},\"{}\",{},{}]",
                if id == 0 { "" } else { "," },
                s.request,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new(true);
        t.next_request();
        t.span("request", |t| {
            t.span("a", |t| t.span("a.inner", |_| std::hint::black_box(1)));
            t.span_named(|_| ((), "b"));
        });
        let spans = t.spans();
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["request", "a", "a.inner", "b"]
        );
        assert_eq!(
            spans.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(1), Some(0)]
        );
        assert!(spans.iter().all(|s| s.request == 1));
        let own = t.self_nanos();
        assert_eq!(
            own[0],
            spans[0].nanos() - spans[1].nanos() - spans[3].nanos()
        );
        assert_eq!(own[1], spans[1].nanos() - spans[2].nanos());
        assert_eq!(own.iter().sum::<u64>(), spans[0].nanos());
        assert_eq!(t.per_request_us("a").len(), 1);
    }

    #[test]
    fn a_disabled_tracer_runs_the_work_and_records_nothing() {
        let mut t = Tracer::new(false);
        let (value, seconds) = t.timed("x", || 7);
        assert_eq!(t.span("y", |_| value + 1), 8);
        assert!(seconds >= 0.0);
        assert!(t.spans().is_empty());
    }
}
