//! Per-operator execution traces.
//!
//! A [`TraceNode`] mirrors one operator of a physical plan: how many rows
//! it produced, how long it ran, plus named counters for operator-specific
//! detail (prescan verdicts, hash-join build sizes, limit trips). Traces
//! from repeated executions of the *same* plan — every document of a
//! corpus run, every shard of a worker pool — [`TraceNode::merge`] into
//! one aggregate tree, which is what `explain --analyze` prints.
//!
//! The tree's *shape* is a function of the plan alone, never of the data:
//! executors emit a zero-valued skeleton for subtrees they short-circuit
//! (an empty-build hash join skips its probe side but still reports it),
//! so any two traces of one plan merge position-by-position.

use std::fmt::Write as _;
use std::time::Duration;

/// One operator's measurements in an execution trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceNode {
    /// Operator label, e.g. `⋈ (shared: x)` or `scan [compiled]`.
    pub label: String,
    /// Rows (mappings) this operator produced.
    pub rows: u64,
    /// Wall time spent in this operator, **inclusive** of its children.
    pub nanos: u64,
    /// Named operator-specific counters, in first-recorded order.
    pub counters: Vec<(String, u64)>,
    /// Child operators, in plan order.
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// A fresh zero-valued node.
    pub fn new(label: impl Into<String>) -> TraceNode {
        TraceNode {
            label: label.into(),
            rows: 0,
            nanos: 0,
            counters: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Adds `value` to the named counter, creating it at zero first if
    /// this node has not seen it yet.
    pub fn add(&mut self, name: &str, value: u64) {
        match self.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v += value,
            None => self.counters.push((name.to_string(), value)),
        }
    }

    /// The named counter's value (zero if never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Records elapsed wall time.
    pub fn observe_elapsed(&mut self, elapsed: Duration) {
        self.nanos += elapsed.as_nanos().min(u64::MAX as u128) as u64;
    }

    /// Accumulates another trace of the same plan into this one: rows,
    /// time, and counters add up (counters by name), children merge
    /// positionally. Shape mismatches (different labels or child counts)
    /// are a programmer error — the executor guarantees plan-stable
    /// shapes via its skeleton traces.
    pub fn merge(&mut self, other: &TraceNode) {
        debug_assert_eq!(self.label, other.label, "merging traces of different plans");
        debug_assert_eq!(
            self.children.len(),
            other.children.len(),
            "merging traces of different shapes"
        );
        self.rows += other.rows;
        self.nanos += other.nanos;
        for (name, value) in &other.counters {
            self.add(name, *value);
        }
        for (mine, theirs) in self.children.iter_mut().zip(&other.children) {
            mine.merge(theirs);
        }
    }

    /// Total rows produced across the whole tree.
    pub fn total_rows(&self) -> u64 {
        self.rows + self.children.iter().map(TraceNode::total_rows).sum::<u64>()
    }

    /// Renders the tree as indented text, one operator per line:
    /// `label  rows=N time=X [counter=V ...]`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        let _ = write!(
            out,
            "{}  rows={} time={}",
            self.label,
            self.rows,
            format_nanos(self.nanos)
        );
        for (name, value) in &self.counters {
            let _ = write!(out, " {name}={value}");
        }
        out.push('\n');
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

/// Human-readable wall time: `412ns`, `3.2µs`, `1.7ms`, `2.41s`.
pub fn format_nanos(nanos: u64) -> String {
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.1}ms", nanos as f64 / 1e6)
    } else {
        format!("{:.2}s", nanos as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceNode {
        let mut join = TraceNode::new("⋈ (shared: x)");
        join.rows = 4;
        join.nanos = 10_000;
        join.add("build_rows", 2);
        let mut left = TraceNode::new("scan [compiled]");
        left.rows = 2;
        left.add("prescan_accept", 1);
        let right = TraceNode::new("scan [boxed]");
        join.children = vec![left, right];
        join
    }

    #[test]
    fn counters_accumulate_by_name() {
        let mut node = TraceNode::new("op");
        node.add("hits", 2);
        node.add("misses", 1);
        node.add("hits", 3);
        assert_eq!(node.counter("hits"), 5);
        assert_eq!(node.counter("misses"), 1);
        assert_eq!(node.counter("absent"), 0);
        // First-recorded order is stable — render output is deterministic.
        assert_eq!(node.counters[0].0, "hits");
    }

    #[test]
    fn merge_adds_values_and_preserves_shape() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.rows, 8);
        assert_eq!(a.nanos, 20_000);
        assert_eq!(a.counter("build_rows"), 4);
        assert_eq!(a.children[0].counter("prescan_accept"), 2);
        assert_eq!(a.children.len(), 2, "shape unchanged by merge");
        assert_eq!(a.total_rows(), 12);
    }

    #[test]
    fn render_is_an_indented_tree() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("⋈ (shared: x)  rows=4"), "{text}");
        assert!(lines[0].contains("time=10.0µs build_rows=2"), "{text}");
        assert!(lines[1].starts_with("  scan [compiled]"), "{text}");
        assert!(lines[2].starts_with("  scan [boxed]  rows=0"), "{text}");
    }

    #[test]
    fn nanos_formatting() {
        assert_eq!(format_nanos(412), "412ns");
        assert_eq!(format_nanos(3_200), "3.2µs");
        assert_eq!(format_nanos(1_700_000), "1.7ms");
        assert_eq!(format_nanos(2_410_000_000), "2.41s");
    }
}
