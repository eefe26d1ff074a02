//! The Prometheus text exposition format (version 0.0.4).
//!
//! [`Exposition`] is a small append-only builder: callers open a metric
//! family (`# HELP` + `# TYPE` headers) and append samples to it. Escaping
//! follows the format specification exactly — in help text `\` and line
//! feeds are escaped; in label values `\`, `"`, and line feeds are — so
//! arbitrary program text (which ends up in labels via error messages or
//! operator names) can never corrupt a scrape.
//!
//! Values render the way Prometheus clients conventionally do: integral
//! values without a fractional part (`17`, not `17.0`), everything else in
//! shortest-roundtrip float form, and the histogram overflow bound as
//! `+Inf`.

use std::fmt::Write as _;

/// Escapes a `# HELP` text: `\` → `\\`, newline → `\n`.
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str(r"\\"),
            '\n' => out.push_str(r"\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a label value: `\` → `\\`, `"` → `\"`, newline → `\n`.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str(r"\\"),
            '"' => out.push_str(r#"\""#),
            '\n' => out.push_str(r"\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders a sample value: integers without a trailing `.0`, `+Inf` for
/// the histogram overflow bound, shortest-roundtrip floats otherwise.
fn render_value(value: f64) -> String {
    if value == f64::INFINITY {
        "+Inf".to_string()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// An in-progress Prometheus text exposition.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Exposition {
        Exposition::default()
    }

    /// Opens a metric family: one `# HELP` and one `# TYPE` line.
    /// `kind` is the Prometheus type (`counter`, `gauge`, `histogram`).
    pub fn family(&mut self, name: &str, kind: &str, help: &str) {
        let _ = writeln!(self.out, "# HELP {name} {}", escape_help(help));
        let _ = writeln!(self.out, "# TYPE {name} {kind}");
    }

    /// Appends one sample line (`name{labels} value`); empty label sets
    /// render without braces.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        self.append_labels(labels);
        self.out.push(' ');
        self.out.push_str(&render_value(value));
        self.out.push('\n');
    }

    /// Appends the `_bucket`/`_sum`/`_count` triple of one histogram:
    /// `bounds` are the finite upper bounds, `cumulative` the cumulative
    /// counts per bound **plus** the final `+Inf` count (so
    /// `cumulative.len() == bounds.len() + 1` and the last entry equals
    /// the total observation count).
    pub fn histogram(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
        cumulative: &[u64],
        sum: f64,
    ) {
        debug_assert_eq!(cumulative.len(), bounds.len() + 1);
        let bucket = format!("{name}_bucket");
        for (bound, count) in bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(cumulative)
        {
            self.out.push_str(&bucket);
            let le = render_value(bound);
            let mut with_le: Vec<(&str, &str)> = labels.to_vec();
            with_le.push(("le", &le));
            self.append_labels(&with_le);
            let _ = writeln!(self.out, " {count}");
        }
        self.sample(&format!("{name}_sum"), labels, sum);
        self.sample(
            &format!("{name}_count"),
            labels,
            *cumulative.last().unwrap_or(&0) as f64,
        );
    }

    fn append_labels(&mut self, labels: &[(&str, &str)]) {
        if labels.is_empty() {
            return;
        }
        self.out.push('{');
        for (i, (key, value)) in labels.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            let _ = write!(self.out, "{key}=\"{}\"", escape_label(value));
        }
        self.out.push('}');
    }

    /// The rendered exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Structural well-formedness check used by the tests and the CI smoke:
/// every non-comment line is `name[{labels}] value`, every sample is
/// preceded (possibly transitively) by a `# TYPE` header for its family,
/// and histogram bucket counts are monotone in `le` order ending at
/// `_count`. Returns the first violation as an error string.
pub fn check_exposition(text: &str) -> Result<(), String> {
    let mut typed: Vec<String> = Vec::new();
    let mut bucket_last: Option<(String, u64)> = None;
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let name = parts.next().unwrap_or_default();
            let kind = parts.next().unwrap_or_default();
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return Err(format!("line {n}: unknown metric type `{kind}`"));
            }
            typed.push(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {n}: no value on `{line}`"))?;
        if value != "+Inf" && value != "-Inf" && value.parse::<f64>().is_err() {
            return Err(format!("line {n}: bad value `{value}`"));
        }
        let name = series.split('{').next().unwrap_or(series);
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|b| typed.iter().any(|t| t == b));
        if !typed.iter().any(|t| t == name) && base.is_none() {
            return Err(format!("line {n}: sample `{name}` has no # TYPE header"));
        }
        // Bucket monotonicity: within one series' run of _bucket lines,
        // cumulative counts never decrease.
        if name.ends_with("_bucket") && base.is_some() {
            let count: u64 = value
                .parse()
                .map_err(|_| format!("line {n}: bucket count `{value}` is not an integer"))?;
            if let Some((prev_name, prev)) = &bucket_last {
                if prev_name == name && count < *prev {
                    return Err(format!(
                        "line {n}: bucket counts of `{name}` decreased ({prev} -> {count})"
                    ));
                }
            }
            bucket_last = Some((name.to_string(), count));
        } else {
            bucket_last = None;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn help_and_label_escaping() {
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
        assert_eq!(escape_label("say \"hi\"\n\\x"), "say \\\"hi\\\"\\n\\\\x");
        // Characters that need no escaping pass through untouched.
        assert_eq!(escape_label("π ∪ ⋈ {x:a+}"), "π ∪ ⋈ {x:a+}");
    }

    #[test]
    fn value_rendering() {
        assert_eq!(render_value(17.0), "17");
        assert_eq!(render_value(0.25), "0.25");
        assert_eq!(render_value(f64::INFINITY), "+Inf");
        assert_eq!(render_value(-3.0), "-3");
    }

    #[test]
    fn samples_round_trip_through_the_checker() {
        let mut e = Exposition::new();
        e.family(
            "req_total",
            "counter",
            "requests with \"quotes\"\nand lines",
        );
        e.sample("req_total", &[("op", "a\"b\\c\nd")], 3.0);
        e.family("lat", "histogram", "latency");
        e.histogram("lat", &[("op", "q")], &[0.1, 1.0], &[1, 4, 6], 2.5);
        let text = e.finish();
        assert!(text.contains(r#"req_total{op="a\"b\\c\nd"} 3"#), "{text}");
        assert!(text.contains(r#"lat_bucket{op="q",le="+Inf"} 6"#), "{text}");
        assert!(text.contains("lat_sum{op=\"q\"} 2.5"), "{text}");
        assert!(text.contains("lat_count{op=\"q\"} 6"), "{text}");
        check_exposition(&text).unwrap();
    }

    #[test]
    fn checker_flags_malformed_expositions() {
        assert!(check_exposition("orphan 1").is_err());
        assert!(check_exposition("# TYPE x counter\nx notanumber").is_err());
        assert!(check_exposition("# TYPE x wat\n").is_err());
        let shrinking = "# TYPE h histogram\n\
                         h_bucket{le=\"1\"} 5\n\
                         h_bucket{le=\"+Inf\"} 3\n\
                         h_sum 1\nh_count 3\n";
        let err = check_exposition(shrinking).unwrap_err();
        assert!(err.contains("decreased"), "{err}");
    }
}
