//! A library of ready-made extractors (regex formulas) for the synthetic
//! corpora, including the paper's running example (Example 2.2 / 2.4).

use spanner_core::SpannerResult;
use spanner_rgx::{parse, Rgx};

/// `αmail`-style extractor: binds `mail` to an email address occurring
/// anywhere in the document.
pub fn mail_extractor() -> SpannerResult<Rgx> {
    parse(r"(.*\s)?{mail:\l+@\l+(\.\l+)+}(\s.*)?")
}

/// `αname`-style extractor for one line: binds an optional `first` name and a
/// `last` name at the start of a line.
pub fn name_extractor() -> SpannerResult<Rgx> {
    parse(r"(.*\n)?({first:\u\l+} )?{last:\u\l+} .*")
}

/// `αphone`-style extractor: binds `phone` to a digit run.
pub fn phone_extractor() -> SpannerResult<Rgx> {
    parse(r"(.*\s)?{phone:\d+}(\s.*)?")
}

/// The paper's `αinfo` (Example 2.2), adapted to the student-records corpus:
/// one student line with optional first name, mandatory last name, optional
/// phone, and mail address. Sequential but **not** functional (the optional
/// fields may be absent).
pub fn student_info_extractor() -> SpannerResult<Rgx> {
    parse(r"(.*\n)?({first:\u\l+} )?{last:\u\l+} ({phone:\d+} )?{mail:\l+@\l+(\.\l+)+}\n.*")
}

/// The paper's `αUKm` (Example 2.4): binds `mail` to an address ending in
/// `.uk`.
pub fn uk_mail_extractor() -> SpannerResult<Rgx> {
    parse(r"(.*\s)?{mail:\l+@\l+(\.\l+)*\.uk}(\s.*)?")
}

/// Extractor pairing a student (line-initial capitalized token) with a
/// recommendation text on a `rec` line.
pub fn recommendation_extractor() -> SpannerResult<Rgx> {
    parse(r"(.*\n)?{student:\u\l+} rec{rec: [\l ]+}\n.*")
}

/// Access-log extractor: binds `ip`, optional `user`, `method`, `path`,
/// `status`.
pub fn log_request_extractor() -> SpannerResult<Rgx> {
    parse(
        r#"(.*\n)?{ip:\d+\.\d+\.\d+\.\d+} - ({user:\l+}|-) \[[\d/]+\] "{method:\u+} {path:[\w/\.]+}" {status:\d\d\d} \d+\n.*"#,
    )
}

/// Access-log error extractor: binds `ip` and `status` for 5xx responses.
pub fn log_error_extractor() -> SpannerResult<Rgx> {
    parse(r#"(.*\n)?{ip:\d+\.\d+\.\d+\.\d+} [^\n]*"{method:\u+} [\w/\.]+" {status:5\d\d} \d+\n.*"#)
}

/// The Example 3.10 / Proposition 3.11 family:
/// `(x₁{Σ*} ∨ y₁{Σ*}) ⋯ (xₙ{Σ*} ∨ yₙ{Σ*})` — sequential, with an
/// exponentially large smallest equivalent disjunctive-functional formula.
pub fn example_3_10_formula(n: usize) -> Rgx {
    Rgx::concat((1..=n).map(|i| {
        Rgx::union([
            Rgx::capture(format!("x{i}"), Rgx::any_string()),
            Rgx::capture(format!("y{i}"), Rgx::any_string()),
        ])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpora;
    use spanner_core::Document;
    use spanner_enum::evaluate_rgx;
    use spanner_rgx::{is_functional, is_sequential};

    #[test]
    fn all_extractors_parse_and_are_sequential() {
        let extractors: Vec<Rgx> = vec![
            mail_extractor().unwrap(),
            name_extractor().unwrap(),
            phone_extractor().unwrap(),
            student_info_extractor().unwrap(),
            uk_mail_extractor().unwrap(),
            recommendation_extractor().unwrap(),
            log_request_extractor().unwrap(),
            log_error_extractor().unwrap(),
        ];
        for e in &extractors {
            assert!(is_sequential(e), "not sequential: {e}");
        }
        // The student-info extractor is schemaless (not functional): the
        // first name and phone are optional.
        assert!(!is_functional(&student_info_extractor().unwrap()));
    }

    #[test]
    fn student_info_on_figure_1() {
        let doc = corpora::students_figure_1();
        let alpha = student_info_extractor().unwrap();
        let result = evaluate_rgx(&alpha, &doc).unwrap();
        // Three students (the paper's µ1, µ2, µ3), possibly with additional
        // sub-matches of the mail host; at least one mapping per line.
        let lasts: std::collections::BTreeSet<_> = result
            .iter()
            .filter_map(|m| m.get(&"last".into()))
            .map(|s| doc.slice(s))
            .collect();
        assert!(lasts.contains("Raskolnikov"));
        assert!(lasts.contains("Luzhin"));
        assert!(lasts.contains("Zosimov"));
        // µ2 (Zosimov) has no first name.
        assert!(result.iter().any(|m| {
            m.get(&"last".into()).map(|s| doc.slice(s)).as_deref() == Some("Zosimov")
                && !m.contains(&"first".into())
        }));
    }

    #[test]
    fn uk_mail_on_figure_1() {
        let doc = corpora::students_figure_1();
        let alpha = uk_mail_extractor().unwrap();
        let result = evaluate_rgx(&alpha, &doc).unwrap();
        assert!(!result.is_empty());
        for m in result.iter() {
            assert!(doc.slice(m.get(&"mail".into()).unwrap()).ends_with(".uk"));
        }
    }

    #[test]
    fn log_extractors_on_synthetic_log() {
        let doc = corpora::access_log(30, 2);
        let requests = evaluate_rgx(&log_request_extractor().unwrap(), &doc).unwrap();
        assert!(requests.len() >= 30, "got {}", requests.len());
        let errors = evaluate_rgx(&log_error_extractor().unwrap(), &doc).unwrap();
        for m in errors.iter() {
            assert!(doc.slice(m.get(&"status".into()).unwrap()).starts_with('5'));
        }
    }

    #[test]
    fn example_3_10_family_shape() {
        let f = example_3_10_formula(4);
        assert!(is_sequential(&f));
        assert!(!is_functional(&f));
        assert_eq!(f.vars().len(), 8);
        // On the empty document each factor binds the empty span to either
        // xi or yi: 2^4 mappings.
        let result = evaluate_rgx(&f, &Document::new("")).unwrap();
        assert_eq!(result.len(), 16);
    }
}
