//! Regression tests pinning the paper's worked examples.

use document_spanners::prelude::*;
use spanner_core::ByteClass;
use spanner_paper::{interpret, to_disjunctive_functional};
use spanner_rgx::{is_disjunctive_functional, is_functional, is_sequential};
use spanner_vset::{analysis, make_semi_functional, Label, Vsa};

/// Example 2.3: the sequential VA with the `q0 → q2` shortcut and its
/// equivalent regex formula `(Σ* x{Σ*} Σ*) ∨ Σ⁺`.
fn example_2_3_automaton() -> Vsa {
    let mut a = Vsa::new();
    let q1 = a.add_state();
    let q2 = a.add_state();
    a.add_transition(0, Label::Class(ByteClass::any()), 0);
    a.add_transition(0, Label::Open(Variable::new("x")), q1);
    a.add_transition(q1, Label::Class(ByteClass::any()), q1);
    a.add_transition(q1, Label::Close(Variable::new("x")), q2);
    a.add_transition(q2, Label::Class(ByteClass::any()), q2);
    a.add_transition(0, Label::Class(ByteClass::any()), q2);
    a.set_accepting(q2, true);
    a
}

#[test]
fn example_2_3_automaton_equals_its_regex_formula() {
    let a = example_2_3_automaton();
    assert!(analysis::is_sequential(&a));
    assert!(!analysis::is_functional(&a));
    let alpha = parse("(.*{x:.*}.*)|(.+)").unwrap();
    for text in ["", "a", "ab", "abc"] {
        let doc = Document::new(text);
        assert_eq!(
            interpret(&a, &doc),
            reference_eval(&alpha, &doc),
            "on {text:?}"
        );
    }
}

#[test]
fn example_2_2_alpha_name_is_sequential_not_functional() {
    // αname = (xfirst{δ} ␣ xlast{δ}) ∨ (xlast{δ})
    let alpha = parse(r"({xfirst:\u\l*} {xlast:\u\l*})|{xlast:\u\l*}").unwrap();
    assert!(is_sequential(&alpha));
    assert!(!is_functional(&alpha));
    assert!(is_disjunctive_functional(&alpha));

    let doc = Document::new("Pyotr Luzhin");
    let result = evaluate_rgx(&alpha, &doc).unwrap();
    // The full-document matches: either (first, last) or just last.
    assert!(result.iter().any(|m| {
        m.get(&"xfirst".into()).map(|s| doc.slice(s)).as_deref() == Some("Pyotr")
            && m.get(&"xlast".into()).map(|s| doc.slice(s)).as_deref() == Some("Luzhin")
    }));
}

#[test]
fn example_3_4_and_3_5_semi_functional_split() {
    // The extended configuration of q2 is `d`; the semi-functional transform
    // splits it into a closed copy and an unseen copy (4 states total).
    let a = example_2_3_automaton();
    let x = VarSet::from_iter(["x"]);
    assert!(!spanner_paper::is_semi_functional(&a, &x));
    let sf = make_semi_functional(&a, &x);
    assert!(spanner_paper::is_semi_functional(&sf.vsa, &x));
    assert_eq!(sf.vsa.state_count(), 4);
}

#[test]
fn section_3_2_containments() {
    // funcRGX ⊊ dfuncRGX ⊊ seqRGX, witnessed by the paper's own examples.
    let functional = parse("{x:.*}").unwrap();
    let dfunc_not_func = parse("{x:a}|{y:b}").unwrap();
    let seq_not_dfunc = parse("{z:.*}({x:.*}|{y:.*})").unwrap();

    assert!(is_functional(&functional));
    assert!(is_disjunctive_functional(&functional));

    assert!(!is_functional(&dfunc_not_func));
    assert!(is_disjunctive_functional(&dfunc_not_func));
    assert!(is_sequential(&dfunc_not_func));

    assert!(!is_disjunctive_functional(&seq_not_dfunc));
    assert!(is_sequential(&seq_not_dfunc));
}

#[test]
fn proposition_3_11_exponential_blowup_counts() {
    for n in 1..=8usize {
        let alpha = spanner_workloads::example_3_10_formula(n);
        let disjuncts = to_disjunctive_functional(&alpha, 1 << 16).unwrap();
        assert_eq!(disjuncts.len(), 1 << n, "n = {n}");
        // And semantics is preserved on a short document.
        let doc = Document::new("ab");
        assert_eq!(
            reference_eval(&Rgx::Union(disjuncts), &doc),
            reference_eval(&alpha, &doc)
        );
    }
}

#[test]
fn example_4_5_synchronization() {
    // (x{Σ*} ∨ ε)·y{Σ*} is synchronized for y but not for x — as a regex
    // formula and as the compiled automaton.
    let alpha = parse("({x:.*}|()){y:.*}").unwrap();
    assert!(spanner_rgx::is_synchronized_for(
        &alpha,
        &VarSet::from_iter(["y"])
    ));
    assert!(!spanner_rgx::is_synchronized_for(
        &alpha,
        &VarSet::from_iter(["x"])
    ));
    let a = compile(&alpha);
    assert!(spanner_paper::is_synchronized(
        &a,
        &VarSet::from_iter(["y"])
    ));
    assert!(!spanner_paper::is_synchronized(
        &a,
        &VarSet::from_iter(["x"])
    ));
}

#[test]
fn proposition_4_7_witness_language() {
    // γ = (a·x{ε}·a) ∨ (b·x{ε}·b): the proof of Proposition 4.7 rests on
    // VγW(aa) ≠ ∅, VγW(bb) ≠ ∅, VγW(ab) = ∅, and on the specific spans below.
    let gamma = parse("(a{x:()}a)|(b{x:()}b)").unwrap();
    let eval = |text: &str| evaluate_rgx(&gamma, &Document::new(text)).unwrap();
    assert_eq!(eval("aa").len(), 1);
    assert_eq!(eval("bb").len(), 1);
    assert!(eval("ab").is_empty());
    let m = eval("aa").iter().next().unwrap().clone();
    assert_eq!(m.get(&"x".into()), Some(Span::new(2, 2)));
    // The compiled automaton is (of course) not synchronized for x.
    let a = compile(&gamma);
    assert!(!spanner_paper::is_synchronized(
        &a,
        &VarSet::from_iter(["x"])
    ));
}

#[test]
fn example_2_4_difference_on_figure_1() {
    // Vα_info \ α_UKmW(dStudents) keeps µ1 and µ2 (the .ru students) and
    // drops µ3 (Luzhin, whose mail ends in .uk).
    let doc = spanner_workloads::students_figure_1();
    let info = compile(&spanner_workloads::student_info_extractor().unwrap());
    let uk = compile(&spanner_workloads::uk_mail_extractor().unwrap());
    let kept = spanner_paper::difference_product_eval(
        &info,
        &uk,
        &doc,
        spanner_paper::DifferenceOptions::default(),
    )
    .unwrap();
    assert_eq!(kept.len(), 2);
    let lasts: Vec<_> = kept
        .iter()
        .map(|m| doc.slice(m.get(&"last".into()).unwrap()))
        .collect();
    assert!(lasts.contains(&"Raskolnikov".into()));
    assert!(lasts.contains(&"Zosimov".into()));
    assert!(!lasts.contains(&"Luzhin".into()));
}

#[test]
fn example_5_1_and_5_4_ra_trees() {
    // π_{student}((sm ⋈ sp) \ nr) over a small corpus with recommendations,
    // with a regex leaf and with the black-box sentiment leaf. All facts
    // about a student live on the student's line, so the `student` spans of
    // the different extractors coincide (compatibility is about spans, not
    // about the extracted text).
    let doc = Document::new(
        "Ann ann@edu.ru 111 rec excellent work\nBob bob@edu.ru 222\nCid cid@edu.ru 333 rec average work\n",
    );
    let tree = figure_2_tree(VarSet::from_iter(["student"]));
    let sm = parse(r"(.*\n)?{student:\u\l+} {mail:\l+@\l+\.\l+}.*").unwrap();
    let sp = parse(r"(.*\n)?{student:\u\l+} \l+@[\l\.]+ {phone:\d+}.*").unwrap();
    let nr = parse(r"(.*\n)?{student:\u\l+} [^\n]*rec {rec:[\l ]+}\n.*").unwrap();

    let inst = Instantiation::new()
        .with(0, sm.clone())
        .with(1, sp.clone())
        .with(2, nr);
    let no_rec = evaluate_ra(&tree, &inst, &doc, RaOptions::default()).unwrap();
    let names = |set: &MappingSet| -> Vec<String> {
        set.iter()
            .map(|m| doc.slice(m.get(&"student".into()).unwrap()).to_string())
            .collect()
    };
    // Bob has no recommendation at all.
    assert_eq!(names(&no_rec), vec!["Bob".to_string()]);

    // With the sentiment black box (Example 5.4): Cid's recommendation is not
    // positive, so both Bob and Cid remain.
    let inst_bb = Instantiation::new().with(0, sm).with(1, sp).with_black_box(
        2,
        SentimentSpanner::new("student", "posrec", SentimentSpanner::default_lexicon()),
    );
    let no_positive = evaluate_ra(&tree, &inst_bb, &doc, RaOptions::default()).unwrap();
    let mut got = names(&no_positive);
    got.sort();
    assert_eq!(got, vec!["Bob".to_string(), "Cid".to_string()]);
}
