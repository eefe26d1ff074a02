//! `spanner_vset::semifunctional` (Lemma 3.6) against the interpreter: the
//! cases of that module's unit tests whose oracle is [`interpret`].

use crate::analysis::is_semi_functional;
use crate::interpret::interpret;
use spanner_core::{ByteClass, Document, VarSet, Variable};
use spanner_vset::{is_sequential, make_semi_functional, Label, Vsa};

fn v(x: &str) -> Variable {
    Variable::new(x)
}

fn example_2_3() -> Vsa {
    let mut a = Vsa::new();
    let q1 = a.add_state();
    let q2 = a.add_state();
    a.add_transition(0, Label::Class(ByteClass::any()), 0);
    a.add_transition(0, Label::Open(v("x")), q1);
    a.add_transition(q1, Label::Class(ByteClass::any()), q1);
    a.add_transition(q1, Label::Close(v("x")), q2);
    a.add_transition(q2, Label::Class(ByteClass::any()), q2);
    a.add_transition(0, Label::Class(ByteClass::any()), q2);
    a.set_accepting(q2, true);
    a
}

#[test]
fn example_3_5_splitting() {
    // The paper's Example 3.5: q2 splits into a "closed" and an "unseen"
    // copy, yielding an equivalent automaton that is semi-functional
    // for x.
    let a = example_2_3();
    let x = VarSet::from_iter(["x"]);
    assert!(!is_semi_functional(&a, &x));
    let sf = make_semi_functional(&a, &x);
    assert!(is_semi_functional(&sf.vsa, &x));
    assert!(is_sequential(&sf.vsa));
    // The example's A' has 4 states (q0, q1, q2ᶜ, q2ᵘ).
    assert_eq!(sf.vsa.state_count(), 4);
    // Equivalence on a few documents.
    for text in ["", "a", "ab", "abc"] {
        let doc = Document::new(text);
        assert_eq!(interpret(&a, &doc), interpret(&sf.vsa, &doc), "on {text:?}");
    }
}

#[test]
fn tracking_untouched_variables_is_a_no_op_semantically() {
    let a = example_2_3();
    let sf = make_semi_functional(&a, &VarSet::from_iter(["not_there"]));
    assert!(sf.tracked.is_empty());
    for text in ["", "ab"] {
        let doc = Document::new(text);
        assert_eq!(interpret(&a, &doc), interpret(&sf.vsa, &doc));
    }
}

#[test]
fn invalid_runs_for_tracked_variables_are_removed() {
    // An automaton with an accepting run that closes x twice; after the
    // transformation no such run exists, and the semantics (which never
    // counted the invalid run) is unchanged.
    let mut a = Vsa::new();
    let q1 = a.add_state();
    let q2 = a.add_state();
    let q3 = a.add_state();
    a.add_transition(0, Label::Open(v("x")), q1);
    a.add_transition(q1, Label::Close(v("x")), q2);
    a.add_transition(q2, Label::Close(v("x")), q3);
    a.add_transition(q2, Label::symbol(b'a'), q3);
    a.set_accepting(q3, true);
    let sf = make_semi_functional(&a, &VarSet::from_iter(["x"]));
    assert!(is_sequential(&sf.vsa));
    for text in ["", "a"] {
        let doc = Document::new(text);
        assert_eq!(interpret(&a, &doc), interpret(&sf.vsa, &doc));
    }
}

#[test]
fn blowup_is_bounded_by_three_to_the_k() {
    // Build an automaton over variables x0..x3 where each variable is
    // optionally bound; the transformed automaton must stay within
    // |Q| * 3^k states.
    let k = 3;
    let mut a = Vsa::new();
    let mut cur = a.initial();
    for i in 0..k {
        let opened = a.add_state();
        let closed = a.add_state();
        a.add_transition(cur, Label::Open(v(&format!("x{i}"))), opened);
        a.add_transition(opened, Label::symbol(b'a'), opened);
        a.add_transition(opened, Label::Close(v(&format!("x{i}"))), closed);
        a.add_transition(cur, Label::symbol(b'b'), closed);
        cur = closed;
    }
    a.set_accepting(cur, true);
    let vars: VarSet = (0..k).map(|i| v(&format!("x{i}"))).collect();
    let sf = make_semi_functional(&a, &vars);
    assert!(is_semi_functional(&sf.vsa, &vars));
    assert!(
        sf.vsa.state_count() <= a.state_count() * 3usize.pow(k as u32),
        "{} states",
        sf.vsa.state_count()
    );
    for text in ["", "a", "b", "ab", "ba", "bab"] {
        let doc = Document::new(text);
        assert_eq!(interpret(&a, &doc), interpret(&sf.vsa, &doc), "on {text:?}");
    }
}
