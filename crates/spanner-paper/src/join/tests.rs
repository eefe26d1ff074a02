//! `spanner_vset::join` against the interpreter: the cases of that module's
//! unit tests whose oracle is [`interpret`].

use crate::interpret::interpret;
use crate::rewrite::{assemble_disjunction, join_disjunctive_functional};
use spanner_core::{Document, Variable};
use spanner_rgx::parse;
use spanner_vset::{compile, is_sequential, join, Label, Vsa};

/// Oracle: the materialized join of the two interpreted relations.
fn oracle_join(a1: &Vsa, a2: &Vsa, doc: &Document) -> spanner_core::MappingSet {
    interpret(a1, doc).join(&interpret(a2, doc))
}

fn compiled(pattern: &str) -> Vsa {
    compile(&parse(pattern).unwrap())
}

#[test]
fn join_without_shared_variables_is_a_cross_product() {
    let a1 = compiled("{x:a+}.*");
    let a2 = compiled(".*{y:b+}");
    let j = join(&a1, &a2).unwrap();
    assert!(is_sequential(&j));
    for text in ["ab", "aabb", "ba", ""] {
        let doc = Document::new(text);
        assert_eq!(
            interpret(&j, &doc),
            oracle_join(&a1, &a2, &doc),
            "on {text:?}"
        );
    }
}

#[test]
fn join_with_shared_variable_requires_equal_spans() {
    // Both operands bind x; the join keeps only equal spans.
    let a1 = compiled("{x:a+}b*");
    let a2 = compiled("{x:a*}b+|{x:a+b*}");
    let j = join(&a1, &a2).unwrap();
    assert!(is_sequential(&j));
    for text in ["ab", "aab", "a", "b", "aabb"] {
        let doc = Document::new(text);
        assert_eq!(
            interpret(&j, &doc),
            oracle_join(&a1, &a2, &doc),
            "on {text:?}"
        );
    }
}

#[test]
fn join_schemaless_optional_shared_variable() {
    // The left operand sometimes skips x (schemaless); compatibility then
    // allows any right-operand binding of x.
    let a1 = compiled("({x:a+})?b.*");
    let a2 = compiled("a*b{y:.*}|{x:a}b{y:.*}");
    let j = join(&a1, &a2).unwrap();
    assert!(is_sequential(&j));
    for text in ["b", "ab", "aab", "abc"] {
        let doc = Document::new(text);
        assert_eq!(
            interpret(&j, &doc),
            oracle_join(&a1, &a2, &doc),
            "on {text:?}"
        );
    }
}

#[test]
fn join_of_functional_operands_uses_single_mode() {
    // Functional operands over the same variables: the classic
    // schema-based join.
    let a1 = compiled(".*{x:\\d+}.*{y:\\l+}.*");
    let a2 = compiled(".*{x:\\d\\d}.*{y:\\l\\l}.*");
    let j = join(&a1, &a2).unwrap();
    for text in ["12 ab", "1 ab 34 cd"] {
        let doc = Document::new(text);
        assert_eq!(
            interpret(&j, &doc),
            oracle_join(&a1, &a2, &doc),
            "on {text:?}"
        );
    }
}

#[test]
fn empty_operand_produces_empty_join() {
    let a1 = compiled("{x:a}");
    let mut empty = Vsa::new();
    let q = empty.add_state();
    empty.add_transition(0, Label::Open(Variable::new("x")), q);
    // no accepting state
    let j = join(&a1, &empty).unwrap();
    assert!(interpret(&j, &Document::new("a")).is_empty());
}

#[test]
fn disjunctive_functional_join_is_pairwise() {
    // Two disjunctive-functional spanners with 2 components each.
    let c1 = vec![compiled("{x:a}b"), compiled("{y:a}b")];
    let c2 = vec![compiled("{x:a}b"), compiled("a{z:b}")];
    let joined = join_disjunctive_functional(&c1, &c2).unwrap();
    assert!(joined.len() <= 4);
    let assembled = assemble_disjunction(&joined);
    let lhs = assemble_disjunction(&c1);
    let rhs = assemble_disjunction(&c2);
    for text in ["ab", "b", "a"] {
        let doc = Document::new(text);
        assert_eq!(
            interpret(&assembled, &doc),
            oracle_join(&lhs, &rhs, &doc),
            "on {text:?}"
        );
    }
}

#[test]
fn join_is_commutative_semantically() {
    let a1 = compiled("({x:a+})?{y:b}.*");
    let a2 = compiled("{x:a}.*|.*{y:b}");
    let j12 = join(&a1, &a2).unwrap();
    let j21 = join(&a2, &a1).unwrap();
    for text in ["ab", "aab", "b"] {
        let doc = Document::new(text);
        assert_eq!(interpret(&j12, &doc), interpret(&j21, &doc), "on {text:?}");
    }
}
