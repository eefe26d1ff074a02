//! The harness's reference semantics, sharing no evaluation code with what
//! it checks: every leaf runs through `spanner_paper::interpret` (the
//! paper's configuration-space semantics over the leaf's Thompson
//! automaton, no compilation, no evaluation tables, no enumerator), and the
//! operators are the naive ones below, over sorted `(variable, span)` lists
//! — no hashing and nothing of `MappingSet` but its constructor. The regex
//! parser and the Thompson construction are the trusted base (DESIGN,
//! "One differential harness"); CI greps this file for the names of the
//! evaluation code it must not call.

use document_spanners::prelude::*;
use spanner_paper::interpret;
use std::collections::HashMap;

/// A mapping: its `(variable, span)` pairs, sorted by variable.
type Row = Vec<(Variable, Span)>;

/// A relation: sorted rows, each once.
type Rel = Vec<Row>;

/// The automaton of every leaf, by atom id.
pub type Leaves = HashMap<usize, Vsa>;

/// The leaves' automata of `tree` over `inst`; `None` if a leaf has none
/// the reference can run (a black box, or a formula that is not
/// sequential).
pub fn leaves(tree: &RaTree, inst: &Instantiation) -> Option<Leaves> {
    let mut out = Leaves::new();
    for id in tree.leaves() {
        let vsa = match inst.atom(id)? {
            Atom::Rgx(r) if spanner_rgx::is_sequential(r) => compile(r),
            Atom::Vsa(a) => a.clone(),
            _ => return None,
        };
        out.insert(id, vsa);
    }
    Some(out)
}

/// The relation `tree` denotes on `doc`.
pub fn evaluate(tree: &RaTree, leaves: &Leaves, doc: &Document) -> MappingSet {
    let rows = eval(tree, leaves, doc).into_iter();
    MappingSet::from_mappings(rows.map(Mapping::from_pairs))
}

fn eval(tree: &RaTree, leaves: &Leaves, doc: &Document) -> Rel {
    let (l, r) = match tree {
        RaTree::Leaf(id) => {
            let rows = interpret(&leaves[id], doc).into_iter();
            return sorted(rows.map(|m| m.iter().map(|(x, s)| (x.clone(), s)).collect()));
        }
        RaTree::Project(vars, c) => {
            let keep = |row: Row| row.into_iter().filter(|(x, _)| vars.contains(x)).collect();
            return sorted(eval(c, leaves, doc).into_iter().map(keep));
        }
        RaTree::Union(l, r) | RaTree::Join(l, r) | RaTree::Difference(l, r) => {
            (eval(l, leaves, doc), eval(r, leaves, doc))
        }
    };
    match tree {
        RaTree::Union(..) => sorted(l.into_iter().chain(r)),
        // Every compatible pair, merged.
        RaTree::Join(..) => sorted(
            l.iter()
                .flat_map(|a| r.iter().filter_map(move |b| merged(a, b))),
        ),
        // Section 4: a left mapping stays iff no right mapping is
        // compatible with it.
        _ => l
            .into_iter()
            .filter(|a| r.iter().all(|b| merged(a, b).is_none()))
            .collect(),
    }
}

fn sorted(rows: impl Iterator<Item = Row>) -> Rel {
    let mut rel: Rel = rows.collect();
    rel.sort();
    rel.dedup();
    rel
}

/// The union of two rows that agree on every variable they share; `None`
/// if they disagree on one.
fn merged(a: &Row, b: &Row) -> Option<Row> {
    let mut out = a.clone();
    for (x, span) in b {
        match a.binary_search_by(|(y, _)| y.cmp(x)) {
            Ok(i) if a[i].1 != *span => return None,
            Ok(_) => {}
            Err(_) => out.push((x.clone(), *span)),
        }
    }
    out.sort();
    Some(out)
}
