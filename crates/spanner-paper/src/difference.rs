//! Evaluation of the difference operator (Section 4).
//!
//! Three algorithms are provided, all returning the same relation
//! `VA₁ \ A₂W(d) = { µ₁ ∈ VA₁W(d) | no µ₂ ∈ VA₂W(d) is compatible with µ₁ }`:
//!
//! * [`difference_filter`] — the naive baseline: enumerate `VA₁W(d)` and drop
//!   every mapping that has a compatible counterpart. Its total running time
//!   is proportional to `|VA₁W(d)|`, which can be exponentially larger than
//!   the output (experiment E7 exercises exactly that failure mode).
//!
//! * [`difference_adhoc`] — the marker construction of Lemma 4.2 /
//!   Appendix B.1: project `A₂` onto the common variables `V`, extend `A₁`
//!   with marker variables encoding which common variables a mapping defines,
//!   build the complement relation `B` over extended signatures, join with
//!   the FPT join of Lemma 3.2, and project the markers away. Polynomial for
//!   any fixed bound on `|V|` (Theorem 4.3); the result is an *ad-hoc*
//!   sequential VA valid for the given document, so it can then be enumerated
//!   with polynomial delay.
//!
//! * [`difference_product`] — an ad-hoc product construction in the spirit of
//!   Theorem 4.8: make `A₁` semi-functional for the common variables, split
//!   it by skip-set, and simulate `A₂`'s match graph alongside each part with
//!   a constrained subset simulation. The construction is polynomial whenever
//!   the number of common variables is bounded (Theorem 4.3) *or* `A₂` is
//!   synchronized for the common variables (Theorem 4.8); it is correct for
//!   every sequential input, with the state limit guarding the remaining
//!   worst cases.

use crate::adhoc::mapping_set_to_vsa;
use spanner_core::{
    Document, Mapping, MappingSet, Span, SpannerError, SpannerResult, VarSet, Variable,
};
use spanner_enum::{evaluate, Enumerator};
use spanner_vset::automaton::{Label, StateId, Vsa};
use spanner_vset::semifunctional::{make_semi_functional, SemiFunctionalVsa};
use spanner_vset::{analysis, join, VarStatus};
use std::collections::{BTreeSet, HashMap};

/// Options shared by the difference constructions.
#[derive(Debug, Clone, Copy)]
pub struct DifferenceOptions {
    /// Bound on the number of states of intermediate / output automata.
    pub max_states: usize,
    /// Bound on the number of materialized signatures in the Lemma 4.2
    /// construction.
    pub max_signatures: usize,
}

impl Default for DifferenceOptions {
    fn default() -> Self {
        DifferenceOptions {
            max_states: 4_000_000,
            max_signatures: 1_000_000,
        }
    }
}

fn require_sequential(a: &Vsa, side: &str) -> SpannerResult<()> {
    if analysis::is_sequential(a) {
        Ok(())
    } else {
        Err(SpannerError::requirement(
            "sequential",
            format!("the {side} operand of the difference is not sequential"),
        ))
    }
}

// ---------------------------------------------------------------------------
// Baseline: enumerate-and-filter.
// ---------------------------------------------------------------------------

/// The naive baseline: enumerate `VA₁W(d)` and keep the mappings with no
/// compatible mapping in `VA₂W(d)` (which is materialized once, projected to
/// the common variables).
pub fn difference_filter(a1: &Vsa, a2: &Vsa, doc: &Document) -> SpannerResult<MappingSet> {
    require_sequential(a1, "left")?;
    require_sequential(a2, "right")?;
    let common = a1.vars().intersection(a2.vars());
    // Only the common variables matter for compatibility.
    let right = evaluate(&a2.project(a1.vars()), doc)?;
    let right: Vec<Mapping> = right.to_vec();
    let mut out = MappingSet::new();
    for m1 in Enumerator::new(a1, doc)? {
        let m1 = m1?;
        let sig = m1.restrict(&common);
        if !right.iter().any(|m2| sig.is_compatible_with(m2)) {
            out.insert(m1);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Lemma 4.2: the marker construction.
// ---------------------------------------------------------------------------

/// Generates a marker variable name guaranteed not to clash with existing
/// variables.
fn marker_variable(x: &Variable, taken: &VarSet) -> Variable {
    let mut name = format!("{}\u{2020}", x.name()); // x†
    while taken.contains(&Variable::new(&name)) {
        name.push('\u{2020}');
    }
    Variable::new(name)
}

/// Compiles `VA₁ \ A₂W(d)` into an ad-hoc sequential VA using the marker
/// construction of Lemma 4.2. The output automaton is valid only for `doc`;
/// its mappings (obtained with `spanner_enum::evaluate`) are exactly the
/// difference.
pub fn difference_adhoc(
    a1: &Vsa,
    a2: &Vsa,
    doc: &Document,
    options: DifferenceOptions,
) -> SpannerResult<Vsa> {
    require_sequential(a1, "left")?;
    require_sequential(a2, "right")?;

    // Only the common variables matter: VA₁ \ A₂W = VA₁ \ π_{Vars(A₁)} A₂W.
    let common = a1.vars().intersection(a2.vars());
    let a2p = a2.project(a1.vars()).trim();

    // Empty-document special case (as in the paper's proof).
    if doc.is_empty() {
        return if spanner_enum::is_nonempty(&a2p, doc)? {
            Ok(Vsa::new()) // empty language: every mapping is compatible on ε
        } else {
            Ok(a1.clone())
        };
    }

    // The relation of the right-hand side over the common variables.
    let m2 = evaluate(&a2p.project(&common), doc)?;
    // The signatures the left-hand side can actually produce.
    let m1v = evaluate(&a1.project(&common), doc)?;
    if m1v.len() > options.max_signatures {
        return Err(SpannerError::LimitExceeded {
            what: "difference signatures",
            limit: options.max_signatures,
            actual: m1v.len(),
        });
    }

    // Marker variables x† for every common variable x.
    let taken = a1.vars().union(a2.vars());
    let markers: Vec<(Variable, Variable)> = common
        .iter()
        .map(|x| (x.clone(), marker_variable(x, &taken)))
        .collect();
    let n = doc.len() as u32;
    let present = Span::new(1, 1);
    let absent = Span::new(n + 1, n + 1);

    // --- A: the marked extension of A₁. -----------------------------------
    let a1sf = make_semi_functional(a1, &common);
    let marked_a = build_marked_extension(&a1sf, &markers, &common);

    // --- B: extended signatures with no compatible mapping in m2. ----------
    let mut b_mappings = MappingSet::new();
    for sigma in m1v.iter() {
        if m2.iter().any(|mu2| sigma.is_compatible_with(mu2)) {
            continue;
        }
        let mut extended = sigma.clone();
        for (x, marker) in &markers {
            let value = if sigma.contains(x) { present } else { absent };
            extended.insert(marker.clone(), value);
        }
        b_mappings.insert(extended);
    }
    let b = mapping_set_to_vsa(&b_mappings, doc)?;

    // --- Join and project the markers away. --------------------------------
    let joined = join::join_with_options(
        &marked_a,
        &b,
        join::JoinOptions {
            max_states: options.max_states,
        },
    )?;
    Ok(joined.project(a1.vars()).trim())
}

/// Builds the automaton `A` of the Lemma 4.2 proof: for every realizable
/// subset `X` of the common variables (the set of common variables an
/// accepting run closes), a copy of `A₁` prefixed by marker operations
/// `x† ↦ [1,1⟩` for `x ∈ X` and suffixed by `x† ↦ [n+1,n+1⟩` for the rest.
fn build_marked_extension(
    a1sf: &SemiFunctionalVsa,
    markers: &[(Variable, Variable)],
    common: &VarSet,
) -> Vsa {
    let base = &a1sf.vsa;
    // Realizable closed-subsets, read off the accepting states' status
    // vectors (at most |F| of them, never 2^{|common|}).
    let mut realizable: BTreeSet<Vec<bool>> = BTreeSet::new();
    for q in base.accepting_states() {
        let closed: Vec<bool> = markers
            .iter()
            .map(|(x, _)| match a1sf.var_index(x) {
                Some(i) => a1sf.status(q, i) == VarStatus::Closed,
                None => false,
            })
            .collect();
        realizable.insert(closed);
    }

    let mut out = Vsa::new();
    for closed in realizable {
        // Copy of the base automaton.
        let offset = Vsa::copy_into(&mut out, base);
        // Restrict acceptance to the states whose closed-set equals `closed`,
        // and route them through the suffix marker chain.
        let mut suffix_targets: Vec<StateId> = Vec::new();
        for q in base.accepting_states() {
            let q_closed: Vec<bool> = markers
                .iter()
                .map(|(x, _)| match a1sf.var_index(x) {
                    Some(i) => a1sf.status(q, i) == VarStatus::Closed,
                    None => false,
                })
                .collect();
            out.set_accepting(q + offset, false);
            if q_closed == closed {
                suffix_targets.push(q + offset);
            }
        }
        // Prefix chain: markers of the closed variables at position 1.
        let mut cur = 0; // the fresh global initial state
        for ((_, marker), is_closed) in markers.iter().zip(&closed) {
            if *is_closed {
                let mid = out.add_state();
                let next = out.add_state();
                out.add_transition(cur, Label::Open(marker.clone()), mid);
                out.add_transition(mid, Label::Close(marker.clone()), next);
                cur = next;
            }
        }
        out.add_transition(cur, Label::Epsilon, base.initial() + offset);

        // Suffix chain: markers of the not-closed variables at the end.
        let mut suffix_entry = out.add_state();
        let first_suffix = suffix_entry;
        for ((_, marker), is_closed) in markers.iter().zip(&closed) {
            if !*is_closed {
                let mid = out.add_state();
                let next = out.add_state();
                out.add_transition(suffix_entry, Label::Open(marker.clone()), mid);
                out.add_transition(mid, Label::Close(marker.clone()), next);
                suffix_entry = next;
            }
        }
        out.set_accepting(suffix_entry, true);
        for q in suffix_targets {
            out.add_transition(q, Label::Epsilon, first_suffix);
        }

        let _ = common; // the common set is implicit in `markers`
    }
    out
}

/// Evaluates `VA₁ \ A₂W(d)` through the Lemma 4.2 compilation (compile, then
/// enumerate).
pub fn difference_adhoc_eval(
    a1: &Vsa,
    a2: &Vsa,
    doc: &Document,
    options: DifferenceOptions,
) -> SpannerResult<MappingSet> {
    let ad = difference_adhoc(a1, a2, doc, options)?;
    if ad.accepting_states().is_empty() {
        return Ok(MappingSet::new());
    }
    evaluate(&ad, doc)
}

// ---------------------------------------------------------------------------
// Theorem 4.8-style product construction.
// ---------------------------------------------------------------------------

/// Compiles `VA₁ \ A₂W(d)` into an ad-hoc sequential VA by simulating the
/// match graph of `A₂` alongside `A₁` (see the module documentation).
pub fn difference_product(
    a1: &Vsa,
    a2: &Vsa,
    doc: &Document,
    options: DifferenceOptions,
) -> SpannerResult<Vsa> {
    require_sequential(a1, "left")?;
    require_sequential(a2, "right")?;

    let common = a1.vars().intersection(a2.vars());
    let a2p = a2.project(&common).trim();

    // If the right-hand side is empty on this document the difference is A₁.
    if a2p.accepting_states().is_empty() || !spanner_enum::is_nonempty(&a2p, doc)? {
        return Ok(a1.clone());
    }

    // Decompose the right operand by the set of common variables its
    // accepting runs use: each class is functional over its usage set, so a
    // compatible mapping from that class must agree on *all* of the usage
    // variables the left mapping also defines. (For a synchronized A₂ there
    // is exactly one class — the Theorem 4.8 situation.)
    let right_classes = usage_classes(&a2p, &common);

    // Make A₁ semi-functional for the common variables and split it by the
    // set of common variables its accepting runs close (skip-set classes).
    let a1sf = make_semi_functional(a1, &common);
    let left = a1sf.vsa.clone();
    let state_map: Vec<StateId> = (0..left.state_count()).collect();

    // Group accepting states by closed-set over `common`.
    let mut groups: HashMap<Vec<bool>, Vec<StateId>> = HashMap::new();
    for q in left.states() {
        if left.is_accepting(q) {
            let closed: Vec<bool> = common
                .iter()
                .map(|x| match a1sf.var_index(x) {
                    Some(i) => a1sf.status(q, i) == VarStatus::Closed,
                    None => false,
                })
                .collect();
            groups.entry(closed).or_default().push(q);
        }
    }

    let mut out = Vsa::new();
    for (closed, accepting_group) in groups {
        // Variables this group of left mappings defines among the common ones.
        let defined: VarSet = common
            .iter()
            .zip(&closed)
            .filter(|(_, is_closed)| **is_closed)
            .map(|(x, _)| x.clone())
            .collect();
        let entry = build_difference_group(
            &left,
            &a1sf,
            &state_map,
            &accepting_group,
            &defined,
            &right_classes,
            doc,
            &mut out,
            options,
        )?;
        if let Some(entry) = entry {
            out.add_transition(0, Label::Epsilon, entry);
        }
    }
    Ok(out.trim())
}

/// One usage class of the right operand: a sub-automaton all of whose
/// accepting runs use exactly the variables in `used`.
struct RightClass {
    vsa: Vsa,
    used: VarSet,
}

/// Splits the right operand into usage classes over the common variables.
fn usage_classes(a2p: &Vsa, common: &VarSet) -> Vec<RightClass> {
    let a2sf = make_semi_functional(a2p, common);
    let base = &a2sf.vsa;
    let mut by_used: HashMap<Vec<bool>, Vec<StateId>> = HashMap::new();
    for q in base.accepting_states() {
        let used: Vec<bool> = common
            .iter()
            .map(|x| match a2sf.var_index(x) {
                Some(i) => a2sf.status(q, i) == VarStatus::Closed,
                None => false,
            })
            .collect();
        by_used.entry(used).or_default().push(q);
    }
    let mut out = Vec::new();
    for (used_flags, accepting) in by_used {
        let mut vsa = base.clone();
        for q in vsa.states().collect::<Vec<_>>() {
            vsa.set_accepting(q, false);
        }
        for q in accepting {
            vsa.set_accepting(q, true);
        }
        let used: VarSet = common
            .iter()
            .zip(&used_flags)
            .filter(|(_, f)| **f)
            .map(|(x, _)| x.clone())
            .collect();
        let vsa = vsa.trim();
        if !vsa.accepting_states().is_empty() {
            out.push(RightClass { vsa, used });
        }
    }
    out
}

/// Evaluates the difference through [`difference_product`].
pub fn difference_product_eval(
    a1: &Vsa,
    a2: &Vsa,
    doc: &Document,
    options: DifferenceOptions,
) -> SpannerResult<MappingSet> {
    let ad = difference_product(a1, a2, doc, options)?;
    if ad.accepting_states().is_empty() {
        return Ok(MappingSet::new());
    }
    evaluate(&ad, doc)
}

/// A subset of the right operand's states (sorted, deduplicated).
// A sorted vector of right-operand states (not the bitset `spanner_vset::StateSet`;
// this evaluator predates the compiled engine and tracks small sorted sets).
type RightStates = Vec<StateId>;

/// A variable operation: `(variable, is_open)`.
type VarOp = (Variable, bool);

/// Advances a subset of states of one right-operand class over one document
/// position: performs any sequence of ε / variable operations whose
/// restriction to the *constrained* variables equals exactly `required`,
/// then — unless `pos` is the final position — the letter `doc[pos]`.
///
/// When `pos` is the final position (`|d| + 1`) the second component reports
/// whether an accepting state is reachable (i.e. the class contains a
/// compatible mapping).
fn advance_class(
    class: &RightClass,
    doc: &Document,
    states: &RightStates,
    pos: u32,
    required: &BTreeSet<VarOp>,
    constrained: &VarSet,
) -> (RightStates, bool) {
    let a2 = &class.vsa;
    let n = doc.len() as u32;
    // BFS over (state, subset of `required` already performed).
    let mut seen: BTreeSet<(StateId, Vec<VarOp>)> = BTreeSet::new();
    let mut stack: Vec<(StateId, BTreeSet<VarOp>)> = Vec::new();
    let mut complete: Vec<StateId> = Vec::new();
    for &q in states {
        if seen.insert((q, Vec::new())) {
            if required.is_empty() {
                complete.push(q);
            }
            stack.push((q, BTreeSet::new()));
        }
    }
    while let Some((q, done)) = stack.pop() {
        for t in a2.transitions_from(q) {
            let next_done = match &t.label {
                Label::Epsilon => done.clone(),
                Label::Class(_) => continue,
                Label::Open(v) | Label::Close(v) => {
                    let is_open = matches!(t.label, Label::Open(_));
                    if constrained.contains(v) {
                        let op = (v.clone(), is_open);
                        if !required.contains(&op) || done.contains(&op) {
                            continue; // forbidden or duplicate constrained op
                        }
                        let mut d = done.clone();
                        d.insert(op);
                        d
                    } else {
                        done.clone()
                    }
                }
            };
            let key = (t.target, next_done.iter().cloned().collect::<Vec<_>>());
            if seen.insert(key) {
                if next_done == *required {
                    complete.push(t.target);
                }
                stack.push((t.target, next_done));
            }
        }
    }
    if pos == n + 1 {
        let accepted = complete.iter().any(|&q| a2.is_accepting(q));
        (Vec::new(), accepted)
    } else {
        let symbol = doc.symbol_at(pos).expect("position in range");
        let mut next: BTreeSet<StateId> = BTreeSet::new();
        for &q in &complete {
            for t in a2.transitions_from(q) {
                if let Label::Class(c) = &t.label {
                    if c.contains(symbol) {
                        next.insert(t.target);
                    }
                }
            }
        }
        (next.into_iter().collect(), false)
    }
}

/// A state of the per-group difference product.
#[derive(Clone, PartialEq, Eq, Hash)]
struct DiffState {
    /// State of the left operand at the previous letter boundary.
    boundary: StateId,
    /// Current state of the left operand.
    q1: StateId,
    /// Document position of the next letter to consume (1-based).
    pos: u32,
    /// For every right-operand usage class, the subset of its states
    /// consistent with the constrained operations performed so far (empty =
    /// that class can no longer produce a compatible mapping).
    right: Vec<RightStates>,
}

/// Builds the product for one skip-set group of the left operand.
#[allow(clippy::too_many_arguments)]
fn build_difference_group(
    a1: &Vsa,
    a1sf: &SemiFunctionalVsa,
    state_map: &[StateId],
    accepting_group: &[StateId],
    defined: &VarSet,
    right_classes: &[RightClass],
    doc: &Document,
    out: &mut Vsa,
    options: DifferenceOptions,
) -> SpannerResult<Option<StateId>> {
    if accepting_group.is_empty() {
        return Ok(None);
    }
    let accepting: BTreeSet<StateId> = accepting_group.iter().copied().collect();
    let n = doc.len() as u32;

    // Per class, the variables both sides define (the constrained ones).
    let constrained: Vec<VarSet> = right_classes
        .iter()
        .map(|c| c.used.intersection(defined))
        .collect();

    // The constrained operations the left operand performs between two states
    // are recovered from the status vectors of the semi-functional automaton.
    let status_of = |q: StateId, x: &Variable| -> VarStatus {
        match a1sf.var_index(x) {
            Some(i) => a1sf.status(state_map[q], i),
            None => VarStatus::Unseen,
        }
    };
    let ops_between = |from: StateId, to: StateId, vars: &VarSet| -> BTreeSet<VarOp> {
        let mut ops = BTreeSet::new();
        for x in vars.iter() {
            let before = status_of(from, x);
            let after = status_of(to, x);
            match (before, after) {
                (VarStatus::Unseen, VarStatus::Open) => {
                    ops.insert((x.clone(), true));
                }
                (VarStatus::Open, VarStatus::Closed) => {
                    ops.insert((x.clone(), false));
                }
                (VarStatus::Unseen, VarStatus::Closed) => {
                    ops.insert((x.clone(), true));
                    ops.insert((x.clone(), false));
                }
                _ => {}
            }
        }
        ops
    };

    let mut index: HashMap<DiffState, StateId> = HashMap::new();
    let start = DiffState {
        boundary: a1.initial(),
        q1: a1.initial(),
        pos: 1,
        right: right_classes
            .iter()
            .map(|c| vec![c.vsa.initial()])
            .collect(),
    };
    // Many product states share the same (class, position, subset, required
    // ops) advance; memoize it — this matters when the right operand is a
    // large ad-hoc path automaton (black-box leaves in RA trees).
    type AdvanceKey = (usize, u32, Vec<StateId>, Vec<VarOp>);
    let advance_memo: std::cell::RefCell<HashMap<AdvanceKey, (RightStates, bool)>> =
        std::cell::RefCell::new(HashMap::new());
    let advance_cached = |i: usize, states: &RightStates, pos: u32, required: &BTreeSet<VarOp>| {
        let key = (
            i,
            pos,
            states.clone(),
            required.iter().cloned().collect::<Vec<_>>(),
        );
        if let Some(hit) = advance_memo.borrow().get(&key) {
            return hit.clone();
        }
        let value = advance_class(
            &right_classes[i],
            doc,
            states,
            pos,
            required,
            &constrained[i],
        );
        advance_memo.borrow_mut().insert(key, value.clone());
        value
    };
    let is_accepting = |ds: &DiffState| -> bool {
        if ds.pos != n + 1 || !accepting.contains(&ds.q1) {
            return false;
        }
        // A left mapping is in the difference iff *no* class matches.
        !right_classes.iter().enumerate().any(|(i, _)| {
            if ds.right[i].is_empty() {
                return false;
            }
            let required = ops_between(ds.boundary, ds.q1, &constrained[i]);
            advance_cached(i, &ds.right[i], ds.pos, &required).1
        })
    };
    let entry = out.add_state();
    out.set_accepting(entry, is_accepting(&start));
    index.insert(start.clone(), entry);
    let mut work = vec![start];

    while let Some(ds) = work.pop() {
        let from = index[&ds];
        for t in a1.transitions_from(ds.q1) {
            let (next, label) = match &t.label {
                Label::Epsilon | Label::Open(_) | Label::Close(_) => (
                    DiffState {
                        q1: t.target,
                        ..ds.clone()
                    },
                    t.label.clone(),
                ),
                Label::Class(c) => {
                    if ds.pos > n {
                        continue;
                    }
                    let symbol = doc.symbol_at(ds.pos).expect("position in range");
                    if !c.contains(symbol) {
                        continue;
                    }
                    let right: Vec<RightStates> = right_classes
                        .iter()
                        .enumerate()
                        .map(|(i, _)| {
                            if ds.right[i].is_empty() {
                                Vec::new()
                            } else {
                                let required = ops_between(ds.boundary, ds.q1, &constrained[i]);
                                advance_cached(i, &ds.right[i], ds.pos, &required).0
                            }
                        })
                        .collect();
                    (
                        DiffState {
                            boundary: t.target,
                            q1: t.target,
                            pos: ds.pos + 1,
                            right,
                        },
                        Label::symbol(symbol),
                    )
                }
            };
            let to = match index.get(&next) {
                Some(&id) => id,
                None => {
                    if out.state_count() >= options.max_states {
                        return Err(SpannerError::LimitExceeded {
                            what: "difference product states",
                            limit: options.max_states,
                            actual: out.state_count() + 1,
                        });
                    }
                    let id = out.add_state();
                    out.set_accepting(id, is_accepting(&next));
                    index.insert(next.clone(), id);
                    work.push(next);
                    id
                }
            };
            out.add_transition(from, label, to);
        }
    }
    Ok(Some(entry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpret::interpret;
    use spanner_rgx::parse;
    use spanner_vset::compile;

    fn compiled(pattern: &str) -> Vsa {
        compile(&parse(pattern).unwrap())
    }

    /// The materialized oracle for the difference.
    fn oracle(a1: &Vsa, a2: &Vsa, doc: &Document) -> MappingSet {
        interpret(a1, doc).difference(&interpret(a2, doc))
    }

    fn check_all(a1: &Vsa, a2: &Vsa, texts: &[&str]) {
        for text in texts {
            let doc = Document::new(*text);
            let expected = oracle(a1, a2, &doc);
            let opts = DifferenceOptions::default();
            assert_eq!(
                difference_filter(a1, a2, &doc).unwrap(),
                expected,
                "filter mismatch on {text:?}"
            );
            assert_eq!(
                difference_adhoc_eval(a1, a2, &doc, opts).unwrap(),
                expected,
                "adhoc (Lemma 4.2) mismatch on {text:?}"
            );
            assert_eq!(
                difference_product_eval(a1, a2, &doc, opts).unwrap(),
                expected,
                "product (Theorem 4.8) mismatch on {text:?}"
            );
        }
    }

    #[test]
    fn functional_operands_same_schema() {
        // Both bind x; the difference removes exact span matches.
        let a1 = compiled(".*{x:\\d+}.*");
        let a2 = compiled(".*{x:\\d\\d}.*");
        check_all(&a1, &a2, &["a12b", "1", "99", ""]);
    }

    #[test]
    fn paper_example_2_4_filter_uk_addresses() {
        // Simplified Example 2.4: extract name / optional phone / mail
        // tuples, then subtract the UK-mail extractor.
        let a1 = compiled(r".*{name:\u\l+} ({phone:\d+} )?{mail:\l+@\l+\.\l+}.*");
        let a2 = compiled(r".*{mail:\l+@\l+\.uk}.*");
        check_all(
            &a1,
            &a2,
            &[
                "Bob 42 b@edu.uk ",
                "Bob 42 b@edu.ru ",
                "Ann a@x.uk Bob b@y.ru ",
            ],
        );
    }

    #[test]
    fn schemaless_left_operand() {
        // The left operand sometimes skips x entirely; any right mapping with
        // a disjoint domain then removes it (the Lemma 4.2 subtlety).
        let a1 = compiled("({x:a})?{y:b+}");
        let a2 = compiled("a?{z:b}b*|{x:a}.*");
        check_all(&a1, &a2, &["b", "ab", "abb", "bb"]);
    }

    #[test]
    fn disjoint_variables_make_the_difference_empty_or_full() {
        // No common variables: if VA₂W(d) is nonempty every µ₁ is compatible
        // with every µ₂ (disjoint domains), so the difference is empty;
        // otherwise it is VA₁W(d).
        let a1 = compiled("{x:a*}b");
        let a2 = compiled("{y:a}.*");
        check_all(&a1, &a2, &["ab", "b", "aab"]);
    }

    #[test]
    fn empty_document_cases() {
        let a1 = compiled("{x:()}|()");
        let a2 = compiled("{x:()}");
        check_all(&a1, &a2, &[""]);
        let a3 = compiled("a{x:()}");
        check_all(&a1, &a3, &[""]);
    }

    #[test]
    fn boolean_difference() {
        // No variables at all: the difference behaves like language
        // difference on the single empty mapping.
        let a1 = compiled("(a|b)*");
        let a2 = compiled(".*ab.*");
        check_all(&a1, &a2, &["ab", "ba", "", "bab"]);
    }

    #[test]
    fn synchronized_right_operand_with_many_common_variables() {
        // A₂ is synchronized for all common variables; A₁ is functional.
        // Use 4 common variables to exercise the Theorem 4.8 path.
        let a1 = compiled("{a:\\d}{b:\\d}{c:\\d}{d:\\d}");
        let a2 = compiled("{a:1}{b:\\d}{c:\\d}{d:\\d}|{a:\\d}{b:2}{c:\\d}{d:\\d}");
        // a2 is *not* synchronized (variables under a disjunction), but the
        // construction is still correct; also test a synchronized one.
        let a3 = compiled("{a:\\d}{b:\\d}(){c:\\d}{d:[0-4]}");
        check_all(&a1, &a2, &["1234", "9234", "1334", "9999"]);
        check_all(&a1, &a3, &["1234", "1239", "0000"]);
        assert!(crate::analysis::is_synchronized(
            &compiled("{a:\\d}{b:\\d}(){c:\\d}{d:[0-4]}"),
            &VarSet::from_iter(["a", "b", "c", "d"])
        ));
    }

    #[test]
    fn adhoc_output_is_a_sequential_va_for_the_document() {
        let a1 = compiled("({x:a})?{y:b+}");
        let a2 = compiled("{x:a}b*");
        let doc = Document::new("abb");
        let ad = difference_adhoc(&a1, &a2, &doc, DifferenceOptions::default()).unwrap();
        assert!(analysis::is_sequential(&ad));
        assert_eq!(evaluate(&ad, &doc).unwrap(), oracle(&a1, &a2, &doc));
        let pd = difference_product(&a1, &a2, &doc, DifferenceOptions::default()).unwrap();
        assert!(analysis::is_sequential(&pd));
        assert_eq!(evaluate(&pd, &doc).unwrap(), oracle(&a1, &a2, &doc));
    }

    #[test]
    fn non_sequential_inputs_are_rejected() {
        let mut bad = Vsa::new();
        let q1 = bad.add_state();
        bad.add_transition(0, Label::Open(Variable::new("x")), q1);
        bad.set_accepting(q1, true);
        let good = compiled("{x:a}");
        let doc = Document::new("a");
        assert!(difference_filter(&bad, &good, &doc).is_err());
        assert!(difference_adhoc(&good, &bad, &doc, DifferenceOptions::default()).is_err());
        assert!(difference_product(&bad, &good, &doc, DifferenceOptions::default()).is_err());
    }

    #[test]
    fn hard_case_for_the_filter_baseline() {
        // VA₁W(d) is large but the difference is empty: the ad-hoc
        // constructions detect this without enumerating the left side.
        let a1 = compiled(".*{x:.*}.*");
        let a2 = compiled(".*{x:.*}.*");
        let doc = Document::new("abcdefgh");
        let expected = MappingSet::new();
        let opts = DifferenceOptions::default();
        assert_eq!(
            difference_adhoc_eval(&a1, &a2, &doc, opts).unwrap(),
            expected
        );
        assert_eq!(
            difference_product_eval(&a1, &a2, &doc, opts).unwrap(),
            expected
        );
        assert_eq!(difference_filter(&a1, &a2, &doc).unwrap(), expected);
    }
}
