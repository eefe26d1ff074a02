//! Static compilation of the natural join (Lemmas 3.2 / 3.8).
//!
//! [`join`] compiles the natural join of two sequential VAs into a single
//! sequential VA. The construction is fixed-parameter tractable in the number
//! of *common* variables `k = |Vars(A₁) ∩ Vars(A₂)|`, matching Lemma 3.2:
//! the output has `O(3^k · |Q₁||Q₂| · 4^k)` states in the worst case and is
//! built lazily, so in practice it is far smaller.
//!
//! ## How the product synchronizes shared variables
//!
//! Two mappings are compatible when they agree on the variables both of them
//! define. For every shared variable `x` the product therefore branches over
//! a *mode*:
//!
//! * `Sync` — both operands bind `x` (or neither does); the product forces
//!   the open/close operations to happen at the same document positions by
//!   tracking, for each operand, the set of shared operations it has
//!   performed since the last consumed symbol and requiring the two sets to
//!   be equal whenever a symbol is consumed and at acceptance.
//! * `LeftOnly` — the right operand is forbidden to touch `x` (covers pairs
//!   where only the left mapping defines `x`).
//! * `RightOnly` — symmetric.
//!
//! The union over all mode vectors covers exactly the compatible pairs, and
//! every emitted run is valid, so the result is again sequential. Impossible
//! modes are pruned using the usage analysis (`can_avoid`), so
//! when both operands are functional over the shared variables — e.g. for
//! the disjunctive-functional join of Proposition 3.12 — only the single
//! `Sync` vector remains and the construction is polynomial with no
//! dependence on `k`.

use crate::analysis::{can_avoid, is_sequential};
use crate::automaton::{Label, StateId, Vsa};
use spanner_core::{FxHashMap, SpannerError, SpannerResult, Variable};
use std::collections::HashMap;

/// Per-shared-variable synchronization mode.
///
/// Modes are decided *lazily*: every shared variable starts `Undecided` and
/// the product branches on the first operation that touches it. Only
/// reachable mode combinations are ever materialized, which keeps the
/// construction close to the true product size instead of the worst-case
/// `3^k` bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Mode {
    /// Neither operand has touched the variable yet.
    Undecided,
    /// Both operands perform the variable's operations at the same positions.
    Sync,
    /// Only the left operand may operate on the variable.
    LeftOnly,
    /// Only the right operand may operate on the variable.
    RightOnly,
}

impl Mode {
    fn code(self) -> u64 {
        match self {
            Mode::Undecided => 0,
            Mode::Sync => 1,
            Mode::LeftOnly => 2,
            Mode::RightOnly => 3,
        }
    }

    fn from_code(code: u64) -> Mode {
        match code {
            0 => Mode::Undecided,
            1 => Mode::Sync,
            2 => Mode::LeftOnly,
            _ => Mode::RightOnly,
        }
    }
}

/// Reads the mode of shared variable `i` from the packed vector.
fn get_mode(modes: u64, i: usize) -> Mode {
    Mode::from_code((modes >> (2 * i)) & 0b11)
}

/// Returns the packed vector with the mode of shared variable `i` set.
fn set_mode(modes: u64, i: usize, mode: Mode) -> u64 {
    (modes & !(0b11 << (2 * i))) | (mode.code() << (2 * i))
}

/// Options controlling the join compilation.
#[derive(Debug, Clone, Copy)]
pub struct JoinOptions {
    /// Upper bound on the number of product states (guards against the
    /// exponential dependence on the number of shared variables).
    pub max_states: usize,
}

impl Default for JoinOptions {
    fn default() -> Self {
        JoinOptions {
            max_states: 4_000_000,
        }
    }
}

/// Compiles `VA₁ ⋈ A₂W` into a single sequential VA (Lemma 3.2).
///
/// Both inputs must be sequential. The runtime and output size are
/// fixed-parameter tractable in `|Vars(A₁) ∩ Vars(A₂)|`.
pub fn join(a1: &Vsa, a2: &Vsa) -> SpannerResult<Vsa> {
    join_with_options(a1, a2, JoinOptions::default())
}

/// Maximum number of shared variables supported by the packed product-state
/// representation.
pub const MAX_SHARED_JOIN_VARS: usize = 30;

/// [`join`] with explicit limits.
pub fn join_with_options(a1: &Vsa, a2: &Vsa, options: JoinOptions) -> SpannerResult<Vsa> {
    for (name, a) in [("left", a1), ("right", a2)] {
        if !is_sequential(a) {
            return Err(SpannerError::requirement(
                "sequential",
                format!("the {name} operand of the join is not sequential"),
            ));
        }
    }
    let a1 = a1.trim();
    let a2 = a2.trim();
    if a1.accepting_states().is_empty() || a2.accepting_states().is_empty() {
        return Ok(Vsa::new());
    }
    let shared: Vec<Variable> = a1.vars().intersection(a2.vars()).to_vec();
    if shared.len() > MAX_SHARED_JOIN_VARS {
        return Err(SpannerError::LimitExceeded {
            what: "shared join variables",
            limit: MAX_SHARED_JOIN_VARS,
            actual: shared.len(),
        });
    }
    // Usage analysis for pruning: a `LeftOnly` / `RightOnly` branch can only
    // lead to acceptance if the *other* operand has an accepting run avoiding
    // the variable.
    let left_only_allowed: Vec<bool> = shared.iter().map(|x| can_avoid(&a2, x)).collect();
    let right_only_allowed: Vec<bool> = shared.iter().map(|x| can_avoid(&a1, x)).collect();

    build_product(
        &a1,
        &a2,
        &shared,
        &left_only_allowed,
        &right_only_allowed,
        options,
    )
    .map(Vsa::trimmed)
}

/// Computes, for every state, the bitmask of *shared* variable operations
/// (bit `2i` = open of shared var `i`, bit `2i + 1` = close) performable on
/// some path of non-consuming transitions starting at the state.
///
/// Used to prune product states at generation time: if one operand has
/// performed a sync-mode operation that the other can no longer perform
/// before the next consumed symbol, the sync sets can never equalize and the
/// product state is dead. Generating (and later trimming) those states is
/// where the naive construction spends most of its time.
fn reachable_shared_ops(a: &Vsa, shared_index: &HashMap<&Variable, usize>) -> Vec<u64> {
    let n = a.state_count();
    let mut ops = vec![0u64; n];
    // Fixpoint: the op masks only grow, and each pass propagates them one
    // non-consuming edge further; iteration count is bounded by the longest
    // simple zero-path.
    loop {
        let mut changed = false;
        for q in 0..n {
            let mut acc = ops[q];
            for t in a.transitions_from(q) {
                match &t.label {
                    Label::Epsilon => acc |= ops[t.target],
                    Label::Class(_) => {}
                    Label::Open(v) | Label::Close(v) => {
                        acc |= ops[t.target];
                        if let Some(&i) = shared_index.get(v) {
                            let is_open = matches!(t.label, Label::Open(_));
                            acc |= 1u64 << (2 * i + usize::from(!is_open));
                        }
                    }
                }
            }
            if acc != ops[q] {
                ops[q] = acc;
                changed = true;
            }
        }
        if !changed {
            return ops;
        }
    }
}

/// A product state.
#[derive(Clone, PartialEq, Eq, Hash)]
struct ProductState {
    q1: StateId,
    q2: StateId,
    /// Shared (sync-mode) operations performed by the left operand since the
    /// last consumed symbol; bit `2i` = open of shared var `i`, bit `2i + 1` =
    /// close of shared var `i`.
    d1: u64,
    /// Same for the right operand.
    d2: u64,
    /// Packed per-shared-variable modes (2 bits each).
    modes: u64,
}

/// Builds the lazy-mode product automaton.
fn build_product(
    a1: &Vsa,
    a2: &Vsa,
    shared: &[Variable],
    left_only_allowed: &[bool],
    right_only_allowed: &[bool],
    options: JoinOptions,
) -> SpannerResult<Vsa> {
    let shared_index: HashMap<&Variable, usize> =
        shared.iter().enumerate().map(|(i, v)| (v, i)).collect();
    let reach1 = reachable_shared_ops(a1, &shared_index);
    let reach2 = reachable_shared_ops(a2, &shared_index);
    // A successor is viable only if every sync operation one operand is
    // ahead on is still performable by the other before the next symbol.
    let viable = |ps: &ProductState| -> bool {
        (ps.d1 & !ps.d2) & !reach2[ps.q2] == 0 && (ps.d2 & !ps.d1) & !reach1[ps.q1] == 0
    };

    let mut out = Vsa::new(); // state 0 = fresh initial state
    let mut index: FxHashMap<ProductState, StateId> = FxHashMap::default();
    let start = ProductState {
        q1: a1.initial(),
        q2: a2.initial(),
        d1: 0,
        d2: 0,
        modes: 0,
    };
    let is_accepting =
        |ps: &ProductState| a1.is_accepting(ps.q1) && a2.is_accepting(ps.q2) && ps.d1 == ps.d2;
    let entry = out.add_state();
    out.set_accepting(entry, is_accepting(&start));
    out.add_transition(0, Label::Epsilon, entry);
    index.insert(start.clone(), entry);
    let mut work = vec![start];

    let mut successors: Vec<(ProductState, Label)> = Vec::new();
    while let Some(ps) = work.pop() {
        let from = index[&ps];
        // Collect the successors of this product state, then intern them.
        successors.clear();

        // Moves of the left operand.
        for t in a1.transitions_from(ps.q1) {
            match &t.label {
                Label::Epsilon => successors.push((
                    ProductState {
                        q1: t.target,
                        ..ps.clone()
                    },
                    Label::Epsilon,
                )),
                Label::Class(c1) => {
                    // Symbols are consumed jointly; the sync sets must agree.
                    if ps.d1 != ps.d2 {
                        continue;
                    }
                    for t2 in a2.transitions_from(ps.q2) {
                        if let Label::Class(c2) = &t2.label {
                            let both = c1.intersect(c2);
                            if both.is_empty() {
                                continue;
                            }
                            successors.push((
                                ProductState {
                                    q1: t.target,
                                    q2: t2.target,
                                    d1: 0,
                                    d2: 0,
                                    modes: ps.modes,
                                },
                                Label::Class(both),
                            ));
                        }
                    }
                }
                Label::Open(v) | Label::Close(v) => {
                    let is_open = matches!(t.label, Label::Open(_));
                    match shared_index.get(v) {
                        None => {
                            // Private variable of the left operand.
                            successors.push((
                                ProductState {
                                    q1: t.target,
                                    ..ps.clone()
                                },
                                t.label.clone(),
                            ));
                        }
                        Some(&i) => {
                            let bit = 1u64 << (2 * i + usize::from(!is_open));
                            let mode = get_mode(ps.modes, i);
                            // Synchronized branch.
                            if matches!(mode, Mode::Undecided | Mode::Sync) {
                                successors.push((
                                    ProductState {
                                        q1: t.target,
                                        d1: ps.d1 | bit,
                                        modes: set_mode(ps.modes, i, Mode::Sync),
                                        ..ps.clone()
                                    },
                                    t.label.clone(),
                                ));
                            }
                            // Left-only branch (the right operand avoids the
                            // variable for the rest of the run).
                            if (mode == Mode::Undecided && left_only_allowed[i])
                                || mode == Mode::LeftOnly
                            {
                                successors.push((
                                    ProductState {
                                        q1: t.target,
                                        modes: set_mode(ps.modes, i, Mode::LeftOnly),
                                        ..ps.clone()
                                    },
                                    t.label.clone(),
                                ));
                            }
                            // Mode::RightOnly: the left operand may not touch it.
                        }
                    }
                }
            }
        }

        // Moves of the right operand (symbols were handled jointly above).
        for t in a2.transitions_from(ps.q2) {
            match &t.label {
                Label::Epsilon => successors.push((
                    ProductState {
                        q2: t.target,
                        ..ps.clone()
                    },
                    Label::Epsilon,
                )),
                Label::Class(_) => {}
                Label::Open(v) | Label::Close(v) => {
                    let is_open = matches!(t.label, Label::Open(_));
                    match shared_index.get(v) {
                        None => {
                            successors.push((
                                ProductState {
                                    q2: t.target,
                                    ..ps.clone()
                                },
                                t.label.clone(),
                            ));
                        }
                        Some(&i) => {
                            let bit = 1u64 << (2 * i + usize::from(!is_open));
                            let mode = get_mode(ps.modes, i);
                            // Synchronized branch: the left operand is the one
                            // that emits the shared operation, so this copy is
                            // silent.
                            if matches!(mode, Mode::Undecided | Mode::Sync) {
                                successors.push((
                                    ProductState {
                                        q2: t.target,
                                        d2: ps.d2 | bit,
                                        modes: set_mode(ps.modes, i, Mode::Sync),
                                        ..ps.clone()
                                    },
                                    Label::Epsilon,
                                ));
                            }
                            // Right-only branch.
                            if (mode == Mode::Undecided && right_only_allowed[i])
                                || mode == Mode::RightOnly
                            {
                                successors.push((
                                    ProductState {
                                        q2: t.target,
                                        modes: set_mode(ps.modes, i, Mode::RightOnly),
                                        ..ps.clone()
                                    },
                                    t.label.clone(),
                                ));
                            }
                            // Mode::LeftOnly: the right operand may not touch it.
                        }
                    }
                }
            }
        }

        for (target, label) in successors.drain(..) {
            if !viable(&target) {
                continue;
            }
            let to = match index.get(&target) {
                Some(&id) => id,
                None => {
                    if out.state_count() >= options.max_states {
                        return Err(SpannerError::LimitExceeded {
                            what: "join product states",
                            limit: options.max_states,
                            actual: out.state_count() + 1,
                        });
                    }
                    let id = out.add_state();
                    out.set_accepting(id, is_accepting(&target));
                    index.insert(target.clone(), id);
                    work.push(target);
                    id
                }
            };
            out.add_transition(from, label, to);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thompson::compile;
    use spanner_rgx::parse;

    fn compiled(pattern: &str) -> Vsa {
        compile(&parse(pattern).unwrap())
    }

    #[test]
    fn non_sequential_operands_are_rejected() {
        let mut bad = Vsa::new();
        let q1 = bad.add_state();
        bad.add_transition(0, Label::Open(Variable::new("x")), q1);
        bad.set_accepting(q1, true);
        let good = compiled("a");
        assert!(matches!(
            join(&bad, &good),
            Err(SpannerError::Requirement { .. })
        ));
        assert!(matches!(
            join(&good, &bad),
            Err(SpannerError::Requirement { .. })
        ));
    }

    #[test]
    fn state_limit_is_enforced() {
        let a1 = compiled("({x:a})?({y:a})?({z:a})?a*");
        let a2 = compiled("({x:a})?({y:a})?({z:a})?a*");
        let err = join_with_options(&a1, &a2, JoinOptions { max_states: 5 });
        assert!(matches!(err, Err(SpannerError::LimitExceeded { .. })));
    }
}
