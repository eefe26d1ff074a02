//! Compact representation of sets of variable operations.

use spanner_core::{Span, SpannerError, SpannerResult, Variable};

/// Maximum number of variables a single automaton may use with the bitset
/// representation (open + close bits must fit into a `u64`).
pub const MAX_VARS: usize = 32;

/// A set of variable operations (`x⊢` / `⊣x`), stored as a bitmask.
///
/// Bit `2i` is the *open* operation of variable `i`, bit `2i + 1` its *close*
/// operation, where `i` is the index of the variable in the automaton's
/// variable order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct OpSet(pub u64);

impl OpSet {
    /// The empty operation set.
    pub const EMPTY: OpSet = OpSet(0);

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Whether the set contains the given bit.
    #[inline]
    pub fn contains(self, bit: u64) -> bool {
        self.0 & bit != 0
    }

    /// Adds a bit.
    #[inline]
    pub fn with(self, bit: u64) -> OpSet {
        OpSet(self.0 | bit)
    }

    /// Number of operations in the set.
    #[inline]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }
}

/// Fails if `count` variables do not fit the bitset representation.
pub(crate) fn check_var_limit(count: usize) -> SpannerResult<()> {
    if count > MAX_VARS {
        return Err(SpannerError::LimitExceeded {
            what: "variables per automaton (bitset operation sets)",
            limit: MAX_VARS,
            actual: count,
        });
    }
    Ok(())
}

/// Reconstructs a [`spanner_core::Mapping`] from the positions at which each
/// operation of a run was performed.
///
/// `vars` are the automaton's variables in operation-bit order; `ops_at`
/// lists the non-empty operation sets of the run with their (1-based)
/// document positions. Returns an error if an open operation has no matching
/// close (which cannot happen for accepting runs of sequential automata).
pub(crate) fn mapping_from_ops(
    vars: &[Variable],
    ops_at: &[(u32, OpSet)],
) -> SpannerResult<spanner_core::Mapping> {
    // `[open, close]` position per variable; positions are 1-based, so 0
    // marks an operation that was never performed.
    let mut at = [[0u32; 2]; MAX_VARS];
    for &(pos, set) in ops_at {
        let mut rest = set.0;
        while rest != 0 {
            let bit = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            at[bit / 2][bit % 2] = pos;
        }
    }
    let mut mapping = spanner_core::Mapping::new();
    for (var, &[open, close]) in vars.iter().zip(&at) {
        match (open, close) {
            (0, 0) => {}
            (0, _) => {
                return Err(SpannerError::Invalid(
                    "a variable was closed without being opened".to_string(),
                ))
            }
            _ if close >= open => {
                mapping.insert(var.clone(), Span::new(open, close));
            }
            _ => {
                return Err(SpannerError::Invalid(format!(
                    "variable {var} opened at {open} but not properly closed"
                )))
            }
        }
    }
    Ok(mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_core::Mapping;

    #[test]
    fn too_many_variables_rejected() {
        assert!(check_var_limit(MAX_VARS).is_ok());
        assert!(check_var_limit(40).is_err());
    }

    #[test]
    fn opset_operations() {
        let s = OpSet::EMPTY.with(1).with(4);
        assert!(s.contains(1));
        assert!(!s.contains(2));
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(OpSet::EMPTY.is_empty());
    }

    #[test]
    fn mapping_reconstruction() {
        // Bit `2i` opens variable `i`, bit `2i + 1` closes it.
        let vars = [Variable::new("x"), Variable::new("y")];
        let (xo, xc, yo, yc) = (1, 2, 4, 8);
        let ops = vec![
            (1, OpSet::EMPTY.with(xo)),
            (3, OpSet::EMPTY.with(xc).with(yo).with(yc)),
        ];
        let m = mapping_from_ops(&vars, &ops).unwrap();
        assert_eq!(
            m,
            Mapping::from_pairs([("x", Span::new(1, 3)), ("y", Span::new(3, 3))])
        );

        // Unclosed variable is an error.
        let bad = vec![(1, OpSet::EMPTY.with(xo))];
        assert!(mapping_from_ops(&vars, &bad).is_err());
    }
}
