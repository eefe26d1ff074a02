//! The schemaless-spanner abstraction.

use spanner_core::{Document, MappingSet, SpannerResult, VarSet};
use std::fmt;
use std::sync::Arc;

/// A schemaless document spanner: a function from documents to finite sets of
/// mappings (Section 2.1).
///
/// The trait is deliberately minimal so that arbitrary *black-box* extractors
/// (Section 5 / Corollary 5.3) can participate in RA trees: a POS tagger, a
/// sentiment classifier, a string-equality check, … anything that can produce
/// mappings in polynomial time and has bounded degree.
pub trait Spanner: Send + Sync {
    /// A human-readable name (used in plans and error messages).
    fn name(&self) -> String;

    /// The variables this spanner may bind. Every mapping it produces has a
    /// domain contained in this set.
    fn vars(&self) -> VarSet;

    /// The spanner's *degree*: the maximum cardinality of a produced mapping
    /// over all documents (Section 5). Defaults to the declared variable
    /// count.
    fn degree(&self) -> usize {
        self.vars().len()
    }

    /// Applies the spanner to a document.
    fn eval(&self, doc: &Document) -> SpannerResult<MappingSet>;
}

impl fmt::Debug for dyn Spanner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Spanner({})", self.name())
    }
}

/// A reference-counted spanner object, the form used inside RA trees.
pub type SpannerRef = Arc<dyn Spanner>;

/// The unit tests' black box: binds `t` to the whole document.
#[cfg(test)]
pub(crate) struct WholeDocument;

#[cfg(test)]
impl Spanner for WholeDocument {
    fn name(&self) -> String {
        "whole(t)".to_string()
    }

    fn vars(&self) -> VarSet {
        VarSet::from_iter(["t"])
    }

    fn eval(&self, doc: &Document) -> SpannerResult<MappingSet> {
        let whole = spanner_core::Mapping::from_pairs([("t", doc.full_span())]);
        Ok([whole].into_iter().collect())
    }
}
