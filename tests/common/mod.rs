//! Shared by the differential oracles: the sparse corpus answer
//! (`CorpusMatches`) held against the dense one (`CorpusResult`).
#![allow(dead_code)] // each oracle uses the helpers it needs

use document_spanners::prelude::*;

/// A sparse answer held to its own contract — id-sorted, no empty relation,
/// `get` agreeing with the slot for every document — and made dense, so
/// that it is compared against the dense entry points with `==`.
pub fn dense(sparse: CorpusMatches) -> CorpusResult {
    let ids: Vec<u32> = sparse.matches.iter().map(|(id, _)| *id).collect();
    assert!(ids.windows(2).all(|pair| pair[0] < pair[1]), "{ids:?}");
    assert!(sparse.matches.iter().all(|(_, set)| !set.is_empty()));
    let looked_up: Vec<Option<MappingSet>> = (0..sparse.stats.documents as u32)
        .map(|id| sparse.get(id).cloned())
        .collect();
    assert_eq!(sparse.get(sparse.stats.documents as u32), None);
    let out = sparse.into_dense();
    for (slot, found) in out.results.iter().zip(looked_up) {
        assert_eq!(slot, &found.unwrap_or_default());
    }
    out
}

/// The sparse answer made dense is the dense answer: the relations and
/// every tally (the clock aside).
pub fn assert_same_answer(sparse: CorpusMatches, dense_answer: &CorpusResult, context: &str) {
    let tallies = |s: CorpusStats| {
        let counts = (s.documents, s.mappings, s.matched_documents);
        (counts, s.threads, s.docs_skipped, s.docs_rejected)
    };
    assert_eq!(
        tallies(sparse.stats),
        tallies(dense_answer.stats),
        "{context}"
    );
    assert_eq!(dense(sparse).results, dense_answer.results, "{context}");
}
