//! Random mutation scripts for the incremental-evaluation tests.
//!
//! The differential oracles (`tests/incr_oracle.rs`) need reproducible
//! interleavings of appends, updates, and deletes whose document ids are
//! always valid for the corpus they run against. The generated texts deliberately mix needle hits, misses,
//! empty documents, and multi-byte UTF-8, so hash-keyed view invalidation
//! is exercised across char boundaries and on the empty-document edge.

use crate::corpora::needle_padding;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spanner_store::Mutation;

/// One random replacement/insertion text: empty, multi-byte UTF-8 around
/// the needle, an ASCII needle hit, or plain padding (a miss).
fn random_text(rng: &mut StdRng) -> String {
    match rng.gen_range(0..6u32) {
        0 => String::new(),
        1 => format!("αβ needle δέλτα {}", rng.gen_range(0..100u32)),
        2 => format!("line with needle {}", rng.gen_range(0..1_000u32)),
        _ => needle_padding(rng.gen_range(1..60), rng.gen_range(0..u64::MAX)),
    }
}

/// A reproducible script of `count` mutations, valid against a corpus
/// that starts at `corpus_len` documents: every generated `Update`/
/// `Delete` id is below the corpus length at its point in the script
/// (appends grow it). Deletes may hit an already-deleted id — the store
/// treats that as an idempotent no-op, and the scripts exercise it on
/// purpose. Weights are 3 appends : 4 updates : 3 deletes (all appends
/// while the corpus is empty).
pub fn random_mutations(corpus_len: usize, count: usize, seed: u64) -> Vec<Mutation> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut len = corpus_len;
    let mut script = Vec::with_capacity(count);
    for _ in 0..count {
        let roll = if len == 0 { 0 } else { rng.gen_range(0..10u32) };
        script.push(match roll {
            0..=2 => {
                len += 1;
                Mutation::Append {
                    text: random_text(&mut rng),
                }
            }
            3..=6 => Mutation::Update {
                id: rng.gen_range(0..len) as u32,
                text: random_text(&mut rng),
            },
            _ => Mutation::Delete {
                id: rng.gen_range(0..len) as u32,
            },
        });
    }
    script
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_core::Document;
    use spanner_store::Store;

    #[test]
    fn scripts_are_deterministic_and_always_applicable() {
        assert_eq!(random_mutations(5, 40, 7), random_mutations(5, 40, 7));
        assert_ne!(random_mutations(5, 40, 7), random_mutations(5, 40, 8));
        for seed in 0..20 {
            let docs: Vec<Document> = (0..5).map(|i| Document::new(format!("doc {i}"))).collect();
            let mut store = Store::build(docs).unwrap();
            for m in random_mutations(5, 60, seed) {
                store.apply(&m).expect("generated ids are always in range");
            }
        }
    }

    #[test]
    fn scripts_cover_every_operation_and_text_shape() {
        let script = random_mutations(10, 400, 42);
        let (mut appends, mut updates, mut deletes) = (0, 0, 0);
        let (mut empty, mut multibyte) = (0, 0);
        for m in &script {
            let text = match m {
                Mutation::Append { text } => {
                    appends += 1;
                    Some(text)
                }
                Mutation::Update { text, .. } => {
                    updates += 1;
                    Some(text)
                }
                Mutation::Delete { .. } => {
                    deletes += 1;
                    None
                }
            };
            if let Some(text) = text {
                empty += usize::from(text.is_empty());
                multibyte += usize::from(text.len() > text.chars().count());
            }
        }
        assert!(appends > 0 && updates > 0 && deletes > 0, "{script:?}");
        assert!(empty > 0, "empty documents must appear");
        assert!(multibyte > 0, "multi-byte UTF-8 must appear");
    }

    #[test]
    fn empty_corpus_scripts_start_with_an_append() {
        let script = random_mutations(0, 10, 3);
        assert!(matches!(script[0], Mutation::Append { .. }));
        let mut store = Store::build(Vec::new()).unwrap();
        for m in &script {
            store.apply(m).unwrap();
        }
    }
}
