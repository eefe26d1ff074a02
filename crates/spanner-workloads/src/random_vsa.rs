//! Random sequential vset-automata and regex formulas.
//!
//! The paper argues that atomic extractors must be treated as part of the
//! input because realistic ones are large (hand-written regexes with hundreds
//! of symbols, automata distilled from neural models with thousands of
//! states). These generators produce automata and formulas whose size and
//! variable count are controlled parameters, for the scaling experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spanner_core::ByteClass;
use spanner_rgx::Rgx;
use spanner_vset::{Label, Vsa};

/// Configuration for [`random_sequential_vsa`].
#[derive(Debug, Clone, Copy)]
pub struct RandomVsaConfig {
    /// Number of "letter-consuming" layers.
    pub layers: usize,
    /// States per layer.
    pub width: usize,
    /// Alphabet to draw letter transitions from.
    pub alphabet: &'static [u8],
    /// Variables to weave into the automaton (each is opened and closed on
    /// some runs).
    pub num_vars: usize,
    /// Prefix for the generated variable names.
    pub var_prefix: &'static str,
}

impl Default for RandomVsaConfig {
    fn default() -> Self {
        RandomVsaConfig {
            layers: 8,
            width: 4,
            alphabet: b"ab",
            num_vars: 2,
            var_prefix: "v",
        }
    }
}

/// Generates a random *sequential* vset-automaton.
///
/// The automaton is built as a layered DAG with back edges on letters only:
/// layer `i` reads a letter and moves to layer `i + 1` (or stays, to accept
/// documents longer than the number of layers). Each variable `vⱼ` is opened
/// on the way out of one randomly chosen layer and closed at a later one, on
/// a randomly chosen subset of the states, which makes the automaton
/// schemaless (some accepting runs skip the variable) yet sequential by
/// construction.
pub fn random_sequential_vsa(config: RandomVsaConfig, seed: u64) -> Vsa {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vsa = Vsa::new();
    let layers = config.layers.max(2);
    let width = config.width.max(1);

    // States: layer × width, plus the initial state which feeds layer 0.
    let mut grid = vec![vec![0usize; width]; layers];
    for row in grid.iter_mut() {
        for slot in row.iter_mut() {
            *slot = vsa.add_state();
        }
    }
    for &q in &grid[0] {
        vsa.add_transition(0, Label::Epsilon, q);
    }
    // Letter transitions between consecutive layers (and self-loops on the
    // last layer so that longer documents are accepted).
    for layer in 0..layers {
        for &q in &grid[layer] {
            let fanout = rng.gen_range(1..=2);
            for _ in 0..fanout {
                let symbol = config.alphabet[rng.gen_range(0..config.alphabet.len())];
                let target_layer = if layer + 1 < layers { layer + 1 } else { layer };
                let target = grid[target_layer][rng.gen_range(0..width)];
                vsa.add_transition(q, Label::Class(ByteClass::single(symbol)), target);
            }
        }
    }
    // Accepting states: the last layer.
    for &q in &grid[layers - 1] {
        vsa.set_accepting(q, true);
    }
    // Variables: variable j is opened between layer o and o+1 and closed
    // between layer c and c+1 (o < c), by routing some letter transitions
    // through fresh intermediate states.
    for j in 0..config.num_vars {
        let var = spanner_core::Variable::new(format!("{}{}", config.var_prefix, j));
        let open_layer = rng.gen_range(0..layers - 1);
        let close_layer = rng.gen_range(open_layer + 1..layers);
        // Open: add an alternative path q --open--> fresh --ε--> q' for a few
        // states of the open layer.
        for _ in 0..width.max(1) {
            let q = grid[open_layer][rng.gen_range(0..width)];
            let fresh = vsa.add_state();
            vsa.add_transition(q, Label::Open(var.clone()), fresh);
            // From the fresh state, a letter into the next layer.
            let symbol = config.alphabet[rng.gen_range(0..config.alphabet.len())];
            let target = grid[open_layer + 1][rng.gen_range(0..width)];
            vsa.add_transition(fresh, Label::Class(ByteClass::single(symbol)), target);
            // Close: from a state of the close layer, close the variable and
            // continue with an ε into the same layer (the close is only
            // reachable when the variable was opened — see below).
            let q_close = grid[close_layer][rng.gen_range(0..width)];
            let fresh_close = vsa.add_state();
            vsa.add_transition(q_close, Label::Close(var.clone()), fresh_close);
            vsa.add_transition(fresh_close, Label::Epsilon, q_close);
        }
    }
    // The construction above can create runs that open without closing or
    // close without opening; those runs are invalid and therefore do not
    // contribute mappings, but they would make the automaton non-sequential.
    // Sanitize by tracking the variables: the semi-functional transformation
    // drops exactly the invalid prefixes.
    let vars = vsa.vars().clone();
    spanner_vset::make_semi_functional(&vsa, &vars).vsa.trim()
}

/// Generates a random sequential regex formula with `depth` nested operators
/// over the given alphabet, introducing at most `max_vars` capture variables.
pub fn random_sequential_rgx(depth: usize, max_vars: usize, seed: u64) -> Rgx {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_var = 0usize;
    build_rgx(depth, max_vars, &mut next_var, &mut rng)
}

fn build_rgx(depth: usize, max_vars: usize, next_var: &mut usize, rng: &mut StdRng) -> Rgx {
    if depth == 0 {
        return match rng.gen_range(0..4) {
            0 => Rgx::Epsilon,
            1 => Rgx::symbol(b"abc"[rng.gen_range(0..3)]),
            2 => Rgx::Class(ByteClass::range(b'a', b'c')),
            _ => Rgx::star(Rgx::symbol(b"abc"[rng.gen_range(0..3)])),
        };
    }
    match rng.gen_range(0..5) {
        0 => Rgx::concat([
            build_rgx(depth - 1, max_vars, next_var, rng),
            build_rgx(depth - 1, max_vars, next_var, rng),
        ]),
        1 => Rgx::union([
            build_rgx(depth - 1, max_vars, next_var, rng),
            build_rgx(depth - 1, max_vars, next_var, rng),
        ]),
        2 => {
            // Stars must not contain variables (sequentiality), so build a
            // variable-free body.
            let mut no_vars = 0usize;
            let body = build_rgx(depth.saturating_sub(1).min(2), 0, &mut no_vars, rng);
            Rgx::star(strip_vars(body))
        }
        _ => {
            if *next_var < max_vars {
                let name = format!("r{}", *next_var);
                *next_var += 1;
                Rgx::capture(name, build_rgx(depth - 1, max_vars, next_var, rng))
            } else {
                build_rgx(depth - 1, max_vars, next_var, rng)
            }
        }
    }
}

/// Removes every capture from a formula (keeps the regular-language part).
fn strip_vars(r: Rgx) -> Rgx {
    match r {
        Rgx::Capture(_, inner) => strip_vars(*inner),
        Rgx::Concat(parts) => Rgx::concat(parts.into_iter().map(strip_vars)),
        Rgx::Union(parts) => Rgx::union(parts.into_iter().map(strip_vars)),
        Rgx::Star(inner) => Rgx::star(strip_vars(*inner)),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_core::Document;
    use spanner_paper::interpret;
    use spanner_rgx::is_sequential as rgx_sequential;
    use spanner_vset::{analysis, compile};

    #[test]
    fn random_vsa_is_sequential_and_deterministic() {
        for seed in 0..6 {
            let cfg = RandomVsaConfig {
                layers: 5,
                width: 3,
                num_vars: 2,
                ..RandomVsaConfig::default()
            };
            let a = random_sequential_vsa(cfg, seed);
            assert!(analysis::is_sequential(&a), "seed {seed}");
            assert_eq!(
                a.state_count(),
                random_sequential_vsa(cfg, seed).state_count()
            );
        }
    }

    #[test]
    fn random_vsa_produces_mappings() {
        let cfg = RandomVsaConfig {
            layers: 4,
            width: 2,
            num_vars: 1,
            ..RandomVsaConfig::default()
        };
        // Over several seeds, at least one automaton must produce a
        // non-empty result on some short document.
        let mut produced = false;
        for seed in 0..10 {
            let a = random_sequential_vsa(cfg, seed);
            for text in ["aaa", "abab", "bbbb", "aaaa"] {
                if !interpret(&a, &Document::new(text)).is_empty() {
                    produced = true;
                }
            }
        }
        assert!(produced);
    }

    #[test]
    fn random_rgx_is_sequential_and_compiles() {
        for seed in 0..20 {
            let r = random_sequential_rgx(4, 3, seed);
            assert!(rgx_sequential(&r), "seed {seed}: {r}");
            let a = compile(&r);
            assert!(analysis::is_sequential(&a), "seed {seed}");
        }
    }

    #[test]
    fn random_rgx_matches_reference_semantics() {
        use spanner_enum::evaluate_rgx;
        use spanner_paper::reference_eval;
        for seed in 0..10 {
            let r = random_sequential_rgx(3, 2, seed);
            for text in ["", "a", "ab", "abc"] {
                let doc = Document::new(text);
                assert_eq!(
                    evaluate_rgx(&r, &doc).unwrap(),
                    reference_eval(&r, &doc),
                    "seed {seed} text {text:?} formula {r}"
                );
            }
        }
    }
}
