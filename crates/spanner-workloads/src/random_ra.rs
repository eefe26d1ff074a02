//! Random RA trees over random atomic spanners.
//!
//! The planner and the evaluation pipelines are differentially tested
//! against the materialized oracle on *generated* query plans: seeded,
//! reproducible RA trees whose leaves are random sequential vset-automata
//! and regex formulas (see `random_vsa`). Variable names are drawn from two
//! small pools on purpose, so that joins share variables (exercising the
//! FPT product and the planner's join ordering) and differences relate
//! overlapping schemas.

use crate::random_vsa::{random_sequential_rgx, random_sequential_vsa, RandomVsaConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spanner_algebra::{Atom, Instantiation, RaTree};
use spanner_core::{VarSet, Variable};

/// Configuration for [`random_ra_tree`].
#[derive(Debug, Clone, Copy)]
pub struct RandomRaConfig {
    /// Maximum operator nesting depth.
    pub depth: usize,
    /// Number of atomic spanners to draw leaves from.
    pub leaves: usize,
    /// Capture variables per atom.
    pub vars_per_leaf: usize,
    /// Whether difference nodes may appear (they are the most expensive
    /// operator — the oracle holds them to the ad-hoc pipeline's cost).
    pub allow_difference: bool,
}

impl Default for RandomRaConfig {
    fn default() -> Self {
        RandomRaConfig {
            depth: 3,
            leaves: 3,
            vars_per_leaf: 2,
            allow_difference: true,
        }
    }
}

/// Generates a random RA tree together with an instantiation assigning a
/// random sequential atom to every placeholder. Deterministic per
/// `(config, seed)`.
pub fn random_ra_tree(config: RandomRaConfig, seed: u64) -> (RaTree, Instantiation) {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let leaves = config.leaves.max(1);

    // Atoms: alternate automaton and regex-formula leaves. Both families
    // use fixed variable-name pools ("v*" for automata, "r*" for formulas),
    // so distinct leaves genuinely share variables.
    let mut inst = Instantiation::new();
    let mut pool = VarSet::new();
    for id in 0..leaves {
        let atom_seed = rng.next_u64();
        let atom = if id % 2 == 0 {
            let cfg = RandomVsaConfig {
                layers: 4,
                width: 2,
                num_vars: 1 + atom_seed as usize % config.vars_per_leaf.max(1),
                ..RandomVsaConfig::default()
            };
            Atom::Vsa(random_sequential_vsa(cfg, atom_seed))
        } else {
            Atom::Rgx(random_sequential_rgx(3, config.vars_per_leaf, atom_seed))
        };
        pool = pool.union(&atom.vars());
        inst = inst.with(id, atom);
    }
    // Projection targets also include a variable no atom binds, so trees
    // exercise projections onto unknown variables.
    pool.insert(Variable::new("unbound"));

    let tree = gen_tree(
        &mut rng,
        config.depth,
        leaves,
        config.allow_difference,
        &pool,
    );
    (tree, inst)
}

fn gen_tree(
    rng: &mut StdRng,
    depth: usize,
    leaves: usize,
    allow_difference: bool,
    pool: &VarSet,
) -> RaTree {
    if depth == 0 || rng.gen_bool(0.2) {
        return RaTree::leaf(rng.gen_range(0..leaves));
    }
    match rng.gen_range(0..8u32) {
        0 | 1 => RaTree::project(
            random_subset(rng, pool),
            gen_tree(rng, depth - 1, leaves, allow_difference, pool),
        ),
        2..=4 => RaTree::union(
            gen_tree(rng, depth - 1, leaves, allow_difference, pool),
            gen_tree(rng, depth - 1, leaves, allow_difference, pool),
        ),
        5 | 6 => RaTree::join(
            gen_tree(rng, depth - 1, leaves, allow_difference, pool),
            gen_tree(rng, depth - 1, leaves, allow_difference, pool),
        ),
        _ if allow_difference => RaTree::difference(
            gen_tree(rng, depth - 1, leaves, allow_difference, pool),
            gen_tree(rng, depth - 1, leaves, allow_difference, pool),
        ),
        _ => RaTree::join(
            gen_tree(rng, depth - 1, leaves, allow_difference, pool),
            gen_tree(rng, depth - 1, leaves, allow_difference, pool),
        ),
    }
}

/// A random subset of the variable pool (possibly empty — the boolean
/// projection — and possibly everything).
fn random_subset(rng: &mut StdRng, pool: &VarSet) -> VarSet {
    let mut out = VarSet::new();
    for v in pool.iter() {
        if rng.gen_bool(0.5) {
            out.insert(v.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner_algebra::{evaluate_ra, tree_vars, RaOptions};
    use spanner_core::Document;
    use spanner_paper::evaluate_ra_materialized;

    #[test]
    fn generation_is_deterministic() {
        let cfg = RandomRaConfig::default();
        let (t1, i1) = random_ra_tree(cfg, 7);
        let (t2, i2) = random_ra_tree(cfg, 7);
        assert_eq!(t1, t2);
        assert_eq!(i1.len(), i2.len());
        assert_eq!(tree_vars(&t1, &i1).unwrap(), tree_vars(&t2, &i2).unwrap());
        let (t3, _) = random_ra_tree(cfg, 8);
        // Different seeds almost always differ; at minimum the pair must
        // stay internally consistent, so only check reproducibility here.
        let _ = t3;
    }

    #[test]
    fn generated_trees_evaluate() {
        let cfg = RandomRaConfig {
            depth: 2,
            ..RandomRaConfig::default()
        };
        let doc = Document::new("ab");
        for seed in 0..10 {
            let (tree, inst) = random_ra_tree(cfg, seed);
            let expected = evaluate_ra_materialized(&tree, &inst, &doc).unwrap();
            let actual = evaluate_ra(&tree, &inst, &doc, RaOptions::default()).unwrap();
            assert_eq!(actual, expected, "seed {seed}: {tree}");
        }
    }
}
