//! Equivalence of the Graph 500 validators with their original form.
//!
//! `validate` and `partial_tree_violation` look up each tree edge
//! `(parent, v)` in `v`'s own row. The originals searched the parent's row,
//! which on R-MAT is usually a hub's long list. Symmetry of every `Csr`
//! makes the two lookups answer alike; these proptests pin that down on
//! valid trees, prefixes of them, and mutated outputs, demanding the same
//! `Result` (variant and payload) and the same `Option<String>` message.

use proptest::prelude::*;
use std::sync::OnceLock;
use xbfs::engine::{topdown, tree, validate, BfsOutput, ValidationError, UNREACHED};
use xbfs::graph::{gen, rmat, Csr, VertexId, NO_PARENT};

/// `validate` as first written, with the tree edge searched in the
/// parent's row; kept as the oracle.
fn oracle_validate(csr: &Csr, out: &BfsOutput) -> Result<(), ValidationError> {
    let n = csr.num_vertices() as usize;
    if out.parents.len() != n || out.levels.len() != n {
        return Err(ValidationError::WrongLength);
    }
    let s = out.source as usize;
    if out.parents[s] != out.source || out.levels[s] != 0 {
        return Err(ValidationError::BadSource);
    }
    for v in csr.vertices() {
        let vi = v as usize;
        let has_parent = out.parents[vi] != NO_PARENT;
        let has_level = out.levels[vi] != UNREACHED;
        if has_parent != has_level {
            return Err(ValidationError::VisitMismatch { v });
        }
        if v == out.source || !has_parent {
            continue;
        }
        let p = out.parents[vi];
        if p as usize >= n || !csr.has_edge(p, v) {
            return Err(ValidationError::PhantomTreeEdge { v });
        }
        if out.levels[p as usize] == UNREACHED || out.levels[vi] != out.levels[p as usize] + 1 {
            return Err(ValidationError::BadTreeLevel {
                v,
                level: out.levels[vi],
                parent_level: out.levels[p as usize],
            });
        }
    }
    for u in csr.vertices() {
        let lu = out.levels[u as usize];
        for &v in csr.neighbors(u) {
            let lv = out.levels[v as usize];
            match (lu == UNREACHED, lv == UNREACHED) {
                (false, false) if lu.abs_diff(lv) > 1 => {
                    return Err(ValidationError::LevelSkip { u, v })
                }
                (false, true) => return Err(ValidationError::Incomplete { u, v }),
                (true, false) => return Err(ValidationError::Incomplete { u: v, v: u }),
                _ => {}
            }
        }
    }
    Ok(())
}

/// `partial_tree_violation` as first written, with the tree edge searched
/// in the parent's row; kept as the oracle.
fn oracle_partial_tree_violation(csr: &Csr, out: &BfsOutput) -> Option<String> {
    let n = csr.num_vertices();
    if out.parents.len() != n as usize || out.levels.len() != n as usize {
        return Some(format!(
            "tree maps cover {} vertices, graph has {n}",
            out.parents.len()
        ));
    }
    if out.source >= n || out.parents[out.source as usize] != out.source {
        return Some(format!("source {} is not its own root", out.source));
    }
    for v in 0..n {
        let p = out.parents[v as usize];
        let l = out.levels[v as usize];
        if p == NO_PARENT {
            if l != UNREACHED {
                return Some(format!("vertex {v} has a level but no parent"));
            }
            continue;
        }
        if l == UNREACHED {
            return Some(format!("vertex {v} has a parent but no level"));
        }
        if v == out.source {
            continue;
        }
        if p >= n || out.parents[p as usize] == NO_PARENT {
            return Some(format!("vertex {v}: parent {p} is unvisited"));
        }
        // Written `+ 1` at first, which wraps the same way in a release
        // build and overflows in a debug build.
        if out.levels[p as usize].wrapping_add(1) != l {
            return Some(format!(
                "vertex {v} at level {l}, parent {p} at level {}",
                out.levels[p as usize]
            ));
        }
        if !csr.has_edge(p, v) {
            return Some(format!("tree edge {p} -> {v} is not a graph edge"));
        }
    }
    None
}

/// One graph per generator family, built once: deterministic shapes, the
/// seeded random families, and R-MAT with its skewed hub rows.
fn families() -> &'static [Csr] {
    static GRAPHS: OnceLock<Vec<Csr>> = OnceLock::new();
    GRAPHS.get_or_init(|| {
        vec![
            gen::path(9),
            gen::cycle(10),
            gen::star(12),
            gen::complete(6),
            gen::grid(5, 6),
            gen::binary_tree(31),
            gen::two_cliques(5),
            gen::uniform_random(80, 200, 3),
            gen::barabasi_albert(96, 3, 5),
            gen::watts_strogatz(96, 4, 0.2, 7),
            gen::road_like(8, 9, 6, 11),
            rmat::rmat_csr(8, 8),
            rmat::rmat_csr(9, 16),
        ]
    })
}

/// One corruption of a BFS output. `pick` chooses the vertex (wrapped to
/// the graph) and `value` the replacement where one is needed.
fn mutate(g: &Csr, out: &mut BfsOutput, kind: u8, pick: u32, value: u32) {
    let n = g.num_vertices();
    let v = (pick % n) as usize;
    match kind {
        // Parent rewritten to a random in-range id.
        0 => out.parents[v] = value % n,
        // Parent rewritten to one of `v`'s neighbours.
        1 => {
            let nbrs = g.neighbors(v as VertexId);
            if !nbrs.is_empty() {
                out.parents[v] = nbrs[value as usize % nbrs.len()];
            }
        }
        // Parent rewritten past the end of the graph.
        2 => out.parents[v] = n.saturating_add(value % 4).min(NO_PARENT - 1),
        3 => out.parents[v] = NO_PARENT,
        // Level off by one either way, or erased.
        4 => out.levels[v] = out.levels[v].wrapping_add(1),
        5 => out.levels[v] = out.levels[v].wrapping_sub(1),
        6 => out.levels[v] = UNREACHED,
        // The source's own entries broken.
        7 => out.parents[out.source as usize] = value % n,
        8 => out.levels[out.source as usize] = 1 + value % 3,
        // Parent rewritten to a vertex one level up, so only the edge
        // lookup can tell whether the tree edge exists.
        9 => {
            let l = out.levels[v];
            if l != UNREACHED && l > 0 {
                let start = value % n;
                if let Some(u) = (start..n)
                    .chain(0..start)
                    .find(|&u| out.levels[u as usize] == l - 1)
                {
                    out.parents[v] = u;
                }
            }
        }
        // A map truncated.
        10 => {
            out.parents.pop();
        }
        _ => {
            out.levels.pop();
        }
    }
}

/// A valid BFS of family `family` from a vertex chosen by `src`, cut back
/// to levels `< depth` when `depth` is nonzero (a checkpoint's partial
/// tree).
fn fixture(family: usize, src: u32, depth: u32) -> (&'static Csr, BfsOutput) {
    let g = &families()[family % families().len()];
    let mut out = topdown::run(g, src % g.num_vertices()).output;
    if depth > 0 {
        for v in 0..out.levels.len() {
            if out.levels[v] != UNREACHED && out.levels[v] >= depth {
                out.levels[v] = UNREACHED;
                out.parents[v] = NO_PARENT;
            }
        }
    }
    (g, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn validators_match_the_oracles_on_mutated_outputs(
        family in 0usize..64,
        src in any::<u32>(),
        depth in 0u32..4,
        mutations in prop::collection::vec((0u8..12, any::<u32>(), any::<u32>()), 0..4),
    ) {
        let (g, mut out) = fixture(family, src, depth);
        // Truncations go last, so every other mutation indexes full maps.
        let mut mutations = mutations;
        mutations.sort_by_key(|&(kind, ..)| kind >= 10);
        for &(kind, pick, value) in &mutations {
            mutate(g, &mut out, kind, pick, value);
        }
        prop_assert_eq!(validate(g, &out), oracle_validate(g, &out));
        prop_assert_eq!(
            tree::partial_tree_violation(g, &out),
            oracle_partial_tree_violation(g, &out)
        );
    }
}

/// Unmutated whole trees pass `validate` and every prefix passes the
/// partial-tree audit, so the proptest compares real rejections against
/// real acceptances.
#[test]
fn clean_trees_and_prefixes_pass_both_validators() {
    for family in 0..families().len() {
        for depth in 0..4 {
            let (g, out) = fixture(family, 0, depth);
            assert_eq!(tree::partial_tree_violation(g, &out), None);
            if depth == 0 {
                assert_eq!(validate(g, &out), Ok(()));
            }
            assert_eq!(validate(g, &out), oracle_validate(g, &out));
        }
    }
}

/// Each mutation kind, applied alone, is caught somewhere in the corpus,
/// so no arm of `mutate` is a no-op that the equivalence check skips.
#[test]
fn every_mutation_kind_is_detected() {
    for kind in 0u8..12 {
        let caught = (0..families().len()).any(|family| {
            (1..40u32).any(|pick| {
                let (g, mut out) = fixture(family, 0, 0);
                mutate(g, &mut out, kind, pick, pick.wrapping_mul(7) + 1);
                validate(g, &out).is_err() && tree::partial_tree_violation(g, &out).is_some()
            })
        });
        assert!(caught, "mutation kind {kind} never produced a rejection");
    }
}
