//! Graph 500-style BFS output validation.
//!
//! The Graph 500 specification (kernel 2 validation) requires that a claimed
//! BFS tree satisfy five properties; [`validate`] checks them all:
//!
//! 1. the source is its own parent at level 0;
//! 2. visited and unvisited are consistent between the parent and level maps;
//! 3. every tree edge `(parent[v], v)` exists in the graph;
//! 4. every tree edge spans exactly one level;
//! 5. no graph edge connects a visited vertex to an unvisited one (i.e. the
//!    traversal is complete), and no graph edge spans more than one level.

use crate::{BfsOutput, UNREACHED};
use xbfs_graph::{Csr, VertexId, NO_PARENT};

/// Why a BFS output failed validation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// Map lengths do not match the graph's vertex count.
    WrongLength,
    /// The source's parent or level entry is wrong.
    BadSource,
    /// `v` has a parent but no level, or vice versa.
    VisitMismatch { v: VertexId },
    /// `parents[v]` is not a neighbor of `v`.
    PhantomTreeEdge { v: VertexId },
    /// `levels[v] != levels[parents[v]] + 1`.
    BadTreeLevel {
        /// The vertex whose tree edge spans the wrong number of levels.
        v: VertexId,
        /// `levels[v]` as claimed by the output.
        level: u32,
        /// `levels[parents[v]]` as claimed by the output
        /// ([`UNREACHED`] if the parent has no level).
        parent_level: u32,
    },
    /// A graph edge spans two levels differing by more than one.
    LevelSkip { u: VertexId, v: VertexId },
    /// A graph edge connects a visited and an unvisited vertex.
    Incomplete { u: VertexId, v: VertexId },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::WrongLength => write!(f, "map length mismatch"),
            ValidationError::BadSource => write!(f, "source entry malformed"),
            ValidationError::VisitMismatch { v } => {
                write!(f, "vertex {v}: parent/level visit disagreement")
            }
            ValidationError::PhantomTreeEdge { v } => {
                write!(f, "vertex {v}: parent is not a neighbor")
            }
            ValidationError::BadTreeLevel {
                v,
                level,
                parent_level,
            } => {
                write!(
                    f,
                    "vertex {v}: level {level} != parent level {parent_level} + 1"
                )
            }
            ValidationError::LevelSkip { u, v } => {
                write!(f, "edge ({u},{v}) spans more than one level")
            }
            ValidationError::Incomplete { u, v } => {
                write!(f, "edge ({u},{v}) connects visited and unvisited")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validate `out` as a BFS of `csr` from `out.source`.
///
/// Each tree edge `(parents[v], v)` is looked up in `v`'s own row. That
/// answers the same question as searching the parent's row, because every
/// [`Csr`] is symmetric (its constructors check or build it so), and it
/// keeps the search short: on R-MAT the parent is usually a hub whose row
/// holds 10⁴–10⁵ entries, while most vertices have short rows.
///
/// # Examples
/// ```
/// use xbfs_engine::{topdown, validate};
///
/// let g = xbfs_graph::gen::path(4);
/// let mut out = topdown::run(&g, 0).output;
/// assert!(validate(&g, &out).is_ok());
///
/// out.levels[3] = 9; // corrupt one level
/// assert!(validate(&g, &out).is_err());
/// ```
pub fn validate(csr: &Csr, out: &BfsOutput) -> Result<(), ValidationError> {
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
        // A corrupted parent word can point outside the graph entirely;
        // report it as a phantom edge instead of indexing out of bounds.
        if p as usize >= n {
            return Err(ValidationError::PhantomTreeEdge { v });
        }
        if !csr.has_edge(v, p) {
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

    // Edge sweep: completeness and the one-level property.
    for u in csr.vertices() {
        let lu = out.levels[u as usize];
        for &v in csr.neighbors(u) {
            let lv = out.levels[v as usize];
            match (lu == UNREACHED, lv == UNREACHED) {
                (false, false) => {
                    if lu.abs_diff(lv) > 1 {
                        return Err(ValidationError::LevelSkip { u, v });
                    }
                }
                (false, true) => return Err(ValidationError::Incomplete { u, v }),
                (true, false) => return Err(ValidationError::Incomplete { u: v, v: u }),
                (true, true) => {}
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topdown;
    use xbfs_graph::gen;

    fn valid_run() -> (Csr, BfsOutput) {
        let g = xbfs_graph::rmat::rmat_csr(8, 8);
        let out = topdown::run(&g, 0).output;
        (g, out)
    }

    #[test]
    fn accepts_correct_output() {
        let (g, out) = valid_run();
        assert_eq!(validate(&g, &out), Ok(()));
    }

    #[test]
    fn accepts_disconnected_graph() {
        let g = gen::two_cliques(4);
        let out = topdown::run(&g, 0).output;
        assert_eq!(validate(&g, &out), Ok(()));
    }

    #[test]
    fn rejects_wrong_length() {
        let (g, mut out) = valid_run();
        out.parents.pop();
        assert_eq!(validate(&g, &out), Err(ValidationError::WrongLength));
    }

    #[test]
    fn rejects_bad_source() {
        let (g, mut out) = valid_run();
        out.levels[out.source as usize] = 3;
        assert_eq!(validate(&g, &out), Err(ValidationError::BadSource));
    }

    #[test]
    fn rejects_visit_mismatch() {
        let (g, mut out) = valid_run();
        // Find a visited non-source vertex and erase only its level.
        let v = (0..g.num_vertices())
            .find(|&v| v != out.source && out.visited(v))
            .unwrap();
        out.levels[v as usize] = UNREACHED;
        assert_eq!(
            validate(&g, &out),
            Err(ValidationError::VisitMismatch { v })
        );
    }

    #[test]
    fn rejects_phantom_tree_edge() {
        let g = gen::path(5);
        let mut out = topdown::run(&g, 0).output;
        out.parents[4] = 0; // 0 is not adjacent to 4 on a path
        assert_eq!(
            validate(&g, &out),
            Err(ValidationError::PhantomTreeEdge { v: 4 })
        );
    }

    #[test]
    fn rejects_out_of_range_parent_without_panicking() {
        // A bit flip in the high bits of a parent word produces a vertex id
        // far outside the graph; validation must reject it, not index OOB.
        let g = gen::path(5);
        let mut out = topdown::run(&g, 0).output;
        out.parents[4] ^= 1 << 31;
        assert_eq!(
            validate(&g, &out),
            Err(ValidationError::PhantomTreeEdge { v: 4 })
        );
    }

    #[test]
    fn rejects_bad_tree_level() {
        let g = gen::path(5);
        let mut out = topdown::run(&g, 0).output;
        out.levels[4] = 2; // parent is 3 at level 3
                           // VisitMismatch won't fire (still visited); tree level check does,
                           // unless the edge sweep sees the level skip first — both are
                           // acceptable detections of the same corruption.
        let err = validate(&g, &out).unwrap_err();
        assert!(
            matches!(
                err,
                ValidationError::BadTreeLevel { v: 4, .. } | ValidationError::LevelSkip { .. }
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn rejects_incomplete_traversal() {
        let g = gen::path(4);
        let mut out = topdown::run(&g, 0).output;
        // Pretend vertex 3 was never reached.
        out.parents[3] = xbfs_graph::NO_PARENT;
        out.levels[3] = UNREACHED;
        assert_eq!(
            validate(&g, &out),
            Err(ValidationError::Incomplete { u: 2, v: 3 })
        );
    }

    #[test]
    fn rejects_level_skip_via_fake_deep_tree() {
        let g = gen::complete(4);
        let mut out = topdown::run(&g, 0).output;
        // Claim 3 hangs off 2 at level 2 in a K4 (all true distances are 1).
        out.parents[3] = 2;
        out.levels[3] = 2;
        let err = validate(&g, &out).unwrap_err();
        assert!(
            matches!(
                err,
                ValidationError::BadTreeLevel { .. } | ValidationError::LevelSkip { .. }
            ),
            "unexpected error {err:?}"
        );
    }

    #[test]
    fn error_display_is_informative() {
        let e = ValidationError::Incomplete { u: 1, v: 2 };
        assert!(e.to_string().contains("(1,2)"));
        // A corrupt tree edge names the vertex AND both claimed levels, so
        // a corruption report pinpoints the flipped word without a rerun.
        let e = ValidationError::BadTreeLevel {
            v: 4,
            level: 2,
            parent_level: 3,
        };
        let msg = e.to_string();
        assert!(msg.contains("vertex 4"), "{msg}");
        assert!(msg.contains("level 2"), "{msg}");
        assert!(msg.contains("parent level 3"), "{msg}");
    }
}
