//! Compressed sparse row adjacency — the storage every BFS kernel traverses.

use crate::{vix, EdgeList, VertexId};
use serde::de::{self, Deserialize};
use serde::{Serialize, Value};

/// An undirected graph in CSR form.
///
/// `row_offsets[v]..row_offsets[v+1]` indexes into `column_indices` and holds
/// the sorted, deduplicated neighbor list of `v`. Self-loops are stripped and
/// every input edge is stored in both directions (symmetrized), mirroring the
/// Graph 500 construction pipeline the paper uses (§V-A: "CSR format to store
/// the graph").
///
/// `num_edges()` reports the number of *undirected* edges; the adjacency
/// array holds `2 * num_edges()` entries. This matches the paper's
/// `|E| = edgefactor × 2^SCALE` accounting.
///
/// Every `Csr` is symmetric and canonical: [`Csr::from_edge_list`] builds
/// it so, and [`Csr::from_parts`] — which deserialization also goes
/// through — checks it. The validators rely on symmetry to look up a tree
/// edge in either endpoint's row.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Csr {
    num_vertices: VertexId,
    /// `num_vertices + 1` offsets into `column_indices`.
    row_offsets: Vec<u64>,
    /// Concatenated sorted neighbor lists.
    column_indices: Vec<VertexId>,
}

impl Csr {
    /// Build a symmetric CSR from an edge list.
    ///
    /// Duplicates (including the mirror of an already-seen edge) collapse to
    /// a single undirected edge; self-loops are dropped.
    ///
    /// # Examples
    /// ```
    /// use xbfs_graph::{Csr, EdgeList};
    ///
    /// let mut el = EdgeList::new(3);
    /// el.push(0, 1);
    /// el.push(1, 0); // mirror duplicate — collapses
    /// el.push(2, 2); // self-loop — dropped
    /// let g = Csr::from_edge_list(&el);
    /// assert_eq!(g.num_edges(), 1);
    /// assert_eq!(g.neighbors(1), &[0]);
    /// ```
    pub fn from_edge_list(edges: &EdgeList) -> Self {
        let n = edges.num_vertices();
        // Symmetrize into a scratch tuple list.
        let mut tuples: Vec<(VertexId, VertexId)> = Vec::with_capacity(edges.len() * 2);
        for (s, d) in edges.iter() {
            if s == d {
                continue;
            }
            tuples.push((s, d));
            tuples.push((d, s));
        }
        tuples.sort_unstable();
        tuples.dedup();

        let mut row_offsets = vec![0u64; n as usize + 1];
        for &(s, _) in &tuples {
            row_offsets[s as usize + 1] += 1;
        }
        for i in 0..n as usize {
            row_offsets[i + 1] += row_offsets[i];
        }
        let column_indices = tuples.iter().map(|&(_, d)| d).collect();
        Self {
            num_vertices: n,
            row_offsets,
            column_indices,
        }
    }

    /// Build directly from per-vertex sorted adjacency (used by tests/io).
    ///
    /// Returns `None` unless offsets are monotone, sized `n + 1`, start at
    /// 0, end at `column_indices.len()`, every column index is in range,
    /// per-vertex lists are strictly sorted (canonical) without self-loops,
    /// and the adjacency is symmetric. Full validation makes this safe on
    /// untrusted input (the binary decoder feeds it arbitrary bytes).
    ///
    /// After the O(V) offset checks, one O(V + E) pass over the rows
    /// decides the rest; see [`Csr::is_symmetric`] for how it matches
    /// mirrors without searching for them.
    pub fn from_parts(
        num_vertices: VertexId,
        row_offsets: Vec<u64>,
        column_indices: Vec<VertexId>,
    ) -> Option<Self> {
        // A nonzero first offset would leave column entries that belong to
        // no list yet still count in `num_edges()`.
        if row_offsets.len() != num_vertices as usize + 1 || row_offsets[0] != 0 {
            return None;
        }
        if row_offsets.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        if *row_offsets.last()? != column_indices.len() as u64 {
            return None;
        }
        let csr = Self {
            num_vertices,
            row_offsets,
            column_indices,
        };
        (csr.audit() == Audit::Sound).then_some(csr)
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> VertexId {
        self.num_vertices
    }

    /// Number of undirected edges (half the adjacency-array length).
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.column_indices.len() as u64 / 2
    }

    /// Number of directed adjacency entries (`2 × num_edges`).
    #[inline]
    pub fn num_directed_edges(&self) -> u64 {
        self.column_indices.len() as u64
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.row_offsets[vix(v) + 1] - self.row_offsets[vix(v)]
    }

    /// Sorted neighbor slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.row_offsets[vix(v)] as usize;
        let hi = self.row_offsets[vix(v) + 1] as usize;
        &self.column_indices[lo..hi]
    }

    /// `true` if the undirected edge `{u, v}` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterate over vertices `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> {
        0..self.num_vertices
    }

    /// Raw row-offset slice (for the simulator's byte accounting).
    #[inline]
    pub fn row_offsets(&self) -> &[u64] {
        &self.row_offsets
    }

    /// Raw adjacency slice.
    #[inline]
    pub fn column_indices(&self) -> &[VertexId] {
        &self.column_indices
    }

    /// Bytes the CSR arrays occupy — the "fetch all the data" cost of the
    /// paper's bottom-up level-1 analysis (§IV).
    pub fn storage_bytes(&self) -> u64 {
        (self.row_offsets.len() * std::mem::size_of::<u64>()) as u64
            + (self.column_indices.len() * std::mem::size_of::<VertexId>()) as u64
    }

    /// Check symmetry: `v ∈ adj(u) ⇔ u ∈ adj(v)`. Only a canonical CSR
    /// (see [`Csr::is_canonical`]) can pass.
    ///
    /// One O(V + E) pass with a per-vertex counter `matched[w]`: the number
    /// of leading entries of `w`'s list already matched by a mirror. Rows
    /// are walked in ascending order, so the lower neighbors `u < w` reach
    /// `w` in exactly the order its sorted list holds them. Each upper
    /// entry `w > u` of row `u` must therefore find `u` at
    /// `w`'s next unmatched slot, and when row `u` is reached, its count of
    /// lower entries must equal `matched[u]`. Only the upper entries touch
    /// memory at random — no binary searches.
    pub fn is_symmetric(&self) -> bool {
        self.audit() == Audit::Sound
    }

    /// Check per-vertex neighbor lists are strictly sorted (no dups), in
    /// range, and free of self-loops. Shares [`Csr::is_symmetric`]'s pass.
    pub fn is_canonical(&self) -> bool {
        self.audit() != Audit::NonCanonical
    }

    /// The single pass behind [`Csr::from_parts`], [`Csr::is_symmetric`]
    /// and [`Csr::is_canonical`]. Assumes the offsets start at 0, are
    /// monotone and end at `column_indices.len()`.
    fn audit(&self) -> Audit {
        let n = self.num_vertices;
        let offsets = &self.row_offsets;
        let columns = &self.column_indices;
        let mut matched = vec![0u32; vix(n)];
        let mut symmetric = true;
        for u in self.vertices() {
            let row = self.neighbors(u);
            if row.windows(2).any(|p| p[0] >= p[1]) || row.last().is_some_and(|&w| w >= n) {
                return Audit::NonCanonical;
            }
            let lower = row.partition_point(|&w| w < u);
            if row.get(lower) == Some(&u) {
                return Audit::NonCanonical;
            }
            // Every mirror of a lower entry was claimed by an earlier row.
            symmetric &= lower as u64 == u64::from(matched[vix(u)]);
            if !symmetric {
                continue;
            }
            for &w in &row[lower..] {
                let slot = offsets[vix(w)] + u64::from(matched[vix(w)]);
                if slot >= offsets[vix(w) + 1] || columns[slot as usize] != u {
                    symmetric = false;
                    break;
                }
                matched[vix(w)] += 1;
            }
        }
        if symmetric {
            Audit::Sound
        } else {
            Audit::Asymmetric
        }
    }
}

/// What [`Csr::audit`] found, worst first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Audit {
    /// A list is unsorted, duplicated, out of range, or has a self-loop.
    NonCanonical,
    /// Canonical, but some entry has no mirror.
    Asymmetric,
    /// Canonical and symmetric.
    Sound,
}

/// Deserialization runs every [`Csr::from_parts`] check, so a graph read
/// from JSON holds the same invariants as one decoded from `.xbfs` bytes.
impl Deserialize for Csr {
    fn from_value(v: &Value) -> Result<Self, de::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| de::Error::custom("expected object for \"Csr\""))?;
        Csr::from_parts(
            de::field(obj, "num_vertices")?,
            de::field(obj, "row_offsets")?,
            de::field(obj, "column_indices")?,
        )
        .ok_or_else(|| de::Error::custom("Csr fails the from_parts checks"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Csr {
        let el = EdgeList::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]).unwrap();
        Csr::from_edge_list(&el)
    }

    #[test]
    fn triangle_shape() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_directed_edges(), 6);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.neighbors(0), &[1, 2]);
    }

    #[test]
    fn self_loops_dropped_duplicates_collapsed() {
        let el = EdgeList::from_edges(3, vec![(0, 0), (0, 1), (1, 0), (0, 1), (2, 2)]).unwrap();
        let g = Csr::from_edge_list(&el);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert!(g.neighbors(2).is_empty());
    }

    #[test]
    fn symmetry_and_canonical_hold() {
        let g = triangle();
        assert!(g.is_symmetric());
        assert!(g.is_canonical());
    }

    #[test]
    fn has_edge_both_directions() {
        let el = EdgeList::from_edges(4, vec![(0, 3)]).unwrap();
        let g = Csr::from_edge_list(&el);
        assert!(g.has_edge(0, 3));
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn from_parts_validation() {
        // Valid symmetric 0-1 edge.
        assert!(Csr::from_parts(2, vec![0, 1, 2], vec![1, 0]).is_some());
        // Wrong offset length.
        assert!(Csr::from_parts(2, vec![0, 2], vec![1, 0]).is_none());
        // Non-monotone offsets.
        assert!(Csr::from_parts(2, vec![0, 2, 1], vec![1, 0]).is_none());
        // Column out of range.
        assert!(Csr::from_parts(2, vec![0, 1, 2], vec![1, 5]).is_none());
        // Tail offset mismatch.
        assert!(Csr::from_parts(2, vec![0, 1, 1], vec![1, 0]).is_none());
        // Asymmetric adjacency (0→1 without 1→0).
        assert!(Csr::from_parts(2, vec![0, 1, 1], vec![1]).is_none());
        // Non-canonical: duplicate neighbor entries.
        assert!(Csr::from_parts(2, vec![0, 2, 4], vec![1, 1, 0, 0]).is_none());
        // Self-loop is non-canonical.
        assert!(Csr::from_parts(1, vec![0, 1], vec![0]).is_none());
        // Nonzero first offset: the leading entry belongs to no list.
        assert!(Csr::from_parts(1, vec![1, 1], vec![0]).is_none());
    }

    #[test]
    fn isolated_vertices_have_empty_neighbors() {
        let el = EdgeList::from_edges(5, vec![(0, 1)]).unwrap();
        let g = Csr::from_edge_list(&el);
        for v in 2..5 {
            assert_eq!(g.degree(v), 0);
            assert!(g.neighbors(v).is_empty());
        }
    }

    #[test]
    fn storage_bytes_counts_arrays() {
        let g = triangle();
        // offsets: 4 * 8 bytes, columns: 6 * 4 bytes.
        assert_eq!(g.storage_bytes(), 4 * 8 + 6 * 4);
    }

    #[test]
    fn deserialize_runs_the_from_parts_checks() {
        // Offsets past the column array.
        let bad = r#"{"num_vertices":2,"row_offsets":[0,3,1],"column_indices":[7]}"#;
        assert!(serde_json::from_str::<Csr>(bad).is_err());
        // Well-formed arrays, but 0→1 has no mirror.
        let asym = r#"{"num_vertices":2,"row_offsets":[0,1,1],"column_indices":[1]}"#;
        assert!(serde_json::from_str::<Csr>(asym).is_err());
        let missing = r#"{"num_vertices":2,"row_offsets":[0,1,2]}"#;
        assert!(serde_json::from_str::<Csr>(missing).is_err());
        assert!(serde_json::from_str::<Csr>("[0,1]").is_err());
    }

    #[test]
    fn serde_round_trip_of_every_generator_family() {
        use crate::gen;
        let graphs = [
            Csr::from_edge_list(&EdgeList::new(0)),
            triangle(),
            gen::path(7),
            gen::cycle(6),
            gen::star(9),
            gen::complete(5),
            gen::grid(4, 5),
            gen::binary_tree(15),
            gen::two_cliques(4),
            gen::uniform_random(64, 256, 3),
            gen::barabasi_albert(64, 3, 5),
            gen::watts_strogatz(64, 4, 0.2, 7),
            gen::road_like(6, 7, 5, 11),
            crate::rmat::rmat_csr(8, 8),
        ];
        for g in graphs {
            let json = serde_json::to_string(&g).expect("serializes");
            let back: Csr = serde_json::from_str(&json).expect("round trip parses");
            assert_eq!(back, g);
        }
    }

    #[test]
    fn empty_graph() {
        let g = Csr::from_edge_list(&EdgeList::new(0));
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert!(g.is_symmetric());
    }
}
