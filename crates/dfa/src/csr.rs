//! Flat CSR (compressed sparse row) adjacency for solver dependency
//! graphs.
//!
//! The def-use graph in [`du`](crate::du) walks an instruction's uses
//! and its flow neighbours; storing those lists as `Vec<Vec<u32>>`
//! scatters them across the heap and costs a pointer chase per node.
//! [`Csr`] packs all edges into one array with per-node offset ranges —
//! the same layout `pdce_ir::CfgView` uses for block adjacency — so a
//! node's neighbours are one contiguous slice.

/// A directed adjacency structure in CSR form: neighbors of node `s`
/// occupy `edges[off[s] .. off[s + 1]]`, in insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Csr {
    off: Vec<u32>,
    edges: Vec<u32>,
}

impl Csr {
    /// Builds a CSR graph in two passes over an edge-emitting closure:
    /// one counting pass, one fill pass. `emit` must produce the same
    /// `(source, target)` sequence both times; per-node neighbor order
    /// is exactly the emission order, which worklist scheduling (and
    /// therefore differential FIFO≡priority oracles) depends on.
    pub fn build(num_nodes: usize, emit: impl Fn(&mut dyn FnMut(u32, u32))) -> Csr {
        let mut off = vec![0u32; num_nodes + 1];
        emit(&mut |s, _| off[s as usize + 1] += 1);
        for i in 0..num_nodes {
            off[i + 1] += off[i];
        }
        let mut cursor: Vec<u32> = off[..num_nodes].to_vec();
        let mut edges = vec![0u32; *off.last().unwrap_or(&0) as usize];
        emit(&mut |s, t| {
            edges[cursor[s as usize] as usize] = t;
            cursor[s as usize] += 1;
        });
        Csr { off, edges }
    }

    /// Builds a CSR graph from per-node neighbor lists (preserving each
    /// list's order). Convenient for tests and small fixed networks.
    pub fn from_lists(lists: &[Vec<u32>]) -> Csr {
        Csr::build(lists.len(), |emit| {
            for (s, l) in lists.iter().enumerate() {
                for &t in l {
                    emit(s as u32, t);
                }
            }
        })
    }

    /// Builds a CSR from already-computed offset and edge arrays —
    /// the single-pass splicing path `DuGraph::patch` uses to reuse
    /// clean-block segments without a repeatable emission closure.
    ///
    /// # Panics
    ///
    /// Panics if `off` is empty, not monotone, or its last entry does
    /// not equal `edges.len()`.
    pub fn from_parts(off: Vec<u32>, edges: Vec<u32>) -> Csr {
        assert!(!off.is_empty(), "offset array needs a leading 0");
        debug_assert!(off.windows(2).all(|w| w[0] <= w[1]), "offsets not sorted");
        assert_eq!(*off.last().unwrap() as usize, edges.len(), "edge count");
        Csr { off, edges }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.off.len().saturating_sub(1)
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Neighbors of `s`, in insertion order.
    pub fn neighbors(&self, s: usize) -> &[u32] {
        &self.edges[self.off[s] as usize..self.off[s + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_lists_round_trips() {
        let lists = vec![vec![2, 1], vec![], vec![0, 0, 1]];
        let csr = Csr::from_lists(&lists);
        assert_eq!(csr.num_nodes(), 3);
        assert_eq!(csr.num_edges(), 5);
        assert_eq!(csr.neighbors(0), &[2, 1]);
        assert_eq!(csr.neighbors(1), &[] as &[u32]);
        assert_eq!(csr.neighbors(2), &[0, 0, 1]);
    }

    #[test]
    fn build_preserves_emission_order_per_node() {
        // Emission interleaves sources; per-node order must still follow
        // emission order, not global order.
        let csr = Csr::build(2, |emit| {
            emit(1, 7);
            emit(0, 3);
            emit(1, 5);
        });
        assert_eq!(csr.neighbors(0), &[3]);
        assert_eq!(csr.neighbors(1), &[7, 5]);
    }

    #[test]
    fn empty_graph() {
        let csr = Csr::from_lists(&[]);
        assert_eq!(csr.num_nodes(), 0);
        assert_eq!(csr.num_edges(), 0);
    }
}
