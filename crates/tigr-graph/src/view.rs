//! A read-only adjacency abstraction over "some graph shape".
//!
//! The engine's sequential monotone driver is generic over
//! [`GraphView`]: a plain [`Csr`] and the mutation layer's delta overlay
//! (an immutable base CSR patched with added/removed edges, never
//! copied) run through the same code, monomorphized per view. The trait
//! is deliberately minimal and object-safe so a view can also be handed
//! across crate boundaries as `&dyn GraphView`.

use crate::csr::Csr;
use crate::edge::{NodeId, Weight};

/// Read-only out-adjacency access: the minimal shape a push-style
/// vertex-centric kernel needs from a graph.
///
/// Unweighted views must report a weight of `1` for every edge, matching
/// [`Csr::weight`].
pub trait GraphView {
    /// Number of nodes (out-edge endpoints are `< num_nodes()`).
    fn num_nodes(&self) -> usize;

    /// Number of directed edges visible through this view.
    fn num_edges(&self) -> usize;

    /// Whether edges carry explicit weights (`false` means all-1).
    fn is_weighted(&self) -> bool;

    /// Outgoing degree of `u` as seen through this view.
    fn out_degree(&self, u: NodeId) -> usize;

    /// Calls `f(dst, weight)` for every out-edge of `u`, in the view's
    /// canonical order.
    fn for_each_edge(&self, u: NodeId, f: &mut dyn FnMut(NodeId, Weight));

    /// The CSR itself when this view is one: kernels monomorphized over
    /// a concrete view walk its contiguous edge slices instead of
    /// calling back per edge.
    fn as_csr(&self) -> Option<&Csr> {
        None
    }
}

impl GraphView for Csr {
    fn num_nodes(&self) -> usize {
        Csr::num_nodes(self)
    }

    fn num_edges(&self) -> usize {
        Csr::num_edges(self)
    }

    fn is_weighted(&self) -> bool {
        Csr::is_weighted(self)
    }

    fn out_degree(&self, u: NodeId) -> usize {
        Csr::out_degree(self, u)
    }

    fn for_each_edge(&self, u: NodeId, f: &mut dyn FnMut(NodeId, Weight)) {
        let (start, end) = (self.edge_start(u), self.edge_end(u));
        match self.neighbor_weights(u) {
            Some(w) => {
                for (i, &dst) in self.col_idx()[start..end].iter().enumerate() {
                    f(dst, w[i]);
                }
            }
            None => {
                for &dst in &self.col_idx()[start..end] {
                    f(dst, 1);
                }
            }
        }
    }

    #[inline]
    fn as_csr(&self) -> Option<&Csr> {
        Some(self)
    }
}

/// Collects a view's full edge list as `(src, dst, weight)` triples in
/// view order — the bridge from any [`GraphView`] back to a
/// [`CsrBuilder`](crate::CsrBuilder) materialization.
pub fn collect_edges(view: &dyn GraphView) -> Vec<(u32, u32, Weight)> {
    let mut out = Vec::with_capacity(view.num_edges());
    for u in 0..view.num_nodes() as u32 {
        view.for_each_edge(NodeId::new(u), &mut |dst, w| {
            out.push((u, dst.raw(), w));
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CsrBuilder;

    #[test]
    fn csr_view_matches_direct_access() {
        let g = CsrBuilder::new(4)
            .weighted_edge(0, 1, 4)
            .weighted_edge(0, 2, 7)
            .weighted_edge(1, 2, 1)
            .weighted_edge(3, 0, 9)
            .build();
        let v: &dyn GraphView = &g;
        assert_eq!(v.num_nodes(), 4);
        assert_eq!(v.num_edges(), 4);
        assert!(v.is_weighted());
        assert_eq!(v.out_degree(NodeId::new(0)), 2);
        assert!(std::ptr::eq(v.as_csr().unwrap(), &g));
        assert_eq!(
            collect_edges(v),
            vec![(0, 1, 4), (0, 2, 7), (1, 2, 1), (3, 0, 9)]
        );
    }

    #[test]
    fn unweighted_view_reports_unit_weights() {
        let g = CsrBuilder::new(3).edge(0, 1).edge(1, 2).build();
        let v: &dyn GraphView = &g;
        assert!(!v.is_weighted());
        assert_eq!(collect_edges(v), vec![(0, 1, 1), (1, 2, 1)]);
    }
}
