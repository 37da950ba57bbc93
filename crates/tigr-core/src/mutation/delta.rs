//! The in-memory delta overlay: per-node adjacency patches over an
//! immutable base CSR.
//!
//! The overlay never copies the base. Added edges live in small
//! per-source vectors, removed base edges are a set of flat edge
//! indices, and weight changes are an index-keyed override map, so the
//! memory cost is proportional to the *delta*, not the graph. The
//! merged adjacency is exposed two ways: [`OverlayView`] implements
//! [`GraphView`] for kernels that stream edges (no materialization),
//! and [`DeltaOverlay::merged_csr`] rebuilds a full CSR through
//! [`CsrBuilder`] with its default canonical ordering — byte-identical
//! to building the merged edge list from scratch, which is what makes
//! compaction's differential guarantee hold.

use std::collections::{HashMap, HashSet};

use tigr_graph::view::GraphView;
use tigr_graph::{Csr, CsrBuilder, Edge, NodeId, Weight};

use super::{MutationError, MutationOp};

/// An in-memory patch over an immutable base [`Csr`].
#[derive(Clone, Debug)]
pub struct DeltaOverlay {
    base_nodes: usize,
    extra_nodes: usize,
    weighted: bool,
    /// Added edges per source, each list sorted by `(dst, weight)`.
    added: HashMap<u32, Vec<(u32, Weight)>>,
    /// Flat base edge indices hidden by `RemoveEdge`.
    removed: HashSet<u64>,
    /// Flat base edge index → overridden weight (weighted bases only).
    overrides: HashMap<u64, Weight>,
    added_edges: usize,
    removed_edges: usize,
}

impl DeltaOverlay {
    /// An empty overlay for `base`.
    pub fn new(base: &Csr) -> Self {
        DeltaOverlay {
            base_nodes: base.num_nodes(),
            extra_nodes: 0,
            weighted: base.is_weighted(),
            added: HashMap::new(),
            removed: HashSet::new(),
            overrides: HashMap::new(),
            added_edges: 0,
            removed_edges: 0,
        }
    }

    /// `true` when the overlay changes nothing about the base.
    pub fn is_empty(&self) -> bool {
        self.added_edges == 0
            && self.removed_edges == 0
            && self.overrides.is_empty()
            && self.extra_nodes == 0
    }

    /// Size of the delta: added + removed edges + weight overrides (the
    /// compaction-pressure metric surfaced as `delta_edges` in stats).
    pub fn delta_edges(&self) -> usize {
        self.added_edges + self.removed_edges + self.overrides.len()
    }

    /// Nodes visible through the overlay (base nodes + grown nodes).
    pub fn num_nodes(&self) -> usize {
        self.base_nodes + self.extra_nodes
    }

    /// Edges visible through the overlay.
    pub fn num_edges(&self, base: &Csr) -> usize {
        base.num_edges() - self.removed_edges + self.added_edges
    }

    /// Applies one mutation. `Ok(true)` means the op changed the graph;
    /// `Ok(false)` means it was a well-formed no-op (duplicate add,
    /// remove of an absent edge, ...) — the distinction `ingest` reports
    /// as applied vs skipped.
    ///
    /// # Errors
    ///
    /// [`MutationError::Invalid`] for out-of-range endpoints, weighted
    /// ops on unweighted graphs, or node-count overflow; the overlay is
    /// unchanged on error.
    pub fn apply(&mut self, base: &Csr, op: MutationOp) -> Result<bool, MutationError> {
        debug_assert_eq!(base.num_nodes(), self.base_nodes);
        match op {
            MutationOp::AddEdge { u, v, w } => {
                self.check_endpoints(u, v)?;
                if !self.weighted && w != 1 {
                    return Err(MutationError::Invalid(format!(
                        "edge weight {w} on an unweighted graph (only 1 is allowed)"
                    )));
                }
                if self.edge_visible(base, u, v) {
                    return Ok(false);
                }
                let list = self.added.entry(u).or_default();
                let pos = list.partition_point(|&(d, dw)| (d, dw) <= (v, w));
                list.insert(pos, (v, w));
                self.added_edges += 1;
                Ok(true)
            }
            MutationOp::RemoveEdge { u, v } => {
                self.check_endpoints(u, v)?;
                if let Some(e) = self.visible_base_edge(base, u, v) {
                    self.removed.insert(e);
                    self.overrides.remove(&e);
                    self.removed_edges += 1;
                    return Ok(true);
                }
                if let Some(list) = self.added.get_mut(&u) {
                    if let Some(pos) = list.iter().position(|&(d, _)| d == v) {
                        list.remove(pos);
                        if list.is_empty() {
                            self.added.remove(&u);
                        }
                        self.added_edges -= 1;
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            MutationOp::AddNode { nodes } => {
                if nodes as usize <= self.num_nodes() {
                    return Ok(false);
                }
                self.extra_nodes = nodes as usize - self.base_nodes;
                Ok(true)
            }
            MutationOp::SetWeight { u, v, w } => {
                self.check_endpoints(u, v)?;
                if !self.weighted {
                    return Err(MutationError::Invalid(
                        "set-weight on an unweighted graph".into(),
                    ));
                }
                if let Some(e) = self.visible_base_edge(base, u, v) {
                    let changed = self.effective_weight(base, e) != w;
                    if changed {
                        if base.weight(e as usize) == w {
                            self.overrides.remove(&e);
                        } else {
                            self.overrides.insert(e, w);
                        }
                    }
                    return Ok(changed);
                }
                if let Some(list) = self.added.get_mut(&u) {
                    if let Some(pos) = list.iter().position(|&(d, _)| d == v) {
                        if list[pos].1 == w {
                            return Ok(false);
                        }
                        list.remove(pos);
                        let at = list.partition_point(|&(d, dw)| (d, dw) <= (v, w));
                        list.insert(at, (v, w));
                        return Ok(true);
                    }
                }
                Ok(false)
            }
        }
    }

    /// Weight of base edge `e` as seen through the overlay.
    pub fn effective_weight(&self, base: &Csr, e: u64) -> Weight {
        match self.overrides.get(&e) {
            Some(&w) => w,
            None => base.weight(e as usize),
        }
    }

    /// Whether the directed edge `u → v` is visible (base not-removed,
    /// or added).
    pub fn edge_visible(&self, base: &Csr, u: u32, v: u32) -> bool {
        self.visible_base_edge(base, u, v).is_some()
            || self
                .added
                .get(&u)
                .is_some_and(|l| l.iter().any(|&(d, _)| d == v))
    }

    /// First not-removed base edge `u → v`, as a flat edge index.
    fn visible_base_edge(&self, base: &Csr, u: u32, v: u32) -> Option<u64> {
        if u as usize >= self.base_nodes {
            return None;
        }
        let node = NodeId::new(u);
        (base.edge_start(node)..base.edge_end(node)).find_map(|e| {
            (base.edge_target(e).raw() == v && !self.removed.contains(&(e as u64)))
                .then_some(e as u64)
        })
    }

    fn check_endpoints(&self, u: u32, v: u32) -> Result<(), MutationError> {
        let n = self.num_nodes();
        for node in [u, v] {
            if node as usize >= n {
                return Err(MutationError::Invalid(format!(
                    "node {node} out of range for {n} nodes (add-node first)"
                )));
            }
        }
        Ok(())
    }

    /// Borrows base+delta as a [`GraphView`].
    pub fn view<'a>(&'a self, base: &'a Csr) -> OverlayView<'a> {
        OverlayView { base, delta: self }
    }

    /// The full visible edge list (order unspecified; the builder
    /// canonicalizes).
    pub fn merged_edges(&self, base: &Csr) -> Vec<Edge> {
        let mut edges = Vec::with_capacity(self.num_edges(base));
        for u in 0..self.base_nodes as u32 {
            let node = NodeId::new(u);
            for e in base.edge_start(node)..base.edge_end(node) {
                if !self.removed.contains(&(e as u64)) {
                    let w = if self.weighted {
                        self.effective_weight(base, e as u64)
                    } else {
                        1
                    };
                    edges.push(Edge::new(node, base.edge_target(e), w));
                }
            }
        }
        for (&u, list) in &self.added {
            for &(v, w) in list {
                edges.push(Edge::new(NodeId::new(u), NodeId::new(v), w));
            }
        }
        edges
    }

    /// Materializes base+delta into a standalone CSR through
    /// [`CsrBuilder`]'s default canonical ordering — byte-identical to
    /// building the same edge list from scratch.
    pub fn merged_csr(&self, base: &Csr) -> Csr {
        let mut b = CsrBuilder::from_edges(self.num_nodes(), self.merged_edges(base));
        b.force_weighted(self.weighted);
        b.build()
    }
}

/// Base+delta as a zero-copy [`GraphView`]: edge iteration streams the
/// base CSR's adjacency (skipping removed edges, applying weight
/// overrides) followed by the overlay's added edges.
#[derive(Clone, Copy, Debug)]
pub struct OverlayView<'a> {
    base: &'a Csr,
    delta: &'a DeltaOverlay,
}

impl OverlayView<'_> {
    /// The underlying base CSR.
    pub fn base(&self) -> &Csr {
        self.base
    }
}

impl GraphView for OverlayView<'_> {
    fn num_nodes(&self) -> usize {
        self.delta.num_nodes()
    }

    fn num_edges(&self) -> usize {
        self.delta.num_edges(self.base)
    }

    fn is_weighted(&self) -> bool {
        self.delta.weighted
    }

    fn out_degree(&self, u: NodeId) -> usize {
        let added = self.delta.added.get(&u.raw()).map_or(0, Vec::len);
        if u.index() >= self.delta.base_nodes {
            return added;
        }
        let removed = (self.base.edge_start(u)..self.base.edge_end(u))
            .filter(|e| self.delta.removed.contains(&(*e as u64)))
            .count();
        self.base.out_degree(u) - removed + added
    }

    #[inline]
    fn for_each_edge(&self, u: NodeId, f: &mut dyn FnMut(NodeId, Weight)) {
        if u.index() < self.delta.base_nodes {
            for e in self.base.edge_start(u)..self.base.edge_end(u) {
                if self.delta.removed.contains(&(e as u64)) {
                    continue;
                }
                let w = if self.delta.weighted {
                    self.delta.effective_weight(self.base, e as u64)
                } else {
                    1
                };
                f(self.base.edge_target(e), w);
            }
        }
        if let Some(list) = self.delta.added.get(&u.raw()) {
            for &(v, w) in list {
                f(NodeId::new(v), w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_graph::view::collect_edges;

    fn weighted_base() -> Csr {
        CsrBuilder::new(4)
            .weighted_edge(0, 1, 4)
            .weighted_edge(0, 2, 7)
            .weighted_edge(1, 2, 1)
            .weighted_edge(3, 0, 9)
            .build()
    }

    #[test]
    fn add_remove_setweight_round_trip() {
        let base = weighted_base();
        let mut d = DeltaOverlay::new(&base);
        assert!(d.is_empty());

        assert!(d
            .apply(&base, MutationOp::AddEdge { u: 2, v: 3, w: 5 })
            .unwrap());
        // Duplicate of a base edge and of an added edge both skip.
        assert!(!d
            .apply(&base, MutationOp::AddEdge { u: 0, v: 1, w: 6 })
            .unwrap());
        assert!(!d
            .apply(&base, MutationOp::AddEdge { u: 2, v: 3, w: 8 })
            .unwrap());

        assert!(d
            .apply(&base, MutationOp::RemoveEdge { u: 0, v: 2 })
            .unwrap());
        assert!(!d
            .apply(&base, MutationOp::RemoveEdge { u: 0, v: 2 })
            .unwrap());

        assert!(d
            .apply(&base, MutationOp::SetWeight { u: 0, v: 1, w: 2 })
            .unwrap());
        assert!(!d
            .apply(&base, MutationOp::SetWeight { u: 0, v: 1, w: 2 })
            .unwrap());
        // Setting a missing edge's weight is a skip.
        assert!(!d
            .apply(&base, MutationOp::SetWeight { u: 1, v: 3, w: 2 })
            .unwrap());

        assert_eq!(d.delta_edges(), 3); // 1 added + 1 removed + 1 override
        let view = d.view(&base);
        assert_eq!(view.num_edges(), 4);
        assert_eq!(
            collect_edges(&view),
            vec![(0, 1, 2), (1, 2, 1), (2, 3, 5), (3, 0, 9)]
        );
    }

    #[test]
    fn removing_an_added_edge_undoes_it() {
        let base = weighted_base();
        let mut d = DeltaOverlay::new(&base);
        assert!(d
            .apply(&base, MutationOp::AddEdge { u: 1, v: 3, w: 2 })
            .unwrap());
        assert!(d
            .apply(&base, MutationOp::RemoveEdge { u: 1, v: 3 })
            .unwrap());
        assert!(d.is_empty());
        assert_eq!(d.merged_csr(&base), base);
    }

    #[test]
    fn setweight_back_to_base_clears_the_override() {
        let base = weighted_base();
        let mut d = DeltaOverlay::new(&base);
        assert!(d
            .apply(&base, MutationOp::SetWeight { u: 0, v: 1, w: 6 })
            .unwrap());
        assert!(d
            .apply(&base, MutationOp::SetWeight { u: 0, v: 1, w: 4 })
            .unwrap());
        assert!(d.is_empty());
    }

    #[test]
    fn add_node_is_a_target_count() {
        let base = weighted_base();
        let mut d = DeltaOverlay::new(&base);
        assert!(d.apply(&base, MutationOp::AddNode { nodes: 6 }).unwrap());
        // Re-applying the same target (stale-log replay) is a no-op.
        assert!(!d.apply(&base, MutationOp::AddNode { nodes: 6 }).unwrap());
        assert!(!d.apply(&base, MutationOp::AddNode { nodes: 2 }).unwrap());
        assert_eq!(d.num_nodes(), 6);
        // New nodes can source and sink edges.
        assert!(d
            .apply(&base, MutationOp::AddEdge { u: 5, v: 0, w: 3 })
            .unwrap());
        assert!(d
            .apply(&base, MutationOp::AddEdge { u: 0, v: 5, w: 2 })
            .unwrap());
        let view = d.view(&base);
        assert_eq!(view.out_degree(NodeId::new(5)), 1);
        let merged = d.merged_csr(&base);
        assert_eq!(merged.num_nodes(), 6);
        assert_eq!(merged.neighbors(NodeId::new(5)), &[NodeId::new(0)]);
    }

    #[test]
    fn invalid_ops_are_rejected_and_leave_state_unchanged() {
        let base = weighted_base();
        let mut d = DeltaOverlay::new(&base);
        for op in [
            MutationOp::AddEdge { u: 9, v: 0, w: 1 },
            MutationOp::AddEdge { u: 0, v: 9, w: 1 },
            MutationOp::RemoveEdge { u: 9, v: 0 },
            MutationOp::SetWeight { u: 0, v: 9, w: 1 },
        ] {
            assert!(matches!(d.apply(&base, op), Err(MutationError::Invalid(_))));
        }
        assert!(d.is_empty());

        let unweighted = CsrBuilder::new(2).edge(0, 1).build();
        let mut d = DeltaOverlay::new(&unweighted);
        assert!(matches!(
            d.apply(&unweighted, MutationOp::AddEdge { u: 1, v: 0, w: 7 }),
            Err(MutationError::Invalid(_))
        ));
        assert!(matches!(
            d.apply(&unweighted, MutationOp::SetWeight { u: 0, v: 1, w: 1 }),
            Err(MutationError::Invalid(_))
        ));
        // Unit-weight adds are fine and the merged graph stays
        // unweighted.
        assert!(d
            .apply(&unweighted, MutationOp::AddEdge { u: 1, v: 0, w: 1 })
            .unwrap());
        assert!(!d.merged_csr(&unweighted).is_weighted());
    }

    #[test]
    fn merged_csr_matches_from_scratch_build() {
        let base = weighted_base();
        let mut d = DeltaOverlay::new(&base);
        for op in [
            MutationOp::AddNode { nodes: 5 },
            MutationOp::AddEdge { u: 4, v: 1, w: 3 },
            MutationOp::AddEdge { u: 0, v: 3, w: 2 },
            MutationOp::RemoveEdge { u: 1, v: 2 },
            MutationOp::SetWeight { u: 3, v: 0, w: 1 },
        ] {
            assert!(d.apply(&base, op).unwrap());
        }
        let merged = d.merged_csr(&base);

        let mut scratch = CsrBuilder::new(5);
        scratch
            .weighted_edge(0, 1, 4)
            .weighted_edge(0, 2, 7)
            .weighted_edge(0, 3, 2)
            .weighted_edge(3, 0, 1)
            .weighted_edge(4, 1, 3);
        assert_eq!(merged, scratch.build());

        // The streaming view agrees with the materialized CSR on every
        // edge (as multisets per source).
        let view = d.view(&base);
        let mut streamed = collect_edges(&view);
        streamed.sort_unstable();
        let mut materialized = collect_edges(&merged);
        materialized.sort_unstable();
        assert_eq!(streamed, materialized);
    }
}
