//! Pull (gather) steps of the simulator driver (§2.1 footnote 3,
//! Theorem 3).
//!
//! The pull scheme gathers values along *incoming* edges: each node folds
//! candidates from its in-neighbors into its own slot.
//! [`crate::backend::run_monotone`] runs these steps over the
//! **transpose** CSR, optionally with a virtual overlay built on the
//! transpose — in which case each virtual node folds a *subset* of the
//! in-edges and the partial results combine at the shared physical slot.
//! Theorem 3 guarantees correctness exactly when the fold is associative,
//! which every [`MonotoneProgram`] combine (min/max) is; updates use
//! atomics as §4.2 requires.
//!
//! Compared to push, pull issues at most **one atomic per (virtual)
//! node** per iteration instead of one per improving edge — the property
//! that makes gather-style frameworks strong on all-active workloads.
//! Every (virtual) node is scheduled each iteration — a gathering node
//! cannot be compacted away without knowing its inputs changed — but
//! with the worklist each gather folds only candidates from sources
//! active in the previous iteration. Monotone programs make this sound:
//! a candidate from a source that did not change this round was already
//! offered the round after that source last improved.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use tigr_graph::NodeId;
use tigr_sim::{GpuSimulator, KernelMetrics};

use crate::addr::{frontier_bit_addr, row_ptr_addr, vnode_addr, FLAG_ADDR};
use crate::frontier::{Frontier, FrontierBuilder};
use crate::kernel::{
    csr_edges, pull_gather, walk_segments, AccessMirror, GatherFilter, LaneMirror,
};
use crate::program::MonotoneProgram;
use crate::representation::Representation;
use crate::state::AtomicValues;

/// Per-iteration state of a gather sweep.
pub(crate) struct GatherCtx<'a> {
    pub(crate) prog: MonotoneProgram,
    pub(crate) values: &'a AtomicValues,
    /// Fold only candidates from these active sources.
    pub(crate) frontier: Option<&'a Frontier>,
    pub(crate) next: Option<&'a FrontierBuilder>,
    pub(crate) changed: &'a AtomicBool,
    pub(crate) edges_touched: &'a AtomicU64,
    /// Bottom-up BFS shape (see [`GatherFilter::early_exit`]).
    pub(crate) early_exit: bool,
}

/// One gather sweep over every (virtual) node of `rep`, which must wrap
/// a transpose view: each node folds in-edge candidates through the
/// shared relax loop and issues at most one atomic on its slot.
pub(crate) fn pull_step(
    sim: &GpuSimulator,
    rep: &Representation<'_>,
    ctx: &GatherCtx<'_>,
) -> KernelMetrics {
    let graph = rep.graph();
    let gather =
        |lane: &mut tigr_sim::Lane, slot: usize, edges: &mut dyn Iterator<Item = usize>| {
            let mut mirror = LaneMirror(lane);
            let touched = pull_gather(
                &mut mirror,
                ctx.prog,
                ctx.values,
                slot,
                csr_edges(graph, edges),
                GatherFilter {
                    active: ctx.frontier,
                    early_exit: ctx.early_exit,
                },
                |m, slot| {
                    m.store(FLAG_ADDR, 1);
                    ctx.changed.store(true, Ordering::Relaxed);
                    if let Some(next) = ctx.next {
                        if next.activate(slot) {
                            m.atomic(frontier_bit_addr(slot), 4);
                        }
                    }
                },
            );
            ctx.edges_touched.fetch_add(touched, Ordering::Relaxed);
        };

    match rep {
        Representation::Original(g) => sim.launch(g.num_nodes(), |tid, lane| {
            lane.load(row_ptr_addr(tid), 8);
            let v = NodeId::from_index(tid);
            gather(lane, tid, &mut (g.edge_start(v)..g.edge_end(v)));
        }),
        Representation::Virtual { overlay, .. } => {
            sim.launch(overlay.num_virtual_nodes(), |tid, lane| {
                lane.load(vnode_addr(tid), 8);
                let vn = overlay.vnode(tid);
                gather(
                    lane,
                    vn.physical.index(),
                    &mut tigr_core::EdgeCursor::new(&vn),
                )
            })
        }
        Representation::OnTheFly { graph: g, mapper } => {
            sim.launch(mapper.num_threads(), |tid, lane| {
                let (range, first, probes) = mapper.resolve(g, tid);
                lane.compute(probes as u64 * 2);
                // Process the block per owning node so folds stay within
                // one slot.
                let mut mirror = LaneMirror(lane);
                walk_segments(&mut mirror, g, range, first, |m, src, seg| {
                    gather(m.0, src, &mut { seg });
                });
            })
        }
        Representation::Physical(_) => panic!(
            "pull-based processing over a physically split graph is not meaningful; \
             Theorem 3 covers the virtual transformation"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{run_monotone, PullSide};
    use crate::plan::{Direction, ExecutionPlan};
    use crate::push::{MonotoneOutput, PushOptions};
    use tigr_core::VirtualGraph;
    use tigr_graph::generators::{rmat, with_uniform_weights, RmatConfig};
    use tigr_graph::properties::{dijkstra, widest_path};
    use tigr_graph::reverse::transpose;
    use tigr_sim::GpuConfig;

    fn fixture() -> (tigr_graph::Csr, tigr_graph::Csr) {
        let g = with_uniform_weights(&rmat(&RmatConfig::graph500(8, 8), 123), 1, 32, 5);
        let rev = transpose(&g);
        (g, rev)
    }

    /// A forced pull over `rep`, gathering over `rev` (with `rov` for a
    /// virtual `rep`).
    fn run_pull(
        sim: &GpuSimulator,
        rep: &Representation<'_>,
        rev: &tigr_graph::Csr,
        rov: Option<&VirtualGraph>,
        prog: MonotoneProgram,
        source: Option<NodeId>,
        worklist: bool,
    ) -> MonotoneOutput {
        let plan = ExecutionPlan {
            direction: Direction::Pull,
            push: PushOptions {
                worklist,
                ..PushOptions::default()
            },
            ..ExecutionPlan::default()
        };
        let side = PullSide {
            reverse: rev,
            overlay: rov,
        };
        run_monotone(sim, rep, prog, source, &plan, Some(side))
    }

    #[test]
    fn pull_sssp_matches_dijkstra() {
        let (g, rev) = fixture();
        let src = NodeId::new(0);
        let expect = dijkstra(&g, src);
        let sim = GpuSimulator::new(GpuConfig::default());
        let rep = Representation::Original(&g);
        let out = run_pull(
            &sim,
            &rep,
            &rev,
            None,
            MonotoneProgram::SSSP,
            Some(src),
            false,
        );
        assert!(out.converged);
        assert_eq!(out.values, expect);
        assert!(out.directions.iter().all(|&d| d == Direction::Pull));
    }

    #[test]
    fn pull_over_virtual_overlay_matches_theorem_3() {
        // The associative-fold case: virtual nodes gather disjoint
        // in-edge subsets and combine at the physical slot.
        let (g, rev) = fixture();
        let src = NodeId::new(0);
        let expect = dijkstra(&g, src);
        let sim = GpuSimulator::new(GpuConfig::default());
        for (fwd, overlay) in [
            (VirtualGraph::new(&g, 4), VirtualGraph::new(&rev, 4)),
            (
                VirtualGraph::coalesced(&g, 4),
                VirtualGraph::coalesced(&rev, 4),
            ),
        ] {
            let rep = Representation::Virtual {
                graph: &g,
                overlay: &fwd,
            };
            let out = run_pull(
                &sim,
                &rep,
                &rev,
                Some(&overlay),
                MonotoneProgram::SSSP,
                Some(src),
                false,
            );
            assert_eq!(out.values, expect, "coalesced={}", overlay.is_coalesced());
        }
    }

    #[test]
    fn pull_sswp_matches_oracle() {
        let (g, rev) = fixture();
        let src = NodeId::new(2);
        let expect = widest_path(&g, src);
        let sim = GpuSimulator::new(GpuConfig::default());
        let rep = Representation::Original(&g);
        let out = run_pull(
            &sim,
            &rep,
            &rev,
            None,
            MonotoneProgram::SSWP,
            Some(src),
            false,
        );
        assert_eq!(out.values, expect);
    }

    #[test]
    fn pull_uses_at_most_one_atomic_per_node_per_iteration() {
        let (g, rev) = fixture();
        let sim = GpuSimulator::new(GpuConfig::default());
        let rep = Representation::Original(&g);
        let pull = run_pull(
            &sim,
            &rep,
            &rev,
            None,
            MonotoneProgram::SSSP,
            Some(NodeId::new(0)),
            false,
        );
        let total = pull.report.total();
        let bound = (g.num_nodes() * pull.report.num_iterations()) as u64;
        assert!(
            total.atomic_ops <= bound,
            "{} atomics > {} node-iterations",
            total.atomic_ops,
            bound
        );
    }

    #[test]
    fn pull_cc_converges_to_min_labels() {
        let mut b = tigr_graph::CsrBuilder::new(5);
        b.symmetric(true);
        b.edge(0, 1).edge(1, 2).edge(3, 4);
        let g = b.build();
        let rev = transpose(&g); // symmetric, so identical topology
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let rep = Representation::Original(&g);
        let out = run_pull(&sim, &rep, &rev, None, MonotoneProgram::CC, None, false);
        assert_eq!(out.values, tigr_graph::properties::connected_components(&g));
    }

    #[test]
    fn frontier_pull_matches_full_pull_and_cuts_folds() {
        let (g, rev) = fixture();
        let src = NodeId::new(0);
        let expect = dijkstra(&g, src);
        let sim = GpuSimulator::new(GpuConfig::default());
        let rep = Representation::Original(&g);
        let run = |worklist: bool| {
            run_pull(
                &sim,
                &rep,
                &rev,
                None,
                MonotoneProgram::SSSP,
                Some(src),
                worklist,
            )
        };
        let full = run(false);
        let frontier = run(true);
        assert!(frontier.converged);
        assert_eq!(frontier.values, expect);
        assert_eq!(full.values, expect);
        assert!(
            frontier.edges_touched < full.edges_touched,
            "frontier {} folds vs full {}",
            frontier.edges_touched,
            full.edges_touched
        );
    }

    #[test]
    fn frontier_pull_over_virtual_overlay_matches() {
        let (g, rev) = fixture();
        let src = NodeId::new(0);
        let expect = dijkstra(&g, src);
        let sim = GpuSimulator::new(GpuConfig::default());
        let fwd = VirtualGraph::coalesced(&g, 4);
        let overlay = VirtualGraph::coalesced(&rev, 4);
        let rep = Representation::Virtual {
            graph: &g,
            overlay: &fwd,
        };
        let out = run_pull(
            &sim,
            &rep,
            &rev,
            Some(&overlay),
            MonotoneProgram::SSSP,
            Some(src),
            true,
        );
        assert!(out.converged);
        assert_eq!(out.values, expect);
    }

    #[test]
    #[should_panic(expected = "pull-based processing over a physically split graph")]
    fn physical_representation_rejected() {
        let (g, rev) = fixture();
        let t = tigr_core::udt_transform(&g, 4, tigr_core::DumbWeight::Zero);
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let _ = run_pull(
            &sim,
            &Representation::Physical(&t),
            &rev,
            None,
            MonotoneProgram::SSSP,
            Some(NodeId::new(0)),
            false,
        );
    }
}
