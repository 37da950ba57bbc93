//! Direction-optimizing BFS (Beamer et al., SC 2012) — the push/pull
//! hybrid the paper's related work (§7.1) discusses as the complementary
//! axis to data transformation.
//!
//! Top-down steps expand the frontier along out-edges; once the frontier
//! covers a large fraction of the remaining edges, the traversal flips
//! bottom-up: every unvisited node scans its *in*-edges for a visited
//! parent and stops at the first hit. On low-diameter power-law graphs
//! the middle levels touch most of the graph, where bottom-up's
//! early-exit saves a large constant factor — orthogonal to, and
//! composable with, Tigr's virtual splitting (both directions accept a
//! virtual overlay).
//!
//! This module is a thin facade: the switch itself lives in the plan
//! layer ([`crate::plan::Direction::Auto`]) and the driver is
//! [`crate::run_monotone`], so BFS is just the monotone BFS program run
//! under an auto-direction plan with a caller-supplied transpose.

use tigr_core::VirtualGraph;
use tigr_graph::{Csr, NodeId};
use tigr_sim::{GpuSimulator, SimReport};

use crate::backend::{run_monotone, PullSide};
use crate::frontier::FrontierMode;
use crate::plan::{self, AutoOptions, ExecutionPlan};
use crate::program::MonotoneProgram;
use crate::push::PushOptions;

/// Which direction a BFS level ran in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Classic frontier push along out-edges.
    TopDown,
    /// Unvisited nodes pull along in-edges with early exit.
    BottomUp,
}

/// Tuning knobs of the direction switch (Beamer's α/β heuristic).
#[derive(Clone, Copy, Debug)]
pub struct DoBfsOptions {
    /// Switch to bottom-up when `frontier_out_edges × alpha` exceeds the
    /// out-edges of all unvisited nodes.
    pub alpha: f64,
    /// Switch back to top-down when the frontier shrinks below
    /// `nodes / beta`.
    pub beta: f64,
}

impl Default for DoBfsOptions {
    fn default() -> Self {
        let auto = AutoOptions::default();
        DoBfsOptions {
            alpha: auto.alpha,
            beta: auto.beta,
        }
    }
}

/// Result of a direction-optimizing BFS.
#[derive(Clone, Debug)]
pub struct DoBfsOutput {
    /// BFS levels (`u32::MAX` = unreachable).
    pub levels: Vec<u32>,
    /// Per-level simulator metrics.
    pub report: SimReport,
    /// Direction each level ran in.
    pub directions: Vec<Direction>,
}

/// Runs direction-optimizing BFS from `source`.
///
/// `graph` is the forward CSR, `reverse` its transpose
/// ([`tigr_graph::reverse::transpose`]); `overlays`, when given, are
/// virtual overlays of the two — Tigr and direction switching compose.
/// Weights, if present, are ignored (BFS counts hops).
///
/// # Panics
///
/// Panics if the graphs are not mutual transposes (checked by node/edge
/// counts) or `source` is out of range.
pub fn run(
    sim: &GpuSimulator,
    graph: &Csr,
    reverse: &Csr,
    overlays: Option<(&VirtualGraph, &VirtualGraph)>,
    source: NodeId,
    options: &DoBfsOptions,
) -> DoBfsOutput {
    assert_eq!(graph.num_nodes(), reverse.num_nodes(), "transpose mismatch");
    assert_eq!(graph.num_edges(), reverse.num_edges(), "transpose mismatch");
    assert!(source.index() < graph.num_nodes(), "source out of range");

    // BFS counts hops, and the pull side's per-slot early exit is only
    // exact on unweighted graphs — strip weights up front (edge order,
    // and therefore any overlay's edge indices, is preserved).
    let stripped_fwd;
    let stripped_rev;
    let (graph, reverse) = if graph.weights().is_some() || reverse.weights().is_some() {
        stripped_fwd = graph.without_weights();
        stripped_rev = reverse.without_weights();
        (&stripped_fwd, &stripped_rev)
    } else {
        (graph, reverse)
    };

    let rep = match overlays {
        None => crate::representation::Representation::Original(graph),
        Some((fwd, _)) => crate::representation::Representation::Virtual {
            graph,
            overlay: fwd,
        },
    };
    let pull_side = PullSide {
        reverse,
        overlay: overlays.map(|o| o.1),
    };
    let exec = ExecutionPlan {
        direction: plan::Direction::Auto,
        auto: AutoOptions {
            alpha: options.alpha,
            beta: options.beta,
        },
        push: PushOptions {
            worklist: true,
            frontier: FrontierMode::Sparse,
            ..PushOptions::default()
        },
        ..ExecutionPlan::default()
    };

    let out = run_monotone(
        sim,
        &rep,
        MonotoneProgram::BFS,
        Some(source),
        &exec,
        Some(pull_side),
    );
    DoBfsOutput {
        levels: out.values,
        report: out.report,
        directions: out
            .directions
            .iter()
            .map(|d| match d {
                plan::Direction::Pull => Direction::BottomUp,
                _ => Direction::TopDown,
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_graph::generators::{grid_2d, rmat, RmatConfig};
    use tigr_graph::properties::bfs_levels;
    use tigr_graph::reverse::transpose;
    use tigr_sim::GpuConfig;

    fn expect_levels(g: &Csr, src: NodeId) -> Vec<u32> {
        bfs_levels(g, src)
            .into_iter()
            .map(|l| if l == usize::MAX { u32::MAX } else { l as u32 })
            .collect()
    }

    #[test]
    fn levels_match_oracle_on_power_law_graph() {
        let g = rmat(&RmatConfig::graph500(10, 16), 77);
        let rev = transpose(&g);
        let src = NodeId::new(0);
        let sim = GpuSimulator::new(GpuConfig::default());
        let out = run(&sim, &g, &rev, None, src, &DoBfsOptions::default());
        assert_eq!(out.levels, expect_levels(&g, src));
        assert_eq!(out.directions.len(), out.report.num_iterations());
    }

    #[test]
    fn engages_bottom_up_on_dense_low_diameter_graphs() {
        let g = rmat(&RmatConfig::graph500(10, 16), 78);
        let rev = transpose(&g);
        let sim = GpuSimulator::new(GpuConfig::default());
        let out = run(
            &sim,
            &g,
            &rev,
            None,
            NodeId::new(0),
            &DoBfsOptions::default(),
        );
        assert!(
            out.directions.contains(&Direction::BottomUp),
            "dense RMAT should trigger the switch: {:?}",
            out.directions
        );
    }

    #[test]
    fn stays_top_down_on_high_diameter_grids() {
        // Large enough that frontier edges never dominate the remainder.
        let g = grid_2d(60, 60);
        let rev = transpose(&g);
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let out = run(
            &sim,
            &g,
            &rev,
            None,
            NodeId::new(0),
            &DoBfsOptions::default(),
        );
        assert!(out.directions.iter().all(|&d| d == Direction::TopDown));
        assert_eq!(out.levels, expect_levels(&g, NodeId::new(0)));
    }

    #[test]
    fn composes_with_virtual_overlays() {
        let g = rmat(&RmatConfig::graph500(9, 12), 79);
        let rev = transpose(&g);
        let ov_fwd = VirtualGraph::coalesced(&g, 10);
        let ov_rev = VirtualGraph::coalesced(&rev, 10);
        let sim = GpuSimulator::new(GpuConfig::default());
        let out = run(
            &sim,
            &g,
            &rev,
            Some((&ov_fwd, &ov_rev)),
            NodeId::new(0),
            &DoBfsOptions::default(),
        );
        assert_eq!(out.levels, expect_levels(&g, NodeId::new(0)));
    }

    #[test]
    fn bottom_up_saves_instructions_on_dense_graphs() {
        let g = rmat(&RmatConfig::graph500(10, 16), 80);
        let rev = transpose(&g);
        let sim = GpuSimulator::new(GpuConfig::default());
        let hybrid = run(
            &sim,
            &g,
            &rev,
            None,
            NodeId::new(0),
            &DoBfsOptions::default(),
        );
        // Force pure top-down with an unreachable switch threshold.
        let pure = run(
            &sim,
            &g,
            &rev,
            None,
            NodeId::new(0),
            &DoBfsOptions {
                alpha: 0.0, // the switch condition can never fire
                beta: 24.0,
            },
        );
        assert_eq!(hybrid.levels, pure.levels);
        assert!(
            hybrid.report.total().instructions < pure.report.total().instructions,
            "hybrid {} vs pure {}",
            hybrid.report.total().instructions,
            pure.report.total().instructions
        );
    }

    #[test]
    #[should_panic(expected = "transpose mismatch")]
    fn mismatched_transpose_rejected() {
        let g = grid_2d(3, 3);
        let other = grid_2d(4, 4);
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let _ = run(
            &sim,
            &g,
            &other,
            None,
            NodeId::new(0),
            &DoBfsOptions::default(),
        );
    }
}
