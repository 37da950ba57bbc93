//! Breadth-first search: SSSP over unit edge weights (§3.3), run as
//! [`crate::MonotoneProgram::BFS`] through [`crate::run_monotone`],
//! producing hop levels (`u32::MAX` = unreachable).
//!
//! On unweighted graphs every edge counts 1 hop. On physically
//! transformed graphs, run on a [`tigr_core::DumbWeight::Zero`]
//! transformation of the unit-weight graph: original edges carry 1,
//! introduced edges 0, so levels are preserved (Corollary 2 via the
//! BFS-as-SSSP reduction).

#[cfg(test)]
mod tests {
    use crate::backend::run_monotone;
    use crate::plan::ExecutionPlan;
    use crate::program::MonotoneProgram;
    use crate::representation::Representation;
    use tigr_core::{udt_transform, DumbWeight, VirtualGraph};
    use tigr_graph::generators::{rmat, RmatConfig};
    use tigr_graph::properties::bfs_levels;
    use tigr_graph::NodeId;
    use tigr_sim::{GpuConfig, GpuSimulator};

    fn expect_levels(g: &tigr_graph::Csr, src: NodeId) -> Vec<u32> {
        bfs_levels(g, src)
            .into_iter()
            .map(|l| if l == usize::MAX { u32::MAX } else { l as u32 })
            .collect()
    }

    #[test]
    fn levels_match_oracle_on_all_representations() {
        let g = rmat(&RmatConfig::graph500(8, 6), 23);
        let src = NodeId::new(3);
        let expect = expect_levels(&g, src);
        let sim = GpuSimulator::new(GpuConfig::default());
        let o = ExecutionPlan::default();
        let run = |rep: &Representation<'_>| {
            run_monotone(&sim, rep, MonotoneProgram::BFS, Some(src), &o, None)
        };

        let orig = run(&Representation::Original(&g));
        assert_eq!(orig.values, expect);

        // Physical: unit weights + zero dumb weights preserve levels.
        let unit = g.with_weights_from(|_| 1);
        let t = udt_transform(&unit, 4, DumbWeight::Zero);
        let out = run(&Representation::Physical(&t));
        assert_eq!(t.project_values(&out.values), expect);

        let ov = VirtualGraph::coalesced(&g, 10);
        let out = run(&Representation::Virtual {
            graph: &g,
            overlay: &ov,
        });
        assert_eq!(out.values, expect);
    }

    #[test]
    fn bfs_iterations_track_eccentricity_with_worklist() {
        // With a worklist the frontier advances exactly one level per
        // iteration.
        let g = tigr_graph::generators::grid_2d(5, 5);
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let out = run_monotone(
            &sim,
            &Representation::Original(&g),
            MonotoneProgram::BFS,
            Some(NodeId::new(0)),
            &ExecutionPlan::default(),
            None,
        );
        let ecc = tigr_graph::stats::eccentricity(&g, NodeId::new(0));
        // One iteration per level plus the final empty-frontier check.
        assert_eq!(out.report.num_iterations(), ecc + 1);
    }
}
