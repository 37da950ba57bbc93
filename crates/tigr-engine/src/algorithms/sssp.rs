//! Single-source shortest path — the paper's running example (Figure 2,
//! Algorithms 2 and 3, the Table 8 case study), run as
//! [`crate::MonotoneProgram::SSSP`] through [`crate::run_monotone`].
//!
//! Distances are `u32` with `u32::MAX` marking unreachable nodes. For a
//! physically transformed representation, the graph must have been built
//! with [`tigr_core::DumbWeight::Zero`] (Corollary 2).

#[cfg(test)]
mod tests {
    use crate::backend::run_monotone;
    use crate::plan::ExecutionPlan;
    use crate::program::MonotoneProgram;
    use crate::representation::Representation;
    use tigr_core::{circular_transform, star_transform, udt_transform, DumbWeight, VirtualGraph};
    use tigr_graph::generators::{rmat, with_uniform_weights, RmatConfig};
    use tigr_graph::properties::dijkstra;
    use tigr_graph::NodeId;
    use tigr_sim::{GpuConfig, GpuSimulator};

    fn fixture() -> tigr_graph::Csr {
        let g = rmat(&RmatConfig::graph500(8, 8), 17);
        with_uniform_weights(&g, 1, 64, 3)
    }

    #[test]
    fn every_representation_agrees_with_dijkstra() {
        let g = fixture();
        let src = NodeId::new(0);
        let expect = dijkstra(&g, src);
        let sim = GpuSimulator::new(GpuConfig::default());
        let o = ExecutionPlan::default();
        let run = |rep: &Representation<'_>| {
            run_monotone(&sim, rep, MonotoneProgram::SSSP, Some(src), &o, None)
        };

        let orig = run(&Representation::Original(&g));
        assert_eq!(orig.values, expect);

        for t in [
            udt_transform(&g, 4, DumbWeight::Zero),
            star_transform(&g, 4, DumbWeight::Zero),
            circular_transform(&g, 4, DumbWeight::Zero),
        ] {
            let out = run(&Representation::Physical(&t));
            assert_eq!(t.project_values(&out.values), expect, "{}", t.topology());
        }

        for ov in [VirtualGraph::new(&g, 10), VirtualGraph::coalesced(&g, 10)] {
            let out = run(&Representation::Virtual {
                graph: &g,
                overlay: &ov,
            });
            assert_eq!(out.values, expect, "coalesced={}", ov.is_coalesced());
        }
    }

    #[test]
    fn unreachable_nodes_stay_infinite() {
        let g = tigr_graph::CsrBuilder::new(4)
            .weighted_edge(0, 1, 3)
            .build();
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let out = run_monotone(
            &sim,
            &Representation::Original(&g),
            MonotoneProgram::SSSP,
            Some(NodeId::new(0)),
            &ExecutionPlan::default(),
            None,
        );
        assert_eq!(out.values, vec![0, 3, u32::MAX, u32::MAX]);
    }
}
