//! Single-source widest path (bottleneck paths, Corollary 3), run as
//! [`crate::MonotoneProgram::SSWP`] through [`crate::run_monotone`]:
//! each node's value converges to the maximum over paths of the minimum
//! edge weight along the path. The source holds `u32::MAX`; unreachable
//! nodes hold `0`.
//!
//! For physical representations the transformation must use
//! [`tigr_core::DumbWeight::Infinity`] so introduced edges never tighten
//! a bottleneck (Corollary 3).

#[cfg(test)]
mod tests {
    use crate::backend::run_monotone;
    use crate::plan::ExecutionPlan;
    use crate::program::MonotoneProgram;
    use crate::push::MonotoneOutput;
    use crate::representation::Representation;
    use tigr_core::{udt_transform, DumbWeight, VirtualGraph};
    use tigr_graph::generators::{rmat, with_uniform_weights, RmatConfig};
    use tigr_graph::properties::widest_path;
    use tigr_graph::NodeId;
    use tigr_sim::{GpuConfig, GpuSimulator};

    fn run(sim: &GpuSimulator, rep: &Representation<'_>, src: NodeId) -> MonotoneOutput {
        let plan = ExecutionPlan::default();
        run_monotone(sim, rep, MonotoneProgram::SSWP, Some(src), &plan, None)
    }

    fn fixture() -> tigr_graph::Csr {
        let g = rmat(&RmatConfig::graph500(8, 8), 29);
        with_uniform_weights(&g, 1, 64, 7)
    }

    #[test]
    fn widths_match_oracle_on_all_representations() {
        let g = fixture();
        let src = NodeId::new(0);
        let expect = widest_path(&g, src);
        let sim = GpuSimulator::new(GpuConfig::default());
        let orig = run(&sim, &Representation::Original(&g), src);
        assert_eq!(orig.values, expect);

        // Physical needs INFINITE dumb weights.
        let t = udt_transform(&g, 4, DumbWeight::Infinity);
        let out = run(&sim, &Representation::Physical(&t), src);
        assert_eq!(t.project_values(&out.values), expect);

        let ov = VirtualGraph::coalesced(&g, 10);
        let out = run(
            &sim,
            &Representation::Virtual {
                graph: &g,
                overlay: &ov,
            },
            src,
        );
        assert_eq!(out.values, expect);
    }

    #[test]
    fn zero_dumb_weights_would_corrupt_sswp() {
        // Negative control documenting why Corollary 3 needs infinity.
        let g = fixture();
        let src = NodeId::new(0);
        let expect = widest_path(&g, src);
        let t = udt_transform(&g, 4, DumbWeight::Zero);
        if t.num_split_nodes() == 0 {
            return; // nothing split, nothing to corrupt
        }
        let sim = GpuSimulator::new(GpuConfig::default());
        let out = run(&sim, &Representation::Physical(&t), src);
        assert_ne!(t.project_values(&out.values), expect);
    }
}
