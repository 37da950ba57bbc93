//! Connected components by min-label propagation (Corollary 1), run as
//! [`crate::MonotoneProgram::CC`] through [`crate::run_monotone`].
//!
//! Every node starts with its own id and repeatedly adopts the minimum
//! label pushed along edges. On a *symmetric* graph the fixpoint labels
//! each node with the smallest id in its weakly connected component —
//! identical to [`tigr_graph::properties::connected_components`]. On a
//! directed graph labels flow only along edge direction; symmetrize the
//! input first for weak components (the paper's social graphs are
//! symmetric).
//!
//! Split transformations preserve the result (Corollary 1); dumb weights
//! are irrelevant because labels ignore weights, so physical
//! representations may be built with [`tigr_core::DumbWeight::Unweighted`].

/// Number of distinct labels in a CC result restricted to the first
/// `original_nodes` slots — the component count.
pub fn count_components(values: &[u32], original_nodes: usize) -> usize {
    let mut labels: Vec<u32> = values[..original_nodes].to_vec();
    labels.sort_unstable();
    labels.dedup();
    labels.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::run_monotone;
    use crate::plan::ExecutionPlan;
    use crate::program::MonotoneProgram;
    use crate::push::MonotoneOutput;
    use crate::representation::Representation;
    use tigr_core::{udt_transform, DumbWeight, VirtualGraph};
    use tigr_graph::generators::{barabasi_albert, BarabasiAlbertConfig};
    use tigr_graph::properties::{connected_components, num_components};
    use tigr_graph::CsrBuilder;
    use tigr_sim::{GpuConfig, GpuSimulator};

    fn run(sim: &GpuSimulator, rep: &Representation<'_>) -> MonotoneOutput {
        let plan = ExecutionPlan::default();
        run_monotone(sim, rep, MonotoneProgram::CC, None, &plan, None)
    }

    fn two_islands() -> tigr_graph::Csr {
        let mut b = CsrBuilder::new(8);
        b.symmetric(true);
        b.edge(0, 1)
            .edge(1, 2)
            .edge(2, 3)
            .edge(4, 5)
            .edge(5, 6)
            .edge(6, 7);
        b.build()
    }

    #[test]
    fn labels_match_union_find_oracle() {
        let g = two_islands();
        let sim = GpuSimulator::new(GpuConfig::tiny());
        let out = run(&sim, &Representation::Original(&g));
        assert_eq!(out.values, connected_components(&g));
        assert_eq!(count_components(&out.values, 8), 2);
    }

    #[test]
    fn component_count_preserved_across_representations() {
        let g = barabasi_albert(
            &BarabasiAlbertConfig {
                num_nodes: 200,
                edges_per_node: 2,
                symmetric: true,
            },
            31,
        );
        let expect = num_components(&g);
        let sim = GpuSimulator::new(GpuConfig::default());
        let t = udt_transform(&g, 3, DumbWeight::Unweighted);
        let phys = run(&sim, &Representation::Physical(&t));
        assert_eq!(count_components(&phys.values, t.original_nodes()), expect);
        // Labels on original nodes match exactly, not just by count.
        assert_eq!(t.project_values(&phys.values), connected_components(&g));

        let ov = VirtualGraph::new(&g, 4);
        let virt = run(
            &sim,
            &Representation::Virtual {
                graph: &g,
                overlay: &ov,
            },
        );
        assert_eq!(virt.values, connected_components(&g));
    }
}
