//! Push and pull drivers must reach identical fixpoints — the
//! cross-scheme differential test over all programs and overlays.

use tigr::engine::{
    run_monotone, Direction, ExecutionPlan, MonotoneProgram, PullSide, PushOptions,
};
use tigr::graph::datasets;
use tigr::graph::reverse::transpose;
use tigr::{NodeId, Representation, VirtualGraph};
use tigr_sim::{GpuConfig, GpuSimulator};

fn fixture() -> (tigr::Csr, tigr::Csr) {
    let g = datasets::by_name("pokec")
        .unwrap()
        .generate_weighted(8192, 13);
    let rev = transpose(&g);
    (g, rev)
}

/// A forced pull that gathers every in-edge each iteration.
fn pull_plan() -> ExecutionPlan {
    ExecutionPlan {
        direction: Direction::Pull,
        push: PushOptions {
            worklist: false,
            ..PushOptions::default()
        },
        ..ExecutionPlan::default()
    }
}

fn pull_side<'a>(rev: &'a tigr::Csr, overlay: Option<&'a VirtualGraph>) -> Option<PullSide<'a>> {
    Some(PullSide {
        reverse: rev,
        overlay,
    })
}

#[test]
fn push_and_pull_agree_on_every_monotone_program() {
    let (g, rev) = fixture();
    let sim = GpuSimulator::new_parallel(GpuConfig::default());
    let src = NodeId::new(0);

    for prog in [
        MonotoneProgram::SSSP,
        MonotoneProgram::BFS,
        MonotoneProgram::SSWP,
        MonotoneProgram::CC,
    ] {
        let source = prog.needs_source().then_some(src);
        let push = run_monotone(
            &sim,
            &Representation::Original(&g),
            prog,
            source,
            &ExecutionPlan::default(),
            None,
        );
        let pull = run_monotone(
            &sim,
            &Representation::Original(&g),
            prog,
            source,
            &pull_plan(),
            pull_side(&rev, None),
        );
        assert!(push.converged && pull.converged, "{}", prog.name);
        assert_eq!(push.values, pull.values, "{} differs", prog.name);
    }
}

#[test]
fn pull_over_coalesced_overlay_agrees() {
    let (g, rev) = fixture();
    let sim = GpuSimulator::new_parallel(GpuConfig::default());
    let src = NodeId::new(0);
    let forward = VirtualGraph::coalesced(&g, 10);
    let overlay = VirtualGraph::coalesced(&rev, 10);

    let push = run_monotone(
        &sim,
        &Representation::Original(&g),
        MonotoneProgram::SSSP,
        Some(src),
        &ExecutionPlan::default(),
        None,
    );
    let pull = run_monotone(
        &sim,
        &Representation::Virtual {
            graph: &g,
            overlay: &forward,
        },
        MonotoneProgram::SSSP,
        Some(src),
        &pull_plan(),
        pull_side(&rev, Some(&overlay)),
    );
    assert_eq!(push.values, pull.values);
}

#[test]
fn pull_over_otf_mapping_agrees() {
    let (g, rev) = fixture();
    let sim = GpuSimulator::new_parallel(GpuConfig::default());
    let src = NodeId::new(3);

    let push = run_monotone(
        &sim,
        &Representation::Original(&g),
        MonotoneProgram::SSWP,
        Some(src),
        &ExecutionPlan::default(),
        None,
    );
    let mapper = tigr::core::OnTheFlyMapper::new(&g, 10);
    let pull = run_monotone(
        &sim,
        &Representation::OnTheFly { graph: &g, mapper },
        MonotoneProgram::SSWP,
        Some(src),
        &pull_plan(),
        pull_side(&rev, None),
    );
    assert_eq!(push.values, pull.values);
}

#[test]
fn direction_optimizing_bfs_agrees_with_both() {
    let (g, rev) = fixture();
    let sim = GpuSimulator::new_parallel(GpuConfig::default());
    let src = NodeId::new(0);

    let push = run_monotone(
        &sim,
        &Representation::Original(&g.without_weights()),
        MonotoneProgram::BFS,
        Some(src),
        &ExecutionPlan::default(),
        None,
    );
    let hybrid = tigr::engine::dobfs::run(
        &sim,
        &g,
        &rev,
        None,
        src,
        &tigr::engine::DoBfsOptions::default(),
    );
    assert_eq!(push.values, hybrid.levels);
}
