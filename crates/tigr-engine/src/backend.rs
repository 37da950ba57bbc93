//! Executors that run an [`ExecutionPlan`]: the warp-lockstep simulator,
//! the work-stealing CPU pool, and a deterministic sequential sweep.
//!
//! The [`Backend`] trait closes the Plan → Kernel → Backend loop: a plan
//! describes *what* to run (representation, direction, frontier,
//! schedule), the [`crate::kernel`] module owns the single per-edge relax
//! loop, and a backend decides *where* the iterations execute. All three
//! backends validate the plan against the paper's theorems before
//! launching and produce the same [`MonotoneOutput`] shape, so
//! differential tests can pit any cell of the plan matrix against the
//! sequential reference.
//!
//! This module also hosts the simulator's one monotone driver,
//! [`run_monotone`]: push, pull and the direction-optimizing
//! [`Direction::Auto`] (Beamer's α/β density switch, generalized from
//! BFS to any monotone program; pull steps over split views are taken
//! only when Theorem 3 licenses them) are one iteration loop.

use std::cell::OnceCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64};

use tigr_core::{OnTheFlyMapper, VirtualGraph};
use tigr_graph::reverse::transpose;
use tigr_graph::{Csr, NodeId};
use tigr_sim::{GpuConfig, GpuSimulator, SimReport};

use crate::batch::{
    run_batch_sequential_push, run_solo_cpu_pool, BatchArena, BatchLane, BatchProgram,
};
use crate::frontier::{Frontier, FrontierBuilder, FrontierMode, FrontierRep};
use crate::kernel::{csr_edges, pull_gather, GatherFilter, NoMirror};
use crate::plan::{BackendKind, Direction, ExecutionPlan};
use crate::program::{EdgeOp, InitKind, MonotoneProgram};
use crate::pull::{pull_step, GatherCtx};
use crate::push::{full_sweep, worklist_sweep, IterCtx, MonotoneOutput, SyncMode};
use crate::representation::Representation;
use crate::runner::EngineError;
use crate::state::{AtomicValues, Combine};

/// An executor capable of running a validated [`ExecutionPlan`].
pub trait Backend: fmt::Debug {
    /// Stable backend label (matches [`BackendKind::label`]).
    fn name(&self) -> &'static str;

    /// Runs `prog` over `rep` according to `plan`, validating the plan
    /// first (invalid combinations return
    /// [`EngineError::InvalidPlan`]).
    fn run_monotone(
        &self,
        rep: &Representation<'_>,
        prog: MonotoneProgram,
        source: Option<NodeId>,
        plan: &ExecutionPlan,
    ) -> Result<MonotoneOutput, EngineError>;
}

/// Prebuilt transpose-side views for the pull steps of a run: callers
/// that already hold the reverse CSR (and possibly its overlay) skip
/// the lazy construction.
#[derive(Clone, Copy, Debug)]
pub struct PullSide<'a> {
    /// The transpose of the forward graph.
    pub reverse: &'a Csr,
    /// Virtual overlay built over `reverse`, when the forward
    /// representation is virtual.
    pub overlay: Option<&'a VirtualGraph>,
}

/// The transpose-side view a pull step over `rep` gathers on: the
/// prepared side when given, otherwise a transpose built into
/// `rev_built` — mirrored by [`transpose_overlay`] (built into
/// `rov_built`) for a virtual view, and by a mapper of the same `K` for
/// on-the-fly mapping. A physical split passes through, for
/// [`pull_step`] to reject.
pub(crate) fn transpose_rep<'r>(
    rep: &Representation<'r>,
    prepared: Option<&PullSide<'r>>,
    rev_built: &'r OnceCell<Csr>,
    rov_built: &'r OnceCell<VirtualGraph>,
) -> Representation<'r> {
    let reverse = move || match prepared {
        Some(ps) => ps.reverse,
        None => rev_built.get_or_init(|| transpose(rep.graph())),
    };
    match rep {
        Representation::Original(_) => Representation::Original(reverse()),
        Representation::Virtual { overlay, .. } => {
            let graph = reverse();
            let overlay = match prepared.and_then(|ps| ps.overlay) {
                Some(rov) => rov,
                None => rov_built.get_or_init(|| transpose_overlay(graph, overlay)),
            };
            Representation::Virtual { graph, overlay }
        }
        Representation::OnTheFly { mapper, .. } => {
            let graph = reverse();
            Representation::OnTheFly {
                graph,
                mapper: OnTheFlyMapper::new(graph, mapper.k()),
            }
        }
        Representation::Physical(t) => Representation::Physical(t),
    }
}

/// Builds the transpose-side overlay matching the forward overlay's
/// layout (stride coalescing) and chunk size.
fn transpose_overlay(rev: &Csr, forward: &VirtualGraph) -> VirtualGraph {
    if forward.is_coalesced() {
        VirtualGraph::coalesced(rev, forward.k())
    } else {
        VirtualGraph::new(rev, forward.k())
    }
}

/// Whether a pull step may early-exit per slot (the bottom-up BFS
/// shape): level-synchronous unweighted single-source min-plus runs set
/// each value exactly once to its final level, so skipping claimed slots
/// and stopping at the first improving parent is exact.
fn bottom_up_exact(prog: &MonotoneProgram, g: &Csr) -> bool {
    let unit_distance = match prog.edge_op {
        // Unweighted min-plus: every edge contributes 1.
        EdgeOp::AddWeight => g.weights().is_none(),
        // Hop counting ignores weights entirely.
        EdgeOp::AddUnit => true,
        _ => false,
    };
    unit_distance && prog.combine == Combine::Min && prog.init == InitKind::SourceZero
}

/// Runs `prog` over `rep` on the simulator under `plan`: the one
/// WarpSim monotone driver.
///
/// Each iteration stops the run when the worklist is empty or
/// `plan.cancel` has fired (a cancelled run keeps the consistent
/// monotone prefix of its last completed iteration), then picks a
/// direction by [`ExecutionPlan::direction_rule`]:
///
/// * **push** scatters along out-edges — a worklist sweep over the
///   active (virtual) nodes or a full sweep — reading the previous
///   iteration's snapshot under [`SyncMode::Bsp`];
/// * **pull** gathers along in-edges over the transpose side (see
///   [`PullSide`]; built once on the first pull step when not given),
///   each node issuing at most one atomic. With the worklist a gather
///   folds only candidates from sources active last iteration, read
///   off a dense bitmap; a forced pull with the worklist off gathers
///   every in-edge;
/// * **auto** takes a pull step while the frontier owns more than
///   `1/alpha` of the out-edges not yet reached and more than
///   `1/beta` of the nodes, and a push step otherwise.
///
/// Results are indexed by the forward representation's value slots.
/// Callers validate the plan first ([`ExecutionPlan::validate`]).
///
/// # Example
///
/// ```
/// use tigr_engine::{run_monotone, ExecutionPlan, MonotoneProgram, Representation};
/// use tigr_graph::{CsrBuilder, NodeId};
/// use tigr_sim::{GpuConfig, GpuSimulator};
///
/// let g = CsrBuilder::new(3)
///     .weighted_edge(0, 1, 5)
///     .weighted_edge(1, 2, 7)
///     .build();
/// let sim = GpuSimulator::new(GpuConfig::default());
/// let out = run_monotone(
///     &sim,
///     &Representation::Original(&g),
///     MonotoneProgram::SSSP,
///     Some(NodeId::new(0)),
///     &ExecutionPlan::default(),
///     None,
/// );
/// assert_eq!(out.values, vec![0, 5, 12]);
/// ```
///
/// # Panics
///
/// Panics if the program needs a source and none is given, the source
/// is out of range, or a pull step meets a physical split.
pub fn run_monotone(
    sim: &GpuSimulator,
    rep: &Representation<'_>,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    plan: &ExecutionPlan,
    pull_side: Option<PullSide<'_>>,
) -> MonotoneOutput {
    let opts = &plan.push;
    let rule = plan.direction_rule(rep, &prog);
    let g = rep.graph();
    let n = rep.num_value_slots();
    // A gather consults its frontier per in-edge, so a forced pull
    // keeps it as a dense bitmap.
    let mode = match rule {
        Direction::Pull => FrontierMode::Dense,
        _ => opts.frontier,
    };
    let early_exit = rule == Direction::Auto && bottom_up_exact(&prog, g);
    let values = AtomicValues::from_values(prog.initial_values(n, source));
    let edges_touched = AtomicU64::new(0);
    let next = opts.worklist.then(|| FrontierBuilder::new(n));
    let mut frontier = opts
        .worklist
        .then(|| Frontier::from_active(n, prog.initial_frontier(n, source), mode));
    let mut prev =
        (rule == Direction::Push && opts.sync == SyncMode::Bsp).then(|| values.snapshot());
    // Out-edges not yet owned by any frontier: the denominator of the
    // density switch.
    let out_edges = |nodes: &[u32]| -> u64 {
        nodes
            .iter()
            .map(|&v| g.out_degree(NodeId::new(v)) as u64)
            .sum()
    };
    let mut remaining = g.num_edges() as u64;
    let (rev_built, rov_built) = (OnceCell::new(), OnceCell::new());
    let pull_rep = OnceCell::new();

    let mut report = SimReport::new();
    let mut directions = Vec::new();
    let (mut converged, mut cancelled) = (false, false);
    for _ in 0..opts.max_iterations {
        if frontier.as_ref().is_some_and(Frontier::is_empty) {
            converged = true;
            break;
        }
        if plan.cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        let dir = match rule {
            Direction::Auto => {
                let f = frontier.as_ref().expect("auto runs a worklist");
                if out_edges(f.nodes()) as f64 * plan.auto.alpha > remaining as f64
                    && f.len() > n.div_ceil(plan.auto.beta.max(1.0) as usize).max(1)
                {
                    Direction::Pull
                } else {
                    Direction::Push
                }
            }
            forced => forced,
        };

        let changed = AtomicBool::new(false);
        let (threads, metrics) = if dir == Direction::Pull {
            let pull_rep = pull_rep
                .get_or_init(|| transpose_rep(rep, pull_side.as_ref(), &rev_built, &rov_built));
            let ctx = GatherCtx {
                prog,
                values: &values,
                frontier: frontier.as_ref(),
                next: next.as_ref(),
                changed: &changed,
                edges_touched: &edges_touched,
                early_exit,
            };
            (pull_rep.full_threads(), pull_step(sim, pull_rep, &ctx))
        } else {
            let ctx = IterCtx {
                graph: g,
                prog,
                values: &values,
                prev: prev.as_deref(),
                changed: &changed,
                next_frontier: next.as_ref(),
                edges_touched: &edges_touched,
            };
            match &frontier {
                Some(f) if f.rep() == FrontierRep::Sparse => {
                    (f.len(), worklist_sweep(sim, rep, &ctx, f))
                }
                Some(f) => (rep.full_threads(), worklist_sweep(sim, rep, &ctx, f)),
                None => (rep.full_threads(), full_sweep(sim, rep, &ctx)),
            }
        };
        report.push(threads, metrics);
        directions.push(dir);

        if let Some(next) = &next {
            let f = frontier.insert(next.take(mode));
            if rule == Direction::Auto {
                remaining = remaining.saturating_sub(out_edges(f.nodes()));
            }
            if opts.sort_frontier_by_degree {
                // Batch similar degrees into the same warps; ties broken
                // by id for determinism.
                f.sort_by_degree(g);
            }
        }
        if !changed.into_inner() {
            converged = true;
            break;
        }
        if let Some(prev) = &mut prev {
            *prev = values.snapshot();
        }
    }

    MonotoneOutput {
        values: values.snapshot(),
        report,
        converged,
        edges_touched: edges_touched.into_inner(),
        directions,
        cancelled,
    }
}

/// The warp-lockstep simulator backend: architectural metrics per
/// iteration, every direction supported.
pub struct WarpSim {
    sim: GpuSimulator,
}

impl WarpSim {
    /// Simulator backend over a fresh sequential simulator.
    pub fn new(config: GpuConfig) -> Self {
        WarpSim {
            sim: GpuSimulator::new(config),
        }
    }

    /// Simulator backend over the host-parallel simulator.
    pub fn parallel(config: GpuConfig) -> Self {
        WarpSim {
            sim: GpuSimulator::new_parallel(config),
        }
    }

    /// The wrapped simulator.
    pub fn sim(&self) -> &GpuSimulator {
        &self.sim
    }
}

impl fmt::Debug for WarpSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WarpSim").finish_non_exhaustive()
    }
}

impl Backend for WarpSim {
    fn name(&self) -> &'static str {
        BackendKind::WarpSim.label()
    }

    fn run_monotone(
        &self,
        rep: &Representation<'_>,
        prog: MonotoneProgram,
        source: Option<NodeId>,
        plan: &ExecutionPlan,
    ) -> Result<MonotoneOutput, EngineError> {
        plan.validate(rep, &prog)?;
        Ok(run_monotone(&self.sim, rep, prog, source, plan, None))
    }
}

/// The wall-clock CPU backend over the persistent work-stealing pool.
/// Every direction runs as a one-lane batch of the pool driver
/// ([`crate::batch::run_batch_cpu_pool`]), which carries the pool's
/// push and gather sides and the Beamer density switch. Architectural
/// metrics are absent, so the returned report is empty.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuPool;

impl Backend for CpuPool {
    fn name(&self) -> &'static str {
        BackendKind::CpuPool.label()
    }

    fn run_monotone(
        &self,
        rep: &Representation<'_>,
        prog: MonotoneProgram,
        source: Option<NodeId>,
        plan: &ExecutionPlan,
    ) -> Result<MonotoneOutput, EngineError> {
        let mut plan = plan.clone();
        plan.backend = BackendKind::CpuPool;
        plan.validate(rep, &prog)?;
        Ok(run_solo_cpu_pool(rep, None, prog, source, &plan).0)
    }
}

/// Deterministic single-threaded backend: nodes processed in id order,
/// no atomic contention, no simulator accounting. The reference
/// executor the plan-matrix differential tests compare against.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sequential;

impl Backend for Sequential {
    fn name(&self) -> &'static str {
        BackendKind::Sequential.label()
    }

    fn run_monotone(
        &self,
        rep: &Representation<'_>,
        prog: MonotoneProgram,
        source: Option<NodeId>,
        plan: &ExecutionPlan,
    ) -> Result<MonotoneOutput, EngineError> {
        plan.validate(rep, &prog)?;
        Ok(match plan.direction {
            // Auto's fixpoint equals push's; the sequential reference
            // keeps the simpler schedule: the lane driver at K = 1.
            Direction::Push | Direction::Auto => {
                let batch = BatchProgram {
                    prog,
                    lanes: vec![BatchLane::with_cancel(source, plan.cancel.clone())],
                };
                let mut out = run_batch_sequential_push(
                    rep.graph(),
                    &batch,
                    &plan.push,
                    &mut BatchArena::new(),
                );
                out.lanes.pop().expect("one lane in, one lane out")
            }
            Direction::Pull => sequential_pull(rep, prog, source, plan),
        })
    }
}

/// Sequential gather sweeps over an internally built transpose.
fn sequential_pull(
    rep: &Representation<'_>,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    plan: &ExecutionPlan,
) -> MonotoneOutput {
    let g = rep.graph();
    let n = rep.num_value_slots();
    let rev = transpose(g);
    let values = AtomicValues::from_values(prog.initial_values(n, source));
    let next = FrontierBuilder::new(n);
    let mut frontier: Option<Frontier> = plan
        .push
        .worklist
        .then(|| Frontier::from_active(n, prog.initial_frontier(n, source), FrontierMode::Dense));
    let mut edges_touched = 0u64;
    let mut iterations = 0usize;
    let mut converged = false;
    let mut cancelled = false;
    for _ in 0..plan.push.max_iterations {
        if let Some(f) = &frontier {
            if f.is_empty() {
                converged = true;
                break;
            }
        }
        if plan.cancel.is_cancelled() {
            cancelled = true;
            break;
        }
        iterations += 1;
        let mut changed = false;
        for slot in 0..n {
            let v = NodeId::from_index(slot);
            edges_touched += pull_gather(
                &mut NoMirror,
                prog,
                &values,
                slot,
                csr_edges(&rev, rev.edge_start(v)..rev.edge_end(v)),
                GatherFilter {
                    active: frontier.as_ref(),
                    early_exit: false,
                },
                |_, s| {
                    changed = true;
                    next.activate(s);
                },
            );
        }
        if frontier.is_some() {
            frontier = Some(next.take(FrontierMode::Dense));
        }
        if !changed {
            converged = true;
            break;
        }
    }
    MonotoneOutput {
        values: values.snapshot(),
        report: SimReport::new(),
        converged,
        edges_touched,
        directions: vec![Direction::Pull; iterations],
        cancelled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::push::PushOptions;
    use tigr_graph::generators::{barabasi_albert, with_uniform_weights, BarabasiAlbertConfig};
    use tigr_graph::properties::dijkstra;

    fn fixture() -> Csr {
        let g = barabasi_albert(
            &BarabasiAlbertConfig {
                num_nodes: 250,
                edges_per_node: 3,
                symmetric: true,
            },
            11,
        );
        with_uniform_weights(&g, 1, 24, 3)
    }

    #[test]
    fn every_backend_agrees_on_sssp() {
        let g = fixture();
        let src = NodeId::new(0);
        let expect = dijkstra(&g, src);
        let rep = Representation::Original(&g);
        let plan = ExecutionPlan::default();
        let backends: Vec<Box<dyn Backend>> = vec![
            Box::new(WarpSim::new(GpuConfig::default())),
            Box::new(CpuPool),
            Box::new(Sequential),
        ];
        for b in &backends {
            let out = b
                .run_monotone(&rep, MonotoneProgram::SSSP, Some(src), &plan)
                .unwrap();
            assert_eq!(out.values, expect, "backend {}", b.name());
        }
    }

    #[test]
    fn sequential_pull_matches_push() {
        let g = fixture();
        let src = NodeId::new(4);
        let rep = Representation::Original(&g);
        for worklist in [false, true] {
            let plan = |direction| ExecutionPlan {
                direction,
                push: PushOptions {
                    worklist,
                    ..PushOptions::default()
                },
                ..ExecutionPlan::default()
            };
            let push = Sequential
                .run_monotone(
                    &rep,
                    MonotoneProgram::SSSP,
                    Some(src),
                    &plan(Direction::Push),
                )
                .unwrap();
            let pull = Sequential
                .run_monotone(
                    &rep,
                    MonotoneProgram::SSSP,
                    Some(src),
                    &plan(Direction::Pull),
                )
                .unwrap();
            assert!(push.converged && pull.converged);
            assert_eq!(push.values, pull.values, "worklist={worklist}");
        }
    }

    #[test]
    fn auto_matches_push_and_mixes_directions() {
        let g = fixture().without_weights();
        let src = NodeId::new(0);
        let rep = Representation::Original(&g);
        let sim = WarpSim::new(GpuConfig::default());
        let push = sim
            .run_monotone(
                &rep,
                MonotoneProgram::BFS,
                Some(src),
                &ExecutionPlan::default(),
            )
            .unwrap();
        let auto = sim
            .run_monotone(
                &rep,
                MonotoneProgram::BFS,
                Some(src),
                &ExecutionPlan {
                    direction: Direction::Auto,
                    ..ExecutionPlan::default()
                },
            )
            .unwrap();
        assert_eq!(push.values, auto.values);
        assert_eq!(auto.directions.len(), auto.report.num_iterations());
        assert!(
            auto.directions.contains(&Direction::Pull),
            "dense symmetric BA graph should engage pull: {:?}",
            auto.directions
        );
    }

    #[test]
    fn auto_over_virtual_overlay_matches() {
        let g = fixture();
        let src = NodeId::new(0);
        let expect = dijkstra(&g, src);
        let ov = VirtualGraph::coalesced(&g, 4);
        let rep = Representation::Virtual {
            graph: &g,
            overlay: &ov,
        };
        let out = WarpSim::new(GpuConfig::default())
            .run_monotone(
                &rep,
                MonotoneProgram::SSSP,
                Some(src),
                &ExecutionPlan {
                    direction: Direction::Auto,
                    push: PushOptions {
                        frontier: FrontierMode::Sparse,
                        ..PushOptions::default()
                    },
                    ..ExecutionPlan::default()
                },
            )
            .unwrap();
        assert!(out.converged);
        assert_eq!(out.values, expect);
    }

    #[test]
    fn sim_pull_plan_builds_its_own_transpose() {
        let g = fixture();
        let src = NodeId::new(2);
        let expect = dijkstra(&g, src);
        // The pull plan takes the *forward* representation and, given
        // no prepared pull side, transposes internally.
        let out = WarpSim::new(GpuConfig::default())
            .run_monotone(
                &Representation::Original(&g),
                MonotoneProgram::SSSP,
                Some(src),
                &ExecutionPlan {
                    direction: Direction::Pull,
                    ..ExecutionPlan::default()
                },
            )
            .unwrap();
        assert_eq!(out.values, expect);
        assert!(out.directions.iter().all(|&d| d == Direction::Pull));
    }

    #[test]
    fn cpu_pool_pull_and_auto_match_sequential_values() {
        let g = fixture();
        let src = NodeId::new(0);
        let rep = Representation::Original(&g);
        let reference = Sequential
            .run_monotone(
                &rep,
                MonotoneProgram::SSSP,
                Some(src),
                &ExecutionPlan::default(),
            )
            .unwrap();
        for direction in [Direction::Pull, Direction::Auto] {
            let out = CpuPool
                .run_monotone(
                    &rep,
                    MonotoneProgram::SSSP,
                    Some(src),
                    &ExecutionPlan {
                        direction,
                        ..ExecutionPlan::default()
                    },
                )
                .unwrap();
            assert_eq!(out.values, reference.values, "{direction:?}");
            assert!(out.converged && !out.cancelled, "{direction:?}");
            if direction == Direction::Pull {
                assert!(out.directions.iter().all(|&d| d == Direction::Pull));
            }
        }
    }
}
