//! The benchmark's only calls into `tigr_engine`'s run entry points
//! (`Engine` and `run_monotone_view`). Keeping them here means a change
//! to those entry points ports one file.

use tigr_core::PreparedGraph;
use tigr_engine::operators::mask_above;
use tigr_engine::{run_monotone_view, Algo, BackendKind, CpuOptions, Direction, Engine, Pipeline};
use tigr_graph::view::GraphView;
use tigr_graph::NodeId;

/// Which executor a [`Runner`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Plan {
    /// The deterministic sequential reference (the server's plan).
    Sequential,
    /// The work-stealing CPU pool with `threads` workers, direction
    /// auto.
    CpuPool {
        /// Worker threads.
        threads: usize,
    },
    /// The warp simulator.
    WarpSim,
}

/// Simulator counters of one run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimCounts {
    /// Simulated cycles.
    pub cycles: u64,
    /// Memory transactions after coalescing.
    pub transactions: u64,
    /// Warp execution efficiency in `[0, 1]`.
    pub warp_eff: f64,
}

/// One analytic's output.
#[derive(Clone, Debug)]
pub struct Run {
    /// Per-node values (PR ranks as `f32` bits, `khop` masked at `k`).
    pub values: Vec<u32>,
    /// Iterations (sweeps) the run took.
    pub iterations: u64,
    /// Edge relaxations attempted (0 for PR and `tc`).
    pub edges_touched: u64,
    /// Simulator counters, on [`Plan::WarpSim`].
    pub sim: Option<SimCounts>,
}

/// An engine configured for one [`Plan`].
#[derive(Debug)]
pub struct Runner {
    engine: Engine,
    plan: Plan,
}

impl Runner {
    /// An engine for `plan` with no device-memory cap.
    pub fn new(plan: Plan) -> Runner {
        let engine = Engine::default().with_device_memory(u64::MAX);
        let engine = match plan {
            Plan::Sequential => engine.with_backend(BackendKind::Sequential),
            Plan::CpuPool { threads } => engine
                .with_backend(BackendKind::CpuPool)
                .with_direction(Direction::Auto)
                .with_cpu_options(CpuOptions {
                    threads,
                    ..CpuOptions::default()
                }),
            Plan::WarpSim => engine,
        };
        Runner { engine, plan }
    }

    /// Runs `algo` over `prepared` (monotone verbs through
    /// `run_prepared`, which reports edge counts; PR and `tc` through
    /// `run_prepared_pipeline`).
    pub fn run(
        &self,
        prepared: &PreparedGraph,
        algo: Algo,
        source: Option<u32>,
        limit: Option<u32>,
    ) -> Result<Run, String> {
        let pipeline = Pipeline::for_algo(algo, limit).map_err(|e| e.to_string())?;
        let source = source.map(NodeId::new);
        match pipeline.monotone_program() {
            Some(prog) => {
                let out = self
                    .engine
                    .run_prepared(prepared, prog, source)
                    .map_err(|e| e.to_string())?;
                let sim = (self.plan == Plan::WarpSim).then(|| SimCounts {
                    cycles: out.report.total_cycles(),
                    transactions: out.report.total().mem_transactions,
                    warp_eff: out.report.warp_efficiency(),
                });
                let mut values = out.values;
                if let Some(k) = limit {
                    mask_above(&mut values, k);
                }
                Ok(Run {
                    values,
                    iterations: out.directions.len() as u64,
                    edges_touched: out.edges_touched,
                    sim,
                })
            }
            None => {
                let out = self
                    .engine
                    .run_prepared_pipeline(prepared, &pipeline, source)
                    .map_err(|e| e.to_string())?;
                Ok(Run {
                    values: out.values,
                    iterations: out.iterations,
                    edges_touched: 0,
                    sim: None,
                })
            }
        }
    }
}

/// Runs a monotone verb over a base+delta view (the server's path for
/// dirty snapshots).
pub fn run_view(view: &dyn GraphView, algo: Algo, source: u32, limit: Option<u32>) -> Run {
    let prog = Pipeline::for_algo(algo, limit)
        .ok()
        .and_then(|p| p.monotone_program())
        .expect("view probes run monotone verbs only");
    let out = run_monotone_view(view, prog, Some(NodeId::new(source)));
    let mut values = out.values;
    if let Some(k) = limit {
        mask_above(&mut values, k);
    }
    Run {
        values,
        iterations: out.iterations,
        edges_touched: out.edges_relaxed,
        sim: None,
    }
}
