//! Differential proptest harness for batched multi-source execution,
//! with two equality regimes:
//!
//! - **Byte equality** for the sequential push batch: a K-lane
//!   [`BatchProgram`] run over a random graph must match K independent
//!   sequential single-source runs observable-for-observable — same
//!   value arrays, same iteration counts, same convergence flags, same
//!   `edges_touched`, same FNV-1a64 checksums.
//! - **Value equality** for every other cell of the execution matrix
//!   ({Sequential, CpuPool} × {push, pull, auto} × {node-chunk,
//!   edge-balanced, virtual} × thread counts): same fixpoint values,
//!   checksums, and convergence, while iteration and edge counts are
//!   schedule-dependent (merged frontiers, relaxed intra-sweep
//!   visibility). Parallel cells must also reproduce their values
//!   exactly on re-run through a warm arena.
//!
//! Duplicate sources inside one batch, the K=1 degenerate batch, arena
//! reuse across batches, and typed plan errors (virtual schedule
//! without a view, pull needing associativity) are all part of the
//! property set.

use proptest::collection::vec;
use proptest::prelude::*;

use tigr::engine::batch::{BatchArena, BatchLane, BatchOutput, BatchProgram};
use tigr::engine::{
    BackendKind, CpuOptions, CpuSchedule, Direction, EngineError, MonotoneOutput, PlanError,
    PushOptions, SyncMode,
};
use tigr::server::checksum;
use tigr::{Csr, CsrBuilder, Edge, Engine, MonotoneProgram, NodeId, Representation, VirtualGraph};

const PROGRAMS: [MonotoneProgram; 4] = [
    MonotoneProgram::BFS,
    MonotoneProgram::SSSP,
    MonotoneProgram::SSWP,
    MonotoneProgram::CC,
];

/// Strategy: an arbitrary weighted directed graph with up to `n` nodes
/// and `m` edges (self-loops, parallel edges, and unreachable islands
/// all included — the batch path must not care).
fn arb_graph(n: usize, m: usize) -> impl Strategy<Value = Csr> {
    (2..n).prop_flat_map(move |nodes| {
        vec((0..nodes as u32, 0..nodes as u32, 1..100u32), 0..m).prop_map(move |edges| {
            let mut b = CsrBuilder::new(nodes);
            for (s, d, w) in edges {
                b.add(Edge::new(NodeId::new(s), NodeId::new(d), w));
            }
            b.force_weighted(true);
            b.build()
        })
    })
}

/// Both visibility disciplines: relaxed in-place updates (the server's
/// plan) and BSP double buffering (the `lp` schedule).
const SYNCS: [SyncMode; 2] = [SyncMode::Relaxed, SyncMode::Bsp];

/// The single-source reference: the server's exact deterministic plan.
fn solo(g: &Csr, prog: MonotoneProgram, source: Option<NodeId>) -> MonotoneOutput {
    solo_with(g, prog, source, SyncMode::Relaxed)
}

/// The sequential single-source reference under `sync`.
fn solo_with(
    g: &Csr,
    prog: MonotoneProgram,
    source: Option<NodeId>,
    sync: SyncMode,
) -> MonotoneOutput {
    Engine::default()
        .with_backend(BackendKind::Sequential)
        .with_options(PushOptions {
            sync,
            ..PushOptions::default()
        })
        .run(&Representation::Original(g), prog, source)
        .unwrap()
}

/// One batched run through the engine facade with a caller-owned arena.
fn batched(
    g: &Csr,
    prog: MonotoneProgram,
    sources: &[Option<NodeId>],
    arena: &mut BatchArena,
) -> BatchOutput {
    batched_with(g, prog, sources, SyncMode::Relaxed, arena)
}

/// [`batched`] under `sync`.
fn batched_with(
    g: &Csr,
    prog: MonotoneProgram,
    sources: &[Option<NodeId>],
    sync: SyncMode,
    arena: &mut BatchArena,
) -> BatchOutput {
    let batch = BatchProgram {
        prog,
        lanes: sources.iter().map(|&s| BatchLane::new(s)).collect(),
    };
    Engine::default()
        .with_options(PushOptions {
            sync,
            ..PushOptions::default()
        })
        .run_batch(&Representation::Original(g), &batch, arena)
        .unwrap()
}

/// Full byte-equality: every observable of the lane matches the solo
/// run, including the serving checksum.
fn assert_byte_equal(lane: &MonotoneOutput, reference: &MonotoneOutput, label: &str) {
    assert_eq!(lane.values, reference.values, "{label}: values");
    assert_eq!(
        checksum(&lane.values),
        checksum(&reference.values),
        "{label}: checksum"
    );
    assert_eq!(
        lane.directions.len(),
        reference.directions.len(),
        "{label}: iterations"
    );
    assert_eq!(lane.converged, reference.converged, "{label}: converged");
    assert_eq!(lane.cancelled, reference.cancelled, "{label}: cancelled");
    assert_eq!(
        lane.edges_touched, reference.edges_touched,
        "{label}: edges_touched"
    );
}

/// Materializes lane sources for a program: source-free programs (CC)
/// get `None` lanes — deliberately duplicated, since identical lanes
/// are legal batch members.
fn lane_sources(prog: MonotoneProgram, picks: &[u32], nodes: u32) -> Vec<Option<NodeId>> {
    picks
        .iter()
        .map(|&p| prog.needs_source().then(|| NodeId::new(p % nodes)))
        .collect()
}

/// One batched run through a fully specified execution-plan cell of
/// the matrix: backend × direction × CPU schedule × thread count.
#[allow(clippy::too_many_arguments)]
fn batched_cell(
    g: &Csr,
    prog: MonotoneProgram,
    sources: &[Option<NodeId>],
    backend: BackendKind,
    direction: Direction,
    schedule: CpuSchedule,
    threads: usize,
    arena: &mut BatchArena,
) -> Result<BatchOutput, EngineError> {
    let batch = BatchProgram {
        prog,
        lanes: sources.iter().map(|&s| BatchLane::new(s)).collect(),
    };
    Engine::default()
        .with_backend(backend)
        .with_direction(direction)
        .with_cpu_options(CpuOptions {
            threads,
            schedule,
            ..CpuOptions::default()
        })
        .run_batch(&Representation::Original(g), &batch, arena)
}

/// Value-level equality: the lane reached the reference fixpoint with
/// the same convergence outcome. Iteration and edge counts are *not*
/// compared — merged frontiers and relaxed intra-sweep visibility make
/// them schedule-dependent (only the pure sequential push batch is
/// byte-equal; see [`assert_byte_equal`]).
fn assert_value_equal(lane: &MonotoneOutput, reference: &MonotoneOutput, label: &str) {
    assert_eq!(lane.values, reference.values, "{label}: values");
    assert_eq!(
        checksum(&lane.values),
        checksum(&reference.values),
        "{label}: checksum"
    );
    assert_eq!(lane.converged, reference.converged, "{label}: converged");
    assert_eq!(lane.cancelled, reference.cancelled, "{label}: cancelled");
}

const DIRECTIONS: [Direction; 3] = [Direction::Push, Direction::Pull, Direction::Auto];
const SCHEDULES: [CpuSchedule; 3] = [
    CpuSchedule::NodeChunk,
    CpuSchedule::EdgeBalanced,
    CpuSchedule::Virtual,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole property: random graph × algorithm × source
    /// multiset (duplicates included by construction — picks collide
    /// mod the node count) × visibility discipline, batched K-source
    /// run byte-equal to K independent sequential runs.
    #[test]
    fn batched_lanes_byte_equal_independent_sequential_runs(
        g in arb_graph(40, 200),
        algo in 0usize..4,
        picks in vec(0u32..10_000, 1..7),
        sync in 0usize..2,
    ) {
        let prog = PROGRAMS[algo];
        let sync = SYNCS[sync];
        let sources = lane_sources(prog, &picks, g.num_nodes() as u32);
        let mut arena = BatchArena::new();
        let out = batched_with(&g, prog, &sources, sync, &mut arena);
        prop_assert_eq!(out.lanes.len(), sources.len());
        for (i, (&source, lane)) in sources.iter().zip(&out.lanes).enumerate() {
            let reference = solo_with(&g, prog, source, sync);
            assert_byte_equal(lane, &reference, &format!("{} lane {i} src {source:?}", prog.name));
        }
        let widest = out.lanes.iter().map(|l| l.directions.len()).max().unwrap_or(0);
        prop_assert_eq!(out.sweeps, widest);
    }

    /// The K=1 degenerate batch is exactly the solo run — this is the
    /// path every non-batched server query takes through the arena.
    #[test]
    fn single_lane_batch_is_the_solo_run(
        g in arb_graph(40, 200),
        algo in 0usize..4,
        pick in 0u32..10_000,
        sync in 0usize..2,
    ) {
        let prog = PROGRAMS[algo];
        let sync = SYNCS[sync];
        let sources = lane_sources(prog, &[pick], g.num_nodes() as u32);
        let mut arena = BatchArena::new();
        let out = batched_with(&g, prog, &sources, sync, &mut arena);
        prop_assert_eq!(out.lanes.len(), 1);
        assert_byte_equal(&out.lanes[0], &solo_with(&g, prog, sources[0], sync), prog.name);
    }

    /// A batch made entirely of one duplicated source yields identical
    /// lanes, each byte-equal to the one solo run.
    #[test]
    fn duplicate_sources_share_nothing_but_the_answer(
        g in arb_graph(30, 120),
        algo in 0usize..4,
        pick in 0u32..10_000,
        k in 2usize..6,
    ) {
        let prog = PROGRAMS[algo];
        let sources = lane_sources(prog, &vec![pick; k], g.num_nodes() as u32);
        let mut arena = BatchArena::new();
        let out = batched(&g, prog, &sources, &mut arena);
        let reference = solo(&g, prog, sources[0]);
        for (i, lane) in out.lanes.iter().enumerate() {
            assert_byte_equal(lane, &reference, &format!("{} dup lane {i}", prog.name));
        }
    }

    /// Determinism: the same batch composition re-run through the same
    /// (now warm) arena, and through a fresh arena, produces
    /// byte-identical outputs — recycled lane storage leaks nothing.
    #[test]
    fn repeated_runs_and_arena_reuse_are_byte_identical(
        g in arb_graph(30, 120),
        algo in 0usize..4,
        picks in vec(0u32..10_000, 1..6),
    ) {
        let prog = PROGRAMS[algo];
        let sources = lane_sources(prog, &picks, g.num_nodes() as u32);
        let mut warm = BatchArena::new();
        // Dirty the arena with a different batch first: wider, other
        // sources, so reuse actually has stale state to clear.
        let dirty = lane_sources(prog, &[3, 1, 4, 1, 5, 9], g.num_nodes() as u32);
        batched(&g, prog, &dirty, &mut warm);
        let first = batched(&g, prog, &sources, &mut warm);
        let second = batched(&g, prog, &sources, &mut warm);
        let fresh = batched(&g, prog, &sources, &mut BatchArena::new());
        prop_assert_eq!(first.sweeps, second.sweeps);
        prop_assert_eq!(first.sweeps, fresh.sweeps);
        for i in 0..sources.len() {
            assert_byte_equal(&second.lanes[i], &first.lanes[i], "rerun/warm");
            assert_byte_equal(&fresh.lanes[i], &first.lanes[i], "rerun/fresh");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The execution matrix: {Sequential, CpuPool} × {push, pull,
    /// auto} × {node-chunk, edge-balanced, virtual} × random source
    /// vectors. Every cell must reach the sequential push reference
    /// fixpoint per lane (values, checksums, convergence); the
    /// parallel cells are additionally re-run through a warm arena and
    /// must reproduce their values exactly — determinism does not
    /// depend on thread count or retained state.
    #[test]
    fn execution_matrix_reaches_the_sequential_fixpoint(
        g in arb_graph(30, 120),
        algo in 0usize..4,
        picks in vec(0u32..10_000, 1..6),
        threads in 1usize..3,
    ) {
        let prog = PROGRAMS[algo];
        let sources = lane_sources(prog, &picks, g.num_nodes() as u32);
        let refs: Vec<MonotoneOutput> = sources.iter().map(|&s| solo(&g, prog, s)).collect();
        for direction in DIRECTIONS {
            // Sequential backend (schedule-independent): push and auto
            // take the lockstep batched sweep, pull runs lanes solo.
            let mut arena = BatchArena::new();
            let out = batched_cell(
                &g, prog, &sources,
                BackendKind::Sequential, direction, CpuSchedule::EdgeBalanced, 1,
                &mut arena,
            ).unwrap();
            for (i, reference) in refs.iter().enumerate() {
                let label = format!("sequential/{}/{direction:?} lane {i}", prog.name);
                assert_value_equal(&out.lanes[i], reference, &label);
            }
            for schedule in SCHEDULES {
                let mut arena = BatchArena::new();
                let out = batched_cell(
                    &g, prog, &sources,
                    BackendKind::CpuPool, direction, schedule, threads,
                    &mut arena,
                ).unwrap();
                let again = batched_cell(
                    &g, prog, &sources,
                    BackendKind::CpuPool, direction, schedule, threads,
                    &mut arena,
                ).unwrap();
                for (i, reference) in refs.iter().enumerate() {
                    let label = format!(
                        "cpupool/{}/{direction:?}/{schedule:?}/t{threads} lane {i}",
                        prog.name
                    );
                    assert_value_equal(&out.lanes[i], reference, &label);
                    prop_assert_eq!(
                        &out.lanes[i].values, &again.lanes[i].values,
                        "{} rerun determinism", label
                    );
                }
            }
        }
    }
}

/// Seed corpus: hand-picked compositions that exercise the merge
/// loop's edges — kept as focused tests so they run on every `cargo
/// test` regardless of the random sampler (see the companion
/// `.proptest-regressions` file).
mod seed_corpus {
    use super::*;

    fn path_graph(n: usize) -> Csr {
        let mut b = CsrBuilder::new(n);
        for i in 0..n - 1 {
            b.add(Edge::new(
                NodeId::new(i as u32),
                NodeId::new(i as u32 + 1),
                2,
            ));
        }
        b.force_weighted(true);
        b.build()
    }

    /// Lanes that converge at very different iteration counts: sources
    /// at both ends of a long path. The early-finishing lane must drop
    /// out without disturbing the long one.
    #[test]
    fn staggered_convergence_on_a_path() {
        let g = path_graph(64);
        let sources = [
            Some(NodeId::new(0)),
            Some(NodeId::new(62)),
            Some(NodeId::new(31)),
        ];
        let mut arena = BatchArena::new();
        let out = batched(&g, MonotoneProgram::SSSP, &sources, &mut arena);
        for (i, &s) in sources.iter().enumerate() {
            assert_byte_equal(
                &out.lanes[i],
                &solo(&g, MonotoneProgram::SSSP, s),
                &format!("path lane {i}"),
            );
        }
        assert_eq!(out.sweeps, out.lanes[0].directions.len());
    }

    /// An edgeless graph: every lane converges after one sweep; CC
    /// lanes keep their own-id labels.
    #[test]
    fn edgeless_graph_converges_immediately() {
        let g = CsrBuilder::new(5).build();
        let mut arena = BatchArena::new();
        let out = batched(&g, MonotoneProgram::CC, &[None, None], &mut arena);
        for lane in &out.lanes {
            assert_byte_equal(lane, &solo(&g, MonotoneProgram::CC, None), "edgeless cc");
            assert_eq!(lane.values, vec![0, 1, 2, 3, 4]);
        }
    }

    /// A source with no outgoing edges: the lane's frontier dies at
    /// iteration one, everyone else stays unreached.
    #[test]
    fn sink_source_lane_finishes_first() {
        let g = path_graph(8);
        let sources = [Some(NodeId::new(7)), Some(NodeId::new(0))];
        let mut arena = BatchArena::new();
        let out = batched(&g, MonotoneProgram::BFS, &sources, &mut arena);
        for (i, &s) in sources.iter().enumerate() {
            assert_byte_equal(
                &out.lanes[i],
                &solo(&g, MonotoneProgram::BFS, s),
                &format!("sink lane {i}"),
            );
        }
        assert!(out.lanes[0].values[..7].iter().all(|&v| v == u32::MAX));
    }

    /// Self-loops and parallel edges in one batch (the shrunk shape of
    /// an early random failure candidate: node 0 looping onto itself
    /// with duplicated weights).
    #[test]
    fn self_loops_and_parallel_edges() {
        let mut b = CsrBuilder::new(3);
        b.add(Edge::new(NodeId::new(0), NodeId::new(0), 1));
        b.add(Edge::new(NodeId::new(0), NodeId::new(1), 5));
        b.add(Edge::new(NodeId::new(0), NodeId::new(1), 3));
        b.add(Edge::new(NodeId::new(1), NodeId::new(2), 7));
        b.force_weighted(true);
        let g = b.build();
        let mut arena = BatchArena::new();
        for prog in PROGRAMS {
            let picks: &[u32] = if prog.needs_source() {
                &[0, 1, 2]
            } else {
                &[0]
            };
            let sources = lane_sources(prog, picks, 3);
            let out = batched(&g, prog, &sources, &mut arena);
            for (i, &s) in sources.iter().enumerate() {
                assert_byte_equal(
                    &out.lanes[i],
                    &solo(&g, prog, s),
                    &format!("{} loop lane {i}", prog.name),
                );
            }
        }
    }

    /// Widest supported mix: every node of a small clique as a source
    /// at once, plus duplicates beyond the node count.
    #[test]
    fn full_fanout_with_duplicates() {
        let mut b = CsrBuilder::new(6);
        for s in 0..6u32 {
            for d in 0..6u32 {
                if s != d {
                    b.add(Edge::new(NodeId::new(s), NodeId::new(d), 1 + (s + d) % 4));
                }
            }
        }
        b.force_weighted(true);
        let g = b.build();
        let sources: Vec<Option<NodeId>> = (0..8u32).map(|i| Some(NodeId::new(i % 6))).collect();
        let mut arena = BatchArena::new();
        let out = batched(&g, MonotoneProgram::SSWP, &sources, &mut arena);
        for (i, &s) in sources.iter().enumerate() {
            assert_byte_equal(
                &out.lanes[i],
                &solo(&g, MonotoneProgram::SSWP, s),
                &format!("clique lane {i}"),
            );
        }
    }

    /// An unplannable batch fails with the same typed error as a solo
    /// run, before any lane executes: a virtual chunking schedule with
    /// overlay construction disabled and no virtual view to chunk by.
    #[test]
    fn virtual_schedule_without_view_is_a_typed_error() {
        let g = path_graph(8);
        let batch = BatchProgram {
            prog: MonotoneProgram::BFS,
            lanes: vec![BatchLane::new(Some(NodeId::new(0)))],
        };
        let err = Engine::default()
            .with_backend(BackendKind::CpuPool)
            .with_cpu_options(CpuOptions {
                threads: 2,
                schedule: CpuSchedule::Virtual,
                virtual_k: 0,
            })
            .run_batch(
                &Representation::Original(&g),
                &batch,
                &mut BatchArena::new(),
            );
        assert!(
            matches!(
                err,
                Err(EngineError::InvalidPlan(
                    PlanError::VirtualScheduleWithoutView
                ))
            ),
            "{err:?}"
        );
    }

    /// Pull over a virtual split partitions a node's in-edge fold
    /// across threads; a non-associative combine must be refused with
    /// the Theorem 3 plan error, not silently computed wrong.
    #[test]
    fn pull_over_a_virtual_view_needs_associativity() {
        let g = path_graph(8);
        let overlay = VirtualGraph::new(&g, 2);
        let rep = Representation::Virtual {
            graph: &g,
            overlay: &overlay,
        };
        let prog = MonotoneProgram {
            associative: false,
            ..MonotoneProgram::SSSP
        };
        let batch = BatchProgram {
            prog,
            lanes: vec![BatchLane::new(Some(NodeId::new(0)))],
        };
        let err = Engine::default()
            .with_backend(BackendKind::CpuPool)
            .with_direction(Direction::Pull)
            .run_batch(&rep, &batch, &mut BatchArena::new());
        assert!(
            matches!(
                err,
                Err(EngineError::InvalidPlan(
                    PlanError::PullNeedsAssociativity { program: "sssp" }
                ))
            ),
            "{err:?}"
        );
    }
}
