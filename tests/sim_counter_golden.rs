//! Golden simulator counters: every WarpSim monotone run over a fixed
//! matrix of representations, directions, worklist/frontier/sync
//! settings and programs must reproduce the committed fixture line for
//! line — values, iteration count, per-iteration directions, edges
//! touched, total cycles, memory transactions, warp efficiency, every
//! per-launch counter, and the converged/cancelled flags (or the typed
//! plan error). The simulator is one host thread, so every counter is
//! deterministic.
//!
//! A mismatch means a driver change altered what the simulator
//! measures; the failure names the first differing cell.

use tigr::core::{CancelToken, OnTheFlyMapper};
use tigr::engine::{
    dobfs, pr, Backend, Direction, Engine, ExecutionPlan, FrontierMode, MonotoneOutput,
    MonotoneProgram, PushOptions, SyncMode, WarpSim,
};
use tigr::graph::generators::{rmat, with_uniform_weights, RmatConfig};
use tigr::graph::reverse::transpose;
use tigr::sim::{GpuConfig, SimReport};
use tigr::{udt_transform, Csr, CsrBuilder, DumbWeight, NodeId, Representation, VirtualGraph};

const FIXTURE: &str = include_str!("fixtures/sim_counters.txt");

/// FNV-1a over 64 bits.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn hash_u32s(values: &[u32]) -> u64 {
    let mut h = Fnv::new();
    for v in values {
        h.bytes(&v.to_le_bytes());
    }
    h.0
}

/// Hash of every launch: its thread count and every kernel counter.
fn hash_report(report: &SimReport) -> u64 {
    let mut h = Fnv::new();
    for it in &report.iterations {
        let m = &it.metrics;
        h.u64(it.iteration as u64);
        h.u64(it.threads as u64);
        for c in [
            m.cycles,
            m.instructions,
            m.issued_slots,
            m.mem_transactions,
            m.atomic_ops,
            m.warps,
        ] {
            h.u64(c);
        }
        h.u64(m.sm_cycles.len() as u64);
        for &c in &m.sm_cycles {
            h.u64(c);
        }
    }
    h.0
}

fn summary(report: &SimReport) -> String {
    format!(
        "iters={} cycles={} tx={} eff={:016x} report={:016x}",
        report.num_iterations(),
        report.total_cycles(),
        report.total().mem_transactions,
        report.warp_efficiency().to_bits(),
        hash_report(report),
    )
}

fn monotone_line(out: &MonotoneOutput) -> String {
    let dirs: String = out
        .directions
        .iter()
        .map(|d| match d {
            Direction::Push => 'S',
            Direction::Pull => 'G',
            Direction::Auto => 'A',
        })
        .collect();
    format!(
        "values={:016x} {} dirs={} edges={} conv={} canc={}",
        hash_u32s(&out.values),
        summary(&out.report),
        if dirs.is_empty() { "-" } else { &dirs },
        out.edges_touched,
        out.converged as u8,
        out.cancelled as u8,
    )
}

fn rmat_graph() -> Csr {
    with_uniform_weights(&rmat(&RmatConfig::graph500(7, 8), 41), 1, 32, 3)
}

fn star_graph() -> Csr {
    let mut b = CsrBuilder::new(65);
    b.symmetric(true);
    for leaf in 1..65u32 {
        b.weighted_edge(0, leaf, 1 + leaf % 7);
    }
    b.build()
}

/// The non-associative twin of SSSP: Theorem 3 refuses it a pull step
/// over any split view, so it exercises the plan errors and auto's
/// fall-back to push.
const SSSP_NON_ASSOCIATIVE: MonotoneProgram = MonotoneProgram {
    name: "sssp-na",
    associative: false,
    ..MonotoneProgram::SSSP
};

const PROGRAMS: [MonotoneProgram; 5] = [
    MonotoneProgram::BFS,
    MonotoneProgram::SSSP,
    MonotoneProgram::SSWP,
    MonotoneProgram::CC,
    SSSP_NON_ASSOCIATIVE,
];

fn dir_label(d: Direction) -> &'static str {
    match d {
        Direction::Push => "push",
        Direction::Pull => "pull",
        Direction::Auto => "auto",
    }
}

fn frontier_label(f: FrontierMode) -> &'static str {
    match f {
        FrontierMode::Dense => "dense",
        FrontierMode::Sparse => "sparse",
        FrontierMode::Auto => "auto",
    }
}

fn run_cell(
    backend: &WarpSim,
    rep: &Representation<'_>,
    prog: MonotoneProgram,
    plan: &ExecutionPlan,
) -> String {
    let source = prog.needs_source().then_some(NodeId::new(0));
    match backend.run_monotone(rep, prog, source, plan) {
        Ok(out) => monotone_line(&out),
        Err(e) => format!("err={e:?}"),
    }
}

fn actual_lines() -> Vec<String> {
    let backend = WarpSim::new(GpuConfig::default());
    let mut lines = Vec::new();
    for (gname, g) in [("rmat", rmat_graph()), ("star", star_graph())] {
        let plain = VirtualGraph::new(&g, 4);
        let coalesced = VirtualGraph::coalesced(&g, 4);
        let udt_zero = udt_transform(&g, 4, DumbWeight::Zero);
        let udt_inf = udt_transform(&g, 4, DumbWeight::Infinity);
        for prog in PROGRAMS {
            // Widest paths need infinite dumb weights (Corollary 3).
            let udt = if prog.name == "sswp" {
                &udt_inf
            } else {
                &udt_zero
            };
            let reps = [
                ("original", Representation::Original(&g)),
                (
                    "virtual",
                    Representation::Virtual {
                        graph: &g,
                        overlay: &plain,
                    },
                ),
                (
                    "virtual+",
                    Representation::Virtual {
                        graph: &g,
                        overlay: &coalesced,
                    },
                ),
                ("physical", Representation::Physical(udt)),
                (
                    "otf",
                    Representation::OnTheFly {
                        graph: &g,
                        mapper: OnTheFlyMapper::new(&g, 4),
                    },
                ),
            ];
            for (rname, rep) in &reps {
                for direction in Direction::ALL {
                    for worklist in [true, false] {
                        for frontier in [
                            FrontierMode::Dense,
                            FrontierMode::Sparse,
                            FrontierMode::Auto,
                        ] {
                            for sync in [SyncMode::Relaxed, SyncMode::Bsp] {
                                let plan = ExecutionPlan {
                                    direction,
                                    push: PushOptions {
                                        worklist,
                                        frontier,
                                        sync,
                                        ..PushOptions::default()
                                    },
                                    ..ExecutionPlan::default()
                                };
                                lines.push(format!(
                                    "{gname} {rname} {} {} wl={} fr={} sync={} -> {}",
                                    prog.name,
                                    dir_label(direction),
                                    worklist as u8,
                                    frontier_label(frontier),
                                    if sync == SyncMode::Bsp {
                                        "bsp"
                                    } else {
                                        "relaxed"
                                    },
                                    run_cell(&backend, rep, prog, &plan),
                                ));
                            }
                        }
                    }
                    // Degree-sorted frontiers, a two-iteration cap and a
                    // token cancelled before the first iteration.
                    let sorted = ExecutionPlan {
                        direction,
                        push: PushOptions {
                            frontier: FrontierMode::Sparse,
                            sort_frontier_by_degree: true,
                            ..PushOptions::default()
                        },
                        ..ExecutionPlan::default()
                    };
                    let capped = ExecutionPlan {
                        direction,
                        push: PushOptions {
                            max_iterations: 2,
                            ..PushOptions::default()
                        },
                        ..ExecutionPlan::default()
                    };
                    let cancel = CancelToken::new();
                    cancel.cancel();
                    let cancelled = ExecutionPlan {
                        direction,
                        cancel,
                        ..ExecutionPlan::default()
                    };
                    for (label, plan) in [
                        ("sorted", sorted),
                        ("cap2", capped),
                        ("cancelled", cancelled),
                    ] {
                        lines.push(format!(
                            "{gname} {rname} {} {} {label} -> {}",
                            prog.name,
                            dir_label(direction),
                            run_cell(&backend, rep, prog, &plan),
                        ));
                    }
                }
            }
        }

        // Direction-optimizing BFS over caller-supplied transposes.
        let rev = transpose(&g);
        let rev_plain = VirtualGraph::new(&rev, 4);
        let rev_coalesced = VirtualGraph::coalesced(&rev, 4);
        for (oname, overlays) in [
            ("none", None),
            ("virtual", Some((&plain, &rev_plain))),
            ("virtual+", Some((&coalesced, &rev_coalesced))),
        ] {
            for (alpha, beta) in [(14.0, 24.0), (0.0, 24.0), (1.0, 2.0)] {
                let out = dobfs::run(
                    backend.sim(),
                    &g,
                    &rev,
                    overlays,
                    NodeId::new(0),
                    &dobfs::DoBfsOptions { alpha, beta },
                );
                let dirs: String = out
                    .directions
                    .iter()
                    .map(|d| match d {
                        dobfs::Direction::TopDown => 'S',
                        dobfs::Direction::BottomUp => 'G',
                    })
                    .collect();
                lines.push(format!(
                    "{gname} dobfs {oname} alpha={alpha} beta={beta} -> values={:016x} {} dirs={dirs}",
                    hash_u32s(&out.levels),
                    summary(&out.report),
                ));
            }
        }

        // PageRank, push over the forward graph and pull over the
        // transpose, with and without a virtual overlay.
        let engine = Engine::new(GpuConfig::default());
        let degrees = pr::out_degrees(&g);
        for mode in [pr::PrMode::Push, pr::PrMode::Pull] {
            let base = if mode == pr::PrMode::Push { &g } else { &rev };
            let ov = VirtualGraph::coalesced(base, 4);
            for (rname, rep) in [
                ("original", Representation::Original(base)),
                (
                    "virtual+",
                    Representation::Virtual {
                        graph: base,
                        overlay: &ov,
                    },
                ),
            ] {
                let options = pr::PrOptions {
                    mode,
                    max_iterations: 20,
                    ..pr::PrOptions::default()
                };
                let out = engine.pagerank(&rep, &degrees, &options).unwrap();
                let bits: Vec<u32> = out.ranks.iter().map(|r| r.to_bits()).collect();
                lines.push(format!(
                    "{gname} pr {mode:?} {rname} -> values={:016x} {} conv={} canc={}",
                    hash_u32s(&bits),
                    summary(&out.report),
                    out.converged as u8,
                    out.cancelled as u8,
                ));
            }
        }
    }
    lines
}

#[test]
fn simulator_counters_match_the_golden_fixture() {
    let actual = actual_lines();
    let expected: Vec<&str> = FIXTURE.lines().collect();
    for (i, (got, want)) in actual.iter().zip(&expected).enumerate() {
        assert_eq!(
            got, want,
            "cell {i} differs from tests/fixtures/sim_counters.txt"
        );
    }
    assert_eq!(
        actual.len(),
        expected.len(),
        "cell count differs from tests/fixtures/sim_counters.txt"
    );
}
