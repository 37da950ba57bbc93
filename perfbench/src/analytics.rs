//! The `analytics` workload: the library path with no daemon.
//!
//! Setup prepares the weighted RMAT graph with a coalesced virtual
//! overlay (K = 8) and its transpose into an artifact cache, then
//! reopens the artifact mapped and lazily verified. The timed phase
//! runs the serving mix's single-source calls through `Engine` on the
//! CPU pool (`threads = nproc`, direction auto). The traced run adds
//! the whole-graph analytics (cc, pr, tc), one-thread scaling runs and
//! a WarpSim SSSP over the virtual view.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tigr_core::{CacheStatus, GraphStore, MmapMode, PrepareSpec, PreparedGraph};
use tigr_graph::io::VerifyMode;
use tigr_graph::NodeId;
use tigr_server::json::Json;
use tigr_server::{checksum, Algo};

use crate::adapter::{Plan, Run, Runner, SimCounts};
use crate::inputs::{first_keys, graph_spec, KeySpace, QueryKey, Step, Stream};
use crate::report::Report;
use crate::stats::{median, quantile, tail, Ratio};
use crate::trace::Tracer;
use crate::{host, probes, SETUPS};

/// Virtual-split degree bound (the paper's K for Table 8).
const K: u32 = 8;
/// Served results re-run through the sequential engine per run.
const VERIFY_SAMPLE: usize = 16;
/// Stream keys the traced run's engine probes replay.
const PROBE_KEYS: usize = 64;
/// Timed calls per whole-graph analytic in the traced run.
const CC_RUNS: usize = 3;
const PR_RUNS: usize = 3;
const TC_RUNS: usize = 2;
const SIM_RUNS: usize = 2;
/// One-thread PR runs for the scaling ratio.
const PR_1T_RUNS: usize = 2;
/// Largest absolute PR rank difference accepted between the CPU pool
/// and the sequential reference (summation order differs).
const PR_TOLERANCE: f32 = 1e-4;
/// A traced run alternates untraced and traced slices of this length.
const SLICE: Duration = Duration::from_millis(100);

fn spec(seed: u64) -> PrepareSpec {
    graph_spec(seed).with_virtual(K, true).with_transpose(true)
}

struct Setup {
    dir: PathBuf,
    store: GraphStore,
    prepared: PreparedGraph,
    prepare_ms: f64,
    work_items: u32,
    artifact: Option<PathBuf>,
    secs: f64,
}

impl Setup {
    /// Generate and cold prepare with artifact write, reopen mapped and
    /// lazy, warm the engine.
    fn build(
        seed: u64,
        dir: PathBuf,
        runner: &Runner,
        tracer: &mut Tracer,
    ) -> Result<Setup, String> {
        let started = Instant::now();
        let span = tracer.open("setup", 0);
        let cache = dir.join("cache");
        let cold = tracer.time("store.prepare", 0, span, || {
            GraphStore::new(Some(cache.clone())).prepare(&spec(seed))
        });
        let cold = cold.map_err(|e| format!("prepare: {e}"))?;
        let prepare_ms = started.elapsed().as_secs_f64() * 1e3;
        let work_items = cold.report().work_items();
        let artifact = cold.report().artifact.clone();
        drop(cold);
        let store = GraphStore::new(Some(cache))
            .with_mmap(MmapMode::On)
            .with_verify(VerifyMode::Lazy);
        let prepared = tracer.time("store.reopen", 0, span, || store.prepare(&spec(seed)));
        let prepared = prepared.map_err(|e| format!("mapped reopen: {e}"))?;
        if prepared.report().cache != CacheStatus::Hit || !prepared.is_mapped() {
            return Err(format!(
                "reopen was {} / {}, expected a mapped hit",
                prepared.report().cache.label(),
                prepared.open_info().mode.label()
            ));
        }
        for key in first_keys(seed, "warmup", 0, &KeySpace::uniform(prepared.graph()), 2) {
            runner.run(&prepared, key.algo, Some(key.source), key.limit())?;
        }
        tracer.close(span);
        Ok(Setup {
            dir,
            store,
            prepared,
            prepare_ms,
            work_items,
            artifact,
            secs: started.elapsed().as_secs_f64(),
        })
    }
}

impl Drop for Setup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Runs the analytics workload.
pub fn run(seed: u64, seconds: u64, trace: bool, tmp: &Path) -> Result<Report, String> {
    let mut report = Report::new();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, trace);
    let nproc = host::nproc();
    let pool = Runner::new(Plan::CpuPool { threads: nproc });

    let mut setup_secs = Vec::new();
    let mut prepare_ms = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        drop(kept.take());
        let s = Setup::build(seed, tmp.join(format!("setup-{i}")), &pool, &mut tracer)?;
        setup_secs.push(s.secs);
        prepare_ms.push(s.prepare_ms);
        kept = Some(s);
    }
    let setup = kept.expect("at least one setup");
    report.metric("setup_s", median(&setup_secs).unwrap_or(0.0));
    report.note(
        "setup_s_samples",
        Json::Arr(setup_secs.iter().map(|&s| s.into()).collect()),
    );
    let prepared = &setup.prepared;
    let keys = KeySpace::uniform(prepared.graph());

    // Timed phase: one caller, closed loop, CPU pool underneath.
    let mut stream = Stream::queries(seed, "analytics", 0, keys.clone());
    let mut lat_us = Vec::new();
    let mut traced_us = Vec::new();
    let mut plain_us = Vec::new();
    let mut per_verb: BTreeMap<&str, (Vec<f64>, u64)> = BTreeMap::new();
    let mut served: HashMap<QueryKey, u64> = HashMap::new();
    let mut inconsistent = 0u64;
    let mut errors = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let mut end = start;
    let mut req = 0u64;
    while Instant::now() < deadline {
        let traced = trace && (Instant::now() - start).as_nanos() / SLICE.as_nanos() % 2 == 1;
        tracer.set_on(traced);
        let Step::Query(key) = stream.next(prepared.graph()) else {
            continue;
        };
        report.attempted += 1;
        req += 1;
        let t0 = Instant::now();
        let run = pool.run(prepared, key.algo, Some(key.source), key.limit());
        let t1 = Instant::now();
        end = t1;
        let verb = key.algo.label();
        tracer.record(&format!("engine.cpu.{verb}"), req, None, t0, t1);
        match run {
            Ok(run) => {
                let us = (t1 - t0).as_secs_f64() * 1e6;
                lat_us.push(us);
                if traced {
                    traced_us.push(us)
                } else {
                    plain_us.push(us)
                }
                let entry = per_verb.entry(verb).or_default();
                entry.0.push(us);
                entry.1 += run.edges_touched;
                let sum = checksum(&run.values);
                inconsistent += u64::from(*served.entry(key).or_insert(sum) != sum);
            }
            Err(e) => {
                report.failed += 1;
                if errors.len() < 4 {
                    errors.push(Json::from(format!("{key:?}: {e}")));
                }
            }
        }
    }
    tracer.set_on(trace);
    report.metric("rss_peak_mb", host::rss_peak_mb());
    let elapsed = end - start;
    report.metric("query_p50_ms", quantile(&lat_us, 0.5).unwrap_or(0.0) / 1e3);
    let query_tail = tail(&lat_us, 95.0);
    report.metric("query_p95_ms", query_tail.map_or(0.0, |t| t.value / 1e3));
    report.note(
        "query_p95_us",
        query_tail.map_or(Json::Null, |t| t.to_json()),
    );
    report.metric("query_qps", lat_us.len() as f64 / elapsed.as_secs_f64());
    report.note("queries_completed", lat_us.len());
    report.note("elapsed_s", elapsed.as_secs_f64());
    report.note("threads", nproc);
    report.note("errors", Json::Arr(errors));
    report.note(
        "failed_ratio",
        Ratio::new(report.failed as f64, report.attempted as f64).to_json(),
    );
    report.check(
        "no call failed",
        report.failed == 0,
        format!("{} of {} failed", report.failed, report.attempted),
    );
    report.check(
        "repeated keys answer the same checksum",
        inconsistent == 0,
        format!("{inconsistent} disagreeing repeats"),
    );
    let results = served.into_iter().collect();
    probes::verify_sample(
        &mut report,
        prepared,
        results,
        seed,
        VERIFY_SAMPLE,
        "CPU-pool results",
    )?;

    if trace {
        probes::overhead(&mut report, &traced_us, &plain_us);
        report.metric("core.prepare_ms", median(&prepare_ms).unwrap_or(0.0));
        report.metric("core.prep_work_items", f64::from(setup.work_items));
        for (verb, (us, edges)) in &per_verb {
            report.metric(
                format!("engine.cpu_ms.{verb}"),
                median(us).unwrap_or(0.0) / 1e3,
            );
            let secs: f64 = us.iter().sum::<f64>() / 1e6;
            let rate = Ratio::new(*edges as f64 / 1e6, secs);
            report.metric(format!("engine.cpu_medges_per_s.{verb}"), rate.value());
            report.note(format!("engine.cpu_medges_per_s.{verb}"), rate.to_json());
        }
        let probe_keys = first_keys(seed, "analytics", 0, &keys, PROBE_KEYS);
        probes::engine_solo(&mut report, &mut tracer, prepared, &probe_keys)?;
        whole_graph(&mut report, &mut tracer, prepared, &pool)?;
        scaling(
            &mut report,
            &mut tracer,
            prepared,
            &pool,
            &probe_keys,
            nproc,
        )?;
        sim(&mut report, &mut tracer, prepared, &probe_keys)?;
        probes::graph_layer(
            &mut report,
            &mut tracer,
            &setup.store,
            &spec(seed),
            setup.artifact.as_deref(),
            seed,
        )?;
    }
    report.tracer = trace.then_some(tracer);
    Ok(report)
}

/// Times `runs` calls of `algo` and returns the median (ms) and the
/// last output.
fn timed(
    tracer: &mut Tracer,
    runner: &Runner,
    prepared: &PreparedGraph,
    algo: Algo,
    source: Option<u32>,
    runs: usize,
    span: &str,
) -> Result<(f64, Run), String> {
    let mut ms = Vec::with_capacity(runs);
    let mut last = None;
    for _ in 0..runs {
        let t0 = Instant::now();
        let run = runner.run(prepared, algo, source, None)?;
        let t1 = Instant::now();
        tracer.record(span, 0, None, t0, t1);
        ms.push((t1 - t0).as_secs_f64() * 1e3);
        last = Some(run);
    }
    Ok((median(&ms).unwrap_or(0.0), last.expect("runs > 0")))
}

/// cc, pr and tc on the CPU pool, each checked against the sequential
/// reference (cc and tc exactly, pr within [`PR_TOLERANCE`]).
fn whole_graph(
    report: &mut Report,
    tracer: &mut Tracer,
    prepared: &PreparedGraph,
    pool: &Runner,
) -> Result<(), String> {
    let sequential = Runner::new(Plan::Sequential);
    for (algo, runs) in [
        (Algo::Cc, CC_RUNS),
        (Algo::Pr, PR_RUNS),
        (Algo::Tc, TC_RUNS),
    ] {
        let verb = algo.label();
        let (ms, got) = timed(
            tracer,
            pool,
            prepared,
            algo,
            None,
            runs,
            &format!("engine.cpu.{verb}"),
        )?;
        report.metric(format!("engine.cpu_ms.{verb}"), ms);
        report.note(format!("engine.cpu_ms.{verb}.runs"), runs);
        let (_, want) = timed(
            tracer,
            &sequential,
            prepared,
            algo,
            None,
            1,
            &format!("engine.seq.{verb}"),
        )?;
        if algo == Algo::Pr {
            let worst = got
                .values
                .iter()
                .zip(&want.values)
                .map(|(a, b)| (f32::from_bits(*a) - f32::from_bits(*b)).abs())
                .fold(0.0f32, f32::max);
            report.check(
                "pr on the CPU pool agrees with the sequential reference",
                got.values.len() == want.values.len() && worst <= PR_TOLERANCE,
                format!("max |rank difference| {worst:e} (tolerance {PR_TOLERANCE:e})"),
            );
        } else {
            report.check(
                format!("{verb} on the CPU pool equals the sequential reference"),
                got.values == want.values,
                format!(
                    "checksums {:016x} vs {:016x}",
                    checksum(&got.values),
                    checksum(&want.values)
                ),
            );
        }
    }
    Ok(())
}

/// One-thread vs `nproc`-thread times for sssp and pr.
fn scaling(
    report: &mut Report,
    tracer: &mut Tracer,
    prepared: &PreparedGraph,
    pool: &Runner,
    keys: &[QueryKey],
    nproc: usize,
) -> Result<(), String> {
    let single = Runner::new(Plan::CpuPool { threads: 1 });
    let sssp: Vec<QueryKey> = keys
        .iter()
        .filter(|k| k.algo == Algo::Sssp)
        .copied()
        .collect();
    let mut t1 = Vec::new();
    let mut tn = Vec::new();
    for key in &sssp {
        t1.push(
            timed(
                tracer,
                &single,
                prepared,
                Algo::Sssp,
                Some(key.source),
                1,
                "engine.cpu_1t.sssp",
            )?
            .0,
        );
        tn.push(
            timed(
                tracer,
                pool,
                prepared,
                Algo::Sssp,
                Some(key.source),
                1,
                "engine.cpu.sssp",
            )?
            .0,
        );
    }
    let (pr_1t, _) = timed(
        tracer,
        &single,
        prepared,
        Algo::Pr,
        None,
        PR_1T_RUNS,
        "engine.cpu_1t.pr",
    )?;
    let pr_n = report.value("engine.cpu_ms.pr").unwrap_or(0.0);
    for (verb, one, many) in [
        (
            "sssp",
            median(&t1).unwrap_or(0.0),
            median(&tn).unwrap_or(0.0),
        ),
        ("pr", pr_1t, pr_n),
    ] {
        report.metric(format!("engine.cpu_1t_ms.{verb}"), one);
        let eff = Ratio::new(one, nproc as f64 * many);
        report.metric(format!("engine.scaling_eff.{verb}"), eff.value());
        report.note(format!("engine.scaling_eff.{verb}"), eff.to_json());
    }
    report.note("engine.cpu_1t_ms.sssp.runs", t1.len());
    Ok(())
}

/// WarpSim SSSP over the virtual view: counts must repeat exactly and
/// values must equal the sequential run.
fn sim(
    report: &mut Report,
    tracer: &mut Tracer,
    prepared: &PreparedGraph,
    keys: &[QueryKey],
) -> Result<(), String> {
    // The first probe source with out-edges: a sink would simulate an
    // empty launch.
    let source = keys
        .iter()
        .find(|k| k.algo == Algo::Sssp && prepared.graph().out_degree(NodeId::new(k.source)) > 0)
        .map_or(0, |k| k.source);
    let warp = Runner::new(Plan::WarpSim);
    let mut ms = Vec::new();
    let mut counts: Vec<SimCounts> = Vec::new();
    let mut values = Vec::new();
    for _ in 0..SIM_RUNS {
        let t0 = Instant::now();
        let run = warp.run(prepared, Algo::Sssp, Some(source), None)?;
        let t1 = Instant::now();
        tracer.record("sim.run", 0, None, t0, t1);
        ms.push((t1 - t0).as_secs_f64() * 1e3);
        counts.push(run.sim.ok_or("WarpSim run without counters")?);
        values.push(run.values);
    }
    let first = counts[0];
    report.metric("sim.run_ms.sssp", median(&ms).unwrap_or(0.0));
    report.metric("sim.cycles.sssp", first.cycles as f64);
    report.metric("sim.warp_eff.sssp", first.warp_eff);
    report.metric("sim.transactions.sssp", first.transactions as f64);
    report.note("sim.source", source);
    report.check(
        "sim counts repeat exactly",
        counts.iter().all(|c| *c == first),
        format!("{counts:?}"),
    );
    let want = Runner::new(Plan::Sequential).run(prepared, Algo::Sssp, Some(source), None)?;
    report.check(
        "sim sssp values equal the sequential reference",
        values.iter().all(|v| *v == want.values),
        format!("source {source}"),
    );
    Ok(())
}
