//! Per-layer probes shared by the workloads' traced runs.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use tigr_core::{CacheStatus, GraphStore, PrepareSpec, PreparedGraph};
use tigr_graph::generators::{rmat, with_uniform_weights, RmatConfig};
use tigr_server::checksum;
use tigr_server::json::Json;

use crate::adapter::{Plan, Runner};
use crate::inputs::{derive, QueryKey, Rng, WEIGHT_HI, WEIGHT_LO};
use crate::report::Report;
use crate::stats::{median, quantile};
use crate::trace::Tracer;

const MIB: f64 = 1024.0 * 1024.0;

/// `trace.overhead_pct`: traced-slice median latency over the
/// untraced-slice median of the same run.
pub fn overhead(report: &mut Report, traced: &[f64], plain: &[f64]) {
    if let (Some(t), Some(p)) = (quantile(traced, 0.5), quantile(plain, 0.5)) {
        report.metric("trace.overhead_pct", (t - p) / p * 100.0);
        report.note(
            "trace.overhead_samples",
            format!("{} traced, {} untraced", traced.len(), plain.len()),
        );
    }
}

/// Re-runs a seeded sample of `n` distinct keys from `results` (key,
/// checksum) through the sequential engine; every checksum must match.
pub fn verify_sample(
    report: &mut Report,
    prepared: &PreparedGraph,
    mut results: Vec<(QueryKey, u64)>,
    seed: u64,
    n: usize,
    what: &str,
) -> Result<(), String> {
    results.sort_by_key(|(k, _)| (k.algo.label(), k.source));
    results.dedup_by_key(|(k, _)| *k);
    let mut rng = Rng::new(derive(seed, "verify", 0));
    for i in (1..results.len()).rev() {
        results.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let sequential = Runner::new(Plan::Sequential);
    let sample = &results[..results.len().min(n)];
    let mut mismatches = Vec::new();
    for (key, sum) in sample {
        let want = sequential.run(prepared, key.algo, Some(key.source), key.limit())?;
        if checksum(&want.values) != *sum {
            mismatches.push(format!("{key:?}"));
        }
    }
    report.check(
        format!("{what} equal sequential engine runs"),
        !sample.is_empty() && mismatches.is_empty(),
        format!(
            "{} sampled of {} distinct keys; mismatches {mismatches:?}",
            sample.len(),
            results.len()
        ),
    );
    Ok(())
}

/// `engine.solo_ms/edges_touched/iterations.<verb>`: sequential runs of
/// the probe keys on the clean graph. Returns every run's time in µs.
pub fn engine_solo(
    report: &mut Report,
    tracer: &mut Tracer,
    prepared: &PreparedGraph,
    keys: &[QueryKey],
) -> Result<Vec<f64>, String> {
    let runner = Runner::new(Plan::Sequential);
    let mut per_verb: BTreeMap<&str, (Vec<f64>, u64, u64)> = BTreeMap::new();
    let mut all_us = Vec::with_capacity(keys.len());
    for key in keys {
        let t0 = Instant::now();
        let run = runner.run(prepared, key.algo, Some(key.source), key.limit())?;
        let t1 = Instant::now();
        let verb = key.algo.label();
        tracer.record(&format!("engine.solo.{verb}"), 0, None, t0, t1);
        let us = (t1 - t0).as_secs_f64() * 1e6;
        all_us.push(us);
        let entry = per_verb.entry(verb).or_default();
        entry.0.push(us / 1e3);
        entry.1 += run.edges_touched;
        entry.2 += run.iterations;
    }
    for (verb, (ms, edges, iterations)) in per_verb {
        report.metric(format!("engine.solo_ms.{verb}"), median(&ms).unwrap_or(0.0));
        report.metric(format!("engine.edges_touched.{verb}"), edges as f64);
        report.metric(format!("engine.iterations.{verb}"), iterations as f64);
        report.note(format!("engine.solo.{verb}.runs"), ms.len());
    }
    Ok(all_us)
}

/// `graph.*`: generator time, artifact size, and a warm reopen through
/// the store (which must be a zero-work hit).
pub fn graph_layer(
    report: &mut Report,
    tracer: &mut Tracer,
    store: &GraphStore,
    spec: &PrepareSpec,
    artifact: Option<&Path>,
    seed: u64,
) -> Result<(), String> {
    let t0 = Instant::now();
    let g = rmat(&RmatConfig::graph500(16, 16), seed);
    let g = with_uniform_weights(&g, WEIGHT_LO, WEIGHT_HI, derive(seed, "weights", 0));
    let t1 = Instant::now();
    tracer.record("graph.generate", 0, None, t0, t1);
    std::hint::black_box(&g);
    drop(g);
    report.metric("graph.generate_ms", (t1 - t0).as_secs_f64() * 1e3);
    if let Some(bytes) = artifact
        .and_then(|a| std::fs::metadata(a).ok())
        .map(|m| m.len())
    {
        report.metric("graph.artifact_mb", bytes as f64 / MIB);
    }
    let warm = tracer.time("store.prepare", 0, None, || store.prepare(spec));
    let warm = warm.map_err(|e| format!("warm reopen: {e}"))?;
    let hit = warm.report().cache == CacheStatus::Hit;
    report.check(
        "warm reopen is a zero-work cache hit",
        hit && warm.report().work_items() == 0,
        format!(
            "cache {}, {} work items",
            warm.report().cache.label(),
            warm.report().work_items()
        ),
    );
    let open = warm.open_info();
    report.metric("graph.open_us", open.open_us as f64);
    report.metric("graph.mapped_mb", open.mapped_bytes as f64 / MIB);
    report.metric("graph.heap_mb", open.heap_bytes as f64 / MIB);
    report.note(
        "graph.open_mode",
        Json::from(format!("{} / {:?}", open.mode.label(), open.verify)),
    );
    Ok(())
}
