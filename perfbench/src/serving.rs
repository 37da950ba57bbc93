//! The three served workloads: `query-cold`, `query-hot` and
//! `query-mutate`.
//!
//! Load comes from `nproc` closed-loop clients, one TCP connection each,
//! against `Server::bind_tcp` on loopback; the server runs
//! `ServerConfig::default()` except `workers = nproc` (and, on
//! `query-mutate`, a compaction threshold).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tigr_core::store::wal_dir_for;
use tigr_core::{GraphStore, MutableGraph, PreparedGraph};
use tigr_graph::Csr;
use tigr_server::json::Json;
use tigr_server::{
    checksum, decode_request, decode_response, encode_request, encode_response, Algo, Client,
    ClientError, ErrorCode, Request, Response, Server, ServerAddr, ServerConfig, ServerCore,
};

use crate::adapter::{run_view, Plan, Runner};
use crate::inputs::{
    final_graph, first_keys, graph_spec, hot_keys, KeySpace, Mutator, QueryKey, Step, Stream,
    MIX_VERBS,
};
use crate::report::Report;
use crate::stats::{median, quantile, tail, Ratio};
use crate::trace::Tracer;
use crate::{host, probes, SETUPS};

/// Registry name of the served graph.
const GRAPH: &str = "bench";
/// Delta entries at which `query-mutate` compacts in the background:
/// small enough that several compactions finish in a run.
const COMPACT_THRESHOLD: usize = 32;
/// Untimed queries per client before the timed phase.
const WARMUP_QUERIES: usize = 4;
/// Served results re-run through the sequential engine per run.
const VERIFY_SAMPLE: usize = 24;
/// Fixed sources checked after the final compaction.
const VERIFY_MUTATED: usize = 16;
/// Stream keys the engine probes of a traced run replay.
const PROBE_KEYS: usize = 64;
/// A traced run alternates untraced and traced slices of this length.
const SLICE: Duration = Duration::from_millis(100);
/// Messages and passes of the codec probe.
const CODEC_MSGS: usize = 64;
const CODEC_PASSES: usize = 50;

/// Which served workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Static graph, uniform sources: the engine does the work.
    Cold,
    /// Static graph, Zipf over a warmed hot set: per-request cost.
    Hot,
    /// Mutable graph, one request in eight a mutation batch.
    Mutate,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Cold => "query-cold",
            Kind::Hot => "query-hot",
            Kind::Mutate => "query-mutate",
        }
    }
}

/// A running server with its connected clients.
struct Setup {
    dir: PathBuf,
    store: GraphStore,
    core: Arc<ServerCore>,
    server: Option<Server>,
    clients: Vec<Client>,
    /// The graph as first prepared (for `query-mutate`, the base the
    /// mutation streams were generated against).
    base: Arc<PreparedGraph>,
    mutable: Option<Arc<MutableGraph>>,
    /// Where the timed streams draw their keys.
    keys: KeySpace,
    prepare_ms: f64,
    work_items: u32,
    artifact: Option<PathBuf>,
    secs: f64,
}

impl Setup {
    /// Generate, cold prepare with artifact write, register (mutable
    /// open on `query-mutate`), bind, connect and warm up.
    fn build(kind: Kind, seed: u64, dir: PathBuf, tracer: &mut Tracer) -> Result<Setup, String> {
        let started = Instant::now();
        let span = tracer.open("setup", 0);
        let store = GraphStore::new(Some(dir.join("cache")));
        let prepared = tracer.time("store.prepare", 0, span, || {
            store.prepare(&graph_spec(seed))
        });
        let prepared = prepared.map_err(|e| format!("prepare: {e}"))?;
        let prepare_ms = started.elapsed().as_secs_f64() * 1e3;
        let work_items = prepared.report().work_items();
        let artifact = prepared.report().artifact.clone();
        let nproc = host::nproc();
        let config = ServerConfig {
            workers: nproc,
            compact_threshold: if kind == Kind::Mutate {
                COMPACT_THRESHOLD
            } else {
                0
            },
            ..ServerConfig::default()
        };
        let core = ServerCore::new(config);
        let (base, mutable) = if kind == Kind::Mutate {
            let graph = tracer.time("mutable.open", 0, span, || {
                MutableGraph::open(store.clone(), prepared)
            });
            let graph = Arc::new(graph.map_err(|e| format!("mutable open: {e}"))?);
            core.add_mutable_graph(GRAPH, Arc::clone(&graph));
            (Arc::clone(graph.snapshot().base()), Some(graph))
        } else {
            let base = Arc::new(prepared);
            core.add_graph(GRAPH, Arc::clone(&base));
            (base, None)
        };
        let server = tracer.time("server.bind", 0, span, || {
            Server::bind_tcp(Arc::clone(&core), "127.0.0.1:0")
        });
        let server = server.map_err(|e| format!("bind: {e}"))?;
        let ServerAddr::Tcp(addr) = server.addr().clone() else {
            return Err("bound a non-TCP address".into());
        };
        let mut clients = Vec::with_capacity(nproc);
        for _ in 0..nproc {
            let client = tracer.time("client.connect", 0, span, || Client::connect_tcp(addr));
            clients.push(client.map_err(|e| format!("connect: {e}"))?);
        }
        let uniform = KeySpace::uniform(base.graph());
        let keys = match (&uniform, kind) {
            (KeySpace::Uniform { sources }, Kind::Hot) => {
                // About 3/4 of the default result cache, so every hot
                // key stays resident once warmed.
                KeySpace::hot(hot_keys(
                    seed,
                    sources,
                    ServerConfig::default().cache_capacity * 3 / 4,
                ))
            }
            _ => uniform.clone(),
        };
        let warm = tracer.open("warmup", 0);
        warm_up(seed, &core, &mut clients, &uniform, &keys)?;
        tracer.close(warm);
        tracer.close(span);
        Ok(Setup {
            dir,
            store,
            core,
            server: Some(server),
            clients,
            base,
            mutable,
            keys,
            prepare_ms,
            work_items,
            artifact,
            secs: started.elapsed().as_secs_f64(),
        })
    }

    fn teardown(mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        self.core.shutdown();
        drop(self.mutable.take());
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Sends [`WARMUP_QUERIES`] untimed queries on every connection and,
/// on `query-hot`, fills the result cache with the hot set through
/// in-process clients (the same admission path, without the sockets).
fn warm_up(
    seed: u64,
    core: &Arc<ServerCore>,
    clients: &mut [Client],
    uniform: &KeySpace,
    keys: &KeySpace,
) -> Result<(), String> {
    let hot: &[QueryKey] = match keys {
        KeySpace::Hot { keys, .. } => keys,
        KeySpace::Uniform { .. } => &[],
    };
    let lanes = clients.len();
    std::thread::scope(|scope| {
        let tcp = clients.iter_mut().enumerate().map(|(c, client)| {
            scope.spawn(move || {
                for key in first_keys(seed, "warmup", c as u32, uniform, WARMUP_QUERIES) {
                    client
                        .query(key.request(GRAPH))
                        .map_err(|e| format!("warm-up {key:?}: {e}"))?;
                }
                Ok(())
            })
        });
        let fill = (0..lanes).filter(|_| !hot.is_empty()).map(|lane| {
            let mut local = Client::local(Arc::clone(core));
            scope.spawn(move || {
                for key in hot.iter().skip(lane).step_by(lanes) {
                    local
                        .query(key.request(GRAPH))
                        .map_err(|e| format!("cache fill {key:?}: {e}"))?;
                }
                Ok(())
            })
        });
        let handles: Vec<_> = tcp.chain(fill).collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up thread panicked"))
    })
}

/// What one client saw in the timed phase.
struct Log {
    query_us: Vec<f64>,
    wall_us: Vec<f64>,
    traced: Vec<bool>,
    cached: u64,
    mutate_us: Vec<f64>,
    served: HashMap<QueryKey, u64>,
    inconsistent: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    delta: Vec<f64>,
    compact_ms: Vec<f64>,
    msgs: Vec<(Request, Response)>,
    tracer: Tracer,
    end: Instant,
}

/// Closed loop: send, wait for the reply, repeat until `deadline`.
#[allow(clippy::too_many_arguments)]
fn drive(
    c: usize,
    client: &mut Client,
    stream: &mut Stream,
    base: &Csr,
    mutable: Option<&MutableGraph>,
    start: Instant,
    deadline: Instant,
    trace: bool,
) -> Log {
    let mut log = Log {
        query_us: Vec::new(),
        wall_us: Vec::new(),
        traced: Vec::new(),
        cached: 0,
        mutate_us: Vec::new(),
        served: HashMap::new(),
        inconsistent: 0,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        delta: Vec::new(),
        compact_ms: Vec::new(),
        msgs: Vec::new(),
        tracer: Tracer::new(start, false),
        end: start,
    };
    let mut compactions_seen = mutable.map_or(0, MutableGraph::compactions);
    let mut i = 0u64;
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let traced = trace && (now - start).as_nanos() / SLICE.as_nanos() % 2 == 1;
        log.tracer.set_on(traced);
        let req = ((c as u64) << 40) | i;
        i += 1;
        let step = stream.next(base);
        log.attempted += 1;
        let t0 = Instant::now();
        match step {
            Step::Query(key) => {
                let request = key.request(GRAPH);
                let reply = client.query(request.clone());
                let t1 = Instant::now();
                log.tracer.record("client.query", req, None, t0, t1);
                match reply {
                    Ok(result) => {
                        log.query_us.push((t1 - t0).as_secs_f64() * 1e6);
                        log.wall_us.push(result.wall_us as f64);
                        log.traced.push(traced);
                        log.cached += u64::from(result.cached);
                        if mutable.is_none() {
                            let sum = *log.served.entry(key).or_insert(result.checksum);
                            log.inconsistent += u64::from(sum != result.checksum);
                        }
                        if log.msgs.len() < CODEC_MSGS {
                            log.msgs
                                .push((Request::Query(request), Response::Query(result)));
                        }
                    }
                    Err(e) => fail(&mut log, format!("{key:?}: {e}")),
                }
            }
            Step::Mutate(ops) => {
                let reply = client.mutate(GRAPH, ops);
                let t1 = Instant::now();
                log.tracer.record("client.mutate", req, None, t0, t1);
                match reply {
                    Ok(_) => log.mutate_us.push((t1 - t0).as_secs_f64() * 1e6),
                    Err(e) => fail(&mut log, format!("mutate: {e}")),
                }
                if let Some(m) = mutable {
                    log.delta.push(m.delta_edges() as f64);
                    let seen = m.compactions();
                    if c == 0 && seen > compactions_seen {
                        log.compact_ms.push(m.last_compaction_ms() as f64);
                        compactions_seen = seen;
                    }
                }
            }
        }
        log.end = Instant::now();
    }
    log
}

fn fail(log: &mut Log, error: String) {
    log.failed += 1;
    if log.errors.len() < 4 {
        log.errors.push(error);
    }
}

/// Runs one served workload.
pub fn run(kind: Kind, seed: u64, seconds: u64, trace: bool, tmp: &Path) -> Result<Report, String> {
    let mut report = Report::new();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, trace);
    let nproc = host::nproc();

    let mut setup_secs = Vec::new();
    let mut prepare_ms = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        if let Some(old) = kept.take() {
            Setup::teardown(old);
        }
        let s = Setup::build(kind, seed, tmp.join(format!("setup-{i}")), &mut tracer)?;
        setup_secs.push(s.secs);
        prepare_ms.push(s.prepare_ms);
        kept = Some(s);
    }
    let mut setup = kept.expect("at least one setup");
    report.metric("setup_s", median(&setup_secs).unwrap_or(0.0));
    report.note(
        "setup_s_samples",
        Json::Arr(setup_secs.iter().map(|&s| s.into()).collect()),
    );

    let label = kind.label();
    let mut streams: Vec<Stream> = (0..nproc as u32)
        .map(|c| match kind {
            Kind::Mutate => Stream::mutating(
                seed,
                label,
                c,
                setup.keys.clone(),
                Mutator::new(seed, c, nproc as u32, setup.base.graph()),
            ),
            _ => Stream::queries(seed, label, c, setup.keys.clone()),
        })
        .collect();

    let stats_before = Client::local(Arc::clone(&setup.core))
        .stats()
        .map_err(|e| e.to_string())?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let base = Arc::clone(&setup.base);
    let mutable = setup.mutable.clone();
    let logs: Vec<Log> = std::thread::scope(|scope| {
        let handles: Vec<_> = setup
            .clients
            .iter_mut()
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(c, (client, stream))| {
                let base = base.graph();
                let mutable = mutable.as_deref();
                scope.spawn(move || drive(c, client, stream, base, mutable, start, deadline, trace))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let stats_after = Client::local(Arc::clone(&setup.core))
        .stats()
        .map_err(|e| e.to_string())?;
    report.metric("rss_peak_mb", host::rss_peak_mb());
    let elapsed = logs.iter().map(|l| l.end).max().unwrap_or(deadline) - start;

    let query_us: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.query_us.iter().copied())
        .collect();
    let wall_us: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.wall_us.iter().copied())
        .collect();
    let mutate_us: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.mutate_us.iter().copied())
        .collect();
    report.attempted = logs.iter().map(|l| l.attempted).sum();
    report.failed = logs.iter().map(|l| l.failed).sum();
    let errors: Vec<Json> = logs
        .iter()
        .flat_map(|l| l.errors.iter().map(|e| e.as_str().into()))
        .collect();
    report.note("errors", Json::Arr(errors));
    report.note(
        "failed_ratio",
        Ratio::new(report.failed as f64, report.attempted as f64).to_json(),
    );
    report.check(
        "no request failed or was refused",
        report.failed == 0,
        format!("{} of {} failed", report.failed, report.attempted),
    );

    let completed = query_us.len() as f64;
    report.metric(
        "query_p50_ms",
        quantile(&query_us, 0.5).unwrap_or(0.0) / 1e3,
    );
    let query_tail = tail(&query_us, 95.0);
    report.metric("query_p95_ms", query_tail.map_or(0.0, |t| t.value / 1e3));
    report.note(
        "query_p95_us",
        query_tail.map_or(Json::Null, |t| t.to_json()),
    );
    report.metric("query_qps", completed / elapsed.as_secs_f64());
    report.note("queries_completed", completed);
    report.note("mutate_batches", mutate_us.len());
    report.note("elapsed_s", elapsed.as_secs_f64());
    report.note("clients", nproc);

    if kind != Kind::Mutate {
        let inconsistent: u64 = logs.iter().map(|l| l.inconsistent).sum();
        report.check(
            "repeated keys answer the same checksum",
            inconsistent == 0,
            format!("{inconsistent} disagreeing repeats"),
        );
        let served = logs
            .iter()
            .flat_map(|l| l.served.iter().map(|(k, v)| (*k, *v)))
            .collect();
        probes::verify_sample(
            &mut report,
            &setup.base,
            served,
            seed,
            VERIFY_SAMPLE,
            "served checksums",
        )?;
    }

    if trace {
        let mut traced_us = Vec::new();
        let mut plain_us = Vec::new();
        for l in &logs {
            for (us, t) in l.query_us.iter().zip(&l.traced) {
                if *t {
                    traced_us.push(*us)
                } else {
                    plain_us.push(*us)
                }
            }
        }
        probes::overhead(&mut report, &traced_us, &plain_us);
        layer_metrics(
            &mut report,
            &setup,
            &logs,
            &stats_before,
            &stats_after,
            &prepare_ms,
            &query_us,
            &wall_us,
            &mutate_us,
        );
        let probe_keys = first_keys(seed, label, 0, &setup.keys, PROBE_KEYS);
        let solo_us = probes::engine_solo(&mut report, &mut tracer, &setup.base, &probe_keys)?;
        let residual =
            quantile(&wall_us, 0.5).unwrap_or(0.0) - quantile(&solo_us, 0.5).unwrap_or(0.0);
        report.metric("attr.engine_residual_us", residual);
        report.note(
            "attr.engine_residual_base",
            "server.wall_us p50 minus engine.solo p50 over the probe keys",
        );
        codec_probe(&mut report, &mut tracer, &logs[0].msgs);
        probes::graph_layer(
            &mut report,
            &mut tracer,
            &setup.store,
            &graph_spec(seed),
            setup.artifact.as_deref(),
            seed,
        )?;
        if kind == Kind::Mutate {
            let mean_delta = logs
                .iter()
                .flat_map(|l| l.delta.iter().copied())
                .sum::<f64>()
                / logs.iter().map(|l| l.delta.len()).sum::<usize>().max(1) as f64;
            let mutators: Vec<&Mutator> = streams.iter().filter_map(Stream::mutator).collect();
            replay_probe(
                &mut report,
                &mut tracer,
                tmp,
                seed,
                &mutators,
                mean_delta,
                &probe_keys,
            )?;
        }
    }

    if let Some(m) = setup.mutable.clone() {
        report.metric("core.compactions", m.compactions() as f64);
        let mutators: Vec<&Mutator> = streams.iter().filter_map(Stream::mutator).collect();
        verify_mutated(&mut report, &mut setup, &m, &mutators, seed)?;
    }

    for l in logs {
        tracer.absorb(l.tracer);
    }
    report.tracer = trace.then_some(tracer);
    Setup::teardown(setup);
    Ok(report)
}

/// Quiesce, compact, and check fixed sources against a from-scratch
/// materialization of the edge list the sent batches imply.
fn verify_mutated(
    report: &mut Report,
    setup: &mut Setup,
    graph: &MutableGraph,
    mutators: &[&Mutator],
    seed: u64,
) -> Result<(), String> {
    let client = &mut setup.clients[0];
    let compacted = loop {
        match client.compact(GRAPH) {
            Ok(r) => break r,
            // A background compaction is still running: wait it out.
            Err(ClientError::Protocol(e))
                if e.code == ErrorCode::Internal && e.message.contains("in progress") =>
            {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(format!("final compact: {e}")),
        }
    };
    report.check(
        "final compaction folds the whole delta",
        compacted.delta_edges_after == 0 && graph.delta_edges() == 0,
        format!(
            "{} delta edges before, {} after",
            compacted.delta_edges_before, compacted.delta_edges_after
        ),
    );
    let expected = final_graph(setup.base.graph(), mutators);
    let snapshot = graph.snapshot();
    report.check(
        "served edge count equals the modelled edge list",
        snapshot.num_edges() == expected.num_edges(),
        format!(
            "served {} vs modelled {}",
            snapshot.num_edges(),
            expected.num_edges()
        ),
    );
    let reference = GraphStore::disabled()
        .materialize(expected, graph.plan())
        .map_err(|e| format!("materialize: {e}"))?;
    let runner = Runner::new(Plan::Sequential);
    let keys = first_keys(
        seed,
        "verify-mutated",
        0,
        &KeySpace::uniform(setup.base.graph()),
        VERIFY_MUTATED,
    );
    let mut mismatches = Vec::new();
    let mut checked = 0;
    for key in keys {
        let served = client
            .query(key.request(GRAPH))
            .map_err(|e| format!("verify {key:?}: {e}"))?;
        let want = runner.run(&reference, key.algo, Some(key.source), key.limit())?;
        checked += 1;
        if served.checksum != checksum(&want.values) {
            mismatches.push(format!("{key:?}"));
        }
    }
    report.check(
        "served answers after compaction equal a from-scratch materialization",
        checked > 0 && mismatches.is_empty(),
        format!("{checked} keys; mismatches {mismatches:?}"),
    );
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    report: &mut Report,
    setup: &Setup,
    logs: &[Log],
    before: &tigr_server::StatsSnapshot,
    after: &tigr_server::StatsSnapshot,
    prepare_ms: &[f64],
    query_us: &[f64],
    wall_us: &[f64],
    mutate_us: &[f64],
) {
    report.metric("core.prepare_ms", median(prepare_ms).unwrap_or(0.0));
    report.metric("core.prep_work_items", f64::from(setup.work_items));
    let wall_p50 = quantile(wall_us, 0.5).unwrap_or(0.0);
    report.metric("server.wall_us_p50", wall_p50);
    let wall_tail = tail(wall_us, 95.0);
    report.metric("server.wall_us_p95", wall_tail.map_or(0.0, |t| t.value));
    report.note(
        "server.wall_us_p95",
        wall_tail.map_or(Json::Null, |t| t.to_json()),
    );
    let transport: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.query_us.iter().zip(&l.wall_us).map(|(c, w)| c - w))
        .collect();
    let transport_p50 = quantile(&transport, 0.5).unwrap_or(0.0);
    report.metric("server.transport_us_p50", transport_p50);
    report.metric(
        "attr.client_residual_us",
        quantile(query_us, 0.5).unwrap_or(0.0) - transport_p50 - wall_p50,
    );
    report.note(
        "attr.client_residual_base",
        "client p50 minus (transport p50 + server.wall_us p50)",
    );
    let batches = after.batches - before.batches;
    let occupancy = Ratio::new(
        (after.batched_queries - before.batched_queries) as f64,
        batches as f64,
    );
    report.metric("server.batch_occupancy", occupancy.value());
    report.note("server.batch_occupancy", occupancy.to_json());
    let wait = Ratio::new(
        (after.formation_wait_us - before.formation_wait_us) as f64,
        batches as f64,
    );
    report.metric("server.formation_wait_us", wait.value());
    report.note("server.formation_wait_us", wait.to_json());
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let lookups = hits + (after.cache_misses - before.cache_misses) as f64;
    let hit_ratio = Ratio::new(hits, lookups);
    report.metric("server.cache_hit_ratio", hit_ratio.value());
    report.note("server.cache_hit_ratio", hit_ratio.to_json());
    report.metric("server.cache_lookups", lookups);
    report.metric(
        "server.cache_evictions",
        (after.cache_evictions - before.cache_evictions) as f64,
    );
    let client_hits: u64 = logs.iter().map(|l| l.cached).sum();
    report.note(
        "client.cached_replies",
        Ratio::new(client_hits as f64, query_us.len() as f64).to_json(),
    );
    if setup.mutable.is_some() {
        report.metric(
            "client.mutate_p50_ms",
            median(mutate_us).unwrap_or(0.0) / 1e3,
        );
        let p90 = tail(mutate_us, 90.0);
        report.metric("client.mutate_p90_ms", p90.map_or(0.0, |t| t.value / 1e3));
        report.note(
            "client.mutate_p90_us",
            p90.map_or(Json::Null, |t| t.to_json()),
        );
        report.metric("client.mutate_batches", mutate_us.len() as f64);
        let delta: Vec<f64> = logs.iter().flat_map(|l| l.delta.iter().copied()).collect();
        report.metric(
            "core.delta_edges_mean",
            delta.iter().sum::<f64>() / delta.len().max(1) as f64,
        );
        report.note("core.delta_edges_samples", delta.len());
        let compact_ms: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.compact_ms.iter().copied())
            .collect();
        report.metric("core.compact_ms_p50", median(&compact_ms).unwrap_or(0.0));
        report.note("core.compact_ms_samples", compact_ms.len());
    }
}

/// Times the four codec calls on the run's own messages.
fn codec_probe(report: &mut Report, tracer: &mut Tracer, msgs: &[(Request, Response)]) {
    if msgs.is_empty() {
        return;
    }
    let started = Instant::now();
    for _ in 0..CODEC_PASSES {
        let lines: Vec<String> = tracer.time("codec.encode_request", 0, None, || {
            msgs.iter().map(|(q, _)| encode_request(q)).collect()
        });
        tracer.time("codec.decode_request", 0, None, || {
            for l in &lines {
                std::hint::black_box(decode_request(l).expect("own request decodes"));
            }
        });
        let replies: Vec<String> = tracer.time("codec.encode_response", 0, None, || {
            msgs.iter().map(|(_, r)| encode_response(r)).collect()
        });
        tracer.time("codec.decode_response", 0, None, || {
            for l in &replies {
                std::hint::black_box(decode_response(l).expect("own response decodes"));
            }
        });
    }
    let per_msg = started.elapsed().as_secs_f64() * 1e6 / (CODEC_PASSES * msgs.len()) as f64;
    report.metric("server.codec_us", per_msg);
    report.note("server.codec_messages", msgs.len() * CODEC_PASSES);
}

/// Replays the run's batches through `MutableGraph::apply` on a fresh
/// graph, then probes the overlay view at the run's mean delta.
fn replay_probe(
    report: &mut Report,
    tracer: &mut Tracer,
    tmp: &Path,
    seed: u64,
    mutators: &[&Mutator],
    mean_delta: f64,
    probe_keys: &[QueryKey],
) -> Result<(), String> {
    let store = GraphStore::new(Some(tmp.join("replay")));
    let prepared = store
        .prepare(&graph_spec(seed))
        .map_err(|e| format!("replay prepare: {e}"))?;
    let artifact = prepared.report().artifact.clone();
    let graph = MutableGraph::open(store, prepared).map_err(|e| format!("replay open: {e}"))?;
    let rounds = mutators.iter().map(|m| m.sent().len()).max().unwrap_or(0);
    let mut apply_us = Vec::new();
    let mut ops = 0usize;
    let mut snapshot = None;
    for i in 0..rounds {
        for m in mutators {
            let Some(batch) = m.sent().get(i) else {
                continue;
            };
            let t0 = Instant::now();
            graph
                .apply(batch)
                .map_err(|e| format!("replay apply: {e}"))?;
            let t1 = Instant::now();
            tracer.record("mutable.apply", 0, None, t0, t1);
            apply_us.push((t1 - t0).as_secs_f64() * 1e6);
            ops += batch.len();
            if snapshot.is_none() && graph.delta_edges() as f64 >= mean_delta {
                snapshot = Some(graph.snapshot());
            }
        }
    }
    report.metric("core.apply_us_p50", median(&apply_us).unwrap_or(0.0));
    let p90 = tail(&apply_us, 90.0);
    report.metric("core.apply_us_p90", p90.map_or(0.0, |t| t.value));
    report.note("core.apply_us_p90", p90.map_or(Json::Null, |t| t.to_json()));
    if let Some(artifact) = artifact {
        let wal_bytes: u64 = std::fs::read_dir(wal_dir_for(&artifact))
            .map(|d| {
                d.flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        let per_op = Ratio::new(wal_bytes as f64, ops as f64);
        report.metric("core.wal_bytes_per_op", per_op.value());
        report.note("core.wal_bytes_per_op", per_op.to_json());
    }
    let snapshot = snapshot.unwrap_or_else(|| graph.snapshot());
    report.note("engine.view_delta_edges", snapshot.delta_edges());
    let Some(view) = snapshot.view() else {
        return Ok(());
    };
    let merged = snapshot.merged().map_err(|e| format!("merge: {e}"))?;
    let runner = Runner::new(Plan::Sequential);
    let mut per_verb: HashMap<Algo, Vec<f64>> = HashMap::new();
    let mut mismatches = 0;
    for (i, key) in probe_keys.iter().enumerate() {
        let t0 = Instant::now();
        let run = run_view(&view, key.algo, key.source, key.limit());
        let t1 = Instant::now();
        tracer.record(
            &format!("engine.view.{}", key.algo.label()),
            0,
            None,
            t0,
            t1,
        );
        per_verb
            .entry(key.algo)
            .or_default()
            .push((t1 - t0).as_secs_f64() * 1e3);
        if i < 4 {
            let want = runner.run(&merged, key.algo, Some(key.source), key.limit())?;
            mismatches += usize::from(want.values != run.values);
        }
    }
    for verb in MIX_VERBS {
        if let Some(ms) = per_verb.get(&verb) {
            report.metric(
                format!("engine.view_ms.{}", verb.label()),
                median(ms).unwrap_or(0.0),
            );
        }
    }
    report.check(
        "overlay view equals the merged snapshot",
        mismatches == 0,
        format!(
            "{mismatches} of {} probe keys differ",
            probe_keys.len().min(4)
        ),
    );
    Ok(())
}
