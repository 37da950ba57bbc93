//! The metric tables, the run record and the result line.

use std::collections::BTreeMap;

use tigr_server::json::{obj, Json};

use crate::trace::Tracer;

/// End-to-end metrics (untraced runs): every workload reports each one.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("rss_peak_mb", "MiB"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("query_qps", "1/s"),
];

/// Per-layer metrics (traced runs). A workload that never calls a
/// metric's layer reports 0 for it and lists it under `not_exercised`
/// in the run record.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("graph.generate_ms", "ms"),
    ("graph.artifact_mb", "MiB"),
    ("graph.open_us", "us"),
    ("graph.mapped_mb", "MiB"),
    ("graph.heap_mb", "MiB"),
    ("core.prepare_ms", "ms"),
    ("core.prep_work_items", "count"),
    ("core.apply_us_p50", "us"),
    ("core.apply_us_p90", "us"),
    ("core.wal_bytes_per_op", "B"),
    ("core.compactions", "count"),
    ("core.compact_ms_p50", "ms"),
    ("core.delta_edges_mean", "count"),
    ("engine.solo_ms.sssp", "ms"),
    ("engine.solo_ms.bfs", "ms"),
    ("engine.solo_ms.sswp", "ms"),
    ("engine.solo_ms.khop", "ms"),
    ("engine.edges_touched.sssp", "count"),
    ("engine.edges_touched.bfs", "count"),
    ("engine.edges_touched.sswp", "count"),
    ("engine.edges_touched.khop", "count"),
    ("engine.iterations.sssp", "count"),
    ("engine.iterations.bfs", "count"),
    ("engine.iterations.sswp", "count"),
    ("engine.iterations.khop", "count"),
    ("engine.view_ms.sssp", "ms"),
    ("engine.view_ms.bfs", "ms"),
    ("engine.view_ms.sswp", "ms"),
    ("engine.view_ms.khop", "ms"),
    ("engine.cpu_ms.sssp", "ms"),
    ("engine.cpu_ms.bfs", "ms"),
    ("engine.cpu_ms.sswp", "ms"),
    ("engine.cpu_ms.khop", "ms"),
    ("engine.cpu_ms.cc", "ms"),
    ("engine.cpu_ms.pr", "ms"),
    ("engine.cpu_ms.tc", "ms"),
    ("engine.cpu_medges_per_s.sssp", "Medge/s"),
    ("engine.cpu_medges_per_s.bfs", "Medge/s"),
    ("engine.cpu_medges_per_s.sswp", "Medge/s"),
    ("engine.cpu_medges_per_s.khop", "Medge/s"),
    ("engine.cpu_1t_ms.sssp", "ms"),
    ("engine.cpu_1t_ms.pr", "ms"),
    ("engine.scaling_eff.sssp", "ratio"),
    ("engine.scaling_eff.pr", "ratio"),
    ("sim.run_ms.sssp", "ms"),
    ("sim.cycles.sssp", "count"),
    ("sim.warp_eff.sssp", "ratio"),
    ("sim.transactions.sssp", "count"),
    ("server.wall_us_p50", "us"),
    ("server.wall_us_p95", "us"),
    ("server.transport_us_p50", "us"),
    ("server.batch_occupancy", "count"),
    ("server.formation_wait_us", "us"),
    ("server.codec_us", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.cache_lookups", "count"),
    ("server.cache_evictions", "count"),
    ("client.mutate_p50_ms", "ms"),
    ("client.mutate_p90_ms", "ms"),
    ("client.mutate_batches", "count"),
    ("trace.overhead_pct", "%"),
    ("attr.client_residual_us", "us"),
    ("attr.engine_residual_us", "us"),
];

/// One correctness check.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was compared.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Counts or the first mismatch.
    pub detail: String,
}

/// Everything one run measured and checked.
#[derive(Debug)]
pub struct Report {
    /// Requests (or calls) attempted in the timed phase.
    pub attempted: u64,
    /// Of those, failed or refused.
    pub failed: u64,
    checks: Vec<Check>,
    metrics: BTreeMap<String, f64>,
    record: BTreeMap<String, Json>,
    /// Spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
            metrics: BTreeMap::new(),
            record: BTreeMap::new(),
            tracer: None,
        }
    }

    /// Sets a metric value.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// A metric set earlier in this run.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Adds a run-record entry (sample counts, ratio bases, ...).
    pub fn note(&mut self, key: impl Into<String>, value: impl Into<Json>) {
        self.record.insert(key.into(), value.into());
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        });
    }

    /// Whether every check held and at least one ran.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.ok)
    }

    /// The checks run so far.
    pub fn checks(&self) -> &[Check] {
        &self.checks
    }

    fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// Names of the reported table's metrics this workload did not set.
    pub fn missing(&self, trace: bool) -> Vec<&'static str> {
        Report::table(trace)
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !self.metrics.contains_key(*name))
            .collect()
    }

    /// The final stdout line: `correct`, `attempted`, `failed` and the
    /// table's metrics with units (unset per-layer metrics read 0).
    pub fn result_line(&self, trace: bool) -> Json {
        let metrics = Report::table(trace)
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(*name).copied().unwrap_or(0.0);
                (
                    (*name).to_string(),
                    obj([("value", value.into()), ("unit", (*unit).into())]),
                )
            })
            .collect();
        obj([
            ("correct", self.correct().into()),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The full run record: every metric set, the notes and the checks.
    pub fn record(&self, header: Json) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), Json::from(*v)))
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|c| {
                obj([
                    ("name", c.name.as_str().into()),
                    ("ok", c.ok.into()),
                    ("detail", c.detail.as_str().into()),
                ])
            })
            .collect();
        obj([
            ("run", header),
            ("attempted", self.attempted.into()),
            ("failed", self.failed.into()),
            ("correct", self.correct().into()),
            ("metrics", Json::Obj(metrics)),
            ("notes", Json::Obj(self.record.clone())),
            ("checks", Json::Arr(checks)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this program prints,
    /// with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let spec = tigr_server::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END));
        assert_eq!(listed("per_layer"), table(&PER_LAYER));
    }

    #[test]
    fn result_line_fills_unset_layer_metrics_and_needs_a_check() {
        let mut r = Report::new();
        assert!(!r.correct(), "no check ran");
        r.check("x", true, "");
        r.metric("graph.open_us", 12.5);
        let line = r.result_line(true);
        let metrics = line.get("metrics").unwrap();
        assert_eq!(
            metrics
                .get("graph.open_us")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(12.5)
        );
        assert_eq!(
            metrics
                .get("sim.cycles.sssp")
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(r.missing(true).len(), PER_LAYER.len() - 1);
    }
}
