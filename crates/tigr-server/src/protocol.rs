//! The wire protocol: line-delimited JSON requests and responses.
//!
//! Grammar (one JSON object per line, newline-terminated; the `algo`
//! alternatives and `code` list are asserted against
//! [`Algo::ALL`]/[`ErrorCode`] by `grammar_doc_matches_algo_table`, so a
//! new verb registered in the shared [`Algo`] table must update this
//! comment — and nothing else — to ship):
//!
//! ```text
//! request  = query | mutate | compact | stats | ping
//! query    = {"op":"query", "graph":<name>,
//!             "algo":"bfs"|"sssp"|"sswp"|"cc"|"pr"|"bc"|"khop"|"paths"|"lp"|"tc",
//!             "source":<u32>?, "limit":<u32>?, "deadline_ms":<u64>?,
//!             "cache":<bool>?, "values":<bool>?}
//! mutate   = {"op":"mutate", "graph":<name>, "ops":[mut-op, ...]}
//! mut-op   = {"kind":"add-edge", "u":<u32>, "v":<u32>, "w":<u32>?}
//!          | {"kind":"remove-edge", "u":<u32>, "v":<u32>}
//!          | {"kind":"add-node", "nodes":<u32>}
//!          | {"kind":"set-weight", "u":<u32>, "v":<u32>, "w":<u32>}
//! compact  = {"op":"compact", "graph":<name>}
//! stats    = {"op":"stats"}
//! ping     = {"op":"ping"}
//!
//! response   = ok-query | ok-mutate | ok-compact | ok-stats | pong | error
//! ok-query   = {"ok":true, "algo":..., "graph":..., "source":<u32>|null,
//!             "nodes":<u64>, "iterations":<u64>, "checksum":"<16 hex>",
//!             "cached":<bool>, "wall_us":<u64>, "values":[<u32>...]?}
//! ok-mutate  = {"ok":true, "mutated":true, "graph":..., "applied":<u64>,
//!             "skipped":<u64>, "wal_len":<u64>, "epoch":<u64>}
//! ok-compact = {"ok":true, "compacted":true, "graph":..., "wall_ms":<u64>,
//!             "delta_edges_before":<u64>, "delta_edges_after":<u64>,
//!             "epoch":<u64>}
//! error    = {"ok":false, "error":{"code":<code>, "message":<text>}}
//! code     = "queue-full" | "deadline-exceeded" | "bad-request"
//!          | "unknown-algo" | "unknown-graph" | "invalid-plan"
//!          | "immutable-graph" | "internal" | "shutdown"
//! ```
//!
//! `source` is required iff the algo takes one ([`Algo::needs_source`]);
//! `limit` is required iff the algo takes one ([`Algo::needs_limit`] —
//! `k` for `khop`, `radius` for `paths`, `rounds` for `lp`). An
//! `unknown-algo` error's message lists every known verb.
//!
//! A `mutate` batch is atomic: every op validates against the current
//! snapshot or none apply. `add-edge` defaults `w` to 1 (the only legal
//! weight on unweighted graphs); `add-node` carries the *target* node
//! count, not an increment; `set-weight` is weighted-graphs-only.
//! Graphs registered read-only (or physically transformed ones, whose
//! node ids were renumbered at prepare time) answer `immutable-graph`.
//!
//! All node values travel as `u32`; PageRank ranks and betweenness
//! scores are sent as the IEEE 754 bit patterns of their `f32` values
//! (`f32::to_bits`), so results compare byte-for-byte with a local run —
//! no float formatting drift. Bounded-path (`paths`) responses carry
//! `2n` values: distances followed by predecessors.

use std::fmt;

use crate::json::{obj, parse, Json};
use crate::stats::StatsSnapshot;

/// The shared algorithm table: the CLI, the server, and this protocol
/// all dispatch through [`tigr_engine::Algo`], so a verb is registered
/// in exactly one place.
pub use tigr_engine::Algo;

/// The shared mutation-op table: the wire protocol ships the same ops
/// the WAL persists, so a batch decodes straight into an applyable log.
pub use tigr_core::MutationOp;

/// A single algorithm query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryRequest {
    /// Registered graph name.
    pub graph: String,
    /// Analytic to run.
    pub algo: Algo,
    /// Source node (required iff [`Algo::needs_source`]).
    pub source: Option<u32>,
    /// Algo-specific bound (required iff [`Algo::needs_limit`]): `k`
    /// for k-hop, `radius` for bounded paths, `rounds` for label
    /// propagation.
    pub limit: Option<u32>,
    /// Per-request deadline; `None` uses the server default.
    pub deadline_ms: Option<u64>,
    /// Consult/populate the result cache (default `true`).
    pub cache: bool,
    /// Include the full value array in the response (default `false`;
    /// the checksum is always present).
    pub include_values: bool,
}

impl QueryRequest {
    /// A cacheable query with defaults: cache on, values omitted.
    pub fn new(graph: impl Into<String>, algo: Algo, source: Option<u32>) -> Self {
        QueryRequest {
            graph: graph.into(),
            algo,
            source,
            limit: None,
            deadline_ms: None,
            cache: true,
            include_values: false,
        }
    }

    /// Sets the algo-specific limit (builder style).
    pub fn with_limit(mut self, limit: u32) -> Self {
        self.limit = Some(limit);
        self
    }
}

/// A decoded client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Run an analytic.
    Query(QueryRequest),
    /// Apply a batch of mutations to a mutable graph (atomic: all ops
    /// validate against the current snapshot or none apply).
    Mutate {
        /// Registered graph name.
        graph: String,
        /// Mutation batch, applied in order.
        ops: Vec<MutationOp>,
    },
    /// Force a synchronous compaction of a mutable graph's delta
    /// overlay into a fresh base artifact.
    Compact {
        /// Registered graph name.
        graph: String,
    },
    /// Return a [`StatsSnapshot`].
    Stats,
    /// Liveness check.
    Ping,
}

/// Typed failure codes — every rejection a client can observe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The bounded admission queue is full (backpressure).
    QueueFull,
    /// The deadline expired before the run finished; any partial work
    /// was discarded and never cached.
    DeadlineExceeded,
    /// The request line failed to parse or validate.
    BadRequest,
    /// The requested algo verb is not in the [`Algo`] table; the error
    /// message lists every known verb.
    UnknownAlgo,
    /// No graph is registered under the requested name.
    UnknownGraph,
    /// The requested execution plan is invalid for this graph/program.
    InvalidPlan,
    /// The graph is registered read-only, or was physically transformed
    /// at prepare time (renumbered node ids), so mutations are refused.
    ImmutableGraph,
    /// The server failed internally (e.g. out of device memory).
    Internal,
    /// The server is shutting down; the query was not run.
    Shutdown,
}

impl ErrorCode {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::DeadlineExceeded => "deadline-exceeded",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownAlgo => "unknown-algo",
            ErrorCode::UnknownGraph => "unknown-graph",
            ErrorCode::InvalidPlan => "invalid-plan",
            ErrorCode::ImmutableGraph => "immutable-graph",
            ErrorCode::Internal => "internal",
            ErrorCode::Shutdown => "shutdown",
        }
    }

    /// Parses a wire label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "queue-full" => Some(ErrorCode::QueueFull),
            "deadline-exceeded" => Some(ErrorCode::DeadlineExceeded),
            "bad-request" => Some(ErrorCode::BadRequest),
            "unknown-algo" => Some(ErrorCode::UnknownAlgo),
            "unknown-graph" => Some(ErrorCode::UnknownGraph),
            "invalid-plan" => Some(ErrorCode::InvalidPlan),
            "immutable-graph" => Some(ErrorCode::ImmutableGraph),
            "internal" => Some(ErrorCode::Internal),
            "shutdown" => Some(ErrorCode::Shutdown),
            _ => None,
        }
    }
}

/// A typed protocol error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtocolError {
    /// Machine-readable failure class.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    /// Builds an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ProtocolError {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.label(), self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// A successful query result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryResult {
    /// Analytic that ran.
    pub algo: Algo,
    /// Graph it ran over.
    pub graph: String,
    /// Source node, when the analytic takes one.
    pub source: Option<u32>,
    /// Number of per-node values (original node count).
    pub nodes: u64,
    /// BSP iterations the run took (as reported by the producing run;
    /// cache hits replay the original count).
    pub iterations: u64,
    /// FNV-1a over the little-endian bytes of the value array.
    pub checksum: u64,
    /// Whether this response was served from the result cache.
    pub cached: bool,
    /// Server-side wall time for this request, microseconds.
    pub wall_us: u64,
    /// Full value array, when the request set `"values": true`.
    pub values: Option<Vec<u32>>,
}

/// A successful mutation batch: what the WAL durably holds afterwards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutateResult {
    /// Graph the batch applied to.
    pub graph: String,
    /// Ops that changed the visible graph.
    pub applied: u64,
    /// Ops skipped as no-ops (duplicate adds, absent removes); skips
    /// are still logged so replay stays faithful to the batch.
    pub skipped: u64,
    /// WAL records on disk after the batch (fsync'd before this reply).
    pub wal_len: u64,
    /// Overlay generation after the batch; queries pinned to earlier
    /// epochs keep their snapshot.
    pub epoch: u64,
}

/// A finished compaction: the delta overlay folded into a fresh base.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactResult {
    /// Graph that compacted.
    pub graph: String,
    /// Wall time of the compaction, milliseconds.
    pub wall_ms: u64,
    /// Delta edges in the overlay when the compaction pinned its input.
    pub delta_edges_before: u64,
    /// Delta edges left after the swap (mutations racing the
    /// compaction survive as the new overlay).
    pub delta_edges_after: u64,
    /// Overlay generation after the swap.
    pub epoch: u64,
}

/// A decoded server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Query succeeded.
    Query(QueryResult),
    /// Mutation batch applied (and durably logged).
    Mutate(MutateResult),
    /// Compaction finished.
    Compact(CompactResult),
    /// Stats snapshot (boxed: the snapshot is by far the widest
    /// payload, and every non-stats reply moves through channels).
    Stats(Box<StatsSnapshot>),
    /// Ping reply.
    Pong,
    /// Typed failure.
    Error(ProtocolError),
}

impl Response {
    /// Shorthand for an error response.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Self {
        Response::Error(ProtocolError::new(code, message))
    }
}

/// FNV-1a over the little-endian byte serialization of `values` — the
/// wire checksum clients compare against local runs.
pub fn checksum(values: &[u32]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

fn encode_op(op: &MutationOp) -> Json {
    match *op {
        MutationOp::AddEdge { u, v, w } => obj([
            ("kind", "add-edge".into()),
            ("u", u.into()),
            ("v", v.into()),
            ("w", w.into()),
        ]),
        MutationOp::RemoveEdge { u, v } => obj([
            ("kind", "remove-edge".into()),
            ("u", u.into()),
            ("v", v.into()),
        ]),
        MutationOp::AddNode { nodes } => {
            obj([("kind", "add-node".into()), ("nodes", nodes.into())])
        }
        MutationOp::SetWeight { u, v, w } => obj([
            ("kind", "set-weight".into()),
            ("u", u.into()),
            ("v", v.into()),
            ("w", w.into()),
        ]),
    }
}

fn decode_op(v: &Json) -> Result<MutationOp, ProtocolError> {
    let bad = |m: String| ProtocolError::new(ErrorCode::BadRequest, m);
    let field = |name: &str| -> Result<u32, ProtocolError> {
        v.get(name)
            .and_then(Json::as_u64)
            .filter(|&n| n <= u64::from(u32::MAX))
            .ok_or_else(|| bad(format!("mutation op needs u32 \"{name}\"")))
            .map(|n| n as u32)
    };
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("mutation op needs \"kind\"".into()))?;
    match kind {
        "add-edge" => Ok(MutationOp::AddEdge {
            u: field("u")?,
            v: field("v")?,
            w: match v.get("w") {
                None | Some(Json::Null) => 1,
                Some(_) => field("w")?,
            },
        }),
        "remove-edge" => Ok(MutationOp::RemoveEdge {
            u: field("u")?,
            v: field("v")?,
        }),
        "add-node" => Ok(MutationOp::AddNode {
            nodes: field("nodes")?,
        }),
        "set-weight" => Ok(MutationOp::SetWeight {
            u: field("u")?,
            v: field("v")?,
            w: field("w")?,
        }),
        other => Err(bad(format!(
            "unknown mutation kind {other:?}; known: add-edge, remove-edge, add-node, set-weight"
        ))),
    }
}

/// Encodes a request as one JSON line (no trailing newline).
pub fn encode_request(req: &Request) -> String {
    match req {
        Request::Ping => obj([("op", "ping".into())]).to_string(),
        Request::Stats => obj([("op", "stats".into())]).to_string(),
        Request::Mutate { graph, ops } => obj([
            ("op", "mutate".into()),
            ("graph", graph.as_str().into()),
            ("ops", Json::Arr(ops.iter().map(encode_op).collect())),
        ])
        .to_string(),
        Request::Compact { graph } => {
            obj([("op", "compact".into()), ("graph", graph.as_str().into())]).to_string()
        }
        Request::Query(q) => {
            let mut pairs = vec![
                ("op".to_owned(), Json::from("query")),
                ("graph".to_owned(), Json::from(q.graph.as_str())),
                ("algo".to_owned(), Json::from(q.algo.label())),
            ];
            if let Some(s) = q.source {
                pairs.push(("source".to_owned(), s.into()));
            }
            if let Some(l) = q.limit {
                pairs.push(("limit".to_owned(), l.into()));
            }
            if let Some(d) = q.deadline_ms {
                pairs.push(("deadline_ms".to_owned(), d.into()));
            }
            if !q.cache {
                pairs.push(("cache".to_owned(), false.into()));
            }
            if q.include_values {
                pairs.push(("values".to_owned(), true.into()));
            }
            Json::Obj(pairs.into_iter().collect()).to_string()
        }
    }
}

/// Decodes one request line. Malformed input comes back as a
/// [`ErrorCode::BadRequest`] `ProtocolError` the server echoes to the
/// client verbatim.
pub fn decode_request(line: &str) -> Result<Request, ProtocolError> {
    let bad = |m: &str| ProtocolError::new(ErrorCode::BadRequest, m);
    let v = parse(line.trim()).map_err(|e| bad(&format!("malformed JSON: {e}")))?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing \"op\""))?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "mutate" => {
            let graph = v
                .get("graph")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("mutate requires \"graph\""))?
                .to_owned();
            let items = v
                .get("ops")
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("mutate requires an \"ops\" array"))?;
            if items.is_empty() {
                return Err(bad("mutate requires at least one op"));
            }
            let ops = items.iter().map(decode_op).collect::<Result<_, _>>()?;
            Ok(Request::Mutate { graph, ops })
        }
        "compact" => {
            let graph = v
                .get("graph")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("compact requires \"graph\""))?
                .to_owned();
            Ok(Request::Compact { graph })
        }
        "query" => {
            let graph = v
                .get("graph")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("query requires \"graph\""))?
                .to_owned();
            let algo_label = v
                .get("algo")
                .and_then(Json::as_str)
                .ok_or_else(|| bad("query requires \"algo\""))?;
            let algo = Algo::parse(algo_label).ok_or_else(|| {
                ProtocolError::new(
                    ErrorCode::UnknownAlgo,
                    format!(
                        "unknown algo {algo_label:?}; known: {}",
                        Algo::known_labels()
                    ),
                )
            })?;
            let source = match v.get("source") {
                None | Some(Json::Null) => None,
                Some(s) => Some(
                    s.as_u64()
                        .filter(|&n| n <= u64::from(u32::MAX))
                        .ok_or_else(|| bad("\"source\" must be a u32"))? as u32,
                ),
            };
            if algo.needs_source() && source.is_none() {
                return Err(bad(&format!("{} requires \"source\"", algo.label())));
            }
            if !algo.needs_source() && source.is_some() {
                return Err(bad(&format!("{} takes no \"source\"", algo.label())));
            }
            let limit = match v.get("limit") {
                None | Some(Json::Null) => None,
                Some(l) => Some(
                    l.as_u64()
                        .filter(|&n| n <= u64::from(u32::MAX))
                        .ok_or_else(|| bad("\"limit\" must be a u32"))? as u32,
                ),
            };
            if algo.needs_limit() && limit.is_none() {
                return Err(bad(&format!(
                    "{} requires \"limit\" ({})",
                    algo.label(),
                    algo.limit_name().unwrap_or("limit"),
                )));
            }
            if !algo.needs_limit() && limit.is_some() {
                return Err(bad(&format!("{} takes no \"limit\"", algo.label())));
            }
            let deadline_ms = match v.get("deadline_ms") {
                None | Some(Json::Null) => None,
                Some(d) => Some(
                    d.as_u64()
                        .ok_or_else(|| bad("\"deadline_ms\" must be a u64"))?,
                ),
            };
            let cache = match v.get("cache") {
                None => true,
                Some(c) => c.as_bool().ok_or_else(|| bad("\"cache\" must be a bool"))?,
            };
            let include_values = match v.get("values") {
                None => false,
                Some(c) => c
                    .as_bool()
                    .ok_or_else(|| bad("\"values\" must be a bool"))?,
            };
            Ok(Request::Query(QueryRequest {
                graph,
                algo,
                source,
                limit,
                deadline_ms,
                cache,
                include_values,
            }))
        }
        other => Err(bad(&format!("unknown op {other:?}"))),
    }
}

/// Encodes a response as one JSON line (no trailing newline).
pub fn encode_response(resp: &Response) -> String {
    match resp {
        Response::Pong => obj([("ok", true.into()), ("pong", true.into())]).to_string(),
        Response::Stats(s) => obj([("ok", true.into()), ("stats", s.to_json())]).to_string(),
        Response::Mutate(m) => obj([
            ("ok", true.into()),
            ("mutated", true.into()),
            ("graph", m.graph.as_str().into()),
            ("applied", m.applied.into()),
            ("skipped", m.skipped.into()),
            ("wal_len", m.wal_len.into()),
            ("epoch", m.epoch.into()),
        ])
        .to_string(),
        Response::Compact(c) => obj([
            ("ok", true.into()),
            ("compacted", true.into()),
            ("graph", c.graph.as_str().into()),
            ("wall_ms", c.wall_ms.into()),
            ("delta_edges_before", c.delta_edges_before.into()),
            ("delta_edges_after", c.delta_edges_after.into()),
            ("epoch", c.epoch.into()),
        ])
        .to_string(),
        Response::Error(e) => obj([
            ("ok", false.into()),
            (
                "error",
                obj([
                    ("code", e.code.label().into()),
                    ("message", e.message.as_str().into()),
                ]),
            ),
        ])
        .to_string(),
        Response::Query(q) => {
            let mut pairs = vec![
                ("ok".to_owned(), Json::from(true)),
                ("algo".to_owned(), Json::from(q.algo.label())),
                ("graph".to_owned(), Json::from(q.graph.as_str())),
                ("source".to_owned(), q.source.map_or(Json::Null, Json::from)),
                ("nodes".to_owned(), Json::from(q.nodes)),
                ("iterations".to_owned(), Json::from(q.iterations)),
                (
                    "checksum".to_owned(),
                    Json::from(format!("{:016x}", q.checksum)),
                ),
                ("cached".to_owned(), Json::from(q.cached)),
                ("wall_us".to_owned(), Json::from(q.wall_us)),
            ];
            if let Some(values) = &q.values {
                pairs.push((
                    "values".to_owned(),
                    Json::Arr(values.iter().map(|&v| Json::from(v)).collect()),
                ));
            }
            Json::Obj(pairs.into_iter().collect()).to_string()
        }
    }
}

/// Decodes one response line (the client side of the wire).
pub fn decode_response(line: &str) -> Result<Response, ProtocolError> {
    let bad = |m: &str| ProtocolError::new(ErrorCode::BadRequest, m);
    let v = parse(line.trim()).map_err(|e| bad(&format!("malformed response: {e}")))?;
    let ok = v
        .get("ok")
        .and_then(Json::as_bool)
        .ok_or_else(|| bad("missing \"ok\""))?;
    if !ok {
        let e = v.get("error").ok_or_else(|| bad("missing \"error\""))?;
        let code = e
            .get("code")
            .and_then(Json::as_str)
            .and_then(ErrorCode::parse)
            .ok_or_else(|| bad("bad error code"))?;
        let message = e
            .get("message")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned();
        return Ok(Response::Error(ProtocolError { code, message }));
    }
    if v.get("pong").is_some() {
        return Ok(Response::Pong);
    }
    if v.get("mutated").is_some() {
        let graph = v
            .get("graph")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing \"graph\""))?
            .to_owned();
        let num = |name: &str| v.get(name).and_then(Json::as_u64).unwrap_or(0);
        return Ok(Response::Mutate(MutateResult {
            graph,
            applied: num("applied"),
            skipped: num("skipped"),
            wal_len: num("wal_len"),
            epoch: num("epoch"),
        }));
    }
    if v.get("compacted").is_some() {
        let graph = v
            .get("graph")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing \"graph\""))?
            .to_owned();
        let num = |name: &str| v.get(name).and_then(Json::as_u64).unwrap_or(0);
        return Ok(Response::Compact(CompactResult {
            graph,
            wall_ms: num("wall_ms"),
            delta_edges_before: num("delta_edges_before"),
            delta_edges_after: num("delta_edges_after"),
            epoch: num("epoch"),
        }));
    }
    if let Some(s) = v.get("stats") {
        return Ok(Response::Stats(Box::new(
            StatsSnapshot::from_json(s).ok_or_else(|| bad("bad stats payload"))?,
        )));
    }
    let algo = v
        .get("algo")
        .and_then(Json::as_str)
        .and_then(Algo::parse)
        .ok_or_else(|| bad("missing \"algo\""))?;
    let graph = v
        .get("graph")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing \"graph\""))?
        .to_owned();
    let source = match v.get("source") {
        None | Some(Json::Null) => None,
        Some(s) => Some(s.as_u64().ok_or_else(|| bad("bad \"source\""))? as u32),
    };
    let checksum_hex = v
        .get("checksum")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing \"checksum\""))?;
    let checksum = u64::from_str_radix(checksum_hex, 16).map_err(|_| bad("bad \"checksum\""))?;
    let values = match v.get("values") {
        None => None,
        Some(arr) => {
            let items = arr.as_arr().ok_or_else(|| bad("bad \"values\""))?;
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                out.push(
                    item.as_u64()
                        .filter(|&n| n <= u64::from(u32::MAX))
                        .ok_or_else(|| bad("bad value entry"))? as u32,
                );
            }
            Some(out)
        }
    };
    Ok(Response::Query(QueryResult {
        algo,
        graph,
        source,
        nodes: v.get("nodes").and_then(Json::as_u64).unwrap_or(0),
        iterations: v.get("iterations").and_then(Json::as_u64).unwrap_or(0),
        checksum,
        cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
        wall_us: v.get("wall_us").and_then(Json::as_u64).unwrap_or(0),
        values,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_round_trip() {
        let req = Request::Query(QueryRequest {
            graph: "road".into(),
            algo: Algo::Sssp,
            source: Some(17),
            limit: None,
            deadline_ms: Some(250),
            cache: false,
            include_values: true,
        });
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);

        // A limited verb round-trips its limit.
        let req = Request::Query(QueryRequest::new("road", Algo::Khop, Some(4)).with_limit(3));
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);

        let resp = Response::Query(QueryResult {
            algo: Algo::Sssp,
            graph: "road".into(),
            source: Some(17),
            nodes: 3,
            iterations: 4,
            checksum: checksum(&[0, 1, u32::MAX]),
            cached: false,
            wall_us: 1234,
            values: Some(vec![0, 1, u32::MAX]),
        });
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn stats_ping_and_error_round_trip() {
        for req in [Request::Stats, Request::Ping] {
            assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        }
        let resp = Response::error(ErrorCode::QueueFull, "admission queue at capacity (64)");
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        assert_eq!(
            decode_response(&encode_response(&Response::Pong)).unwrap(),
            Response::Pong
        );
    }

    #[test]
    fn source_rules_enforced() {
        // Missing source on a sourced analytic.
        let err = decode_request(r#"{"op":"query","graph":"g","algo":"bfs"}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        // Source on a global analytic.
        let err =
            decode_request(r#"{"op":"query","graph":"g","algo":"cc","source":3}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        // CC and PR without source are fine.
        assert!(decode_request(r#"{"op":"query","graph":"g","algo":"pr"}"#).is_ok());
    }

    #[test]
    fn limit_rules_enforced() {
        // Missing limit on a limited verb names the parameter.
        let err =
            decode_request(r#"{"op":"query","graph":"g","algo":"khop","source":0}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("(k)"), "{}", err.message);
        // Limit on an unlimited verb.
        let err = decode_request(r#"{"op":"query","graph":"g","algo":"bfs","source":0,"limit":3}"#)
            .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        // Non-u32 limit.
        let err =
            decode_request(r#"{"op":"query","graph":"g","algo":"lp","limit":-2}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        // Every limited verb decodes with one.
        for line in [
            r#"{"op":"query","graph":"g","algo":"khop","source":0,"limit":2}"#,
            r#"{"op":"query","graph":"g","algo":"paths","source":0,"limit":9}"#,
            r#"{"op":"query","graph":"g","algo":"lp","limit":5}"#,
        ] {
            assert!(decode_request(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn unknown_verbs_list_the_table() {
        let err = decode_request(r#"{"op":"query","graph":"g","algo":"warp"}"#).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownAlgo);
        for algo in Algo::ALL {
            assert!(
                err.message.contains(algo.label()),
                "unknown-algo message misses {:?}: {}",
                algo.label(),
                err.message
            );
        }
    }

    #[test]
    fn malformed_lines_are_bad_request() {
        // Nesting this deep would overflow the parser's stack if it
        // recursed all the way down.
        let deep = "[".repeat(300_000);
        for line in [
            "",
            "not json",
            "{}",
            r#"{"op":"nope"}"#,
            r#"{"op":"query","graph":"g","algo":"bfs","source":-1}"#,
            r#"{"op":"query","graph":"g","algo":"bfs","source":1.5}"#,
            &deep,
        ] {
            let err = decode_request(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
        }
    }

    /// The grammar doc comment at the top of this file is contract, not
    /// prose: its `"algo":` alternatives must be exactly [`Algo::ALL`]
    /// (in order) and its `code` list must cover every [`ErrorCode`].
    #[test]
    fn grammar_doc_matches_algo_table() {
        let doc: Vec<&str> = include_str!("protocol.rs")
            .lines()
            .take_while(|l| l.starts_with("//!"))
            .collect();

        let algo_line = doc
            .iter()
            .find(|l| l.contains(r#""algo":"#))
            .expect("grammar doc lost its \"algo\": line");
        let advertised: Vec<&str> = algo_line
            .split(r#""algo":"#)
            .nth(1)
            .unwrap()
            .trim_end_matches(',')
            .split('|')
            .map(|v| v.trim().trim_matches('"'))
            .collect();
        let table: Vec<&str> = Algo::ALL.iter().map(|a| a.label()).collect();
        assert_eq!(
            advertised, table,
            "protocol.rs grammar doc disagrees with the Algo table"
        );

        let code_region = doc.join("\n");
        for code in [
            ErrorCode::QueueFull,
            ErrorCode::DeadlineExceeded,
            ErrorCode::BadRequest,
            ErrorCode::UnknownAlgo,
            ErrorCode::UnknownGraph,
            ErrorCode::InvalidPlan,
            ErrorCode::ImmutableGraph,
            ErrorCode::Internal,
            ErrorCode::Shutdown,
        ] {
            assert!(
                code_region.contains(&format!("\"{}\"", code.label())),
                "grammar doc's code list misses {:?}",
                code.label()
            );
        }
    }

    #[test]
    fn mutate_and_compact_round_trip() {
        let req = Request::Mutate {
            graph: "road".into(),
            ops: vec![
                MutationOp::AddNode { nodes: 70 },
                MutationOp::AddEdge { u: 65, v: 0, w: 3 },
                MutationOp::RemoveEdge { u: 1, v: 2 },
                MutationOp::SetWeight { u: 0, v: 1, w: 9 },
            ],
        };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);
        let req = Request::Compact {
            graph: "road".into(),
        };
        assert_eq!(decode_request(&encode_request(&req)).unwrap(), req);

        let resp = Response::Mutate(MutateResult {
            graph: "road".into(),
            applied: 3,
            skipped: 1,
            wal_len: 12,
            epoch: 5,
        });
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        let resp = Response::Compact(CompactResult {
            graph: "road".into(),
            wall_ms: 42,
            delta_edges_before: 12,
            delta_edges_after: 0,
            epoch: 6,
        });
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn mutate_decode_rules() {
        // add-edge without a weight defaults to 1.
        let line = r#"{"op":"mutate","graph":"g","ops":[{"kind":"add-edge","u":0,"v":1}]}"#;
        match decode_request(line).unwrap() {
            Request::Mutate { ops, .. } => {
                assert_eq!(ops, vec![MutationOp::AddEdge { u: 0, v: 1, w: 1 }]);
            }
            other => panic!("{other:?}"),
        }
        // Empty batches, missing fields, and unknown kinds are rejected.
        for line in [
            r#"{"op":"mutate","graph":"g","ops":[]}"#,
            r#"{"op":"mutate","graph":"g"}"#,
            r#"{"op":"mutate","ops":[{"kind":"add-node","nodes":3}]}"#,
            r#"{"op":"mutate","graph":"g","ops":[{"kind":"add-edge","u":0}]}"#,
            r#"{"op":"mutate","graph":"g","ops":[{"kind":"grow","u":0,"v":1}]}"#,
            r#"{"op":"mutate","graph":"g","ops":[{"kind":"set-weight","u":0,"v":1}]}"#,
            r#"{"op":"compact"}"#,
        ] {
            let err = decode_request(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
        }
    }

    #[test]
    fn checksum_is_order_sensitive_fnv() {
        assert_ne!(checksum(&[1, 2]), checksum(&[2, 1]));
        assert_eq!(checksum(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
