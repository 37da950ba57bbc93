//! The wire codec under arbitrary input: no line a peer sends — raw
//! bytes decoded lossily as UTF-8, or a soup of JSON and protocol
//! tokens — can panic the JSON reader or the request/response decoders,
//! and every well-formed request and response decodes back to itself.

use proptest::collection::vec;
use proptest::prelude::*;
use tigr::server::json;
use tigr::server::{
    decode_request, decode_response, encode_request, encode_response, Algo, CompactResult,
    ErrorCode, MutateResult, MutationOp, ProtocolError, QueryRequest, QueryResult, Request,
    Response,
};

/// Fragments that steer random lines into the decoders' deeper paths:
/// structure, protocol keys and verbs, edge-case numbers and escapes.
const TOKENS: [&str; 48] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    " ",
    "\\",
    "\\u",
    "\\ud800",
    "\\udc00",
    "\"op\"",
    "\"query\"",
    "\"mutate\"",
    "\"compact\"",
    "\"stats\"",
    "\"ping\"",
    "\"ops\"",
    "\"kind\"",
    "\"add-edge\"",
    "\"add-node\"",
    "\"algo\"",
    "\"sssp\"",
    "\"khop\"",
    "\"source\"",
    "\"limit\"",
    "\"graph\"",
    "\"g\"",
    "\"ok\"",
    "\"error\"",
    "\"code\"",
    "\"checksum\"",
    "\"values\"",
    "\"pong\"",
    "\"mutated\"",
    "\"compacted\"",
    "\"deadline_ms\"",
    "true",
    "false",
    "null",
    "0",
    "-1",
    "1.5",
    "1e400",
    "4294967296",
    "9007199254740993",
    "\"ffff\"",
];

/// JSON numbers travel as `f64`: counters are exact up to 2^53.
const MAX_EXACT: u64 = 1 << 53;

const CODES: [ErrorCode; 9] = [
    ErrorCode::QueueFull,
    ErrorCode::DeadlineExceeded,
    ErrorCode::BadRequest,
    ErrorCode::UnknownAlgo,
    ErrorCode::UnknownGraph,
    ErrorCode::InvalidPlan,
    ErrorCode::ImmutableGraph,
    ErrorCode::Internal,
    ErrorCode::Shutdown,
];

fn lossy_line() -> impl Strategy<Value = String> {
    vec(any::<u8>(), 0..160).prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

fn token_soup() -> impl Strategy<Value = String> {
    vec(0..TOKENS.len(), 0..48).prop_map(|ix| ix.iter().map(|&i| TOKENS[i]).collect())
}

/// Any Unicode text, control characters and astral planes included.
fn text() -> impl Strategy<Value = String> {
    vec(0u32..0x11000, 0..12).prop_map(|cps| cps.into_iter().filter_map(char::from_u32).collect())
}

fn algo() -> impl Strategy<Value = Algo> {
    (0..Algo::ALL.len()).prop_map(|i| Algo::ALL[i])
}

fn option<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(some, v)| some.then_some(v))
}

fn mutation_op() -> impl Strategy<Value = MutationOp> {
    (0u8..4, any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(kind, u, v, w)| match kind {
        0 => MutationOp::AddEdge { u, v, w },
        1 => MutationOp::RemoveEdge { u, v },
        2 => MutationOp::AddNode { nodes: u },
        _ => MutationOp::SetWeight { u, v, w },
    })
}

fn query_request() -> impl Strategy<Value = QueryRequest> {
    (
        text(),
        algo(),
        (any::<u32>(), any::<u32>()),
        option(0..=MAX_EXACT),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(graph, algo, (source, limit), deadline_ms, cache, include_values)| QueryRequest {
                graph,
                algo,
                source: algo.needs_source().then_some(source),
                limit: algo.needs_limit().then_some(limit),
                deadline_ms,
                cache,
                include_values,
            },
        )
}

fn request() -> impl Strategy<Value = Request> {
    (0u8..5, query_request(), text(), vec(mutation_op(), 1..6)).prop_map(
        |(kind, query, graph, ops)| match kind {
            0 => Request::Query(query),
            1 => Request::Mutate { graph, ops },
            2 => Request::Compact { graph },
            3 => Request::Stats,
            _ => Request::Ping,
        },
    )
}

fn query_result() -> impl Strategy<Value = QueryResult> {
    (
        (algo(), text(), option(any::<u32>())),
        (0..=MAX_EXACT, 0..=MAX_EXACT, 0..=MAX_EXACT),
        any::<u64>(),
        any::<bool>(),
        option(vec(any::<u32>(), 0..12)),
    )
        .prop_map(
            |((algo, graph, source), (nodes, iterations, wall_us), checksum, cached, values)| {
                QueryResult {
                    algo,
                    graph,
                    source,
                    nodes,
                    iterations,
                    checksum,
                    cached,
                    wall_us,
                    values,
                }
            },
        )
}

/// Every response but `Stats`, whose snapshot has its own codec tests.
fn response() -> impl Strategy<Value = Response> {
    (
        0u8..5,
        query_result(),
        text(),
        (0..=MAX_EXACT, 0..=MAX_EXACT, 0..=MAX_EXACT, 0..=MAX_EXACT),
        0..CODES.len(),
    )
        .prop_map(|(kind, query, text, (a, b, c, d), code)| match kind {
            0 => Response::Query(query),
            1 => Response::Mutate(MutateResult {
                graph: text,
                applied: a,
                skipped: b,
                wal_len: c,
                epoch: d,
            }),
            2 => Response::Compact(CompactResult {
                graph: text,
                wall_ms: a,
                delta_edges_before: b,
                delta_edges_after: c,
                epoch: d,
            }),
            3 => Response::Pong,
            _ => Response::Error(ProtocolError::new(CODES[code], text)),
        })
}

/// Runs every decoder on `line`; reaching the end means none panicked.
fn decode_everything(line: &str) {
    let _ = json::parse(line);
    let _ = decode_request(line);
    let _ = decode_response(line);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(line in lossy_line()) {
        decode_everything(&line);
    }

    #[test]
    fn token_soup_never_panics_a_decoder(line in token_soup()) {
        decode_everything(&line);
    }

    #[test]
    fn requests_round_trip(req in request()) {
        let line = encode_request(&req);
        prop_assert!(!line.contains('\n'), "encoded request spans lines: {line:?}");
        prop_assert_eq!(decode_request(&line), Ok(req));
    }

    #[test]
    fn responses_round_trip(resp in response()) {
        let line = encode_response(&resp);
        prop_assert!(!line.contains('\n'), "encoded response spans lines: {line:?}");
        prop_assert_eq!(decode_response(&line), Ok(resp));
    }
}
