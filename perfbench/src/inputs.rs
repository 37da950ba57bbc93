//! Seeded inputs: the graph spec, query streams and mutation batches.
//!
//! Everything a workload sends derives from the `--seed` argument
//! through [`derive`]; the program under test sees only the generated
//! requests. Mutation batches are built so that the final edge list
//! follows from the ops alone ([`final_graph`]): adds never duplicate a
//! visible edge, removes only take back this client's own live adds,
//! weight changes only touch base edges with a single occurrence, and
//! each client owns the source nodes `u ≡ client (mod clients)`, so
//! batches from different clients commute.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use tigr_core::{MutationOp, PrepareSpec};
use tigr_graph::{Csr, CsrBuilder, Edge, NodeId};
use tigr_server::{Algo, QueryRequest};

/// Generator tag of every workload's graph (Graph500 RMAT, 2^16 nodes,
/// 2^20 edges).
pub const GRAPH_TAG: &str = "rmat:16:16";
/// Edge weights are uniform in `[WEIGHT_LO, WEIGHT_HI]`.
pub const WEIGHT_LO: u32 = 1;
/// See [`WEIGHT_LO`].
pub const WEIGHT_HI: u32 = 64;
/// `k` of every `khop` query.
pub const KHOP_K: u32 = 3;
/// Every `MUTATE_EVERY`-th request of a mutating client is a batch.
pub const MUTATE_EVERY: usize = 8;
/// Ops per mutation batch.
pub const OPS_PER_BATCH: usize = 8;
/// Zipf exponent of the hot key ranks.
pub const ZIPF_S: f64 = 1.0;

/// The seeded serving graph: `tigr serve`'s default prepare (no split,
/// no overlay) of a weighted RMAT instance.
pub fn graph_spec(seed: u64) -> PrepareSpec {
    PrepareSpec::generated(GRAPH_TAG, seed).with_uniform_weights(
        WEIGHT_LO,
        WEIGHT_HI,
        derive(seed, "weights", 0),
    )
}

/// A sub-seed for one named input stream.
pub fn derive(seed: u64, label: &str, index: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut rng = Rng::new(seed ^ h ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    rng.next_u64()
}

/// SplitMix64: tiny, seedable and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One query: verb and source (`khop` carries [`KHOP_K`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryKey {
    /// Verb.
    pub algo: Algo,
    /// Source node.
    pub source: u32,
}

impl QueryKey {
    /// The verb's limit parameter.
    pub fn limit(self) -> Option<u32> {
        (self.algo == Algo::Khop).then_some(KHOP_K)
    }

    /// The wire request for this key against `graph`.
    pub fn request(self, graph: &str) -> QueryRequest {
        let q = QueryRequest::new(graph, self.algo, Some(self.source));
        match self.limit() {
            Some(k) => q.with_limit(k),
            None => q,
        }
    }
}

/// The serving mix: `sssp` 40%, `bfs` 20%, `sswp` 20%, `khop` 20%.
pub const MIX: [Algo; 5] = [Algo::Sssp, Algo::Sssp, Algo::Bfs, Algo::Sswp, Algo::Khop];

/// The verbs of [`MIX`], each once.
pub const MIX_VERBS: [Algo; 4] = [Algo::Sssp, Algo::Bfs, Algo::Sswp, Algo::Khop];

fn uniform_key(rng: &mut Rng, sources: &[u32]) -> QueryKey {
    QueryKey {
        algo: MIX[rng.below(MIX.len() as u64) as usize],
        source: sources[rng.below(sources.len() as u64) as usize],
    }
}

/// Query sources: every node with at least one out-edge. About 38% of
/// RMAT nodes are sinks, whose queries finish at once; drawing them too
/// would split latency into two modes and leave the median sitting
/// between them, moving with each run's share of sinks.
pub fn sources(base: &Csr) -> Arc<[u32]> {
    (0..base.num_nodes() as u32)
        .filter(|&u| base.out_degree(NodeId::new(u)) > 0)
        .collect()
}

/// `count` distinct mix keys over `sources`, in rank order.
pub fn hot_keys(seed: u64, sources: &[u32], count: usize) -> Vec<QueryKey> {
    let mut rng = Rng::new(derive(seed, "hot-keys", 0));
    let mut seen = HashSet::new();
    let mut keys = Vec::with_capacity(count);
    while keys.len() < count {
        let key = uniform_key(&mut rng, sources);
        if seen.insert(key) {
            keys.push(key);
        }
    }
    keys
}

/// Zipf-distributed ranks over `0..n`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Ranks `0..n` with weight `1 / (rank + 1)^s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Where a stream's query keys come from.
#[derive(Clone, Debug)]
pub enum KeySpace {
    /// Mix verbs with sources uniform over [`sources`].
    Uniform {
        /// Candidate sources.
        sources: Arc<[u32]>,
    },
    /// Zipf-weighted draws from a fixed hot key set.
    Hot {
        /// Keys in rank order.
        keys: Vec<QueryKey>,
        /// Rank distribution.
        zipf: Zipf,
    },
}

impl KeySpace {
    /// Mix keys with sources uniform over `base`'s non-sink nodes.
    pub fn uniform(base: &Csr) -> KeySpace {
        KeySpace::Uniform {
            sources: sources(base),
        }
    }

    /// Keys over a hot set (rank order).
    pub fn hot(keys: Vec<QueryKey>) -> KeySpace {
        let zipf = Zipf::new(keys.len(), ZIPF_S);
        KeySpace::Hot { keys, zipf }
    }
}

fn draw(rng: &mut Rng, keys: &KeySpace) -> QueryKey {
    match keys {
        KeySpace::Uniform { sources } => uniform_key(rng, sources),
        KeySpace::Hot { keys, zipf } => keys[zipf.sample(rng)],
    }
}

/// The first `n` query keys of `client`'s `label` stream: the keys a
/// [`Stream`] with the same arguments sends, between any batches.
pub fn first_keys(seed: u64, label: &str, client: u32, keys: &KeySpace, n: usize) -> Vec<QueryKey> {
    let mut rng = Rng::new(derive(seed, label, u64::from(client)));
    (0..n).map(|_| draw(&mut rng, keys)).collect()
}

/// One closed-loop request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// A query.
    Query(QueryKey),
    /// A mutation batch.
    Mutate(Vec<MutationOp>),
}

/// One client's seeded request stream.
#[derive(Debug)]
pub struct Stream {
    rng: Rng,
    keys: KeySpace,
    mutator: Option<Mutator>,
    step: usize,
}

impl Stream {
    /// A query-only stream.
    pub fn queries(seed: u64, label: &str, client: u32, keys: KeySpace) -> Stream {
        Stream {
            rng: Rng::new(derive(seed, label, u64::from(client))),
            keys,
            mutator: None,
            step: 0,
        }
    }

    /// A stream whose every [`MUTATE_EVERY`]-th request is a batch.
    pub fn mutating(
        seed: u64,
        label: &str,
        client: u32,
        keys: KeySpace,
        mutator: Mutator,
    ) -> Stream {
        Stream {
            mutator: Some(mutator),
            ..Stream::queries(seed, label, client, keys)
        }
    }

    /// The next request. `base` is the graph the stream was generated
    /// for (mutation batches consult its edges).
    pub fn next(&mut self, base: &Csr) -> Step {
        self.step += 1;
        if let Some(m) = self.mutator.as_mut() {
            if self.step.is_multiple_of(MUTATE_EVERY) {
                return Step::Mutate(m.next_batch(base));
            }
        }
        Step::Query(self.next_key())
    }

    fn next_key(&mut self) -> QueryKey {
        draw(&mut self.rng, &self.keys)
    }

    /// The mutation model, for deriving the final graph.
    pub fn mutator(&self) -> Option<&Mutator> {
        self.mutator.as_ref()
    }
}

/// One client's mutation generator and its model of what the batches
/// it sent did.
#[derive(Debug)]
pub struct Mutator {
    rng: Rng,
    client: u32,
    clients: u32,
    /// Base edges `(u, v)` of this client's sources that occur once.
    reweightable: Vec<(u32, u32)>,
    /// Live adds in insertion order, with their weights.
    live: Vec<(u32, u32, u32)>,
    live_set: HashSet<(u32, u32)>,
    /// Final weight of each reweighted base edge.
    weights: HashMap<(u32, u32), u32>,
    /// Every batch handed out, in order.
    sent: Vec<Vec<MutationOp>>,
}

impl Mutator {
    /// The generator for `client` of `clients` over `base`.
    pub fn new(seed: u64, client: u32, clients: u32, base: &Csr) -> Mutator {
        let mut reweightable = Vec::new();
        for u in (client..base.num_nodes() as u32).step_by(clients as usize) {
            let mut targets: Vec<u32> = base
                .neighbors(NodeId::new(u))
                .iter()
                .map(|v| v.raw())
                .collect();
            targets.sort_unstable();
            for (i, &v) in targets.iter().enumerate() {
                let repeated = (i > 0 && targets[i - 1] == v) || targets.get(i + 1) == Some(&v);
                if !repeated {
                    reweightable.push((u, v));
                }
            }
        }
        Mutator {
            rng: Rng::new(derive(seed, "mutate", u64::from(client))),
            client,
            clients,
            reweightable,
            live: Vec::new(),
            live_set: HashSet::new(),
            weights: HashMap::new(),
            sent: Vec::new(),
        }
    }

    fn weight(&mut self) -> u32 {
        WEIGHT_LO + self.rng.below(u64::from(WEIGHT_HI - WEIGHT_LO + 1)) as u32
    }

    /// The next batch of [`OPS_PER_BATCH`] ops, recorded as sent.
    pub fn next_batch(&mut self, base: &Csr) -> Vec<MutationOp> {
        let ops: Vec<MutationOp> = (0..OPS_PER_BATCH).map(|_| self.next_op(base)).collect();
        self.sent.push(ops.clone());
        ops
    }

    fn next_op(&mut self, base: &Csr) -> MutationOp {
        let choice = if self.live.is_empty() {
            0
        } else {
            self.rng.below(4)
        };
        match choice {
            2 => {
                let i = self.rng.below(self.live.len() as u64) as usize;
                let (u, v, _) = self.live.swap_remove(i);
                self.live_set.remove(&(u, v));
                MutationOp::RemoveEdge { u, v }
            }
            3 if !self.reweightable.is_empty() => {
                let i = self.rng.below(self.reweightable.len() as u64) as usize;
                let (u, v) = self.reweightable[i];
                let w = self.weight();
                self.weights.insert((u, v), w);
                MutationOp::SetWeight { u, v, w }
            }
            _ => self.add(base),
        }
    }

    fn add(&mut self, base: &Csr) -> MutationOp {
        let nodes = base.num_nodes() as u64;
        let owned = (nodes - u64::from(self.client)).div_ceil(u64::from(self.clients));
        loop {
            let u = self.client + self.clients * self.rng.below(owned) as u32;
            let v = self.rng.below(nodes) as u32;
            let in_base = base.neighbors(NodeId::new(u)).iter().any(|t| t.raw() == v);
            if u == v || in_base || self.live_set.contains(&(u, v)) {
                continue;
            }
            let w = self.weight();
            self.live.push((u, v, w));
            self.live_set.insert((u, v));
            return MutationOp::AddEdge { u, v, w };
        }
    }

    /// Every batch handed out so far.
    pub fn sent(&self) -> &[Vec<MutationOp>] {
        &self.sent
    }
}

/// The graph `base` becomes once every client's sent batches applied.
pub fn final_graph(base: &Csr, mutators: &[&Mutator]) -> Csr {
    let overrides: HashMap<(u32, u32), u32> = mutators
        .iter()
        .flat_map(|m| m.weights.iter().map(|(&k, &w)| (k, w)))
        .collect();
    let mut edges = Vec::with_capacity(base.num_edges());
    for u in 0..base.num_nodes() {
        let node = NodeId::from_index(u);
        for e in base.edge_start(node)..base.edge_end(node) {
            let v = base.edge_target(e);
            let w = overrides
                .get(&(node.raw(), v.raw()))
                .copied()
                .unwrap_or_else(|| base.weight(e));
            edges.push(Edge::new(node, v, w));
        }
    }
    for m in mutators {
        edges.extend(
            m.live
                .iter()
                .map(|&(u, v, w)| Edge::new(NodeId::new(u), NodeId::new(v), w)),
        );
    }
    let mut builder = CsrBuilder::from_edges(base.num_nodes(), edges);
    builder.force_weighted(true);
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tigr_graph::generators::{rmat, with_uniform_weights, RmatConfig};
    use tigr_server::{encode_request, Request};

    fn small_graph(seed: u64) -> Csr {
        let g = rmat(&RmatConfig::graph500(8, 8), seed);
        with_uniform_weights(&g, WEIGHT_LO, WEIGHT_HI, derive(seed, "weights", 0))
    }

    /// The wire bytes of the first `steps` requests of every stream
    /// shape a workload uses.
    fn wire(seed: u64, steps: usize) -> Vec<u8> {
        let base = small_graph(seed);
        let mut streams = vec![
            Stream::queries(seed, "cold", 0, KeySpace::uniform(&base)),
            Stream::queries(
                seed,
                "hot",
                1,
                KeySpace::hot(hot_keys(seed, &sources(&base), 48)),
            ),
        ];
        for client in 0..2 {
            let m = Mutator::new(seed, client, 2, &base);
            streams.push(Stream::mutating(
                seed,
                "mutate",
                client,
                KeySpace::uniform(&base),
                m,
            ));
        }
        let mut bytes = Vec::new();
        for s in &mut streams {
            for _ in 0..steps {
                let request = match s.next(&base) {
                    Step::Query(key) => Request::Query(key.request("g")),
                    Step::Mutate(ops) => Request::Mutate {
                        graph: "g".into(),
                        ops,
                    },
                };
                bytes.extend(encode_request(&request).bytes());
                bytes.push(b'\n');
            }
        }
        bytes
    }

    #[test]
    fn same_seed_gives_byte_identical_request_streams() {
        assert_eq!(wire(7, 400), wire(7, 400));
    }

    #[test]
    fn different_seeds_give_different_request_streams() {
        assert_ne!(wire(7, 400), wire(8, 400));
    }

    #[test]
    fn mix_and_batch_shape_hold() {
        let base = small_graph(3);
        let m = Mutator::new(3, 0, 2, &base);
        let mut s = Stream::mutating(3, "mutate", 0, KeySpace::uniform(&base), m);
        let mut sssp = 0;
        for i in 1..=800 {
            match s.next(&base) {
                Step::Mutate(ops) => {
                    assert_eq!(i % MUTATE_EVERY, 0);
                    assert_eq!(ops.len(), OPS_PER_BATCH);
                }
                Step::Query(k) => {
                    assert!(base.out_degree(NodeId::new(k.source)) > 0, "sink source");
                    sssp += usize::from(k.algo == Algo::Sssp);
                }
            }
        }
        assert_eq!(s.mutator().unwrap().sent().len(), 100);
        assert!((230..330).contains(&sssp), "sssp share off: {sssp}/700");
    }

    #[test]
    fn first_keys_are_the_keys_a_mutating_stream_sends() {
        let base = small_graph(4);
        let keys = KeySpace::uniform(&base);
        let mut s = Stream::mutating(4, "mutate", 1, keys.clone(), Mutator::new(4, 1, 2, &base));
        let sent: Vec<QueryKey> = (0..80)
            .filter_map(|_| match s.next(&base) {
                Step::Query(k) => Some(k),
                Step::Mutate(_) => None,
            })
            .collect();
        assert_eq!(sent, first_keys(4, "mutate", 1, &keys, sent.len()));
    }

    #[test]
    fn hot_keys_are_distinct_and_zipf_favours_low_ranks() {
        let keys = hot_keys(5, &(0..256).collect::<Vec<u32>>(), 64);
        assert_eq!(keys.iter().collect::<HashSet<_>>().len(), 64);
        let zipf = Zipf::new(64, ZIPF_S);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 64];
        for _ in 0..10_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10] && counts[63] > 0);
    }

    /// The modelled final graph equals applying the batches in order to
    /// the edge multiset, whichever client's batches land first.
    #[test]
    fn final_graph_matches_the_ops_in_any_client_order() {
        let base = small_graph(11);
        let mut a = Mutator::new(11, 0, 2, &base);
        let mut b = Mutator::new(11, 1, 2, &base);
        for _ in 0..40 {
            a.next_batch(&base);
            b.next_batch(&base);
        }
        let model = final_graph(&base, &[&a, &b]);
        for order in [[&a, &b], [&b, &a]] {
            let mut edges: Vec<(u32, u32, u32)> = base
                .edges()
                .map(|e| (e.src.raw(), e.dst.raw(), e.weight))
                .collect();
            for m in order {
                for op in m.sent().iter().flatten() {
                    match *op {
                        MutationOp::AddEdge { u, v, w } => edges.push((u, v, w)),
                        MutationOp::RemoveEdge { u, v } => {
                            let i = edges.iter().position(|e| (e.0, e.1) == (u, v)).unwrap();
                            edges.swap_remove(i);
                        }
                        MutationOp::SetWeight { u, v, w } => {
                            let hits: Vec<_> =
                                edges.iter_mut().filter(|e| (e.0, e.1) == (u, v)).collect();
                            assert_eq!(hits.len(), 1, "reweighted edge must be unique");
                            hits.into_iter().for_each(|e| e.2 = w);
                        }
                        MutationOp::AddNode { .. } => unreachable!("never generated"),
                    }
                }
            }
            edges.sort_unstable();
            let mut want: Vec<(u32, u32, u32)> = model
                .edges()
                .map(|e| (e.src.raw(), e.dst.raw(), e.weight))
                .collect();
            want.sort_unstable();
            assert_eq!(edges, want);
        }
    }
}
