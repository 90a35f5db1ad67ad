//! Per-layer measurement, taken from outside each layer in three ways:
//! the public `QueryTrace` of traced queries (kept as the benchmark's own
//! spans), counter deltas from the cluster's node, fabric and metric
//! registries, and replay spans that time public layer calls on a
//! deterministic sample of the run's inputs.

use crate::oracle::Oracle;
use crate::setup::{BLOCK_LEN, N_ATTRS};
use stash_cluster::SimCluster;
use stash_dfs::{frame_spatial_res, BlockFrame, BlockKey};
use stash_model::{AggQuery, CellKey, CellStats, FlatPartials, QueryResult, SketchSpec};
use stash_obs::QueryTrace;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::time::Instant;

/// One span: a timed interval at a layer boundary. Spans of one request
/// share `req`; `parent` is the index (within the request) of the span
/// that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub id: u32,
    pub parent: Option<u32>,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl Span {
    fn to_json(&self) -> serde_json::Value {
        serde_json::json!({
            "req": self.req,
            "id": self.id,
            "parent": self.parent,
            "layer": self.layer,
            "name": self.name,
            "start_ns": self.start_ns,
            "dur_ns": self.dur_ns,
        })
    }
}

/// Record the spans of one traced query: the request as the client saw
/// it, the coordinator's wall time inside it (centred: the two gateway
/// legs are taken as equal), and the coordinator thread's disjoint stage
/// segments laid end to end inside that (the trace keeps their lengths,
/// not their order).
pub fn query_spans(out: &mut Vec<Span>, req: u64, start_ns: u64, wall_ns: u64, t: &QueryTrace) {
    let coord = t.wall_ns.min(wall_ns);
    let coord_start = start_ns + (wall_ns - coord) / 2;
    out.push(Span {
        req,
        id: 0,
        parent: None,
        layer: "bench",
        name: "request",
        start_ns,
        dur_ns: wall_ns,
    });
    out.push(Span {
        req,
        id: 1,
        parent: Some(0),
        layer: "cluster",
        name: "coordinator",
        start_ns: coord_start,
        dur_ns: coord,
    });
    let l = &t.local;
    let stages = [
        ("cluster", "route", l.route_ns),
        ("core", "plm", l.plm_ns),
        ("core", "merge", l.merge_ns),
        ("dfs", "dfs", l.dfs_ns),
        ("net", "wire", l.wire_ns),
        ("cluster", "retry", l.retry_ns),
        ("cluster", "wait", l.wait_ns),
    ];
    let mut at = coord_start;
    let mut id = 2;
    for (layer, name, ns) in stages {
        if ns == 0 {
            continue;
        }
        out.push(Span {
            req,
            id,
            parent: Some(1),
            layer,
            name,
            start_ns: at,
            dur_ns: ns,
        });
        at += ns;
        id += 1;
    }
}

/// Total self time per `(layer, name)`: each span's duration minus the
/// part its children cover (children of one span are disjoint by
/// construction). Spans of one request must be contiguous.
pub fn self_time(spans: &[Span], layer: &str, name: &str) -> u64 {
    let mut total = 0;
    let mut first = 0;
    while first < spans.len() {
        let req = spans[first].req;
        let group = &spans[first..];
        let group = &group[..group.iter().take_while(|s| s.req == req).count()];
        for s in group.iter().filter(|s| s.layer == layer && s.name == name) {
            let children: u64 = group
                .iter()
                .filter(|c| c.parent == Some(s.id))
                .map(|c| c.dur_ns)
                .sum();
            total += s.dur_ns.saturating_sub(children);
        }
        first += group.len();
    }
    total
}

/// Write spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{}",
            serde_json::to_string(&s.to_json()).expect("spans serialize")
        )?;
    }
    w.flush()
}

/// Trace totals over the traced queries of a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct TraceSums {
    pub queries: u64,
    pub route_ns: u64,
    pub wait_ns: u64,
    pub plm_ns: u64,
    pub merge_ns: u64,
    pub dfs_ns: u64,
    pub wire_ns: u64,
    pub subqueries: u64,
    pub retries: u64,
    pub failovers: u64,
}

impl TraceSums {
    pub fn add(&mut self, t: &QueryTrace) {
        self.queries += 1;
        self.route_ns += t.local.route_ns;
        self.wait_ns += t.local.wait_ns;
        // Cluster-wide work: the same stages summed over every node.
        self.plm_ns += t.agg.plm_ns;
        self.merge_ns += t.agg.merge_ns;
        self.dfs_ns += t.agg.dfs_ns;
        self.wire_ns += t.agg.wire_ns;
        self.subqueries += u64::from(t.subqueries);
        self.retries += u64::from(t.retries);
        self.failovers += u64::from(t.failovers);
    }

    pub fn merge(&mut self, o: &TraceSums) {
        self.queries += o.queries;
        self.route_ns += o.route_ns;
        self.wait_ns += o.wait_ns;
        self.plm_ns += o.plm_ns;
        self.merge_ns += o.merge_ns;
        self.dfs_ns += o.dfs_ns;
        self.wire_ns += o.wire_ns;
        self.subqueries += o.subqueries;
        self.retries += o.retries;
        self.failovers += o.failovers;
    }
}

/// Per-node metric-registry counters the benchmark reads.
const REGISTRY_COUNTERS: [&str; 12] = [
    "dfs.rows_decoded",
    "dfs.decode_ns",
    "dfs.frame_cache.hit",
    "dfs.frame_cache.miss",
    "dfs.frame_cache.evicted_bytes",
    "sketch.merges",
    "sketch.bytes",
    "ingest.cells_patched",
    "ingest.cells_invalidated",
    "ingest.invalidate.recv",
    "rollup.folds",
    "rollup.seals",
];

/// Cluster counters read from outside: node stats, the fabric's ledger,
/// and each node's metric registry, summed over nodes.
#[derive(Debug, Clone, Default)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    pub fn read(cluster: &SimCluster) -> Counters {
        let mut c = BTreeMap::new();
        for s in cluster.node_stats() {
            *c.entry("graph.evictions").or_default() += s.evictions;
            *c.entry("dfs.disk_reads").or_default() += s.disk_reads;
        }
        for i in 0..cluster.n_nodes() {
            let obs = &cluster.node(i).obs;
            for name in REGISTRY_COUNTERS {
                *c.entry(name).or_default() += obs.counter(name).get();
            }
        }
        let net = cluster.net_stats();
        c.insert("net.messages", net.messages_sent());
        c.insert("net.bytes", net.bytes_sent());
        c.insert("net.dropped", net.messages_dropped());
        c.insert("net.refused", net.messages_refused());
        Counters(c)
    }

    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(&k, &v)| (k, v.saturating_sub(before.get(k))))
                .collect(),
        )
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }
}

/// Replay timings of public layer calls on a sample of a run's inputs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    pub gen_ns_per_row: f64,
    pub aggregate_ns_per_row: f64,
    pub fold_ns_per_row: f64,
    pub encode_ns_per_cell: f64,
    pub decode_ns_per_cell: f64,
    pub serve_ns_per_cell: f64,
}

/// Blocks replayed per run.
const REPLAY_BLOCKS: usize = 48;
/// Repetitions of each replayed call; the fastest is kept.
const REPLAY_REPS: usize = 3;

fn best_ns(mut f: impl FnMut()) -> u64 {
    (0..REPLAY_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .min()
        .expect("at least one repetition")
}

/// Time the data generator, the frame kernel with and without the sketch
/// fold, the flat partials codec, and (when the cluster keeps rollups)
/// the rollup store, on the sampled queries and answers of a run. Each
/// replayed call is recorded as a span of its own request.
pub fn replay(
    oracle: &Oracle,
    cluster: &SimCluster,
    samples: &[(AggQuery, QueryResult)],
    spans: &mut Vec<Span>,
    epoch: Instant,
) -> Replay {
    let mut req = 1u64 << 42;
    let mut record = |spans: &mut Vec<Span>, layer, name, t: Instant, ns: u64| {
        spans.push(Span {
            req,
            id: 0,
            parent: None,
            layer,
            name,
            start_ns: (t - epoch).as_nanos() as u64,
            dur_ns: ns,
        });
        req += 1;
    };

    // Blocks and the Cells each must produce, from the sampled queries.
    let mut work: Vec<(BlockKey, Vec<CellKey>)> = Vec::new();
    let mut seen = BTreeSet::new();
    for (q, _) in samples {
        let Ok(keys) = q.target_keys(usize::MAX) else {
            continue;
        };
        let mut per_block: BTreeMap<BlockKey, Vec<CellKey>> = BTreeMap::new();
        for k in &keys {
            for (geohash, day) in oracle.blocks_of(k) {
                per_block
                    .entry(BlockKey { geohash, day })
                    .or_default()
                    .push(*k);
            }
        }
        for (block, wanted) in per_block {
            if work.len() < REPLAY_BLOCKS && seen.insert(block) {
                work.push((block, wanted));
            }
        }
    }

    let mut r = Replay::default();
    let (mut rows, mut gen_ns, mut agg_ns, mut fold_ns) = (0u64, 0u64, 0u64, 0u64);
    let sketch = SketchSpec::standard();
    for (block, wanted) in &work {
        let t = Instant::now();
        let mut obs = Vec::new();
        let ns = best_ns(|| obs = oracle.generator().block_for_day(block.geohash, block.day));
        record(spans, "data", "block_for_day", t, ns);
        gen_ns += ns;
        rows += obs.len() as u64;
        let frame = BlockFrame::decode(*block, &obs, N_ATTRS, frame_spatial_res(BLOCK_LEN, wanted));
        let t = Instant::now();
        let plain = best_ns(|| {
            std::hint::black_box(frame.aggregate(std::hint::black_box(wanted)));
        });
        record(spans, "dfs", "aggregate", t, plain);
        let t = Instant::now();
        let sketched = best_ns(|| {
            std::hint::black_box(frame.aggregate_with(std::hint::black_box(wanted), &sketch));
        });
        record(spans, "sketch", "aggregate_with", t, sketched);
        agg_ns += plain;
        fold_ns += sketched.saturating_sub(plain);
    }
    if rows > 0 {
        r.gen_ns_per_row = gen_ns as f64 / rows as f64;
        r.aggregate_ns_per_row = agg_ns as f64 / rows as f64;
        r.fold_ns_per_row = fold_ns as f64 / rows as f64;
    }

    let (mut cells, mut enc_ns, mut dec_ns) = (0u64, 0u64, 0u64);
    for (_, answer) in samples {
        let parts: Vec<(CellKey, CellStats)> = answer
            .cells
            .iter()
            .map(|c| (c.key, c.summary.clone()))
            .collect();
        if parts.is_empty() {
            continue;
        }
        let t = Instant::now();
        let mut flat = FlatPartials::encode(&[]);
        let ns = best_ns(|| flat = FlatPartials::encode(std::hint::black_box(&parts)));
        record(spans, "model", "flat_encode", t, ns);
        enc_ns += ns;
        let t = Instant::now();
        let ns = best_ns(|| {
            std::hint::black_box(flat.decode().expect("own encoding decodes"));
        });
        record(spans, "model", "flat_decode", t, ns);
        dec_ns += ns;
        cells += parts.len() as u64;
    }
    if cells > 0 {
        r.encode_ns_per_cell = enc_ns as f64 / cells as f64;
        r.decode_ns_per_cell = dec_ns as f64 / cells as f64;
    }

    if let Some(rollup) = cluster.rollup() {
        let (mut served, mut ns_total) = (0u64, 0u64);
        for (q, _) in samples {
            let Ok(keys) = q.target_keys(usize::MAX) else {
                continue;
            };
            if rollup.serve(&keys).is_none() {
                continue;
            }
            let t = Instant::now();
            let ns = best_ns(|| {
                std::hint::black_box(rollup.serve(std::hint::black_box(&keys)));
            });
            record(spans, "rollup", "serve", t, ns);
            ns_total += ns;
            served += keys.len() as u64;
        }
        if served > 0 {
            r.serve_ns_per_cell = ns_total as f64 / served as f64;
        }
    }
    r
}
