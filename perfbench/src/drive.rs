//! Load generators: closed-loop query clients, a paced reader, and a
//! closed-loop append writer. Each records per-operation latency, failures,
//! a deterministic sample of answers for the correctness check, and — in a
//! traced run — the benchmark's own spans around every traced request.

use crate::host::{NoiseRecord, PhaseClock};
use crate::layers::{Span, TraceSums};
use stash_cluster::{AppendSink, ClusterClient, IngestClient, SimCluster};
use stash_data::StreamBatch;
use stash_dfs::BlockKey;
use stash_geo::{Geohash, TimeBin};
use stash_model::{AggQuery, QueryResult};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Answers kept per client for the correctness check.
const SAMPLES_PER_CLIENT: usize = 12;

/// Which target Cells were served how, summed over answered queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Provenance {
    pub hits: u64,
    pub derived: u64,
    pub misses: u64,
    pub rollup: u64,
}

impl Provenance {
    pub fn add(&mut self, r: &QueryResult) {
        self.hits += r.cache_hits as u64;
        self.derived += r.derived_hits as u64;
        self.misses += r.misses as u64;
        self.rollup += r.rollup_hits as u64;
    }

    pub fn merge(&mut self, o: &Provenance) {
        self.hits += o.hits;
        self.derived += o.derived;
        self.misses += o.misses;
        self.rollup += o.rollup;
    }

    pub fn targets(&self) -> u64 {
        self.hits + self.derived + self.misses + self.rollup
    }
}

/// What one or more query clients recorded over a phase.
#[derive(Default)]
pub struct QueryLog {
    /// Latencies of untraced queries (ms).
    pub untraced_ms: Vec<f64>,
    /// Latencies of traced queries (ms).
    pub traced_ms: Vec<f64>,
    pub errors: u64,
    pub provenance: Provenance,
    /// A deterministic sample of queries and the answers they got.
    pub samples: Vec<(AggQuery, QueryResult)>,
    pub spans: Vec<Span>,
    pub traces: TraceSums,
    /// How late each paced query was sent (ms); empty for closed loops.
    pub late_ms: Vec<f64>,
}

impl QueryLog {
    pub fn queries(&self) -> usize {
        self.untraced_ms.len() + self.traced_ms.len()
    }

    pub fn attempted(&self) -> u64 {
        self.queries() as u64 + self.errors
    }

    fn absorb(&mut self, o: QueryLog) {
        self.untraced_ms.extend(o.untraced_ms);
        self.traced_ms.extend(o.traced_ms);
        self.errors += o.errors;
        self.provenance.merge(&o.provenance);
        self.samples.extend(o.samples);
        self.spans.extend(o.spans);
        self.traces.merge(&o.traces);
        self.late_ms.extend(o.late_ms);
    }

    /// Issue one query and record it.
    fn issue(&mut self, client: &ClusterClient, q: &AggQuery, call: Call) {
        let sent = Instant::now();
        let outcome = if call.traced {
            client.query(q).traced().run().map(|(r, t)| (r, Some(t)))
        } else {
            client.query(q).run().map(|r| (r, None))
        };
        let done = Instant::now();
        let ms = (done - call.due).as_secs_f64() * 1e3;
        match outcome {
            Ok((result, trace)) => {
                self.provenance.add(&result);
                match trace {
                    Some(t) => {
                        self.traced_ms.push(ms);
                        let start_ns = (sent - call.epoch).as_nanos() as u64;
                        let wall_ns = (done - sent).as_nanos() as u64;
                        self.traces.add(&t);
                        crate::layers::query_spans(
                            &mut self.spans,
                            call.req,
                            start_ns,
                            wall_ns,
                            &t,
                        );
                    }
                    None => self.untraced_ms.push(ms),
                }
                if call.keep {
                    self.samples.push((q.clone(), result));
                }
            }
            Err(e) => {
                eprintln!("query failed: {e}");
                self.errors += 1;
            }
        }
    }
}

/// How to issue one query.
struct Call {
    traced: bool,
    /// When the query was due to be sent; its latency is measured from it.
    due: Instant,
    /// Request id of its spans.
    req: u64,
    /// Origin of span start times.
    epoch: Instant,
    /// Keep the answer for the correctness check.
    keep: bool,
}

/// A per-client query source.
pub type Picker = Box<dyn FnMut() -> AggQuery + Send>;

/// Closed loop: each client sends its next query as soon as the previous
/// one is answered, until `window` has passed. In a traced run every other
/// query of a client is traced, so traced and untraced latencies share
/// the same conditions.
pub fn closed_loop(
    cluster: &SimCluster,
    pickers: Vec<Picker>,
    window: Duration,
    trace: bool,
    sample_every: u64,
) -> (QueryLog, NoiseRecord) {
    let epoch = Instant::now();
    let clock = PhaseClock::start();
    let deadline = epoch + window;
    let logs: Vec<QueryLog> = std::thread::scope(|s| {
        let handles: Vec<_> = pickers
            .into_iter()
            .enumerate()
            .map(|(ci, mut pick)| {
                let client = cluster.client();
                s.spawn(move || {
                    let mut log = QueryLog::default();
                    let mut n: u64 = 0;
                    while Instant::now() < deadline {
                        let call = Call {
                            traced: trace && n % 2 == 1,
                            due: Instant::now(),
                            req: ((ci as u64) << 40) | n,
                            epoch,
                            keep: n.is_multiple_of(sample_every)
                                && log.samples.len() < SAMPLES_PER_CLIENT,
                        };
                        log.issue(&client, &pick(), call);
                        n += 1;
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query client panicked"))
            .collect()
    });
    let noise = clock.stop();
    let mut all = QueryLog::default();
    for l in logs {
        all.absorb(l);
    }
    (all, noise)
}

/// One append batch's outcome.
pub struct Append {
    pub done: Instant,
    pub ms: f64,
    pub rows: usize,
    pub ok: bool,
}

/// Closed-loop writer: sends each batch through the cluster's ingest
/// client once the previous one is acknowledged. An acknowledgement means
/// the batch is applied and every peer's caches invalidated.
pub fn write_stream(
    sink: &IngestClient,
    batches: impl Iterator<Item = StreamBatch>,
) -> Vec<Append> {
    let mut seqs: HashMap<(Geohash, TimeBin), u64> = HashMap::new();
    let mut out = Vec::new();
    for b in batches {
        let seq = seqs.entry((b.block, b.day)).or_insert(0);
        let key = BlockKey {
            geohash: b.block,
            day: b.day,
        };
        let t = Instant::now();
        let ok = match sink.append(key, *seq, &b.rows, b.last) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("append failed: {e}");
                false
            }
        };
        *seq += 1;
        let done = Instant::now();
        out.push(Append {
            done,
            ms: (done - t).as_secs_f64() * 1e3,
            rows: b.rows.len(),
            ok,
        });
    }
    out
}

/// Open-loop reader: one query every `period` for `window`, each timed
/// from when it was due. `pick(i)` builds the i-th query; `traced(i)` says
/// whether to trace it.
pub fn paced_reader(
    client: &ClusterClient,
    period: Duration,
    window: Duration,
    sample_every: u64,
    mut pick: impl FnMut(u64) -> AggQuery,
    traced: impl Fn(u64) -> bool,
) -> QueryLog {
    let mut log = QueryLog::default();
    let start = Instant::now();
    let due_times = (0..).map(|i| (i, start + period * i as u32));
    for (i, due) in due_times.take_while(|&(_, due)| due < start + window) {
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        log.late_ms
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        let call = Call {
            traced: traced(i),
            due,
            req: (1 << 41) | i,
            epoch: start,
            keep: i.is_multiple_of(sample_every) && log.samples.len() < 4 * SAMPLES_PER_CLIENT,
        };
        log.issue(client, &pick(i), call);
    }
    log
}
