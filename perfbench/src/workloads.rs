//! The three workloads. One round of a workload sets up a fresh cluster
//! (its set-up time is one `setup_s` sample), measures for the round's
//! window, checks a deterministic sample of answers against the raw-row
//! reference, and asserts the property the workload exists for.

use crate::drive::{closed_loop, paced_reader, write_stream, Append, Picker, QueryLog};
use crate::host::{NoiseRecord, PhaseClock};
use crate::layers::{self, Counters, Replay, Span};
use crate::oracle::Oracle;
use crate::setup::{self, EXPLORE_FRAME_CACHE_BYTES, EXPLORE_MAX_CELLS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Zipf};
use serde_json::json;
use stash_cluster::SimCluster;
use stash_data::{QuerySizeClass, WorkloadConfig, WorkloadGen};
use stash_geo::{TemporalRes, TimeRange};
use stash_model::{AggQuery, QueryResult};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop query clients of `dashboard_warm` and `explore_cold`.
const CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DashboardWarm,
    ExploreCold,
    LiveIngest,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::DashboardWarm,
        Workload::ExploreCold,
        Workload::LiveIngest,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DashboardWarm => "dashboard_warm",
            Workload::ExploreCold => "explore_cold",
            Workload::LiveIngest => "live_ingest",
        }
    }
}

/// Everything one round measured.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: f64,
    /// Queries of the measured phase.
    pub queries: QueryLog,
    pub query_noise: NoiseRecord,
    /// Append batches acknowledged inside the ingest measurement.
    pub appends: Vec<Append>,
    /// Append batches sent, and how many of them failed.
    pub append_attempts: u64,
    pub append_errors: u64,
    pub ingest_noise: NoiseRecord,
    /// Counter deltas over the measured phase.
    pub counters: Counters,
    /// Append batches the counters cover.
    pub batches: u64,
    /// Append batches acknowledged during the query phase.
    pub concurrent_batches: u64,
    pub graph_cells: usize,
    pub replay: Replay,
    pub spans: Vec<Span>,
    /// Sampled answers that differ from the reference.
    pub wrong: u64,
    pub checked: usize,
    /// Workload-shape assertions that failed.
    pub shape_failures: Vec<String>,
    /// Sizes and shapes worth printing beside the metrics.
    pub notes: Vec<(String, serde_json::Value)>,
}

impl Outcome {
    fn note(&mut self, k: &str, v: serde_json::Value) {
        self.notes.push((k.to_string(), v));
    }

    fn shape(&mut self, holds: bool, what: String) {
        if !holds {
            self.shape_failures.push(what);
        }
    }

    fn check(&mut self, oracle: &Oracle, q: &AggQuery, got: &QueryResult) {
        self.checked += 1;
        if let Err(e) = oracle.check(q, got) {
            eprintln!("wrong answer: {e} (query {q:?})");
            self.wrong += 1;
        }
    }
}

pub struct Run {
    pub seed: u64,
    /// The measured window of one round.
    pub window: Duration,
    pub trace: bool,
}

impl Run {
    /// The input stream `salt` of round `round`.
    fn rng(&self, round: usize, salt: u64) -> SmallRng {
        let stream = ((round as u64) << 32) | salt;
        SmallRng::seed_from_u64(self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
    }
}

/// Run round `round` of a workload.
pub fn run_round(w: Workload, run: &Run, round: usize) -> Outcome {
    match w {
        Workload::DashboardWarm => dashboard_warm(run, round),
        Workload::ExploreCold => explore_cold(run, round),
        Workload::LiveIngest => live_ingest(run, round),
    }
}

/// Boot a cluster and prepare it; returns it with the set-up seconds.
fn set_up(f: impl FnOnce() -> SimCluster) -> (f64, SimCluster) {
    let t = Instant::now();
    let cluster = f();
    (t.elapsed().as_secs_f64(), cluster)
}

// -- dashboard_warm -----------------------------------------------------

const SESSIONS: usize = 30;

/// Session viewports: a descending dice over a state, a pan walk over a
/// county, and a drill from res 2 to 4 over that county — 16 viewports
/// per session, every session the same shape.
fn dashboard_sessions(rng: &mut SmallRng) -> Vec<Vec<AggQuery>> {
    let wl = WorkloadGen::new(WorkloadConfig::default());
    (0..SESSIONS)
        .map(|_| {
            let state = wl.random_bbox(rng, QuerySizeClass::State);
            let county = wl.random_bbox(rng, QuerySizeClass::County);
            let mut s = wl.dice_descending(state, 5, 0.20);
            s.extend(wl.pan_walk(rng, county, 0.10, 7));
            s.extend(wl.drill_down(county, 2, 4));
            s
        })
        .collect()
}

fn dashboard_warm(run: &Run, round: usize) -> Outcome {
    let mut out = Outcome::default();
    let sessions = Arc::new(dashboard_sessions(&mut run.rng(round, 1)));
    let (setup_s, cluster) = set_up(|| {
        let cluster = SimCluster::new(setup::dashboard());
        // The warm pass: every viewport once, so every answer after it
        // comes from the graph.
        let client = cluster.client();
        for q in sessions.iter().flatten() {
            client.query(q).run().expect("warm pass");
        }
        cluster
    });
    out.setup_s = setup_s;
    let viewports: usize = sessions.iter().map(Vec::len).sum();
    out.note("viewports", json!(viewports));
    out.note("resident_cells", json!(cluster.total_cached_cells()));

    // Zipf(1) over sessions, uniform within one.
    let pickers: Vec<Picker> = (0..CLIENTS)
        .map(|c| {
            let zipf = Zipf::new(SESSIONS as u64, 1.0).expect("valid zipf");
            let sessions = Arc::clone(&sessions);
            let mut rng = run.rng(round, 100 + c as u64);
            Box::new(move || {
                let s = &sessions[(zipf.sample(&mut rng) as usize - 1).min(SESSIONS - 1)];
                s[rng.gen_range(0..s.len())].clone()
            }) as Picker
        })
        .collect();
    if !run.trace {
        ingest_probe(&mut out, &cluster);
    }
    measure_queries(&mut out, &cluster, pickers, run);
    out.shape(
        out.queries.provenance.misses == 0,
        format!(
            "dashboard_warm: {} misses after warm-up, expected 0",
            out.queries.provenance.misses
        ),
    );
    finish_closed_loop(&mut out, &cluster, run);
    out
}

// -- explore_cold -------------------------------------------------------

/// Fill queries per round: enough that every node's graph has evicted and
/// every frame cache is near its budget before timing starts.
const FILL_QUERIES: usize = 256;

/// Fresh random viewports: a state, county or city on a random day of 2015
/// (off the probe's days) at res 4.
fn explore_picker(mut rng: SmallRng) -> Picker {
    let wl = WorkloadGen::new(WorkloadConfig::default());
    let probe = setup::probe_day_range();
    let probe_days = probe.end - probe.start;
    Box::new(move || {
        let class = [
            QuerySizeClass::State,
            QuerySizeClass::County,
            QuerySizeClass::City,
        ][rng.gen_range(0..3usize)];
        let bbox = wl.random_bbox(&mut rng, class);
        let mut d = rng.gen_range(0..365 - probe_days);
        if d >= probe.start {
            d += probe_days;
        }
        AggQuery::new(bbox, setup::day(d).range(), 4, TemporalRes::Day)
    })
}

fn caches_full(cluster: &SimCluster) -> bool {
    cluster.node_stats().iter().all(|s| s.evictions > 0)
        && (0..cluster.n_nodes()).all(|i| {
            cluster.node(i).store.frame_cache().bytes() * 10 >= EXPLORE_FRAME_CACHE_BYTES * 9
        })
}

fn explore_cold(run: &Run, round: usize) -> Outcome {
    let mut out = Outcome::default();
    let (setup_s, cluster) = set_up(|| {
        let cluster = SimCluster::new(setup::explore());
        // Fill both caches with the two clients; timing starts once full.
        std::thread::scope(|s| {
            for c in 0..CLIENTS {
                let client = cluster.client();
                let mut pick = explore_picker(run.rng(round, 200 + c as u64));
                s.spawn(move || {
                    for _ in 0..FILL_QUERIES / CLIENTS {
                        client.query(&pick()).run().expect("fill query");
                    }
                });
            }
        });
        cluster
    });
    out.setup_s = setup_s;
    out.note("fill_queries", json!(FILL_QUERIES));
    out.note("graph_max_cells_per_node", json!(EXPLORE_MAX_CELLS));
    out.note(
        "frame_cache_bytes_per_node",
        json!(EXPLORE_FRAME_CACHE_BYTES),
    );
    out.shape(
        caches_full(&cluster),
        format!("explore_cold: caches not full after {FILL_QUERIES} fill queries"),
    );

    let pickers: Vec<Picker> = (0..CLIENTS)
        .map(|c| explore_picker(run.rng(round, 300 + c as u64)))
        .collect();
    if !run.trace {
        ingest_probe(&mut out, &cluster);
    }
    measure_queries(&mut out, &cluster, pickers, run);
    out.shape(
        out.counters.get("graph.evictions") > 0,
        "explore_cold: no graph evictions in the measured phase".into(),
    );
    out.shape(
        out.counters.get("dfs.frame_cache.evicted_bytes") > 0,
        "explore_cold: no frame-cache evictions in the measured phase".into(),
    );
    finish_closed_loop(&mut out, &cluster, run);
    out
}

// -- shared by the closed-loop workloads ----------------------------------

fn measure_queries(out: &mut Outcome, cluster: &SimCluster, pickers: Vec<Picker>, run: &Run) {
    let before = Counters::read(cluster);
    let (log, noise) = closed_loop(cluster, pickers, run.window, run.trace, 16);
    out.counters = Counters::read(cluster).since(&before);
    out.graph_cells = cluster.total_cached_cells();
    out.queries = log;
    out.query_noise = noise;
}

/// The ingest probe of the closed-loop workloads: the writer alone
/// streams the `9q` blocks of the probe days into the prepared cluster,
/// closed loop. It runs before the query phase, so no query load lingers
/// into it.
fn ingest_probe(out: &mut Outcome, cluster: &SimCluster) {
    let sink = cluster.ingest_client();
    let clock = PhaseClock::start();
    let appends = write_stream(
        &sink,
        cluster.live_stream(setup::PROBE_BATCH_ROWS).batches(),
    );
    out.ingest_noise = clock.stop();
    out.append_attempts = appends.len() as u64;
    out.append_errors = appends.iter().filter(|a| !a.ok).count() as u64;
    out.appends = appends;
}

/// Check the sampled answers; then either replay them (traced) or check
/// the region the probe streamed against the fully streamed reference.
fn finish_closed_loop(out: &mut Outcome, cluster: &SimCluster, run: &Run) {
    let oracle = Oracle::new(cluster.config());
    let oracle = if run.trace { oracle } else { oracle.streamed() };
    let samples = std::mem::take(&mut out.queries.samples);
    for (q, got) in &samples {
        out.check(&oracle, q, got);
    }
    if run.trace {
        out.replay = layers::replay(&oracle, cluster, &samples, &mut out.spans, Instant::now());
        return;
    }
    let client = cluster.client();
    for d in setup::probe_day_range() {
        let q = AggQuery::new(
            setup::west_bbox(),
            setup::day(d).range(),
            4,
            TemporalRes::Day,
        );
        match client.query(&q).run() {
            Ok(got) => out.check(&oracle, &q, &got),
            Err(e) => {
                eprintln!("probe check query failed: {e}");
                out.wrong += 1;
            }
        }
    }
}

// -- live_ingest --------------------------------------------------------

/// Reader rate: well below the ~700 queries/s one closed-loop reader
/// sustains alone.
pub const READER_HZ: u32 = 100;

fn live_ingest(run: &Run, round: usize) -> Outcome {
    let mut out = Outcome::default();
    let window = run.window;
    let live_days = setup::live_days(window.as_secs_f64());
    let config = setup::live(live_days);
    let (setup_s, cluster) = set_up(|| SimCluster::new(config.clone()));
    out.setup_s = setup_s;
    let stream = cluster.live_stream(setup::LIVE_BATCH_ROWS);
    out.note("live_days", json!(live_days));
    out.note("live_blocks", json!(config.live_blocks.len()));
    out.note("stream_rows", json!(stream.total_rows()));

    // Reader queries: two of every three pan at res 4 over the live region
    // on a live day (patched or invalidated Cells); the third is a res-3
    // state overview of three sealed days (rollup-served). With an even
    // split the p50 sat on the boundary between the two classes' latencies
    // and moved by up to 40 % from round to round.
    let (first_sealed, first_live) = setup::live_day_offsets();
    let wl = WorkloadGen::new(WorkloadConfig {
        domain: setup::west_bbox(),
        ..WorkloadConfig::default()
    });
    let mut rng = run.rng(round, 400);
    let pick = move |i: u64| {
        if i % 3 != 2 {
            let d = first_live + rng.gen_range(0..live_days);
            let bbox = wl.random_bbox(&mut rng, QuerySizeClass::County);
            AggQuery::new(bbox, setup::day(d).range(), 4, TemporalRes::Day)
        } else {
            let d = first_sealed + rng.gen_range(0..setup::LIVE_HISTORY_DAYS - 2);
            let bbox = wl.random_bbox(&mut rng, QuerySizeClass::State);
            let time = TimeRange::new(setup::day(d).start(), setup::day(d + 3).start())
                .expect("ordered range");
            AggQuery::new(bbox, time, setup::BLOCK_LEN, TemporalRes::Day)
        }
    };
    // Traced runs trace every other triple of queries.
    let trace = run.trace;
    let traced = move |i: u64| trace && (i / 3) % 2 == 1;

    let before = Counters::read(&cluster);
    let sink = cluster.ingest_client();
    let client = cluster.client();
    let period = Duration::from_secs(1) / READER_HZ;
    let start = Instant::now();
    let (appends, reader, noise, window_end) = std::thread::scope(|s| {
        let clock = PhaseClock::start();
        let writer = s.spawn(|| write_stream(&sink, stream.batches()));
        let reader = s.spawn(|| paced_reader(&client, period, window, 7, pick, traced));
        let reader = reader.join().expect("reader panicked");
        // The window closes when the reader stops; the writer then drains
        // the rest of the stream, unmeasured.
        let (noise, window_end) = (clock.stop(), Instant::now());
        let appends = writer.join().expect("writer panicked");
        (appends, reader, noise, window_end)
    });
    out.counters = Counters::read(&cluster).since(&before);
    out.batches = appends.len() as u64;
    out.graph_cells = cluster.total_cached_cells();
    out.append_attempts = appends.len() as u64;
    out.append_errors = appends.iter().filter(|a| !a.ok).count() as u64;
    out.note("stream_batches", json!(appends.len()));
    out.appends = appends
        .into_iter()
        .filter(|a| a.done <= window_end)
        .collect();
    out.concurrent_batches = out.appends.len() as u64;
    out.queries = reader;
    out.query_noise = noise;
    // Ingest is measured over the window, or until the stream ended if
    // that came first.
    out.ingest_noise = noise;
    if let Some(last) = out.appends.last() {
        out.ingest_noise.wall_s = (last.done - start).as_secs_f64();
    }

    out.shape(
        out.counters.get("ingest.cells_patched") > 0,
        "live_ingest: no resident Cell was patched".into(),
    );
    out.shape(
        out.queries.provenance.rollup > 0,
        "live_ingest: no reader answer was rollup-served".into(),
    );
    let unsealed = cluster.rollup().map_or(usize::MAX, |r| r.unsealed_blocks());
    out.shape(
        unsealed == 0,
        format!("live_ingest: {unsealed} live blocks unsealed after the stream"),
    );

    // After the stream: ask the sampled reader queries again and compare
    // with the fully streamed reference; overviews are rollup-served, so
    // the check covers rollup answers.
    let oracle = Oracle::new(&config).streamed();
    let samples = std::mem::take(&mut out.queries.samples);
    let mut rechecked = Vec::new();
    let mut rollup_cells = 0;
    for (q, _) in &samples {
        match client.query(q).run() {
            Ok(got) => {
                rollup_cells += got.rollup_hits;
                out.check(&oracle, q, &got);
                rechecked.push((q.clone(), got));
            }
            Err(e) => {
                eprintln!("check query failed: {e}");
                out.wrong += 1;
            }
        }
    }
    out.shape(
        rollup_cells > 0,
        "live_ingest: no checked answer was rollup-served".into(),
    );
    if run.trace {
        out.replay = layers::replay(
            &oracle,
            &cluster,
            &rechecked,
            &mut out.spans,
            Instant::now(),
        );
    }
    out
}
