//! Cluster configurations of the three workloads.
//!
//! Every modeled charge is pinned to zero — free disk, no per-observation
//! scan charge, no per-Cell service charge, and a wire with no latency and
//! unbounded bandwidth — so the numbers measure what the code spends, not
//! what the simulator sleeps. With a zero wire model the router delivers
//! inline on the sender's thread; its delay heap is simulator machinery
//! and goes unmeasured by design. Every other option keeps its default.

use stash_cluster::{ClusterConfig, ClusterConfigBuilder, RollupPolicy};
use stash_data::GeneratorConfig;
use stash_dfs::DiskModel;
use stash_geo::time::epoch_seconds;
use stash_geo::{BBox, Geohash, TemporalRes, TimeBin, TimeRange};
use stash_model::{Level, SketchSpec};
use stash_net::NetConfig;
use std::str::FromStr;
use std::time::Duration;

pub const N_NODES: usize = 8;
pub const N_ATTRS: usize = 4;
/// The dataset is fixed; the workload seed only varies the inputs sent.
const DATA_SEED: u64 = 0x57A5_4001;
/// Unit-quantized values: sums are exact in `f64` whatever the fold order,
/// and sketch state is a pure function of the row multiset, so answers
/// compare bit for bit against a direct fold of the raw rows.
pub const VALUE_QUANTUM: f64 = 1.0;
/// Block geohash length (the cluster default).
pub const BLOCK_LEN: u8 = 3;

/// `explore_cold` caps, well below its working set: STASH graph Cells per
/// node and decoded-frame cache bytes per node.
pub const EXPLORE_MAX_CELLS: usize = 1024;
pub const EXPLORE_FRAME_CACHE_BYTES: usize = 512 << 10;

/// Rows per append batch of the ingest probe that `dashboard_warm` and
/// `explore_cold` run after their query phase.
pub const PROBE_BATCH_ROWS: usize = 8;
/// Days the ingest probe streams into, from 2015-03-01.
const PROBE_DAYS: i64 = 4;

/// `live_ingest`: observations per square degree per day, so one block
/// holds about 800 rows; half boot resident, the rest streams in batches.
const LIVE_DENSITY: f64 = 404.0;
pub const LIVE_BATCH_ROWS: usize = 40;
/// Sealed days before the live days; the reader's overviews read these.
pub const LIVE_HISTORY_DAYS: i64 = 14;
/// Rows per second the writer is sized for: the live set holds about
/// `seconds × LIVE_SIZING_ROWS_PER_S` rows, so the stream outlasts the
/// measured window and little is left to drain after it.
const LIVE_SIZING_ROWS_PER_S: f64 = 32_000.0;

pub fn data_start() -> i64 {
    epoch_seconds(2015, 1, 1, 0, 0, 0)
}

pub fn day(offset_from_2015: i64) -> TimeBin {
    TimeBin::containing(TemporalRes::Day, data_start() + offset_from_2015 * 86_400)
}

/// The western-US tile `9q` (lat 33.75–39.375, lon −123.75 – −112.5): the
/// live region of every workload that streams.
pub fn west_tile() -> Geohash {
    Geohash::from_str("9q").expect("static geohash")
}

/// The 32 blocks of [`west_tile`].
pub fn west_blocks() -> Vec<Geohash> {
    west_tile().children().expect("tile has children").collect()
}

fn blocks_on_days(first_day: i64, days: i64) -> Vec<(Geohash, TimeBin)> {
    (first_day..first_day + days)
        .flat_map(|d| west_blocks().into_iter().map(move |g| (g, day(d))))
        .collect()
}

/// Day offset of 2015-03-01, where the probe days and the live domain
/// start.
fn march_first() -> i64 {
    (epoch_seconds(2015, 3, 1, 0, 0, 0) - data_start()) / 86_400
}

/// Day offsets (from 2015-01-01) of the ingest probe; `explore_cold`
/// keeps its queries off them.
pub fn probe_day_range() -> std::ops::Range<i64> {
    march_first()..march_first() + PROBE_DAYS
}

/// Zero modeled cost, eight nodes, defaults otherwise.
fn zero_cost() -> ClusterConfigBuilder {
    ClusterConfig::builder()
        .n_nodes(N_NODES)
        .disk(DiskModel::free())
        .scan_cost_per_obs(Duration::ZERO)
        .cell_service_cost(Duration::ZERO)
        .net(NetConfig {
            base_latency: Duration::ZERO,
            bytes_per_sec: f64::INFINITY,
            ..NetConfig::default()
        })
}

fn generator(density: Option<f64>) -> GeneratorConfig {
    let default = GeneratorConfig::default();
    GeneratorConfig {
        seed: DATA_SEED,
        obs_per_deg2_per_day: density.unwrap_or(default.obs_per_deg2_per_day),
        value_quantum: VALUE_QUANTUM,
        ..default
    }
}

/// Continental 2015 dataset whose `9q` blocks on the probe days boot
/// half-written, for the ingest probe.
fn with_probe(b: ClusterConfigBuilder) -> ClusterConfigBuilder {
    let r = probe_day_range();
    b.generator(generator(None))
        .live_blocks(blocks_on_days(r.start, r.end - r.start))
}

pub fn dashboard() -> ClusterConfig {
    with_probe(zero_cost())
        .build()
        .expect("dashboard_warm config is valid")
}

pub fn explore() -> ClusterConfig {
    with_probe(zero_cost())
        .tweak(|c| {
            c.stash.max_cells = EXPLORE_MAX_CELLS;
            c.stash.frame_cache_bytes = EXPLORE_FRAME_CACHE_BYTES;
            c.stash.sketch = SketchSpec::standard();
        })
        .build()
        .expect("explore_cold config is valid")
}

/// Live days for a measured window of `seconds`.
pub fn live_days(seconds: f64) -> i64 {
    let probe = stash_data::NamGenerator::new(generator(Some(LIVE_DENSITY)));
    let tail_rows: usize = west_blocks()
        .into_iter()
        .map(|g| probe.obs_per_day(g) - probe.split_point(g, 0.5))
        .sum();
    ((seconds * LIVE_SIZING_ROWS_PER_S / tail_rows as f64).ceil() as i64).max(1)
}

/// `live_ingest`: the western-US domain over [`LIVE_HISTORY_DAYS`] sealed
/// days plus `live_days` days whose blocks stream in, with rollups at
/// coarse Day levels.
pub fn live(live_days: i64) -> ClusterConfig {
    let first = march_first();
    let days = LIVE_HISTORY_DAYS + live_days;
    let time =
        TimeRange::new(day(first).start(), day(first + days).start()).expect("ordered range");
    let levels = vec![
        Level::of(2, TemporalRes::Day).expect("valid level"),
        Level::of(BLOCK_LEN, TemporalRes::Day).expect("valid level"),
    ];
    zero_cost()
        .data_bbox(west_tile().bbox())
        .data_time(time)
        .generator(generator(Some(LIVE_DENSITY)))
        .live_blocks(blocks_on_days(first + LIVE_HISTORY_DAYS, live_days))
        .rollup(RollupPolicy::new(levels).expect("coarse day levels"))
        .build()
        .expect("live_ingest config is valid")
}

/// The first sealed and first live day of [`live`].
pub fn live_day_offsets() -> (i64, i64) {
    (march_first(), march_first() + LIVE_HISTORY_DAYS)
}

pub fn west_bbox() -> BBox {
    west_tile().bbox()
}
