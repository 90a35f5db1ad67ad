//! Independent raw-row reference: every expected answer is a direct fold of
//! the generator's rows, with no graph, frame kernel, derivation, rollup or
//! wire encoding in between.

use crate::setup::{BLOCK_LEN, N_ATTRS};
use stash_cluster::ClusterConfig;
use stash_data::NamGenerator;
use stash_geo::{BBox, Geohash, TemporalRes, TimeBin, TimeRange};
use stash_model::{AggQuery, CellKey, CellSummary, QueryResult, SketchSpec};
use std::collections::{BTreeMap, BTreeSet, HashSet};

pub struct Oracle {
    generator: NamGenerator,
    data_bbox: BBox,
    data_time: TimeRange,
    sketch: SketchSpec,
    max_cells: usize,
    /// Live blocks that still hold only their boot-resident rows.
    truncated: HashSet<(Geohash, TimeBin)>,
    base_fraction: f64,
}

impl Oracle {
    /// A reference for a cluster whose live blocks all still hold only
    /// their boot-resident rows.
    pub fn new(config: &ClusterConfig) -> Oracle {
        Oracle {
            generator: NamGenerator::new(config.generator.clone()),
            data_bbox: config.data_bbox,
            data_time: config.data_time,
            sketch: config.stash.sketch.clone(),
            max_cells: config.stash.max_cells_per_query,
            truncated: config.live_blocks.iter().copied().collect(),
            base_fraction: config.live_base_fraction,
        }
    }

    /// The same reference once every live block streamed to completion.
    pub fn streamed(mut self) -> Oracle {
        self.truncated.clear();
        self
    }

    pub fn generator(&self) -> &NamGenerator {
        &self.generator
    }

    /// Blocks that hold rows for `key`: its day bins inside the data
    /// domain, times the block-length tiles under (or over) its geohash
    /// that intersect the spatial domain.
    pub fn blocks_of(&self, key: &CellKey) -> Vec<(Geohash, TimeBin)> {
        let r = key.time.range();
        let Some(clipped) = TimeRange::new(
            r.start.max(self.data_time.start),
            r.end.min(self.data_time.end),
        ) else {
            return Vec::new();
        };
        if clipped.duration_secs() <= 0 {
            return Vec::new();
        }
        let mut tiles = vec![key.geohash];
        while tiles[0].len() < BLOCK_LEN {
            tiles = tiles
                .iter()
                .flat_map(|t| {
                    t.children()
                        .expect("shorter than block")
                        .collect::<Vec<_>>()
                })
                .collect();
        }
        let tiles: Vec<Geohash> = tiles
            .into_iter()
            .map(|t| t.prefix(BLOCK_LEN).expect("at least block length"))
            .filter(|t| t.bbox().intersects(&self.data_bbox))
            .collect();
        TimeBin::cover_range(TemporalRes::Day, clipped)
            .into_iter()
            .flat_map(|d| tiles.iter().map(move |&t| (t, d)))
            .collect()
    }

    /// Rows of one block-day as the cluster holds them.
    fn rows(&self, block: Geohash, day: TimeBin) -> Vec<stash_model::Observation> {
        if self.truncated.contains(&(block, day)) {
            self.generator.base_rows(block, day, self.base_fraction)
        } else {
            self.generator.block_for_day(block, day)
        }
    }

    /// The non-empty result Cells of `q`, sorted by key.
    pub fn expected(&self, q: &AggQuery) -> Vec<(CellKey, CellSummary)> {
        let targets: HashSet<CellKey> = q
            .target_keys(self.max_cells)
            .expect("benchmark queries are well-formed")
            .into_iter()
            .collect();
        let blocks: BTreeSet<(Geohash, TimeBin)> =
            targets.iter().flat_map(|k| self.blocks_of(k)).collect();
        let mut cells: BTreeMap<CellKey, CellSummary> = BTreeMap::new();
        for (block, day) in blocks {
            for obs in self.rows(block, day) {
                let Some(key) = obs.cell_key(q.spatial_res, q.temporal_res) else {
                    continue;
                };
                if targets.contains(&key) {
                    cells
                        .entry(key)
                        .or_insert_with(|| CellSummary::empty_with(N_ATTRS, &self.sketch))
                        .push_row(&obs.values);
                }
            }
        }
        cells.into_iter().filter(|(_, s)| !s.is_empty()).collect()
    }

    /// Compare an answer with the reference, bit for bit.
    pub fn check(&self, q: &AggQuery, got: &QueryResult) -> Result<(), String> {
        let want = self.expected(q);
        if got.cells.len() != want.len() {
            return Err(format!(
                "{} result Cells, reference has {}",
                got.cells.len(),
                want.len()
            ));
        }
        for (cell, (key, summary)) in got.cells.iter().zip(&want) {
            if cell.key != *key {
                return Err(format!(
                    "Cell {:?} where the reference has {:?}",
                    cell.key, key
                ));
            }
            if cell.summary != *summary {
                return Err(format!("Cell {key:?} differs from the raw-row fold"));
            }
        }
        Ok(())
    }
}
