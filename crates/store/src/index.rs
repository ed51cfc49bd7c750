//! The in-memory block index: a flat zone map over block metadata.
//!
//! Every sealed block contributes one entry — its bounding box, the
//! ζ + quantization slack it must be expanded by, and its time interval.
//! A window lookup is one linear pass over the entries that evaluates
//! exactly the block-level predicates a query would otherwise evaluate
//! per block ([`expanded_intersects`] and the time-overlap test of
//! [`BlockMeta::overlaps_time`]), so a block survives the lookup if and
//! only if it may hold data relevant to the window.  Registration is one
//! `Vec` push, and an entry costs the same whatever the block's extent.

use traj_geo::BoundingBox;
use traj_pipeline::DeviceId;

use crate::block::{expanded_intersects, BlockMeta};

/// Identifies one block: the device stream and the block's position in
/// that device's append-only log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockRef {
    /// The owning device stream.
    pub device: DeviceId,
    /// Index into the device's log.
    pub block: usize,
}

/// The skipping metadata of one registered block.
#[derive(Debug, Clone, Copy)]
struct Entry {
    block: BlockRef,
    bbox: BoundingBox,
    radius: f64,
    t_min: f64,
    t_max: f64,
}

/// A zone map over block metadata: one entry per block, scanned linearly.
#[derive(Debug, Clone, Default)]
pub struct BlockIndex {
    entries: Vec<Entry>,
}

impl BlockIndex {
    /// Number of blocks registered.
    pub fn num_blocks(&self) -> usize {
        self.entries.len()
    }

    /// Heap footprint of the index in bytes — a fixed size per block.
    pub fn approx_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Entry>()
    }

    /// Registers a block.  A block with an empty bounding box covers no
    /// point and can never answer a window, so it is not registered.
    pub fn insert(&mut self, block: BlockRef, meta: &BlockMeta) {
        if meta.bbox.is_empty() {
            return;
        }
        self.entries.push(Entry {
            block,
            bbox: meta.bbox,
            radius: meta.slack_radius(),
            t_min: meta.t_min,
            t_max: meta.t_max,
        });
    }

    /// The blocks whose ζ-expanded bounding box intersects `window` and,
    /// when `time` is given, whose time interval overlaps it — sorted by
    /// (device, block).
    ///
    /// Hostile windows need no special path: an empty window yields
    /// nothing, a NaN bound fails every comparison it takes part in, and
    /// an infinite bound simply compares.
    pub fn candidates(&self, window: &BoundingBox, time: Option<(f64, f64)>) -> Vec<BlockRef> {
        let mut span = traj_obs::span("index_walk");
        let mut out = Vec::new();
        if !window.is_empty() {
            out.extend(
                self.entries
                    .iter()
                    .filter(|e| {
                        expanded_intersects(&e.bbox, e.radius, window)
                            && time.is_none_or(|(t0, t1)| e.t_min <= t1 && t0 <= e.t_max)
                    })
                    .map(|e| e.block),
            );
            out.sort_unstable();
        }
        span.attr("candidates", out.len());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_geo::{DirectedSegment, Point};
    use traj_model::SimplifiedSegment;

    /// A one-segment block from `(x, y)` to `(x + 50, y + 20)` over
    /// t ∈ [0, 60].
    fn meta_at(device: DeviceId, x: f64, y: f64, zeta: f64) -> BlockMeta {
        let seg = SimplifiedSegment::new(
            DirectedSegment::new(Point::new(x, y, 0.0), Point::new(x + 50.0, y + 20.0, 60.0)),
            0,
            5,
        );
        BlockMeta::from_segments(device, &[seg], zeta, 0.0)
    }

    fn window(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> BoundingBox {
        BoundingBox {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    fn block(device: DeviceId) -> BlockRef {
        BlockRef { device, block: 0 }
    }

    /// Five blocks 1 km apart along the x axis, ζ = 5.
    fn row_of_five() -> BlockIndex {
        let mut index = BlockIndex::default();
        for d in 0..5u64 {
            index.insert(block(d), &meta_at(d, d as f64 * 1000.0, 0.0, 5.0));
        }
        index
    }

    #[test]
    fn finds_exactly_the_overlapping_blocks() {
        let index = row_of_five();
        assert_eq!(index.num_blocks(), 5);
        assert_eq!(
            index.candidates(&window(2990.0, -10.0, 3060.0, 30.0), None),
            vec![block(3)]
        );
        assert_eq!(
            index.candidates(&window(1040.0, 0.0, 2000.0, 10.0), None),
            vec![block(1), block(2)]
        );
        assert!(index
            .candidates(&window(500.0, 0.0, 600.0, 10.0), None)
            .is_empty());
    }

    #[test]
    fn candidates_are_sorted_by_device_then_block() {
        let mut index = BlockIndex::default();
        for (device, b) in [(3u64, 0usize), (1, 0), (3, 1), (1, 1), (2, 0)] {
            index.insert(
                BlockRef { device, block: b },
                &meta_at(device, 0.0, 0.0, 5.0),
            );
        }
        let hits = index.candidates(&window(0.0, 0.0, 10.0, 10.0), None);
        let mut sorted = hits.clone();
        sorted.sort();
        assert_eq!(hits.len(), 5);
        assert_eq!(hits, sorted);
    }

    #[test]
    fn expansion_by_zeta_keeps_near_misses() {
        let mut index = BlockIndex::default();
        // Block near x=200, ζ=30: a window 20 m away from the bbox must
        // still see the block as a candidate; one 40 m away must not.
        let meta = meta_at(2, 200.0, 0.0, 30.0);
        index.insert(block(2), &meta);
        let near = window(155.0, 0.0, 175.0, 10.0);
        assert_eq!(index.candidates(&near, None), vec![block(2)]);
        assert!(meta.may_intersect_window(&near));
        assert!(index
            .candidates(&window(140.0, 0.0, 160.0, 10.0), None)
            .is_empty());
    }

    #[test]
    fn time_range_filters_on_the_block_interval() {
        let index = row_of_five();
        let everywhere = window(-1e6, -1e6, 1e6, 1e6);
        assert_eq!(index.candidates(&everywhere, Some((60.0, 90.0))).len(), 5);
        assert!(index.candidates(&everywhere, Some((60.5, 90.0))).is_empty());
        assert!(index
            .candidates(&everywhere, Some((f64::NAN, 90.0)))
            .is_empty());
    }

    #[test]
    fn a_huge_block_is_found_and_costs_one_entry() {
        let mut small = BlockIndex::default();
        small.insert(block(1), &meta_at(1, 0.0, 0.0, 5.0));
        let mut huge = BlockIndex::default();
        let mut meta = meta_at(1, 0.0, 0.0, 5.0);
        meta.bbox = window(-1e300, -1e300, 1e300, 1e300);
        huge.insert(block(1), &meta);
        assert_eq!(huge.approx_bytes(), small.approx_bytes());
        assert_eq!(
            huge.candidates(&window(5e299, 0.0, 6e299, 5.0), None),
            vec![block(1)]
        );
    }

    #[test]
    fn nan_window_bounds_yield_no_candidates() {
        let index = row_of_five();
        for w in [
            window(f64::NAN, -10.0, 100.0, 10.0),
            window(-10.0, f64::NAN, 100.0, 10.0),
            window(-10.0, -10.0, f64::NAN, 10.0),
            window(-10.0, -10.0, 100.0, f64::NAN),
            window(f64::NAN, f64::NAN, f64::NAN, f64::NAN),
        ] {
            assert!(
                index.candidates(&w, None).is_empty(),
                "NaN-bounded window {w:?} must produce no candidates"
            );
        }
    }

    #[test]
    fn infinite_window_bounds_just_compare() {
        let index = row_of_five();
        let cases = [
            // Unbounded to the left of x = 100: only the block at x = 0.
            (window(f64::NEG_INFINITY, -10.0, 100.0, 10.0), vec![0]),
            // Unbounded to the right of x = 2100: blocks 3 and 4.
            (window(2100.0, -10.0, f64::INFINITY, 10.0), vec![3, 4]),
            // Unbounded everywhere: every block.
            (
                window(
                    f64::NEG_INFINITY,
                    f64::NEG_INFINITY,
                    f64::INFINITY,
                    f64::INFINITY,
                ),
                vec![0, 1, 2, 3, 4],
            ),
            // Unbounded in x but below every block in y: nothing.
            (
                window(f64::NEG_INFINITY, -100.0, f64::INFINITY, -10.0),
                vec![],
            ),
        ];
        for (w, devices) in cases {
            let expected: Vec<BlockRef> = devices.into_iter().map(block).collect();
            assert_eq!(index.candidates(&w, None), expected, "window {w:?}");
        }
    }

    #[test]
    fn empty_window_or_meta_yields_nothing() {
        let mut index = BlockIndex::default();
        let mut meta = meta_at(1, 0.0, 0.0, 5.0);
        meta.bbox = BoundingBox::empty();
        index.insert(block(1), &meta);
        assert_eq!(index.num_blocks(), 0);
        let index = row_of_five();
        assert!(index.candidates(&BoundingBox::empty(), None).is_empty());
        // An inverted x range is an empty window.
        assert!(index
            .candidates(&window(100.0, -10.0, -100.0, 10.0), None)
            .is_empty());
    }
}
