//! Differential tests of the block index.
//!
//! The index is an optimisation only: a window query through it must
//! return exactly what a brute-force walk over every block returns
//! ([`TrajStore::window_query_bruteforce`]), answers and skip statistics
//! alike.  These tests prove that over all four corpora × a ζ grid × both
//! block-size extremes, for an in-memory store, a sharded store fed the
//! same ingests, and the store reopened from disk behind a 1 KiB payload
//! cache — with thousands of seeded windows per store, including tiny,
//! huge, inverted, NaN and infinite ones and windows placed exactly on a
//! block's ζ-expanded edge, with and without a time range.

use std::path::PathBuf;

use traj_data::rng::{Rng, SmallRng};
use traj_data::{DatasetGenerator, DatasetKind};
use traj_geo::{BoundingBox, DirectedSegment, Point};
use traj_model::{SimplifiedSegment, SimplifiedTrajectory, Trajectory};
use traj_store::{BlockMeta, ShardedStore, StoreConfig, TrajStore};

const ZETAS: [f64; 3] = [5.0, 20.0, 40.0];
const BLOCK_SEGMENTS: [usize; 2] = [2, 64];
const DEVICES: usize = 4;
const POINTS: usize = 400;
const WINDOWS: usize = 2_000;
const SHARDS: usize = 3;

/// A scratch directory unique to this test process and tag.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "traj-diff-index-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn fleet(kind: DatasetKind, seed: u64) -> Vec<Trajectory> {
    let generator = DatasetGenerator::for_kind(kind, seed);
    (0..DEVICES)
        .map(|i| generator.generate_trajectory(i, POINTS))
        .collect()
}

fn pick<T: Copy>(rng: &mut SmallRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// A bound that is hostile in one of the ways untrusted callers can be.
fn hostile(rng: &mut SmallRng) -> f64 {
    pick(
        rng,
        &[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300],
    )
}

/// Leaves a boundary value as it is or moves it one ulp either way.
fn nudge(rng: &mut SmallRng) -> fn(f64) -> f64 {
    pick(rng, &[std::convert::identity, f64::next_down, f64::next_up])
}

/// One seeded query window: around real data at every scale, on a
/// block's exact ζ-expanded edge, or hostile.
fn random_window(rng: &mut SmallRng, points: &[Point], metas: &[BlockMeta]) -> BoundingBox {
    let centre = pick(rng, points);
    let around = |half_x: f64, half_y: f64| BoundingBox {
        min_x: centre.x - half_x,
        min_y: centre.y - half_y,
        max_x: centre.x + half_x,
        max_y: centre.y + half_y,
    };
    match rng.gen_range(0..8u32) {
        // Tiny, down to a single point.
        0 => around(rng.gen_range(0.0..2.0), rng.gen_range(0.0..2.0)),
        // The scales real queries use.
        1 | 2 => around(rng.gen_range(5.0..3000.0), rng.gen_range(5.0..3000.0)),
        // Huge: the whole fleet and then some.
        3 => around(rng.gen_range(1e5..1e7), rng.gen_range(1e5..1e7)),
        // Inverted in x (an empty window) or only in y.
        4 => {
            let w = around(rng.gen_range(5.0..500.0), rng.gen_range(5.0..500.0));
            if rng.gen_bool(0.5) {
                BoundingBox {
                    min_x: w.max_x,
                    max_x: w.min_x,
                    ..w
                }
            } else {
                BoundingBox {
                    min_y: w.max_y,
                    max_y: w.min_y,
                    ..w
                }
            }
        }
        // NaN, ±∞ or ±1e300 on one or more sides.
        5 => {
            let mut bounds = [
                centre.x - 100.0,
                centre.y - 100.0,
                centre.x + 100.0,
                centre.y + 100.0,
            ];
            for _ in 0..rng.gen_range(1..4usize) {
                bounds[rng.gen_range(0..4usize)] = hostile(rng);
            }
            BoundingBox {
                min_x: bounds[0],
                min_y: bounds[1],
                max_x: bounds[2],
                max_y: bounds[3],
            }
        }
        // Touching a block's ζ-expanded box from outside, exactly on it
        // or one ulp short of it: the predicates' boundary cases.
        _ => {
            let meta = pick(rng, metas);
            let edge = nudge(rng)(meta.bbox.min_x - meta.slack_radius());
            BoundingBox {
                min_x: edge - rng.gen_range(0.0..50.0),
                min_y: meta.bbox.min_y,
                max_x: edge,
                max_y: meta.bbox.max_y,
            }
        }
    }
}

/// An optional time range over the fleet's span `[t0, t1]`, sometimes
/// degenerate, inverted or hostile, or ending exactly on (or one ulp
/// short of) a block's time interval.
fn random_time(rng: &mut SmallRng, t0: f64, t1: f64, metas: &[BlockMeta]) -> Option<(f64, f64)> {
    match rng.gen_range(0..9u32) {
        0..=3 => None,
        8 => {
            let meta = pick(rng, metas);
            let nudge = nudge(rng);
            Some(if rng.gen_bool(0.5) {
                (nudge(meta.t_max), meta.t_max + 60.0)
            } else {
                (meta.t_min - 60.0, nudge(meta.t_min))
            })
        }
        4 | 5 => {
            let a = rng.gen_range(t0..t1);
            Some((a, a + rng.gen_range(0.0..(t1 - t0) * 0.2)))
        }
        6 => {
            let a = rng.gen_range(t0..t1);
            pick(
                rng,
                &[Some((a, a)), Some((a, a - 1.0)), Some((t1 + 1.0, t1 + 2.0))],
            )
        }
        _ => Some((hostile(rng), hostile(rng))),
    }
}

#[test]
fn window_queries_equal_the_brute_force_walk() {
    let mut seed = 0u64;
    for kind in DatasetKind::ALL {
        for zeta in ZETAS {
            for block_segments in BLOCK_SEGMENTS {
                seed += 1;
                let context = format!("{kind:?} ζ={zeta} block_segments={block_segments}");
                let config = StoreConfig::default().with_block_segments(block_segments);
                let trajectories = fleet(kind, seed);

                // Two waves — every device's first half, then every
                // second half — so blocks are not registered in
                // (device, block) order.
                let mut memory = TrajStore::new(config);
                let sharded = ShardedStore::new(config, SHARDS);
                for half in [0..POINTS / 2, POINTS / 2..POINTS] {
                    for (device, traj) in trajectories.iter().enumerate() {
                        let part = Trajectory::new(traj.points()[half.clone()].to_vec()).unwrap();
                        let simplified = operb::simplify_operb(&part, zeta).unwrap();
                        let device = device as u64;
                        memory
                            .ingest_with_original(device, part.points(), &simplified, zeta)
                            .unwrap();
                        sharded
                            .ingest_with_original(device, part.points(), &simplified, zeta)
                            .unwrap();
                    }
                }
                let dir = scratch(&format!("{seed}"));
                memory.save(&dir).unwrap();
                let reopened =
                    ShardedStore::open_with(&dir, SHARDS, config.with_cache_bytes(Some(1024)))
                        .unwrap();

                let points: Vec<Point> = trajectories
                    .iter()
                    .flat_map(|t| t.points().iter().copied())
                    .collect();
                let metas: Vec<BlockMeta> = (0..DEVICES as u64)
                    .flat_map(|d| sharded.block_metas(d))
                    .collect();
                let t0 = points.iter().map(|p| p.t).fold(f64::INFINITY, f64::min);
                let t1 = points.iter().map(|p| p.t).fold(f64::NEG_INFINITY, f64::max);

                let mut rng = SmallRng::seed_from_u64(seed);
                let mut nonempty = 0;
                for i in 0..WINDOWS {
                    let window = random_window(&mut rng, &points, &metas);
                    let time = random_time(&mut rng, t0, t1, &metas);
                    let reference = memory.window_query_bruteforce(&window, time);
                    let at = || format!("{context} window {i} {window:?} time {time:?}");
                    assert_eq!(memory.window_query(&window, time), reference, "{}", at());
                    assert_eq!(sharded.window_query(&window, time), reference, "{}", at());
                    assert_eq!(reopened.window_query(&window, time), reference, "{}", at());
                    nonempty += usize::from(!reference.matches.is_empty());
                }
                // The windows must exercise both outcomes.
                assert!(
                    nonempty > WINDOWS / 4 && nonempty < WINDOWS * 3 / 4,
                    "{context}: {nonempty}/{WINDOWS} windows matched"
                );
                std::fs::remove_dir_all(&dir).ok();
            }
        }
    }
}

/// A store holding `blocks` one-segment blocks of one device, each a
/// diagonal of length `extent` (meters).
fn store_of_diagonals(blocks: usize, extent: f64) -> TrajStore {
    let mut store = TrajStore::new(StoreConfig::default().with_block_segments(1));
    let segments = (0..blocks)
        .map(|i| {
            let origin = i as f64 * 1e6;
            let start = Point::new(origin, origin, i as f64 * 100.0);
            let end = Point::new(origin + extent, origin + extent, i as f64 * 100.0 + 50.0);
            SimplifiedSegment::new(DirectedSegment::new(start, end), 2 * i, 2 * i + 1)
        })
        .collect();
    store
        .ingest(7, &SimplifiedTrajectory::new(segments, 2 * blocks), 5.0)
        .unwrap();
    store
}

#[test]
fn index_footprint_does_not_depend_on_block_extent() {
    let diagonal = 100_000.0 / std::f64::consts::SQRT_2;
    let small_diagonal = 10.0 / std::f64::consts::SQRT_2;
    for blocks in [1, 10, 100] {
        let huge = store_of_diagonals(blocks, diagonal);
        let small = store_of_diagonals(blocks, small_diagonal);
        assert_eq!(huge.num_blocks(), blocks);
        assert_eq!(small.num_blocks(), blocks);
        let bytes = huge.memory_stats().index_bytes;
        assert!(bytes > 0);
        assert_eq!(
            bytes,
            small.memory_stats().index_bytes,
            "{blocks} blocks: a 100 km block must cost what a 10 m one does"
        );
        // The huge blocks are still found from anywhere along them.
        let mid = BoundingBox {
            min_x: diagonal / 2.0,
            min_y: diagonal / 2.0,
            max_x: diagonal / 2.0 + 1.0,
            max_y: diagonal / 2.0 + 1.0,
        };
        assert_eq!(huge.window_query(&mid, None).matches.len(), 1);
    }
}
