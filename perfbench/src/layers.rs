//! Per-layer measurements, each timed from outside by calling one
//! layer's public functions on the workload's own inputs.  Run only in
//! traced runs, after the workload and its checks.

use std::collections::BTreeMap;
use std::time::Instant;

use traj_baselines::{DouglasPeucker, Fbqs};
use traj_model::{
    BatchSimplifier, BlockFormat, DecodeArena, SimplifiedTrajectory, TrajectoryError,
};
use traj_pipeline::{compress_fleet, compress_fleet_sequential, FleetAlgorithm, PipelineConfig};
use traj_store::ShardedStore;

use crate::inputs::{fleet_of, Endpoint, Query, Stream};
use crate::report::Report;
use crate::stats::median;
use crate::trace;
use crate::workloads::{store_config, SHARDS, WORKERS};

/// Repetitions of each timed layer pass; the median is reported.
const REPS: usize = 5;

type SimplifyFn = fn(&traj_model::Trajectory, f64) -> Result<SimplifiedTrajectory, TrajectoryError>;

fn dp(t: &traj_model::Trajectory, z: f64) -> Result<SimplifiedTrajectory, TrajectoryError> {
    BatchSimplifier::simplify(&DouglasPeucker::new(), t, z)
}

fn fbqs(t: &traj_model::Trajectory, z: f64) -> Result<SimplifiedTrajectory, TrajectoryError> {
    BatchSimplifier::simplify(&Fbqs::new(), t, z)
}

/// Median over `REPS` single-threaded passes of `f` over `streams` at
/// `zeta`, in ns per raw point, with the last pass's outputs.
fn ns_per_point(
    streams: &[Stream],
    f: SimplifyFn,
    zeta: f64,
    span: &'static str,
) -> (f64, Vec<SimplifiedTrajectory>) {
    let points: usize = streams.iter().map(|s| s.traj.len()).sum();
    let mut runs = Vec::with_capacity(REPS);
    let mut outputs = Vec::new();
    for _ in 0..REPS {
        outputs.clear();
        let started = Instant::now();
        for s in streams {
            let _span = trace::span(span);
            outputs.push(std::hint::black_box(f(&s.traj, zeta)).expect("valid stream"));
        }
        runs.push(started.elapsed().as_nanos() as f64 / points as f64);
    }
    (median(&runs), outputs)
}

/// `core.*` and `baselines.*`: single-threaded simplification speed and
/// the worst error of every output as a share of ζ.
pub fn core_and_baselines(streams: &[Stream], report: &mut Report) {
    let mut worst: f64 = 0.0;
    let algos: [(&str, SimplifyFn); 2] = [
        ("operb", operb::simplify_operb),
        ("operb_a", operb::simplify_operb_a),
    ];
    for (name, f) in algos {
        for zeta in [5.0, 40.0] {
            let (ns, outputs) = ns_per_point(streams, f, zeta, "core.simplify");
            report.put(format!("core.{name}_ns_per_point.z{zeta}"), ns, "ns");
            for (s, out) in streams.iter().zip(&outputs) {
                worst = worst.max(traj_metrics::max_error(&s.traj, out) / zeta);
            }
        }
    }
    report.put("core.max_error_over_zeta", worst, "ratio");
    for (name, f) in [("dp", dp as SimplifyFn), ("fbqs", fbqs as SimplifyFn)] {
        let runs: Vec<f64> = [5.0, 40.0]
            .iter()
            .map(|&z| ns_per_point(streams, f, z, "baselines.simplify").0)
            .collect();
        report.put(
            format!("baselines.{name}_ns_per_point"),
            runs.iter().sum::<f64>() / 2.0,
            "ns",
        );
    }
}

/// `pipeline.*`: the 2-worker fleet pipeline without a store, against the
/// sequential driver on the same fleet.
pub fn pipeline(streams: &[Stream], report: &mut Report) {
    let fleet = fleet_of(streams);
    let algorithm = FleetAlgorithm::by_name("operb").expect("operb is registered");
    let (mut rate, mut busy, mut speedup) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let parallel = {
            let _span = trace::span("pipeline.compress");
            compress_fleet(
                &fleet,
                &PipelineConfig::new(40.0).with_workers(WORKERS),
                &algorithm,
            )
        };
        let sequential = compress_fleet_sequential(&fleet, 40.0, &algorithm);
        let r = &parallel.report;
        rate.push(r.points_per_sec());
        let busy_s: f64 = r.worker_busy.iter().map(|d| d.as_secs_f64()).sum();
        busy.push(busy_s / (r.workers as f64 * r.elapsed.as_secs_f64()));
        speedup.push(sequential.report.elapsed.as_secs_f64() / r.elapsed.as_secs_f64());
    }
    report.put("pipeline.points_per_s", median(&rate), "points/s");
    report.put("pipeline.worker_busy_share", median(&busy), "ratio");
    report.put("pipeline.speedup_vs_sequential", median(&speedup), "ratio");
}

/// `codec.*` and `store.ingest_ns_per_point` on OPERB ζ = 40 outputs
/// simplified beforehand: FoR block encode and arena decode per segment,
/// and `ShardedStore::ingest` per raw point.
pub fn codec_and_store_ingest(streams: &[Stream], report: &mut Report) {
    let outputs: Vec<SimplifiedTrajectory> = streams
        .iter()
        .map(|s| operb::simplify_operb(&s.traj, 40.0).expect("valid stream"))
        .collect();
    let config = store_config();
    let codec = config.codec;
    let fragments: Vec<SimplifiedTrajectory> = outputs
        .iter()
        .flat_map(|o| {
            o.segments()
                .chunks(config.block_segments)
                .map(|c| SimplifiedTrajectory::new(c.to_vec(), c[c.len() - 1].last_index + 1))
                .collect::<Vec<_>>()
        })
        .collect();
    let segments: usize = fragments
        .iter()
        .map(SimplifiedTrajectory::num_segments)
        .sum();
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut blocks: Vec<Vec<u8>>;
    let mut arena = DecodeArena::new();
    for _ in 0..REPS * 4 {
        let started = Instant::now();
        {
            let _span = trace::span("codec.encode");
            blocks = fragments
                .iter()
                .map(|f| {
                    codec
                        .encode_block(BlockFormat::ForFixed, f)
                        .expect("encodable")
                })
                .collect();
        }
        enc.push(started.elapsed().as_nanos() as f64 / segments as f64);
        let started = Instant::now();
        {
            let _span = trace::span("codec.decode");
            for b in &blocks {
                codec
                    .decode_block_into(BlockFormat::ForFixed, b, &mut arena)
                    .expect("decodable");
                std::hint::black_box(arena.segments());
            }
        }
        dec.push(started.elapsed().as_nanos() as f64 / segments as f64);
    }
    report.put("codec.encode_ns_per_segment", median(&enc), "ns");
    report.put("codec.decode_ns_per_segment", median(&dec), "ns");

    let points: usize = streams.iter().map(|s| s.traj.len()).sum();
    let mut ingest = Vec::new();
    for _ in 0..REPS {
        let store = ShardedStore::new(config, SHARDS);
        let started = Instant::now();
        for (s, o) in streams.iter().zip(&outputs) {
            let _span = trace::span("store.ingest");
            store
                .ingest(s.device, o, 40.0)
                .expect("fresh store accepts the fleet");
        }
        ingest.push(started.elapsed().as_nanos() as f64 / points as f64);
    }
    report.put("store.ingest_ns_per_point", median(&ingest), "ns");
}

/// `store.<endpoint>_us` and the skip statistics: the read mix called
/// directly on `store`.  Returns the median direct latency per endpoint.
pub fn store_queries(
    store: &ShardedStore,
    queries: &[Query],
    report: &mut Report,
) -> BTreeMap<Endpoint, f64> {
    let mut us: BTreeMap<Endpoint, Vec<f64>> = BTreeMap::new();
    let (mut in_scope, mut decoded, mut scoped_queries) = (0usize, 0usize, 0usize);
    let (mut knn_total, mut knn_pruned) = (0usize, 0usize);
    for q in queries {
        let started = Instant::now();
        let _span = trace::span("store.query");
        match q {
            Query::PositionAt { device, t } => {
                std::hint::black_box(store.position_at(*device, *t));
            }
            Query::TimeSlice { device, from, to } => {
                let s = store.time_slice(*device, *from, *to);
                in_scope += s.stats.blocks_in_scope;
                decoded += s.stats.blocks_decoded;
                scoped_queries += 1;
            }
            Query::Window { bbox, from, to } => {
                let w = store.window_query(bbox, Some((*from, *to)));
                in_scope += w.stats.blocks_in_scope;
                decoded += w.stats.blocks_decoded;
                scoped_queries += 1;
            }
            Query::Knn { points, k } => {
                let r = store.knn(points, *k);
                knn_total += r.stats.devices_total;
                knn_pruned += r.stats.devices_pruned;
            }
            Query::Metrics => continue,
        }
        us.entry(q.endpoint())
            .or_default()
            .push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    let mut medians = BTreeMap::new();
    for ep in Endpoint::QUERIES {
        let m = us.get(&ep).map_or(0.0, |v| median(v));
        report.put(format!("store.{}_us", ep.name()), m, "us");
        medians.insert(ep, m);
    }
    report.put(
        "store.blocks_decoded_per_query",
        decoded as f64 / scoped_queries.max(1) as f64,
        "blocks",
    );
    report.put(
        "store.skip_ratio",
        1.0 - decoded as f64 / in_scope.max(1) as f64,
        "ratio",
    );
    report.put(
        "store.knn_devices_pruned_share",
        knn_pruned as f64 / knn_total.max(1) as f64,
        "ratio",
    );
    medians
}
