//! Query-engine benchmark: kNN pruning over the compressed form and the
//! continuous-geofence pipeline under live ingest.
//!
//! ```text
//! cargo run --release -p traj-bench --bin query_bench
//! cargo run --release -p traj-bench --bin query_bench -- --devices 256 --k 20
//! ```
//!
//! Two sections, each with a built-in correctness gate:
//!
//! * **kNN**: every pruned search must return the bit-identical ranking
//!   of the exhaustive scan; the aggregate device/block prune ratios are
//!   gated regression metrics (the whole point of searching metadata
//!   first is to decode less).
//! * **Geofence**: standing fences watch a live fleet ingest; the set of
//!   fired alerts must equal, exactly once each, the qualifying
//!   `(fence, device, block)` set recomputed independently from the
//!   block metadata.  The alert count and the metadata skip ratio are
//!   gated; delivery latency from wave start rides along ungated.
//!
//! Deterministic ratios and counts gate the `bench_compare` regression
//! check; wall-clock numbers ride along ungated.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use traj_bench::harness::{BenchReport, Direction};
use traj_data::{DatasetGenerator, DatasetKind};
use traj_geo::{BoundingBox, Point};
use traj_pipeline::{DeviceId, FleetAlgorithm, PipelineConfig};
use traj_store::{
    compress_fleet_into_shared_store, compress_fleet_into_store, ShardedStore, StoreConfig,
    TrajStore,
};

use traj_model::Trajectory;

const USAGE: &str = "usage: query_bench [--devices N>=16] [--points N] [--epsilon METERS] \
                     [--k N] [--probes N] [--fences N] [--seed N] [--out DIR]";

struct Options {
    devices: usize,
    points: usize,
    epsilon: f64,
    k: usize,
    probes: usize,
    fences: usize,
    seed: u64,
    out: PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            devices: 128,
            points: 500,
            epsilon: 30.0,
            k: 10,
            probes: 16,
            fences: 4,
            seed: 20170401,
            out: PathBuf::from("."),
        }
    }
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--devices" | "-n" => {
                o.devices = value()?.parse().map_err(|e| format!("{arg}: {e}"))?
            }
            "--points" | "-p" => o.points = value()?.parse().map_err(|e| format!("{arg}: {e}"))?,
            "--epsilon" | "-e" => {
                o.epsilon = value()?.parse().map_err(|e| format!("{arg}: {e}"))?
            }
            "--k" | "-k" => o.k = value()?.parse().map_err(|e| format!("{arg}: {e}"))?,
            "--probes" => o.probes = value()?.parse().map_err(|e| format!("{arg}: {e}"))?,
            "--fences" => o.fences = value()?.parse().map_err(|e| format!("{arg}: {e}"))?,
            "--seed" | "-s" => o.seed = value()?.parse().map_err(|e| format!("{arg}: {e}"))?,
            "--out" | "-o" => o.out = PathBuf::from(value()?),
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    if o.devices < 16 {
        return Err("query_bench needs --devices >= 16 (pruning needs a fleet)".into());
    }
    if o.points < 2 || o.k == 0 || o.probes == 0 || o.fences == 0 {
        return Err("query_bench needs --points >= 2, --k, --probes, --fences >= 1".into());
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("query_bench: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn percentile(sorted: &[Duration], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize].as_secs_f64() * 1e6
}

fn run(options: &Options) -> Result<(), String> {
    let algorithm = FleetAlgorithm::by_name("operb").ok_or("operb unavailable")?;
    eprintln!(
        "generating {} taxi trajectories of {} points (seed {}) …",
        options.devices, options.points, options.seed
    );
    let generator = DatasetGenerator::for_kind(DatasetKind::Taxi, options.seed);
    let fleet: Vec<(DeviceId, Trajectory)> = (0..options.devices)
        .map(|i| {
            (
                i as DeviceId,
                generator.generate_trajectory(i, options.points),
            )
        })
        .collect();
    let pipeline_config = PipelineConfig::new(options.epsilon).with_batch_size(256);
    let mut bench = BenchReport::new("query");

    knn_bench(options, &fleet, &pipeline_config, &algorithm, &mut bench)?;
    geofence_bench(options, &fleet, &pipeline_config, &algorithm, &mut bench)?;

    let path = bench
        .write_to(&options.out)
        .map_err(|e| format!("writing report: {e}"))?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// kNN over the compressed store: pruned search vs exhaustive scan, with
/// a bit-identical-ranking gate on every probe.
fn knn_bench(
    options: &Options,
    fleet: &[(DeviceId, Trajectory)],
    pipeline_config: &PipelineConfig,
    algorithm: &FleetAlgorithm,
    bench: &mut BenchReport,
) -> Result<(), String> {
    let mut store = TrajStore::new(StoreConfig::default().with_block_segments(32));
    let (_, ingested) = compress_fleet_into_store(fleet, pipeline_config, algorithm, &mut store)?;
    if ingested != fleet.len() {
        return Err(format!("only {ingested}/{} streams ingested", fleet.len()));
    }

    // Each probe is a 3-point query trajectory sampled along a real
    // device's path, so the nearest neighbours are non-trivial.
    let probes: Vec<Vec<Point>> = (0..options.probes)
        .map(|p| {
            let (_, traj) = &fleet[(p * 37) % fleet.len()];
            [traj.len() / 4, traj.len() / 2, 3 * traj.len() / 4]
                .iter()
                .map(|&i| traj.point(i.min(traj.len() - 1)))
                .collect()
        })
        .collect();

    let mut pruned_latencies = Vec::with_capacity(options.probes);
    let mut brute_latencies = Vec::with_capacity(options.probes);
    let (mut devices_total, mut devices_pruned) = (0u64, 0u64);
    let (mut blocks_total, mut blocks_decoded) = (0u64, 0u64);
    for (p, query) in probes.iter().enumerate() {
        let started = Instant::now();
        let result = store.knn(query, options.k);
        pruned_latencies.push(started.elapsed());

        let started = Instant::now();
        let brute = store.knn_bruteforce(query, options.k);
        brute_latencies.push(started.elapsed());

        let same =
            result.neighbors.len() == brute.neighbors.len()
                && result.neighbors.iter().zip(&brute.neighbors).all(|(a, b)| {
                    a.device == b.device && a.distance.to_bits() == b.distance.to_bits()
                });
        if !same {
            return Err(format!(
                "probe {p}: pruned kNN disagrees with brute force:\n  pruned: {:?}\n  brute:  {:?}",
                result.neighbors, brute.neighbors
            ));
        }
        devices_total += result.stats.devices_total as u64;
        devices_pruned += result.stats.devices_pruned as u64;
        blocks_total += result.stats.blocks_total as u64;
        blocks_decoded += result.stats.blocks_decoded as u64;
    }
    let device_prune = devices_pruned as f64 / devices_total.max(1) as f64;
    let block_prune = 1.0 - blocks_decoded as f64 / blocks_total.max(1) as f64;
    if devices_pruned == 0 {
        return Err("kNN never pruned a device from metadata — the bound is not biting".into());
    }
    pruned_latencies.sort_unstable();
    brute_latencies.sort_unstable();
    let speedup = brute_latencies.iter().sum::<Duration>().as_secs_f64()
        / pruned_latencies
            .iter()
            .sum::<Duration>()
            .as_secs_f64()
            .max(1e-12);

    println!(
        "── kNN (k = {}, {} probes, ranking ζ-verified) ──",
        options.k, options.probes
    );
    println!(
        "devices pruned  : {devices_pruned}/{devices_total} from metadata alone ({:.1}%)",
        device_prune * 100.0
    );
    println!(
        "blocks decoded  : {blocks_decoded}/{blocks_total} ({:.1}% skipped)",
        block_prune * 100.0
    );
    println!(
        "latency         : p50 {:.0} µs, p99 {:.0} µs (brute force p50 {:.0} µs, {speedup:.2}x)",
        percentile(&pruned_latencies, 0.50),
        percentile(&pruned_latencies, 0.99),
        percentile(&brute_latencies, 0.50),
    );
    println!("every probe bit-identical to the exhaustive scan");

    bench.push(
        "knn_device_prune_ratio",
        device_prune,
        "ratio",
        Direction::HigherIsBetter,
        true,
    );
    bench.push(
        "knn_block_prune_ratio",
        block_prune,
        "ratio",
        Direction::HigherIsBetter,
        true,
    );
    bench.push(
        "knn_p50_us",
        percentile(&pruned_latencies, 0.50),
        "us",
        Direction::LowerIsBetter,
        false,
    );
    bench.push(
        "knn_p99_us",
        percentile(&pruned_latencies, 0.99),
        "us",
        Direction::LowerIsBetter,
        false,
    );
    bench.push(
        "knn_speedup_vs_brute",
        speedup,
        "x",
        Direction::HigherIsBetter,
        false,
    );

    Ok(())
}

/// Continuous geofences under live ingest: alerts must match, exactly
/// once each, the qualifying set recomputed from block metadata.
fn geofence_bench(
    options: &Options,
    fleet: &[(DeviceId, Trajectory)],
    pipeline_config: &PipelineConfig,
    algorithm: &FleetAlgorithm,
    bench: &mut BenchReport,
) -> Result<(), String> {
    let store = Arc::new(ShardedStore::new(
        StoreConfig::default().with_block_segments(32),
        4,
    ));

    // Fences centred on real traffic, spread across distinct devices.
    let half = 300.0;
    for f in 0..options.fences {
        let (_, traj) = &fleet[(f * 29 + 7) % fleet.len()];
        let centre = traj.point(((f + 1) * traj.len() / (options.fences + 1)).min(traj.len() - 1));
        let region = BoundingBox {
            min_x: centre.x - half,
            min_y: centre.y - half,
            max_x: centre.x + half,
            max_y: centre.y + half,
        };
        store
            .geofences()
            .register(&format!("fence-{f}"), region, None)
            .map_err(|e| format!("fence {f}: {e}"))?;
    }

    // A listener thread timestamps each delivered alert; latency is
    // measured from the start of the ingest wave (the engine evaluates
    // fences synchronously at block-seal time, so this tracks how soon
    // after a block exists its alert is visible to a subscriber).
    let subscription = Arc::new(store.geofences().subscribe(1 << 20, None));
    let done = Arc::new(AtomicBool::new(false));
    let listener = {
        let subscription = Arc::clone(&subscription);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut arrivals: Vec<((u64, DeviceId, usize), Instant)> = Vec::new();
            loop {
                match subscription.recv_timeout(Duration::from_millis(20)) {
                    Some(alert) => {
                        arrivals
                            .push(((alert.fence_id, alert.device, alert.block), Instant::now()));
                    }
                    None if done.load(Ordering::Acquire) => break,
                    None => {}
                }
            }
            arrivals
        })
    };

    let wave_started = Instant::now();
    let (_, ingested) =
        compress_fleet_into_shared_store(fleet, pipeline_config, algorithm, &store)?;
    let ingest_elapsed = wave_started.elapsed();
    if ingested != fleet.len() {
        return Err(format!("only {ingested}/{} streams ingested", fleet.len()));
    }
    done.store(true, Ordering::Release);
    let arrivals = listener.join().map_err(|_| "listener panicked")?;

    // Independent ground truth: walk every sealed block's metadata with
    // the same public predicates the engine uses.
    let fences = store.geofences().fences();
    let mut expected: Vec<(u64, DeviceId, usize)> = Vec::new();
    for device in store.devices() {
        for (block, meta) in store.block_metas(device).iter().enumerate() {
            for fence in &fences {
                let time_ok = fence.time.is_none_or(|(t0, t1)| meta.overlaps_time(t0, t1));
                if meta.may_intersect_window(&fence.region) && time_ok {
                    expected.push((fence.id, device, block));
                }
            }
        }
    }
    expected.sort_unstable();
    let stats = store.geofences().stats();
    if subscription.dropped() > 0 {
        return Err(format!(
            "subscriber dropped {} alerts despite its capacity",
            subscription.dropped()
        ));
    }
    let mut got: Vec<(u64, DeviceId, usize)> = arrivals.iter().map(|(key, _)| *key).collect();
    got.sort_unstable();
    if got != expected {
        return Err(format!(
            "geofence alerts diverge from metadata ground truth: {} fired, {} expected",
            got.len(),
            expected.len()
        ));
    }
    let mut latencies: Vec<Duration> = arrivals
        .iter()
        .map(|(_, at)| at.duration_since(wave_started))
        .collect();
    latencies.sort_unstable();
    let skip_ratio = stats.blocks_skipped as f64 / stats.blocks_checked.max(1) as f64;

    println!(
        "\n── continuous geofences ({} fences over a live {}-device ingest) ──",
        options.fences,
        fleet.len()
    );
    println!(
        "alerts          : {} fired, exactly once per qualifying (fence, device, block)",
        got.len()
    );
    println!(
        "metadata walk   : {} checks, {} dismissed without decode ({:.1}%)",
        stats.blocks_checked,
        stats.blocks_skipped,
        skip_ratio * 100.0
    );
    if !latencies.is_empty() {
        println!(
            "delivery        : p50 {:.1} ms, p99 {:.1} ms after wave start (ingest took {:.1} ms)",
            percentile(&latencies, 0.50) / 1e3,
            percentile(&latencies, 0.99) / 1e3,
            ingest_elapsed.as_secs_f64() * 1e3
        );
    }

    bench.push(
        "geofence_alerts",
        got.len() as f64,
        "alerts",
        Direction::HigherIsBetter,
        true,
    );
    bench.push(
        "geofence_skip_ratio",
        skip_ratio,
        "ratio",
        Direction::HigherIsBetter,
        true,
    );
    bench.push(
        "geofence_alert_p99_ms",
        if latencies.is_empty() {
            0.0
        } else {
            percentile(&latencies, 0.99) / 1e3
        },
        "ms",
        Direction::LowerIsBetter,
        false,
    );
    bench.push(
        "geofence_ingest_points_per_sec",
        fleet.iter().map(|(_, t)| t.len()).sum::<usize>() as f64
            / ingest_elapsed.as_secs_f64().max(1e-12),
        "points/s",
        Direction::HigherIsBetter,
        false,
    );
    Ok(())
}
