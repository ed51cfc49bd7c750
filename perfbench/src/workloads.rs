//! The two workloads: set-up, the timed phase, the exact-reference
//! checks and (in traced runs) the per-layer measurements.
//!
//! * `ingest` — closed-loop fleet ingest of the four corpora with OPERB
//!   and OPERB-A at ζ = 5 and 40 into in-memory stores; then open-loop
//!   reads of one of those stores, every block resident.
//! * `serve_paged_live` — open-loop reads of a durable store paged through
//!   a cache of a tenth of its bytes, beside a fixed-rate write schedule
//!   that appends later points to the same devices under group commit.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use traj_model::{BlockFormat, SimplifiedTrajectory, Trajectory};
use traj_pipeline::{
    compress_fleet, compress_fleet_sequential, DeviceId, FleetAlgorithm, FleetResult,
    PipelineConfig,
};
use traj_service::{Server, ServiceConfig};
use traj_store::{
    compress_fleet_into_shared_store, DurabilityMode, ShardedStore, StoreConfig, StoreStats,
};

use crate::check::{self, AckedWrite};
use crate::inputs::{self, Endpoint, MixSpec, Query, ServeFleet, Stream};
use crate::layers;
use crate::loadgen::{self, Sample};
use crate::report::Report;
use crate::stats::{self, median, p99, quantile, sorted};
use crate::trace;

/// Shards of every store (the `trajsimp serve` default).
pub const SHARDS: usize = 16;
/// Pipeline workers of every ingest call (the benchmark is sized for two
/// cores).
pub const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// The ingest workload's set-up only generates inputs and takes tens of
/// milliseconds, so it is repeated for this long: the median of set-ups
/// made within one second moved with the host's speed of that second.
const INGEST_SETUP_S: f64 = 4.0;

/// The end-to-end metrics, printed by untraced runs of every workload.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "peak_rss_mb",
    "ingest_points_per_s",
    "ingest_segments_per_point",
    "ingest_bytes_per_point",
    "query_p50_ms",
    "write_ack_p50_ms",
];

/// Benchmark-side spans whose self time traced runs report.
pub const SPANS: [&str; 10] = [
    "ingest.call",
    "service.http",
    "core.simplify",
    "baselines.simplify",
    "pipeline.compress",
    "codec.encode",
    "codec.decode",
    "store.ingest",
    "store.query",
    "store.open",
];

/// The store layout every workload uses: FoR blocks, default codec.
pub fn store_config() -> StoreConfig {
    StoreConfig::default().with_format(BlockFormat::ForFixed)
}

/// A workload name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop fleet ingest, then reads against a resident store.
    Ingest,
    /// Reads against a paged durable store beside live writes.
    ServePagedLive,
}

impl Workload {
    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Ingest => "ingest",
            Self::ServePagedLive => "serve_paged_live",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "ingest" => Some(Self::Ingest),
            "serve_paged_live" => Some(Self::ServePagedLive),
            _ => None,
        }
    }
}

/// One run's parameters.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of an end-to-end run.
    pub trace: bool,
    /// Scratch directory for store files, under the working directory.
    pub dir: PathBuf,
}

// ---------------------------------------------------------------- sizes

/// Streams per corpus in the ingest fleet.
const INGEST_PER_CORPUS: usize = 12;
/// `(algorithm, ζ)` pairs the ingest fleet is compressed with.
const INGEST_CONFIGS: [(&str, f64); 4] = [
    ("operb", 5.0),
    ("operb", 40.0),
    ("operb-a", 5.0),
    ("operb-a", 40.0),
];
/// Streams per ingest call.
const INGEST_BATCH: usize = 2;
/// Ingest calls the closed loop makes at least, whatever the time, so
/// the ack p99 has ten samples beyond it.
const MIN_CALLS: usize = 1100;
/// Share of the measured time the ingest workload spends ingesting; the
/// rest reads the OPERB ζ = 40 store.
const INGEST_SHARE: f64 = 0.55;
/// Live writes `serve_paged_live` makes at least, so the ack p99 has ten
/// samples beyond it.
const MIN_WRITES: usize = 1100;

/// Devices of the serving fleet.
const SERVE_DEVICES: usize = 400;
/// Seconds of driving loaded at set-up.
const SERVE_SPAN_S: f64 = 3.0 * 3600.0;
/// Algorithm and ζ of the serving store.
const SERVE_ALGO: &str = "operb";
const SERVE_ZETA: f64 = 20.0;
/// Devices per ingest call when loading the serving store.
const LOAD_BATCH: usize = 2;
/// Devices per live write call.
const WRITE_BATCH: usize = 1;
/// Seconds of driving per live write chunk.
const CHUNK_S: f64 = 600.0;
/// Live write calls per second (`serve_paged_live`).
const WRITE_RATE: f64 = 60.0;
/// Consecutive live writes per group; `ingest_points_per_s` comes from
/// the groups' rates (`stats::undisturbed_rate`), so a stall of the disk
/// during a few writes does not set it.  A multiple of 4, so each group
/// holds every corpus alike.
const RATE_GROUP: usize = 40;
/// Group-commit window of the durable store.
const GROUP_COMMIT: Duration = Duration::from_millis(2);
/// The paged store's cache as a share of its stored bytes.
const CACHE_SHARE: f64 = 0.1;

/// The read mix with `/knn` (ingest, and the direct store calls of a
/// traced `serve_paged_live` run).  Windows and kNN cost several times a
/// point lookup; at one in five requests the median request is a light
/// one, not one on the boundary between the two cost modes.
const MIX: MixSpec = MixSpec {
    weights: [5, 3, 1, 1],
    window_m: 100.0,
    window_s: 300.0,
    slice_s: 900.0,
    knn_k: 5,
    knn_points: 4,
};
/// The read mix without `/knn` (serve_paged_live).
const MIX_PAGED: MixSpec = MixSpec {
    weights: [5, 3, 1, 0],
    ..MIX
};

/// The open-loop read schedule of one workload: fixed-rate blocks the
/// latency percentiles come from (each long enough for a p99 with ten
/// samples beyond it), each followed by saturation probes the sustained
/// rate comes from, then a ladder of higher fixed rates that stops once
/// the system cannot sustain them.
#[derive(Debug, Clone, Copy)]
struct ReadPlan {
    /// Generator threads (one open connection each).
    threads: usize,
    /// Rate of the fixed-rate blocks, per second.
    nominal_rate: f64,
    /// Share of `--seconds` the fixed-rate blocks take; the probes and
    /// the ladder take five to fifteen seconds more.
    block_share: f64,
    /// Fixed-rate blocks a read phase runs at least.
    min_blocks: usize,
    /// Saturation probes after each fixed-rate block.
    probes_per_block: usize,
    /// Requests per saturation probe, about half a second of the work
    /// the workload sustains on two cores.
    probe_requests: usize,
    /// The ladder's rates: `ladder_start · LADDER_STEP^i` for
    /// `i < RUNGS`.
    ladder_start: f64,
}

/// The ladders start near two thirds of the rate each workload sustains
/// on two cores and top out at eight times their start.
const LADDER_STEP: f64 = 1.15;
const RUNGS: usize = 16;
/// Seconds per rung.
const RUNG_S: f64 = 0.5;
/// The latency limit a rung's p99 and its closing backlog must meet, in
/// ms.
const LIMIT_MS: f64 = 250.0;

/// Query requests per fixed-rate block.
const BLOCK_REQUESTS: usize = 1100;
/// Distinct read requests generated per run.  The generator cycles
/// through them; no answer depends on the requests before it.
const POOL: usize = 16_384;
/// Read requests a traced run calls directly on the store.
const DIRECT_QUERIES: usize = 2000;

impl ReadPlan {
    /// Fixed-rate blocks in a read phase of a `seconds` run.
    fn blocks(&self, seconds: f64) -> usize {
        ((seconds * self.block_share * self.nominal_rate / BLOCK_REQUESTS as f64) as usize)
            .max(self.min_blocks)
    }
}

/// The longest a read phase of a `seconds` run can take: its fixed-rate
/// blocks, its probes at no less than two thirds of the rate the
/// workload sustains (`ladder_start`), then every rung run twice, each
/// stretched by its backlog to at most 1.5 s (the failing rungs that end
/// the ladder offer at most 1.15² ≈ 1.3 times the rate served).
fn max_read_s(plan: &ReadPlan, seconds: f64) -> f64 {
    let blocks = plan.blocks(seconds) as f64;
    let blocks_s = blocks * BLOCK_REQUESTS as f64 / plan.nominal_rate;
    let probes_s =
        blocks * (plan.probes_per_block * plan.probe_requests) as f64 / plan.ladder_start;
    blocks_s + probes_s + (2 * RUNGS) as f64 * 1.5 * RUNG_S
}

const PLAN_INGEST: ReadPlan = ReadPlan {
    threads: 1,
    nominal_rate: 600.0,
    block_share: 0.5,
    min_blocks: 3,
    probes_per_block: 2,
    probe_requests: 2000,
    ladder_start: 3000.0,
};
/// One generator thread reads; the other writes.  Five blocks at least,
/// so the writes made during them are enough for a p99 with ten samples
/// beyond it.
const PLAN_PAGED: ReadPlan = ReadPlan {
    threads: 1,
    nominal_rate: 250.0,
    block_share: 0.6,
    min_blocks: 5,
    probes_per_block: 4,
    probe_requests: 2000,
    ladder_start: 2400.0,
};

// ---------------------------------------------------------- shared pieces

fn algorithm(name: &str) -> FleetAlgorithm {
    FleetAlgorithm::by_name(name).expect("registered algorithm")
}

fn pipeline_config(zeta: f64) -> PipelineConfig {
    PipelineConfig::new(zeta).with_workers(WORKERS)
}

/// One timed ingest call through the pipeline into `store`.
fn ingest_call(
    batch: &[(DeviceId, Trajectory)],
    algo: &FleetAlgorithm,
    zeta: f64,
    store: &ShardedStore,
) -> (f64, Result<(), String>) {
    let started = Instant::now();
    let result = {
        let _span = trace::span("ingest.call");
        compress_fleet_into_shared_store(batch, &pipeline_config(zeta), algo, store)
    };
    let secs = started.elapsed().as_secs_f64();
    let ok = match result {
        Ok((_, n)) if n == batch.len() => Ok(()),
        Ok((_, n)) => Err(format!("{n} of {} streams ingested", batch.len())),
        Err(e) => Err(e),
    };
    (secs, ok)
}

fn outputs_by_device(results: &[FleetResult]) -> Vec<(DeviceId, SimplifiedTrajectory)> {
    let mut out: Vec<_> = results
        .iter()
        .filter_map(|r| r.output.as_ref().ok().map(|o| (r.device, o.clone())))
        .collect();
    out.sort_by_key(|(d, _)| *d);
    out
}

/// A store holding the same data as the served one, built by the second
/// path: the sequential driver's outputs ingested one by one.
fn reference_store(
    streams: &[Stream],
    sequential: &[(DeviceId, SimplifiedTrajectory)],
    zeta: f64,
) -> ShardedStore {
    let store = ShardedStore::new(store_config(), SHARDS);
    for (s, (d, out)) in streams.iter().zip(sequential) {
        assert_eq!(s.device, *d);
        store
            .ingest_with_original(s.device, s.traj.points(), out, zeta)
            .expect("reference ingest");
    }
    store
}

/// Checks the parallel pipeline against the sequential driver, the
/// stored segments against the pipeline output, and every output against
/// ζ.  Returns the sequential outputs by device.
fn check_fleet(
    streams: &[Stream],
    algo_name: &str,
    zeta: f64,
    stored: &ShardedStore,
    report: &mut Report,
) -> Vec<(DeviceId, SimplifiedTrajectory)> {
    let fleet = inputs::fleet_of(streams);
    let algo = algorithm(algo_name);
    let parallel = compress_fleet(&fleet, &pipeline_config(zeta), &algo);
    let sequential = compress_fleet_sequential(&fleet, zeta, &algo);
    if let Err(e) = check::same_fleet_output(&parallel.results, &sequential.results) {
        report.mismatch(format!("{algo_name} ζ={zeta}: {e}"));
    }
    let outputs = outputs_by_device(&sequential.results);
    let codec = store_config().codec;
    report.attempted += streams.len() as u64;
    for (s, (_, out)) in streams.iter().zip(&outputs) {
        let t = s.traj.points();
        let got = stored
            .time_slice(s.device, t[0].t - 1.0, t[t.len() - 1].t)
            .segments;
        if let Err(e) = check::stored_matches_output(s.device, out, &got, &codec) {
            report.mismatch(format!("{algo_name} ζ={zeta}: {e}"));
        }
    }
    let started = Instant::now();
    let violations = zeta_violations(streams, &outputs, algo_name, zeta);
    eprintln!(
        "ζ check of {} streams in {:.1} s",
        streams.len(),
        started.elapsed().as_secs_f64()
    );
    for v in violations {
        report.zeta_violation(v);
    }
    outputs
}

/// ζ check of every output with `traj_metrics::check_error_bound` (no
/// slack), on two threads.  One line per violating stream, naming its
/// reproducer and its worst point.
fn zeta_violations(
    streams: &[Stream],
    outputs: &[(DeviceId, SimplifiedTrajectory)],
    algo_name: &str,
    zeta: f64,
) -> Vec<String> {
    let pairs: Vec<(&Stream, &SimplifiedTrajectory)> =
        streams.iter().zip(outputs.iter().map(|(_, o)| o)).collect();
    on_two_threads(&pairs, |&(s, out)| {
        let v = traj_metrics::check_error_bound(&s.traj, out, zeta);
        let worst = v.iter().max_by(|a, b| a.distance.total_cmp(&b.distance))?;
        Some(format!(
            "{algo_name} ζ={zeta}: DatasetGenerator::for_kind({}, {}).generate_trajectory({}, {}) \
                     (device {}): {} points over ζ, worst point {} at {:.4} m",
            s.corpus.name(),
            s.seed,
            s.index,
            s.traj.len(),
            s.device,
            v.len(),
            worst.point_index,
            worst.distance
        ))
    })
    .into_iter()
    .flatten()
    .collect()
}

fn start_server(store: &Arc<ShardedStore>, traced: bool) -> Server {
    let mut config = ServiceConfig::default();
    if traced {
        config = config.with_slow_query_threshold(Some(Duration::ZERO));
    }
    Server::start(Arc::clone(store), "127.0.0.1:0", config).expect("bind a loopback port")
}

// ------------------------------------------------------------ read phase

/// What one read phase measured.
#[derive(Default)]
struct ReadOut {
    /// Every request sent (fixed-rate blocks, probes and ladder).
    samples: Vec<Sample>,
    /// Per fixed-rate block, the indices into `samples` of its query
    /// requests.
    blocks: Vec<Vec<usize>>,
    /// When each fixed-rate block started and ended.
    block_times: Vec<(Instant, Instant)>,
    /// Requests per second served under saturation.
    sustained_qps: f64,
}

impl ReadOut {
    /// The query requests of every fixed-rate block.
    fn nominal(&self) -> impl Iterator<Item = &Sample> {
        self.blocks.iter().flatten().map(|&i| &self.samples[i])
    }

    /// Each block's latency `q`-quantile, in ms.
    fn per_block(&self, q: f64) -> Vec<f64> {
        self.blocks
            .iter()
            .map(|b| {
                let lat = sorted(b.iter().map(|&i| latency_ms(&self.samples[i])).collect());
                if q > 0.5 {
                    p99(&lat, "query latency")
                } else {
                    quantile(&lat, q)
                }
            })
            .collect()
    }

    /// The lowest block median, in ms.  Interference from outside the
    /// program, such as CPU steal on a shared machine, only adds latency,
    /// so the least disturbed block gives the figure.
    fn p50_ms(&self) -> f64 {
        self.per_block(0.5)
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    }

    /// Median over blocks of the block's p99, in ms, so one stalled block
    /// does not set it.
    fn p99_ms(&self) -> f64 {
        median(&self.per_block(0.99))
    }
}

/// Latency from due time; a failed request counts as infinitely late.
fn latency_ms(s: &Sample) -> f64 {
    if s.ok() {
        s.latency_ms()
    } else {
        f64::INFINITY
    }
}

/// One rung of the ladder.
struct Rung {
    /// Offered rate.
    rate: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// Requests completed per second over the rung (first due time to
    /// last completion).
    completed_rate: f64,
    /// p99 and the closing backlog within the limit, and requests
    /// completed at (nearly) the offered rate.
    passed: bool,
}

/// Failed rungs in a row that end the ladder.
const SATURATED_RUNGS: usize = 2;

/// A rung keeps up when it completes requests at this share of the
/// offered rate or more; below it the backlog grows.
const KEEP_UP: f64 = 0.95;

/// Requests completed per second, from the first due time to the last
/// completion.
fn completed_rate(samples: &[Sample]) -> f64 {
    let span =
        samples.iter().map(|s| s.done).fold(0.0, f64::max) - samples.first().map_or(0.0, |s| s.due);
    samples.len() as f64 / span.max(1e-9)
}

fn rung(samples: &[Sample], rate: f64) -> Rung {
    let lat = sorted(samples.iter().map(latency_ms).collect());
    let late_end = samples.last().map_or(0.0, |s| (s.sent - s.due) * 1e3);
    let p99 = quantile(&lat, 0.99);
    let completed_rate = completed_rate(samples);
    Rung {
        rate,
        p50_ms: quantile(&lat, 0.5),
        p99_ms: p99,
        completed_rate,
        passed: p99 < LIMIT_MS && late_end < LIMIT_MS && completed_rate >= KEEP_UP * rate,
    }
}

/// Sends `n` requests at `rate`, the next ones of the query pool
/// (`pool[1..]`, cycled through from `*cursor`), plus one `/metrics`
/// scrape (`pool[0]`) per second.
fn fixed_rate(
    addr: SocketAddr,
    pool: &[Query],
    cursor: &mut usize,
    rate: f64,
    n: usize,
    threads: usize,
) -> Vec<Sample> {
    let queries = pool.len() - 1;
    let mut sched: Vec<(f64, usize)> = loadgen::schedule(rate, n, 0.0)
        .into_iter()
        .enumerate()
        .map(|(i, due)| (due, 1 + (*cursor + i) % queries))
        .collect();
    *cursor += n;
    // Scrapes at 0.5 s, 1.5 s, … within the block, never after its end.
    let secs = n as f64 / rate;
    sched.extend((0..(secs + 0.5) as usize).map(|k| (k as f64 + 0.5, 0)));
    sched.sort_by(|a, b| a.0.total_cmp(&b.0));
    let idx: Vec<usize> = sched.iter().map(|s| s.1).collect();
    let due: Vec<f64> = sched.iter().map(|s| s.0).collect();
    loadgen::run(addr, pool, &idx, &due, threads)
}

/// Runs the fixed-rate blocks, each followed by `probes_per_block`
/// saturation probes, then the rate ladder.  A probe sends
/// `probe_requests` requests all due at once, so the generator sends back
/// to back; its completion rate is the rate the system serves once
/// offered more than it can.  `query_sustained_qps` is the upper
/// quartile of the probe rates over the probes that ran with the least
/// CPU time stolen by other tenants (`stats::undisturbed_rate`);
/// spreading the probes over the whole phase keeps one burst of
/// interference from covering them all.
/// The ladder only reports latency at fixed rates: a rung that misses
/// the limit is run once more, so a stall of the machine does not end it
/// early, and it stops after `SATURATED_RUNGS` rungs in a row failed twice
/// each.
fn read_phase(
    addr: SocketAddr,
    pool: &[Query],
    cursor: &mut usize,
    plan: &ReadPlan,
    seconds: f64,
) -> ReadOut {
    let mut out = ReadOut::default();
    let mut probes = Vec::new();
    for _ in 0..plan.blocks(seconds) {
        let started = Instant::now();
        let samples = fixed_rate(
            addr,
            pool,
            cursor,
            plan.nominal_rate,
            BLOCK_REQUESTS,
            plan.threads,
        );
        out.block_times.push((started, Instant::now()));
        let base = out.samples.len();
        out.blocks.push(
            (0..samples.len())
                .filter(|&i| samples[i].query != 0)
                .map(|i| base + i)
                .collect(),
        );
        out.samples.extend(samples);
        for _ in 0..plan.probes_per_block {
            let before = stats::CpuTicks::now();
            let samples = fixed_rate(
                addr,
                pool,
                cursor,
                f64::INFINITY,
                plan.probe_requests,
                plan.threads,
            );
            probes.push((
                completed_rate(&samples),
                before.stolen_share(stats::CpuTicks::now()),
            ));
            out.samples.extend(samples);
        }
    }
    let mut rungs = Vec::new();
    let mut failed_in_a_row = 0;
    'ladder: for i in 0..RUNGS {
        let rate = plan.ladder_start * LADDER_STEP.powi(i as i32);
        for _attempt in 0..2 {
            let n = (rate * RUNG_S).round() as usize;
            let samples = fixed_rate(addr, pool, cursor, rate, n, plan.threads);
            let r = rung(&samples, rate);
            out.samples.extend(samples);
            let passed = r.passed;
            rungs.push(r);
            if passed {
                failed_in_a_row = 0;
                continue 'ladder;
            }
        }
        failed_in_a_row += 1;
        if failed_in_a_row == SATURATED_RUNGS {
            break;
        }
    }
    {
        let nom: Vec<&Sample> = out.nominal().collect();
        let late = sorted(nom.iter().map(|s| (s.sent - s.due) * 1e3).collect());
        let svc = sorted(nom.iter().map(|s| s.service_us() / 1e3).collect());

        eprintln!(
            "  fixed rate {}/s: late p50 {:.3} p99 {:.3} ms, service p50 {:.3} p99 {:.3} ms, block p50 {:.3?} p99 {:.3?} ms",
            plan.nominal_rate,
            quantile(&late, 0.5),
            quantile(&late, 0.99),
            quantile(&svc, 0.5),
            quantile(&svc, 0.99),
            out.per_block(0.5),
            out.per_block(0.99),
        );
    }
    eprintln!(
        "  saturation probes of {} requests: completed/s (stolen CPU share) {:.1?}",
        plan.probe_requests,
        probes
            .iter()
            .map(|&(rate, stolen)| (rate, stolen * 100.0))
            .collect::<Vec<_>>()
    );
    for r in &rungs {
        eprintln!(
            "  rate {:8.1}/s  p50 {:8.3} ms  p99 {:8.3} ms  completed {:8.1}/s  {}",
            r.rate,
            r.p50_ms,
            r.p99_ms,
            r.completed_rate,
            if r.passed { "ok" } else { "over limit" }
        );
    }
    out.sustained_qps = stats::undisturbed_rate(&probes);
    out
}

/// `f` of every item, on two threads, in item order.
fn on_two_threads<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let (a, b) = items.split_at(items.len().div_ceil(2));
    std::thread::scope(|scope| {
        let first = scope.spawn(|| a.iter().map(&f).collect::<Vec<_>>());
        let mut second: Vec<R> = b.iter().map(&f).collect();
        let mut out = first.join().expect("check thread panicked");
        out.append(&mut second);
        out
    })
}

/// How a read went wrong.
enum BadRead {
    /// No 200 answer: a failed operation.
    Failed(String),
    /// A 200 answer that differs from its reference.
    Wrong(String),
}

/// Checks every read answer against the direct call on `reference`,
/// made once per distinct request.  Each distinct answer text is checked
/// once, and its verdict applies to every sample that received it.
fn check_reads(reference: &ShardedStore, pool: &[Query], samples: &[Sample], report: &mut Report) {
    report.attempted += samples.len() as u64;
    let mut asked: Vec<usize> = samples
        .iter()
        .map(|s| s.query)
        .filter(|&q| q != 0)
        .collect();
    asked.sort_unstable();
    asked.dedup();
    let answers: HashMap<usize, check::Answer> = asked
        .iter()
        .copied()
        .zip(on_two_threads(&asked, |&q| {
            check::reference(reference, &pool[q])
        }))
        .collect();
    let mut distinct: Vec<(usize, &str)> = samples
        .iter()
        .filter_map(|s| match &s.response {
            Ok(r) if r.status == 200 => Some((s.query, r.body.as_str())),
            _ => None,
        })
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    let verdicts: HashMap<(usize, &str), Result<(), String>> = distinct
        .iter()
        .copied()
        .zip(on_two_threads(&distinct, |&(q, body)| {
            if q == 0 {
                check::check_metrics_scrape(body)
            } else {
                check::check_answer(&answers[&q], &pool[q], body)
            }
        }))
        .collect();
    for s in samples {
        let query = &pool[s.query];
        let outcome = match &s.response {
            Err(e) => Err(BadRead::Failed(format!("{}: {e}", query.target()))),
            Ok(r) if r.status != 200 => Err(BadRead::Failed(format!(
                "{}: status {}",
                query.target(),
                r.status
            ))),
            Ok(r) => verdicts[&(s.query, r.body.as_str())]
                .clone()
                .map_err(BadRead::Wrong),
        };
        match outcome {
            Ok(()) => {}
            Err(BadRead::Failed(e)) => report.fail(e),
            Err(BadRead::Wrong(e)) => report.mismatch(e),
        }
    }
}

/// Query latency figures of a read phase, with a per-endpoint breakdown
/// on standard error.
fn put_query_metrics(out: &ReadOut, pool: &[Query], report: &mut Report) {
    for ep in Endpoint::QUERIES.iter().chain([&Endpoint::Metrics]) {
        let of_ep: Vec<&Sample> = out
            .samples
            .iter()
            .filter(|s| pool[s.query].endpoint() == *ep)
            .collect();
        let svc = sorted(of_ep.iter().map(|s| s.service_us()).collect());
        let bytes: usize = of_ep
            .iter()
            .map(|s| s.response.as_ref().map_or(0, |r| r.body.len()))
            .sum();
        eprintln!(
            "  {:12} n {:6}  service p50 {:9.1} us  p99 {:9.1} us  mean body {:8.0} B",
            ep.name(),
            of_ep.len(),
            quantile(&svc, 0.5),
            quantile(&svc, 0.99),
            bytes as f64 / of_ep.len().max(1) as f64
        );
    }
    report.put("query_p50_ms", out.p50_ms(), "ms");
    report.put("query_p99_ms", out.p99_ms(), "ms");
    report.put("query_sustained_qps", out.sustained_qps, "1/s");
}

/// Service-side per-layer figures of a read phase.
fn put_service_metrics(
    out: &ReadOut,
    pool: &[Query],
    direct_us: &std::collections::BTreeMap<Endpoint, f64>,
    report: &mut Report,
) {
    for ep in Endpoint::QUERIES {
        let of_ep: Vec<&Sample> = out
            .nominal()
            .filter(|s| pool[s.query].endpoint() == ep && s.ok())
            .collect();
        let http = median(&of_ep.iter().map(|s| s.service_us()).collect::<Vec<_>>());
        let bytes = of_ep
            .iter()
            .map(|s| s.response.as_ref().map_or(0, |r| r.body.len()))
            .sum::<usize>() as f64
            / of_ep.len().max(1) as f64;
        report.put(format!("service.http_us.{}", ep.name()), http, "us");
        let overhead = if of_ep.is_empty() {
            0.0
        } else {
            http - direct_us[&ep]
        };
        report.put(format!("service.overhead_us.{}", ep.name()), overhead, "us");
        report.put(format!("service.response_bytes.{}", ep.name()), bytes, "B");
    }
    let rejected = out
        .samples
        .iter()
        .filter(|s| matches!(&s.response, Ok(r) if r.status == 503))
        .count();
    report.put("service.rejected", rejected as f64, "count");
    let scrapes: Vec<f64> = out
        .samples
        .iter()
        .filter(|s| s.query == 0 && s.ok())
        .map(Sample::service_us)
        .collect();
    report.put("obs.metrics_scrape_us", median(&scrapes), "us");
    let late = sorted(out.nominal().map(|s| (s.sent - s.due) * 1e3).collect());
    report.put("loadgen.late_p99_ms", quantile(&late, 0.99), "ms");
}

/// Writes a `/trace` sample of the in-program spans next to the run's
/// span file and prints which spans it holds.
fn keep_trace_sample(addr: SocketAddr, path: &Path) {
    match loadgen::get(addr, "/trace?limit=8") {
        Ok(r) if r.status == 200 => {
            let mut names: Vec<&str> = r
                .body
                .split("\"name\":\"")
                .skip(1)
                .filter_map(|s| s.split('"').next())
                .filter(|n| !n.starts_with('/'))
                .collect();
            names.sort_unstable();
            names.dedup();
            eprintln!(
                "/trace sample ({} bytes) holds spans: {}",
                r.body.len(),
                names.join(", ")
            );
            if let Err(e) = std::fs::write(path, &r.body) {
                eprintln!("cannot write {}: {e}", path.display());
            }
        }
        other => eprintln!("/trace sample unavailable: {other:?}"),
    }
}

// ---------------------------------------------------------------- ingest

struct IngestOut {
    /// Raw points per second inside the ingest calls and the share of CPU
    /// time stolen from the machine, per full pass.
    pass_rates: Vec<(f64, f64)>,
    /// The median ingest call latency and the stolen share, per full
    /// pass.
    pass_acks_ms: Vec<(f64, f64)>,
    acks_ms: Vec<f64>,
    /// The stores of the first full pass, one per `INGEST_CONFIGS` entry.
    stores: Vec<Arc<ShardedStore>>,
}

/// Closed-loop ingest: passes over every `INGEST_CONFIGS` pair, each pass
/// into fresh stores, until `seconds` have passed (the first pass always
/// completes).  Later passes must store exactly what the first did.
/// The throughput comes from the less disturbed passes
/// (`stats::undisturbed_rate`), so a stall of the machine during a few
/// passes does not set it.
fn ingest_loop(fleet: &[(DeviceId, Trajectory)], seconds: f64, report: &mut Report) -> IngestOut {
    let mut out = IngestOut {
        pass_rates: Vec::new(),
        pass_acks_ms: Vec::new(),
        acks_ms: Vec::new(),
        stores: Vec::new(),
    };
    let algos: Vec<FleetAlgorithm> = INGEST_CONFIGS.iter().map(|(a, _)| algorithm(a)).collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut first: Vec<StoreStats> = Vec::new();
    'passes: for pass in 0.. {
        let (mut points, mut busy_s) = (0usize, 0.0);
        let (before, first_call) = (stats::CpuTicks::now(), out.acks_ms.len());
        for (c, &(name, zeta)) in INGEST_CONFIGS.iter().enumerate() {
            let store = ShardedStore::new(store_config(), SHARDS);
            for batch in fleet.chunks(INGEST_BATCH) {
                if pass > 0 && Instant::now() >= deadline && out.acks_ms.len() >= MIN_CALLS {
                    break 'passes;
                }
                let (secs, result) = ingest_call(batch, &algos[c], zeta, &store);
                busy_s += secs;
                out.acks_ms.push(secs * 1e3);
                points += batch.iter().map(|(_, t)| t.len()).sum::<usize>();
                if let Err(e) = result {
                    report.fail(format!("ingest {name} ζ={zeta}: {e}"));
                }
            }
            if pass == 0 {
                first.push(store.stats());
                out.stores.push(Arc::new(store));
            } else if store.stats() != first[c] {
                report.mismatch(format!(
                    "ingest {name} ζ={zeta}: pass {pass} stored different data"
                ));
            }
        }
        let stolen = before.stolen_share(stats::CpuTicks::now());
        out.pass_rates.push((points as f64 / busy_s, stolen));
        out.pass_acks_ms
            .push((median(&out.acks_ms[first_call..]), stolen));
        if Instant::now() >= deadline && out.acks_ms.len() >= MIN_CALLS {
            break;
        }
    }
    out
}

fn run_ingest(args: &Args, report: &mut Report) {
    let mut setups = Vec::new();
    let mut prepared = None;
    let first = Instant::now();
    while setups.len() < SETUPS || first.elapsed().as_secs_f64() < INGEST_SETUP_S {
        // Free the previous set-up before building the next.
        drop(prepared.take());
        let started = Instant::now();
        let streams = inputs::corpus_fleet(args.seed, INGEST_PER_CORPUS);
        let fleet = inputs::fleet_of(&streams);
        let time_end = streams
            .iter()
            .map(|s| s.traj.last().t)
            .fold(f64::INFINITY, f64::min);
        let mut pool = vec![Query::Metrics];
        pool.extend(inputs::query_mix(args.seed, &streams, time_end, &MIX, POOL));
        setups.push(started.elapsed().as_secs_f64());
        prepared = Some((streams, fleet, pool));
    }
    let (streams, fleet, pool) = prepared.expect("at least one set-up");
    report.put("setup_s", median(&setups), "s");

    let read_config = 1; // OPERB at ζ = 40
    let mut cursor = 0;
    let started = Instant::now();
    let ingest = ingest_loop(&fleet, args.seconds * INGEST_SHARE, report);
    let rss = stats::peak_rss_mb();
    let server = start_server(&ingest.stores[read_config], false);
    let reads = read_phase(
        server.local_addr(),
        &pool,
        &mut cursor,
        &PLAN_INGEST,
        args.seconds,
    );
    eprintln!("measured for {:.1} s", started.elapsed().as_secs_f64());
    let mut all_reads = reads.samples.clone();
    report.put("peak_rss_mb", rss, "MB");
    report.put(
        "ingest_points_per_s",
        stats::undisturbed_rate(&ingest.pass_rates),
        "points/s",
    );
    let acks = sorted(ingest.acks_ms.clone());
    report.put(
        "write_ack_p50_ms",
        stats::undisturbed_latency(&ingest.pass_acks_ms),
        "ms",
    );
    report.put("write_ack_p99_ms", p99(&acks, "ingest call latency"), "ms");
    let (mut segments, mut bytes, mut points) = (0usize, 0usize, 0usize);
    for s in &ingest.stores {
        let st = s.stats();
        segments += st.segments;
        bytes += st.stored_bytes;
        points += st.points;
    }
    report.put(
        "ingest_segments_per_point",
        segments as f64 / points as f64,
        "segments/point",
    );
    report.put(
        "ingest_bytes_per_point",
        bytes as f64 / points as f64,
        "B/point",
    );
    put_query_metrics(&reads, &pool, report);
    if args.trace {
        let (overhead, samples) = trace_overhead(
            &ingest.stores[read_config],
            server.local_addr(),
            &pool,
            &mut cursor,
            &PLAN_INGEST,
            &trace_path(args, "service.json"),
        );
        report.put("obs.trace_overhead_share", overhead, "ratio");
        all_reads.extend(samples);
    }
    server.stop();

    eprintln!(
        "ingest: {} calls in {} passes, points/s (stolen CPU share): {:.0?}; checking",
        ingest.acks_ms.len(),
        ingest.pass_rates.len(),
        ingest
            .pass_rates
            .iter()
            .map(|&(rate, stolen)| (rate, stolen * 100.0))
            .collect::<Vec<_>>()
    );
    // Checks, after timing.
    let mut read_outputs = Vec::new();
    for (c, &(name, zeta)) in INGEST_CONFIGS.iter().enumerate() {
        let outputs = check_fleet(&streams, name, zeta, &ingest.stores[c], report);
        if c == read_config {
            read_outputs = outputs;
        }
    }
    let reference = reference_store(&streams, &read_outputs, INGEST_CONFIGS[read_config].1);
    check_reads(&reference, &pool, &all_reads, report);

    if args.trace {
        per_layer(
            &streams,
            &ingest.stores[read_config],
            &pool[1..DIRECT_QUERIES + 1],
            &pool,
            &reads,
            report,
        );
        let open = {
            let dir = args.dir.join("ingest-store");
            ingest.stores[read_config]
                .save(&dir)
                .expect("save the read store");
            let started = Instant::now();
            let _span = trace::span("store.open");
            ShardedStore::open_with(&dir, SHARDS, store_config()).expect("reopen the read store");
            started.elapsed().as_secs_f64()
        };
        report.put("store.open_s", open, "s");
        report.put("store.pager_hit_ratio", 0.0, "ratio");
        report.put("store.pager_misses_per_query", 0.0, "count");
        report.put("store.wal_syncs_per_ingest", 0.0, "count");
    }
}

/// The per-layer measurements every traced run makes on its workload's
/// inputs: up to 48 of its raw streams, and its read store, on which the
/// `direct` queries are called.
fn per_layer(
    streams: &[Stream],
    store: &ShardedStore,
    direct: &[Query],
    pool: &[Query],
    reads: &ReadOut,
    report: &mut Report,
) {
    let probe: Vec<Stream> = streams
        .iter()
        .step_by((streams.len() / 48).max(1))
        .take(48)
        .cloned()
        .collect();
    layers::core_and_baselines(&probe, report);
    layers::pipeline(&probe, report);
    layers::codec_and_store_ingest(&probe, report);
    let direct_us = layers::store_queries(store, direct, report);
    put_service_metrics(reads, pool, &direct_us, report);
}

fn trace_path(args: &Args, suffix: &str) -> PathBuf {
    args.dir.parent().unwrap_or(Path::new(".")).join(format!(
        "trace-{}-seed{}-{suffix}",
        args.workload.name(),
        args.seed
    ))
}

// ----------------------------------------------------------------- serve

struct ServeSetup {
    fleet: ServeFleet,
    store: Arc<ShardedStore>,
    pool: Vec<Query>,
    writes: Vec<Vec<(DeviceId, Trajectory)>>,
    loaded: StoreStats,
    open_s: f64,
}

/// Generates the fleet, its live chunks for `writes` write calls and the
/// read mix, loads the store through the pipeline, saves it, reopens it
/// durable and warms its cache.
fn serve_setup(args: &Args, writes: usize) -> ServeSetup {
    let chunks = (writes * WRITE_BATCH).div_ceil(SERVE_DEVICES) + 1;
    let fleet = inputs::serve_fleet(args.seed, SERVE_DEVICES, SERVE_SPAN_S, chunks, CHUNK_S);
    let mut pool = vec![Query::Metrics];
    pool.extend(inputs::query_mix(
        args.seed,
        &fleet.setup,
        fleet.common_end,
        &MIX_PAGED,
        POOL,
    ));
    let mut batches = Vec::new();
    for k in 0..chunks {
        for d in (0..SERVE_DEVICES).step_by(WRITE_BATCH) {
            batches.push(
                (d..(d + WRITE_BATCH).min(SERVE_DEVICES))
                    .map(|d| (d as DeviceId, fleet.live[d][k].clone()))
                    .collect(),
            );
        }
    }

    let loading = ShardedStore::new(store_config(), SHARDS);
    let algo = algorithm(SERVE_ALGO);
    for batch in inputs::fleet_of(&fleet.setup).chunks(LOAD_BATCH) {
        ingest_call(batch, &algo, SERVE_ZETA, &loading)
            .1
            .expect("set-up load");
    }
    let loaded = loading.stats();
    let dir = args.dir.join("store");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear the previous set-up's store");
    }
    loading.save(&dir).expect("save the store");
    drop(loading);
    let started = Instant::now();
    let store = {
        let _span = trace::span("store.open");
        let cache = (loaded.stored_bytes as f64 * CACHE_SHARE) as usize;
        let config = store_config()
            .with_durability(DurabilityMode::WalGroupCommit(GROUP_COMMIT))
            .with_cache_bytes(Some(cache));
        let (store, recovery) =
            ShardedStore::open_durable(&dir, SHARDS, config).expect("open durable");
        assert!(
            recovery.is_clean(),
            "fresh store recovered dirty: {recovery:?}"
        );
        store
    };
    let open_s = started.elapsed().as_secs_f64();
    // Warm-up: a share of the read mix, so the cache holds a working set.
    let _ = layers::store_queries(
        &store,
        &pool[1..pool.len().min(1001)],
        &mut Report::default(),
    );
    ServeSetup {
        fleet,
        store: Arc::new(store),
        pool,
        writes: batches,
        loaded,
        open_s,
    }
}

/// One live write call and its outcome.
struct WriteSample {
    batch: usize,
    due: f64,
    done: f64,
    /// When the ingest call started and returned.
    called: (Instant, Instant),
    /// The machine's CPU counters when it started and returned.
    ticks: (stats::CpuTicks, stats::CpuTicks),
    points: usize,
    busy_s: f64,
    result: Result<(), String>,
}

/// The fixed-rate write schedule: write `i` sends `batches[i]`, is due
/// `i / WRITE_RATE` seconds after the start and is acknowledged when its
/// ingest call returns.  Runs until `stop` is set and `MIN_WRITES` were
/// made, or until the batches run out.
fn write_loop(
    store: &ShardedStore,
    batches: &[Vec<(DeviceId, Trajectory)>],
    stop: &AtomicBool,
) -> Vec<WriteSample> {
    let algo = algorithm(SERVE_ALGO);
    let start = Instant::now();
    let mut out = Vec::new();
    for (b, batch) in batches.iter().enumerate() {
        let due = b as f64 / WRITE_RATE;
        loadgen::wait_until(start, due);
        if stop.load(Ordering::SeqCst) && out.len() >= MIN_WRITES {
            break;
        }
        let (called, before) = (Instant::now(), stats::CpuTicks::now());
        let (secs, result) = ingest_call(batch, &algo, SERVE_ZETA, store);
        out.push(WriteSample {
            batch: b,
            due,
            done: start.elapsed().as_secs_f64(),
            called: (called, Instant::now()),
            ticks: (before, stats::CpuTicks::now()),
            points: batch.iter().map(|(_, t)| t.len()).sum(),
            busy_s: secs,
            result,
        });
    }
    if out.len() == batches.len() {
        eprintln!("the write schedule ran out of batches before the reads ended");
    }
    out
}

fn run_serve_paged_live(args: &Args, report: &mut Report) {
    let plan = PLAN_PAGED;
    let writes = MIN_WRITES.max(((max_read_s(&plan, args.seconds) + 2.0) * WRITE_RATE) as usize);
    let mut setups = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUPS {
        // Free the previous set-up before building the next.
        drop(prepared.take());
        let started = Instant::now();
        let s = serve_setup(args, writes);
        setups.push((started.elapsed().as_secs_f64(), s.open_s));
        prepared = Some(s);
    }
    let setup = prepared.expect("at least one set-up");
    eprintln!("set-ups took {setups:.2?} s (total, reopen)");
    report.put(
        "setup_s",
        median(&setups.iter().map(|s| s.0).collect::<Vec<_>>()),
        "s",
    );
    let store = &setup.store;
    let pool = &setup.pool;
    let server = start_server(store, false);
    let addr = server.local_addr();
    // Past the warm-up queries.
    let mut cursor = 1000;

    let started = Instant::now();
    let rss = stats::peak_rss_mb();
    let cache_before = store.memory_stats().cache;
    let wal_before = store.wal_stats();
    let stop = AtomicBool::new(false);
    let (reads, writes) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| write_loop(store, &setup.writes, &stop));
        let reads = read_phase(addr, pool, &mut cursor, &plan, args.seconds);
        stop.store(true, Ordering::SeqCst);
        (reads, writer.join().expect("writer panicked"))
    });
    eprintln!("measured for {:.1} s", started.elapsed().as_secs_f64());
    let cache_after = store.memory_stats().cache;
    let wal_after = store.wal_stats();
    report.put("peak_rss_mb", rss, "MB");
    report.put(
        "ingest_segments_per_point",
        setup.loaded.segments as f64 / setup.loaded.points as f64,
        "segments/point",
    );
    report.put(
        "ingest_bytes_per_point",
        setup.loaded.stored_bytes as f64 / setup.loaded.points as f64,
        "B/point",
    );
    // The write figures come from the writes made while the reads ran at
    // their fixed rate: the probes and the ladder load the machine by an
    // amount that depends on where the ladder stops.
    let steady: Vec<&WriteSample> = writes
        .iter()
        .filter(|w| {
            reads
                .block_times
                .iter()
                .any(|&(from, to)| from <= w.called.0 && w.called.1 <= to)
        })
        .collect();
    eprintln!(
        "{} of {} live writes were made beside the fixed-rate reads",
        steady.len(),
        writes.len()
    );
    let ack_ms = |w: &WriteSample| (w.done - w.due) * 1e3;
    let acks = sorted(steady.iter().map(|w| ack_ms(w)).collect());
    report.put("write_ack_p99_ms", p99(&acks, "write ack latency"), "ms");
    let (mut group_rates, mut group_acks) = (Vec::new(), Vec::new());
    for g in steady.chunks_exact(RATE_GROUP) {
        let points: usize = g.iter().map(|w| w.points).sum();
        let busy_s: f64 = g.iter().map(|w| w.busy_s).sum();
        let stolen = g[0].ticks.0.stolen_share(g[g.len() - 1].ticks.1);
        group_rates.push((points as f64 / busy_s, stolen));
        group_acks.push((
            median(&g.iter().map(|w| ack_ms(w)).collect::<Vec<_>>()),
            stolen,
        ));
    }
    report.put(
        "ingest_points_per_s",
        stats::undisturbed_rate(&group_rates),
        "points/s",
    );
    report.put(
        "write_ack_p50_ms",
        stats::undisturbed_latency(&group_acks),
        "ms",
    );
    put_query_metrics(&reads, pool, report);
    let mut all_reads = reads.samples.clone();
    if args.trace {
        let (overhead, samples) = trace_overhead(
            store,
            addr,
            pool,
            &mut cursor,
            &plan,
            &trace_path(args, "service.json"),
        );
        report.put("obs.trace_overhead_share", overhead, "ratio");
        all_reads.extend(samples);
    }
    server.stop();

    // Checks, after timing.
    let started = Instant::now();
    let outputs = check_fleet(&setup.fleet.setup, SERVE_ALGO, SERVE_ZETA, store, report);
    eprintln!("fleet checked in {:.1} s", started.elapsed().as_secs_f64());
    let reference = reference_store(&setup.fleet.setup, &outputs, SERVE_ZETA);
    let started = Instant::now();
    check_reads(&reference, pool, &all_reads, report);
    eprintln!("reads checked in {:.1} s", started.elapsed().as_secs_f64());
    let started = Instant::now();
    check_writes(store, &setup, &writes, report);
    eprintln!("writes checked in {:.1} s", started.elapsed().as_secs_f64());

    if args.trace {
        // The direct calls add `/knn`, which the HTTP mix leaves out, so
        // the kNN figures come from a 400-device store.
        let fleet = &setup.fleet;
        let direct = inputs::query_mix(
            args.seed,
            &fleet.setup,
            fleet.common_end,
            &MIX,
            DIRECT_QUERIES,
        );
        per_layer(&fleet.setup, store, &direct, pool, &reads, report);
        report.put(
            "store.open_s",
            median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()),
            "s",
        );
        let (hits, misses) = match (cache_before, cache_after) {
            (Some(a), Some(b)) => (b.hits - a.hits, b.misses - a.misses),
            _ => (0, 0),
        };
        report.put(
            "store.pager_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        report.put(
            "store.pager_misses_per_query",
            misses as f64 / reads.samples.len() as f64,
            "count",
        );
        let syncs = match (wal_before, wal_after) {
            (Some(a), Some(b)) => {
                (b.syncs - a.syncs) as f64 / (b.ingests_appended - a.ingests_appended).max(1) as f64
            }
            _ => 0.0,
        };
        report.put("store.wal_syncs_per_ingest", syncs, "count");
    }
}

/// What tracing costs.  One fixed-rate block goes to the untraced
/// server at `untraced` with the benchmark's spans off; the same block
/// then goes to a second server on the same store that traces every
/// request (slow-query threshold 0), with the benchmark's spans on.  The
/// result is the ratio of their median service times, less one.  A
/// `/trace` sample of the traced server's spans is written to
/// `sample_path`.
fn trace_overhead(
    store: &Arc<ShardedStore>,
    untraced: SocketAddr,
    pool: &[Query],
    cursor: &mut usize,
    plan: &ReadPlan,
    sample_path: &Path,
) -> (f64, Vec<Sample>) {
    let median_us = |samples: &[Sample]| {
        let queries: Vec<f64> = samples
            .iter()
            .filter(|s| s.query != 0)
            .map(Sample::service_us)
            .collect();
        median(&queries)
    };
    let traced = start_server(store, true);
    let mut again = *cursor;
    trace::enable(false);
    let off = fixed_rate(
        untraced,
        pool,
        cursor,
        plan.nominal_rate,
        BLOCK_REQUESTS,
        plan.threads,
    );
    trace::enable(true);
    let on = fixed_rate(
        traced.local_addr(),
        pool,
        &mut again,
        plan.nominal_rate,
        BLOCK_REQUESTS,
        plan.threads,
    );
    keep_trace_sample(traced.local_addr(), sample_path);
    traced.stop();
    let overhead = median_us(&on) / median_us(&off) - 1.0;
    (overhead, off.into_iter().chain(on).collect())
}

/// Every acknowledged write is stored exactly once, compressed as the
/// sequential driver compresses its chunk.
fn check_writes(
    store: &ShardedStore,
    setup: &ServeSetup,
    writes: &[WriteSample],
    report: &mut Report,
) {
    report.attempted += writes.len() as u64;
    let algo = algorithm(SERVE_ALGO);
    let mut acked = Vec::new();
    for w in writes {
        if let Err(e) = &w.result {
            report.fail(format!("write {}: {e}", w.batch));
            continue;
        }
        let batch = &setup.writes[w.batch];
        let sequential = compress_fleet_sequential(batch, SERVE_ZETA, &algo);
        for ((device, chunk), r) in batch.iter().zip(&sequential.results) {
            let expected = r.output.clone().expect("chunk compresses");
            report.attempted += 1;
            if !traj_metrics::check_error_bound(chunk, &expected, SERVE_ZETA).is_empty() {
                report.zeta_violation(format!(
                    "{SERVE_ALGO} ζ={SERVE_ZETA}: live chunk {} of device {device} (write {})",
                    w.batch / SERVE_DEVICES.div_ceil(WRITE_BATCH),
                    w.batch
                ));
            }
            acked.push(AckedWrite {
                device: *device,
                t_first: chunk.first().t,
                t_last: chunk.last().t,
                expected,
            });
        }
    }
    if let Err(e) = check::acked_writes_present(store, &acked, &store_config().codec) {
        report.mismatch(e);
    }
}

/// Runs one workload and returns its report (metrics not yet selected).
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    std::fs::create_dir_all(&args.dir).expect("create the work directory");
    // Traced runs record set-up spans too; the untraced half of the
    // measurement switches recording off for its duration.
    trace::enable(args.trace);
    match args.workload {
        Workload::Ingest => run_ingest(args, &mut report),
        Workload::ServePagedLive => run_serve_paged_live(args, &mut report),
    }
    eprintln!(
        "{} simplified streams break their ζ bound",
        report.zeta_violations.len()
    );
    if args.trace {
        report.put(
            "core.zeta_violating_streams",
            report.zeta_violations.len() as f64,
            "count",
        );
        let spans = trace::take();
        let self_ms = trace::self_time_ms(&spans);
        eprintln!("self time per layer call (ms):");
        for name in SPANS {
            let v = self_ms.get(name).copied().unwrap_or(0.0);
            eprintln!("  {name:20} {v:12.3}");
            report.put(format!("self_ms.{name}"), v, "ms");
        }
        let path = trace_path(args, "spans.jsonl");
        if let Err(e) = std::fs::write(&path, trace::to_json_lines(&spans)) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    report
}
