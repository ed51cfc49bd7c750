//! Every input of a run, generated from the seed during set-up: raw
//! fleets from the four corpus profiles, the read request mix and the
//! live write schedule.

use traj_data::rng::{Rng, SmallRng};
use traj_data::{DatasetGenerator, DatasetKind};
use traj_geo::{BoundingBox, Point};
use traj_model::Trajectory;
use traj_pipeline::DeviceId;

/// One raw stream and where it came from, so a failure can name its
/// reproducer: `DatasetGenerator::for_kind(corpus, seed)
/// .generate_trajectory(index, traj.len())`.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Device id the stream is stored under.
    pub device: DeviceId,
    /// Corpus profile the stream was generated from.
    pub corpus: DatasetKind,
    /// Generator seed.
    pub seed: u64,
    /// Trajectory index within the generator.
    pub index: usize,
    /// The raw points.
    pub traj: Trajectory,
}

/// `(device, trajectory)` pairs as the fleet drivers take them.
pub fn fleet_of(streams: &[Stream]) -> Vec<(DeviceId, Trajectory)> {
    streams.iter().map(|s| (s.device, s.traj.clone())).collect()
}

/// The ingest fleet: `per_corpus` streams from each corpus profile, each
/// with the profile's own sampling rate and point count (Taxi 2000,
/// Truck 3000, SerCar 4000, GeoLife 5000 points).
pub fn corpus_fleet(seed: u64, per_corpus: usize) -> Vec<Stream> {
    let mut out = Vec::new();
    for corpus in DatasetKind::ALL {
        let generator = DatasetGenerator::for_kind(corpus, seed);
        let points = corpus.profile().points_per_trajectory;
        for index in 0..per_corpus {
            out.push(Stream {
                device: out.len() as DeviceId,
                corpus,
                seed,
                index,
                traj: generator.generate_trajectory(index, points),
            });
        }
    }
    out
}

/// A serving fleet: device `d` drives for `span_s` seconds of set-up data
/// from corpus `d mod 4`, followed by `chunks` live chunks of `chunk_s`
/// seconds each that the write schedule appends later.
#[derive(Debug, Clone)]
pub struct ServeFleet {
    /// The set-up part of every device's drive (`t < span_s`).
    pub setup: Vec<Stream>,
    /// `live[d][k]`: device `d`'s `k`-th later chunk.
    pub live: Vec<Vec<Trajectory>>,
    /// The latest time every device has set-up data for: reads restricted
    /// to `t ≤ common_end` never see live writes.
    pub common_end: f64,
}

/// Generates a serving fleet of `devices` devices.
pub fn serve_fleet(
    seed: u64,
    devices: usize,
    span_s: f64,
    chunks: usize,
    chunk_s: f64,
) -> ServeFleet {
    let horizon = span_s + chunks as f64 * chunk_s;
    let mut setup = Vec::with_capacity(devices);
    let mut live = Vec::with_capacity(devices);
    for d in 0..devices {
        let corpus = DatasetKind::ALL[d % 4];
        let profile = corpus.profile();
        let index = d / 4;
        // Enough points to pass the horizon at the longest interval.
        let points = (horizon / profile.min_sampling_interval.max(1.0)) as usize + 2;
        let points = points.min((horizon / profile.mean_sampling_interval() * 1.5) as usize + 16);
        let drive = DatasetGenerator::for_kind(corpus, seed).generate_trajectory(index, points);
        let all = drive.points();
        assert!(
            all.last().expect("generated drives are non-empty").t >= horizon,
            "device {d}: drive ends before the live horizon"
        );
        let cut = |lo: f64, hi: f64| -> Vec<Point> {
            all.iter()
                .copied()
                .filter(|p| p.t >= lo && p.t < hi)
                .collect()
        };
        setup.push(Stream {
            device: d as DeviceId,
            corpus,
            seed,
            index,
            traj: Trajectory::new_unchecked(cut(f64::NEG_INFINITY, span_s)),
        });
        live.push(
            (0..chunks)
                .map(|k| {
                    let lo = span_s + k as f64 * chunk_s;
                    let pts = cut(lo, lo + chunk_s);
                    assert!(
                        pts.len() >= 2,
                        "device {d}: live chunk {k} has too few points"
                    );
                    Trajectory::new_unchecked(pts)
                })
                .collect(),
        );
    }
    let common_end = setup
        .iter()
        .map(|s| s.traj.last().t)
        .fold(f64::INFINITY, f64::min);
    ServeFleet {
        setup,
        live,
        common_end,
    }
}

/// An HTTP endpoint of the read mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Endpoint {
    /// `/position_at`
    PositionAt,
    /// `/time_slice`
    TimeSlice,
    /// `/window`
    Window,
    /// `/knn`
    Knn,
    /// `/metrics`
    Metrics,
}

impl Endpoint {
    /// The four query endpoints, in mix order.
    pub const QUERIES: [Endpoint; 4] = [
        Endpoint::PositionAt,
        Endpoint::TimeSlice,
        Endpoint::Window,
        Endpoint::Knn,
    ];

    /// Metric-name form, e.g. `position_at`.
    pub fn name(self) -> &'static str {
        match self {
            Endpoint::PositionAt => "position_at",
            Endpoint::TimeSlice => "time_slice",
            Endpoint::Window => "window",
            Endpoint::Knn => "knn",
            Endpoint::Metrics => "metrics",
        }
    }
}

/// One read request.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Interpolated position of a device at `t`.
    PositionAt {
        /// Device id.
        device: DeviceId,
        /// Query time.
        t: f64,
    },
    /// A device's segments over `[from, to]`.
    TimeSlice {
        /// Device id.
        device: DeviceId,
        /// Range start.
        from: f64,
        /// Range end.
        to: f64,
    },
    /// Devices passing through a box during `[from, to]`.
    Window {
        /// The spatial box.
        bbox: BoundingBox,
        /// Range start.
        from: f64,
        /// Range end.
        to: f64,
    },
    /// The `k` devices nearest a query point set.
    Knn {
        /// Query points (only `x`, `y` are used).
        points: Vec<Point>,
        /// Neighbour count.
        k: usize,
    },
    /// A monitoring scrape of `/metrics`.
    Metrics,
}

impl Query {
    /// The endpoint this request targets.
    pub fn endpoint(&self) -> Endpoint {
        match self {
            Query::PositionAt { .. } => Endpoint::PositionAt,
            Query::TimeSlice { .. } => Endpoint::TimeSlice,
            Query::Window { .. } => Endpoint::Window,
            Query::Knn { .. } => Endpoint::Knn,
            Query::Metrics => Endpoint::Metrics,
        }
    }

    /// The request target.  `f64` `Display` is the shortest string that
    /// parses back to the same bits, so the server sees exactly the
    /// values the reference call uses.
    pub fn target(&self) -> String {
        match self {
            Query::PositionAt { device, t } => format!("/position_at?device={device}&t={t}"),
            Query::TimeSlice { device, from, to } => {
                format!("/time_slice?device={device}&from={from}&to={to}")
            }
            Query::Window { bbox, from, to } => format!(
                "/window?min_x={}&min_y={}&max_x={}&max_y={}&from={from}&to={to}",
                bbox.min_x, bbox.min_y, bbox.max_x, bbox.max_y
            ),
            Query::Knn { points, k } => {
                let pts: Vec<String> = points.iter().map(|p| format!("{},{}", p.x, p.y)).collect();
                format!("/knn?k={k}&points={}", pts.join("%3B"))
            }
            Query::Metrics => "/metrics".to_string(),
        }
    }
}

/// Shape of the read mix.
#[derive(Debug, Clone, Copy)]
pub struct MixSpec {
    /// Relative weights of position_at, time_slice, window, knn.
    pub weights: [u32; 4],
    /// Window edge length in metres.
    pub window_m: f64,
    /// Window time-range length in seconds.
    pub window_s: f64,
    /// Time-slice length in seconds.
    pub slice_s: f64,
    /// kNN neighbour count.
    pub knn_k: usize,
    /// kNN query points.
    pub knn_points: usize,
}

/// Requests look at times after this share of the common time span:
/// every drive starts at the origin at t = 0, so early windows would
/// hold the whole fleet.
const SETTLED: f64 = 0.5;

/// `n` read requests over `streams`, every one restricted to
/// `SETTLED · time_end ≤ t ≤ time_end` (and to each device's own data).
/// Windows are centred on a raw point of a random device at a random
/// time, so window size and placement, not the common start at the
/// origin, set how many devices a window touches.
pub fn query_mix(
    seed: u64,
    streams: &[Stream],
    time_end: f64,
    spec: &MixSpec,
    n: usize,
) -> Vec<Query> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x005E_ED0F_0EAD);
    let total: u32 = spec.weights.iter().sum();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let s = &streams[rng.gen_range(0..streams.len())];
        let pts = s.traj.points();
        let end = time_end.min(s.traj.last().t);
        let begin = time_end * SETTLED;
        let first = pts.partition_point(|p| p.t < begin);
        let usable = pts.partition_point(|p| p.t <= end);
        let p = pts[rng.gen_range(first..usable)];
        let mut pick = rng.gen_range(0..total);
        let mut kind = 0;
        while pick >= spec.weights[kind] {
            pick -= spec.weights[kind];
            kind += 1;
        }
        out.push(match kind {
            0 => Query::PositionAt {
                device: s.device,
                t: rng.gen_range(begin..end),
            },
            1 => {
                let from = rng.gen_range(begin..end);
                Query::TimeSlice {
                    device: s.device,
                    from,
                    to: (from + spec.slice_s).min(end),
                }
            }
            2 => {
                let h = spec.window_m / 2.0;
                Query::Window {
                    bbox: BoundingBox {
                        min_x: p.x - h,
                        min_y: p.y - h,
                        max_x: p.x + h,
                        max_y: p.y + h,
                    },
                    from: (p.t - spec.window_s / 2.0).max(begin),
                    to: (p.t + spec.window_s / 2.0).min(time_end),
                }
            }
            _ => Query::Knn {
                points: (0..spec.knn_points)
                    .map(|_| {
                        let q = pts[rng.gen_range(first..usable)];
                        Point::new(
                            q.x + rng.gen_range(-50.0..50.0),
                            q.y + rng.gen_range(-50.0..50.0),
                            0.0,
                        )
                    })
                    .collect(),
                k: spec.knn_k,
            },
        });
    }
    out
}
