//! Exact-reference output checks.  Each compares an answer with the same
//! answer computed by a second path and reports the first difference; no
//! check adds a tolerance beyond what the codec's documented quantisation
//! implies.  All run after timing, never inside it.

use traj_geo::Point;
use traj_model::json::JsonValue;
use traj_model::{SegmentCodec, SimplifiedSegment, SimplifiedTrajectory};
use traj_pipeline::{DeviceId, FleetResult};
use traj_store::ShardedStore;

use crate::inputs::Query;

/// A read answer reduced to its data: what the server encodes from the
/// store's result, minus timing and statistics fields.
#[derive(Debug, Clone)]
pub enum Answer {
    /// `/position_at`.
    Position(Option<Point>),
    /// `/time_slice`.
    Segments(Vec<SimplifiedSegment>),
    /// `/window`: per matching device, its segments.
    Window(Vec<(DeviceId, Vec<SimplifiedSegment>)>),
    /// `/knn`: `(device, distance)` nearest first.
    Knn(Vec<(DeviceId, f64)>),
}

fn same_f64(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

fn same_point(a: &Point, b: &Point) -> bool {
    same_f64(a.x, b.x) && same_f64(a.y, b.y) && same_f64(a.t, b.t)
}

fn same_segment(a: &SimplifiedSegment, b: &SimplifiedSegment) -> bool {
    same_point(&a.segment.start, &b.segment.start)
        && same_point(&a.segment.end, &b.segment.end)
        && a.first_index == b.first_index
        && a.last_index == b.last_index
}

fn same_segments(a: &[SimplifiedSegment], b: &[SimplifiedSegment]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| same_segment(x, y))
}

impl Answer {
    /// Bit-for-bit equality of every coordinate, index, device and
    /// distance, in order.
    pub fn same_as(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Position(a), Answer::Position(b)) => match (a, b) {
                (Some(a), Some(b)) => same_point(a, b),
                (None, None) => true,
                _ => false,
            },
            (Answer::Segments(a), Answer::Segments(b)) => same_segments(a, b),
            (Answer::Window(a), Answer::Window(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((da, sa), (db, sb))| da == db && same_segments(sa, sb))
            }
            (Answer::Knn(a), Answer::Knn(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((da, xa), (db, xb))| da == db && same_f64(*xa, *xb))
            }
            _ => false,
        }
    }
}

/// The reference answer: the same request called directly on `store`.
/// `/window` uses the unplanned query the planner must agree with, and
/// `/knn` the decoded brute-force search the pruned one must agree with.
pub fn reference(store: &ShardedStore, query: &Query) -> Answer {
    match query {
        Query::PositionAt { device, t } => Answer::Position(store.position_at(*device, *t)),
        Query::TimeSlice { device, from, to } => {
            Answer::Segments(store.time_slice(*device, *from, *to).segments)
        }
        Query::Window { bbox, from, to } => Answer::Window(
            store
                .window_query(bbox, Some((*from, *to)))
                .matches
                .into_iter()
                .map(|m| (m.device, m.segments))
                .collect(),
        ),
        Query::Knn { points, k } => Answer::Knn(
            store
                .knn_bruteforce(points, *k)
                .neighbors
                .into_iter()
                .map(|n| (n.device, n.distance))
                .collect(),
        ),
        Query::Metrics => unreachable!("/metrics has no store reference"),
    }
}

fn num(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing number '{key}'"))
}

fn segment_of(v: &JsonValue) -> Result<SimplifiedSegment, String> {
    let start = Point::new(num(v, "x0")?, num(v, "y0")?, num(v, "t0")?);
    let end = Point::new(num(v, "x1")?, num(v, "y1")?, num(v, "t1")?);
    Ok(SimplifiedSegment::new(
        traj_geo::DirectedSegment::new(start, end),
        num(v, "first_index")? as usize,
        num(v, "last_index")? as usize,
    ))
}

fn segments_of(v: Option<&JsonValue>) -> Result<Vec<SimplifiedSegment>, String> {
    v.and_then(JsonValue::as_array)
        .ok_or("missing 'segments'")?
        .iter()
        .map(segment_of)
        .collect()
}

/// Parses a JSON response body with `traj_model::json` into the answer
/// for `query`.
///
/// # Errors
///
/// Malformed JSON or a missing field.
pub fn parse_answer(query: &Query, body: &str) -> Result<Answer, String> {
    let v = JsonValue::parse(body).map_err(|e| e.to_string())?;
    Ok(match query {
        Query::PositionAt { .. } => match v.get("position") {
            Some(JsonValue::Null) => Answer::Position(None),
            Some(p) => Answer::Position(Some(Point::new(num(p, "x")?, num(p, "y")?, num(p, "t")?))),
            None => return Err("missing 'position'".into()),
        },
        Query::TimeSlice { .. } => Answer::Segments(segments_of(v.get("segments"))?),
        Query::Window { .. } => Answer::Window(
            v.get("matches")
                .and_then(JsonValue::as_array)
                .ok_or("missing 'matches'")?
                .iter()
                .map(|m| {
                    Ok((
                        num(m, "device")? as DeviceId,
                        segments_of(m.get("segments"))?,
                    ))
                })
                .collect::<Result<_, String>>()?,
        ),
        Query::Knn { .. } => Answer::Knn(
            v.get("neighbors")
                .and_then(JsonValue::as_array)
                .ok_or("missing 'neighbors'")?
                .iter()
                .map(|n| Ok((num(n, "device")? as DeviceId, num(n, "distance")?)))
                .collect::<Result<_, String>>()?,
        ),
        Query::Metrics => return Err("/metrics is not JSON".into()),
    })
}

/// Checks one HTTP answer against the direct call on `reference_store`.
///
/// # Errors
///
/// A description of the first difference.
pub fn check_http_answer(
    reference_store: &ShardedStore,
    query: &Query,
    body: &str,
) -> Result<(), String> {
    check_answer(&reference(reference_store, query), query, body)
}

/// Checks one HTTP answer against `want`, the reference answer to
/// `query`.
///
/// # Errors
///
/// A description of the first difference.
pub fn check_answer(want: &Answer, query: &Query, body: &str) -> Result<(), String> {
    if parse_answer(query, body)?.same_as(want) {
        Ok(())
    } else {
        Err(format!(
            "{}: answer differs from the direct store call",
            query.target()
        ))
    }
}

/// Checks a `/metrics` scrape: Prometheus text carrying the service's
/// request counter.
///
/// # Errors
///
/// When the body lacks the series.
pub fn check_metrics_scrape(body: &str) -> Result<(), String> {
    if body
        .lines()
        .any(|l| l.starts_with("service_requests_total"))
    {
        Ok(())
    } else {
        Err("/metrics lacks service_requests_total".into())
    }
}

fn outputs_by_device(
    results: &[FleetResult],
) -> Result<Vec<(DeviceId, &SimplifiedTrajectory)>, String> {
    let mut out: Vec<_> = results
        .iter()
        .map(|r| {
            r.output
                .as_ref()
                .map(|o| (r.device, o))
                .map_err(|e| format!("device {}: {e}", r.device))
        })
        .collect::<Result<_, _>>()?;
    out.sort_by_key(|(d, _)| *d);
    Ok(out)
}

/// The parallel pipeline's output equals the sequential reference,
/// segment for segment, for every device.
///
/// # Errors
///
/// The first device whose outputs differ or is missing.
pub fn same_fleet_output(
    parallel: &[FleetResult],
    sequential: &[FleetResult],
) -> Result<(), String> {
    let (a, b) = (outputs_by_device(parallel)?, outputs_by_device(sequential)?);
    if a.len() != b.len() {
        return Err(format!(
            "{} parallel results, {} sequential",
            a.len(),
            b.len()
        ));
    }
    for ((da, sa), (db, sb)) in a.iter().zip(&b) {
        if da != db {
            return Err(format!("device {da} where {db} was expected"));
        }
        if sa.original_len() != sb.original_len() || !same_segments(sa.segments(), sb.segments()) {
            return Err(format!(
                "device {da}: pipeline output differs from sequential"
            ));
        }
    }
    Ok(())
}

/// A device's stored segments against its pipeline output: same count
/// and responsibility indices, endpoints moved by quantisation only
/// (within `spatial_slack` in the plane and half a time step in time).
///
/// # Errors
///
/// The first segment that differs.
pub fn stored_matches_output(
    device: DeviceId,
    output: &SimplifiedTrajectory,
    stored: &[SimplifiedSegment],
    codec: &SegmentCodec,
) -> Result<(), String> {
    if stored.len() != output.num_segments() {
        return Err(format!(
            "device {device}: {} stored segments, pipeline produced {}",
            stored.len(),
            output.num_segments()
        ));
    }
    let slack = codec.spatial_slack();
    let half_step = codec.time_resolution / 2.0;
    let close = |a: &Point, b: &Point| {
        a.distance(b) <= slack && (a.t - b.t).abs() <= half_step * (1.0 + 1e-9)
    };
    for (i, (s, o)) in stored.iter().zip(output.segments()).enumerate() {
        if s.first_index != o.first_index
            || s.last_index != o.last_index
            || !close(&s.segment.start, &o.segment.start)
            || !close(&s.segment.end, &o.segment.end)
        {
            return Err(format!(
                "device {device}: stored segment {i} differs from the pipeline output"
            ));
        }
    }
    Ok(())
}

/// An acknowledged live write: the chunk a device was sent and its
/// reference compression.
#[derive(Debug, Clone)]
pub struct AckedWrite {
    /// Device written.
    pub device: DeviceId,
    /// First raw time of the chunk.
    pub t_first: f64,
    /// Last raw time of the chunk.
    pub t_last: f64,
    /// The chunk's sequential reference compression.
    pub expected: SimplifiedTrajectory,
}

/// Every acknowledged write is in `store` exactly once: the device's
/// segments over the chunk's time span are exactly the chunk's segments
/// (a lost write leaves none, a duplicated one twice as many).
///
/// # Errors
///
/// The first write that is missing, duplicated or altered.
pub fn acked_writes_present(
    store: &ShardedStore,
    acked: &[AckedWrite],
    codec: &SegmentCodec,
) -> Result<(), String> {
    for w in acked {
        let stored = store.time_slice(w.device, w.t_first, w.t_last).segments;
        stored_matches_output(w.device, &w.expected, &stored, codec)
            .map_err(|e| format!("write at t={}: {e}", w.t_first))?;
    }
    Ok(())
}
