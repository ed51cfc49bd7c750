//! Self-tests of the benchmark's output checks: each must accept the
//! system's real answers and reject a deliberately corrupted one, and the
//! deterministic counts the benchmark reports must repeat exactly.

use std::sync::Arc;

use perfbench::check::{self, AckedWrite, Answer};
use perfbench::inputs::{self, MixSpec, Query, ServeFleet};
use perfbench::report::Report;
use perfbench::workloads::{store_config, SHARDS, WORKERS};
use traj_pipeline::{compress_fleet, compress_fleet_sequential, FleetAlgorithm, PipelineConfig};
use traj_service::{Server, ServiceConfig};
use traj_store::{compress_fleet_into_shared_store, ShardedStore};

const ZETA: f64 = 20.0;

const SPEC: MixSpec = MixSpec {
    weights: [1, 1, 1, 1],
    window_m: 3000.0,
    window_s: 900.0,
    slice_s: 900.0,
    knn_k: 5,
    knn_points: 4,
};

fn operb() -> FleetAlgorithm {
    FleetAlgorithm::by_name("operb").unwrap()
}

fn config() -> PipelineConfig {
    PipelineConfig::new(ZETA).with_workers(WORKERS)
}

/// A small serving fleet loaded the way the workloads load theirs.
fn loaded(seed: u64) -> (ServeFleet, ShardedStore) {
    let fleet = inputs::serve_fleet(seed, 16, 3600.0, 2, 600.0);
    let store = ShardedStore::new(store_config(), SHARDS);
    compress_fleet_into_shared_store(&inputs::fleet_of(&fleet.setup), &config(), &operb(), &store)
        .unwrap();
    (fleet, store)
}

fn queries(fleet: &ServeFleet, n: usize) -> Vec<Query> {
    inputs::query_mix(3, &fleet.setup, fleet.common_end, &SPEC, n)
}

#[test]
fn http_answers_pass_and_corrupted_answers_fail() {
    let (fleet, store) = loaded(5);
    let store = Arc::new(store);
    let server =
        Server::start(Arc::clone(&store), "127.0.0.1:0", ServiceConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut bodies = Vec::new();
    for q in queries(&fleet, 200) {
        let r = perfbench::loadgen::get(addr, &q.target()).unwrap();
        assert_eq!(r.status, 200, "{}", q.target());
        check::check_http_answer(&store, &q, &r.body).unwrap();
        bodies.push((q, r.body));
    }
    let scrape = perfbench::loadgen::get(addr, "/metrics").unwrap();
    check::check_metrics_scrape(&scrape.body).unwrap();
    server.stop();

    // One perturbed coordinate.
    let (q, body) = bodies
        .iter()
        .find(|(q, b)| matches!(q, Query::TimeSlice { .. }) && b.contains("\"x0\":"))
        .expect("a time slice with segments");
    let at = body.find("\"x0\":").unwrap() + 5;
    let digit = body[at..].find(|c: char| c.is_ascii_digit()).unwrap() + at;
    let mut corrupted = body.clone().into_bytes();
    corrupted[digit] = if corrupted[digit] == b'9' {
        b'8'
    } else {
        corrupted[digit] + 1
    };
    let corrupted = String::from_utf8(corrupted).unwrap();
    assert!(check::check_http_answer(&store, q, &corrupted).is_err());

    // One missing device in a window answer.
    let (q, body) = bodies
        .iter()
        .find(|(q, b)| {
            matches!(q, Query::Window { .. })
                && matches!(check::parse_answer(q, b), Ok(Answer::Window(m)) if m.len() >= 2)
        })
        .expect("a window touching two devices");
    let Ok(Answer::Window(mut matches)) = check::parse_answer(q, body) else {
        unreachable!()
    };
    matches.remove(1);
    assert!(!Answer::Window(matches).same_as(&check::reference(&store, q)));

    // One reordered kNN neighbour.
    let (q, body) = bodies
        .iter()
        .find(|(q, _)| matches!(q, Query::Knn { .. }))
        .expect("a kNN query");
    let Ok(Answer::Knn(mut neighbors)) = check::parse_answer(q, body) else {
        unreachable!()
    };
    assert!(Answer::Knn(neighbors.clone()).same_as(&check::reference(&store, q)));
    neighbors.swap(0, 1);
    assert!(!Answer::Knn(neighbors).same_as(&check::reference(&store, q)));
}

#[test]
fn pipeline_and_stored_segment_checks_reject_changes() {
    let (fleet, store) = loaded(6);
    let pairs = inputs::fleet_of(&fleet.setup);
    let parallel = compress_fleet(&pairs, &config(), &operb());
    let mut sequential = compress_fleet_sequential(&pairs, ZETA, &operb());
    check::same_fleet_output(&parallel.results, &sequential.results).unwrap();

    let codec = store_config().codec;
    let s = &fleet.setup[0];
    let output = sequential.results[0].output.clone().unwrap();
    let t = s.traj.points();
    let mut stored = store
        .time_slice(s.device, t[0].t - 1.0, t[t.len() - 1].t)
        .segments;
    check::stored_matches_output(s.device, &output, &stored, &codec).unwrap();

    stored[0].segment.end.x += 1.0;
    assert!(check::stored_matches_output(s.device, &output, &stored, &codec).is_err());
    stored.pop();
    assert!(check::stored_matches_output(s.device, &output, &stored, &codec).is_err());

    let changed = sequential.results[0].output.as_mut().unwrap();
    let mut segments = changed.segments().to_vec();
    segments[0].segment.start.y += 0.5;
    *changed = traj_model::SimplifiedTrajectory::new(segments, changed.original_len());
    assert!(check::same_fleet_output(&parallel.results, &sequential.results).is_err());
}

#[test]
fn a_dropped_acknowledged_write_is_detected() {
    let (fleet, store) = loaded(7);
    let mut acked = Vec::new();
    for d in 0..4usize {
        let chunk = &fleet.live[d][0];
        let batch = [(d as u64, chunk.clone())];
        let expected = compress_fleet_sequential(&batch, ZETA, &operb()).results[0]
            .output
            .clone()
            .unwrap();
        let write = AckedWrite {
            device: d as u64,
            t_first: chunk.first().t,
            t_last: chunk.last().t,
            expected,
        };
        // Device 3's write is acknowledged to the client but never lands.
        if d != 3 {
            compress_fleet_into_shared_store(&batch, &config(), &operb(), &store).unwrap();
        }
        acked.push(write);
    }
    let codec = store_config().codec;
    check::acked_writes_present(&store, &acked[..3], &codec).unwrap();
    assert!(check::acked_writes_present(&store, &acked, &codec).is_err());
}

#[test]
fn deterministic_counts_repeat_exactly() {
    let counts = || {
        let streams = inputs::corpus_fleet(11, 2);
        let pairs = inputs::fleet_of(&streams);
        let mut out = Vec::new();
        for (algo, zeta) in [("operb", 5.0), ("operb-a", 40.0)] {
            let algo = FleetAlgorithm::by_name(algo).unwrap();
            let store = ShardedStore::new(store_config(), SHARDS);
            let cfg = PipelineConfig::new(zeta).with_workers(WORKERS);
            compress_fleet_into_shared_store(&pairs, &cfg, &algo, &store).unwrap();
            let stats = store.stats();
            let violating = compress_fleet_sequential(&pairs, zeta, &algo)
                .results
                .iter()
                .zip(&streams)
                .filter(|(r, s)| {
                    !traj_metrics::check_error_bound(&s.traj, r.output.as_ref().unwrap(), zeta)
                        .is_empty()
                })
                .count();
            out.push((stats.segments, stats.stored_bytes, stats.points, violating));
        }
        let (fleet, store) = loaded(8);
        let mut report = Report::default();
        perfbench::layers::store_queries(&store, &queries(&fleet, 300), &mut report);
        let decoded = report
            .metrics
            .iter()
            .find(|(n, _, _)| n == "store.blocks_decoded_per_query")
            .unwrap()
            .1;
        (out, decoded.to_bits())
    };
    assert_eq!(counts(), counts());
}
