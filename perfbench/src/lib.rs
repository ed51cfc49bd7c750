//! The trajsimp benchmark: two workloads (`ingest`, `serve_paged_live`)
//! driven from one process, every output checked against an exact
//! reference computed by a second path.  See `README.md` next to this
//! crate for the workloads, metrics and how to run it.

pub mod check;
pub mod inputs;
pub mod layers;
pub mod loadgen;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

/// Names of the per-layer metrics a traced run prints.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "core.operb_ns_per_point.z5",
        "core.operb_ns_per_point.z40",
        "core.operb_a_ns_per_point.z5",
        "core.operb_a_ns_per_point.z40",
        "core.zeta_violating_streams",
        "core.max_error_over_zeta",
        "baselines.dp_ns_per_point",
        "baselines.fbqs_ns_per_point",
        "pipeline.points_per_s",
        "pipeline.worker_busy_share",
        "pipeline.speedup_vs_sequential",
        "codec.encode_ns_per_segment",
        "codec.decode_ns_per_segment",
        "store.ingest_ns_per_point",
        "store.position_at_us",
        "store.time_slice_us",
        "store.window_us",
        "store.knn_us",
        "store.blocks_decoded_per_query",
        "store.skip_ratio",
        "store.knn_devices_pruned_share",
        "store.pager_hit_ratio",
        "store.pager_misses_per_query",
        "store.wal_syncs_per_ingest",
        "store.open_s",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for kind in ["http_us", "overhead_us", "response_bytes"] {
        for ep in inputs::Endpoint::QUERIES {
            names.push(format!("service.{kind}.{}", ep.name()));
        }
    }
    names.extend(
        [
            "query_p99_ms",
            "query_sustained_qps",
            "write_ack_p99_ms",
            "service.rejected",
            "obs.metrics_scrape_us",
            "obs.trace_overhead_share",
            "loadgen.late_p99_ms",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    names.extend(workloads::SPANS.iter().map(|s| format!("self_ms.{s}")));
    names
}
