//! The benchmark's names: workloads, end-to-end metrics and per-layer
//! metrics, each with its unit. `BENCHMARK.json` lists the same names;
//! a unit test keeps the two in step.

/// Workloads, by the name `--workload` takes.
pub const WORKLOADS: &[&str] = &[
    "wire_open",
    "service_closed.underload",
    "service_closed.overload",
    "sim_paper",
    "cluster_open",
];

/// End-to-end metrics: every workload reports every one (untraced runs).
pub const E2E: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput", "1/s"),
    ("p50_us", "us"),
    ("acceptance_ratio", "ratio"),
    ("cpu_ns_per_decision", "ns"),
];

/// Per-layer metrics (traced runs). A layer a workload never calls
/// reports 0.
pub const LAYER: &[(&str, &str)] = &[
    ("workload.generate_s", "s"),
    ("scenarios.generate_s", "s"),
    ("core.try_admit_ns", "ns"),
    ("core.region_test_ns", "ns"),
    ("service.admit_ns.p50", "ns"),
    ("service.admit_ns.p99", "ns"),
    ("service.release_ns.p50", "ns"),
    ("service.cas_retries_per_admit", "ratio"),
    ("service.reject_ns.p50", "ns"),
    ("service.reject_ns.p99", "ns"),
    ("service.seqlock_fallbacks", "count"),
    ("service.maintain_ns", "ns"),
    ("service.expired", "count"),
    ("gateway.worker_cpu_ns_per_decision", "ns"),
    ("gateway.worker_busy", "ratio"),
    ("gateway.syscalls_per_decision", "ratio"),
    ("gateway.bytes_per_decision", "B"),
    ("gateway.decisions_per_wake", "ratio"),
    ("gateway.backpressure_stalls", "count"),
    ("gateway.expired_on_arrival", "count"),
    ("gateway.send_ns", "ns"),
    ("gateway.recv_ns", "ns"),
    ("gateway.rtt_p50_us", "us"),
    ("gateway.rtt_tail_us", "us"),
    ("gateway.rtt_tail_pct", "%"),
    ("gateway.rtt_tail_beyond", "count"),
    ("gateway.shape_repeat_share", "ratio"),
    ("cluster.lease_bytes_per_decision", "B"),
    ("cluster.lease_frames_per_s", "1/s"),
    ("cluster.grants", "count"),
    ("cluster.borrows", "count"),
    ("cluster.returns", "count"),
    ("cluster.steals", "count"),
    ("experiments.fig4.events_per_s", "1/s"),
    ("experiments.table1.events_per_s", "1/s"),
    ("scenarios.sim_events_per_s", "1/s"),
    ("sim.events", "count"),
    ("loadgen.lateness_p99_us", "us"),
    ("loadgen.cpu_ns_per_decision", "ns"),
    ("workload.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("service.self_ms", "ms"),
    ("gateway.self_ms", "ms"),
    ("cluster.self_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("experiments.self_ms", "ms"),
    ("scenarios.self_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// The eight layers (workspace crates) spans are attributed to.
pub const LAYERS: &[&str] = &[
    "workload",
    "core",
    "service",
    "gateway",
    "cluster",
    "sim",
    "experiments",
    "scenarios",
];

pub fn e2e_unit(name: &str) -> Option<&'static str> {
    E2E.iter().find(|(n, _)| *n == name).map(|&(_, u)| u)
}

pub fn layer_unit(name: &str) -> Option<&'static str> {
    LAYER.iter().find(|(n, _)| *n == name).map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units here are the ones `BENCHMARK.json` declares.
    #[test]
    fn benchmark_json_lists_the_same_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for w in WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
        for (n, u) in E2E.iter().chain(LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{n}\", \"unit\": \"{u}\"")),
                "metric {n} [{u}]"
            );
        }
        let declared = text.matches("\"unit\":").count();
        assert_eq!(declared, E2E.len() + LAYER.len(), "no extra metrics");
    }
}
