//! The metrics the benchmark reports, the statistics it reports them with,
//! and the one-line JSON result.

/// End-to-end metrics, `(name, unit)`, printed with tracing off. The same
/// list, with bounds, is `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_s", "s"),
    ("qps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_teps_hmean", "TEPS"),
    ("sim_latency_p50_s", "s"),
    ("sim_latency_p95_s", "s"),
    ("sim_makespan_s", "s"),
];

/// Per-layer metrics, `(name, unit)`, printed by the traced run. The same
/// list is `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.decode_s", "s"),
    ("graph.symmetry_check_s", "s"),
    ("graph.decode_mb_per_s", "MB/s"),
    ("graph.setup_share", "ratio"),
    ("runtime.train_s", "s"),
    ("runtime.predict_s", "s"),
    ("runtime.predict_overhead_frac", "ratio"),
    ("engine.kernel_s", "s"),
    ("engine.par_kernel_s", "s"),
    ("engine.validate_s", "s"),
    ("engine.multi_kernel_s", "s"),
    ("engine.kernel_edges_per_s", "edges/s"),
    ("engine.levels", "count"),
    ("engine.edges_examined", "count"),
    ("core.run_cross_s", "s"),
    ("session.run_s", "s"),
    ("session.run_no_checkpoint_s", "s"),
    ("session.checkpoint_share", "ratio"),
    ("session.overhead_ratio", "ratio"),
    ("session.batch_run_s", "s"),
    ("session.checkpoints_taken", "count"),
    ("session.checkpoint_bytes", "bytes"),
    ("service.run_schedule_s", "s"),
    ("service.wall_per_served_over_session", "ratio"),
    ("service.served", "count"),
    ("service.shed", "count"),
    ("service.batch_dispatches", "count"),
    ("service.mean_batch_lanes", "count"),
    ("service.peak_queue_depth", "count"),
    ("service.mean_in_flight", "count"),
    ("observe.prometheus_s", "s"),
    ("observe.report_json_s", "s"),
    ("observe.merged_events", "count"),
    ("trace.untraced_round_s", "s"),
    ("trace.traced_round_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_s", "s"),
];

/// Median (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Harmonic mean, the Graph 500 rule for averaging rates.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "harmonic mean of no samples");
    values.len() as f64 / values.iter().map(|v| 1.0 / v).sum::<f64>()
}

/// The process's peak resident set so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak RSS needs /proc/self/status (Linux)");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb * 1024.0 / 1e6
}

/// The result line: `metrics` must name exactly the `declared` metrics,
/// in order, and every value must be finite.
pub fn result_line(
    attempted: u64,
    failed: u64,
    declared: &[(&str, &str)],
    metrics: &[(&str, f64)],
) -> String {
    let names: Vec<&str> = metrics.iter().map(|(n, _)| *n).collect();
    let expected: Vec<&str> = declared.iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names, expected,
        "reported metrics differ from the declared list"
    );
    let body: Vec<String> = declared
        .iter()
        .zip(metrics)
        .map(|((name, unit), (_, value))| {
            assert!(value.is_finite(), "metric {name} is {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95.0), 95.0);
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(harmonic_mean(&[1.0, 4.0, 4.0]), 2.0);
    }

    #[test]
    fn result_line_keeps_every_digit() {
        let line = result_line(3, 0, &[("a_s", "s")], &[("a_s", 0.123456789012345)]);
        assert!(line.contains("0.123456789012345"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }
}
