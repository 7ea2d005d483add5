//! The benchmark's contract with `BENCHMARK.json` and with its seed.

use serde_json::Value;
use wallbench::metrics::{END_TO_END, PER_LAYER};
use wallbench::workload::{Shape, Workload, WORKLOADS};
use xbfs_graph::io;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn declared(doc: &Value, key: &str, field: &str) -> Vec<String> {
    doc[key]
        .as_array()
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
        .iter()
        .map(|m| m[field].as_str().expect("string field").to_string())
        .collect()
}

#[test]
fn every_printed_metric_is_declared_in_benchmark_json() {
    let doc: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    for (key, printed) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let names: Vec<&str> = printed.iter().map(|(n, _)| *n).collect();
        let units: Vec<&str> = printed.iter().map(|(_, u)| *u).collect();
        assert_eq!(declared(&doc, key, "name"), names, "{key} names");
        assert_eq!(declared(&doc, key, "unit"), units, "{key} units");
    }
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(declared(&doc, "workloads", "name"), workloads);
}

/// The workload as it runs, or — for the SCALE-20 ingest graph, too big for
/// a unit test — the same generator at SCALE 12.
fn testable(w: &Workload) -> Workload {
    match w.shape {
        Shape::Rmat { scale, edgefactor } if scale > 16 => Workload {
            shape: Shape::Rmat {
                scale: 12,
                edgefactor,
            },
            ..*w
        },
        _ => *w,
    }
}

#[test]
fn workload_inputs_are_a_pure_function_of_the_seed() {
    for w in WORKLOADS.iter().map(testable) {
        let bytes = w.graph_bytes(7);
        assert_eq!(
            bytes,
            w.graph_bytes(7),
            "{}: graph differs for one seed",
            w.name
        );
        assert_ne!(
            bytes,
            w.graph_bytes(8),
            "{}: graph ignores the seed",
            w.name
        );

        let csr = io::decode_csr(&bytes).expect("the image decodes");
        assert_eq!(w.pool_sources(&csr, 7), w.pool_sources(&csr, 7));
        assert_ne!(w.pool_sources(&csr, 7), w.pool_sources(&csr, 8));
        let schedule = w.schedule(&csr, 7);
        assert_eq!(schedule, w.schedule(&csr, 7));
        if !schedule.is_empty() {
            assert_ne!(schedule, w.schedule(&csr, 8));
        }
    }
}
