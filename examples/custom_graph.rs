//! Bring your own graph — the paper's other motivating domains (protein
//! interaction networks, EDA netlists) arrive as edge lists, not Kronecker
//! parameters.
//!
//! Reads a whitespace edge list (`u v` per line, `#`/`%` comments) from a
//! path given as the first argument — or demonstrates on a built-in
//! protein-interaction-like graph — then: cleans it into CSR, finds the
//! component structure, answers st-connectivity queries, and runs the
//! adaptive cross-architecture BFS from the most connected vertex.
//!
//! ```text
//! cargo run --release --example custom_graph [edges.txt]
//! ```

use xbfs::graph::{components, io, stats};
use xbfs::prelude::*;

fn builtin_demo_graph() -> Csr {
    // A protein-interaction-like network: a few dense complexes
    // (cliques) bridged by sparse interaction chains, plus isolated
    // proteins — structurally the classic PPI shape.
    let mut el = EdgeList::new(64);
    for base in [0u32, 12, 24] {
        for u in 0..8 {
            for v in (u + 1)..8 {
                el.push(base + u, base + v);
            }
        }
    }
    // Chains bridging the complexes.
    for (a, b) in [(7, 12), (19, 24), (31, 33), (33, 35), (35, 40)] {
        el.push(a, b);
    }
    // Vertices 41..64 stay isolated.
    xbfs::graph::Csr::from_edge_list(&el)
}

fn main() {
    let graph = match std::env::args().nth(1) {
        Some(path) => {
            let el = std::fs::File::open(&path)
                .and_then(|file| io::read_edge_list(std::io::BufReader::new(file), 0))
                .unwrap_or_else(|e| {
                    eprintln!("error: {path}: {e}");
                    std::process::exit(1)
                });
            println!("loaded {} edges from {path}", el.len());
            xbfs::graph::Csr::from_edge_list(&el)
        }
        None => {
            println!("no file given — using the built-in protein-complex demo graph");
            builtin_demo_graph()
        }
    };

    println!(
        "graph: {} vertices, {} undirected edges, {} isolated",
        graph.num_vertices(),
        graph.num_edges(),
        stats::isolated_count(&graph),
    );

    // Component structure.
    let comps = components::connected_components(&graph);
    let giant = comps.largest().expect("non-empty graph");
    println!(
        "{} components; largest has {} vertices",
        comps.count(),
        comps.sizes[giant as usize],
    );

    // st-connectivity between the two highest-degree vertices.
    let (hub, hub_deg) = stats::max_degree_vertex(&graph).unwrap();
    let second = graph
        .vertices()
        .filter(|&v| v != hub)
        .max_by_key(|&v| graph.degree(v))
        .unwrap();
    match xbfs::engine::stcon::st_connectivity(&graph, hub, second) {
        xbfs::engine::stcon::StResult::Connected { distance } => {
            println!("hub {hub} (degree {hub_deg}) reaches vertex {second} in {distance} hop(s)")
        }
        xbfs::engine::stcon::StResult::Disconnected => {
            println!("hub {hub} and vertex {second} are in different components")
        }
    }

    // Adaptive BFS from the hub. The graph's provenance is unknown, so the
    // stats block uses the uninformative quadrant prior.
    let graph_stats = GraphStats::unknown(&graph);
    let runtime = AdaptiveRuntime::quick_trained();
    let run = runtime.run_cross(&graph, &graph_stats, hub);
    xbfs::engine::validate(&graph, &run.traversal.output).expect("valid BFS");
    println!(
        "adaptive BFS from hub: visited {} vertices in {} levels, plan {:?}, {:.3} ms simulated",
        run.traversal.output.visited_count(),
        run.traversal.depth(),
        run.placements,
        run.total_seconds * 1e3,
    );

    // Distance histogram within the hub's component.
    let mut histogram = std::collections::BTreeMap::<u32, u64>::new();
    for &l in &run.traversal.output.levels {
        if l != xbfs::engine::UNREACHED {
            *histogram.entry(l).or_default() += 1;
        }
    }
    println!("distance histogram from hub: {histogram:?}");
}
