//! The benchmark's workloads and the inputs each one generates from a seed.
//!
//! Everything here is a pure function of the workload and the seed: the
//! encoded graph image, the query sources and the arrival schedule. The
//! program under test only ever receives these generated inputs.

use xbfs_core::training::pick_source;
use xbfs_core::{QueryRequest, ScheduleItem};
use xbfs_graph::components::connected_components;
use xbfs_graph::{gen, io, rmat, Csr, RmatConfig, VertexId};

/// The graph a workload runs on.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Graph 500 Kronecker graph with the paper's default probabilities.
    Rmat { scale: u32, edgefactor: u32 },
    /// `side × side` road-like grid with `side² / 32` seeded chords.
    Road { side: u32 },
}

/// How queries reach the program.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// One client issues default `RunSession` queries one after another
    /// (a closed loop): the CLI user's path.
    ClosedLoop,
    /// A seeded open-loop arrival schedule on the simulated clock, replayed
    /// by one `QueryService::run_schedule` call.
    Serve {
        /// Mean arrival rate on the simulated clock, queries per second.
        rate_hz: f64,
        /// Batching window (0 = every query runs solo).
        batch_window: u32,
        /// Keep query traces and build the operator's exposition
        /// (Prometheus text plus report JSON) inside the timed interval.
        telemetry: bool,
    },
}

/// One named set of inputs and the way the benchmark drives them.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub mode: Mode,
    /// Closed-loop sources, issued one at a time.
    pub pool: usize,
    /// Closed-loop queries per round, taken cyclically from the pool.
    pub per_round: usize,
    /// Rounds a run makes even when `--seconds` have passed, each on a
    /// set-up of its own. On a serve workload the first is a warm-up, so
    /// this is one more than the measured schedule replays.
    pub min_rounds: usize,
    /// Pool sources the traced run probes each layer with (one
    /// multi-source group), spread over the pool; at most the pool size.
    pub probes: usize,
}

/// Queries in each serve schedule: enough that the p95 latency has ten
/// samples beyond it.
pub const ARRIVALS: usize = 200;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "ingest-rmat-s20",
        shape: Shape::Rmat {
            scale: 20,
            edgefactor: 16,
        },
        mode: Mode::ClosedLoop,
        pool: 16,
        per_round: 6,
        min_rounds: 3,
        probes: 4,
    },
    Workload {
        name: "serve-rmat-burst",
        shape: Shape::Rmat {
            scale: 16,
            edgefactor: 16,
        },
        mode: Mode::Serve {
            rate_hz: 1600.0,
            batch_window: 8,
            telemetry: false,
        },
        pool: 16,
        per_round: 16,
        min_rounds: 3,
        probes: 8,
    },
    Workload {
        name: "serve-road-telemetry",
        shape: Shape::Road { side: 256 },
        mode: Mode::Serve {
            rate_hz: 90.0,
            batch_window: 0,
            telemetry: true,
        },
        pool: 48,
        per_round: 16,
        min_rounds: 3,
        probes: 8,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The workload's graph for `seed`.
    pub fn graph(&self, seed: u64) -> Csr {
        self.shape.graph(mix(seed, 0x0067_7261_7068))
    }

    /// The encoded `.xbfs` image the program ingests.
    pub fn graph_bytes(&self, seed: u64) -> Vec<u8> {
        io::encode_csr(&self.graph(seed))
    }

    /// The arrival schedule of a serve workload over `csr` (empty for the
    /// closed loop).
    pub fn schedule(&self, csr: &Csr, seed: u64) -> Vec<ScheduleItem> {
        let Mode::Serve { rate_hz, .. } = self.mode else {
            return Vec::new();
        };
        let sources = pick_sources(csr, mix(seed, 0x0073_6368_6564), ARRIVALS);
        let mut state = mix(seed, 0x6172_7269_7665);
        let mut arrival_s = 0.0f64;
        sources
            .iter()
            .enumerate()
            .map(|(i, &source)| {
                // Uniform inter-arrival gaps in [0.5, 1.5] / rate, as the
                // CLI's `serve --arrivals` generator draws them.
                state = mix(state, i as u64);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                arrival_s += (0.5 + u) / rate_hz;
                ScheduleItem::Query(
                    QueryRequest::builder(i as u64, source)
                        .arrival(arrival_s)
                        .build(),
                )
            })
            .collect()
    }

    /// The closed-loop pool (also probed in the traced run), one source per
    /// stratum of two-hop reach (the edges a BFS from the source examines
    /// by its second level). That reach largely sets how long a traversal
    /// takes, so stratifying keeps one seed's few queries comparable with
    /// another's. In ascending reach.
    pub fn pool_sources(&self, csr: &Csr, seed: u64) -> Vec<VertexId> {
        const STRATUM: usize = 16;
        let reach = |v: VertexId| -> u64 { csr.neighbors(v).iter().map(|&u| csr.degree(u)).sum() };
        let mut candidates = pick_sources(csr, mix(seed, 0x736f_6c6f), self.pool * STRATUM);
        candidates.sort_by_key(|&v| (reach(v), v));
        candidates
            .chunks(STRATUM)
            .map(|stratum| stratum[STRATUM / 2])
            .collect()
    }
}

impl Shape {
    fn graph(self, seed: u64) -> Csr {
        match self {
            // Two generator chunks, fixed, so the graph does not depend on
            // the machine's core count.
            Shape::Rmat { scale, edgefactor } => Csr::from_edge_list(&rmat::parallel_edge_list(
                RmatConfig::new(scale, edgefactor).with_seed(seed),
                2,
            )),
            Shape::Road { side } => gen::road_like(side, side, side * side / 32, seed),
        }
    }
}

/// `count` distinct sources drawn with `training::pick_source` and kept
/// only when they lie in the giant component, so every query traverses it.
pub fn pick_sources(csr: &Csr, seed: u64, count: usize) -> Vec<VertexId> {
    let components = connected_components(csr);
    let giant = components.largest().expect("workload graphs are not empty");
    let mut chosen = Vec::with_capacity(count);
    let mut attempt = 0u64;
    while chosen.len() < count {
        let v = pick_source(csr, mix(seed, attempt)).expect("workload graphs have edges");
        attempt += 1;
        if components.labels[v as usize] == giant && !chosen.contains(&v) {
            chosen.push(v);
        }
    }
    chosen
}

/// SplitMix64 finalizer of `seed ^ salt`: decorrelates the input streams
/// that one benchmark seed drives.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = (seed ^ salt).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
