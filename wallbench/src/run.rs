//! Runs one workload through the public API: repeated set-up, closed-loop
//! rounds of single queries, serve rounds, and — in the traced run — one
//! probe of every layer on the same graph and sources.
//!
//! Every answer is checked with the Graph 500 validator; a wrong answer or
//! a simulated figure that does not replay bit for bit ends the run with an
//! error instead of a time.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use xbfs_core::{
    prometheus_text, AdaptiveRuntime, BatchPolicy, BatchSession, CheckpointPolicy, CrossParams,
    Disposition, QueryRequest, QueryService, RecoveredRun, ScheduleItem, ServiceConfig,
    ServiceReport,
};
use xbfs_engine::{hybrid, par, reference, run_multi, validate, BfsOutput, FixedMN, TraceEvent};
use xbfs_graph::{io, Csr, GraphStats, VertexId};

use crate::metrics::{harmonic_mean, median, peak_rss_mb, percentile};
use crate::trace::Tracer;
use crate::workload::{Mode, Workload};

/// How one invocation runs its workload.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    pub seed: u64,
    /// Minimum seconds of measured rounds after set-up.
    pub seconds: f64,
    /// Record spans and run the per-layer probes.
    pub trace: bool,
}

/// What a run reports.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics, in `metrics::END_TO_END` order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics, in `metrics::PER_LAYER` order (traced run only).
    pub per_layer: Vec<(&'static str, f64)>,
    /// Human-readable report lines.
    pub notes: Vec<String>,
}

/// The shared last-level cache the workload record compares CSR sizes to.
const LLC_BYTES: f64 = 300.0 * 1024.0 * 1024.0;

/// The single-device kernel policy `xbfs-cli bfs` runs by default.
fn cli_policy() -> FixedMN {
    FixedMN::new(14.0, 24.0)
}

/// Everything set-up produces: the program ready to answer.
struct Ready {
    csr: Arc<Csr>,
    stats: GraphStats,
    rt: AdaptiveRuntime,
    params: CrossParams,
    service: Option<QueryService>,
}

fn service_config(batch_window: u32, telemetry: bool) -> ServiceConfig {
    ServiceConfig {
        batching: BatchPolicy::windowed(batch_window),
        keep_query_traces: telemetry,
        ..ServiceConfig::default()
    }
}

/// Graph bytes in memory → ready to answer.
fn setup(w: &Workload, bytes: &[u8], tr: &mut Tracer) -> Result<Ready, String> {
    let csr = tr
        .span("graph.decode", None, |_| io::decode_csr(bytes))
        .map_err(|e| format!("decode failed: {e}"))?;
    let csr = Arc::new(csr);
    let stats = tr.span("graph.stats", None, |_| GraphStats::unknown(&csr));
    let rt = tr.span("runtime.train", None, |_| AdaptiveRuntime::quick_trained());
    let params = tr.span("runtime.predict", None, |_| {
        rt.predict_params(black_box(&stats))
    });
    let service = match w.mode {
        Mode::ClosedLoop => None,
        Mode::Serve {
            batch_window,
            telemetry,
            ..
        } => Some(tr.span("service.from_runtime", None, |_| {
            QueryService::from_runtime(
                &rt,
                Arc::clone(&csr),
                &stats,
                service_config(batch_window, telemetry),
            )
        })),
    };
    Ok(Ready {
        csr,
        stats,
        rt,
        params,
        service,
    })
}

/// The run's set-ups: their walls, and the parameters every one of them
/// must predict again.
#[derive(Default)]
struct SetUps {
    walls: Vec<f64>,
    params: Option<CrossParams>,
}

impl SetUps {
    /// Set up into `ready`, timed as a `setup` span.
    fn again(
        &mut self,
        w: &Workload,
        bytes: &[u8],
        ready: &mut Option<Ready>,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        // Drop the previous set-up first, so peak memory holds one graph.
        drop(ready.take());
        let t0 = Instant::now();
        let r = tr.span("setup", None, |tr| setup(w, bytes, tr))?;
        self.walls.push(t0.elapsed().as_secs_f64());
        match &self.params {
            None => self.params = Some(r.params),
            Some(p) => replayed(p, &r.params, "predicted switch parameters")?,
        }
        *ready = Some(r);
        Ok(())
    }
}

/// Simulated figures and counts of one validated query; replayed rounds
/// must reproduce them bit for bit.
#[derive(Clone, Debug, PartialEq)]
struct SimQuery {
    total_s: f64,
    latency_s: f64,
    levels: u32,
    edges_examined: u64,
    checkpoints: u32,
    checkpoint_bytes: u64,
}

impl SimQuery {
    fn teps(&self, component_edges: u64) -> f64 {
        component_edges as f64 / self.total_s
    }
}

/// Checks answers and caches the TEPS numerator: every source lies in the
/// giant component, so every validated tree spans the same vertices and
/// edges. It holds no graph, so a set-up can drop the previous one.
#[derive(Default)]
struct Checker {
    /// `(visited vertices, component edges)` of the first checked tree.
    giant: Option<(u64, u64)>,
    /// Fingerprint of the last validated served answer per source.
    served: HashMap<VertexId, u64>,
}

/// FNV-1a over the parent and level words of an answer.
fn fingerprint(out: &BfsOutput) -> u64 {
    out.parents
        .iter()
        .chain(&out.levels)
        .fold(0xcbf2_9ce4_8422_2325, |h, &w| {
            (h ^ u64::from(w)).wrapping_mul(0x0100_0000_01b3)
        })
}

impl Checker {
    /// Graph 500 validation, timed as an `engine.validate` span.
    fn validate(
        &self,
        csr: &Csr,
        tr: &mut Tracer,
        out: &BfsOutput,
        what: &str,
    ) -> Result<(), String> {
        tr.span("engine.validate", None, |_| validate(csr, out))
            .map_err(|e| format!("wrong answer: {what} from source {}: {e}", out.source))
    }

    /// A validated tree covers its source's whole component, so the same
    /// vertex count means the same (giant) component.
    fn spans_giant(&mut self, csr: &Csr, out: &BfsOutput, what: &str) -> Result<(), String> {
        let visited = out.visited_count();
        match self.giant {
            None => self.giant = Some((visited, reference::component_edges(csr, out))),
            Some((v, _)) if v != visited => {
                return Err(format!(
                    "wrong answer: {what} from source {} visits {visited} vertices, not the \
                     giant component's {v}",
                    out.source
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }

    fn check(
        &mut self,
        csr: &Csr,
        tr: &mut Tracer,
        out: &BfsOutput,
        what: &str,
    ) -> Result<(), String> {
        self.validate(csr, tr, out, what)?;
        self.spans_giant(csr, out, what)
    }

    /// [`check`](Self::check) for a served answer. Every replay serves the
    /// same sources; an answer bit-identical to one already validated for
    /// its source is that validated answer, so it is not validated again.
    fn check_served(&mut self, csr: &Csr, tr: &mut Tracer, out: &BfsOutput) -> Result<(), String> {
        let print = fingerprint(out);
        if self.served.get(&out.source) != Some(&print) {
            self.check(csr, tr, out, "served query")?;
            self.served.insert(out.source, print);
        }
        Ok(())
    }

    /// Undirected edges of the giant component: the TEPS numerator.
    fn component_edges(&self) -> u64 {
        self.giant.expect("at least one answer checked").1
    }
}

fn sim_of(run: &RecoveredRun, latency_s: f64) -> SimQuery {
    SimQuery {
        total_s: run.report.total_seconds,
        latency_s,
        levels: run.report.levels_executed,
        edges_examined: run.report.edges_examined,
        checkpoints: run.report.checkpoints_taken,
        checkpoint_bytes: run.report.checkpoint_bytes,
    }
}

/// One closed-loop round: each source as a default `RunSession` plus the
/// benchmark's own Graph 500 validation. Returns `(wall_s, sim)` per query;
/// `sim` is `None` for a query that ended in a typed error.
fn solo_round(
    ready: &Ready,
    sources: &[VertexId],
    checker: &mut Checker,
    tr: &mut Tracer,
    round: usize,
) -> Result<Vec<(f64, Option<SimQuery>)>, String> {
    let mut out = Vec::with_capacity(sources.len());
    for (i, &source) in sources.iter().enumerate() {
        let q = Some((round * sources.len() + i) as u64);
        let t0 = Instant::now();
        let answer = tr.span("query", q, |tr| {
            let run = tr.span("session.run", q, |_| {
                ready
                    .rt
                    .session(&ready.csr, &ready.stats)
                    .source(source)
                    .run()
            });
            run.map(|run| {
                let verdict = checker.validate(&ready.csr, tr, &run.output, "session");
                (run, verdict)
            })
        });
        let wall_s = t0.elapsed().as_secs_f64();
        let sim = match answer {
            Err(e) => {
                eprintln!("query from source {source} ended in a typed error: {e}");
                None
            }
            Ok((run, verdict)) => {
                verdict?;
                checker.spans_giant(&ready.csr, &run.output, "session")?;
                Some(sim_of(&run, run.report.total_seconds))
            }
        };
        out.push((wall_s, sim));
    }
    Ok(out)
}

/// Service-level counts of one schedule replay.
#[derive(Clone, Debug, Default, PartialEq)]
struct ServiceCounts {
    served: u32,
    shed: u32,
    batch_dispatches: u32,
    batch_lanes: u32,
    peak_queue_depth: u32,
    mean_in_flight: f64,
    makespan_s: f64,
}

/// One replay of a schedule: the timed wall, then the checked results.
struct StreamRound {
    wall_s: f64,
    attempted: u64,
    validated: u64,
    sims: Vec<SimQuery>,
    counts: ServiceCounts,
    /// Events the Prometheus exposition folded, when it was built.
    merged_events: Option<usize>,
}

/// Prometheus exposition over the merged events plus the report JSON, as
/// `serve --metrics-out --report-json` builds them. Returns the merged
/// event count.
fn export(report: &ServiceReport, tr: &mut Tracer) -> usize {
    let (events, text) = tr.span("observe.prometheus", None, |_| {
        let merged = report.merged_events();
        (merged.len(), prometheus_text(&merged))
    });
    let json = tr.span("observe.report_json", None, |_| report.to_json());
    black_box((text, json));
    events
}

/// Replay `schedule` once. With `telemetry` the exports are part of the
/// timed interval; otherwise a traced run times them afterwards.
fn stream_round(
    service: &QueryService,
    csr: &Csr,
    schedule: &[ScheduleItem],
    telemetry: bool,
    checker: &mut Checker,
    tr: &mut Tracer,
) -> Result<StreamRound, String> {
    let t0 = Instant::now();
    let (report, exported) = tr.span("stream.round", None, |tr| {
        let report = tr
            .span("service.run_schedule", None, |_| {
                service.run_schedule(schedule)
            })
            .map_err(|e| format!("service failed: {e}"))?;
        let exported = telemetry.then(|| export(&report, tr));
        Ok::<_, String>((report, exported))
    })?;
    let wall_s = t0.elapsed().as_secs_f64();
    let merged_events = match exported {
        Some(n) => Some(n),
        None if tr.enabled() => Some(export(&report, tr)),
        None => None,
    };

    let attempted = report.outcomes.len() as u64;
    let tally = [
        report.served,
        report.degraded,
        report.shed_overloaded,
        report.shed_shutdown,
        report.deadline_missed,
        report.failed,
    ]
    .iter()
    .map(|&c| u64::from(c))
    .sum::<u64>();
    if tally != attempted || attempted != schedule.len() as u64 {
        return Err(format!(
            "service report does not reconcile: served + degraded + shed + missed + failed = \
             {tally}, outcomes {attempted}, scheduled {}",
            schedule.len()
        ));
    }
    let mut sims = Vec::new();
    for o in &report.outcomes {
        match (o.disposition, &o.run, o.completion_s) {
            (Disposition::Served { .. }, Some(run), Some(done_s)) => {
                checker.check_served(csr, tr, &run.output)?;
                sims.push(sim_of(run, done_s - o.arrival_s));
            }
            (Disposition::Served { .. }, _, _) => {
                return Err(format!("query {} served without a result", o.id))
            }
            // Shed or failed: counted against `attempted`.
            _ => {}
        }
    }
    let lanes: Vec<u32> = report
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::BatchLane { lane, .. } => Some(*lane),
            _ => None,
        })
        .collect();
    let counts = ServiceCounts {
        served: report.served + report.degraded,
        shed: report.shed_overloaded + report.shed_shutdown,
        batch_dispatches: lanes.iter().filter(|&&l| l == 0).count() as u32,
        batch_lanes: lanes.len() as u32,
        peak_queue_depth: report.peak_queue_depth,
        mean_in_flight: report.mean_in_flight,
        makespan_s: report.makespan_s,
    };
    Ok(StreamRound {
        wall_s,
        attempted,
        validated: sims.len() as u64,
        sims,
        counts,
        merged_events,
    })
}

/// Counts the probes made, for the per-layer report.
#[derive(Debug, Default)]
struct ProbeCounts {
    levels: u64,
    edges_examined: u64,
}

/// Time every layer's public call once per probe source (the kernel twice,
/// to check it replays), then the multi-source calls on the whole group.
fn probe(
    ready: &Ready,
    sources: &[VertexId],
    threads: usize,
    checker: &mut Checker,
    tr: &mut Tracer,
) -> Result<ProbeCounts, String> {
    let csr = &*ready.csr;
    let symmetric = tr.span("graph.symmetry_check", None, |_| csr.is_symmetric());
    if !symmetric {
        return Err("wrong answer: the decoded graph is not symmetric".into());
    }
    let mut counts = ProbeCounts::default();
    for (i, &s) in sources.iter().enumerate() {
        let q = Some(i as u64);
        let first = tr.span("engine.kernel", q, |_| {
            hybrid::run(csr, s, &mut cli_policy())
        });
        checker.check(csr, tr, &first.output, "hybrid::run")?;
        let again = tr.span("engine.kernel", q, |_| {
            hybrid::run(csr, s, &mut cli_policy())
        });
        if again.output != first.output || again.levels != first.levels {
            return Err(format!(
                "determinism failure: hybrid::run from {s} differs between two calls"
            ));
        }
        counts.levels += first.levels.len() as u64;
        counts.edges_examined += first.total_edges_examined();

        let t = tr.span("engine.par_kernel", q, |_| {
            par::run(csr, s, &mut cli_policy(), threads)
        });
        checker.check(csr, tr, &t.output, "par::run")?;
        let cross = tr.span("core.run_cross", q, |_| {
            ready.rt.run_cross(csr, &ready.stats, s)
        });
        checker.check(csr, tr, &cross.traversal.output, "run_cross")?;
        let bare = tr
            .span("session.run_no_checkpoint", q, |_| {
                ready
                    .rt
                    .session(csr, &ready.stats)
                    .source(s)
                    .checkpoints(CheckpointPolicy::disabled())
                    .run()
            })
            .map_err(|e| format!("session without checkpoints from {s} failed: {e}"))?;
        checker.check(csr, tr, &bare.output, "session without checkpoints")?;
    }
    let lanes = tr
        .span("engine.multi_kernel", None, |_| {
            run_multi(csr, sources, &mut cli_policy(), threads)
        })
        .map_err(|e| format!("run_multi failed: {e}"))?;
    for t in &lanes {
        checker.check(csr, tr, &t.output, "run_multi lane")?;
    }
    let batch = tr
        .span("session.batch_run", None, |_| {
            BatchSession::new(&ready.rt, csr, &ready.stats)
                .sources(sources)
                .run()
        })
        .map_err(|e| format!("batch session failed: {e}"))?;
    for lane in &batch.lanes {
        checker.check(csr, tr, &lane.run.output, "batch session lane")?;
    }
    Ok(counts)
}

/// Closed-loop round `round`: `per_round` pool sources, taken cyclically,
/// so the first rounds cover the pool and later ones replay it.
fn round_sources(pool: &[VertexId], per_round: usize, round: usize) -> Vec<VertexId> {
    (0..per_round)
        .map(|i| pool[(round * per_round + i) % pool.len()])
        .collect()
}

fn replayed<T: PartialEq + std::fmt::Debug>(
    first: &T,
    again: &T,
    what: &str,
) -> Result<(), String> {
    if first == again {
        Ok(())
    } else {
        Err(format!(
            "determinism failure: {what} differs between replays\n  first: {first:?}\n  again: {again:?}"
        ))
    }
}

fn median_of(tr: &Tracer, span: &str) -> f64 {
    let d = tr.durations(span);
    if d.is_empty() {
        panic!("no '{span}' span was recorded");
    }
    median(&d)
}

/// Run workload `w` on its encoded graph `bytes`.
pub fn run(w: &Workload, bytes: &[u8], opts: &Options) -> Result<Outcome, String> {
    let mut tr = Tracer::new(opts.trace);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut notes = Vec::new();

    let closed_loop = matches!(w.mode, Mode::ClosedLoop);
    // `--seconds` counts from the first set-up: set-up is measured too.
    let measure_start = Instant::now();
    let mut setups = SetUps::default();
    let mut ready: Option<Ready> = None;
    // Every round runs on a set-up of its own, so set-up samples, and the
    // places in memory the graph lands, spread over the run.
    setups.again(w, bytes, &mut ready, &mut tr)?;
    let (pool, schedule) = {
        let csr = &ready.as_ref().expect("set up").csr;
        (w.pool_sources(csr, opts.seed), w.schedule(csr, opts.seed))
    };
    let mut checker = Checker::default();

    // Rounds. Each runs part of the closed loop and, on a serve workload,
    // one schedule replay, so the latency and throughput samples spread over
    // the whole run rather than one stretch of it: the host's speed drifts
    // over tens of seconds, and a median over a short stretch follows it.
    // The workload's minimum rounds cover its closed-loop pool. On a serve
    // workload round 0's replay is a warm-up — the first replay of the road
    // stream is 10-20 % slower while the heap grows — and its wall is not
    // used. A traced run alternates untraced and traced measured rounds, to
    // measure the tracing overhead.
    let first_measured = usize::from(!closed_loop);
    let mut solo_walls = Vec::new();
    let mut pool_sims: HashMap<VertexId, Option<SimQuery>> = HashMap::new();
    let mut stream_first: Option<StreamRound> = None;
    let mut stream_qps = Vec::new();
    let mut merged_events = None;
    let mut round_walls = [Vec::new(), Vec::new()]; // [untraced, traced]
    let mut attempted = 0u64;
    let mut failed = 0u64;
    // Per round, for the report: median closed-loop query wall and
    // schedule replay wall.
    let mut round_log: Vec<(f64, Option<f64>)> = Vec::new();
    let mut rounds = 0;
    // Wall of the rounds run with spans off, checks included.
    let mut untraced_s = 0.0;
    while rounds < w.min_rounds || measure_start.elapsed().as_secs_f64() < opts.seconds {
        if rounds > 0 {
            tr.set_enabled(opts.trace);
            setups.again(w, bytes, &mut ready, &mut tr)?;
        }
        let ready = ready.as_ref().expect("set up");
        let round_start = Instant::now();
        let traced = opts.trace && rounds >= first_measured && (rounds - first_measured) % 2 == 1;
        tr.set_enabled(traced);
        let sources = round_sources(&pool, w.per_round, rounds);
        let results = solo_round(ready, &sources, &mut checker, &mut tr, rounds)?;
        attempted += results.len() as u64;
        for (&source, (wall_s, sim)) in sources.iter().zip(&results) {
            match sim {
                Some(_) => solo_walls.push(*wall_s),
                None => failed += 1,
            }
            match pool_sims.get(&source) {
                None => {
                    pool_sims.insert(source, sim.clone());
                }
                Some(first) => replayed(first, sim, "closed-loop simulated figures")?,
            }
        }
        let query_walls: Vec<f64> = results.iter().map(|(w, _)| *w).collect();
        round_log.push((median(&query_walls), None));
        if closed_loop {
            let wall: f64 = query_walls.iter().sum();
            round_walls[usize::from(traced)].push(wall);
        }

        if let (Some(service), Mode::Serve { telemetry, .. }) = (&ready.service, w.mode) {
            let r = stream_round(
                service,
                &ready.csr,
                &schedule,
                telemetry,
                &mut checker,
                &mut tr,
            )?;
            round_log[rounds].1 = Some(r.wall_s);
            if rounds >= first_measured {
                round_walls[usize::from(traced)].push(r.wall_s);
                stream_qps.push(r.validated as f64 / r.wall_s);
            }
            attempted += r.attempted;
            failed += r.attempted - r.validated;
            match (merged_events, r.merged_events) {
                (Some(first), Some(again)) => replayed(&first, &again, "merged event count")?,
                (None, again) => merged_events = again,
                (Some(_), None) => {}
            }
            match &stream_first {
                None => stream_first = Some(r),
                Some(first) => {
                    replayed(&first.sims, &r.sims, "served queries' simulated figures")?;
                    replayed(&first.counts, &r.counts, "service counts")?;
                }
            }
        }
        if !traced {
            untraced_s += round_start.elapsed().as_secs_f64();
        }
        rounds += 1;
    }
    tr.set_enabled(opts.trace);
    let ready = ready.expect("set up");
    let csr = &*ready.csr;
    let solo_sims: Vec<SimQuery> = pool.iter().filter_map(|s| pool_sims[s].clone()).collect();
    if solo_walls.is_empty() {
        return Err("no closed-loop query completed".into());
    }
    let query_p50_s = median(&solo_walls);

    // End-to-end metrics.
    let (qps, sims) = match &stream_first {
        None => {
            let validated = solo_walls.len() as f64;
            (
                validated / solo_walls.iter().sum::<f64>(),
                solo_sims.clone(),
            )
        }
        Some(first) => (median(&stream_qps), first.sims.clone()),
    };
    if sims.is_empty() {
        return Err("no query was validated".into());
    }
    let edges = checker.component_edges();
    let teps: Vec<f64> = sims.iter().map(|s| s.teps(edges)).collect();
    let latencies: Vec<f64> = sims.iter().map(|s| s.latency_s).collect();
    let makespan_s = match &stream_first {
        // One client, one query at a time: the queries' simulated times add.
        None => sims.iter().map(|s| s.total_s).sum(),
        Some(first) => first.counts.makespan_s,
    };
    let end_to_end = vec![
        ("setup_s", median(&setups.walls)),
        ("query_p50_s", query_p50_s),
        ("qps", qps),
        ("peak_rss_mb", peak_rss_mb()),
        ("sim_teps_hmean", harmonic_mean(&teps)),
        ("sim_latency_p50_s", median(&latencies)),
        ("sim_latency_p95_s", percentile(&latencies, 95.0)),
        ("sim_makespan_s", makespan_s),
    ];

    let levels = solo_sims.iter().map(|s| s.levels).max().unwrap_or(0);
    notes.push(format!(
        "graph: {} vertices, {} undirected edges, {} levels from the closed-loop sources, \
         CSR {} bytes = {:.3} x the 300 MiB LLC, image {} bytes",
        csr.num_vertices(),
        csr.num_edges(),
        levels,
        csr.storage_bytes(),
        csr.storage_bytes() as f64 / LLC_BYTES,
        bytes.len(),
    ));
    notes.push(format!(
        "queries: {} closed-loop per round from a pool of {}{}, {rounds} round(s){}; \
         {attempted} attempted, {failed} failed (failed_frac {})",
        w.per_round,
        pool.len(),
        if schedule.is_empty() {
            String::new()
        } else {
            format!(" + {} scheduled", schedule.len())
        },
        if closed_loop {
            ""
        } else {
            ", the first replay a warm-up"
        },
        failed as f64 / attempted as f64,
    ));
    notes.push(format!(
        "rounds (s): {}",
        round_log
            .iter()
            .map(|(query, replay)| match replay {
                Some(replay) => format!("[query p50 {query:.6}, replay {replay:.6}]"),
                None => format!("[query p50 {query:.6}]"),
            })
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let per_layer = if opts.trace {
        // Spread the probes over the pool, which is in ascending reach.
        let probes: Vec<VertexId> = pool
            .iter()
            .copied()
            .step_by(pool.len() / w.probes)
            .take(w.probes)
            .collect();
        let counts = tr.span("probe", None, |tr| {
            probe(&ready, &probes, threads, &mut checker, tr)
        })?;
        // The closed loop has no service of its own: replay its probe
        // sources as one burst through a telemetry-keeping service.
        let service_counts = match &stream_first {
            Some(first) => first.counts.clone(),
            None => {
                let service = QueryService::from_runtime(
                    &ready.rt,
                    Arc::clone(&ready.csr),
                    &ready.stats,
                    service_config(0, true),
                );
                let burst: Vec<ScheduleItem> = probes
                    .iter()
                    .enumerate()
                    .map(|(i, &s)| ScheduleItem::Query(QueryRequest::builder(i as u64, s).build()))
                    .collect();
                let r = tr.span("probe.service", None, |tr| {
                    stream_round(&service, csr, &burst, true, &mut checker, tr)
                })?;
                merged_events = r.merged_events;
                r.counts
            }
        };
        let breakdown = tr.breakdown();
        // Rounds run with spans off are not unattributed, just untraced.
        let unattributed_s = tr.unattributed_s() - untraced_s;
        let decode_s = median_of(&tr, "graph.decode");
        let predict_s = median_of(&tr, "runtime.predict");
        let kernel_s = median_of(&tr, "engine.kernel");
        let kernel_total: f64 = tr.durations("engine.kernel").iter().sum();
        let kernel_edges = 2 * counts.edges_examined; // each probe source ran twice
        let run_cross_s = median_of(&tr, "core.run_cross");
        let session_s = median_of(&tr, "session.run");
        let no_checkpoint_s = median_of(&tr, "session.run_no_checkpoint");
        let run_schedule_s = median_of(&tr, "service.run_schedule");
        let untraced = median(&round_walls[0]);
        let traced = median(&round_walls[1]);
        let checkpoints: u64 = solo_sims.iter().map(|s| u64::from(s.checkpoints)).sum();
        let checkpoint_bytes: u64 = solo_sims.iter().map(|s| s.checkpoint_bytes).sum();
        let per_layer = vec![
            ("graph.decode_s", decode_s),
            (
                "graph.symmetry_check_s",
                median_of(&tr, "graph.symmetry_check"),
            ),
            ("graph.decode_mb_per_s", bytes.len() as f64 / 1e6 / decode_s),
            ("graph.setup_share", decode_s / median_of(&tr, "setup")),
            ("runtime.train_s", median_of(&tr, "runtime.train")),
            ("runtime.predict_s", predict_s),
            ("runtime.predict_overhead_frac", predict_s / run_cross_s),
            ("engine.kernel_s", kernel_s),
            ("engine.par_kernel_s", median_of(&tr, "engine.par_kernel")),
            ("engine.validate_s", median_of(&tr, "engine.validate")),
            (
                "engine.multi_kernel_s",
                median_of(&tr, "engine.multi_kernel"),
            ),
            (
                "engine.kernel_edges_per_s",
                kernel_edges as f64 / kernel_total,
            ),
            ("engine.levels", counts.levels as f64),
            ("engine.edges_examined", counts.edges_examined as f64),
            ("core.run_cross_s", run_cross_s),
            ("session.run_s", session_s),
            ("session.run_no_checkpoint_s", no_checkpoint_s),
            (
                "session.checkpoint_share",
                1.0 - no_checkpoint_s / session_s,
            ),
            ("session.overhead_ratio", session_s / run_cross_s),
            ("session.batch_run_s", median_of(&tr, "session.batch_run")),
            ("session.checkpoints_taken", checkpoints as f64),
            ("session.checkpoint_bytes", checkpoint_bytes as f64),
            ("service.run_schedule_s", run_schedule_s),
            (
                "service.wall_per_served_over_session",
                run_schedule_s / f64::from(service_counts.served.max(1)) / session_s,
            ),
            ("service.served", f64::from(service_counts.served)),
            ("service.shed", f64::from(service_counts.shed)),
            (
                "service.batch_dispatches",
                f64::from(service_counts.batch_dispatches),
            ),
            (
                "service.mean_batch_lanes",
                f64::from(service_counts.batch_lanes)
                    / f64::from(service_counts.batch_dispatches.max(1)),
            ),
            (
                "service.peak_queue_depth",
                f64::from(service_counts.peak_queue_depth),
            ),
            ("service.mean_in_flight", service_counts.mean_in_flight),
            ("observe.prometheus_s", median_of(&tr, "observe.prometheus")),
            (
                "observe.report_json_s",
                median_of(&tr, "observe.report_json"),
            ),
            (
                "observe.merged_events",
                merged_events.expect("a traced run builds the exposition") as f64,
            ),
            ("trace.untraced_round_s", untraced),
            ("trace.traced_round_s", traced),
            ("trace.overhead_frac", traced / untraced - 1.0),
            ("trace.unattributed_s", unattributed_s),
        ];
        notes.push(format!(
            "tracing overhead: traced round {traced:.6} s vs untraced round {untraced:.6} s \
             = {:+.4} (base: median untraced {} round wall; {} untraced, {} traced rounds)",
            traced / untraced - 1.0,
            if closed_loop { "closed-loop" } else { "serve" },
            round_walls[0].len(),
            round_walls[1].len(),
        ));
        notes.push(format!(
            "engine.kernel_edges_per_s base: {kernel_edges} edges examined by hybrid::run over \
             {} calls; runtime.predict_overhead_frac = predict wall / run_cross wall",
            tr.durations("engine.kernel").len()
        ));
        notes.push("self times by span (s): name calls total self".into());
        for (name, t) in &breakdown {
            notes.push(format!(
                "  {name:<28} {:>6} {:>12.6} {:>12.6}",
                t.calls, t.total_s, t.self_s
            ));
        }
        notes.push(format!(
            "  unattributed remainder (source picking, answer checks and bookkeeping \
             outside spans; untraced rounds excluded): {unattributed_s:.6} s"
        ));
        per_layer
    } else {
        Vec::new()
    };

    Ok(Outcome {
        attempted,
        failed,
        end_to_end,
        per_layer,
        notes,
    })
}
