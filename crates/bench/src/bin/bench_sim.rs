#![forbid(unsafe_code)]
//! Perf harness for the zero-allocation simulator hot path: the
//! sparse-row bitset-MAC + packet-slab [`Simulation`] vs the retained
//! pre-optimization [`ReferenceSimulation`] (both on the same binary-heap
//! event queue) on the pinned equivalence corpus (`empower_sim::corpus`).
//!
//! Asserts byte-identical reports, traces and telemetry manifests on every
//! corpus scenario, reports deterministic work counters for both engines
//! (events dispatched, interference-domain probes, hot-path allocations,
//! slab reuse, bytes not allocated), measures wall-clock event-dispatch
//! throughput for both, and writes `BENCH_sim.json` (default at the
//! current directory, `--json` overrides).
//!
//! With `--budget <file>` the binary acts as CI's perf-regression gate:
//! the run fails if the optimized engine's steady-state hot-path
//! allocations exceed the checked-in budget, the reference/optimized
//! allocation ratio drops below the budgeted floor, or the sharded scale
//! curve's gated row (see [`ScaleRow`]) falls below its counter or wall
//! speedup floor. All but the wall speedup are deterministic counters;
//! the wall speedup is gated on the median of [`GATED_WALL_SAMPLES`]
//! timed runs, so one slow sample cannot fail the gate.

use empower_bench::harness::{bench_stats, BenchStats};
use empower_bench::BenchArgs;
use empower_model::rng::{SeedableRng, StdRng};
use empower_model::topology::campus::{campus, CampusConfig};
use empower_model::{CarrierSense, InterferenceModel, Path};
use empower_sim::corpus::{corpus, run_scenario, run_scenario_plain, CorpusScenario};
use empower_sim::{
    FlowSpecSim, ReferenceSimulation, ShardedSimulation, SimConfig, SimPerfStats, Simulation,
};
use empower_telemetry::{Json, ToJson};

/// Scenarios timed by `bench_stats` (shortened below so one iteration
/// stays well under a batch): the 22-node testbed, whose interference
/// domains span hundreds of links — the regime the per-frame domain walks
/// and clones of the reference engine are priced in.
const TIMED: &[&str] = &["testbed_pair_1_4_13", "testbed_tcp_1_13"];
/// Duration override for the timed subset, seconds.
const TIMED_SECS: f64 = 12.0;
/// Smallest topology whose 4-shard wall speedup is gated (the floor is
/// calibrated against the 1011-node campus; the 103-node quick topology
/// finishes in ~4 ms, where fixed per-run overhead dominates any honest
/// floor).
const WALL_GATE_MIN_NODES: u64 = 1000;
/// Timed (sequential, sharded) pairs behind the gated row's wall speedup;
/// every other row is timed once.
const GATED_WALL_SAMPLES: usize = 5;

struct Counters {
    events_dispatched: u64,
    domain_probes: u64,
    hot_allocs: u64,
    slab_hits: u64,
    slab_grows: u64,
    bytes_not_allocated: u64,
}

impl From<SimPerfStats> for Counters {
    fn from(p: SimPerfStats) -> Self {
        Counters {
            events_dispatched: p.events_dispatched,
            domain_probes: p.domain_probes,
            hot_allocs: p.hot_allocs,
            slab_hits: p.slab_hits,
            slab_grows: p.slab_grows,
            bytes_not_allocated: p.bytes_not_allocated,
        }
    }
}

empower_telemetry::impl_to_json_struct!(Counters {
    events_dispatched,
    domain_probes,
    hot_allocs,
    slab_hits,
    slab_grows,
    bytes_not_allocated
});

/// One point of the sharded-simulation scale curve (DESIGN.md §13): a
/// generated campus topology at a given shard count. Two statistics are
/// gated: the **counter-based speedup** `seq_events / max_shard_events`
/// (the single-threaded run's event count divided by the busiest
/// worker's — the deterministic analogue of parallel speedup) and, when
/// timing is enabled, the **wall-clock speedup** `seq_wall / wall` —
/// shard-local views run in parallel must actually convert the counter
/// win into elapsed time. The gated row (4 shards, at least
/// [`WALL_GATE_MIN_NODES`] nodes) times [`GATED_WALL_SAMPLES`] pairs and
/// reports their median; every other row is one pair. Wall columns are
/// zeroed under `EMPOWER_SIM_SKIP_TIMING` and the wall gate skips itself.
struct ScaleRow {
    nodes: u64,
    flows: u64,
    shards: u64,
    shards_used: u64,
    /// Events dispatched by the single-threaded engine.
    seq_events: u64,
    /// Events dispatched by the busiest shard worker.
    max_shard_events: u64,
    /// Events dispatched across all shard workers (one extra control-tick
    /// chain per additional worker makes this slightly exceed
    /// `seq_events` as the shard count grows).
    total_shard_events: u64,
    /// `seq_events / max_shard_events` — gated by the perf budget.
    counter_speedup: f64,
    /// Timed (sequential, sharded) pairs behind the wall columns.
    wall_samples: u64,
    /// Wall-clock of the single-threaded run, milliseconds (median).
    seq_wall_ms: f64,
    /// Wall-clock of the sharded run, milliseconds (median).
    wall_ms: f64,
    /// Median over the pairs of `seq_wall / wall` — gated by the perf
    /// budget (0 when timing is skipped).
    wall_speedup: f64,
    /// Smallest and largest per-pair `seq_wall / wall`.
    wall_speedup_min: f64,
    wall_speedup_max: f64,
    /// `seq_events / wall-clock seconds` (informational).
    events_per_sec: f64,
}

empower_telemetry::impl_to_json_struct!(ScaleRow {
    nodes,
    flows,
    shards,
    shards_used,
    seq_events,
    max_shard_events,
    total_shard_events,
    counter_speedup,
    wall_samples,
    seq_wall_ms,
    wall_ms,
    wall_speedup,
    wall_speedup_min,
    wall_speedup_max,
    events_per_sec
});

struct Report {
    seed: u64,
    scenarios: u64,
    optimized: Counters,
    reference: Counters,
    /// reference / optimized steady-state hot-path allocations.
    alloc_ratio: f64,
    /// reference / optimized interference-domain probe work.
    probe_ratio: f64,
    optimized_timing: BenchStats,
    reference_timing: BenchStats,
    /// Events dispatched per wall-clock second, median batch.
    optimized_events_per_sec: f64,
    reference_events_per_sec: f64,
    /// optimized / reference median event-dispatch throughput.
    event_throughput_ratio: f64,
    /// Per-event `String` allocations the sharded trace merge avoided by
    /// rendering sort keys into one shared buffer (measured on a traced
    /// 4-shard campus run; one saved allocation per merged trace event).
    trace_merge_saved_allocs: u64,
    /// The sharded-simulation scale curve (campus topologies).
    scale: Vec<ScaleRow>,
}

empower_telemetry::impl_to_json_struct!(Report {
    seed,
    scenarios,
    optimized,
    reference,
    alloc_ratio,
    probe_ratio,
    optimized_timing,
    reference_timing,
    optimized_events_per_sec,
    reference_events_per_sec,
    event_throughput_ratio,
    trace_merge_saved_allocs,
    scale
});

fn gate(report: &Report, budget_path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(budget_path)
        .map_err(|e| format!("cannot read budget {budget_path}: {e}"))?;
    let budget =
        Json::parse(&text).map_err(|e| format!("cannot parse budget {budget_path}: {e:?}"))?;
    let max_allocs = budget
        .get("sim_max_hot_allocs")
        .and_then(|v| v.as_u64())
        .ok_or("budget lacks sim_max_hot_allocs")?;
    let min_ratio = budget
        .get("sim_min_alloc_ratio")
        .and_then(|v| v.as_f64())
        .ok_or("budget lacks sim_min_alloc_ratio")?;
    if report.optimized.hot_allocs > max_allocs {
        return Err(format!(
            "perf regression: {} steady-state hot-path allocations exceed budget {max_allocs}",
            report.optimized.hot_allocs
        ));
    }
    if report.alloc_ratio < min_ratio {
        return Err(format!(
            "perf regression: reference/optimized alloc ratio {:.1} below budgeted {min_ratio}",
            report.alloc_ratio
        ));
    }
    // The scale gate: the largest topology's 4-shard counter speedup must
    // hold its budgeted floor (a deterministic counter, like the others).
    let min_speedup = budget
        .get("sim_scale_min_speedup_4shards")
        .and_then(|v| v.as_f64())
        .ok_or("budget lacks sim_scale_min_speedup_4shards")?;
    let gated = report
        .scale
        .iter()
        .filter(|r| r.shards == 4)
        .max_by_key(|r| r.nodes)
        .ok_or("scale curve has no 4-shard row")?;
    if gated.counter_speedup < min_speedup {
        return Err(format!(
            "perf regression: {}-node 4-shard counter speedup {:.2} below budgeted {min_speedup}",
            gated.nodes, gated.counter_speedup
        ));
    }
    // The wall-clock side of the same row, on the median of its timed
    // pairs: shard-local views run in parallel must turn the counter win
    // into elapsed time. Skipped when timing is disabled
    // (EMPOWER_SIM_SKIP_TIMING → wall_speedup 0) and on curves trimmed
    // below WALL_GATE_MIN_NODES.
    let min_wall = budget
        .get("sim_scale_min_wall_speedup_4shards")
        .and_then(|v| v.as_f64())
        .ok_or("budget lacks sim_scale_min_wall_speedup_4shards")?;
    if gated.nodes >= WALL_GATE_MIN_NODES
        && gated.wall_speedup > 0.0
        && gated.wall_speedup < min_wall
    {
        return Err(format!(
            "perf regression: {}-node 4-shard median wall speedup {:.2} over {} runs \
             (min {:.2}, max {:.2}) below budgeted {min_wall}",
            gated.nodes,
            gated.wall_speedup,
            gated.wall_samples,
            gated.wall_speedup_min,
            gated.wall_speedup_max
        ));
    }
    Ok(())
}

/// Scale-curve horizon, seconds (flows stop 1 s earlier so completion
/// stats settle).
const SCALE_SECS: f64 = 5.0;

/// Builds the scale workload for one campus grid: a saturated hybrid
/// multipath download (router → first client, every direct link a route)
/// on every floor — one flow per interference atom, the regime the
/// shard packer balances.
fn scale_setup(
    grid: (u32, u32, u32),
) -> (empower_model::Network, empower_model::InterferenceMap, Vec<FlowSpecSim>) {
    let mut rng = StdRng::seed_from_u64(42);
    let t = campus(&mut rng, &CampusConfig::new(grid.0, grid.1, grid.2));
    let imap = CarrierSense::default().build_map(&t.net);
    let mut specs = Vec::new();
    for fl in &t.floors {
        let c = fl.clients[0];
        let routes: Vec<Path> = t
            .net
            .out_links(fl.router)
            .filter(|l| l.to == c)
            .map(|l| Path::new(&t.net, vec![l.id]).expect("direct campus link is a valid path"))
            .collect();
        specs.push(FlowSpecSim::saturated(fl.router, c, routes, SCALE_SECS - 1.0));
    }
    (t.net, imap, specs)
}

/// Runs the sharded-simulation scale curve: campus topologies × shard
/// counts, asserting byte-identical reports against the single-threaded
/// engine at every point (the cross-rendering gates live in
/// `crates/sim/tests/shard_equivalence.rs`).
///
/// `EMPOWER_SIM_SCALE_MAX_NODES` trims the topology list for quick local
/// iterations (0 disables the curve; note the budget gate requires at
/// least one 4-shard row, so CI must keep the smallest topology).
fn scale_curve(quick: bool, skip_timing: bool) -> Vec<ScaleRow> {
    let max_nodes: usize = std::env::var("EMPOWER_SIM_SCALE_MAX_NODES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX);
    let grids: &[(u32, u32, u32)] =
        if quick { &[(2, 5, 9)] } else { &[(2, 5, 9), (5, 10, 9), (10, 10, 9)] };
    let shard_counts: &[u32] = if quick { &[1, 4] } else { &[1, 2, 4, 8] };

    let mut rows = Vec::new();
    for &grid in grids {
        let cfg = CampusConfig::new(grid.0, grid.1, grid.2);
        if cfg.node_count() > max_nodes {
            continue;
        }
        let (net, imap, specs) = scale_setup(grid);
        let nodes = net.node_count() as u64;
        let (seq_wall, seq_report, seq_events) = time_seq(&net, &imap, &specs);

        for &shards in shard_counts {
            let gated = shards == 4 && nodes >= WALL_GATE_MIN_NODES;
            let samples = if gated && !skip_timing { GATED_WALL_SAMPLES } else { 1 };
            let check = |report: &str| {
                assert_eq!(
                    report, seq_report,
                    "{nodes}-node campus: shards={shards} diverged from single-threaded"
                )
            };
            // Timed (sequential, sharded) pairs, in seconds; the first
            // reuses the topology's sequential run.
            let (wall, report, sim) = time_sharded(&net, &imap, &specs, shards);
            check(&report);
            let mut pairs = vec![(seq_wall.as_secs_f64(), wall.as_secs_f64())];
            for _ in 1..samples {
                let (seq, ..) = time_seq(&net, &imap, &specs);
                let (wall, report, _) = time_sharded(&net, &imap, &specs, shards);
                check(&report);
                pairs.push((seq.as_secs_f64(), wall.as_secs_f64()));
            }
            let per_shard = sim.shard_events_dispatched();
            let max_shard_events = per_shard.iter().copied().max().unwrap_or(0);
            let total_shard_events: u64 = per_shard.iter().sum();
            let speedups = sorted(pairs.iter().map(|&(seq, wall)| seq / wall.max(1e-12)));
            let seq_wall_s = median(&sorted(pairs.iter().map(|p| p.0)));
            let wall_s = median(&sorted(pairs.iter().map(|p| p.1)));
            let timed = |v: f64| if skip_timing { 0.0 } else { v };
            rows.push(ScaleRow {
                nodes,
                flows: specs.len() as u64,
                shards: shards.into(),
                shards_used: sim.shards_used() as u64,
                seq_events,
                max_shard_events,
                total_shard_events,
                counter_speedup: seq_events as f64 / max_shard_events.max(1) as f64,
                wall_samples: samples as u64,
                seq_wall_ms: timed(seq_wall_s * 1e3),
                wall_ms: timed(wall_s * 1e3),
                wall_speedup: timed(median(&speedups)),
                wall_speedup_min: timed(speedups[0]),
                wall_speedup_max: timed(speedups[speedups.len() - 1]),
                events_per_sec: timed(seq_events as f64 / wall_s.max(1e-12)),
            });
        }
    }
    rows
}

/// Times the single-threaded engine on the scale workload: the event loop
/// plus report extraction (construction and flow registration excluded).
/// Returns the elapsed time, the rendered report and the events
/// dispatched.
fn time_seq(
    net: &empower_model::Network,
    imap: &empower_model::InterferenceMap,
    specs: &[FlowSpecSim],
) -> (std::time::Duration, String, u64) {
    let mut seq = Simulation::new(net.clone(), imap.clone(), SimConfig::default());
    for s in specs {
        seq.add_flow(s.clone());
    }
    let started = std::time::Instant::now();
    seq.run_until(SCALE_SECS);
    let report = format!("{:?}", seq.report(SCALE_SECS));
    let wall = started.elapsed();
    (wall, report, seq.perf_stats().events_dispatched)
}

/// Times the sharded engine over the same region as [`time_seq`]:
/// `run_until` only records the op log, so `report` runs the whole
/// replay. Returns the elapsed time, the rendered report and the engine.
fn time_sharded(
    net: &empower_model::Network,
    imap: &empower_model::InterferenceMap,
    specs: &[FlowSpecSim],
    shards: u32,
) -> (std::time::Duration, String, ShardedSimulation) {
    let mut sim =
        ShardedSimulation::with_shards(net.clone(), imap.clone(), SimConfig::default(), shards);
    for s in specs {
        sim.add_flow(s.clone());
    }
    sim.run_until(SCALE_SECS);
    let started = std::time::Instant::now();
    let report = format!("{:?}", sim.report(SCALE_SECS));
    (started.elapsed(), report, sim)
}

fn sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Middle element of a sorted, non-empty sample (the upper middle for
/// even lengths).
fn median(sorted: &[f64]) -> f64 {
    sorted[sorted.len() / 2]
}

/// Exercises the sharded trace merge on a traced 4-shard campus run and
/// returns how many per-event `String` allocations the shared-buffer
/// canonical sort avoided (one per merged trace event).
fn trace_merge_saved() -> u64 {
    let (net, imap, specs) = scale_setup((2, 5, 9));
    let mut sim = ShardedSimulation::with_shards(net, imap, SimConfig::default(), 4);
    sim.attach_trace(empower_sim::Trace::new());
    for s in &specs {
        sim.add_flow(s.clone());
    }
    sim.run_until(SCALE_SECS);
    let saved = sim.perf_stats().trace_merge_saved_allocs;
    assert!(saved > 0, "a traced campus run must merge trace events");
    saved
}

fn add(total: &mut Counters, p: SimPerfStats) {
    total.events_dispatched += p.events_dispatched;
    total.domain_probes += p.domain_probes;
    total.hot_allocs += p.hot_allocs;
    total.slab_hits += p.slab_hits;
    total.slab_grows += p.slab_grows;
    total.bytes_not_allocated += p.bytes_not_allocated;
}

fn main() {
    let args = BenchArgs::parse();
    let all = corpus();
    // Counter corpus: quick = the fast Fig. 1 prefix CI gates on (the
    // budget is calibrated against it), full = every scenario.
    let count = args.sweep(all.len(), 10).min(all.len());
    let scenarios = &all[..count];

    // Equivalence + counters over the corpus. The instrumented runs prove
    // byte-identical behavior (report, trace, manifest); the plain runs
    // accumulate the hot-path work counters the gate reads, with trace and
    // telemetry detached exactly as in the timed section.
    let mut optimized = Counters::from(SimPerfStats::default());
    let mut reference = Counters::from(SimPerfStats::default());
    for s in scenarios {
        let opt = run_scenario::<Simulation>(s);
        let refr = run_scenario::<ReferenceSimulation>(s);
        assert_eq!(opt.report, refr.report, "{}: SimReport diverged", s.name);
        assert_eq!(opt.trace, refr.trace, "{}: packet trace diverged", s.name);
        assert_eq!(opt.manifest, refr.manifest, "{}: manifest diverged", s.name);
        let (opt_rep, opt_perf) = run_scenario_plain::<Simulation>(s);
        let (ref_rep, ref_perf) = run_scenario_plain::<ReferenceSimulation>(s);
        assert_eq!(opt_rep, ref_rep, "{}: plain-run SimReport diverged", s.name);
        assert_eq!(
            opt_perf.events_dispatched, ref_perf.events_dispatched,
            "{}: engines dispatched different event counts",
            s.name
        );
        add(&mut optimized, opt_perf);
        add(&mut reference, ref_perf);
    }
    let alloc_ratio = reference.hot_allocs as f64 / optimized.hot_allocs.max(1) as f64;
    let probe_ratio = reference.domain_probes as f64 / optimized.domain_probes.max(1) as f64;

    // Wall-clock: one iteration = the shortened timed subset, no trace, no
    // telemetry (the steady-state configuration). Both engines run the same
    // instances and dispatch identical event sequences. CI's quick (debug)
    // invocation sets EMPOWER_SIM_SKIP_TIMING: the gate only reads the
    // deterministic counters above, so unoptimized wall-clock batches would
    // be minutes of noise for nothing.
    let skip_timing = std::env::var_os("EMPOWER_SIM_SKIP_TIMING").is_some();
    let timed: Vec<CorpusScenario> = all
        .iter()
        .filter(|s| TIMED.contains(&s.name))
        .map(|s| CorpusScenario { duration: TIMED_SECS, ..*s })
        .collect();
    let zero =
        BenchStats { min_ns: 0.0, median_ns: 0.0, p95_ns: 0.0, mean_ns: 0.0, batch: 0, batches: 0 };
    let events_per_iter: u64 = if skip_timing {
        0
    } else {
        timed.iter().map(|s| run_scenario_plain::<Simulation>(s).1.events_dispatched).sum()
    };
    let optimized_timing = if skip_timing {
        zero
    } else {
        bench_stats(|| {
            let mut ev = 0u64;
            for s in &timed {
                ev += run_scenario_plain::<Simulation>(s).1.events_dispatched;
            }
            ev
        })
    };
    let reference_timing = if skip_timing {
        zero
    } else {
        bench_stats(|| {
            let mut ev = 0u64;
            for s in &timed {
                ev += run_scenario_plain::<ReferenceSimulation>(s).1.events_dispatched;
            }
            ev
        })
    };
    let per_sec = |t: &BenchStats| events_per_iter as f64 / (t.median_ns / 1e9).max(1e-12);
    let optimized_events_per_sec = if skip_timing { 0.0 } else { per_sec(&optimized_timing) };
    let reference_events_per_sec = if skip_timing { 0.0 } else { per_sec(&reference_timing) };
    let event_throughput_ratio = if skip_timing {
        0.0
    } else {
        optimized_events_per_sec / reference_events_per_sec.max(1e-12)
    };

    // The sharded-simulation scale curve: campus topologies × shard
    // counts, byte-identity asserted at every point.
    let scale = scale_curve(args.quick, skip_timing);
    let trace_merge_saved_allocs = trace_merge_saved();

    let report = Report {
        seed: args.seed,
        scenarios: count as u64,
        optimized,
        reference,
        alloc_ratio,
        probe_ratio,
        optimized_timing,
        reference_timing,
        optimized_events_per_sec,
        reference_events_per_sec,
        event_throughput_ratio,
        trace_merge_saved_allocs,
        scale,
    };

    println!("== bench_sim — zero-allocation simulator hot path, {count} corpus scenarios ==");
    println!(
        "events dispatched:     {:>12}   (identical on both engines)",
        report.optimized.events_dispatched
    );
    println!(
        "hot-path allocations:  optimized {:>10}   reference {:>10}   ratio {alloc_ratio:.1}x",
        report.optimized.hot_allocs, report.reference.hot_allocs
    );
    println!(
        "domain probes:         optimized {:>10}   reference {:>10}   ratio {probe_ratio:.1}x",
        report.optimized.domain_probes, report.reference.domain_probes
    );
    println!(
        "slab:                  {:>10} hits / {} grows    bytes not allocated: {}",
        report.optimized.slab_hits,
        report.optimized.slab_grows,
        report.optimized.bytes_not_allocated
    );
    if skip_timing {
        println!("event throughput:      (skipped: EMPOWER_SIM_SKIP_TIMING is set)");
    } else {
        println!(
            "event throughput:      optimized {:>10.0}/s  reference {:>10.0}/s  ratio {event_throughput_ratio:.1}x  (median)",
            optimized_events_per_sec, reference_events_per_sec
        );
    }
    println!(
        "trace merge:           {} per-event String allocations avoided (shared sort buffer)",
        report.trace_merge_saved_allocs
    );
    println!("== sharded-simulation scale curve (byte-identity asserted per row) ==");
    for r in &report.scale {
        println!(
            "  {:>5} nodes  {:>3} flows  shards {:>2} (used {:>2})  \
             events seq {:>9}  max-shard {:>9}  counter speedup {:.2}x  \
             wall {:>7.1} ms vs seq {:>7.1} ms  wall speedup {:.2}x \
             (median of {}, {:.2}-{:.2})",
            r.nodes,
            r.flows,
            r.shards,
            r.shards_used,
            r.seq_events,
            r.max_shard_events,
            r.counter_speedup,
            r.wall_ms,
            r.seq_wall_ms,
            r.wall_speedup,
            r.wall_samples,
            r.wall_speedup_min,
            r.wall_speedup_max
        );
    }

    let json_path = args.json.clone().unwrap_or_else(|| "BENCH_sim.json".to_string());
    std::fs::write(&json_path, report.to_json().to_string_pretty()).expect("write BENCH_sim.json");
    eprintln!("(report written to {json_path})");

    if let Some(budget_path) = &args.budget {
        match gate(&report, budget_path) {
            Ok(()) => println!("perf gate: OK (budget {budget_path})"),
            Err(msg) => {
                eprintln!("perf gate: FAIL — {msg}");
                std::process::exit(1);
            }
        }
    }
}
