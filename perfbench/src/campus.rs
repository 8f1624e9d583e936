//! `campus`: workload-DSL documents on a generated ~2 000-node campus,
//! run the way `empower workload run` runs them.
//!
//! The job replays `empower_workload::run_workload_with` call by call so
//! each layer gets its own span; the first job of a run is also run
//! through `run_workload` itself and must give the same digest.

use std::time::Instant;

use empower_model::rng::{SeedableRng, StdRng};
use empower_model::topology::campus::{campus, CampusConfig};
use empower_model::{CarrierSense, InterferenceMap, InterferenceModel, Network};
use empower_sim::corpus::SimEngine;
use empower_sim::{ShardedSimulation, SimConfig, SimReport, Simulation, Trace};
use empower_telemetry::{Manifest, Telemetry};
use empower_workload::{
    compile, run_workload, CompiledWorkload, Workload, WorkloadSlo, WorkloadTopology,
};

use crate::digest::Digest;
use crate::gen::Gen;
use crate::span::Recorder;
use crate::{check_report, model_counts, Counts, JobOutcome};

const BUILDINGS: u32 = 20;
const FLOORS: u32 = 10;
const CLIENTS: u32 = 9;
const HORIZON_SECS: f64 = 30.0;
/// Trace cap of the `empower workload run` path.
const TRACE_CAP: usize = 50_000;
/// Shard count of the sharded yardstick; its pool has at most `nproc`
/// worker threads.
const YARDSTICK_SHARDS: u32 = 4;

/// The job list: one document.
pub fn documents(seed: u64) -> Vec<String> {
    vec![document(seed)]
}

/// One population per floor, 40 floors of each of five kinds in seeded
/// order; every client talks from its floor router to one of the floor's
/// nine stations.
fn document(seed: u64) -> String {
    let mut g = Gen::new(seed, 0xCA4D);
    let mut doc = format!(
        "schema = 1\nname = \"campus_{seed}\"\n\n[topology]\nkind = \"campus\"\nseed = {}\n\
         buildings = {BUILDINGS}\nfloors_per_building = {FLOORS}\nclients_per_floor = {CLIENTS}\n\n\
         [run]\nseed = {}\nhorizon_secs = {HORIZON_SECS:.1}\n",
        g.below(1 << 32),
        g.below(1 << 32),
    );
    let floors = (BUILDINGS * FLOORS) as usize;
    // Half the floors of each kind serve a hybrid station (even station
    // index: WiFi and PLC, two routes), half a WiFi-only one.
    let mut kinds: Vec<(usize, bool)> = (0..floors).map(|i| (i % 5, i / 5 % 2 == 0)).collect();
    g.shuffle(&mut kinds);
    for (i, (kind, hybrid)) in kinds.into_iter().enumerate() {
        let (b, f) = (i as u32 / FLOORS, i as u32 % FLOORS);
        let router = 1 + b * (FLOORS * (1 + CLIENTS) + 1) + 1 + f * (1 + CLIENTS);
        let station = if hybrid { 2 * g.below(5) } else { 2 * g.below(4) + 1 };
        let dst = router + 1 + station as u32;
        let start = g.range(0.0, 2.0);
        doc += &format!(
            "\n[[clients]]\nlabel = \"b{b}f{f}\"\nsrc = {router}\ndst = {dst}\nstart = {start}\n"
        );
        // Narrow parameter ranges: the seed varies every population, but
        // the job's total work stays close to the same across seeds.
        doc += &match kind {
            0 => "kind = \"closed_loop\"\n".to_string(),
            1 => format!(
                "kind = \"request_response\"\nrequests = {}\nresponse_bytes = {}\nthink_secs = {}\n",
                6 + g.below(3),
                100_000 + 10_000 * g.below(5),
                g.range(0.4, 0.6)
            ),
            2 => format!(
                "kind = \"bulk\"\ntransport = \"tcp\"\nsize_bytes = {}\n",
                4_000_000 + 500_000 * g.below(3)
            ),
            3 => format!(
                "kind = \"bulk\"\ntransport = \"udp\"\nsize_bytes = {}\n",
                2_000_000 + 250_000 * g.below(3)
            ),
            _ => format!(
                "kind = \"telemetry\"\nperiod_secs = {}\npayload_bytes = {}\n",
                g.range(0.4, 0.6),
                1000 + 100 * g.below(11)
            ),
        };
    }
    doc
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The SLO summary, manifest and trace `empower workload run` renders.
struct Rendered {
    slo: WorkloadSlo,
    manifest: String,
    trace: String,
}

fn digest(report: &SimReport, r: &Rendered) -> u64 {
    Digest::new()
        .str(&format!("{report:?}"))
        .str(&format!("{:?}", r.slo))
        .str(&r.manifest)
        .str(&r.trace)
        .finish()
}

fn parse(doc: &str, rec: &mut Recorder) -> Result<Workload, String> {
    rec.span("workload.parse", || Workload::parse_str(doc).and_then(|w| w.validate().map(|()| w)))
        .map_err(err)
}

fn topology(w: &Workload, rec: &mut Recorder) -> Result<(Network, InterferenceMap), String> {
    let WorkloadTopology::Campus { buildings, floors_per_building, clients_per_floor } =
        w.topology.kind
    else {
        return Err("campus documents must use a campus topology".into());
    };
    let net = rec.span("model.topology", || {
        let mut rng = StdRng::seed_from_u64(w.topology.seed);
        campus(&mut rng, &CampusConfig::new(buildings, floors_per_building, clients_per_floor)).net
    });
    let imap = rec.span("model.imap", || CarrierSense::default().build_map(&net));
    Ok((net, imap))
}

fn compile_flows(
    w: &Workload,
    net: &Network,
    rec: &mut Recorder,
) -> Result<CompiledWorkload, String> {
    let compiled = rec.span("workload.compile", || compile(w, net)).map_err(err)?;
    if compiled.flows.is_empty() {
        return Err("workload compiled to zero runnable flows".into());
    }
    Ok(compiled)
}

fn sim_config(w: &Workload) -> SimConfig {
    SimConfig { seed: w.run.seed, estimation_rel_std: w.run.noise, ..SimConfig::default() }
}

/// Renders a finished engine's outputs as `run_workload_with` does.
fn render<E: SimEngine>(
    w: &Workload,
    compiled: &CompiledWorkload,
    sim: &mut E,
    report: &SimReport,
    rec: &mut Recorder,
) -> Result<Rendered, String> {
    if report.flows.len() != compiled.flows.len() {
        return Err(format!("{} flows reported, {} run", report.flows.len(), compiled.flows.len()));
    }
    let slo = rec.span("workload.slo", || {
        let slo = WorkloadSlo::compute(&w.name, compiled, report);
        slo.emit(sim.telemetry());
        slo
    });
    let (manifest, trace) = rec.span("telemetry.render", || {
        let mut m = Manifest::new("workload");
        m.set("workload", w.name.as_str())
            .set("seed", w.run.seed)
            .set("horizon_secs", w.run.horizon_secs)
            .set("flows", compiled.flows.len() as u64);
        m.attach_counters(sim.telemetry());
        let trace = sim.take_trace().map(|t| t.to_jsonl()).unwrap_or_default();
        (m.render(), trace)
    });
    Ok(Rendered { slo, manifest, trace })
}

/// Attaches telemetry and the trace, adds the flows, runs to the horizon
/// and reports, as `run_workload_with` does between building the engine
/// and rendering.
fn drive<E: SimEngine>(mut sim: E, compiled: &CompiledWorkload, horizon: f64) -> (E, SimReport) {
    sim.attach_telemetry(Telemetry::enabled());
    sim.attach_trace(Trace::bounded(TRACE_CAP));
    for f in &compiled.flows {
        sim.add_flow(f.spec.clone());
    }
    sim.run_until(horizon);
    let report = sim.report(horizon);
    (sim, report)
}

pub fn run(doc: &str, rec: &mut Recorder) -> Result<JobOutcome, String> {
    let t0 = Instant::now();
    let w = parse(doc, rec)?;
    let (net, imap) = topology(&w, rec)?;
    let compiled = compile_flows(&w, &net, rec)?;
    let mut counts = model_counts(&net, &imap);
    counts.insert("workload.flows", compiled.flows.len() as f64);
    let mut sim = rec.span("sim.new", || Simulation::new(net, imap, sim_config(&w)));
    sim.attach_telemetry(Telemetry::enabled());
    sim.attach_trace(Trace::bounded(TRACE_CAP));
    rec.span("sim.add_flow", || {
        for f in &compiled.flows {
            sim.add_flow(f.spec.clone());
        }
    });
    let setup_s = t0.elapsed().as_secs_f64();

    let horizon = w.run.horizon_secs;
    let t1 = Instant::now();
    rec.span("sim.run", || sim.run_until(horizon));
    let run_s = t1.elapsed().as_secs_f64();
    let report = rec.span("sim.report", || sim.report(horizon));
    check_report(&report, horizon)?;
    let rendered = render(&w, &compiled, &mut sim, &report, rec)?;

    let perf = sim.perf_stats();
    let snap = sim.telemetry().snapshot();
    let counter = |name: &str| snap.value(name).unwrap_or(0) as f64;
    counts.insert("sim.events", perf.events_dispatched as f64);
    counts.insert("sim.domain_probes", perf.domain_probes as f64);
    counts.insert("sim.hot_allocs", perf.hot_allocs as f64);
    counts.insert("sim.slab_grows", perf.slab_grows as f64);
    counts.insert("sim.ctrl_ticks", counter("ctrl/ticks"));
    counts.insert("sim.mac_grants", counter("mac/grants"));
    counts.insert("sim.mac_deferrals", counter("mac/deferrals"));
    counts.insert("telemetry.bytes", (rendered.manifest.len() + rendered.trace.len()) as f64);
    Ok(JobOutcome { digest: digest(&report, &rendered), setup_s, run_s, sim_s: horizon, counts })
}

/// The digest of the same document through `empower_workload::run_workload`.
pub fn canonical(doc: &str) -> Result<u64, String> {
    let w = Workload::parse_str(doc).map_err(err)?;
    let out = run_workload(&w).map_err(err)?;
    let rendered = Rendered { slo: out.slo, manifest: out.manifest, trace: out.trace };
    Ok(digest(&out.report, &rendered))
}

/// The sharded yardstick: replays `doc` on `ShardedSimulation` and on the
/// sequential engine, and requires the same report, SLO summary and
/// manifest — the sharded engine's contract with the sequential one (its
/// trace is in canonical order, which the trace cap cuts differently).
///
/// The sharded engine defers all work to its first observer, so
/// `sim.sharded_s` times the engine's whole life (construction, flows,
/// run, report); the sequential region it matches is `sim.engine_s` =
/// `sim.new_s + sim.add_flow_s + sim.run_s + sim.report_s`.
pub fn yardstick(doc: &str, rec: &mut Recorder) -> Result<Counts, String> {
    let w = parse(doc, rec)?;
    let (net, imap) = topology(&w, rec)?;
    let compiled = compile_flows(&w, &net, rec)?;
    let horizon = w.run.horizon_secs;
    let sequential = Simulation::new(net.clone(), imap.clone(), sim_config(&w));
    let t = Instant::now();
    let (mut sim, report) = rec.span("sim.sharded", || {
        let sim = ShardedSimulation::with_shards(net, imap, sim_config(&w), YARDSTICK_SHARDS);
        drive(sim, &compiled, horizon)
    });
    let sharded_s = t.elapsed().as_secs_f64();
    let max_events = sim.shard_events_dispatched().into_iter().max().unwrap_or(0);
    let ours = render(&w, &compiled, &mut sim, &report, rec)?;
    let (mut seq, seq_report) = drive(sequential, &compiled, horizon);
    let theirs = render(&w, &compiled, &mut seq, &seq_report, rec)?;
    if format!("{report:?}") != format!("{seq_report:?}")
        || ours.slo != theirs.slo
        || ours.manifest != theirs.manifest
    {
        return Err("sharded outputs differ from the sequential engine's".into());
    }
    let mut counts = Counts::new();
    counts.insert("sim.sharded_s", sharded_s);
    counts.insert("sim.shard_max_events", max_events as f64);
    Ok(counts)
}
