//! `testbed_faults`: `Scenario` documents on the 22-node §6 testbed with
//! link churn, PLC noise and a node crash, run the way `empower scenario
//! run` runs them.

use std::time::Instant;

use empower_dynamics::{run_scenario, run_scenario_on, Scenario, ScenarioOutcome, TopologyKind};
use empower_model::topology::testbed22;
use empower_model::{CarrierSense, InterferenceModel, Medium, Network, NodeId};
use empower_telemetry::{Manifest, Telemetry};

use crate::digest::Digest;
use crate::gen::Gen;
use crate::span::Recorder;
use crate::{check_report, model_counts, JobOutcome};

const SCHEMES: [&str; 3] = ["EMPoWER", "MP-mWiFi", "SP"];
const HORIZON_SECS: f64 = 15.0;
/// Documents per (scheme, flow count) pair.
const REPEATS: usize = 4;
const NODES: u64 = 22;

/// The job list: every scheme with one to four flows, `REPEATS` times,
/// 48 documents.
pub fn documents(seed: u64) -> Vec<String> {
    let mut g = Gen::new(seed, 0xFA17);
    let mut docs = Vec::new();
    for _ in 0..REPEATS {
        for flows in 1..=4 {
            for scheme in SCHEMES {
                docs.push(document(&mut g, scheme, flows));
            }
        }
    }
    docs
}

fn link_from(net: &Network, g: &mut Gen, node: u32, medium: Medium) -> u32 {
    let links: Vec<u32> =
        net.out_links(NodeId(node)).filter(|l| l.medium == medium).map(|l| l.id.0).collect();
    match links.len() {
        0 => g.below(net.link_count() as u64) as u32,
        n => links[g.below(n as u64) as usize],
    }
}

/// Flows between distinct random node pairs, alternating saturated UDP and
/// TCP. Faults sit next to the first flow's source: Gilbert–Elliott
/// flapping on one of its PLC links, Markov on/off churn on one of its WiFi
/// links, a PLC noise burst in that PLC link's domain, and the crash and
/// recovery of a node that is no flow's endpoint.
fn document(g: &mut Gen, scheme: &str, flows: u32) -> String {
    let topo_seed = 1 + g.below(1 << 20);
    let net = testbed22(topo_seed).net;
    let mut doc = format!(
        "schema = 1\nname = \"faults_{scheme}_{flows}\"\n\n[topology]\nkind = \"testbed\"\n\
         seed = {topo_seed}\n\n[run]\nscheme = \"{scheme}\"\nseed = {}\n\
         horizon_secs = {HORIZON_SECS:.1}\npoll_secs = 0.5\n",
        g.below(1 << 32)
    );
    let mut endpoints = Vec::new();
    for i in 0..flows {
        let src = g.below(NODES) as u32;
        let dst = (src + 1 + g.below(NODES - 1) as u32) % NODES as u32;
        endpoints.extend([src, dst]);
        let start = g.range(0.0, 2.0);
        let pattern = if i % 2 == 0 { "saturated" } else { "tcp" };
        doc += &format!(
            "\n[[flows]]\nsrc = {src}\ndst = {dst}\npattern = \"{pattern}\"\nstart = {start}\n\
             stop = {HORIZON_SECS:.1}\n"
        );
    }
    let plc = link_from(&net, g, endpoints[0], Medium::Plc);
    let wifi = link_from(&net, g, endpoints[0], Medium::WIFI1);
    doc += &format!(
        "\n[[generators]]\nkind = \"gilbert_elliott\"\nlink = {plc}\nstep_secs = 1.0\n\
         p_bad = {}\np_good = {}\nbad_factor = {}\nfrom = 2.0\n",
        g.range(0.1, 0.3),
        g.range(0.3, 0.6),
        g.range(0.1, 0.4)
    );
    doc += &format!(
        "\n[[generators]]\nkind = \"markov_onoff\"\nlink = {wifi}\nmean_up_secs = {}\n\
         mean_down_secs = {}\nfrom = 2.0\n",
        g.range(4.0, 6.0),
        g.range(0.5, 1.5)
    );
    doc += &format!(
        "\n[[events]]\nat = {}\nkind = \"plc_noise\"\nfactor = {}\nduration_secs = {}\n\
         domain_of = {plc}\n",
        g.range(3.0, 10.0),
        g.range(0.1, 0.5),
        g.range(1.0, 3.0)
    );
    let mut crash = g.below(NODES) as u32;
    while endpoints.contains(&crash) {
        crash = (crash + 1) % NODES as u32;
    }
    let down = g.range(4.0, 8.0);
    doc += &format!(
        "\n[[events]]\nat = {down}\nkind = \"node_down\"\nnode = {crash}\n\n\
         [[events]]\nat = {}\nkind = \"node_up\"\nnode = {crash}\n",
        down + g.range(2.0, 4.0)
    );
    doc
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The manifest `empower scenario run --metrics` writes, and the digest
/// of the run's outputs.
fn outputs(sc: &Scenario, out: &ScenarioOutcome, tele: &Telemetry) -> (u64, usize) {
    let mut m = Manifest::new("scenario");
    m.set("name", sc.name.as_str())
        .set("scheme", sc.run.scheme.label())
        .set("topology", sc.topology.kind.label())
        .set("seed", sc.run.seed)
        .set("horizon_secs", sc.run.horizon_secs)
        .set("faults", out.faults.len() as u64)
        .set("reroutes", out.reroutes.len() as u64)
        .set("resilience", &out.resilience[..])
        .attach_counters(tele);
    let manifest = m.render();
    let trace = tele.trace_jsonl();
    let digest = Digest::new()
        .str(&format!("{:?}", out.report))
        .str(&format!("{:?}", out.faults))
        .str(&format!("{:?}", out.reroutes))
        .f64s(&out.aggregate_series)
        .str(&manifest)
        .str(&trace)
        .finish();
    (digest, manifest.len() + trace.len())
}

pub fn run(doc: &str, rec: &mut Recorder) -> Result<JobOutcome, String> {
    let t0 = Instant::now();
    let sc = rec.span("dynamics.parse", || Scenario::parse_str(doc)).map_err(err)?;
    if sc.topology.kind != TopologyKind::Testbed {
        return Err("testbed_faults documents must use the testbed topology".into());
    }
    let net = rec.span("model.topology", || testbed22(sc.topology.seed).net);
    let imap = rec.span("model.imap", || CarrierSense::default().build_map(&net));
    let setup_s = t0.elapsed().as_secs_f64();

    let tele = Telemetry::enabled();
    let t1 = Instant::now();
    let out = rec.span("dynamics.run", || run_scenario_on(&sc, &net, &imap, &tele)).map_err(err)?;
    let run_s = t1.elapsed().as_secs_f64();
    if out.faults.is_empty() {
        return Err("no fault was injected".into());
    }
    check_report(&out.report, sc.run.horizon_secs)?;
    let (digest, bytes) = rec.span("telemetry.render", || outputs(&sc, &out, &tele));

    let mut counts = model_counts(&net, &imap);
    let snap = tele.snapshot();
    let counter = |name: &str| snap.value(name).unwrap_or(0) as f64;
    let recomputes: u64 = snap
        .counters
        .iter()
        .filter(|(name, _, _)| name.starts_with("monitor/recomputes/"))
        .map(|(_, _, v)| v)
        .sum();
    let (grants, deferrals) = (counter("mac/grants"), counter("mac/deferrals"));
    counts.insert("dynamics.faults", out.faults.len() as f64);
    counts.insert("dynamics.reroutes", out.reroutes.len() as f64);
    counts.insert("monitor.recomputes", recomputes as f64);
    counts.insert("sim.ctrl_ticks", counter("ctrl/ticks"));
    counts.insert("sim.mac_grants", grants);
    counts.insert("sim.mac_deferrals", deferrals);
    counts.insert("telemetry.bytes", bytes as f64);
    Ok(JobOutcome { digest, setup_s, run_s, sim_s: sc.run.horizon_secs, counts })
}

/// The digest of the same document through `empower_dynamics::run_scenario`.
pub fn canonical(doc: &str) -> Result<u64, String> {
    let sc = Scenario::parse_str(doc).map_err(err)?;
    let tele = Telemetry::enabled();
    let out = run_scenario(&sc, &tele).map_err(err)?;
    Ok(outputs(&sc, &out, &tele).0)
}
