//! `fluid_sweep`: the §5 evaluation over seeded residential and enterprise
//! instances — routes for every scheme, the equilibrium of every scheme,
//! the optimal and conservative references and, on a fixed subset of
//! instances, the slotted controller behind the convergence table.

use std::time::Instant;

use empower_baselines::{enumerate_paths, maximize_utility, CapacityRegion, RegionKind};
use empower_cc::{CcConfig, CcProblem, ProportionalFair};
use empower_core::{FluidEval, FluidEvalResult, RunConfig, Scheme};
use empower_model::rng::{SeedableRng, StdRng};
use empower_model::topology::random::{generate, RandomTopologyConfig, TopologyClass};
use empower_model::{CarrierSense, InterferenceModel, Medium, NodeId, Path};
use empower_routing::{mp_2bp, single_path_route, Explorer, MultipathConfig, RouteQuery};

use crate::digest::Digest;
use crate::gen::Gen;
use crate::span::Recorder;
use crate::{model_counts, JobOutcome};

/// Jobs per job list. A job is one residential and one enterprise
/// instance with one flow each (the Figs. 4-6 setting); 200 instances are
/// enough that the job list's cost barely depends on which instances the
/// seed draws, and pairing the classes keeps the job times unimodal.
const JOBS: usize = 100;
/// Both instances of every `FLUID_EVERY`-th job also run the slotted
/// controller, for `FLUID_SLOTS` 100 ms slots with the convergence table's
/// gains.
const FLUID_EVERY: usize = 4;
const FLUID_SLOTS: usize = 1000;
const SLOT_SECS: f64 = 0.1;
/// Hop limit and Frank–Wolfe iterations of the centralized references.
const REF_MAX_HOPS: usize = 3;
const REF_ITERS: usize = 200;

/// One instance: the program generates the topology and samples the flow
/// from `seed`.
pub struct Instance {
    class: TopologyClass,
    seed: u64,
    fluid: bool,
}

pub type Pair = [Instance; 2];

pub fn documents(seed: u64) -> Vec<Pair> {
    let mut g = Gen::new(seed, 0x5EE9);
    (0..JOBS)
        .map(|i| {
            let fluid = i % FLUID_EVERY == 0;
            [TopologyClass::Residential, TopologyClass::Enterprise].map(|class| Instance {
                class,
                seed: g.below(1 << 32),
                fluid,
            })
        })
        .collect()
}

/// `Scheme::compute_routes`, with the multipath search on a caller-owned
/// `Explorer` so its work counters can be read.
fn routes(
    explorer: &mut Explorer,
    scheme: Scheme,
    ctx: (&empower_model::Network, &empower_model::InterferenceMap),
    (src, dst): (NodeId, NodeId),
) -> Vec<Path> {
    let (net, imap) = ctx;
    let query = RouteQuery::new(src, dst).with_mediums(&scheme.mediums());
    let set = match scheme {
        Scheme::Sp | Scheme::SpWifi | Scheme::SpWoCc => {
            single_path_route(net, imap, &query, scheme.csc())
        }
        Scheme::Mp2bp => mp_2bp(net, imap, &query, scheme.csc()),
        _ => {
            let config = MultipathConfig {
                n_shortest: FluidEval::default().n_shortest,
                csc: scheme.csc(),
                ..Default::default()
            };
            explorer.best_combination(net, imap, &query, &config)
        }
    };
    set.paths()
}

fn digest_eval(d: &mut Digest, r: &FluidEvalResult) {
    d.f64s(&r.flow_rates).f64s(&[r.utility]);
    for c in &r.route_counts {
        d.u64(*c as u64);
    }
    for s in &r.convergence_slots {
        d.u64(s.map_or(u64::MAX, |s| s as u64));
    }
}

fn check(what: &str, rates: &[f64]) -> Result<(), String> {
    match rates.iter().find(|r| !r.is_finite() || **r < 0.0) {
        Some(r) => Err(format!("{what}: rate {r} is not a finite non-negative number")),
        None => Ok(()),
    }
}

/// Both instances of a job, one after the other.
pub fn run(pair: &Pair, rec: &mut Recorder) -> Result<JobOutcome, String> {
    let [a, b] = pair;
    let (a, b) = (run_instance(a, rec)?, run_instance(b, rec)?);
    let mut counts = a.counts;
    for (k, v) in b.counts {
        *counts.entry(k).or_insert(0.0) += v;
    }
    Ok(JobOutcome {
        digest: Digest::new().u64(a.digest).u64(b.digest).finish(),
        setup_s: a.setup_s + b.setup_s,
        run_s: a.run_s + b.run_s,
        sim_s: a.sim_s + b.sim_s,
        counts,
    })
}

fn run_instance(inst: &Instance, rec: &mut Recorder) -> Result<JobOutcome, String> {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(inst.seed);
    let topo =
        rec.span("model.topology", || generate(&mut rng, &RandomTopologyConfig::new(inst.class)));
    let imap = rec.span("model.imap", || CarrierSense::default().build_map(&topo.net));
    let flows = [topo.sample_flow(&mut rng)];
    let net = &topo.net;
    let setup_s = t0.elapsed().as_secs_f64();

    let mut d = Digest::new();
    let mut explorer = Explorer::new();
    let mut queries = 0u64;
    // Every route a scheme uses joins the references' route space, so the
    // optimum can never lose to a scheme it bounds.
    let mut extra: Vec<Vec<Path>> = vec![Vec::new(); flows.len()];
    for scheme in Scheme::ALL {
        for (f, &pair) in flows.iter().enumerate() {
            let paths =
                rec.span("routing.search", || routes(&mut explorer, scheme, (net, &imap), pair));
            queries += 1;
            d.u64(paths.len() as u64);
            for p in paths {
                if !extra[f].contains(&p) {
                    extra[f].push(p);
                }
            }
        }
        let eq = rec
            .span("cc.equilibrium", || {
                RunConfig::new(scheme).evaluate_equilibrium(net, &imap, &flows)
            })
            .map_err(|e| e.to_string())?;
        check(scheme.label(), &eq.flow_rates)?;
        digest_eval(&mut d, &eq);
    }

    let mediums = [Medium::WIFI1, Medium::Plc];
    let mut connected = Vec::new();
    let mut flow_routes = Vec::new();
    let mut path_count = 0usize;
    rec.span("baselines.paths", || {
        for (f, &(s, t)) in flows.iter().enumerate() {
            let mut paths = enumerate_paths(net, s, t, REF_MAX_HOPS, Some(&mediums));
            for p in &extra[f] {
                if !paths.contains(p) {
                    paths.push(p.clone());
                }
            }
            if !paths.is_empty() {
                path_count += paths.len();
                connected.push(f);
                flow_routes.push(paths);
            }
        }
    });
    if !connected.is_empty() {
        let problem = CcProblem::new(net, &imap, flow_routes);
        for kind in [RegionKind::Cliques, RegionKind::Conservative] {
            let region =
                rec.span("baselines.region", || CapacityRegion::build(&problem, &imap, kind, 0.0));
            let sol = rec.span("baselines.solve", || {
                maximize_utility(&problem, &region, &ProportionalFair, REF_ITERS)
            });
            check("reference", &sol.flow_rates)?;
            d.f64s(&sol.flow_rates).f64s(&[sol.utility]);
        }
    }

    let (mut run_s, mut sim_s) = (0.0, 0.0);
    if inst.fluid {
        let params = FluidEval {
            slots: FLUID_SLOTS,
            cc: CcConfig { boost_cap: 64.0, ..Default::default() },
            ..Default::default()
        };
        let t1 = Instant::now();
        let fluid = rec
            .span("cc.fluid", || {
                RunConfig::from_fluid(Scheme::Empower, &params).evaluate_fluid(net, &imap, &flows)
            })
            .map_err(|e| e.to_string())?;
        run_s = t1.elapsed().as_secs_f64();
        sim_s = FLUID_SLOTS as f64 * SLOT_SECS;
        check("fluid", &fluid.flow_rates)?;
        digest_eval(&mut d, &fluid);
    }

    let stats = explorer.stats();
    let mut counts = model_counts(net, &imap);
    counts.insert("routing.queries", queries as f64);
    counts.insert("routing.nodes_expanded", stats.nodes_expanded as f64);
    counts.insert("routing.ksp_invocations", stats.ksp_invocations as f64);
    counts.insert("routing.subtrees_pruned", stats.subtrees_pruned as f64);
    counts.insert("baselines.paths", path_count as f64);
    Ok(JobOutcome { digest: d.finish(), setup_s, run_s, sim_s, counts })
}

/// The job's own route search must find the routes `Scheme::compute_routes`
/// (the path `RunConfig` takes) finds.
pub fn canonical_routes(pair: &Pair) -> Result<(), String> {
    pair.iter().try_for_each(canonical_instance_routes)
}

fn canonical_instance_routes(inst: &Instance) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(inst.seed);
    let topo = generate(&mut rng, &RandomTopologyConfig::new(inst.class));
    let imap = CarrierSense::default().build_map(&topo.net);
    let flows = [topo.sample_flow(&mut rng)];
    let mut explorer = Explorer::new();
    for scheme in Scheme::ALL {
        for &(s, t) in &flows {
            let ours = routes(&mut explorer, scheme, (&topo.net, &imap), (s, t));
            let theirs =
                scheme.compute_routes(&topo.net, &imap, s, t, FluidEval::default().n_shortest);
            if ours != theirs.paths() {
                return Err(format!(
                    "{} routes differ from Scheme::compute_routes",
                    scheme.label()
                ));
            }
        }
    }
    Ok(())
}
