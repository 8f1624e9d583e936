#![forbid(unsafe_code)]
//! End-to-end and per-layer benchmark of the EMPoWER reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campus|testbed_faults|fluid_sweep --seed N --seconds S --trace 0|1
//! ```
//!
//! One process runs one workload: it generates the workload's job list
//! from `--seed`, then runs the whole list again and again, one job at a
//! time on the calling thread (closed loop), while another pass fits in
//! `--seconds`. Every job's outputs are digested; a job fails on an error, a
//! panic, or a digest that differs from the pinned one (seeds 1 and 2) or
//! from its first run. The last line of standard output is one JSON object
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics of a
//! traced run (`--trace 1`). See README.md for the metric definitions.

mod campus;
mod digest;
mod faults;
mod gen;
mod span;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use empower_model::{InterferenceMap, LinkId, Network};

use span::Recorder;
use stats::{median, tail};

/// Deterministic per-layer counts of one job (summed over a job list).
pub type Counts = BTreeMap<&'static str, f64>;

/// What one job reports besides its wall time.
pub struct JobOutcome {
    pub digest: u64,
    /// Host seconds before the first call that advances simulated time or
    /// runs a solver.
    pub setup_s: f64,
    /// Host seconds of the calls that advance simulated time.
    pub run_s: f64,
    /// Simulated seconds those calls advanced.
    pub sim_s: f64,
    pub counts: Counts,
}

/// Model-layer counts of one network. Domain sizes are summed so a job
/// list's mean is `model.domain_links / model.links`.
pub fn model_counts(net: &Network, imap: &InterferenceMap) -> Counts {
    let links = (0..imap.link_count()).map(|l| LinkId(l as u32));
    let mut c = Counts::new();
    c.insert("model.links", net.link_count() as f64);
    c.insert(
        "model.domain_links",
        links.clone().map(|l| imap.domain(l).len()).sum::<usize>() as f64,
    );
    c.insert(
        "model.imap_bytes",
        links.map(|l| imap.domain_words(l).len() * 8).sum::<usize>() as f64,
    );
    c
}

/// Sanity of a simulator report, for seeds without pinned digests: some
/// traffic was delivered, nothing was delivered without being sent, no
/// download outlasted the run and every throughput sample is a rate.
pub fn check_report(report: &empower_sim::SimReport, horizon: f64) -> Result<(), String> {
    if report.flows.iter().all(|f| f.delivered_bits == 0) {
        return Err("no flow delivered any traffic".into());
    }
    for (i, f) in report.flows.iter().enumerate() {
        if f.delivered_bits > 0 && f.sent_frames == 0 {
            return Err(format!("flow {i} delivered {} bits but sent nothing", f.delivered_bits));
        }
        // Completions are download durations. A few read slightly negative
        // (a file finishing before its recorded start), so only the upper
        // end is checked.
        if let Some(t) = f.completions.iter().find(|t| !(t.is_finite() && **t <= horizon)) {
            return Err(format!("flow {i} reports a {t} s download in a {horizon} s run"));
        }
        if let Some(x) = f.throughput_series.iter().find(|x| !(x.is_finite() && **x >= 0.0)) {
            return Err(format!("flow {i} reports a throughput of {x}"));
        }
    }
    Ok(())
}

/// Digests the jobs of seeds 1 (the default) and 2 (held out) must
/// produce: one line per workload and seed, `<workload> <seed>` and then
/// the job list's digests in order.
const PINNED: &str = include_str!("../pinned.txt");

fn pinned(workload: &str, seed: u64) -> Option<Vec<u64>> {
    PINNED.lines().find_map(|line| {
        let mut words = line.split_whitespace();
        if words.next() != Some(workload) || words.next() != Some(seed.to_string().as_str()) {
            return None;
        }
        words.map(|w| u64::from_str_radix(w, 16).ok()).collect()
    })
}

enum Job {
    Campus(String),
    Faults(String),
    Sweep(sweep::Pair),
}

impl Job {
    fn run(&self, rec: &mut Recorder) -> Result<JobOutcome, String> {
        match self {
            Job::Campus(doc) => campus::run(doc, rec),
            Job::Faults(doc) => faults::run(doc, rec),
            Job::Sweep(pair) => sweep::run(pair, rec),
        }
    }

    /// Documents or §5 instances the job runs.
    fn instances(&self) -> usize {
        match self {
            Job::Campus(_) | Job::Faults(_) => 1,
            Job::Sweep(pair) => pair.len(),
        }
    }

    /// The job through the program's own entry point: the digest it must
    /// match, where that entry point renders the same outputs.
    fn canonical(&self) -> Result<Option<u64>, String> {
        match self {
            Job::Campus(doc) => campus::canonical(doc).map(Some),
            Job::Faults(doc) => faults::canonical(doc).map(Some),
            Job::Sweep(pair) => sweep::canonical_routes(pair).map(|()| None),
        }
    }
}

fn jobs(workload: &str, seed: u64) -> Option<Vec<Job>> {
    Some(match workload {
        "campus" => campus::documents(seed).into_iter().map(Job::Campus).collect(),
        "testbed_faults" => faults::documents(seed).into_iter().map(Job::Faults).collect(),
        "fluid_sweep" => sweep::documents(seed).into_iter().map(Job::Sweep).collect(),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Host times of one job run; a failed run's phases read infinite.
#[derive(Clone, Copy)]
struct JobTime {
    total: f64,
    setup: f64,
    run: f64,
    sim: f64,
}

/// One pass over the job list.
struct Round {
    jobs: Vec<JobTime>,
    failed: u64,
    counts: Counts,
    /// Span totals by job and metric name (traced rounds only).
    spans: BTreeMap<(u32, String), f64>,
}

struct Bench {
    jobs: Vec<Job>,
    /// Expected digest per job: pinned, or else the first run's.
    expected: Vec<Option<u64>>,
    /// The digest each job's last run produced.
    seen: Vec<Option<u64>>,
    rec: Recorder,
    errors: Vec<String>,
}

impl Bench {
    fn round(&mut self) -> Round {
        let mark = self.rec.mark();
        let mut r =
            Round { jobs: Vec::new(), failed: 0, counts: Counts::new(), spans: BTreeMap::new() };
        for (i, job) in self.jobs.iter().enumerate() {
            self.rec.begin_job(i as u32);
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| job.run(&mut self.rec)))
                .unwrap_or_else(|_| Err("panicked".into()));
            let dt = t.elapsed().as_secs_f64();
            self.rec.end_job();
            if let Ok(o) = &out {
                self.seen[i] = Some(o.digest);
            }
            let mut time =
                JobTime { total: dt, setup: f64::INFINITY, run: f64::INFINITY, sim: 0.0 };
            let out = out.and_then(|o| match self.expected[i] {
                Some(want) if want != o.digest => {
                    Err(format!("digest {:016x}, expected {want:016x}", o.digest))
                }
                _ => Ok(o),
            });
            match out {
                Ok(o) => {
                    self.expected[i] = Some(o.digest);
                    (time.setup, time.run, time.sim) = (o.setup_s, o.run_s, o.sim_s);
                    for (k, v) in o.counts {
                        *r.counts.entry(k).or_insert(0.0) += v;
                    }
                }
                Err(e) => {
                    r.failed += 1;
                    self.errors.push(format!("job {i}: {e}"));
                }
            }
            r.jobs.push(time);
        }
        if self.rec.enabled() {
            r.spans = self.rec.totals(mark);
        }
        r
    }

    /// Rounds while another one fits in `seconds` (judged by the last
    /// one), at least two.
    fn rounds(&mut self, seconds: f64) -> Vec<Round> {
        let t = Instant::now();
        let mut out = Vec::new();
        let mut last = 0.0;
        while out.len() < 2 || t.elapsed().as_secs_f64() + last <= seconds {
            let r = Instant::now();
            out.push(self.round());
            last = r.elapsed().as_secs_f64();
        }
        out
    }
}

fn vm_hwm_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

type Metrics = Vec<(String, f64, &'static str)>;

/// The fastest of the values: every round repeats the same deterministic
/// jobs, so the spread between runs of one job is interference from the
/// machine, which only ever adds time.
fn best(xs: impl Iterator<Item = f64>) -> f64 {
    xs.fold(f64::INFINITY, f64::min)
}

/// End-to-end metrics from each job's best run: the job list's wall time
/// is the sum of its jobs' best times, and so on for every phase.
fn end_to_end(rounds: &[Round], instances: usize) -> Result<(Metrics, String), String> {
    let jobs: Vec<JobTime> = (0..rounds[0].jobs.len())
        .map(|i| {
            let runs = || rounds.iter().map(|r| r.jobs[i]);
            JobTime {
                total: best(runs().map(|t| t.total)),
                setup: best(runs().map(|t| t.setup)),
                run: best(runs().map(|t| t.run)),
                sim: runs().map(|t| t.sim).fold(0.0, f64::max),
            }
        })
        .collect();
    let sum = |f: fn(&JobTime) -> f64| jobs.iter().map(f).sum::<f64>();
    let totals: Vec<f64> = jobs.iter().map(|t| t.total).collect();
    let (pct, tail_s) = tail(&totals);
    let wall = sum(|t| t.total);
    let m: Metrics = vec![
        ("wall_s".into(), wall, "s"),
        ("setup_s".into(), sum(|t| t.setup), "s"),
        (
            "sim_s_per_s".into(),
            sum(|t| t.sim) / sum(|t| if t.sim > 0.0 { t.run } else { 0.0 }),
            "s/s",
        ),
        ("instances_per_s".into(), instances as f64 / wall, "1/s"),
        ("job_p50_s".into(), median(&totals), "s"),
        ("job_tail_s".into(), tail_s, "s"),
        ("peak_rss_mb".into(), vm_hwm_mb()?, "MB"),
    ];
    let note =
        format!("job_tail_s is p{pct:.1} of {} jobs, best of {} rounds", jobs.len(), rounds.len());
    Ok((m, note))
}

/// Per-layer metrics: span totals summed over the job list from each
/// job's best traced round, counts of one round, and the ratios derived
/// from them.
fn per_layer(traced: &[Round], untraced: &[Round], extra: &Counts) -> Metrics {
    let jobs = traced[0].jobs.len() as u32;
    let span = |name: &str| {
        (0..jobs)
            .map(|j| {
                let key = (j, name.to_string());
                best(traced.iter().map(|r| r.spans.get(&key).copied().unwrap_or(0.0)))
            })
            .sum::<f64>()
    };
    let count =
        |name: &str| extra.get(name).or_else(|| traced[0].counts.get(name)).copied().unwrap_or(0.0);
    let mut m: Metrics = Vec::new();
    for name in TIMED {
        m.push((name.to_string(), span(name), "s"));
    }
    for layer in LAYERS {
        let name = format!("{layer}.self_s");
        let v = span(&name);
        m.push((name, v, "s"));
    }
    let engine = ["sim.new_s", "sim.add_flow_s", "sim.run_s", "sim.report_s"].map(span);
    m.push(("sim.engine_s".into(), engine.iter().sum(), "s"));
    m.push(("sim.sharded_s".into(), count("sim.sharded_s"), "s"));
    for (name, unit) in COUNTED {
        m.push((name.to_string(), count(name), unit));
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    m.push((
        "model.domain_mean".into(),
        ratio(count("model.domain_links"), count("model.links")),
        "links",
    ));
    m.push(("sim.ns_per_event".into(), ratio(span("sim.run_s") * 1e9, count("sim.events")), "ns"));
    let grants = count("sim.mac_grants");
    m.push((
        "sim.mac_grant_ratio".into(),
        ratio(grants, grants + count("sim.mac_deferrals")),
        "ratio",
    ));
    let wall = |rs: &[Round]| {
        (0..jobs as usize).map(|j| best(rs.iter().map(|r| r.jobs[j].total))).sum::<f64>()
    };
    m.push(("trace.overhead_s".into(), wall(traced) - wall(untraced), "s"));
    m
}

/// Span totals reported per round, by metric name.
const TIMED: [&str; 18] = [
    "model.topology_s",
    "model.imap_s",
    "workload.parse_s",
    "workload.compile_s",
    "workload.slo_s",
    "sim.new_s",
    "sim.add_flow_s",
    "sim.run_s",
    "sim.report_s",
    "dynamics.parse_s",
    "dynamics.run_s",
    "routing.search_s",
    "cc.equilibrium_s",
    "cc.fluid_s",
    "baselines.paths_s",
    "baselines.region_s",
    "baselines.solve_s",
    "telemetry.render_s",
];

const LAYERS: [&str; 9] =
    ["model", "workload", "sim", "dynamics", "routing", "cc", "baselines", "telemetry", "job"];

/// Deterministic counts reported per job list.
const COUNTED: [(&str, &str); 18] = [
    ("model.links", "count"),
    ("model.imap_bytes", "B"),
    ("workload.flows", "count"),
    ("sim.events", "count"),
    ("sim.domain_probes", "count"),
    ("sim.hot_allocs", "count"),
    ("sim.slab_grows", "count"),
    ("sim.ctrl_ticks", "count"),
    ("sim.shard_max_events", "count"),
    ("dynamics.faults", "count"),
    ("dynamics.reroutes", "count"),
    ("monitor.recomputes", "count"),
    ("routing.queries", "count"),
    ("routing.nodes_expanded", "count"),
    ("routing.ksp_invocations", "count"),
    ("routing.subtrees_pruned", "count"),
    ("baselines.paths", "count"),
    ("telemetry.bytes", "B"),
];

fn json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(jobs) = jobs(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?} (campus|testbed_faults|fluid_sweep)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let mut errors = Vec::new();
    let mut expected: Vec<Option<u64>> = vec![None; jobs.len()];
    if let Some(digests) = pinned(&args.workload, args.seed) {
        if digests.len() == jobs.len() {
            expected = digests.into_iter().map(Some).collect();
        } else {
            errors.push(format!("{} pinned digests for {} jobs", digests.len(), jobs.len()));
        }
    }
    // The first job through the program's own entry point, untimed.
    let canonical_digest = match catch_unwind(AssertUnwindSafe(|| jobs[0].canonical())) {
        Ok(Ok(d)) => d,
        Ok(Err(e)) => {
            errors.push(format!("canonical run of job 0: {e}"));
            None
        }
        Err(_) => {
            errors.push("canonical run of job 0 panicked".into());
            None
        }
    };
    let seen = vec![None; jobs.len()];
    let mut bench = Bench { jobs, expected, seen, rec: Recorder::new(false), errors };

    let (untraced, traced) = if args.trace {
        let untraced = bench.rounds(args.seconds / 2.0);
        bench.rec.set_enabled(true);
        (untraced, bench.rounds(args.seconds / 2.0))
    } else {
        (bench.rounds(args.seconds), Vec::new())
    };
    if let (Some(want), Some(got)) = (canonical_digest, bench.seen[0]) {
        if want != got {
            bench.errors.push(format!("job 0 digest {got:016x}, program entry point {want:016x}"));
        }
    }
    let all: Vec<&Round> = untraced.iter().chain(&traced).collect();
    let clean: Vec<&&Round> = all.iter().filter(|r| r.failed == 0).collect();
    if clean.windows(2).any(|w| w[0].counts != w[1].counts) {
        bench.errors.push("deterministic counts differ between rounds".into());
    }
    let mut extra = Counts::new();
    if let (true, Job::Campus(doc)) = (args.trace, &bench.jobs[0]) {
        bench.rec.begin_job(bench.jobs.len() as u32);
        match campus::yardstick(doc, &mut bench.rec) {
            Ok(c) => extra = c,
            Err(e) => bench.errors.push(format!("sharded yardstick: {e}")),
        }
        bench.rec.end_job();
    }
    if args.trace {
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = bench.rec.write_jsonl(&path) {
            bench.errors.push(format!("writing {}: {e}", path.display()));
        }
    }
    let attempted = all.iter().map(|r| r.jobs.len() as u64).sum::<u64>();
    let failed = all.iter().map(|r| r.failed).sum::<u64>();
    let digests: Vec<String> =
        bench.seen.iter().map(|d| d.map_or("none".into(), |d| format!("{d:016x}"))).collect();
    println!("workload {} seed {}: {} jobs per round", args.workload, args.seed, bench.jobs.len());
    println!("digests: {} {} {}", args.workload, args.seed, digests.join(" "));
    println!("counts: {:?}", all[0].counts);
    let walls: Vec<String> =
        all.iter().map(|r| format!("{:.4}", r.jobs.iter().map(|t| t.total).sum::<f64>())).collect();
    println!("round wall_s: [{}]", walls.join(", "));
    for e in &bench.errors {
        println!("error: {e}");
    }
    let metrics = if args.trace {
        per_layer(&traced, &untraced, &extra)
    } else {
        match end_to_end(&untraced, bench.jobs.iter().map(Job::instances).sum()) {
            Ok((m, note)) => {
                println!("{note}");
                m
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    };
    println!(
        "error_rate: {} ({failed} of {attempted} jobs failed)",
        failed as f64 / attempted as f64
    );
    for (name, v, unit) in &metrics {
        println!("{name:<26} {v:>16.6} {unit}");
    }
    let correct = failed == 0 && bench.errors.is_empty();
    println!("{}", json(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
