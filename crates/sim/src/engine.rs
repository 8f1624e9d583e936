//! The discrete-event engine: MAC, forwarding, control plane, applications.
//!
//! This is the optimized, allocation-free-in-steady-state engine: events
//! live in a `(time, seq)` binary heap ([`crate::event::EventQueue`]), MAC
//! contention is decided by word-level AND of the non-zero words of each
//! interference-domain bitset row against a busy bitmask (so a MAC scan
//! costs per word holding a domain member, not per 64 links of the
//! network), packets are pooled in a free-list slab ([`PacketSlab`]) and
//! referenced by 4-byte [`PacketId`] handles, and every per-frame/per-tick
//! scratch vector is reused across calls. Results are bit-identical to
//! [`crate::ReferenceSimulation`] (the retained pre-optimization engine),
//! enforced by the seeded corpus in `crates/sim/tests/equivalence.rs`.

use std::collections::{BTreeMap, VecDeque};

use empower_cc::{BroadcastPlan, FlowController, LinkPriceState, PriceBroadcast, ProportionalFair};
use empower_datapath::{
    AdmitOutcome, CtrlMsg, DatapathConfig, EmpowerHeader, FlowDatapath, IfaceId, IfaceRegistry,
    Outbox, PktHandle, PktPool, PriceStampNode, ReorderEvent, SchedulerConfig, SourceRoute,
    HEADER_LEN,
};
use empower_model::rng::SeedableRng;
use empower_model::rng::StdRng;
use empower_model::rng::{exponential, normal, stream_seed};
use empower_model::{InterferenceMap, LinkId, Network, NodeId};

use empower_telemetry::{Counter, Telemetry};

use crate::config::SimConfig;
use crate::event::{Event, EventQueue};
use crate::flow::{FlowSpecSim, TrafficPattern};
use crate::metrics::EngineCounters;
use crate::packet::{PacketId, PacketKind, PacketSlab, SimPacket};
use crate::perf::SimPerfStats;
use crate::stats::{FlowStats, SimReport};
use crate::tcp::{TcpConfig, TcpReceiver, TcpSender};
use crate::trace::{DropSite, Trace, TraceEvent};

/// Sets bit `i` in a packed word array.
#[inline]
fn set_bit(words: &mut [u64], i: usize) {
    words[i / 64] |= 1u64 << (i % 64);
}

/// Clears bit `i` in a packed word array.
#[inline]
fn clear_bit(words: &mut [u64], i: usize) {
    words[i / 64] &= !(1u64 << (i % 64));
}

/// The non-zero words of every interference row, CSR-packed: row `l` is
/// `words[offsets[l]..offsets[l + 1]]`, `(word index, word)` pairs in
/// ascending word order. A MAC scan then costs one probe per word that
/// holds a domain member instead of one per 64 links of the network.
struct SparseRows {
    offsets: Vec<u32>,
    words: Vec<(u32, u64)>,
}

impl SparseRows {
    fn new(imap: &InterferenceMap) -> Self {
        let mut offsets = Vec::with_capacity(imap.link_count() + 1);
        let mut words = Vec::new();
        offsets.push(0);
        for l in 0..imap.link_count() {
            let row = imap.domain_words(LinkId(l as u32));
            words.extend(
                row.iter().enumerate().filter(|(_, &w)| w != 0).map(|(wi, &w)| (wi as u32, w)),
            );
            offsets.push(words.len() as u32);
        }
        SparseRows { offsets, words }
    }

    #[inline]
    fn row(&self, link: LinkId) -> &[(u32, u64)] {
        let l = link.index();
        &self.words[self.offsets[l] as usize..self.offsets[l + 1] as usize]
    }
}

/// One flow's live state inside the engine.
struct FlowRuntime {
    spec: FlowSpecSim,
    /// First link of each route (the source's egress).
    first_links: Vec<LinkId>,
    /// The flow's forwarding graph (`RouteChoice → PriceStamp → [DelayEq]
    /// → Reorder`); the event loop interleaves its stages with MAC and
    /// propagation events through the typed entry points.
    dp: FlowDatapath,
    controller: Option<FlowController<ProportionalFair>>,
    active: bool,
    /// Remaining frame goal of the current file (None = not a file flow).
    current_file_frames: Option<u64>,
    /// Frames of the current file delivered so far.
    file_frames_delivered: u64,
    /// When the current file's transfer began.
    file_began_at: f64,
    /// Precomputed absolute ready-times of queued files (PoissonFiles).
    pending_files: VecDeque<f64>,
    /// TCP machinery, if this is a TCP flow.
    tcp: Option<TcpFlow>,
    /// Source-side backlog of TCP segments awaiting admission (the tun/tap
    /// → datapath queue of the real implementation). Lets TCP self-clock
    /// instead of losing every burst to the token bucket.
    tcp_backlog: VecDeque<u32>,
    /// Guard so exactly one Emit event is in flight per flow.
    emit_pending: bool,
    /// Emission gate: no packet may be offered before this time (a queued
    /// Poisson file that is not ready yet).
    emission_not_before: f64,
    /// Per-route frame counters (`flow/<f>/route/<r>/frames`).
    route_frames: Vec<Counter>,
    /// ACK-cadence counter (`flow/<f>/acks_sent`).
    acks_sent: Counter,
}

struct TcpFlow {
    sender: TcpSender,
    receiver: TcpReceiver,
    /// Map wire sequence → TCP segment id at the destination.
    wire_to_tcp: BTreeMap<u32, u32>,
    /// One-way ACK-path delay, seconds.
    ack_delay: f64,
    /// Time of the currently scheduled RTO check (stale events ignored).
    rto_check_at: Option<f64>,
}

/// Stream-family tag for per-flow RNG streams (shared by both engines so
/// their draw sequences stay bit-identical).
pub(crate) const STREAM_FLOW: u64 = 0x464c_4f57; // "FLOW"
/// Stream-family tag for per-link RNG streams.
pub(crate) const STREAM_LINK: u64 = 0x4c49_4e4b; // "LINK"

/// The simulator.
pub struct Simulation {
    net: Network,
    imap: InterferenceMap,
    /// `imap`'s rows without their zero words, for `can_start`/`tx_end`.
    domain_rows: SparseRows,
    reg: IfaceRegistry,
    cfg: SimConfig,
    /// Per-flow random streams (traffic draws: scheduler token choice,
    /// Poisson inter-arrivals). Seeded from `(cfg.seed, STREAM_FLOW, flow
    /// index)` so a flow's draw sequence is independent of every other
    /// flow's draw count — the property the sharded engine (DESIGN.md §13)
    /// relies on to reproduce the single-threaded stream exactly.
    flow_rngs: Vec<StdRng>,
    /// Per-link random streams (capacity-estimation noise), seeded from
    /// `(cfg.seed, STREAM_LINK, link index)`.
    link_rngs: Vec<StdRng>,
    /// Global link id per local link — identity for a standalone engine,
    /// the view remap for a shard worker ([`crate::ShardedSimulation`]).
    /// Everything observable (trace link fields, counter names, RNG
    /// stream seeds) uses these, so a view worker's output needs no
    /// post-hoc translation.
    link_gids: Vec<u32>,
    /// Global flow id per local flow, same role as `link_gids`.
    flow_gids: Vec<usize>,
    events: EventQueue,
    now: f64,
    /// Pooled packet storage; queues and the busy table hold handles.
    slab: PacketSlab,
    /// Pool backing the flows' forwarding graphs. Source-side packets are
    /// transient (admitted, stamped, serialized into [`SimPacket`]s,
    /// released), so after warm-up this pool stops growing too.
    dp_pool: PktPool,
    /// Reused per-stage outbox for the forwarding graphs.
    dp_out: Outbox,
    /// Per-link FIFO queues of slab handles.
    queues: Vec<VecDeque<PacketId>>,
    /// Frame currently on the air per link.
    busy: Vec<Option<PacketId>>,
    /// Packed mirror of `busy`: bit `l` set iff link `l` is transmitting.
    busy_words: Vec<u64>,
    /// Bit `l` set iff `queues[l]` is non-empty.
    backlog_words: Vec<u64>,
    /// Bit `l` set iff link `l` is alive (capacity > 0).
    alive_words: Vec<u64>,
    /// Per-link saturation-penalty domain sums, recomputed once per
    /// control tick (its inputs only change there): exactly
    /// `Σ_{i ∈ I_l} penalty_demand[i]`, in domain order, so `try_start`
    /// reads one f64 instead of re-summing per frame.
    domain_penalty: Vec<f64>,
    last_start: Vec<f64>,
    /// Bits enqueued per link since the last control tick (demand).
    demand_bits: Vec<f64>,
    /// EWMA-smoothed per-link airtime demand. Raw per-slot demand is
    /// quantized to whole frames and therefore noisy (σ ≈ 0.1–0.2 of a
    /// domain's budget at 12 kB frames); feeding it raw into the γ update's
    /// positive-part recursion turns γ into a reflected random walk whose
    /// mean grows with the noise, strangling the rates. Smoothing over a
    /// few slots removes the bias at the cost of ~half a second of control
    /// lag — exactly what a real driver's airtime statistics do.
    last_demand: Vec<f64>,
    /// Slow-EWMA demand driving the saturation penalty: persistent
    /// overdrive must trigger it, single-slot quantization spikes must not.
    penalty_demand: Vec<f64>,
    price_states: Vec<LinkPriceState>,
    /// Precomputed broadcast-vector index plan (fixed for the whole run):
    /// replaces the per-slot `(node, medium)` membership scans of the
    /// reference engine with direct indexed sums, bit-identically.
    bcast_plan: BroadcastPlan,
    broadcasts: Vec<PriceBroadcast>,
    flows: Vec<FlowRuntime>,
    stats: Vec<FlowStats>,
    ticks: u64,
    /// Flows whose FlowStart event has fired.
    started_flows: usize,
    /// Capacity each link had when a node crash took it down (indexed by
    /// link): restored on node recovery, `None` while the link is healthy.
    crash_saved: Vec<Option<f64>>,
    /// Whether the initial ControlTick has been scheduled.
    control_started: bool,
    /// Optional packet-level trace sink.
    trace: Option<Trace>,
    /// Telemetry counter bundle (all no-ops until a registry is attached).
    etel: EngineCounters,
    /// Deterministic hot-path work counters.
    perf: SimPerfStats,
    /// Reused candidate buffer for `tx_end`/`apply_capacity` domain scans.
    scratch_links: Vec<LinkId>,
    /// Reused reorder-result buffer for `deliver_to_reorder`.
    scratch_reorder: Vec<ReorderEvent>,
    /// Reused TCP-ACK buffer for `deliver_to_reorder`.
    scratch_acks: Vec<u32>,
    /// Reused per-node TCP-receiver flags for `control_tick`.
    scratch_tcp_nodes: Vec<bool>,
    /// Reused no-ack price vector for controller steps.
    scratch_prices: Vec<Option<f64>>,
    /// Reused broadcast buffer for the first `control_tick` collect.
    scratch_broadcasts: Vec<PriceBroadcast>,
}

impl Simulation {
    /// Creates an empty simulation over `net`.
    pub fn new(net: Network, imap: InterferenceMap, cfg: SimConfig) -> Self {
        let ids = (0..net.link_count() as u32).collect();
        Self::with_global_link_ids(net, imap, cfg, ids)
    }

    /// Like [`Simulation::new`] over a shard view: `link_gids[l]` is the
    /// global id of local link `l`. Per-link RNG streams are seeded by
    /// global id and traces/counters emit global ids, so a worker running
    /// on a view reproduces the single-threaded engine's observable
    /// output for its slice verbatim.
    pub(crate) fn with_global_link_ids(
        net: Network,
        imap: InterferenceMap,
        cfg: SimConfig,
        link_gids: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(link_gids.len(), net.link_count());
        let reg = IfaceRegistry::for_network(&net);
        let l = net.link_count();
        let price_states: Vec<LinkPriceState> =
            net.nodes().iter().map(|n| LinkPriceState::new(&net, &imap, n.id)).collect();
        let bcast_plan = BroadcastPlan::new(&net, &price_states);
        let link_rngs = link_gids
            .iter()
            .map(|&g| StdRng::seed_from_u64(stream_seed(cfg.seed, STREAM_LINK, g as u64)))
            .collect();
        let stride = l.div_ceil(64);
        let mut alive_words = vec![0u64; stride.max(1)];
        for lk in net.links() {
            if lk.is_alive() {
                set_bit(&mut alive_words, lk.id.index());
            }
        }
        Simulation {
            domain_rows: SparseRows::new(&imap),
            reg,
            slab: PacketSlab::new(),
            dp_pool: PktPool::new(),
            dp_out: Outbox::new(),
            queues: vec![VecDeque::new(); l],
            busy: vec![None; l],
            busy_words: vec![0u64; stride.max(1)],
            backlog_words: vec![0u64; stride.max(1)],
            alive_words,
            domain_penalty: vec![0.0; l],
            last_start: vec![-1.0; l],
            demand_bits: vec![0.0; l],
            last_demand: vec![0.0; l],
            penalty_demand: vec![0.0; l],
            price_states,
            bcast_plan,
            broadcasts: Vec::new(),
            flows: Vec::new(),
            stats: Vec::new(),
            ticks: 0,
            started_flows: 0,
            crash_saved: vec![None; l],
            control_started: false,
            trace: None,
            etel: EngineCounters::disabled(l),
            perf: SimPerfStats::default(),
            scratch_links: Vec::new(),
            scratch_reorder: Vec::new(),
            scratch_acks: Vec::new(),
            scratch_tcp_nodes: Vec::new(),
            scratch_prices: Vec::new(),
            scratch_broadcasts: Vec::new(),
            events: EventQueue::new(),
            now: 0.0,
            net,
            imap,
            cfg,
            flow_rngs: Vec::new(),
            link_rngs,
            link_gids,
            flow_gids: Vec::new(),
        }
    }

    /// The deterministic work counters accumulated so far. The slab's
    /// reuse/growth tallies are folded in; growth events are the engine's
    /// only steady-state hot-path allocations, so they double as
    /// `hot_allocs`.
    pub fn perf_stats(&self) -> SimPerfStats {
        let mut p = self.perf;
        p.slab_hits = self.slab.hits();
        p.slab_grows = self.slab.grows();
        p.hot_allocs = self.slab.grows();
        p
    }

    /// Read access to the network (capacities may change via failures).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// A read-only diagnostic view over the running simulation. The engine
    /// surface proper stays construction + schedule + run; everything
    /// observational lives on [`SimInspector`].
    pub fn inspect(&self) -> SimInspector<'_> {
        SimInspector { sim: self }
    }

    /// Attaches a packet-level trace sink (e.g. `Trace::bounded(100_000)`).
    pub fn attach_trace(&mut self, trace: Trace) {
        self.trace = Some(trace);
    }

    /// Attaches a telemetry registry: MAC, queue, datapath and control-
    /// plane counters register immediately, and the registry's virtual
    /// clock follows simulated time from here on. Flows registered before
    /// the attach get their per-flow counters retroactively; attach before
    /// [`Simulation::add_flow`] for hygiene.
    pub fn attach_telemetry(&mut self, tele: Telemetry) {
        self.etel = EngineCounters::attach(tele, &self.link_gids);
        for f in 0..self.flows.len() {
            let gid = self.flow_gids[f];
            let routes = self.flows[f].spec.routes.len();
            self.flows[f].route_frames = self.etel.flow_route_counters(gid, routes);
            self.flows[f].acks_sent = self.etel.flow_ack_counter(gid);
        }
    }

    /// The attached telemetry handle (disabled if none was attached).
    pub fn telemetry(&self) -> &Telemetry {
        &self.etel.tele
    }

    /// Detaches and returns the trace recorded so far.
    pub fn take_trace(&mut self) -> Option<Trace> {
        self.trace.take()
    }

    /// Resolves a path into a wire source route, or `None` when a hop's
    /// receiving interface is gone (node removed mid-run) or the path does
    /// not fit the 6-hop header — callers skip such routes instead of
    /// panicking.
    fn resolve_source_route(&self, p: &empower_model::Path) -> Option<SourceRoute> {
        let mut hops: Vec<IfaceId> = Vec::with_capacity(p.links().len());
        for &l in p.links() {
            let link = self.net.try_link(l)?;
            hops.push(self.reg.id_of(link.to, link.medium)?);
        }
        SourceRoute::new(&hops).ok()
    }

    /// Registers a flow; returns its index. Routes that cannot be resolved
    /// (missing interface, more than 6 hops) are skipped.
    ///
    /// # Panics
    /// Panics if the spec has no usable routes, or an open-loop flow lacks
    /// rates.
    pub fn add_flow(&mut self, spec: FlowSpecSim) -> usize {
        let gid = self.flows.len();
        self.add_flow_global(spec, gid)
    }

    /// [`Simulation::add_flow`] with an explicit *global* flow id: a shard
    /// worker passes the flow's index in the full run so RNG streams,
    /// per-flow counter names and trace flow fields match the
    /// single-threaded engine. Returns the local index.
    pub(crate) fn add_flow_global(&mut self, mut spec: FlowSpecSim, gid: usize) -> usize {
        assert!(!spec.routes.is_empty(), "flow has no routes");
        assert!(
            !self.control_started,
            "flows must be registered before the simulation starts \
             (the control-tick chain may already have drained)"
        );
        if !spec.use_cc {
            assert_eq!(
                spec.open_loop_rates.len(),
                spec.routes.len(),
                "open-loop flows need one rate per route"
            );
        }
        let resolved: Vec<Option<SourceRoute>> =
            spec.routes.iter().map(|p| self.resolve_source_route(p)).collect();
        if resolved.iter().any(Option::is_none) {
            self.etel.route_errors.inc();
            let keep: Vec<bool> = resolved.iter().map(Option::is_some).collect();
            let mut i = 0;
            spec.routes.retain(|_| {
                let keep_it = keep.get(i).copied().unwrap_or(false);
                i += 1;
                keep_it
            });
            if !spec.use_cc {
                let mut i = 0;
                spec.open_loop_rates.retain(|_| {
                    let keep_it = keep.get(i).copied().unwrap_or(false);
                    i += 1;
                    keep_it
                });
            }
        }
        let source_routes: Vec<SourceRoute> = resolved.into_iter().flatten().collect();
        assert!(!spec.routes.is_empty(), "no route of the flow could be resolved");
        let first_links: Vec<LinkId> = spec.routes.iter().map(|p| p.links()[0]).collect();
        let mut sched_cfg = SchedulerConfig::for_routes(spec.routes.len())
            .bucket_depth_mb(4.0 * self.cfg.frame_bits as f64 / 1e6);
        let controller = if spec.use_cc {
            let caps: Vec<f64> =
                spec.routes.iter().map(|p| p.capacity(&self.net, &self.imap)).collect();
            let max_hops = spec.routes.iter().map(|p| p.hop_count()).max().unwrap_or(1);
            Some(FlowController::new(ProportionalFair, self.cfg.cc_config(), caps, max_hops))
        } else {
            if !spec.use_cc {
                sched_cfg = sched_cfg.initial_rates(&spec.open_loop_rates);
            }
            None
        };
        let tcp = spec.pattern.is_tcp().then(|| {
            let total = match spec.pattern {
                TrafficPattern::Tcp { size_bytes: 0, .. } => None,
                TrafficPattern::Tcp { size_bytes, .. } => {
                    Some(size_bytes * 8 / self.cfg.frame_bits + 1)
                }
                _ => unreachable!(),
            };
            // ACK path: the reverse of route 0, small frames, lightly
            // loaded prioritized queues → per-hop store-and-forward of a
            // 40 B segment plus 1 ms of MAC access per hop.
            let ack_delay: f64 = spec.routes[0]
                .links()
                .iter()
                .map(|&l| {
                    let link = self.net.link(l);
                    0.001 + 320.0 / (link.capacity_mbps.max(1.0) * 1e6)
                })
                .sum();
            TcpFlow {
                sender: TcpSender::new(TcpConfig::default(), total),
                receiver: TcpReceiver::new(),
                wire_to_tcp: BTreeMap::new(),
                ack_delay,
                rto_check_at: None,
            }
        });
        let route_count = spec.routes.len();
        let mut dp_cfg = DatapathConfig::for_routes(route_count).scheduler(sched_cfg);
        if spec.delay_equalization {
            dp_cfg = dp_cfg.with_delay_eq();
        }
        // No telemetry scope: the engine keeps its own (manifest-stable)
        // per-flow counters; per-node graph counters are for standalone
        // backends.
        let dp = FlowDatapath::new(&dp_cfg, source_routes, None);
        let start = spec.pattern.start_time();
        let stop = spec.pattern.stop_time();
        let idx = self.flows.len();
        self.flows.push(FlowRuntime {
            spec,
            first_links,
            dp,
            controller,
            active: false,
            current_file_frames: None,
            file_frames_delivered: 0,
            file_began_at: 0.0,
            pending_files: VecDeque::new(),
            tcp,
            tcp_backlog: VecDeque::new(),
            emit_pending: false,
            emission_not_before: 0.0,
            route_frames: self.etel.flow_route_counters(gid, route_count),
            acks_sent: self.etel.flow_ack_counter(gid),
        });
        self.flow_rngs.push(StdRng::seed_from_u64(stream_seed(
            self.cfg.seed,
            STREAM_FLOW,
            gid as u64,
        )));
        self.flow_gids.push(gid);
        self.stats.push(FlowStats { started_at: start, ..Default::default() });
        self.events.push(start, Event::FlowStart { flow: idx as u32 });
        if let Some(stop) = stop {
            self.events.push(stop, Event::FlowStop { flow: idx as u32 });
        }
        idx
    }

    /// Schedules a capacity change (failure injection: 0 = link death).
    pub fn schedule_link_change(&mut self, at: f64, link: LinkId, capacity_mbps: f64) {
        self.events.push(at, Event::LinkChange { link, capacity_mbps });
    }

    /// Schedules a node crash (`up = false`) or recovery (`up = true`).
    pub fn schedule_node_change(&mut self, at: f64, node: NodeId, up: bool) {
        self.events.push(at, Event::NodeChange { node, up });
    }

    /// Replaces a flow's routes mid-run — the §3.2 route recomputation after
    /// a failure or a large capacity shift (the caller decides *when*, e.g.
    /// via `empower_core`'s RouteMonitor).
    ///
    /// The wire sequence counter and the destination's expected sequence
    /// survive (the reorder buffer is re-keyed, not reset), the controller
    /// restarts fresh on the new route set, and in-flight frames of old
    /// routes still deliver or get declared lost by the normal rules.
    ///
    /// Routes that no longer resolve (an interface vanished with its node,
    /// or the path exceeds the 6-hop header) are skipped; if *none*
    /// resolves the flow keeps its old routes. Returns the number of
    /// routes actually installed (0 = nothing changed).
    ///
    /// # Panics
    /// Panics if `routes` is empty or a route does not match the flow's
    /// endpoints.
    pub fn replace_routes(&mut self, flow: usize, routes: Vec<empower_model::Path>) -> usize {
        assert!(!routes.is_empty(), "a flow needs at least one route");
        for p in &routes {
            assert_eq!(p.source(&self.net), self.flows[flow].spec.src);
            assert_eq!(p.destination(&self.net), self.flows[flow].spec.dst);
        }
        let mut source_routes: Vec<SourceRoute> = Vec::with_capacity(routes.len());
        let routes: Vec<empower_model::Path> = routes
            .into_iter()
            .filter(|p| match self.resolve_source_route(p) {
                Some(sr) => {
                    source_routes.push(sr);
                    true
                }
                None => {
                    self.etel.route_errors.inc();
                    false
                }
            })
            .collect();
        if routes.is_empty() {
            let gid = self.flow_gids[flow];
            self.etel.tele.event("sim", "route_replace_failed", &[("flow", gid.into())]);
            return 0;
        }
        let n = routes.len();
        let caps: Vec<f64> = routes.iter().map(|p| p.capacity(&self.net, &self.imap)).collect();
        let max_hops = routes.iter().map(|p| p.hop_count()).max().unwrap_or(1);
        let fl = &mut self.flows[flow];
        fl.first_links = routes.iter().map(|p| p.links()[0]).collect();
        fl.spec.routes = routes;
        // Re-key every stage of the forwarding graph in one control
        // message: the scheduler's token bucket and wire sequence counter
        // survive, the reorder stage keeps its expected sequence, the
        // ACK collector and delay equalizer restart fresh.
        fl.dp.post(CtrlMsg::ReplaceRoutes(source_routes));
        if fl.controller.is_some() {
            fl.controller =
                Some(FlowController::new(ProportionalFair, self.cfg.cc_config(), caps, max_hops));
        } else {
            // Open-loop flows keep driving each new route at its standalone
            // capacity.
            fl.spec.open_loop_rates =
                fl.spec.routes.iter().map(|p| p.capacity(&self.net, &self.imap)).collect();
            fl.dp.post(CtrlMsg::SetRates(fl.spec.open_loop_rates.clone()));
        }
        fl.dp.tick();
        let gid = self.flow_gids[flow];
        fl.route_frames = self.etel.flow_route_counters(gid, n);
        self.etel.tele.event("sim", "route_replace", &[("flow", gid.into()), ("routes", n.into())]);
        // New route columns in the rate series start now, padded with zeros
        // for the elapsed samples.
        let series = &mut self.stats[flow].rate_series;
        let len = series.first().map_or(0, Vec::len);
        if series.len() < n {
            series.resize_with(n, || vec![0.0; len]);
        }
        n
    }

    /// Runs until `duration` seconds of simulated time and returns the
    /// report.
    pub fn run(&mut self, duration: f64) -> SimReport {
        self.run_until(duration);
        self.report(duration)
    }

    /// Advances the simulation to time `until` and pauses, leaving all
    /// state intact — callers can inspect the network, recompute routes
    /// ([`Simulation::replace_routes`]) or inject changes, then resume.
    pub fn run_until(&mut self, until: f64) {
        if !self.control_started {
            self.control_started = true;
            self.events.push(0.0, Event::ControlTick);
        }
        while let Some(at) = self.events.peek_time() {
            if at > until {
                break;
            }
            let Some((at, event)) = self.events.pop() else { break };
            debug_assert!(at + 1e-9 >= self.now, "time went backwards");
            self.now = at;
            self.etel.tele.set_now(at);
            self.perf.events_dispatched += 1;
            self.dispatch(event);
        }
        self.now = self.now.max(until);
    }

    /// The report as of the current simulated time.
    pub fn report(&self, duration: f64) -> SimReport {
        SimReport { flows: self.stats.clone(), duration }
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::ControlTick => self.control_tick(),
            Event::Emit { flow } => self.emit(flow as usize),
            Event::TxEnd { link } => self.tx_end(link),
            Event::FlowStart { flow } => self.flow_start(flow as usize),
            Event::FlowStop { flow } => self.flow_stop(flow as usize),
            Event::LinkChange { link, capacity_mbps } => self.link_change(link, capacity_mbps),
            Event::NodeChange { node, up } => self.node_change(node, up),
            Event::Release { flow, route, seq, price, created_at } => {
                self.deliver_to_reorder(
                    flow as usize,
                    route as usize,
                    seq,
                    price as f64,
                    created_at,
                );
            }
            Event::TcpAckArrival { flow, ack_seq, .. } => self.tcp_ack(flow as usize, ack_seq),
            Event::TcpRtoCheck { flow } => self.tcp_rto_check(flow as usize),
        }
    }

    // ------------------------------------------------------------------
    // Applications
    // ------------------------------------------------------------------

    fn flow_start(&mut self, f: usize) {
        self.started_flows += 1;
        self.flows[f].active = true;
        self.etel.tele.event("sim", "flow_start", &[("flow", self.flow_gids[f].into())]);
        match self.flows[f].spec.pattern {
            TrafficPattern::SaturatedUdp { .. } => self.schedule_emit(f, 0.0),
            TrafficPattern::FileDownload { size_bytes, .. } => {
                self.begin_file(f, size_bytes);
                self.schedule_emit(f, 0.0);
            }
            TrafficPattern::PoissonFiles { count, size_bytes, mean_gap_secs, .. } => {
                // Precompute the Poisson ready-times of the files.
                let mut t = self.now;
                for _ in 0..count {
                    self.flows[f].pending_files.push_back(t);
                    t += exponential(&mut self.flow_rngs[f], mean_gap_secs);
                }
                self.begin_file(f, size_bytes);
                self.flows[f].pending_files.pop_front();
                self.schedule_emit(f, 0.0);
            }
            TrafficPattern::Tcp { .. } => {
                self.tcp_pump(f);
            }
        }
    }

    /// Deactivates flow `f` on its first stop (scheduled stop, final file
    /// completion or TCP goal): records the stop time in its stats and
    /// emits the `flow_stop` hook event, mirroring `flow_start`. A flow
    /// that already stopped (e.g. a TCP goal met before the scheduled
    /// stop) is left untouched.
    fn flow_stop(&mut self, f: usize) {
        if !self.flows[f].active {
            return;
        }
        self.flows[f].active = false;
        self.stats[f].stopped_at = self.now;
        self.etel.tele.event("sim", "flow_stop", &[("flow", self.flow_gids[f].into())]);
    }

    fn begin_file(&mut self, f: usize, size_bytes: u64) {
        let frames = (size_bytes * 8).div_ceil(self.cfg.frame_bits);
        let fl = &mut self.flows[f];
        fl.current_file_frames = Some(frames);
        fl.file_frames_delivered = 0;
        fl.file_began_at = self.now;
    }

    fn schedule_emit(&mut self, f: usize, delay: f64) {
        if !self.flows[f].emit_pending {
            self.flows[f].emit_pending = true;
            self.events.push(self.now + delay, Event::Emit { flow: f as u32 });
        }
    }

    fn emit(&mut self, f: usize) {
        self.flows[f].emit_pending = false;
        if !self.flows[f].active {
            return;
        }
        // A queued file may not be ready yet (Poisson arrivals): a stale
        // Emit event from the previous file's pacing must not start it
        // early.
        let gate = self.flows[f].emission_not_before;
        if self.now + 1e-9 < gate {
            self.schedule_emit(f, gate - self.now);
            return;
        }
        if self.flows[f].spec.pattern.is_tcp() {
            self.tcp_drain(f);
            return;
        }
        // File flows stop offering once the goal is met.
        if self.flows[f]
            .current_file_frames
            .is_some_and(|goal| self.flows[f].file_frames_delivered >= goal)
        {
            return; // completion handling re-arms emission
        }
        let bits = self.cfg.frame_bits;
        let outcome = self.flows[f].dp.admit(
            &mut self.dp_pool,
            &mut self.flow_rngs[f],
            self.now,
            bits,
            &mut self.dp_out,
        );
        match outcome {
            AdmitOutcome::Dropped => {
                self.stats[f].dropped_at_source += 1;
                self.etel.drops_source.inc();
            }
            AdmitOutcome::Admitted { pkt, route } => {
                self.send_admitted(f, pkt, route, PacketKind::Data, None);
            }
        }
        let rate = self.flows[f].dp.total_rate().max(1.0);
        let interval = bits as f64 / 1e6 / rate;
        self.schedule_emit(f, interval);
    }

    /// Takes an admitted graph packet through the `PriceStamp` stage,
    /// serializes it into a [`SimPacket`] and enqueues it on the first link
    /// of route `r` (the graph pool slot is recycled immediately — on the
    /// wire the frame lives in the slab).
    fn send_admitted(
        &mut self,
        f: usize,
        pkt: PktHandle,
        r: usize,
        kind: PacketKind,
        tcp_seq: Option<u32>,
    ) {
        let first = self.flows[f].first_links[r];
        // The source adds its own price contribution for the first hop.
        let src_node = self.flows[f].spec.src;
        let contribution = self.bcast_plan.price_contribution(
            &self.net,
            &self.price_states,
            &self.broadcasts,
            src_node.index(),
            first,
        );
        self.flows[f].dp.stamp(
            &mut self.dp_pool,
            &mut self.flow_rngs[f],
            self.now,
            pkt,
            contribution,
            &mut self.dp_out,
        );
        let header = self.dp_pool.get(pkt).header;
        self.dp_pool.release(pkt);
        let wire_seq = header.seq;
        if self.etel.enabled() {
            // Exercise the real 20-byte wire codec on every emitted frame:
            // an encode/decode round-trip failure is a datapath bug the
            // counters must surface (the disabled path skips this).
            self.flows[f].route_frames[r].inc();
            let mut bytes = [0u8; HEADER_LEN];
            header.encode_into(&mut bytes);
            if EmpowerHeader::decode(&mut &bytes[..]).is_err() {
                self.etel.header_decode_errors.inc();
            }
        }
        if let (Some(tcp), Some(ts)) = (self.flows[f].tcp.as_mut(), tcp_seq) {
            tcp.wire_to_tcp.insert(wire_seq, ts);
        }
        let pkt = SimPacket {
            header,
            size_bits: self.cfg.frame_bits,
            flow: f,
            route: r,
            created_at: self.now,
            kind,
        };
        self.stats[f].sent_frames += 1;
        let id = self.slab.insert(pkt);
        self.enqueue_link(first, id);
    }

    // ------------------------------------------------------------------
    // MAC
    // ------------------------------------------------------------------

    fn enqueue_link(&mut self, link: LinkId, id: PacketId) {
        let l = link.index();
        // Demand is the *offered* airtime (Eq. (7) measures what flows try
        // to push, which is what the prices must react to), so count the
        // frame even when the queue then drops it.
        self.demand_bits[l] += self.slab.get(id).size_bits as f64;
        if !self.net.link(link).is_alive() || self.queues[l].len() >= self.cfg.queue_frames {
            let (flow, seq) = {
                let pkt = self.slab.get(id);
                (pkt.flow, pkt.header.seq)
            };
            self.stats[flow].dropped_in_network += 1;
            let alive = self.net.link(link).is_alive();
            if alive {
                self.etel.drops_overflow.inc();
            } else {
                self.etel.drops_dead_link.inc();
            }
            if let Some(tr) = self.trace.as_mut() {
                let site = if alive { DropSite::QueueOverflow } else { DropSite::DeadLink };
                tr.push(TraceEvent::Drop {
                    t: self.now,
                    flow: self.flow_gids[flow],
                    seq,
                    where_: site,
                });
            }
            self.slab.release(id);
            return;
        }
        self.queues[l].push_back(id);
        set_bit(&mut self.backlog_words, l);
        self.etel.queue_hwm[l].record_max(self.queues[l].len() as u64);
        self.try_start(link);
    }

    fn can_start(&mut self, link: LinkId) -> bool {
        let l = link.index();
        if self.busy[l].is_some() || self.queues[l].is_empty() || !self.net.link(link).is_alive() {
            return false;
        }
        // Word-level domain-occupancy test over the row's non-zero words:
        // one AND per word holding a domain member, early exit on the
        // first busy hit. One probe per word examined.
        let mut probes = 0u64;
        let mut clear = true;
        for &(wi, d) in self.domain_rows.row(link) {
            probes += 1;
            if d & self.busy_words[wi as usize] != 0 {
                clear = false;
                break;
            }
        }
        self.perf.domain_probes += probes;
        clear
    }

    fn try_start(&mut self, link: LinkId) {
        if !self.can_start(link) {
            // A deferral is a backlogged, healthy link that found its
            // contention domain occupied — the CSMA wait the paper's MAC
            // model abstracts into fair sharing.
            let l = link.index();
            if self.busy[l].is_none()
                && !self.queues[l].is_empty()
                && self.net.link(link).is_alive()
            {
                self.etel.mac_deferrals.inc();
            }
            return;
        }
        let l = link.index();
        // `can_start` verified the queue is non-empty.
        let Some(id) = self.queues[l].pop_front() else { return };
        if self.queues[l].is_empty() {
            clear_bit(&mut self.backlog_words, l);
        }
        self.etel.mac_grants.inc();
        let size_bits = self.slab.get(id).size_bits;
        let mut duration = self.net.link(link).tx_time_secs(size_bits);
        if self.cfg.saturation_penalty > 0.0 {
            // CSMA saturation rolloff (see SimConfig::saturation_penalty):
            // collisions and back-off waste airtime once the domain's
            // offered load exceeds what it can carry. The domain sum is
            // precomputed per control tick (`domain_penalty`) — its inputs
            // only change there.
            let y: f64 = self.domain_penalty[l];
            // Tolerance band: a controlled flow rides y ≈ 1 − δ (exactly
            // 1.0 when δ = 0) with measurement jitter; only *persistent*
            // overdrive pays (the penalty demand is slow-smoothed).
            if y > 1.1 {
                let base = duration;
                duration *= 1.0 + self.cfg.saturation_penalty * (y - 1.1);
                self.etel.mac_penalty_frames.inc();
                self.etel.mac_penalty_airtime_us.add(((duration - base) * 1e6) as u64);
            }
        }
        if let Some(tr) = self.trace.as_mut() {
            let pkt = self.slab.get(id);
            tr.push(TraceEvent::TxStart {
                t: self.now,
                link: self.link_gids[link.index()],
                flow: self.flow_gids[pkt.flow],
                seq: pkt.header.seq,
                bits: pkt.size_bits,
            });
        }
        self.busy[l] = Some(id);
        set_bit(&mut self.busy_words, l);
        self.last_start[l] = self.now;
        self.events.push(self.now + duration, Event::TxEnd { link });
    }

    fn tx_end(&mut self, link: LinkId) {
        let l = link.index();
        // A stale TxEnd: the frame that was on the air got dropped when its
        // link (or an endpoint node) went down mid-transmission.
        let Some(id) = self.busy[l].take() else {
            return;
        };
        clear_bit(&mut self.busy_words, l);
        if let Some(tr) = self.trace.as_mut() {
            let pkt = self.slab.get(id);
            tr.push(TraceEvent::TxEnd {
                t: self.now,
                link: self.link_gids[link.index()],
                flow: self.flow_gids[pkt.flow],
                seq: pkt.header.seq,
            });
        }
        self.receive(link, id);
        // Give the freed medium to the longest-waiting backlogged contender
        // (round-robin-fair CSMA without collisions), then everyone else
        // that still fits. Candidates are pre-filtered to the *eligible*
        // domain members (backlogged ∧ alive ∧ idle) by word AND — links
        // the filter skips could never have started or counted a deferral
        // (their status cannot change inside this loop), so grants and
        // deferral counts match the reference exactly.
        let mut cands = std::mem::take(&mut self.scratch_links);
        cands.clear();
        for &(wi, d) in self.domain_rows.row(link) {
            let wi = wi as usize;
            let mut m = d & self.backlog_words[wi] & self.alive_words[wi] & !self.busy_words[wi];
            while m != 0 {
                let bit = m.trailing_zeros() as usize;
                cands.push(LinkId((wi * 64 + bit) as u32));
                m &= m - 1;
            }
        }
        self.perf.bytes_not_allocated += std::mem::size_of_val(self.imap.domain(link)) as u64;
        cands.sort_by(|a, b| {
            self.last_start[a.index()].total_cmp(&self.last_start[b.index()]).then_with(|| a.cmp(b))
        });
        for &cand in &cands {
            self.try_start(cand);
        }
        self.scratch_links = cands;
    }

    fn receive(&mut self, link: LinkId, id: PacketId) {
        let node = self.net.link(link).to;
        let medium = self.net.link(link).medium;
        let flow = self.slab.get(id).flow;
        let Some(arrived_iface) = self.reg.id_of(node, medium) else {
            // The receiving interface vanished (node removal mid-run).
            self.stats[flow].dropped_in_network += 1;
            self.etel.route_errors.inc();
            self.slab.release(id);
            return;
        };
        if self.slab.get(id).header.route.is_destination(arrived_iface) {
            self.arrive_at_destination(id);
            return;
        }
        let Some(next_iface) = self.slab.get(id).header.route.next_hop_after(arrived_iface) else {
            // Mis-routed (e.g. stale route after failure): drop.
            self.stats[flow].dropped_in_network += 1;
            self.etel.route_errors.inc();
            self.slab.release(id);
            return;
        };
        let Some((nnode, nmedium)) = self.reg.iface_of(next_iface) else {
            self.stats[flow].dropped_in_network += 1;
            self.etel.route_errors.inc();
            self.slab.release(id);
            return;
        };
        let Some(next_link) = self.net.find_link(node, nnode, nmedium).map(|l| l.id) else {
            self.stats[flow].dropped_in_network += 1;
            self.etel.route_errors.inc();
            self.slab.release(id);
            return;
        };
        // Forwarding node adds its price contribution (Eq. (9)) — the
        // same stage logic the graph's `PriceStamp` node runs.
        let contribution = self.bcast_plan.price_contribution(
            &self.net,
            &self.price_states,
            &self.broadcasts,
            node.index(),
            next_link,
        );
        PriceStampNode::apply(&mut self.slab.get_mut(id).header, contribution);
        self.enqueue_link(next_link, id);
    }

    fn arrive_at_destination(&mut self, id: PacketId) {
        let (f, route, seq, price_f32, created_at) = {
            let pkt = self.slab.get(id);
            (pkt.flow, pkt.route, pkt.header.seq, pkt.header.price, pkt.created_at)
        };
        self.slab.release(id);
        let price = price_f32 as f64;
        let delay = self.now - created_at;
        // Stale route index (route set shrank mid-flight): the equalizer
        // and reorder state below it no longer have this route's slot.
        if route >= self.flows[f].spec.routes.len() {
            self.stats[f].dropped_in_network += 1;
            self.etel.route_errors.inc();
            return;
        }
        let hold = self.flows[f].dp.arrival_hold(route, delay);
        if hold > 1e-9 {
            // The f32 price round-trips losslessly through the event.
            self.events.push(
                self.now + hold,
                Event::Release {
                    flow: f as u32,
                    route: route as u16,
                    seq,
                    price: price_f32,
                    created_at,
                },
            );
            return;
        }
        self.deliver_to_reorder(f, route, seq, price, created_at);
    }

    fn deliver_to_reorder(
        &mut self,
        f: usize,
        route: usize,
        seq: u32,
        price: f64,
        created_at: f64,
    ) {
        // A packet (or delay-equalizer release) launched before a route
        // replacement shrank the flow's route set: its route index no
        // longer exists in the per-route receiver state. Count it as lost
        // in the transient rather than indexing out of bounds.
        if route >= self.flows[f].spec.routes.len() {
            self.stats[f].dropped_in_network += 1;
            self.etel.route_errors.inc();
            return;
        }
        // End-to-end latency sample: source emission to (pre-reorder)
        // arrival at the destination stack, including any delay-equalizer
        // hold that brought us here.
        let delay = self.now - created_at;
        let st = &mut self.stats[f];
        st.delay_sum_secs += delay;
        st.delay_samples += 1;
        if delay > st.delay_max_secs {
            st.delay_max_secs = delay;
        }
        let mut events = std::mem::take(&mut self.scratch_reorder);
        events.clear();
        // The graph's `Reorder` stage: price observation, the all-routes
        // loss rule, delivery counting for the paced ACKs.
        let delivered_now = self.flows[f].dp.accept(route, seq, price, &mut events);
        if !events.is_empty() {
            self.etel.reorder_flushes.inc();
            self.perf.bytes_not_allocated +=
                (events.len() * std::mem::size_of::<ReorderEvent>()) as u64;
        }
        let mut tcp_acks = std::mem::take(&mut self.scratch_acks);
        tcp_acks.clear();
        for ev in &events {
            match *ev {
                ReorderEvent::Deliver(s) => {
                    if let Some(tr) = self.trace.as_mut() {
                        tr.push(TraceEvent::Deliver {
                            t: self.now,
                            flow: self.flow_gids[f],
                            seq: s,
                        });
                    }
                    if let Some(tcp) = self.flows[f].tcp.as_mut() {
                        if let Some(ts) = tcp.wire_to_tcp.remove(&s) {
                            tcp_acks.push(tcp.receiver.on_segment(ts));
                        }
                    }
                }
                ReorderEvent::Lost(s) => {
                    if let Some(tr) = self.trace.as_mut() {
                        tr.push(TraceEvent::DeclaredLost {
                            t: self.now,
                            flow: self.flow_gids[f],
                            seq: s,
                        });
                    }
                    self.stats[f].declared_lost += 1;
                    self.etel.loss_rule_firings.inc();
                }
            }
        }
        if delivered_now > 0 {
            self.etel.reorder_delivered.add(delivered_now);
            let bits = delivered_now * self.cfg.frame_bits;
            self.stats[f].delivered_bits += bits;
            let bucket = self.now as usize;
            let series = &mut self.stats[f].throughput_series;
            if series.len() <= bucket {
                series.resize(bucket + 1, 0.0);
            }
            series[bucket] += bits as f64 / 1e6;
            self.flows[f].file_frames_delivered += delivered_now;
            self.check_file_completion(f);
        }
        if let Some(tcp) = self.flows[f].tcp.as_ref() {
            let ack_delay = tcp.ack_delay;
            if !tcp_acks.is_empty() {
                self.perf.bytes_not_allocated +=
                    (tcp_acks.len() * std::mem::size_of::<u32>()) as u64;
            }
            for &ack in &tcp_acks {
                self.events.push(
                    self.now + ack_delay,
                    Event::TcpAckArrival { flow: f as u32, ack_seq: ack, dup: false },
                );
            }
        }
        self.scratch_reorder = events;
        self.scratch_acks = tcp_acks;
    }

    fn check_file_completion(&mut self, f: usize) {
        let Some(goal) = self.flows[f].current_file_frames else {
            return;
        };
        if self.flows[f].file_frames_delivered < goal {
            return;
        }
        let took = self.now - self.flows[f].file_began_at;
        self.stats[f].completions.push(took);
        self.etel.tele.event(
            "sim",
            "file_complete",
            &[("flow", self.flow_gids[f].into()), ("secs", took.into())],
        );
        match self.flows[f].spec.pattern {
            TrafficPattern::PoissonFiles { size_bytes, .. } => {
                if let Some(ready) = self.flows[f].pending_files.pop_front() {
                    let begin_in = (ready - self.now).max(0.0);
                    // Sequential downloads: the next file begins when it is
                    // both ready and the previous one is done. In-flight
                    // frames of the old file carry over.
                    let frames = (size_bytes * 8).div_ceil(self.cfg.frame_bits);
                    let excess = self.flows[f].file_frames_delivered - goal;
                    let fl = &mut self.flows[f];
                    fl.current_file_frames = Some(frames);
                    fl.file_frames_delivered = excess;
                    fl.file_began_at = self.now + begin_in;
                    fl.emission_not_before = self.now + begin_in;
                    self.schedule_emit(f, begin_in);
                } else {
                    self.flow_stop(f);
                    self.flows[f].current_file_frames = None;
                }
            }
            _ => {
                self.flow_stop(f);
                self.flows[f].current_file_frames = None;
            }
        }
    }

    // ------------------------------------------------------------------
    // Control plane
    // ------------------------------------------------------------------

    fn control_tick(&mut self) {
        let slot = self.cfg.slot_secs;
        // 1. Per-link airtime-demand measurement over the last slot, with
        //    optional capacity-estimation error.
        for l in 0..self.net.link_count() {
            let link = self.net.link(LinkId(l as u32));
            let demand = if link.is_alive() {
                self.demand_bits[l] / (link.capacity_mbps * 1e6 * slot)
            } else if self.demand_bits[l] > 0.0 {
                // Traffic offered to a dead link: the capacity estimator
                // notices within ~100 ms (§6.1), and a zero-capacity link
                // under any load is infinitely oversubscribed. Report a
                // mildly saturated demand: enough for prices to drain the
                // route, small enough that γ unwinds quickly on recovery
                // (the γ update (8) decays at most α per slot).
                1.2
            } else {
                0.0
            };
            let noisy = if self.cfg.estimation_rel_std > 0.0 {
                demand * normal(&mut self.link_rngs[l], 1.0, self.cfg.estimation_rel_std).max(0.05)
            } else {
                demand
            };
            let smoothed =
                self.cfg.demand_ewma * noisy + (1.0 - self.cfg.demand_ewma) * self.last_demand[l];
            let owner = link.from;
            self.price_states[owner.index()].set_demand(LinkId(l as u32), smoothed);
            self.last_demand[l] = smoothed;
            self.penalty_demand[l] = 0.05 * noisy + 0.95 * self.penalty_demand[l];
            self.demand_bits[l] = 0.0;
        }
        // Per-domain saturation-penalty sums for the coming slot: one pass
        // here instead of a domain walk on every frame start.
        if self.cfg.saturation_penalty > 0.0 {
            for l in 0..self.net.link_count() {
                let y: f64 = self
                    .imap
                    .domain(LinkId(l as u32))
                    .iter()
                    .map(|&i| self.penalty_demand[i.index()])
                    .sum();
                self.domain_penalty[l] = y;
            }
        }
        // 2. TCP piggyback (§6.4): destinations of active TCP flows flag
        //    themselves; the flag rides on their price broadcasts and
        //    tightens the airtime budget across their contention domains.
        let mut tcp_nodes = std::mem::take(&mut self.scratch_tcp_nodes);
        tcp_nodes.clear();
        tcp_nodes.resize(self.net.node_count(), false);
        self.perf.bytes_not_allocated += self.net.node_count() as u64;
        for fl in &self.flows {
            if fl.active && fl.spec.pattern.is_tcp() {
                tcp_nodes[fl.spec.dst.index()] = true;
            }
        }
        for s in self.price_states.iter_mut() {
            s.set_tcp_receiver(tcp_nodes[s.node().index()]);
        }
        self.scratch_tcp_nodes = tcp_nodes;
        // 3. Broadcast, overhear, update duals.
        let mut bcast = std::mem::take(&mut self.scratch_broadcasts);
        bcast.clear();
        for s in &self.price_states {
            s.make_broadcasts_into(&self.net, &mut bcast);
        }
        self.perf.bytes_not_allocated +=
            (bcast.len() * std::mem::size_of::<PriceBroadcast>()) as u64;
        let alpha = self.cfg.cc.alpha;
        let delta = self.cfg.delta;
        let delta_tcp = self.cfg.tcp_delta.max(delta);
        let margin_violations = self.bcast_plan.update_gammas_with_tcp_margin(
            &mut self.price_states,
            &bcast,
            alpha,
            delta,
            delta_tcp,
        );
        self.scratch_broadcasts = bcast;
        self.etel.ctrl_ticks.inc();
        self.etel.cc_price_updates.add(self.net.link_count() as u64);
        self.etel.cc_margin_violations.add(margin_violations as u64);
        // 3. Fresh broadcasts carry the updated γ sums for the coming slot.
        self.broadcasts.clear();
        for s in &self.price_states {
            s.make_broadcasts_into(&self.net, &mut self.broadcasts);
        }
        self.perf.bytes_not_allocated +=
            (self.broadcasts.len() * std::mem::size_of::<PriceBroadcast>()) as u64;
        // 4. ACKs and controller steps.
        for f in 0..self.flows.len() {
            if self.flows[f].controller.is_none() {
                continue;
            }
            let ack = self.flows[f].dp.maybe_ack(self.now);
            if ack.is_some() {
                self.flows[f].acks_sent.inc();
            }
            let rates = match ack {
                Some(a) => {
                    let Some(controller) = self.flows[f].controller.as_mut() else { continue };
                    controller.on_ack(&a.route_prices)
                }
                None => {
                    let routes = self.flows[f].spec.routes.len();
                    self.scratch_prices.clear();
                    self.scratch_prices.resize(routes, None);
                    self.perf.bytes_not_allocated +=
                        (routes * std::mem::size_of::<Option<f64>>()) as u64;
                    let prices = &self.scratch_prices;
                    let Some(controller) = self.flows[f].controller.as_mut() else { continue };
                    controller.on_ack(prices)
                }
            };
            // The controller's fresh rate vector is moved into the control
            // message (no extra allocation) and applied at the tick.
            self.flows[f].dp.post(CtrlMsg::SetRates(rates.per_route));
            self.flows[f].dp.tick();
        }
        // 5. Once per second: sample injected rates.
        let per_sec = (1.0 / slot).round() as u64;
        if self.ticks.is_multiple_of(per_sec) {
            for f in 0..self.flows.len() {
                let active = self.flows[f].active;
                let fl = &self.flows[f];
                let rates: &[f64] = match fl.controller.as_ref() {
                    Some(c) => c.rates(),
                    None => &fl.spec.open_loop_rates,
                };
                self.perf.bytes_not_allocated += std::mem::size_of_val(rates) as u64;
                let series = &mut self.stats[f].rate_series;
                if series.is_empty() {
                    *series = vec![Vec::new(); rates.len()];
                }
                for (r, &x) in rates.iter().enumerate() {
                    series[r].push(if active { x } else { 0.0 });
                }
            }
        }
        self.ticks += 1;
        // The control-tick chain runs to the caller's horizon uncondition-
        // ally (`run_until` stops it). An idle-detection early exit used to
        // stop the chain once every flow had drained, but the tick count —
        // and with it γ decay and the rate-series length — then depended on
        // *global* drain state, which a sharded run (DESIGN.md §13) cannot
        // reproduce per shard. Idle ticks are cheap; determinism across
        // shard counts is not.
        self.events.push(self.now + slot, Event::ControlTick);
    }

    fn link_change(&mut self, link: LinkId, capacity_mbps: f64) {
        self.etel.tele.event(
            "sim",
            "link_change",
            &[
                ("link", self.link_gids[link.index()].into()),
                ("capacity_mbps", capacity_mbps.into()),
            ],
        );
        // An explicit capacity change overrides whatever a node crash saved.
        self.crash_saved[link.index()] = None;
        self.apply_capacity(link, capacity_mbps);
    }

    /// Sets a link's capacity mid-run, handling the death/revival edges:
    /// queued and in-flight frames on a dying link are dropped, a reviving
    /// link gets its stale γ dual forgotten so prices restart from fresh
    /// measurements instead of unwinding at α per slot.
    fn apply_capacity(&mut self, link: LinkId, capacity_mbps: f64) {
        if let Some(tr) = self.trace.as_mut() {
            tr.push(TraceEvent::LinkChange {
                t: self.now,
                link: self.link_gids[link.index()],
                capacity_mbps,
            });
        }
        let was_alive = self.net.link(link).is_alive();
        self.net.set_capacity(link, capacity_mbps);
        let l = link.index();
        let alive_now = self.net.link(link).is_alive();
        if alive_now {
            set_bit(&mut self.alive_words, l);
        } else {
            clear_bit(&mut self.alive_words, l);
        }
        if !alive_now {
            // Queued frames on a dead link are lost, and so is the frame on
            // the air (its TxEnd event goes stale and is ignored).
            let in_flight = self.busy[l].take();
            if in_flight.is_some() {
                clear_bit(&mut self.busy_words, l);
            }
            let freed_medium = in_flight.is_some();
            let lost = self.queues[l].len() + usize::from(freed_medium);
            self.perf.bytes_not_allocated += (lost * std::mem::size_of::<SimPacket>()) as u64;
            while let Some(id) = self.queues[l].pop_front() {
                self.drop_dead(id);
            }
            clear_bit(&mut self.backlog_words, l);
            if let Some(id) = in_flight {
                self.drop_dead(id);
            }
            if freed_medium {
                // The aborted transmission freed its contention domain.
                let mut cands = std::mem::take(&mut self.scratch_links);
                cands.clear();
                cands.extend_from_slice(self.imap.domain(link));
                self.perf.bytes_not_allocated +=
                    (cands.len() * std::mem::size_of::<LinkId>()) as u64;
                for &cand in &cands {
                    self.try_start(cand);
                }
                self.scratch_links = cands;
            }
        } else {
            if !was_alive {
                // Topology change: the γ this link's owner learned while it
                // was dead (demand-starved or drain-priced) is stale.
                let owner = self.net.link(link).from;
                self.price_states[owner.index()].reset_gamma(link);
            }
            self.try_start(link);
        }
        // Route-capacity clamps in controllers are intentionally NOT
        // updated: the controller adapts through prices, as in the paper
        // (routes are only recomputed on failures, by the caller).
    }

    /// Drops one slab-held frame that died with its link: stats, telemetry,
    /// trace, then the slot goes back to the free list.
    fn drop_dead(&mut self, id: PacketId) {
        let (flow, seq) = {
            let pkt = self.slab.get(id);
            (pkt.flow, pkt.header.seq)
        };
        self.stats[flow].dropped_in_network += 1;
        self.etel.drops_dead_link.inc();
        if let Some(tr) = self.trace.as_mut() {
            tr.push(TraceEvent::Drop {
                t: self.now,
                flow: self.flow_gids[flow],
                seq,
                where_: DropSite::DeadLink,
            });
        }
        self.slab.release(id);
    }

    fn node_change(&mut self, node: NodeId, up: bool) {
        self.etel.tele.event(
            "sim",
            "node_change",
            &[("node", node.index().into()), ("up", up.into())],
        );
        let adjacent: Vec<LinkId> = self
            .net
            .links()
            .iter()
            .filter(|lk| lk.from == node || lk.to == node)
            .map(|lk| lk.id)
            .collect();
        for link in adjacent {
            let l = link.index();
            if up {
                if let Some(cap) = self.crash_saved[l].take() {
                    self.apply_capacity(link, cap);
                }
            } else {
                if self.net.link(link).is_alive() && self.crash_saved[l].is_none() {
                    self.crash_saved[l] = Some(self.net.link(link).capacity_mbps);
                }
                self.apply_capacity(link, 0.0);
            }
        }
    }

    // ------------------------------------------------------------------
    // TCP
    // ------------------------------------------------------------------

    fn tcp_pump(&mut self, f: usize) {
        if !self.flows[f].active {
            return;
        }
        loop {
            let Some(tcp) = self.flows[f].tcp.as_mut() else { return };
            let Some((tcp_seq, is_retx)) = tcp.sender.next_to_send() else {
                break;
            };
            tcp.sender.on_sent(tcp_seq, self.now, is_retx);
            // Into the source queue; the drain loop paces admission. A full
            // queue is the §6.4 drop TCP perceives as congestion.
            if self.flows[f].tcp_backlog.len() >= 64 {
                self.stats[f].dropped_at_source += 1;
                self.etel.drops_source.inc();
            } else {
                self.flows[f].tcp_backlog.push_back(tcp_seq);
            }
        }
        self.tcp_drain(f);
        self.tcp_arm_rto(f);
    }

    /// Drains the TCP source queue at the admitted rate.
    fn tcp_drain(&mut self, f: usize) {
        if self.flows[f].tcp_backlog.is_empty() || !self.flows[f].active {
            return;
        }
        let bits = self.cfg.frame_bits;
        if self.flows[f].spec.use_cc {
            let outcome = self.flows[f].dp.admit(
                &mut self.dp_pool,
                &mut self.flow_rngs[f],
                self.now,
                bits,
                &mut self.dp_out,
            );
            match outcome {
                AdmitOutcome::Dropped => {
                    // No tokens yet: retry after roughly one frame time at
                    // the admitted rate; the segment stays queued.
                }
                AdmitOutcome::Admitted { pkt, route } => {
                    if let Some(tcp_seq) = self.flows[f].tcp_backlog.pop_front() {
                        self.send_admitted(f, pkt, route, PacketKind::TcpData, Some(tcp_seq));
                    } else {
                        self.dp_pool.release(pkt);
                    }
                }
            }
        } else {
            // Open loop: pin route 0 without consuming tokens or RNG draws.
            if let Some(tcp_seq) = self.flows[f].tcp_backlog.pop_front() {
                let pkt = self.flows[f].dp.admit_direct(&mut self.dp_pool, self.now, bits, 0);
                self.send_admitted(f, pkt, 0, PacketKind::TcpData, Some(tcp_seq));
            }
        }
        if !self.flows[f].tcp_backlog.is_empty() {
            let rate = self.flows[f].dp.total_rate().max(1.0);
            let interval = bits as f64 / 1e6 / rate;
            self.schedule_emit(f, interval);
        }
    }

    fn tcp_arm_rto(&mut self, f: usize) {
        let Some(tcp) = self.flows[f].tcp.as_mut() else { return };
        if tcp.rto_check_at.is_none() {
            let at = self.now + tcp.sender.rto();
            tcp.rto_check_at = Some(at);
            self.events.push(at, Event::TcpRtoCheck { flow: f as u32 });
        }
    }

    fn tcp_ack(&mut self, f: usize, ack_seq: u32) {
        {
            let Some(tcp) = self.flows[f].tcp.as_mut() else { return };
            tcp.sender.on_ack(ack_seq, self.now);
            if tcp.sender.done() {
                let elapsed = self.now - self.stats[f].started_at;
                self.stats[f].completions.push(elapsed);
                self.flow_stop(f);
                return;
            }
        }
        self.tcp_pump(f);
    }

    fn tcp_rto_check(&mut self, f: usize) {
        let active = self.flows[f].active;
        let retransmit = {
            let Some(tcp) = self.flows[f].tcp.as_mut() else { return };
            tcp.rto_check_at = None;
            if !active {
                return;
            }
            match tcp.sender.on_rto_check(self.now) {
                Some(next) => {
                    tcp.rto_check_at = Some(next);
                    true
                }
                None => false,
            }
        };
        if retransmit {
            let at = self.flows[f].tcp.as_ref().and_then(|t| t.rto_check_at);
            if let Some(at) = at {
                self.events.push(at, Event::TcpRtoCheck { flow: f as u32 });
            }
            self.tcp_pump(f);
        }
    }
}

/// Read-only diagnostic view over a [`Simulation`], obtained via
/// [`Simulation::inspect`]. Borrows the engine immutably, so nothing
/// observed here can perturb a run.
pub struct SimInspector<'a> {
    sim: &'a Simulation,
}

impl SimInspector<'_> {
    /// The worst per-domain airtime demand observed at the last control
    /// tick, with the link whose domain it is.
    pub fn worst_domain(&self) -> (f64, LinkId) {
        let mut worst = (0.0, LinkId(0));
        for l in 0..self.sim.net.link_count() {
            let y: f64 = self
                .sim
                .imap
                .domain(LinkId(l as u32))
                .iter()
                .map(|&i| self.sim.last_demand[i.index()])
                .sum();
            if y > worst.0 {
                worst = (y, LinkId(l as u32));
            }
        }
        worst
    }

    /// Last tick's airtime demand of one link.
    pub fn link_demand(&self, link: LinkId) -> f64 {
        self.sim.last_demand[link.index()]
    }

    /// The route prices a flow's controller currently believes.
    pub fn flow_prices(&self, flow: usize) -> Option<Vec<f64>> {
        self.sim.flows[flow].controller.as_ref().map(|c| c.believed_prices().to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceModel, Path, SharedMedium};

    fn fig1_sim() -> (Simulation, Vec<Path>) {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let route1 = Path::new(&s.net, vec![s.plc_ab, s.wifi_bc]).unwrap();
        let route2 = Path::new(&s.net, vec![s.wifi_ab, s.wifi_bc]).unwrap();
        let sim = Simulation::new(s.net, imap, SimConfig::default());
        (sim, vec![route1, route2])
    }

    /// Every sparse MAC row is exactly the non-zero words of the dense
    /// `domain_words` row, in ascending word order, under both
    /// interference models; the campus rows must actually drop zero words.
    #[test]
    fn sparse_rows_are_the_nonzero_domain_words() {
        use empower_model::rng::{SeedableRng, StdRng};
        use empower_model::topology::campus::{campus, CampusConfig};
        use empower_model::topology::testbed22;
        use empower_model::CarrierSense;

        let nets = [
            testbed22(3).net,
            campus(&mut StdRng::seed_from_u64(42), &CampusConfig::new(2, 5, 9)).net,
        ];
        let models: [&dyn InterferenceModel; 2] = [&CarrierSense::default(), &SharedMedium];
        let mut skipped = 0;
        for net in &nets {
            for model in models {
                let imap = InterferenceMap::build(net, model);
                let rows = SparseRows::new(&imap);
                for l in 0..imap.link_count() {
                    let link = LinkId(l as u32);
                    let dense = imap.domain_words(link);
                    let expect: Vec<(u32, u64)> = dense
                        .iter()
                        .enumerate()
                        .filter(|(_, &w)| w != 0)
                        .map(|(wi, &w)| (wi as u32, w))
                        .collect();
                    assert_eq!(rows.row(link), &expect[..], "link {l}");
                    assert!(rows.row(link).windows(2).all(|p| p[0].0 < p[1].0));
                    skipped += dense.len() - expect.len();
                }
            }
        }
        assert!(skipped > 0, "no row had a zero word to skip");
    }

    #[test]
    fn empower_flow_reaches_the_multipath_optimum() {
        let (mut sim, routes) = fig1_sim();
        let src = routes[0].source(sim.network());
        let dst = routes[0].destination(sim.network());
        sim.add_flow(FlowSpecSim::saturated(src, dst, routes, 300.0));
        let report = sim.run(300.0);
        let t = report.final_throughput(0, 10);
        // Paper optimum: 16.67 Mbps. The packet sim pays real queueing and
        // slot granularity; expect within ~10 %.
        assert!(t > 15.0 && t < 17.5, "throughput {t}");
    }

    #[test]
    fn single_route_flow_saturates_the_path() {
        let (mut sim, routes) = fig1_sim();
        let src = routes[0].source(sim.network());
        let dst = routes[0].destination(sim.network());
        sim.add_flow(FlowSpecSim::saturated(src, dst, vec![routes[0].clone()], 60.0));
        let report = sim.run(60.0);
        let t = report.final_throughput(0, 10);
        assert!(t > 8.5 && t < 10.5, "throughput {t}"); // R(P) = 10
    }

    #[test]
    fn open_loop_overload_collapses() {
        // Drive the 2-hop WiFi route at 3× capacity without CC: goodput
        // lands well below the 10 Mbps a paced source would get.
        let (mut sim, routes) = fig1_sim();
        let src = routes[1].source(sim.network());
        let dst = routes[1].destination(sim.network());
        sim.add_flow(FlowSpecSim {
            src,
            dst,
            routes: vec![routes[1].clone()],
            use_cc: false,
            open_loop_rates: vec![30.0],
            pattern: TrafficPattern::SaturatedUdp { start: 0.0, stop: 60.0 },
            delay_equalization: false,
        });
        let report = sim.run(60.0);
        let t = report.final_throughput(0, 10);
        // The frame-fair MAC caps goodput at the path capacity; the damage
        // of over-driving shows as sustained queue drops (and, with
        // contending flows, wasted shared airtime).
        assert!(t < 10.8, "goodput {t} cannot exceed R(P)");
        assert!(report.flows[0].dropped_in_network > 1000, "sustained queue drops");
    }

    #[test]
    fn file_download_completes_and_records_duration() {
        let (mut sim, routes) = fig1_sim();
        let src = routes[0].source(sim.network());
        let dst = routes[0].destination(sim.network());
        sim.add_flow(FlowSpecSim {
            src,
            dst,
            routes,
            use_cc: true,
            open_loop_rates: Vec::new(),
            // 5 MB at ~16 Mbps ≈ 2.5 s + ramp.
            pattern: TrafficPattern::FileDownload { start: 0.0, size_bytes: 5_000_000 },
            delay_equalization: false,
        });
        let report = sim.run(120.0);
        assert_eq!(report.flows[0].completions.len(), 1);
        let dur = report.flows[0].completions[0];
        assert!(dur > 2.0 && dur < 60.0, "duration {dur}");
    }

    #[test]
    fn two_contending_flows_share_the_wifi_medium() {
        // Flow A on the 1-hop WiFi a→b link, flow B on the 1-hop WiFi b→c
        // link: same domain, so rates must sum to ≲ the Lemma-1 region.
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let wifi_ab = Path::new(&s.net, vec![s.wifi_ab]).unwrap();
        let wifi_bc = Path::new(&s.net, vec![s.wifi_bc]).unwrap();
        let mut sim = Simulation::new(s.net, imap, SimConfig::default());
        let a_src = s.gateway;
        let a_dst = s.extender;
        sim.add_flow(FlowSpecSim::saturated(a_src, a_dst, vec![wifi_ab], 120.0));
        sim.add_flow(FlowSpecSim::saturated(s.extender, s.client, vec![wifi_bc], 120.0));
        let report = sim.run(120.0);
        let ta = report.final_throughput(0, 10);
        let tb = report.final_throughput(1, 10);
        // Airtime feasibility: ta/15 + tb/30 ≤ 1 (+ tolerance).
        assert!(ta / 15.0 + tb / 30.0 < 1.08, "ta {ta} tb {tb}");
        assert!(ta > 3.0 && tb > 3.0, "both make progress: {ta}, {tb}");
    }

    #[test]
    fn link_failure_kills_the_route_traffic() {
        let (mut sim, routes) = fig1_sim();
        let src = routes[0].source(sim.network());
        let dst = routes[0].destination(sim.network());
        let plc_link = routes[0].links()[0];
        sim.add_flow(FlowSpecSim::saturated(src, dst, vec![routes[0].clone()], 60.0));
        sim.schedule_link_change(30.0, plc_link, 0.0);
        let report = sim.run(60.0);
        let before = report.flows[0].mean_throughput(20, 29);
        let after = report.flows[0].mean_throughput(40, 59);
        assert!(before > 8.0, "before {before}");
        assert!(after < 0.5, "after {after}");
    }

    #[test]
    fn tcp_transfers_over_empower() {
        let (mut sim, routes) = fig1_sim();
        let src = routes[0].source(sim.network());
        let dst = routes[0].destination(sim.network());
        sim.add_flow(FlowSpecSim {
            src,
            dst,
            routes,
            use_cc: true,
            open_loop_rates: Vec::new(),
            pattern: TrafficPattern::Tcp { start: 0.0, stop: 120.0, size_bytes: 0 },
            delay_equalization: true,
        });
        let report = sim.run(120.0);
        let t = report.final_throughput(0, 20);
        assert!(t > 8.0, "TCP throughput {t}");
        // TCP over two routes beats the best single route (10 Mbps)...
        assert!(t > 10.0, "multipath TCP gain: {t}");
    }

    #[test]
    fn external_interference_is_respected_not_squeezed() {
        // §4.3: "except during a short transition phase, non-EMPoWER
        // clients are not affected by EMPoWER clients". An external node
        // half-loads the WiFi a→b link; the EMPoWER flow must leave that
        // traffic intact and fill only the residual region.
        let (mut sim, routes) = fig1_sim();
        let src = routes[0].source(sim.network());
        let dst = routes[0].destination(sim.network());
        let wifi_ab = routes[1].links()[0];
        let ext = FlowSpecSim::external(sim.network(), wifi_ab, 7.5, 0.0, 300.0);
        let ext_idx = sim.add_flow(ext);
        sim.add_flow(FlowSpecSim::saturated(src, dst, routes, 300.0));
        let report = sim.run(300.0);
        let ext_thpt = report.final_throughput(ext_idx, 30);
        // The external source keeps (almost) its full 7.5 Mbps.
        assert!(ext_thpt > 7.0, "external throughput {ext_thpt}");
        // And the EMPoWER flow still exploits the residual WiFi airtime
        // on top of the PLC route (strictly more than PLC-only, strictly
        // less than the uncontended 16.7 optimum).
        let emp = report.final_throughput(1, 10);
        assert!(emp > 10.5, "EMPoWER should still use residual WiFi: {emp}");
        assert!(emp < 15.0, "but cannot take what the external node holds: {emp}");
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (mut sim, routes) = fig1_sim();
            let src = routes[0].source(sim.network());
            let dst = routes[0].destination(sim.network());
            sim.add_flow(FlowSpecSim::saturated(src, dst, routes, 30.0));
            let r = sim.run(30.0);
            (r.flows[0].delivered_bits, r.flows[0].sent_frames)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mac_never_violates_interference() {
        // White-box check: during a busy run, at no point are two
        // interfering links on the air together. We verify post-hoc via the
        // invariant embedded in try_start by running with debug assertions
        // and asserting global progress.
        let (mut sim, routes) = fig1_sim();
        let src = routes[0].source(sim.network());
        let dst = routes[0].destination(sim.network());
        sim.add_flow(FlowSpecSim::saturated(src, dst, routes, 20.0));
        let report = sim.run(20.0);
        assert!(report.flows[0].delivered_bits > 0);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::trace::{Trace, TraceEvent};
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceModel, Path, SharedMedium};

    #[test]
    fn trace_records_the_life_of_a_flow() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let route1 = Path::new(&s.net, vec![s.plc_ab, s.wifi_bc]).unwrap();
        let mut sim = Simulation::new(s.net, imap, SimConfig::default());
        sim.add_flow(FlowSpecSim::saturated(s.gateway, s.client, vec![route1], 10.0));
        sim.attach_trace(Trace::bounded(50_000));
        let report = sim.run(10.0);
        let trace = sim.take_trace().expect("trace attached");
        let events = trace.events();
        assert!(!events.is_empty());
        // Conservation: every Deliver seq was first seen in a TxStart.
        let started: std::collections::HashSet<u32> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TxStart { seq, .. } => Some(*seq),
                _ => None,
            })
            .collect();
        let mut delivered = 0u64;
        for e in events {
            if let TraceEvent::Deliver { seq, .. } = e {
                assert!(started.contains(seq), "delivered seq {seq} never transmitted");
                delivered += 1;
            }
        }
        let frames = report.flows[0].delivered_bits / SimConfig::default().frame_bits;
        assert_eq!(delivered, frames, "trace deliveries match stats");
    }

    #[test]
    fn trace_airtime_respects_wall_clock() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let route2 = Path::new(&s.net, vec![s.wifi_ab, s.wifi_bc]).unwrap();
        let wifi_ab = s.wifi_ab;
        let mut sim = Simulation::new(s.net, imap, SimConfig::default());
        sim.add_flow(FlowSpecSim::saturated(s.gateway, s.client, vec![route2], 20.0));
        sim.attach_trace(Trace::new());
        sim.run(20.0);
        let trace = sim.take_trace().unwrap();
        let airtime = trace.airtime_on(wifi_ab);
        assert!(airtime > 0.0);
        assert!(airtime <= 20.0, "airtime {airtime} exceeds the run length");
    }
}

#[cfg(test)]
mod tcp_margin_tests {
    use super::*;
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceModel, Path, SharedMedium};

    /// §6.4: the δ = 0.3 budget applies exactly in the contention domain of
    /// a TCP receiver — UDP flows sharing that domain keep their airtime
    /// sum at ≤ 0.7, leaving TCP its headroom.
    #[test]
    fn udp_in_a_tcp_domain_respects_the_tcp_margin() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let wifi_ab = Path::new(&s.net, vec![s.wifi_ab]).unwrap();
        let wifi_bc = Path::new(&s.net, vec![s.wifi_bc]).unwrap();
        let mut sim = Simulation::new(s.net.clone(), imap.clone(), SimConfig::default());
        // UDP flow on wifi a→b; TCP flow on wifi b→c: same WiFi domain.
        let udp = sim.add_flow(FlowSpecSim::saturated(s.gateway, s.extender, vec![wifi_ab], 300.0));
        sim.add_flow(FlowSpecSim {
            src: s.extender,
            dst: s.client,
            routes: vec![wifi_bc],
            use_cc: true,
            open_loop_rates: Vec::new(),
            pattern: TrafficPattern::Tcp { start: 0.0, stop: 300.0, size_bytes: 0 },
            delay_equalization: true,
        });
        let report = sim.run(300.0);
        let t_udp = report.final_throughput(udp, 20);
        let t_tcp = report.final_throughput(1, 20);
        // Both progress, and the joint WiFi airtime honours the 0.7 budget
        // the TCP piggyback imposes on the whole domain.
        let airtime = t_udp / 15.0 + t_tcp / 30.0;
        assert!(t_udp > 2.0 && t_tcp > 2.0, "udp {t_udp}, tcp {t_tcp}");
        assert!(airtime < 0.76, "domain airtime {airtime:.2} exceeds the TCP budget");
    }

    /// Without any TCP flow the default margin applies (airtime → ~1).
    #[test]
    fn udp_alone_keeps_the_default_margin() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let wifi_ab = Path::new(&s.net, vec![s.wifi_ab]).unwrap();
        let mut sim = Simulation::new(s.net.clone(), imap, SimConfig::default());
        let udp = sim.add_flow(FlowSpecSim::saturated(s.gateway, s.extender, vec![wifi_ab], 200.0));
        let report = sim.run(200.0);
        let t_udp = report.final_throughput(udp, 20);
        assert!(t_udp > 13.0, "no TCP around: full budget, got {t_udp}");
    }
}
