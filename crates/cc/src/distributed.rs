//! The distributed embodiment of the controller (§4.2, last paragraph).
//!
//! Each node monitors the traffic it forwards and measures the airtime
//! demand `d_l · Σ_{r: l∈r} x_r` of each of its egress links. Per technology
//! `k` it periodically broadcasts **(i)** the aggregate airtime demand over
//! its egress links on `k` and **(ii)** the sum of the dual variables `γ_l`
//! of those links. Overhearing nodes combine the broadcasts with their own
//! measurements to evaluate `y_l` (Eq. (7)) for their own egress links and
//! update `γ_l` (Eq. (8)). When forwarding a packet on `l`, a node adds
//! `d_l Σ_{i∈I_l} γ_i` to a header field, so the destination reads `q_r`
//! (Eq. (9)) and echoes it to the source in an acknowledgement.
//!
//! The per-(node, technology) aggregation is *exact* when, for every link
//! `l` and every other node `u`, either all or none of `u`'s egress links on
//! `k` belong to `I_l` — true under the shared-medium model used in the
//! simulations, and the approximation the real system makes under partial
//! (carrier-sense) interference.

use empower_model::{InterferenceMap, LinkId, Medium, Network, NodeId};

/// One periodic per-technology broadcast from a node (§4.2 items (i)–(ii),
/// plus the §6.4 TCP piggyback).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriceBroadcast {
    pub from: NodeId,
    pub medium: Medium,
    /// Aggregate airtime demand `Σ d_l x_l` over the sender's egress links
    /// on `medium`.
    pub airtime_demand: f64,
    /// `Σ γ_l` over the same links.
    pub gamma_sum: f64,
    /// §6.4: "if a node receives TCP messages, it informs its neighbors by
    /// piggybacking this information in the broadcasted price messages" —
    /// everyone in its contention domain then applies the TCP-friendly
    /// constraint margin (δ = 0.3) instead of the default.
    pub tcp_receiver: bool,
}

/// Per-node price state: dual variables and measured demands for the node's
/// egress links.
#[derive(Debug, Clone)]
pub struct LinkPriceState {
    node: NodeId,
    /// True while this node receives TCP traffic (piggybacked, §6.4).
    tcp_receiver: bool,
    /// Egress links of this node.
    egress: Vec<LinkId>,
    /// γ_l per egress link (indexed like `egress`).
    gamma: Vec<f64>,
    /// Measured airtime demand `d_l x_l` per egress link.
    demand: Vec<f64>,
    /// For each egress link: which *other* nodes' broadcasts on which medium
    /// count toward its `y_l` (the overhearing set), plus whether each of
    /// this node's own egress links is in its domain.
    ///
    /// `overheard[i]` = (relevant (node, medium) pairs, own egress indexes in
    /// `I_l`).
    overheard: Vec<OverhearSet>,
}

/// For one egress link: the (node, medium) broadcasts to accumulate, plus
/// this node's own egress indexes inside the link's domain.
type OverhearSet = (Vec<(NodeId, Medium)>, Vec<usize>);

impl LinkPriceState {
    /// Builds the state for `node`, deriving the overhearing sets from the
    /// interference map.
    pub fn new(net: &Network, imap: &InterferenceMap, node: NodeId) -> Self {
        let egress: Vec<LinkId> = net.out_links(node).map(|l| l.id).collect();
        let overheard = egress
            .iter()
            .map(|&l| {
                let mut nodes: Vec<(NodeId, Medium)> = Vec::new();
                let mut own = Vec::new();
                for &i in imap.domain(l) {
                    let owner = net.link(i).from;
                    let medium = net.link(i).medium;
                    if owner == node {
                        if let Some(pos) = egress.iter().position(|&e| e == i) {
                            own.push(pos);
                        }
                    } else if !nodes.contains(&(owner, medium)) {
                        nodes.push((owner, medium));
                    }
                }
                (nodes, own)
            })
            .collect();
        LinkPriceState {
            node,
            tcp_receiver: false,
            gamma: vec![0.0; egress.len()],
            demand: vec![0.0; egress.len()],
            egress,
            overheard,
        }
    }

    /// Marks whether this node currently receives TCP traffic (§6.4). The
    /// flag rides on every outgoing price broadcast.
    pub fn set_tcp_receiver(&mut self, receiving: bool) {
        self.tcp_receiver = receiving;
    }

    /// The node this state belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Records the measured airtime demand of an egress link for the current
    /// slot (`d_l` times the traffic rate the node forwards on `l`).
    pub fn set_demand(&mut self, link: LinkId, airtime_demand: f64) {
        let i = self.index_of(link);
        self.demand[i] = airtime_demand;
    }

    /// The γ of an egress link.
    pub fn gamma(&self, link: LinkId) -> f64 {
        self.gamma[self.index_of(link)]
    }

    /// Forgets the dual of an egress link. Called on topology changes
    /// (link revival, node recovery): the γ learned under the old topology
    /// prices a world that no longer exists, and the update rule (8) can
    /// only unwind it at α per slot — resetting lets the next slots rebuild
    /// it from fresh demand measurements.
    pub fn reset_gamma(&mut self, link: LinkId) {
        let i = self.index_of(link);
        self.gamma[i] = 0.0;
    }

    /// Produces this node's per-technology broadcasts for the current slot.
    pub fn make_broadcasts(&self, net: &Network) -> Vec<PriceBroadcast> {
        let mut out = Vec::new();
        self.make_broadcasts_into(net, &mut out);
        out
    }

    /// Allocation-free variant of [`LinkPriceState::make_broadcasts`]:
    /// appends this node's broadcasts to `out`, so one reused vector can
    /// collect a whole network's worth per slot. Per-medium aggregation
    /// only merges into entries appended by *this* call — broadcasts from
    /// previously appended nodes are never touched.
    pub fn make_broadcasts_into(&self, net: &Network, out: &mut Vec<PriceBroadcast>) {
        let start = out.len();
        for (i, &l) in self.egress.iter().enumerate() {
            let medium = net.link(l).medium;
            match out[start..].iter_mut().find(|b| b.medium == medium) {
                Some(b) => {
                    b.airtime_demand += self.demand[i];
                    b.gamma_sum += self.gamma[i];
                }
                None => out.push(PriceBroadcast {
                    from: self.node,
                    medium,
                    airtime_demand: self.demand[i],
                    gamma_sum: self.gamma[i],
                    tcp_receiver: self.tcp_receiver,
                }),
            }
        }
    }

    /// One slot of Eq. (7)+(8): combines own demands with overheard
    /// broadcasts to get `y_l` for every egress link, then updates γ.
    ///
    /// `broadcasts` is everything this node overheard this slot (broadcasts
    /// from irrelevant nodes are ignored via the overhearing sets).
    pub fn update_gammas(
        &mut self,
        broadcasts: &[PriceBroadcast],
        alpha: f64,
        delta: f64,
    ) -> usize {
        self.update_gammas_with_tcp_margin(broadcasts, alpha, delta, delta)
    }

    /// Like [`LinkPriceState::update_gammas`], applying `delta_tcp` instead
    /// of `delta` on every egress link whose contention domain contains a
    /// TCP receiver (this node or an overheard broadcaster) — the §6.4
    /// coexistence rule ("only the nodes in the contention domain of a TCP
    /// flow should use this value of δ").
    ///
    /// Returns how many egress links violated their airtime margin this
    /// slot (`y_l > 1 − δ`), for the caller's telemetry.
    pub fn update_gammas_with_tcp_margin(
        &mut self,
        broadcasts: &[PriceBroadcast],
        alpha: f64,
        delta: f64,
        delta_tcp: f64,
    ) -> usize {
        let per_link: Vec<(f64, f64)> = self
            .overheard
            .iter()
            .map(|(nodes, own)| {
                let mut external = 0.0;
                let mut tcp = self.tcp_receiver;
                for b in broadcasts {
                    if nodes.contains(&(b.from, b.medium)) {
                        external += b.airtime_demand;
                        tcp |= b.tcp_receiver;
                    }
                }
                let internal: f64 = own.iter().map(|&i| self.demand[i]).sum();
                (external + internal, if tcp { delta_tcp } else { delta })
            })
            .collect();
        let mut violations = 0;
        for (g, (yl, d)) in self.gamma.iter_mut().zip(per_link) {
            *g = (*g + alpha * (yl - (1.0 - d))).max(0.0);
            if yl > 1.0 - d {
                violations += 1;
            }
        }
        violations
    }

    /// The per-hop price contribution `d_l Σ_{i∈I_l} γ_i` a node adds to the
    /// layer-2.5 header when forwarding on `link` (Eq. (9) summand).
    pub fn price_contribution(
        &self,
        net: &Network,
        broadcasts: &[PriceBroadcast],
        link: LinkId,
    ) -> f64 {
        let i = self.index_of(link);
        let (nodes, own) = &self.overheard[i];
        let external: f64 = broadcasts
            .iter()
            .filter(|b| nodes.contains(&(b.from, b.medium)))
            .map(|b| b.gamma_sum)
            .sum();
        let internal: f64 = own.iter().map(|&j| self.gamma[j]).sum();
        net.link(link).cost() * (external + internal)
    }

    fn index_of(&self, link: LinkId) -> usize {
        // empower-lint: allow(D005) — internal helper; the egress set is
        // fixed at construction and every caller passes a member of it.
        self.egress.iter().position(|&e| e == link).expect("link is an egress of this node")
    }
}

/// Precomputed index plan over the concatenated broadcast vector.
///
/// The *layout* of the broadcast vector produced by calling
/// [`LinkPriceState::make_broadcasts_into`] for a fixed slice of states in a
/// fixed order never changes during a run: it depends only on each node's
/// egress set and the links' media, neither of which topology dynamics
/// touch (dead links keep their slot with zero demand). The plan exploits
/// that to replace the per-slot `(from, medium)` membership scans — an
/// `O(egress × broadcasts × |domain nodes|)` pass per node — with direct
/// indexed sums, and to drop the per-slot scratch vector
/// [`LinkPriceState::update_gammas_with_tcp_margin`] allocates.
///
/// Every floating-point sum iterates in ascending broadcast-vector order,
/// exactly like the scanning originals, so the planned variants are
/// **bit-identical** to them (asserted in this module's tests).
#[derive(Debug, Clone)]
pub struct BroadcastPlan {
    /// Per state, per egress link: ascending indices into the broadcast
    /// vector of the `(node, medium)` entries in the link's overhearing set.
    indices: Vec<Vec<Vec<u32>>>,
    /// Per [`LinkId`] index: the link's position in its owner's egress list.
    egress_pos: Vec<u32>,
    /// Expected broadcast-vector length (for debug sanity checks).
    len: usize,
}

impl BroadcastPlan {
    /// Builds the plan for `states`, which must be the exact slice (same
    /// order) whose broadcasts are later concatenated per slot.
    pub fn new(net: &Network, states: &[LinkPriceState]) -> Self {
        // Reproduce the layout make_broadcasts_into generates: per state,
        // one entry per distinct egress medium, in first-seen order.
        // `by_node[n]` lists node `n`'s entries as (medium, layout index),
        // so building a row costs its overhearing set, not the layout.
        let mut by_node: Vec<Vec<(Medium, u32)>> = vec![Vec::new(); net.node_count()];
        let mut len = 0u32;
        for s in states {
            let entries = &mut by_node[s.node.index()];
            let start = entries.len();
            for &l in &s.egress {
                let medium = net.link(l).medium;
                if !entries[start..].iter().any(|&(m, _)| m == medium) {
                    entries.push((medium, len));
                    len += 1;
                }
            }
        }
        let indices = states
            .iter()
            .map(|s| {
                s.overheard
                    .iter()
                    .map(|(nodes, _)| {
                        let mut row: Vec<u32> = nodes
                            .iter()
                            .flat_map(|&(n, m)| {
                                by_node[n.index()]
                                    .iter()
                                    .filter(move |&&(em, _)| em == m)
                                    .map(|&(_, i)| i)
                            })
                            .collect();
                        row.sort_unstable();
                        row
                    })
                    .collect()
            })
            .collect();
        let mut egress_pos = vec![0u32; net.link_count()];
        for s in states {
            for (pos, &l) in s.egress.iter().enumerate() {
                egress_pos[l.index()] = pos as u32;
            }
        }
        BroadcastPlan { indices, egress_pos, len: len as usize }
    }

    /// Planned, allocation-free equivalent of calling
    /// [`LinkPriceState::update_gammas_with_tcp_margin`] on every state:
    /// one slot of Eq. (7)+(8) for the whole network. Returns the total
    /// airtime-margin violations, like summing the per-state calls.
    pub fn update_gammas_with_tcp_margin(
        &self,
        states: &mut [LinkPriceState],
        broadcasts: &[PriceBroadcast],
        alpha: f64,
        delta: f64,
        delta_tcp: f64,
    ) -> usize {
        debug_assert_eq!(broadcasts.len(), self.len, "broadcast layout changed under the plan");
        debug_assert_eq!(states.len(), self.indices.len());
        let mut violations = 0;
        for (s, rows) in states.iter_mut().zip(&self.indices) {
            for (i, row) in rows.iter().enumerate() {
                let mut external = 0.0;
                let mut tcp = s.tcp_receiver;
                for &bi in row {
                    let b = &broadcasts[bi as usize];
                    external += b.airtime_demand;
                    tcp |= b.tcp_receiver;
                }
                let internal: f64 = s.overheard[i].1.iter().map(|&j| s.demand[j]).sum();
                let yl = external + internal;
                let d = if tcp { delta_tcp } else { delta };
                let g = &mut s.gamma[i];
                *g = (*g + alpha * (yl - (1.0 - d))).max(0.0);
                if yl > 1.0 - d {
                    violations += 1;
                }
            }
        }
        violations
    }

    /// Planned equivalent of [`LinkPriceState::price_contribution`] for the
    /// state at `state_index` (the owner of `link`).
    pub fn price_contribution(
        &self,
        net: &Network,
        states: &[LinkPriceState],
        broadcasts: &[PriceBroadcast],
        state_index: usize,
        link: LinkId,
    ) -> f64 {
        // Empty = no slot has broadcast yet (or the scheme never does, e.g.
        // plain single-path TCP): the scanning original sums to zero there.
        debug_assert!(
            broadcasts.len() == self.len || broadcasts.is_empty(),
            "broadcast layout changed under the plan"
        );
        let s = &states[state_index];
        debug_assert_eq!(net.link(link).from, s.node, "state is not the owner of the link");
        let i = self.egress_pos[link.index()] as usize;
        let external: f64 = if broadcasts.is_empty() {
            0.0
        } else {
            self.indices[state_index][i].iter().map(|&bi| broadcasts[bi as usize].gamma_sum).sum()
        };
        let internal: f64 = s.overheard[i].1.iter().map(|&j| s.gamma[j]).sum();
        net.link(link).cost() * (external + internal)
    }
}

/// Accumulates the route price `q_r` hop by hop, as the dedicated header
/// field does on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoutePriceAccumulator {
    q: f64,
}

impl RoutePriceAccumulator {
    /// Fresh accumulator for a new packet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one hop's contribution (called by each forwarding node).
    pub fn add_hop(&mut self, contribution: f64) {
        self.q += contribution;
    }

    /// The accumulated `q_r` the destination echoes back.
    pub fn total(&self) -> f64 {
        self.q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{CcConfig, MultipathController};
    use crate::problem::CcProblem;
    use crate::utility::ProportionalFair;
    use empower_model::topology::fig1_scenario;
    use empower_model::{InterferenceModel, Path, SharedMedium};

    /// Runs the distributed machinery one slot for all nodes and returns the
    /// per-route q_r, mirroring what the packet datapath would compute.
    fn distributed_slot(
        net: &Network,
        states: &mut [LinkPriceState],
        problem: &CcProblem,
        x: &[f64],
        alpha: f64,
    ) -> Vec<f64> {
        // 1. Each node measures egress demands from the current rates.
        let link_rates = problem.link_rates(x);
        for s in states.iter_mut() {
            let node = s.node();
            let egress: Vec<LinkId> = net.out_links(node).map(|l| l.id).collect();
            for l in egress {
                s.set_demand(l, net.link(l).cost() * link_rates[l.index()]);
            }
        }
        // 2. Broadcast and overhear (perfect control channel).
        let broadcasts: Vec<PriceBroadcast> =
            states.iter().flat_map(|s| s.make_broadcasts(net)).collect();
        // 3. Dual updates.
        for s in states.iter_mut() {
            s.update_gammas(&broadcasts, alpha, 0.0);
        }
        // 4. Fresh broadcasts carry the updated γ sums; data packets
        //    forwarded during the slot accumulate prices from these.
        let broadcasts: Vec<PriceBroadcast> =
            states.iter().flat_map(|s| s.make_broadcasts(net)).collect();
        // 5. Header accumulation along each route.
        problem
            .routes
            .iter()
            .map(|path| {
                let mut acc = RoutePriceAccumulator::new();
                for &l in path.links() {
                    let owner = net.link(l).from;
                    let state = states.iter().find(|s| s.node() == owner).unwrap();
                    acc.add_hop(state.price_contribution(net, &broadcasts, l));
                }
                acc.total()
            })
            .collect()
    }

    #[test]
    fn distributed_prices_match_the_paper_formulas() {
        // Drive the distributed machinery and a direct link-indexed
        // evaluation of Eqs. (7)–(9) with the SAME rate trajectory (taken
        // from the centralized controller) and compare the per-route prices
        // q_r slot by slot.
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let route1 = Path::new(&s.net, vec![s.plc_ab, s.wifi_bc]).unwrap();
        let route2 = Path::new(&s.net, vec![s.wifi_ab, s.wifi_bc]).unwrap();
        let problem = CcProblem::new(&s.net, &imap, vec![vec![route1, route2]]);

        let mut central = MultipathController::new(&problem, ProportionalFair, CcConfig::default());
        let mut states: Vec<LinkPriceState> =
            s.net.nodes().iter().map(|n| LinkPriceState::new(&s.net, &imap, n.id)).collect();
        // Direct evaluation state: γ per link.
        let mut gamma = vec![0.0_f64; s.net.link_count()];
        let alpha = 0.02;

        for _ in 0..500 {
            let x: Vec<f64> = central.rates().to_vec();
            let q_dist = distributed_slot(&s.net, &mut states, &problem, &x, alpha);

            // Direct Eqs. (7)-(9).
            let link_rates = problem.link_rates(&x);
            let y = problem.domain_airtimes(&imap, &link_rates);
            for (g, &yl) in gamma.iter_mut().zip(&y) {
                *g = (*g + alpha * (yl - 1.0)).max(0.0);
            }
            let q_direct: Vec<f64> = problem
                .routes
                .iter()
                .map(|path| {
                    path.links()
                        .iter()
                        .map(|&l| {
                            let dg: f64 = imap.domain(l).iter().map(|&i| gamma[i.index()]).sum();
                            problem.link_costs[l.index()] * dg
                        })
                        .sum()
                })
                .collect();

            for (a, b) in q_dist.iter().zip(&q_direct) {
                assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "distributed {a} vs direct {b}");
            }
            central.step(&problem, &imap);
        }
    }

    #[test]
    fn broadcasts_aggregate_per_medium() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut state = LinkPriceState::new(&s.net, &imap, s.gateway);
        state.set_demand(s.plc_ab, 0.3);
        state.set_demand(s.wifi_ab, 0.5);
        let bs = state.make_broadcasts(&s.net);
        assert_eq!(bs.len(), 2); // one per medium
        let plc = bs.iter().find(|b| b.medium == empower_model::Medium::Plc).unwrap();
        let wifi = bs.iter().find(|b| b.medium == empower_model::Medium::WIFI1).unwrap();
        assert!((plc.airtime_demand - 0.3).abs() < 1e-12);
        assert!((wifi.airtime_demand - 0.5).abs() < 1e-12);
    }

    #[test]
    fn planned_slot_updates_are_bit_identical_to_scanning() {
        use empower_model::topology::testbed22;
        use empower_model::CarrierSense;
        // The 22-node testbed under carrier-sense interference: large,
        // irregular overhearing sets — the regime the plan is for.
        let net = testbed22(3).net;
        let imap = CarrierSense::default().build_map(&net);
        let mut scanning: Vec<LinkPriceState> =
            net.nodes().iter().map(|n| LinkPriceState::new(&net, &imap, n.id)).collect();
        let mut planned = scanning.clone();
        let plan = BroadcastPlan::new(&net, &scanning);
        // Deterministic pseudo-demands, a TCP receiver, and several slots so
        // gammas accumulate through the nonlinearity.
        for slot in 0..5u64 {
            for s in scanning.iter_mut().chain(planned.iter_mut()) {
                s.set_tcp_receiver(s.node().index() == 4);
                let egress: Vec<LinkId> = s.egress.clone();
                for (k, l) in egress.into_iter().enumerate() {
                    let d = ((slot + 1) * (k as u64 * 7 + l.index() as u64 * 13 + 1) % 97) as f64
                        / 97.0;
                    s.set_demand(l, d);
                }
            }
            let mut bcast = Vec::new();
            for s in &scanning {
                s.make_broadcasts_into(&net, &mut bcast);
            }
            let mut viol_scan = 0;
            for s in scanning.iter_mut() {
                viol_scan += s.update_gammas_with_tcp_margin(&bcast, 0.02, 0.05, 0.3);
            }
            let viol_plan =
                plan.update_gammas_with_tcp_margin(&mut planned, &bcast, 0.02, 0.05, 0.3);
            assert_eq!(viol_scan, viol_plan, "slot {slot}: violation counts diverged");
            for (a, b) in scanning.iter().zip(&planned) {
                assert_eq!(a.gamma, b.gamma, "slot {slot}: gammas diverged at node {:?}", a.node);
            }
            // Price contributions from the updated gammas, every link.
            for l in 0..net.link_count() {
                let link = LinkId(l as u32);
                let owner = net.link(link).from.index();
                let direct = scanning[owner].price_contribution(&net, &bcast, link);
                let fast = plan.price_contribution(&net, &planned, &bcast, owner, link);
                assert!(
                    direct.to_bits() == fast.to_bits(),
                    "slot {slot} link {l}: {direct} vs {fast}"
                );
            }
        }
    }

    /// The pre-linear `BroadcastPlan::new`: every overhearing set filters
    /// the whole broadcast layout. Kept as the oracle for the per-node
    /// lookup that replaced it.
    fn plan_by_layout_scan(net: &Network, states: &[LinkPriceState]) -> BroadcastPlan {
        let mut layout: Vec<(NodeId, Medium)> = Vec::new();
        for s in states {
            let start = layout.len();
            for &l in &s.egress {
                let medium = net.link(l).medium;
                if !layout[start..].iter().any(|&(_, m)| m == medium) {
                    layout.push((s.node, medium));
                }
            }
        }
        let indices = states
            .iter()
            .map(|s| {
                s.overheard
                    .iter()
                    .map(|(nodes, _)| {
                        layout
                            .iter()
                            .enumerate()
                            .filter(|(_, nm)| nodes.contains(nm))
                            .map(|(i, _)| i as u32)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut egress_pos = vec![0u32; net.link_count()];
        for s in states {
            for (pos, &l) in s.egress.iter().enumerate() {
                egress_pos[l.index()] = pos as u32;
            }
        }
        BroadcastPlan { indices, egress_pos, len: layout.len() }
    }

    #[test]
    fn linear_plan_matches_layout_scan() {
        use empower_model::rng::{SeedableRng, StdRng};
        use empower_model::shard::{extract_view, plan_shards, CouplingSpec};
        use empower_model::topology::campus::{campus, CampusConfig};
        use empower_model::topology::random::residential;
        use empower_model::topology::testbed22;
        use empower_model::CarrierSense;

        let testbed = testbed22(3).net;
        let home = residential(&mut StdRng::seed_from_u64(11)).net;
        let campus_net = campus(&mut StdRng::seed_from_u64(42), &CampusConfig::new(2, 5, 9)).net;
        assert_eq!(campus_net.node_count(), 103);
        let campus_imap = CarrierSense::default().build_map(&campus_net);
        let mut cases: Vec<(String, Network, InterferenceMap)> = vec![
            ("testbed22".into(), testbed.clone(), CarrierSense::default().build_map(&testbed)),
            ("residential".into(), home.clone(), CarrierSense::default().build_map(&home)),
            ("campus103".into(), campus_net.clone(), campus_imap.clone()),
        ];
        // The 4-shard views: restricted maps over dense local ids.
        let plan = plan_shards(&campus_net, &campus_imap, &CouplingSpec::default(), 4);
        let active = vec![true; plan.atom_count as usize];
        for shard in 0..plan.shards {
            let v = extract_view(&campus_net, &campus_imap, &plan, shard, &active);
            cases.push((format!("campus103 shard {shard}/4"), v.net, v.imap));
        }
        assert_eq!(cases.len(), 7, "the campus must split across all four shards");
        for (name, net, imap) in &cases {
            let states: Vec<LinkPriceState> =
                net.nodes().iter().map(|n| LinkPriceState::new(net, imap, n.id)).collect();
            let fast = BroadcastPlan::new(net, &states);
            let scan = plan_by_layout_scan(net, &states);
            assert!(scan.len > 0, "{name}: empty broadcast layout");
            assert_eq!(fast.indices, scan.indices, "{name}: indices");
            assert_eq!(fast.egress_pos, scan.egress_pos, "{name}: egress_pos");
            assert_eq!(fast.len, scan.len, "{name}: len");
        }
    }

    #[test]
    fn accumulator_sums_hops() {
        let mut acc = RoutePriceAccumulator::new();
        acc.add_hop(0.1);
        acc.add_hop(0.25);
        assert!((acc.total() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn gamma_stays_zero_below_capacity() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut state = LinkPriceState::new(&s.net, &imap, s.gateway);
        state.set_demand(s.wifi_ab, 0.2);
        let bs = state.make_broadcasts(&s.net);
        state.update_gammas(&bs, 0.02, 0.0);
        assert_eq!(state.gamma(s.wifi_ab), 0.0);
    }

    #[test]
    fn gamma_rises_under_overload() {
        let s = fig1_scenario();
        let imap = SharedMedium.build_map(&s.net);
        let mut state = LinkPriceState::new(&s.net, &imap, s.gateway);
        state.set_demand(s.wifi_ab, 1.5); // 150 % airtime demand
        let bs = state.make_broadcasts(&s.net);
        state.update_gammas(&bs, 0.02, 0.0);
        assert!((state.gamma(s.wifi_ab) - 0.02 * 0.5).abs() < 1e-12);
    }
}
