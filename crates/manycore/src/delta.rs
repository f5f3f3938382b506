//! Exact delta evaluation of single-move neighbors.
//!
//! Local search spends almost all of its time evaluating neighbors that
//! differ from an already-scored design by one [`crate::moves`] operator:
//! a two-tile placement swap or a single link rewire. Both perturb only a
//! small set of flows, yet [`Evaluator::evaluate`] recomputes every flow
//! walk — and, for rewires, the all-pairs Dijkstra — from scratch.
//!
//! This module keeps an [`EvalState`] per scored design: the per-flow
//! objective *terms* (latency and energy contributions), the per-link
//! flow membership lists, the power grid, and the routing table. Applying
//! a [`MoveDelta`] recomputes only the affected terms and then re-derives
//! every accumulator by summing the stored terms **in the original
//! accumulation order**, so the result is bitwise identical to a full
//! evaluation despite f64 addition being non-associative:
//!
//! * a *swap* re-walks only the flows touching the two swapped tiles and
//!   re-solves the thermal model on a two-cell power-grid patch;
//! * a *rewire* repairs the routing table incrementally
//!   ([`RoutingTable::repair_rewire`]): only sources whose shortest-path
//!   tree provably changes are re-routed, and only their flows (plus the
//!   flows of degree-changed routers, whose energy coefficient moves)
//!   are re-walked.
//!
//! The exactness argument, fallback rules, and the differential harness
//! that enforces them live in DESIGN.md §5 and
//! `crates/manycore/tests/delta_parity.rs`. Whenever a neighbor is not a
//! recognizable single move, [`DeltaEngine`] falls back to a full
//! evaluation — never to an approximation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use moela_thermal::PowerGrid;
use moela_traffic::edp::NetworkStats;
use moela_traffic::PeKind;

use crate::design::Design;
use crate::geometry::TileId;
use crate::link::Link;
use crate::objectives::{Evaluation, Evaluator};
use crate::routing::RoutingTable;

/// Default number of evaluation states kept per [`DeltaEngine`]. Hill
/// climbing needs only the current design plus the neighbor under test;
/// the slack covers multi-start descents interleaved by work stealing.
pub const DEFAULT_DELTA_CACHE_CAPACITY: usize = 32;

/// The structured difference between a design and one of its neighbors,
/// reconstructed by diffing rather than trusted from the caller — so a
/// delta is applied only when it provably reproduces the neighbor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MoveDelta {
    /// The designs are equal (a rejection-sampled move returned a clone).
    Identity,
    /// The placements differ by exactly one two-tile exchange.
    Swap {
        /// First swapped tile.
        a: TileId,
        /// Second swapped tile.
        b: TileId,
    },
    /// The topologies differ by exactly one link replacement in place.
    Rewire {
        /// Index of the replaced link.
        victim_idx: usize,
        /// The link now occupying `victim_idx`.
        new_link: Link,
    },
}

impl MoveDelta {
    /// Classifies `next` relative to `base`, returning `None` when the
    /// difference is not a single recognizable move (the caller must then
    /// evaluate `next` in full).
    pub fn between(base: &Design, next: &Design) -> Option<MoveDelta> {
        let same_topology = base.topology.links() == next.topology.links();
        let same_placement = base.placement == next.placement;
        if same_topology && same_placement {
            return Some(MoveDelta::Identity);
        }
        if same_topology {
            let old = base.placement.pe_of();
            let new = next.placement.pe_of();
            if old.len() != new.len() {
                return None;
            }
            let mut diffs = (0..old.len()).filter(|&t| old[t] != new[t]);
            let (a, b) = (diffs.next()?, diffs.next()?);
            if diffs.next().is_none() && old[a] == new[b] && old[b] == new[a] {
                return Some(MoveDelta::Swap { a: TileId(a), b: TileId(b) });
            }
            return None;
        }
        if same_placement {
            let old = base.topology.links();
            let new = next.topology.links();
            if old.len() != new.len() {
                return None;
            }
            let mut diffs = (0..old.len()).filter(|&k| old[k] != new[k]);
            let victim_idx = diffs.next()?;
            if diffs.next().is_none() {
                return Some(MoveDelta::Rewire { victim_idx, new_link: new[victim_idx] });
            }
            return None;
        }
        None
    }
}

/// The exact canonical bytes of a design (placement vector + ordered link
/// list): two designs share a key iff they are equal, so keyed state can
/// never be served for the wrong design.
pub(crate) fn design_key(s: &Design) -> Vec<u8> {
    let links = s.topology.links();
    let mut key = Vec::with_capacity(8 + 4 * (s.placement.pe_of().len() + 2 * links.len()));
    key.extend_from_slice(&(s.placement.pe_of().len() as u32).to_le_bytes());
    for &pe in s.placement.pe_of() {
        key.extend_from_slice(&(pe as u32).to_le_bytes());
    }
    key.extend_from_slice(&(links.len() as u32).to_le_bytes());
    for l in links {
        key.extend_from_slice(&(l.a().0 as u32).to_le_bytes());
        key.extend_from_slice(&(l.b().0 as u32).to_le_bytes());
    }
    key
}

/// The decomposed evaluation of one design: every term of every objective
/// accumulator, stored so that a neighbor's evaluation can patch the few
/// terms a move touches and re-sum the rest unchanged.
#[derive(Clone, Debug)]
pub struct EvalState {
    design: Design,
    table: Arc<RoutingTable>,
    /// `workload.flows()` snapshot, shared by every state of one engine.
    flows: Arc<Vec<(usize, usize, f64)>>,
    /// CPU–LLC pairs `(cpu, llc, traffic)` in eq. (3) iteration order.
    cpu_pairs: Arc<Vec<(usize, usize, f64)>>,
    /// `f · latency(src, dst)` per flow, in flow order.
    latency_terms: Vec<f64>,
    /// `f · flow_energy` per flow, in flow order.
    energy_terms: Vec<f64>,
    /// Ascending flow indices crossing each link. Re-summing a link's
    /// users in this order replays the original utilization additions.
    link_users: Vec<Vec<u32>>,
    utilization: Vec<f64>,
    link_energy: Vec<f64>,
    router_energy: Vec<f64>,
    /// `latency · traffic` per CPU–LLC pair, in `cpu_pairs` order.
    cpu_terms: Vec<f64>,
    total_flow: f64,
    power: PowerGrid,
    thermal: f64,
    peak_temperature: f64,
    total_pe_power: f64,
    evaluation: Evaluation,
}

impl EvalState {
    /// The finished evaluation this state encodes.
    pub fn evaluation(&self) -> &Evaluation {
        &self.evaluation
    }

    /// The design this state was computed for.
    pub fn design(&self) -> &Design {
        &self.design
    }
}

/// Walks one flow exactly as [`Evaluator::evaluate_with_table`] does,
/// returning its latency and energy terms. `on_link` observes each link
/// on the path (for utilization/user-list bookkeeping). Shared by full
/// state construction and delta application so both execute the same
/// floating-point operation sequence.
fn flow_terms(
    table: &RoutingTable,
    src: TileId,
    dst: TileId,
    f: f64,
    link_energy: &[f64],
    router_energy: &[f64],
    mut on_link: impl FnMut(usize),
) -> (f64, f64) {
    let latency_term = f * table.latency(src, dst);
    let mut flow_energy = 0.0;
    table.walk_path(src, dst, |link, router| {
        if let Some(k) = link {
            on_link(k);
            flow_energy += link_energy[k];
        }
        flow_energy += router_energy[router.0];
    });
    (latency_term, f * flow_energy)
}

/// Merges `additions` (ascending, disjoint from `existing`) into the
/// ascending list `existing`.
fn merge_sorted(existing: &mut Vec<u32>, additions: &[u32]) {
    if additions.is_empty() {
        return;
    }
    let old = std::mem::take(existing);
    existing.reserve(old.len() + additions.len());
    let (mut i, mut j) = (0, 0);
    while i < old.len() && j < additions.len() {
        if old[i] < additions[j] {
            existing.push(old[i]);
            i += 1;
        } else {
            existing.push(additions[j]);
            j += 1;
        }
    }
    existing.extend_from_slice(&old[i..]);
    existing.extend_from_slice(&additions[j..]);
}

/// A deduplicating set of dirty link indices.
struct DirtySet {
    mark: Vec<bool>,
    list: Vec<usize>,
}

impl DirtySet {
    fn new(n: usize) -> Self {
        Self { mark: vec![false; n], list: Vec::new() }
    }

    fn add(&mut self, k: usize) {
        if !self.mark[k] {
            self.mark[k] = true;
            self.list.push(k);
        }
    }
}

/// Deliberate divergence for harness self-tests (satellite of ISSUE 10):
/// proves the parity suite can catch a wrong delta. Never enabled in
/// normal builds; only the delta path calls it, so full evaluation stays
/// correct and the suite must flag the difference.
#[cfg(feature = "delta-fault")]
fn inject_delta_fault(utilization: &mut [f64]) {
    if let Some(u) = utilization.first_mut() {
        *u += 1.0;
    }
}

impl Evaluator {
    /// Fully evaluates `design`, decomposed into a reusable [`EvalState`].
    /// `state.evaluation()` is bitwise identical to
    /// [`Evaluator::evaluate`] on the same design.
    pub fn build_state(&self, design: &Design) -> EvalState {
        let table = self.routing_for(design);
        let dims = self.dims();
        let params = self.params();
        let link_count = design.topology.link_count();
        let flows = Arc::new(self.workload().flows());
        let mix = self.workload().mix();
        let mut cpu_pairs = Vec::with_capacity(mix.cpus() * mix.llcs());
        for c in mix.ids_of(PeKind::Cpu) {
            for m in mix.ids_of(PeKind::Llc) {
                cpu_pairs.push((c, m, self.workload().traffic(c, m)));
            }
        }

        let link_energy: Vec<f64> = design
            .topology
            .links()
            .iter()
            .map(|l| l.length(dims) * params.link_energy_per_unit)
            .collect();
        let router_energy: Vec<f64> = (0..dims.tiles())
            .map(|t| params.router_energy_per_port * design.topology.degree(TileId(t)) as f64)
            .collect();

        let mut utilization = vec![0.0f64; link_count];
        let mut link_users: Vec<Vec<u32>> = vec![Vec::new(); link_count];
        let mut latency_terms = Vec::with_capacity(flows.len());
        let mut energy_terms = Vec::with_capacity(flows.len());
        let mut total_flow = 0.0f64;
        for (fi, &(i, j, f)) in flows.iter().enumerate() {
            let src = design.placement.tile_of(i);
            let dst = design.placement.tile_of(j);
            total_flow += f;
            let (lat, en) = flow_terms(&table, src, dst, f, &link_energy, &router_energy, |k| {
                utilization[k] += f;
                link_users[k].push(fi as u32);
            });
            latency_terms.push(lat);
            energy_terms.push(en);
        }

        let cpu_terms: Vec<f64> = cpu_pairs
            .iter()
            .map(|&(c, m, t)| {
                table.latency(design.placement.tile_of(c), design.placement.tile_of(m)) * t
            })
            .collect();

        let mut power = PowerGrid::new(dims.nx(), dims.ny(), dims.layers());
        for t in dims.tile_ids() {
            let c = dims.coord(t);
            let stack = c.y * dims.nx() + c.x;
            power.set(stack, c.z + 1, self.workload().pe_power(design.placement.pe_at(t)));
        }
        let thermal = self.thermal_model().thermal_objective(&power);
        let peak_temperature = self.thermal_model().peak_temperature(&power);
        let total_pe_power = self.workload().pe_powers().iter().sum();

        let mut st = EvalState {
            design: design.clone(),
            table,
            flows,
            cpu_pairs: Arc::new(cpu_pairs),
            latency_terms,
            energy_terms,
            link_users,
            utilization,
            link_energy,
            router_energy,
            cpu_terms,
            total_flow,
            power,
            thermal,
            peak_temperature,
            total_pe_power,
            evaluation: zero_evaluation(),
        };
        self.finish_evaluation(&mut st);
        st
    }

    /// Applies `delta` to `base`, producing the neighbor's full state.
    /// Returns `None` when the delta cannot be applied exactly (the
    /// caller must fall back to [`Evaluator::build_state`]). The returned
    /// state is bitwise identical to a fresh `build_state` of the moved
    /// design.
    pub fn evaluate_delta(&self, base: &EvalState, delta: &MoveDelta) -> Option<EvalState> {
        match *delta {
            MoveDelta::Identity => Some(base.clone()),
            MoveDelta::Swap { a, b } => Some(self.apply_swap(base, a, b)),
            MoveDelta::Rewire { victim_idx, new_link } => {
                self.apply_rewire(base, victim_idx, new_link)
            }
        }
    }

    /// Re-derives every accumulator of `st.evaluation` by summing the
    /// stored terms in the original accumulation order (flow order, link
    /// order, pair order), replaying `evaluate_with_table`'s exact f64
    /// addition sequences.
    fn finish_evaluation(&self, st: &mut EvalState) {
        let link_count = st.utilization.len();
        let weighted_latency: f64 = st.latency_terms.iter().sum();
        let energy: f64 = st.energy_terms.iter().sum();
        let mean_traffic = st.utilization.iter().sum::<f64>() / link_count as f64;
        let traffic_variance =
            st.utilization.iter().map(|u| (u - mean_traffic).powi(2)).sum::<f64>()
                / link_count as f64;
        let mix = self.workload().mix();
        let cpu_llc_pairs = (mix.cpus() * mix.llcs()) as f64;
        let cpu_sum: f64 = st.cpu_terms.iter().sum();
        let cpu_latency = if cpu_llc_pairs > 0.0 { cpu_sum / cpu_llc_pairs } else { 0.0 };
        let max_u = st.utilization.iter().fold(0.0f64, |a, &b| a.max(b));
        st.evaluation = Evaluation {
            mean_traffic,
            traffic_variance,
            cpu_latency,
            energy,
            thermal: st.thermal,
            peak_temperature: st.peak_temperature,
            network: NetworkStats {
                avg_packet_latency: if st.total_flow > 0.0 {
                    weighted_latency / st.total_flow
                } else {
                    0.0
                },
                max_link_utilization: max_u / self.params().link_capacity,
                network_energy_rate: energy,
                total_pe_power: st.total_pe_power,
            },
        };
    }

    /// A two-tile placement swap: the topology — and therefore the routing
    /// table — is untouched, so only flows with an endpoint PE on `a` or
    /// `b` are re-walked, CPU–LLC pairs involving a moved PE re-scored,
    /// and the power grid patched in two cells before a thermal re-solve.
    fn apply_swap(&self, base: &EvalState, a: TileId, b: TileId) -> EvalState {
        let mut st = base.clone();
        let pe_a = st.design.placement.pe_at(a);
        let pe_b = st.design.placement.pe_at(b);
        st.design.placement.swap(a, b);
        let moved = |pe: usize| pe == pe_a || pe == pe_b;

        // Pass 1: mark affected flows and the links of their old paths.
        let mut dirty = DirtySet::new(st.utilization.len());
        let mut affected = vec![false; st.flows.len()];
        for (fi, &(i, j, _f)) in base.flows.iter().enumerate() {
            if !(moved(i) || moved(j)) {
                continue;
            }
            affected[fi] = true;
            let src = base.design.placement.tile_of(i);
            let dst = base.design.placement.tile_of(j);
            base.table.walk_path(src, dst, |link, _| {
                if let Some(k) = link {
                    dirty.add(k);
                }
            });
        }
        for &k in &dirty.list {
            st.link_users[k].retain(|&u| !affected[u as usize]);
        }

        // Pass 2: re-walk affected flows on their new endpoints.
        let mut added: std::collections::HashMap<usize, Vec<u32>> =
            std::collections::HashMap::new();
        for (fi, &(i, j, f)) in st.flows.iter().enumerate() {
            if !affected[fi] {
                continue;
            }
            let src = st.design.placement.tile_of(i);
            let dst = st.design.placement.tile_of(j);
            let (lat, en) =
                flow_terms(&st.table, src, dst, f, &st.link_energy, &st.router_energy, |k| {
                    dirty.add(k);
                    added.entry(k).or_default().push(fi as u32);
                });
            st.latency_terms[fi] = lat;
            st.energy_terms[fi] = en;
        }

        // Pass 3: rebuild utilization of dirty links from their user
        // lists — ascending flow order replays the original additions.
        for &k in &dirty.list {
            if let Some(new) = added.get(&k) {
                merge_sorted(&mut st.link_users[k], new);
            }
            st.utilization[k] = st.link_users[k].iter().map(|&u| st.flows[u as usize].2).sum();
        }

        // CPU–LLC pairs touching a moved PE.
        let cpu_pairs = Arc::clone(&st.cpu_pairs);
        for (pi, &(c, m, t)) in cpu_pairs.iter().enumerate() {
            if moved(c) || moved(m) {
                st.cpu_terms[pi] = st
                    .table
                    .latency(st.design.placement.tile_of(c), st.design.placement.tile_of(m))
                    * t;
            }
        }

        // Thermal: overwrite the two moved cells, re-solve the pure model.
        let dims = self.dims();
        for t in [a, b] {
            let c = dims.coord(t);
            let stack = c.y * dims.nx() + c.x;
            st.power.set(stack, c.z + 1, self.workload().pe_power(st.design.placement.pe_at(t)));
        }
        st.thermal = self.thermal_model().thermal_objective(&st.power);
        st.peak_temperature = self.thermal_model().peak_temperature(&st.power);

        #[cfg(feature = "delta-fault")]
        inject_delta_fault(&mut st.utilization);
        self.finish_evaluation(&mut st);
        st
    }

    /// A single link rewire: the routing table is repaired incrementally
    /// (only provably-affected source rows re-routed), flows of affected
    /// sources are re-walked, flows crossing a degree-changed router get
    /// their energy term refreshed, and the thermal solution is reused
    /// outright (placement unchanged).
    fn apply_rewire(
        &self,
        base: &EvalState,
        victim_idx: usize,
        new_link: Link,
    ) -> Option<EvalState> {
        let dims = self.dims();
        let params = self.params();
        let mut st = base.clone();
        if victim_idx >= st.design.topology.link_count() {
            return None;
        }
        let old_link = st.design.topology.links()[victim_idx];
        if old_link == new_link {
            return Some(st);
        }
        if st.design.topology.contains(new_link) {
            // A parallel link would break the replace invariant; the moves
            // module never produces one, but diffing is defensive.
            return None;
        }
        st.design.topology.replace_link(victim_idx, new_link);

        // Routing: exact incremental repair of the affected source rows.
        let new_cost = params.router_stages + new_link.length(dims) * params.link_delay_per_unit;
        let affected_src = base.table.rewire_affected_sources(victim_idx, new_link, new_cost);
        st.table =
            Arc::new(base.table.repair_rewire(dims, &st.design.topology, &affected_src, params));

        // Energy coefficients: the replaced link's length and the degrees
        // of up to four routers change.
        st.link_energy[victim_idx] = new_link.length(dims) * params.link_energy_per_unit;
        let mut degree_changed = vec![false; dims.tiles()];
        for t in [old_link.a(), old_link.b(), new_link.a(), new_link.b()] {
            let new_energy = params.router_energy_per_port * st.design.topology.degree(t) as f64;
            if new_energy != st.router_energy[t.0] {
                st.router_energy[t.0] = new_energy;
                degree_changed[t.0] = true;
            }
        }

        // Flow classification. `route_changed`: the source row was
        // re-routed, so path, latency, and utilization may all change.
        // `energy_only`: the path is provably identical but crosses a
        // degree-changed router, so just the energy term moves.
        let mut route_changed = vec![false; st.flows.len()];
        for (fi, &(i, _j, _f)) in base.flows.iter().enumerate() {
            let src = base.design.placement.tile_of(i);
            if affected_src[src.0] {
                route_changed[fi] = true;
            }
        }
        let mut energy_only = vec![false; st.flows.len()];
        for (t, changed) in degree_changed.iter().enumerate() {
            if !changed {
                continue;
            }
            // Every route visiting router `t` crosses a link incident to
            // it (all flows span at least one hop), so the old adjacency's
            // user lists cover exactly the flows whose walk touches `t`.
            for &(_, li) in base.design.topology.neighbors(TileId(t)) {
                for &u in &base.link_users[li] {
                    if !route_changed[u as usize] {
                        energy_only[u as usize] = true;
                    }
                }
            }
        }

        // Surgery on re-routed flows, exactly as in a swap.
        let mut dirty = DirtySet::new(st.utilization.len());
        for (fi, &(i, j, _f)) in base.flows.iter().enumerate() {
            if !route_changed[fi] {
                continue;
            }
            let src = base.design.placement.tile_of(i);
            let dst = base.design.placement.tile_of(j);
            base.table.walk_path(src, dst, |link, _| {
                if let Some(k) = link {
                    dirty.add(k);
                }
            });
        }
        for &k in &dirty.list {
            st.link_users[k].retain(|&u| !route_changed[u as usize]);
        }
        let mut added: std::collections::HashMap<usize, Vec<u32>> =
            std::collections::HashMap::new();
        for fi in 0..st.flows.len() {
            let (i, j, f) = st.flows[fi];
            if route_changed[fi] {
                let src = st.design.placement.tile_of(i);
                let dst = st.design.placement.tile_of(j);
                let (lat, en) =
                    flow_terms(&st.table, src, dst, f, &st.link_energy, &st.router_energy, |k| {
                        dirty.add(k);
                        added.entry(k).or_default().push(fi as u32);
                    });
                st.latency_terms[fi] = lat;
                st.energy_terms[fi] = en;
            } else if energy_only[fi] {
                let src = st.design.placement.tile_of(i);
                let dst = st.design.placement.tile_of(j);
                let (_lat, en) =
                    flow_terms(&st.table, src, dst, f, &st.link_energy, &st.router_energy, |_| {});
                st.energy_terms[fi] = en;
            }
        }
        for &k in &dirty.list {
            if let Some(new) = added.get(&k) {
                merge_sorted(&mut st.link_users[k], new);
            }
            st.utilization[k] = st.link_users[k].iter().map(|&u| st.flows[u as usize].2).sum();
        }

        // CPU–LLC pairs read the source row of the table only.
        let cpu_pairs = Arc::clone(&st.cpu_pairs);
        for (pi, &(c, m, t)) in cpu_pairs.iter().enumerate() {
            let src = st.design.placement.tile_of(c);
            if affected_src[src.0] {
                st.cpu_terms[pi] = st.table.latency(src, st.design.placement.tile_of(m)) * t;
            }
        }

        // Thermal depends on placement only: reuse the solution as-is.
        #[cfg(feature = "delta-fault")]
        inject_delta_fault(&mut st.utilization);
        self.finish_evaluation(&mut st);
        Some(st)
    }
}

fn zero_evaluation() -> Evaluation {
    Evaluation {
        mean_traffic: 0.0,
        traffic_variance: 0.0,
        cpu_latency: 0.0,
        energy: 0.0,
        thermal: 0.0,
        peak_temperature: 0.0,
        network: NetworkStats {
            avg_packet_latency: 0.0,
            max_link_utilization: 0.0,
            network_energy_rate: 0.0,
            total_pe_power: 0.0,
        },
    }
}

#[derive(Debug, Default)]
struct DeltaLru {
    /// `(design key, state, last_used)` triples, LRU-evicted.
    entries: Vec<(Vec<u8>, Arc<EvalState>, u64)>,
    tick: u64,
}

/// The delta-evaluation fast path and the workspace's only evaluation
/// cache: a bounded LRU of [`EvalState`]s keyed by exact design bytes,
/// plus the `delta_hits`/`delta_fallbacks` counters surfaced in
/// metrics.json and `moela-dse report`.
///
/// Shared via `Arc` across clones of one problem, so a hill climber's
/// accepted design is almost always resident when its neighbors are
/// scored.
#[derive(Debug)]
pub struct DeltaEngine {
    capacity: usize,
    state: Mutex<DeltaLru>,
    hits: AtomicU64,
    fallbacks: AtomicU64,
}

impl DeltaEngine {
    /// An empty engine holding at most `capacity` states (0 disables
    /// state retention entirely: every call is a fallback).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            state: Mutex::new(DeltaLru::default()),
            hits: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        }
    }

    /// Neighbor evaluations served by a delta application.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Full evaluations: base-state bootstraps plus unrecognizable moves.
    pub fn fallbacks(&self) -> u64 {
        self.fallbacks.load(Ordering::Relaxed)
    }

    /// Locks the LRU, recovering from poison: entries are immutable
    /// states keyed by exact bytes, so a store left behind by a panicking
    /// thread can only miss, never serve a wrong state.
    fn lru(&self) -> MutexGuard<'_, DeltaLru> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, key: &[u8]) -> Option<Arc<EvalState>> {
        if self.capacity == 0 {
            return None;
        }
        let mut lru = self.lru();
        lru.tick += 1;
        let tick = lru.tick;
        let entry = lru.entries.iter_mut().find(|(k, _, _)| k == key)?;
        entry.2 = tick;
        Some(Arc::clone(&entry.1))
    }

    fn insert(&self, key: Vec<u8>, state: Arc<EvalState>) {
        if self.capacity == 0 {
            return;
        }
        let mut lru = self.lru();
        lru.tick += 1;
        let tick = lru.tick;
        if lru.entries.iter().any(|(k, _, _)| *k == key) {
            return;
        }
        if lru.entries.len() >= self.capacity {
            let victim = lru
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, used))| *used)
                .map(|(i, _)| i)
                .expect("non-empty over-capacity lru");
            lru.entries.swap_remove(victim);
        }
        lru.entries.push((key, state, tick));
    }

    /// Evaluates `next` as a neighbor of `base`: builds (or recalls) the
    /// base state, diffs the designs, and applies the delta when the move
    /// is recognizable — otherwise falls back to a full evaluation. The
    /// returned evaluation is bitwise identical to
    /// `evaluator.evaluate(next)` in every case.
    pub fn evaluate_neighbor(
        &self,
        evaluator: &Evaluator,
        base: &Design,
        next: &Design,
    ) -> Evaluation {
        if self.capacity == 0 {
            // Delta evaluation disabled: every neighbor is a full
            // evaluation, counted as a fallback so counters stay
            // comparable between on and off runs.
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
            return evaluator.evaluate(next);
        }
        let base_state = match self.get(&design_key(base)) {
            Some(s) => s,
            None => {
                // Bootstrap: the base was never scored through the engine
                // (or was evicted); one full evaluation re-anchors it.
                self.fallbacks.fetch_add(1, Ordering::Relaxed);
                let s = Arc::new(evaluator.build_state(base));
                self.insert(design_key(base), Arc::clone(&s));
                s
            }
        };
        if let Some(delta) = MoveDelta::between(base, next) {
            if matches!(delta, MoveDelta::Identity) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return base_state.evaluation().clone();
            }
            if let Some(next_state) = evaluator.evaluate_delta(&base_state, &delta) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let next_state = Arc::new(next_state);
                self.insert(design_key(next), Arc::clone(&next_state));
                return next_state.evaluation().clone();
            }
        }
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
        let s = Arc::new(evaluator.build_state(next));
        self.insert(design_key(next), Arc::clone(&s));
        s.evaluation().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Placement;
    use crate::moves;
    use crate::objectives::ObjectiveSet;
    use crate::params::NocParams;
    use crate::topology::TopologyBuilder;
    use crate::GridDims;
    use moela_thermal::{FastThermalModel, ThermalParams};
    use moela_traffic::{Benchmark, PeMix, Workload};
    use rand::SeedableRng;

    fn evaluator() -> Evaluator {
        let dims = GridDims::paper();
        let workload = Workload::synthesize(Benchmark::Hot, PeMix::paper(), 5);
        let thermal = FastThermalModel::new(ThermalParams::uniform(4, 1.0, 0.5));
        Evaluator::new(dims, NocParams::paper(), workload, thermal)
    }

    fn setup() -> (Evaluator, TopologyBuilder, Design, rand::rngs::StdRng) {
        let ev = evaluator();
        let builder = TopologyBuilder::new(*ev.dims(), 96, 48, 5, 7);
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let design = Design::new(
            Placement::random(ev.dims(), ev.workload().mix(), &mut rng),
            builder.random(&mut rng).expect("builds"),
        );
        (ev, builder, design, rng)
    }

    #[test]
    fn between_classifies_identity_swap_and_rewire() {
        let (ev, builder, design, mut rng) = setup();
        assert_eq!(MoveDelta::between(&design, &design.clone()), Some(MoveDelta::Identity));
        let swapped = moves::swap_tiles(ev.dims(), ev.workload().mix(), &design, &mut rng);
        assert!(matches!(
            MoveDelta::between(&design, &swapped),
            Some(MoveDelta::Swap { .. }) | Some(MoveDelta::Identity)
        ));
        let rewired = moves::rewire_link(ev.dims(), &builder, 7, &design, &mut rng);
        assert!(matches!(
            MoveDelta::between(&design, &rewired),
            Some(MoveDelta::Rewire { .. }) | Some(MoveDelta::Identity)
        ));
    }

    #[test]
    fn between_rejects_compound_differences() {
        let (ev, builder, design, mut rng) = setup();
        // Swap + rewire: placement and topology both differ.
        let mut compound = moves::swap_tiles(ev.dims(), ev.workload().mix(), &design, &mut rng);
        while compound.placement == design.placement {
            compound = moves::swap_tiles(ev.dims(), ev.workload().mix(), &design, &mut rng);
        }
        let mut both = moves::rewire_link(ev.dims(), &builder, 7, &compound, &mut rng);
        while both.topology == compound.topology {
            both = moves::rewire_link(ev.dims(), &builder, 7, &compound, &mut rng);
        }
        assert_eq!(MoveDelta::between(&design, &both), None);
    }

    #[test]
    fn build_state_matches_full_evaluation_bitwise() {
        let (ev, _, design, _) = setup();
        let st = ev.build_state(&design);
        assert_eq!(*st.evaluation(), ev.evaluate(&design));
    }

    #[test]
    fn swap_delta_is_bitwise_exact() {
        let (ev, _, design, mut rng) = setup();
        let base = ev.build_state(&design);
        for _ in 0..16 {
            let next = moves::swap_tiles(ev.dims(), ev.workload().mix(), &design, &mut rng);
            let delta = MoveDelta::between(&design, &next).expect("single move");
            let st = ev.evaluate_delta(&base, &delta).expect("applies");
            assert_eq!(*st.evaluation(), ev.evaluate(&next));
            assert_eq!(
                st.evaluation().objectives(ObjectiveSet::Five),
                ev.evaluate(&next).objectives(ObjectiveSet::Five)
            );
        }
    }

    #[test]
    fn rewire_delta_is_bitwise_exact() {
        let (ev, builder, design, mut rng) = setup();
        let base = ev.build_state(&design);
        for _ in 0..16 {
            let next = moves::rewire_link(ev.dims(), &builder, 7, &design, &mut rng);
            let delta = MoveDelta::between(&design, &next).expect("single move");
            let st = ev.evaluate_delta(&base, &delta).expect("applies");
            assert_eq!(*st.evaluation(), ev.evaluate(&next));
        }
    }

    #[test]
    fn engine_serves_neighbors_and_counts_hits() {
        let (ev, builder, design, mut rng) = setup();
        let engine = DeltaEngine::new(DEFAULT_DELTA_CACHE_CAPACITY);
        let mut current = design;
        for _ in 0..10 {
            let next =
                moves::random_move(ev.dims(), ev.workload().mix(), &builder, 7, &current, &mut rng);
            let via_engine = engine.evaluate_neighbor(&ev, &current, &next);
            assert_eq!(via_engine, ev.evaluate(&next));
            current = next;
        }
        // One bootstrap for the seed design; every accepted neighbor is
        // resident when the next step diffs against it.
        assert_eq!(engine.fallbacks(), 1);
        assert_eq!(engine.hits(), 10);
    }

    #[test]
    fn poisoned_engine_recovers_and_stays_exact() {
        let (ev, builder, design, mut rng) = setup();
        let engine = DeltaEngine::new(DEFAULT_DELTA_CACHE_CAPACITY);
        let next = moves::rewire_link(ev.dims(), &builder, 7, &design, &mut rng);
        assert_eq!(engine.evaluate_neighbor(&ev, &design, &next), ev.evaluate(&next));
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _guard = engine.state.lock().expect("first lock");
                panic!("poison the delta engine");
            });
            assert!(poisoner.join().is_err(), "the poisoning thread must panic");
        });
        assert!(engine.state.is_poisoned());
        let after =
            moves::random_move(ev.dims(), ev.workload().mix(), &builder, 7, &next, &mut rng);
        for (base, n) in [(&design, &next), (&next, &after)] {
            let got = engine.evaluate_neighbor(&ev, base, n);
            let want = ev.evaluate(n);
            assert_eq!(
                got.objectives(ObjectiveSet::Five).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.objectives(ObjectiveSet::Five).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            );
            assert_eq!(got, want);
        }
    }

    #[test]
    fn zero_capacity_engine_always_falls_back_but_stays_exact() {
        let (ev, builder, design, mut rng) = setup();
        let engine = DeltaEngine::new(0);
        let next = moves::rewire_link(ev.dims(), &builder, 7, &design, &mut rng);
        assert_eq!(engine.evaluate_neighbor(&ev, &design, &next), ev.evaluate(&next));
        assert_eq!(engine.hits(), 0);
        assert!(engine.fallbacks() >= 1);
    }
}
