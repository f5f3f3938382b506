//! Exact delta evaluation of single-move neighbors.
//!
//! Local search spends almost all of its time evaluating neighbors that
//! differ from an already-scored design by one [`crate::moves`] operator:
//! a two-tile placement swap or a single link rewire. Both perturb only a
//! small set of flows, yet [`Evaluator::evaluate`] recomputes every flow
//! walk — and, for rewires, the all-pairs Dijkstra — from scratch.
//!
//! This module keeps an [`EvalState`] per scored design: the routing
//! table, every objective term of the evaluator's term pass (per-flow
//! latency and energy, per-link utilization, per-pair CPU–LLC latency,
//! the power grid and thermal solution) and the ascending flow indices
//! crossing each link. Applying a [`MoveDelta`] patches only the affected
//! terms and then runs the same assembly step full evaluation ends in,
//! so the result is bitwise identical to a full evaluation despite f64
//! addition being non-associative:
//!
//! * a *swap* re-walks only the flows touching the two swapped tiles and
//!   re-solves the thermal model on a two-cell power-grid patch;
//! * a *rewire* repairs the routing table incrementally
//!   ([`RoutingTable::repair_rewire`]): only sources whose shortest-path
//!   tree provably changes are re-routed, and only their flows are
//!   re-walked; flows crossing a degree-changed router get their energy
//!   term refreshed.
//!
//! The exactness argument and the differential harness that enforces it
//! live in DESIGN.md §5 and `crates/manycore/tests/delta_parity.rs`.
//! Whenever a neighbor is not a recognizable single move, [`DeltaEngine`]
//! falls back to a full evaluation — never to an approximation.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::design::Design;
use crate::geometry::TileId;
use crate::link::Link;
use crate::objectives::{flow_terms, Evaluation, Evaluator, Terms};
use crate::routing::RoutingTable;

/// Number of evaluation states kept per [`DeltaEngine`]. Hill
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
/// terms a move touches and re-sum the rest unchanged. A state is only
/// meaningful to the [`Evaluator`] (or a clone of it) that built it.
#[derive(Clone, Debug)]
pub struct EvalState {
    design: Design,
    table: Arc<RoutingTable>,
    terms: Terms,
    /// Ascending flow indices crossing each link. Re-summing a link's
    /// users in this order replays the term pass's utilization additions.
    link_users: Vec<Vec<u32>>,
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

/// Deliberate divergence for harness self-tests: proves the parity suite
/// can catch a wrong delta. Never enabled in normal builds; only the
/// delta path calls it, so full evaluation stays correct and the suite
/// must flag the difference.
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
        let mut link_users = vec![Vec::new(); design.topology.link_count()];
        let terms = self.terms(design, &table, |fi, k| link_users[k].push(fi as u32));
        let evaluation = self.assemble(&terms);
        EvalState { design: design.clone(), table, terms, link_users, evaluation }
    }

    /// Applies `delta` to `base`, producing the neighbor's full state.
    /// Returns `None` when the delta cannot be applied exactly (the
    /// caller must fall back to [`Evaluator::build_state`]). The returned
    /// state is bitwise identical to a fresh `build_state` of the moved
    /// design.
    pub fn evaluate_delta(&self, base: &EvalState, delta: &MoveDelta) -> Option<EvalState> {
        let mut st = base.clone();
        match *delta {
            MoveDelta::Identity => return Some(st),
            MoveDelta::Swap { a, b } => self.apply_swap(base, &mut st, a, b),
            MoveDelta::Rewire { victim_idx, new_link } => {
                self.apply_rewire(base, &mut st, victim_idx, new_link)?
            }
        }
        #[cfg(feature = "delta-fault")]
        inject_delta_fault(&mut st.terms.utilization);
        st.evaluation = self.assemble(&st.terms);
        Some(st)
    }

    /// Re-routes every flow marked in `changed`: unlinks its old path
    /// (`base`'s table and placement), re-walks it on `st`'s, and re-sums
    /// the utilization of every link either path crosses from its
    /// ascending user list, replaying the term pass's additions.
    fn rewalk(&self, base: &EvalState, st: &mut EvalState, changed: &[bool]) {
        let flows = || self.flows.iter().enumerate().filter(|&(fi, _)| changed[fi]);
        let mut dirty = DirtySet::new(st.terms.utilization.len());
        for (_, &(i, j, _)) in flows() {
            let (src, dst) = (base.design.placement.tile_of(i), base.design.placement.tile_of(j));
            base.table.walk_path(src, dst, |link, _| {
                if let Some(k) = link {
                    dirty.add(k);
                }
            });
        }
        for &k in &dirty.list {
            st.link_users[k].retain(|&u| !changed[u as usize]);
        }
        let mut added: HashMap<usize, Vec<u32>> = HashMap::new();
        let terms = &mut st.terms;
        for (fi, &(i, j, f)) in flows() {
            let (src, dst) = (st.design.placement.tile_of(i), st.design.placement.tile_of(j));
            let (lat, en) =
                flow_terms(&st.table, src, dst, f, &terms.link_energy, &terms.router_energy, |k| {
                    dirty.add(k);
                    added.entry(k).or_default().push(fi as u32);
                });
            terms.latency[fi] = lat;
            terms.energy[fi] = en;
        }
        for &k in &dirty.list {
            if let Some(new) = added.get(&k) {
                merge_sorted(&mut st.link_users[k], new);
            }
            terms.utilization[k] = st.link_users[k].iter().map(|&u| self.flows[u as usize].2).sum();
        }
    }

    /// A two-tile placement swap: the topology — and therefore the routing
    /// table — is untouched, so only flows with an endpoint PE on `a` or
    /// `b` are re-walked, CPU–LLC pairs involving a moved PE re-scored,
    /// and the power grid patched in two cells before a thermal re-solve.
    fn apply_swap(&self, base: &EvalState, st: &mut EvalState, a: TileId, b: TileId) {
        let pe_a = base.design.placement.pe_at(a);
        let pe_b = base.design.placement.pe_at(b);
        let moved = |pe: usize| pe == pe_a || pe == pe_b;
        st.design.placement.swap(a, b);
        let affected: Vec<bool> =
            self.flows.iter().map(|&(i, j, _)| moved(i) || moved(j)).collect();
        self.rewalk(base, st, &affected);
        for (pi, &pair) in self.cpu_pairs.iter().enumerate() {
            if moved(pair.0) || moved(pair.1) {
                st.terms.cpu[pi] = self.cpu_term(&st.design, &st.table, pair);
            }
        }
        self.set_power(&mut st.terms, &st.design, [a, b]);
    }

    /// A single link rewire: the routing table is repaired incrementally
    /// (only provably-affected source rows re-routed), flows of affected
    /// sources are re-walked, flows crossing a degree-changed router get
    /// their energy term refreshed, and the thermal solution is reused
    /// outright (placement unchanged). `None` for an out-of-range index
    /// or a link the topology already has.
    fn apply_rewire(
        &self,
        base: &EvalState,
        st: &mut EvalState,
        victim_idx: usize,
        new_link: Link,
    ) -> Option<()> {
        let (dims, params) = (self.dims(), self.params());
        let old_link = *base.design.topology.links().get(victim_idx)?;
        if old_link == new_link {
            return Some(());
        }
        if base.design.topology.contains(new_link) {
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
        st.terms.link_energy[victim_idx] = self.link_energy(new_link);
        let mut degree_changed = Vec::new();
        for t in [old_link.a(), old_link.b(), new_link.a(), new_link.b()] {
            let energy = self.router_energy(&st.design.topology, t);
            if energy != st.terms.router_energy[t.0] {
                st.terms.router_energy[t.0] = energy;
                degree_changed.push(t);
            }
        }

        // A re-routed source row may change a flow's path, latency and
        // utilization.
        let placement = &base.design.placement;
        let route_changed: Vec<bool> =
            self.flows.iter().map(|&(i, _, _)| affected_src[placement.tile_of(i).0]).collect();
        self.rewalk(base, st, &route_changed);

        // A flow whose path is provably unchanged but crosses a
        // degree-changed router only needs its energy term refreshed.
        // Every route visiting router `t` crosses a link incident to it
        // (all flows span at least one hop), so the old adjacency's user
        // lists cover exactly the flows whose walk touches `t`.
        let mut refreshed = route_changed;
        for t in degree_changed {
            for &(_, li) in base.design.topology.neighbors(t) {
                for &u in &base.link_users[li] {
                    let fi = u as usize;
                    if refreshed[fi] {
                        continue;
                    }
                    refreshed[fi] = true;
                    let (i, j, f) = self.flows[fi];
                    let (src, dst) = (placement.tile_of(i), placement.tile_of(j));
                    let terms = &mut st.terms;
                    let (link_energy, router_energy) = (&terms.link_energy, &terms.router_energy);
                    terms.energy[fi] =
                        flow_terms(&st.table, src, dst, f, link_energy, router_energy, |_| {}).1;
                }
            }
        }

        // CPU–LLC pairs read the source row of the table only; thermal
        // depends on placement only and is reused as-is.
        for (pi, &pair) in self.cpu_pairs.iter().enumerate() {
            if affected_src[placement.tile_of(pair.0).0] {
                st.terms.cpu[pi] = self.cpu_term(&st.design, &st.table, pair);
            }
        }
        Some(())
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
#[derive(Debug, Default)]
pub struct DeltaEngine {
    state: Mutex<DeltaLru>,
    hits: AtomicU64,
    fallbacks: AtomicU64,
}

impl DeltaEngine {
    /// An empty engine holding at most [`DEFAULT_DELTA_CACHE_CAPACITY`]
    /// states.
    pub fn new() -> Self {
        Self::default()
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
        let mut lru = self.lru();
        lru.tick += 1;
        let tick = lru.tick;
        let entry = lru.entries.iter_mut().find(|(k, _, _)| k == key)?;
        entry.2 = tick;
        Some(Arc::clone(&entry.1))
    }

    fn insert(&self, key: Vec<u8>, state: Arc<EvalState>) {
        let mut lru = self.lru();
        lru.tick += 1;
        let tick = lru.tick;
        if lru.entries.iter().any(|(k, _, _)| *k == key) {
            return;
        }
        if lru.entries.len() >= DEFAULT_DELTA_CACHE_CAPACITY {
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
        let engine = DeltaEngine::new();
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
        let engine = DeltaEngine::new();
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
}
