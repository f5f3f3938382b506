//! The five design objectives of §III and their evaluator.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use moela_thermal::{FastThermalModel, PowerGrid};
use moela_traffic::edp::NetworkStats;
use moela_traffic::{PeKind, Workload};

use crate::design::Design;
use crate::geometry::{GridDims, TileId};
use crate::link::Link;
use crate::params::NocParams;
use crate::routing::RoutingTable;
use crate::topology::Topology;

/// Which of the paper's objective stacks to evaluate.
///
/// The paper's scenarios are cumulative prefixes of the objective list:
/// 3-obj = {mean, variance, latency}, 4-obj adds energy, 5-obj adds the
/// thermal product.
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub enum ObjectiveSet {
    /// Objectives 1–3: mean traffic, traffic variance, CPU–LLC latency.
    Three,
    /// Objectives 1–4: adds NoC energy.
    Four,
    /// Objectives 1–5: adds the thermal product metric.
    Five,
}

impl ObjectiveSet {
    /// Number of objectives in the stack.
    pub fn count(&self) -> usize {
        match self {
            ObjectiveSet::Three => 3,
            ObjectiveSet::Four => 4,
            ObjectiveSet::Five => 5,
        }
    }

    /// All three scenarios, in the paper's order.
    pub const ALL: [ObjectiveSet; 3] =
        [ObjectiveSet::Three, ObjectiveSet::Four, ObjectiveSet::Five];
}

impl std::fmt::Display for ObjectiveSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-obj", self.count())
    }
}

/// The full evaluation of one design: the five objective values plus the
/// network summary consumed by the EDP model.
#[derive(Clone, Debug, PartialEq)]
pub struct Evaluation {
    /// Eq. (1): mean link utilization.
    pub mean_traffic: f64,
    /// Eq. (2): variance of link utilization.
    pub traffic_variance: f64,
    /// Eq. (3): traffic-weighted CPU–LLC latency.
    pub cpu_latency: f64,
    /// Eq. (4): NoC energy (links + routers).
    pub energy: f64,
    /// Eq. (7): peak temperature × max layer spread.
    pub thermal: f64,
    /// Peak temperature alone (used by Fig. 3's thermal threshold).
    pub peak_temperature: f64,
    /// Summary statistics for the EDP model.
    pub network: NetworkStats,
}

impl Evaluation {
    /// The objective vector for `set` (minimization order of §III).
    pub fn objectives(&self, set: ObjectiveSet) -> Vec<f64> {
        let all =
            [self.mean_traffic, self.traffic_variance, self.cpu_latency, self.energy, self.thermal];
        all[..set.count()].to_vec()
    }
}

/// Evaluates designs for one `(platform, workload)` pair.
///
/// Every objective is scored in two steps: a term pass computes each
/// summand (per-flow latency and energy, per-link utilization, per-pair
/// CPU–LLC latency, the thermal solution) and one assembly step sums
/// them. Full evaluation and the exact neighbor patching of
/// [`crate::delta::DeltaEngine`] both end in that assembly, so the f64
/// accumulation order of every objective is decided in one place. Clones
/// share one counter of full table builds ([`Evaluator::routing_rebuilds`]).
#[derive(Clone, Debug)]
pub struct Evaluator {
    dims: GridDims,
    params: NocParams,
    workload: Workload,
    thermal: FastThermalModel,
    rebuilds: Arc<AtomicU64>,
    /// `workload.flows()`: every `(src PE, dst PE, f)` with traffic.
    pub(crate) flows: Arc<Vec<(usize, usize, f64)>>,
    /// CPU–LLC pairs `(cpu, llc, traffic)` in eq. (3) iteration order.
    pub(crate) cpu_pairs: Arc<Vec<(usize, usize, f64)>>,
    total_flow: f64,
    total_pe_power: f64,
}

/// Every summand of one design's objectives, in accumulation order. A
/// neighbor's evaluation patches the few terms a move touches and
/// re-assembles the rest unchanged.
#[derive(Clone, Debug)]
pub(crate) struct Terms {
    /// `f · latency(src, dst)` per flow, in flow order.
    pub(crate) latency: Vec<f64>,
    /// `f · (Σ link energy + Σ router energy)` per flow, in flow order.
    pub(crate) energy: Vec<f64>,
    /// Flow per link: the sum of `f` over the flows crossing it.
    pub(crate) utilization: Vec<f64>,
    /// Energy coefficient per link, in link order.
    pub(crate) link_energy: Vec<f64>,
    /// Energy coefficient per router, in tile order.
    pub(crate) router_energy: Vec<f64>,
    /// `latency · traffic` per CPU–LLC pair, in `cpu_pairs` order.
    pub(crate) cpu: Vec<f64>,
    /// Per-PE power mapped onto the stacks.
    pub(crate) power: PowerGrid,
    /// The thermal model's eq. (7) objective and peak temperature of `power`.
    pub(crate) thermal: f64,
    pub(crate) peak_temperature: f64,
}

/// Walks the route of one flow of `f` from `src` to `dst`, returning its
/// latency and energy terms. `on_link` observes each link on the path.
pub(crate) fn flow_terms(
    table: &RoutingTable,
    src: TileId,
    dst: TileId,
    f: f64,
    link_energy: &[f64],
    router_energy: &[f64],
    mut on_link: impl FnMut(usize),
) -> (f64, f64) {
    let mut flow_energy = 0.0;
    table.walk_path(src, dst, |link, router| {
        if let Some(k) = link {
            on_link(k);
            flow_energy += link_energy[k];
        }
        flow_energy += router_energy[router.0];
    });
    (f * table.latency(src, dst), f * flow_energy)
}

impl Evaluator {
    /// Creates an evaluator.
    ///
    /// # Panics
    ///
    /// Panics if the workload population does not fill the grid or the
    /// thermal model covers fewer layers than the grid stacks.
    pub fn new(
        dims: GridDims,
        params: NocParams,
        workload: Workload,
        thermal: FastThermalModel,
    ) -> Self {
        assert_eq!(workload.pe_count(), dims.tiles(), "workload population must fill the grid");
        assert!(
            thermal.params().layers() >= dims.layers(),
            "thermal model covers fewer layers than the grid"
        );
        let flows = workload.flows();
        let mix = workload.mix();
        let cpu_pairs = mix
            .ids_of(PeKind::Cpu)
            .flat_map(|c| mix.ids_of(PeKind::Llc).map(move |m| (c, m)))
            .map(|(c, m)| (c, m, workload.traffic(c, m)))
            .collect();
        Self {
            dims,
            params,
            total_flow: flows.iter().map(|&(_, _, f)| f).sum(),
            total_pe_power: workload.pe_powers().iter().sum(),
            flows: Arc::new(flows),
            cpu_pairs: Arc::new(cpu_pairs),
            workload,
            thermal,
            rebuilds: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The workload this evaluator scores against.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Routing tables built so far (all-pairs Dijkstra passes), summed
    /// over every clone of this evaluator.
    pub fn routing_rebuilds(&self) -> u64 {
        self.rebuilds.load(Ordering::Relaxed)
    }

    /// The grid dimensions.
    pub fn dims(&self) -> &GridDims {
        &self.dims
    }

    /// The NoC parameters.
    pub fn params(&self) -> &NocParams {
        &self.params
    }

    /// Computes every objective and summary statistic for `design`.
    ///
    /// Split into two stages: route construction
    /// ([`Evaluator::routing_for`]) and flow accumulation
    /// ([`Evaluator::evaluate_with_table`]).
    pub fn evaluate(&self, design: &Design) -> Evaluation {
        let table = self.routing_for(design);
        self.evaluate_with_table(design, &table)
    }

    /// Stage 1: builds the routing table for `design`'s topology,
    /// counting the build in [`Evaluator::routing_rebuilds`].
    pub fn routing_for(&self, design: &Design) -> Arc<RoutingTable> {
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
        Arc::new(RoutingTable::build(&self.dims, &design.topology, &self.params))
    }

    /// Stage 2: flow accumulation, latency, energy, and thermal scoring
    /// against a pre-built routing table. `table` must have been built
    /// for `design.topology` (same link set *and* order).
    pub fn evaluate_with_table(&self, design: &Design, table: &RoutingTable) -> Evaluation {
        self.assemble(&self.terms(design, table, |_, _| {}))
    }

    /// Energy coefficient of `link`: its length times the per-unit energy.
    pub(crate) fn link_energy(&self, link: Link) -> f64 {
        link.length(&self.dims) * self.params.link_energy_per_unit
    }

    /// Energy coefficient of router `tile`: its port count in `topology`
    /// times the per-port energy.
    pub(crate) fn router_energy(&self, topology: &Topology, tile: TileId) -> f64 {
        self.params.router_energy_per_port * topology.degree(tile) as f64
    }

    /// Eq. (3)'s summand for one CPU–LLC pair of `cpu_pairs`.
    pub(crate) fn cpu_term(
        &self,
        design: &Design,
        table: &RoutingTable,
        (c, m, traffic): (usize, usize, f64),
    ) -> f64 {
        table.latency(design.placement.tile_of(c), design.placement.tile_of(m)) * traffic
    }

    /// Maps the power of the PEs on `tiles` onto `terms.power`, then
    /// re-solves the thermal model.
    pub(crate) fn set_power(
        &self,
        terms: &mut Terms,
        design: &Design,
        tiles: impl IntoIterator<Item = TileId>,
    ) {
        for t in tiles {
            let c = self.dims.coord(t);
            let stack = c.y * self.dims.nx() + c.x;
            terms.power.set(stack, c.z + 1, self.workload.pe_power(design.placement.pe_at(t)));
        }
        terms.thermal = self.thermal.thermal_objective(&terms.power);
        terms.peak_temperature = self.thermal.peak_temperature(&terms.power);
    }

    /// Every term of `design`'s objectives over `table`, which must have
    /// been built for `design.topology`. `on_link(flow, link)` observes
    /// each link of each flow's route, in flow order.
    pub(crate) fn terms(
        &self,
        design: &Design,
        table: &RoutingTable,
        mut on_link: impl FnMut(usize, usize),
    ) -> Terms {
        let topology = &design.topology;
        let link_energy: Vec<f64> = topology.links().iter().map(|&l| self.link_energy(l)).collect();
        let router_energy: Vec<f64> =
            self.dims.tile_ids().map(|t| self.router_energy(topology, t)).collect();
        let mut utilization = vec![0.0f64; topology.link_count()];
        let mut latency = Vec::with_capacity(self.flows.len());
        let mut energy = Vec::with_capacity(self.flows.len());
        for (fi, &(i, j, f)) in self.flows.iter().enumerate() {
            let (src, dst) = (design.placement.tile_of(i), design.placement.tile_of(j));
            let (lat, en) = flow_terms(table, src, dst, f, &link_energy, &router_energy, |k| {
                utilization[k] += f;
                on_link(fi, k);
            });
            latency.push(lat);
            energy.push(en);
        }
        let cpu = self.cpu_pairs.iter().map(|&pair| self.cpu_term(design, table, pair)).collect();
        let mut terms = Terms {
            latency,
            energy,
            utilization,
            link_energy,
            router_energy,
            cpu,
            power: PowerGrid::new(self.dims.nx(), self.dims.ny(), self.dims.layers()),
            thermal: 0.0,
            peak_temperature: 0.0,
        };
        self.set_power(&mut terms, design, self.dims.tile_ids());
        terms
    }

    /// Sums `terms` into the five objectives and the EDP summary: the one
    /// place the f64 accumulation order of every objective is decided
    /// (flow order, link order, pair order).
    pub(crate) fn assemble(&self, terms: &Terms) -> Evaluation {
        let links = terms.utilization.len() as f64;
        let weighted_latency: f64 = terms.latency.iter().sum();
        let energy: f64 = terms.energy.iter().sum();
        let mean_traffic = terms.utilization.iter().sum::<f64>() / links;
        let traffic_variance =
            terms.utilization.iter().map(|u| (u - mean_traffic).powi(2)).sum::<f64>() / links;
        // Eq. (3): CPU–LLC latency, traffic-weighted, normalized by C·M.
        // Degenerate mixes (no CPUs or no LLCs) have no CPU–LLC pairs at
        // all: the objective is 0 by definition, not 0/0.
        let pairs = self.cpu_pairs.len() as f64;
        let cpu_latency = if pairs > 0.0 { terms.cpu.iter().sum::<f64>() / pairs } else { 0.0 };
        let max_u = terms.utilization.iter().fold(0.0f64, |a, &b| a.max(b));
        Evaluation {
            mean_traffic,
            traffic_variance,
            cpu_latency,
            energy,
            thermal: terms.thermal,
            peak_temperature: terms.peak_temperature,
            network: NetworkStats {
                avg_packet_latency: if self.total_flow > 0.0 {
                    weighted_latency / self.total_flow
                } else {
                    0.0
                },
                max_link_utilization: max_u / self.params.link_capacity,
                network_energy_rate: energy,
                total_pe_power: self.total_pe_power,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::Placement;
    use crate::topology::Topology;
    use moela_thermal::ThermalParams;
    use moela_traffic::{Benchmark, PeMix};
    use rand::SeedableRng;

    fn evaluator(bench: Benchmark) -> Evaluator {
        let dims = GridDims::paper();
        let mix = PeMix::paper();
        let workload = Workload::synthesize(bench, mix, 5);
        let thermal = FastThermalModel::new(ThermalParams::uniform(4, 1.0, 0.5));
        Evaluator::new(dims, NocParams::paper(), workload, thermal)
    }

    fn mesh_design(ev: &Evaluator, seed: u64) -> Design {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Design::new(
            Placement::random(ev.dims(), ev.workload().mix(), &mut rng),
            Topology::mesh(ev.dims()),
        )
    }

    #[test]
    fn objective_sets_are_prefixes() {
        let ev = evaluator(Benchmark::Bp);
        let e = ev.evaluate(&mesh_design(&ev, 1));
        let five = e.objectives(ObjectiveSet::Five);
        assert_eq!(five.len(), 5);
        assert_eq!(&five[..3], e.objectives(ObjectiveSet::Three).as_slice());
        assert_eq!(&five[..4], e.objectives(ObjectiveSet::Four).as_slice());
    }

    #[test]
    fn all_objectives_are_finite_and_nonnegative() {
        for bench in Benchmark::ALL {
            let ev = evaluator(bench);
            let e = ev.evaluate(&mesh_design(&ev, 2));
            for (i, v) in e.objectives(ObjectiveSet::Five).iter().enumerate() {
                assert!(v.is_finite() && *v >= 0.0, "{bench} objective {i} = {v}");
            }
            assert!(e.peak_temperature > 0.0);
        }
    }

    #[test]
    fn mean_utilization_conserves_flit_hops() {
        // Σu_k = Σ_flows f·hops, so mean·L must equal that sum.
        let ev = evaluator(Benchmark::Hot);
        let d = mesh_design(&ev, 3);
        let table = RoutingTable::build(ev.dims(), &d.topology, ev.params());
        let mut flit_hops = 0.0;
        for (i, j, f) in ev.workload().flows() {
            flit_hops += f * table.hop_count(d.placement.tile_of(i), d.placement.tile_of(j)) as f64;
        }
        let e = ev.evaluate(&d);
        let total_u = e.mean_traffic * d.topology.link_count() as f64;
        assert!((total_u - flit_hops).abs() < 1e-6);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let ev = evaluator(Benchmark::Srad);
        let d = mesh_design(&ev, 4);
        assert_eq!(ev.evaluate(&d), ev.evaluate(&d));
    }

    #[test]
    fn every_evaluation_counts_one_routing_build_across_clones() {
        let ev = evaluator(Benchmark::Hot);
        let clone = ev.clone();
        for seed in 0..4 {
            let d = mesh_design(&ev, seed);
            let _ = ev.evaluate(&d);
            let _ = clone.evaluate(&d);
        }
        assert_eq!(ev.routing_rebuilds(), 8, "clones share one build counter");
    }

    fn degenerate_evaluator(mix: PeMix) -> Evaluator {
        let dims = GridDims::new(3, 3, 1);
        let workload = Workload::synthesize(Benchmark::Bfs, mix, 5);
        let thermal = FastThermalModel::new(ThermalParams::uniform(1, 1.0, 0.5));
        Evaluator::new(dims, NocParams::paper(), workload, thermal)
    }

    #[test]
    fn mix_without_cpus_defines_cpu_latency_as_zero() {
        let mix = PeMix::with_counts(0, 5, 4);
        let ev = degenerate_evaluator(mix);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let d = Design::new(Placement::random(ev.dims(), mix, &mut rng), Topology::mesh(ev.dims()));
        let e = ev.evaluate(&d);
        assert_eq!(e.cpu_latency, 0.0, "no CPU–LLC pairs: the objective is 0, not NaN");
        for (i, v) in e.objectives(ObjectiveSet::Five).iter().enumerate() {
            assert!(v.is_finite(), "objective {i} = {v}");
        }
    }

    #[test]
    fn mix_without_llcs_defines_cpu_latency_as_zero() {
        let mix = PeMix::with_counts(2, 7, 0);
        let ev = degenerate_evaluator(mix);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let d = Design::new(Placement::random(ev.dims(), mix, &mut rng), Topology::mesh(ev.dims()));
        let e = ev.evaluate(&d);
        assert_eq!(e.cpu_latency, 0.0);
        assert!(e.objectives(ObjectiveSet::Five).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn placing_cpus_next_to_llcs_lowers_latency() {
        let ev = evaluator(Benchmark::Sc);
        let dims = *ev.dims();
        let mix = ev.workload().mix();
        // Adversarial placement: CPUs in one far corner cluster, LLCs on
        // the opposite edge of the top layer.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let random = Design::new(Placement::random(&dims, mix, &mut rng), Topology::mesh(&dims));
        // Friendly placement: CPUs adjacent to the LLC edge tiles.
        let mut pe_of = vec![usize::MAX; dims.tiles()];
        // LLCs on the edge of layer 0 (16 LLCs fill layer 0's 12 edge tiles
        // plus 4 of layer 1's): place them on edge tiles of layers 0-1,
        // CPUs right beside them on layer 0 interior.
        let mut llcs = mix.ids_of(PeKind::Llc);
        let mut cpus = mix.ids_of(PeKind::Cpu);
        let mut gpus = mix.ids_of(PeKind::Gpu);
        for t in dims.tile_ids() {
            let c = dims.coord(t);
            let slot = &mut pe_of[t.0];
            if dims.is_edge(t) && c.z == 0 {
                if let Some(l) = llcs.next() {
                    *slot = l;
                    continue;
                }
            }
            if !dims.is_edge(t) && c.z == 0 {
                if let Some(cpu) = cpus.next() {
                    *slot = cpu;
                    continue;
                }
            }
            *slot = usize::MAX; // fill later
        }
        // Remaining LLCs go on layer-1 edges, everything else fills up.
        for t in dims.tile_ids() {
            if pe_of[t.0] != usize::MAX {
                continue;
            }
            if dims.is_edge(t) {
                if let Some(l) = llcs.next() {
                    pe_of[t.0] = l;
                    continue;
                }
            }
            if let Some(cpu) = cpus.next() {
                pe_of[t.0] = cpu;
            } else if let Some(g) = gpus.next() {
                pe_of[t.0] = g;
            }
        }
        let friendly = Design::new(Placement::from_pe_of(&dims, mix, pe_of), Topology::mesh(&dims));
        let lat_friendly = ev.evaluate(&friendly).cpu_latency;
        let lat_random = ev.evaluate(&random).cpu_latency;
        assert!(
            lat_friendly < lat_random,
            "co-location must reduce CPU latency ({lat_friendly} vs {lat_random})"
        );
    }

    #[test]
    fn network_stats_feed_the_edp_model() {
        let ev = evaluator(Benchmark::Bfs);
        let e = ev.evaluate(&mesh_design(&ev, 6));
        assert!(e.network.avg_packet_latency > 0.0);
        assert!(e.network.max_link_utilization > 0.0);
        assert!(e.network.total_pe_power > 0.0);
        let model = moela_traffic::edp::EdpModel::new(Benchmark::Bfs);
        assert!(model.edp(&e.network).is_finite());
    }

    #[test]
    fn stacking_hot_pes_vertically_raises_the_thermal_objective() {
        let ev = evaluator(Benchmark::Hot);
        let dims = *ev.dims();
        let mix = ev.workload().mix();
        // Identify the per-PE powers; craft two placements differing only
        // in vertical power stacking by sorting PEs by power.
        let mut pes: Vec<usize> = (0..mix.total()).collect();
        pes.sort_by(|&a, &b| ev.workload().pe_power(b).total_cmp(&ev.workload().pe_power(a)));
        // Hot placement: hottest PEs fill entire stacks (columns) first.
        // The LLC-edge constraint makes a fully sorted assignment
        // infeasible, so both placements start from the same feasible
        // baseline and we only reorder the *non-LLC* PEs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let base = Placement::random(&dims, mix, &mut rng);
        let non_llc_tiles: Vec<crate::geometry::TileId> =
            dims.tile_ids().filter(|&t| mix.kind(base.pe_at(t)) != PeKind::Llc).collect();
        let mut non_llc_pes: Vec<usize> = non_llc_tiles.iter().map(|&t| base.pe_at(t)).collect();
        non_llc_pes
            .sort_by(|&a, &b| ev.workload().pe_power(b).total_cmp(&ev.workload().pe_power(a)));
        // Column-major tile order stacks same-column tiles together.
        let mut column_major = non_llc_tiles.clone();
        column_major.sort_by_key(|&t| {
            let c = dims.coord(t);
            (c.x, c.y, c.z)
        });
        let mut pe_of_hot = base.pe_of().to_vec();
        for (&tile, &pe) in column_major.iter().zip(&non_llc_pes) {
            pe_of_hot[tile.0] = pe;
        }
        let hot = Design::new(Placement::from_pe_of(&dims, mix, pe_of_hot), Topology::mesh(&dims));
        // Balanced placement: alternate hot/cold through the stacks.
        let mut balanced_pes = Vec::with_capacity(non_llc_pes.len());
        let half = non_llc_pes.len() / 2;
        for i in 0..half {
            balanced_pes.push(non_llc_pes[i]);
            balanced_pes.push(non_llc_pes[non_llc_pes.len() - 1 - i]);
        }
        if non_llc_pes.len() % 2 == 1 {
            balanced_pes.push(non_llc_pes[half]);
        }
        let mut pe_of_bal = base.pe_of().to_vec();
        for (&tile, &pe) in column_major.iter().zip(&balanced_pes) {
            pe_of_bal[tile.0] = pe;
        }
        let balanced =
            Design::new(Placement::from_pe_of(&dims, mix, pe_of_bal), Topology::mesh(&dims));
        let t_hot = ev.evaluate(&hot).thermal;
        let t_bal = ev.evaluate(&balanced).thermal;
        assert!(
            t_hot > t_bal,
            "stacked hot columns must score worse thermally ({t_hot} vs {t_bal})"
        );
    }
}
