//! Deterministic shortest-path routing over a topology.
//!
//! The paper's objectives assume a fixed routing function: `p_ijk` (does
//! the `i→j` flow use link `k`) and `r_ijk` (does it pass router `k`) are
//! indicator functions of deterministic minimal paths. We route every pair
//! on the path minimizing end-to-end latency — `router_stages` per hop plus
//! length-proportional wire delay — with deterministic tie-breaking (lowest
//! tile id wins), so identical designs always evaluate identically.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::geometry::{GridDims, TileId};
use crate::link::Link;
use crate::params::NocParams;
use crate::topology::Topology;

/// All-pairs routing information for one topology.
#[derive(Clone, Debug)]
pub struct RoutingTable {
    n: usize,
    /// `parent[src][t] = (previous tile, link index)` on the best path
    /// from `src` to `t`; `None` at `t == src`.
    parent: Vec<Vec<Option<(TileId, usize)>>>,
    /// `cost[src][t]`: total latency of the best path (cycles).
    cost: Vec<Vec<f64>>,
    /// `hops[src][t]`: number of links on the best path.
    hops: Vec<Vec<u32>>,
    /// `wire_delay[src][t]`: total link traversal delay (cycles), the
    /// `d_ij` of eq. (3).
    wire_delay: Vec<Vec<f64>>,
}

impl RoutingTable {
    /// Computes minimal-latency routes for every ordered tile pair.
    ///
    /// # Panics
    ///
    /// Panics if the topology is disconnected (the §III connectivity
    /// constraint guarantees this never happens for feasible designs).
    pub fn build(dims: &GridDims, topology: &Topology, params: &NocParams) -> Self {
        Self::route(dims, topology, params, |_| None)
    }

    /// Builds the table for `topology` row by row: `kept(src)` may supply
    /// a source's row unchanged, every other row runs Dijkstra.
    fn route(
        dims: &GridDims,
        topology: &Topology,
        params: &NocParams,
        mut kept: impl FnMut(usize) -> Option<DijkstraOut>,
    ) -> Self {
        let n = dims.tiles();
        let link_cost: Vec<f64> = topology
            .links()
            .iter()
            .map(|l| params.router_stages + l.length(dims) * params.link_delay_per_unit)
            .collect();
        let link_delay: Vec<f64> =
            topology.links().iter().map(|l| l.length(dims) * params.link_delay_per_unit).collect();

        let mut parent = Vec::with_capacity(n);
        let mut cost = Vec::with_capacity(n);
        let mut hops = Vec::with_capacity(n);
        let mut wire = Vec::with_capacity(n);
        for src in 0..n {
            let (p, c, h, w) = kept(src).unwrap_or_else(|| {
                let row = dijkstra(src, n, topology, &link_cost, &link_delay);
                assert!(
                    row.1.iter().all(|v| v.is_finite()),
                    "topology must be connected before routing"
                );
                row
            });
            parent.push(p);
            cost.push(c);
            hops.push(h);
            wire.push(w);
        }
        Self { n, parent, cost, hops, wire_delay: wire }
    }

    /// End-to-end latency (cycles) of the `src → dst` route, per eq. (3):
    /// `r·h + d` (router stages per hop plus wire delay).
    pub fn latency(&self, src: TileId, dst: TileId) -> f64 {
        self.cost[src.0][dst.0]
    }

    /// Hop count `h_ij` of the route.
    pub fn hop_count(&self, src: TileId, dst: TileId) -> u32 {
        self.hops[src.0][dst.0]
    }

    /// Total wire delay `d_ij` of the route (cycles).
    pub fn wire_delay(&self, src: TileId, dst: TileId) -> f64 {
        self.wire_delay[src.0][dst.0]
    }

    /// The link indices of the route, destination-first order.
    pub fn path_links(&self, src: TileId, dst: TileId) -> Vec<usize> {
        let mut out = Vec::new();
        let mut t = dst;
        while let Some((prev, link)) = self.parent[src.0][t.0] {
            out.push(link);
            t = prev;
        }
        out
    }

    /// The link indices of the route in forwarding order (first element is
    /// the link leaving `src`). What a flit carries through the simulator.
    pub fn path_links_forward(&self, src: TileId, dst: TileId) -> Vec<usize> {
        let mut links = self.path_links(src, dst);
        links.reverse();
        links
    }

    /// Walks the route, calling `visit(link_idx, router_tile)` for every
    /// link and intermediate/destination router (the source router is
    /// reported last). This is the hot loop of objective evaluation — no
    /// allocation.
    pub fn walk_path(
        &self,
        src: TileId,
        dst: TileId,
        mut visit: impl FnMut(Option<usize>, TileId),
    ) {
        let mut t = dst;
        while let Some((prev, link)) = self.parent[src.0][t.0] {
            visit(Some(link), t);
            t = prev;
        }
        visit(None, src);
    }

    /// Number of tiles routed.
    pub fn tile_count(&self) -> usize {
        self.n
    }

    /// The per-source "row may change" mask for replacing the link at
    /// `victim_idx` with `new_link` (latency cost `new_cost`).
    ///
    /// A source's routes are provably unchanged by the rewire when
    /// (a) its shortest-path tree never crosses the removed link — removal
    /// can then neither raise a cost nor steal a chosen parent — and
    /// (b) the inserted link cannot complete a path that matches or beats
    /// an existing route: `cost[a] + new_cost > cost[b]` and symmetrically
    /// (ties count as affected because they can flip the deterministic
    /// lowest-id parent preference). Everything else is conservatively
    /// marked affected and re-routed from scratch.
    pub fn rewire_affected_sources(
        &self,
        victim_idx: usize,
        new_link: Link,
        new_cost: f64,
    ) -> Vec<bool> {
        let (a, b) = (new_link.a().0, new_link.b().0);
        (0..self.n)
            .map(|src| {
                let uses_victim =
                    self.parent[src].iter().any(|p| p.is_some_and(|(_, l)| l == victim_idx));
                let row = &self.cost[src];
                uses_victim || row[a] + new_cost <= row[b] || row[b] + new_cost <= row[a]
            })
            .collect()
    }

    /// Repairs this table — built for the pre-rewire topology — into the
    /// table for `new_topology`, rerunning Dijkstra only for the sources
    /// in `affected` (from [`RoutingTable::rewire_affected_sources`]) and
    /// cloning every other row. The result is bitwise identical to
    /// [`RoutingTable::build`] on `new_topology`.
    ///
    /// # Panics
    ///
    /// Panics if `new_topology` is disconnected or `affected` has fewer
    /// entries than there are tiles.
    pub fn repair_rewire(
        &self,
        dims: &GridDims,
        new_topology: &Topology,
        affected: &[bool],
        params: &NocParams,
    ) -> Self {
        Self::route(dims, new_topology, params, |src| {
            (!affected[src]).then(|| {
                let (p, c, h, w) = (&self.parent, &self.cost, &self.hops, &self.wire_delay);
                (p[src].clone(), c[src].clone(), h[src].clone(), w[src].clone())
            })
        })
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    tile: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (cost, tile id): reversed for BinaryHeap, with the
        // tile id as the deterministic tie-breaker.
        other
            .cost
            .partial_cmp(&self.cost)
            .expect("costs are finite")
            .then_with(|| other.tile.cmp(&self.tile))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

type DijkstraOut = (Vec<Option<(TileId, usize)>>, Vec<f64>, Vec<u32>, Vec<f64>);

fn dijkstra(
    src: usize,
    n: usize,
    topology: &Topology,
    link_cost: &[f64],
    link_delay: &[f64],
) -> DijkstraOut {
    let mut cost = vec![f64::INFINITY; n];
    let mut hops = vec![u32::MAX; n];
    let mut wire = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<(TileId, usize)>> = vec![None; n];
    let mut done = vec![false; n];
    cost[src] = 0.0;
    hops[src] = 0;
    wire[src] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapEntry { cost: 0.0, tile: src });
    while let Some(HeapEntry { cost: c, tile }) = heap.pop() {
        if done[tile] {
            continue;
        }
        done[tile] = true;
        for &(nb, link) in topology.neighbors(TileId(tile)) {
            let nc = c + link_cost[link];
            // Deterministic preference: strictly lower cost, or equal cost
            // through a lower-id predecessor.
            let better = nc < cost[nb.0]
                || (nc == cost[nb.0] && parent[nb.0].is_some_and(|(p, _)| tile < p.0));
            if better && !done[nb.0] {
                cost[nb.0] = nc;
                hops[nb.0] = hops[tile] + 1;
                wire[nb.0] = wire[tile] + link_delay[link];
                parent[nb.0] = Some((TileId(tile), link));
                heap.push(HeapEntry { cost: nc, tile: nb.0 });
            }
        }
    }
    (parent, cost, hops, wire)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::TileCoord;

    fn mesh_table() -> (GridDims, Topology, RoutingTable) {
        let dims = GridDims::paper();
        let topo = Topology::mesh(&dims);
        let table = RoutingTable::build(&dims, &topo, &NocParams::paper());
        (dims, topo, table)
    }

    #[test]
    fn self_routes_are_empty() {
        let (dims, _, table) = mesh_table();
        let t = dims.tile(TileCoord { x: 2, y: 2, z: 1 });
        assert_eq!(table.latency(t, t), 0.0);
        assert_eq!(table.hop_count(t, t), 0);
        assert!(table.path_links(t, t).is_empty());
    }

    #[test]
    fn mesh_routes_have_manhattan_hop_counts() {
        let (dims, _, table) = mesh_table();
        let a = dims.tile(TileCoord { x: 0, y: 0, z: 0 });
        let b = dims.tile(TileCoord { x: 3, y: 2, z: 1 });
        // Mesh: minimal hops = |dx|+|dy|+|dz| = 6, all links length 1.
        assert_eq!(table.hop_count(a, b), 6);
        let p = NocParams::paper();
        let want = 6.0 * (p.router_stages + p.link_delay_per_unit);
        assert!((table.latency(a, b) - want).abs() < 1e-9);
        assert!((table.wire_delay(a, b) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn paths_are_contiguous_and_match_hop_counts() {
        let (_dims, topo, table) = mesh_table();
        for s in [0usize, 17, 42] {
            for d in [5usize, 33, 63] {
                let links = table.path_links(TileId(s), TileId(d));
                assert_eq!(links.len() as u32, table.hop_count(TileId(s), TileId(d)));
                // Walk from dst back to src, checking each link touches the
                // current tile.
                let mut t = TileId(d);
                for &li in &links {
                    let l = topo.links()[li];
                    t = l.other(t);
                }
                assert_eq!(t, TileId(s));
            }
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let (dims, topo, _) = mesh_table();
        let t1 = RoutingTable::build(&dims, &topo, &NocParams::paper());
        let t2 = RoutingTable::build(&dims, &topo, &NocParams::paper());
        for s in 0..dims.tiles() {
            for d in 0..dims.tiles() {
                assert_eq!(
                    t1.path_links(TileId(s), TileId(d)),
                    t2.path_links(TileId(s), TileId(d))
                );
            }
        }
    }

    #[test]
    fn express_links_shorten_routes() {
        // A 1×6 line plus one express link from 0 to 5.
        let dims = GridDims::new(6, 1, 1);
        let mut links: Vec<crate::link::Link> =
            (0..5).map(|i| crate::link::Link::new(TileId(i), TileId(i + 1))).collect();
        links.push(crate::link::Link::new(TileId(0), TileId(5)));
        let topo = Topology::from_links(&dims, links);
        let table = RoutingTable::build(&dims, &topo, &NocParams::paper());
        // Express: 1 hop, length 5 ⇒ 3 + 5 = 8; line: 5 hops ⇒ 5·4 = 20.
        assert_eq!(table.hop_count(TileId(0), TileId(5)), 1);
        assert!((table.latency(TileId(0), TileId(5)) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn walk_path_visits_every_link_and_router() {
        let (dims, _, table) = mesh_table();
        let a = dims.tile(TileCoord { x: 0, y: 0, z: 0 });
        let b = dims.tile(TileCoord { x: 2, y: 0, z: 0 });
        let mut links = 0;
        let mut routers = 0;
        table.walk_path(a, b, |l, _| {
            if l.is_some() {
                links += 1;
            }
            routers += 1;
        });
        assert_eq!(links, 2);
        assert_eq!(routers, 3, "source, intermediate, destination");
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn disconnected_topology_panics() {
        let dims = GridDims::new(2, 1, 1);
        let topo = Topology::from_links(&dims, Vec::new());
        RoutingTable::build(&dims, &topo, &NocParams::paper());
    }
}
