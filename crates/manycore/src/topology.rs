//! NoC topologies: link sets with adjacency, connectivity and degree
//! checking, and constrained random construction.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::geometry::{GridDims, TileCoord, TileId};
use crate::link::{planar_candidates, vertical_candidates, Link, LinkKind};

/// A topology: an undirected link set over the tiles of a grid, with
/// adjacency lists for traversal.
///
/// Invariants maintained by every constructor and mutator:
/// * no duplicate links;
/// * every link is feasible (planar length bound, TSV adjacency);
/// * no router exceeds the degree bound **when built through
///   [`TopologyBuilder`] or mutated with the degree-checked methods**.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    links: Vec<Link>,
    /// adjacency[tile] = (neighbor tile, index into `links`).
    adjacency: Vec<Vec<(TileId, usize)>>,
}

impl Topology {
    /// Builds a topology from a link list.
    ///
    /// # Panics
    ///
    /// Panics if the list contains duplicates or an endpoint outside the
    /// grid.
    pub fn from_links(dims: &GridDims, links: Vec<Link>) -> Self {
        let mut adjacency = vec![Vec::new(); dims.tiles()];
        for (idx, link) in links.iter().enumerate() {
            assert!(link.b().0 < dims.tiles(), "link endpoint {} outside the grid", link.b());
            adjacency[link.a().0].push((link.b(), idx));
            adjacency[link.b().0].push((link.a(), idx));
        }
        let mut sorted = links.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), links.len(), "duplicate links in topology");
        Self { links, adjacency }
    }

    /// The canonical 3D-mesh topology: all unit-length planar neighbors
    /// plus every TSV position — the paper's link-budget reference.
    pub fn mesh(dims: &GridDims) -> Self {
        let mut links = Vec::new();
        for t in dims.tile_ids() {
            let c = dims.coord(t);
            if c.x + 1 < dims.nx() {
                links.push(Link::new(t, dims.tile(TileCoord { x: c.x + 1, ..c })));
            }
            if c.y + 1 < dims.ny() {
                links.push(Link::new(t, dims.tile(TileCoord { y: c.y + 1, ..c })));
            }
            if c.z + 1 < dims.layers() {
                links.push(Link::new(t, dims.tile(TileCoord { z: c.z + 1, ..c })));
            }
        }
        Self::from_links(dims, links)
    }

    /// The links, in insertion order (the `k` index of eqs. (1)–(4)).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of links of `kind`.
    pub fn count_kind(&self, dims: &GridDims, kind: LinkKind) -> usize {
        self.links.iter().filter(|l| l.kind(dims) == kind).count()
    }

    /// Degree (number of attached links) of `tile`'s router.
    pub fn degree(&self, tile: TileId) -> usize {
        self.adjacency[tile.0].len()
    }

    /// Maximum router degree in the topology.
    pub fn max_degree(&self) -> usize {
        self.adjacency.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Neighbors of `tile` with the connecting link index.
    pub fn neighbors(&self, tile: TileId) -> &[(TileId, usize)] {
        &self.adjacency[tile.0]
    }

    /// `true` if the topology already contains `link`.
    pub fn contains(&self, link: Link) -> bool {
        self.adjacency[link.a().0].iter().any(|&(nb, _)| nb == link.b())
    }

    /// `true` if every tile can reach every other tile.
    pub fn is_connected(&self) -> bool {
        let n = self.adjacency.len();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(t) = stack.pop() {
            for &(nb, _) in &self.adjacency[t] {
                if !seen[nb.0] {
                    seen[nb.0] = true;
                    count += 1;
                    stack.push(nb.0);
                }
            }
        }
        count == n
    }

    /// `true` if removing `link_idx` would disconnect the network (i.e.
    /// the link is a bridge).
    ///
    /// # Panics
    ///
    /// Panics if `link_idx` is out of range.
    pub fn is_bridge(&self, link_idx: usize) -> bool {
        let link = self.links[link_idx];
        // BFS from link.a avoiding the link; if link.b is unreachable the
        // link is a bridge.
        let mut seen = vec![false; self.adjacency.len()];
        let mut stack = vec![link.a().0];
        seen[link.a().0] = true;
        while let Some(t) = stack.pop() {
            for &(nb, idx) in &self.adjacency[t] {
                if idx == link_idx || seen[nb.0] {
                    continue;
                }
                if nb == link.b() {
                    return false;
                }
                seen[nb.0] = true;
                stack.push(nb.0);
            }
        }
        true
    }

    /// Replaces the link at `link_idx` with `new_link`, rebuilding
    /// adjacency. The caller is responsible for feasibility/degree checks
    /// (see [`crate::moves`] for the checked mutation operators).
    ///
    /// # Panics
    ///
    /// Panics if `new_link` already exists elsewhere in the topology.
    pub fn replace_link(&mut self, link_idx: usize, new_link: Link) {
        let old = self.links[link_idx];
        if old == new_link {
            return;
        }
        assert!(!self.contains(new_link), "topology already contains {new_link:?}");
        self.adjacency[old.a().0].retain(|&(_, idx)| idx != link_idx);
        self.adjacency[old.b().0].retain(|&(_, idx)| idx != link_idx);
        self.links[link_idx] = new_link;
        self.adjacency[new_link.a().0].push((new_link.b(), link_idx));
        self.adjacency[new_link.b().0].push((new_link.a(), link_idx));
    }
}

/// Errors produced when a constrained topology cannot be built.
#[derive(Clone, Debug, Eq, PartialEq)]
pub enum BuildTopologyError {
    /// The link budgets cannot connect all tiles even in the best case.
    BudgetTooSmall {
        /// Links needed for a spanning tree.
        needed: usize,
        /// Total planar + vertical budget.
        available: usize,
    },
    /// Randomized construction failed repeatedly (degenerate constraint
    /// combination).
    ConstructionFailed,
}

impl std::fmt::Display for BuildTopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildTopologyError::BudgetTooSmall { needed, available } => {
                write!(f, "link budget {available} cannot span {needed}+1 tiles")
            }
            BuildTopologyError::ConstructionFailed => {
                write!(f, "randomized topology construction failed under the constraints")
            }
        }
    }
}

impl std::error::Error for BuildTopologyError {}

/// Constrained random-topology construction.
#[derive(Clone, Debug)]
pub struct TopologyBuilder {
    dims: GridDims,
    planar_budget: usize,
    vertical_budget: usize,
    max_planar_length: usize,
    max_degree: usize,
    planar_pool: Vec<Link>,
    vertical_pool: Vec<Link>,
}

impl TopologyBuilder {
    /// A builder for `dims` with the given link budgets and §III bounds.
    pub fn new(
        dims: GridDims,
        planar_budget: usize,
        vertical_budget: usize,
        max_planar_length: usize,
        max_degree: usize,
    ) -> Self {
        Self {
            dims,
            planar_budget,
            vertical_budget,
            max_planar_length,
            max_degree,
            planar_pool: planar_candidates(&dims, max_planar_length),
            vertical_pool: vertical_candidates(&dims),
        }
    }

    /// The feasible planar candidates.
    pub fn planar_pool(&self) -> &[Link] {
        &self.planar_pool
    }

    /// The planar length bound this builder enforces.
    pub fn max_planar_length(&self) -> usize {
        self.max_planar_length
    }

    /// The feasible TSV candidates.
    pub fn vertical_pool(&self) -> &[Link] {
        &self.vertical_pool
    }

    /// Generates a random feasible topology: a randomized spanning
    /// structure first (guaranteeing connectivity), then random links until
    /// both budgets are exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`BuildTopologyError::BudgetTooSmall`] when budgets cannot
    /// span the grid, [`BuildTopologyError::ConstructionFailed`] when the
    /// constraint combination defeats repeated randomized attempts.
    pub fn random(&self, rng: &mut impl Rng) -> Result<Topology, BuildTopologyError> {
        let n = self.dims.tiles();
        let budget = self.planar_budget + self.vertical_budget;
        if budget < n - 1 {
            return Err(BuildTopologyError::BudgetTooSmall { needed: n - 1, available: budget });
        }
        for _attempt in 0..32 {
            if let Some(t) = self.try_random(rng) {
                return Ok(t);
            }
        }
        Err(BuildTopologyError::ConstructionFailed)
    }

    /// Builds a connectivity-preserving topology from a preferred link pool
    /// (used by crossover: the union of two parents' links), topping up
    /// from the full candidate pools if the preferred pool cannot fill the
    /// budgets.
    pub fn from_preferred(
        &self,
        preferred: &[Link],
        rng: &mut impl Rng,
    ) -> Result<Topology, BuildTopologyError> {
        let mut pref = preferred.to_vec();
        pref.shuffle(rng);
        for _attempt in 0..32 {
            if let Some(t) = self.try_assemble(&pref, rng) {
                return Ok(t);
            }
            pref.shuffle(rng);
        }
        Err(BuildTopologyError::ConstructionFailed)
    }

    fn try_random(&self, rng: &mut impl Rng) -> Option<Topology> {
        let mut pool: Vec<Link> =
            self.planar_pool.iter().chain(self.vertical_pool.iter()).copied().collect();
        pool.shuffle(rng);
        self.try_assemble(&pool, rng)
    }

    /// Assembly from `ordered` (already shuffled): TSVs first (their
    /// budget may require every candidate, so planar links must not steal
    /// router degree beforehand), then a Kruskal-style planar spanning
    /// phase, then budget fill — preferring `ordered`, topping up from the
    /// full pools.
    fn try_assemble(&self, ordered: &[Link], rng: &mut impl Rng) -> Option<Topology> {
        let n = self.dims.tiles();
        let mut st = Assembly {
            dims: self.dims,
            max_degree: self.max_degree,
            uf: UnionFind::new(n),
            degree: vec![0usize; n],
            planar_left: self.planar_budget,
            vertical_left: self.vertical_budget,
            chosen: Vec::with_capacity(self.planar_budget + self.vertical_budget),
            chosen_set: std::collections::HashSet::new(),
        };

        // Phase 0: vertical links, preferred first.
        for &link in ordered.iter().filter(|l| l.kind(&self.dims) == LinkKind::Vertical) {
            if st.vertical_left == 0 {
                break;
            }
            st.admit(link, false);
        }
        if st.vertical_left > 0 {
            let mut pool = self.vertical_pool.clone();
            pool.shuffle(rng);
            for link in pool {
                if st.vertical_left == 0 {
                    break;
                }
                st.admit(link, false);
            }
        }
        if st.vertical_left > 0 {
            return None;
        }

        // Phase 1: spanning structure from the ordered pool, then the full
        // planar pool.
        for &link in ordered {
            if st.uf.components() == 1 {
                break;
            }
            st.admit(link, true);
        }
        if st.uf.components() != 1 {
            let mut pool = self.planar_pool.clone();
            pool.shuffle(rng);
            for link in pool {
                if st.uf.components() == 1 {
                    break;
                }
                st.admit(link, true);
            }
        }
        if st.uf.components() != 1 {
            return None;
        }

        // Phase 2: budget fill — preferred pool first, then everything.
        for &link in ordered {
            if st.planar_left == 0 {
                break;
            }
            st.admit(link, false);
        }
        if st.planar_left > 0 {
            let mut pool = self.planar_pool.clone();
            pool.shuffle(rng);
            for link in pool {
                if st.planar_left == 0 {
                    break;
                }
                st.admit(link, false);
            }
        }
        if st.planar_left > 0 {
            // Degree caps blocked full budget use; retry with a new shuffle.
            return None;
        }
        Some(Topology::from_links(&self.dims, st.chosen))
    }
}

/// Mutable state of one assembly attempt.
struct Assembly {
    dims: GridDims,
    max_degree: usize,
    uf: UnionFind,
    degree: Vec<usize>,
    planar_left: usize,
    vertical_left: usize,
    chosen: Vec<Link>,
    chosen_set: std::collections::HashSet<Link>,
}

impl Assembly {
    fn admit(&mut self, link: Link, spanning_only: bool) -> bool {
        if self.chosen_set.contains(&link) {
            return false;
        }
        let budget = match link.kind(&self.dims) {
            LinkKind::Planar => &mut self.planar_left,
            LinkKind::Vertical => &mut self.vertical_left,
        };
        if *budget == 0 {
            return false;
        }
        if self.degree[link.a().0] >= self.max_degree || self.degree[link.b().0] >= self.max_degree
        {
            return false;
        }
        if spanning_only && self.uf.find(link.a().0) == self.uf.find(link.b().0) {
            return false;
        }
        let budget = match link.kind(&self.dims) {
            LinkKind::Planar => &mut self.planar_left,
            LinkKind::Vertical => &mut self.vertical_left,
        };
        *budget -= 1;
        self.uf.union(link.a().0, link.b().0);
        self.degree[link.a().0] += 1;
        self.degree[link.b().0] += 1;
        self.chosen_set.insert(link);
        self.chosen.push(link);
        true
    }
}

#[derive(Clone, Debug)]
struct UnionFind {
    parent: Vec<usize>,
    components: usize,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self { parent: (0..n).collect(), components: n }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[ra] = rb;
            self.components -= 1;
        }
    }

    fn components(&self) -> usize {
        self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(31)
    }

    fn paper_builder() -> TopologyBuilder {
        TopologyBuilder::new(GridDims::paper(), 96, 48, 5, 7)
    }

    #[test]
    fn mesh_uses_exactly_the_paper_budget() {
        let g = GridDims::paper();
        let mesh = Topology::mesh(&g);
        assert_eq!(mesh.count_kind(&g, LinkKind::Planar), 96);
        assert_eq!(mesh.count_kind(&g, LinkKind::Vertical), 48);
        assert!(mesh.is_connected());
        assert!(mesh.max_degree() <= 7);
    }

    #[test]
    fn random_topologies_satisfy_every_constraint() {
        let b = paper_builder();
        let g = GridDims::paper();
        let mut r = rng();
        for _ in 0..10 {
            let t = b.random(&mut r).expect("paper budgets are generous");
            assert_eq!(t.count_kind(&g, LinkKind::Planar), 96);
            assert_eq!(t.count_kind(&g, LinkKind::Vertical), 48);
            assert!(t.is_connected());
            assert!(t.max_degree() <= 7, "degree {}", t.max_degree());
            for l in t.links() {
                assert!(l.is_feasible(&g, 5));
            }
            // No duplicates by construction.
            let mut set = t.links().to_vec();
            set.sort_unstable();
            set.dedup();
            assert_eq!(set.len(), t.link_count());
        }
    }

    #[test]
    fn random_topologies_differ_between_draws() {
        let b = paper_builder();
        let mut r = rng();
        let t1 = b.random(&mut r).expect("builds");
        let t2 = b.random(&mut r).expect("builds");
        assert_ne!(t1.links(), t2.links());
    }

    #[test]
    fn insufficient_budget_is_reported() {
        let b = TopologyBuilder::new(GridDims::paper(), 10, 10, 5, 7);
        match b.random(&mut rng()) {
            Err(BuildTopologyError::BudgetTooSmall { needed, available }) => {
                assert_eq!(needed, 63);
                assert_eq!(available, 20);
            }
            other => panic!("expected BudgetTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn bridge_detection_on_a_path() {
        let g = GridDims::new(3, 1, 1);
        let t = Topology::from_links(
            &g,
            vec![Link::new(TileId(0), TileId(1)), Link::new(TileId(1), TileId(2))],
        );
        assert!(t.is_bridge(0));
        assert!(t.is_bridge(1));
        let tri = Topology::from_links(
            &g,
            vec![
                Link::new(TileId(0), TileId(1)),
                Link::new(TileId(1), TileId(2)),
                Link::new(TileId(0), TileId(2)),
            ],
        );
        assert!(!tri.is_bridge(0));
        assert!(!tri.is_bridge(2));
    }

    #[test]
    fn replace_link_rewires_adjacency() {
        let g = GridDims::new(3, 1, 1);
        let mut t = Topology::from_links(
            &g,
            vec![Link::new(TileId(0), TileId(1)), Link::new(TileId(1), TileId(2))],
        );
        t.replace_link(0, Link::new(TileId(0), TileId(2)));
        assert!(t.contains(Link::new(TileId(0), TileId(2))));
        assert!(!t.contains(Link::new(TileId(0), TileId(1))));
        assert!(t.is_connected());
        assert_eq!(t.degree(TileId(1)), 1);
        assert_eq!(t.degree(TileId(2)), 2);
    }

    #[test]
    fn from_preferred_keeps_most_parent_links() {
        let b = paper_builder();
        let mut r = rng();
        let parent = b.random(&mut r).expect("builds");
        let child = b.from_preferred(parent.links(), &mut r).expect("builds");
        let parent_set: std::collections::HashSet<_> = parent.links().iter().collect();
        let kept = child.links().iter().filter(|l| parent_set.contains(l)).count();
        // The preferred pool covers the whole budget, so nearly all links
        // survive (degree-cap interactions may drop a few).
        assert!(kept as f64 >= 0.9 * child.link_count() as f64, "kept {kept}");
    }

    #[test]
    #[should_panic(expected = "duplicate links")]
    fn duplicate_links_panic() {
        let g = GridDims::new(2, 1, 1);
        Topology::from_links(
            &g,
            vec![Link::new(TileId(0), TileId(1)), Link::new(TileId(1), TileId(0))],
        );
    }
}
