//! The flat octree representation and its queries.

use polar_geom::{Aabb, RigidTransform, Vec3};

/// Index of a node in [`Octree::nodes`]. The root is always node 0.
pub type NodeId = u32;

/// One octree node, in DFS pre-order: a node's first child is `id + 1`,
/// children ascend in octant order, and every subtree is the id range
/// `id..skip`. That order is the whole topology: the recursions reach
/// children through [`Octree::children`], and the plan engine's
/// stackless walk steps to `id + 1` or jumps to `skip` in place.
///
/// `center`/`radius` define the enclosing ball used by the well-separated
/// predicate: `center` is the *geometric centroid* of the points under the
/// node (the paper's pseudo-particle position) and `radius` is the radius
/// of the smallest centroid-centered ball enclosing them (Fig. 2's `r_A`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OctreeNode {
    /// Geometric centroid of the points under this node.
    pub center: Vec3,
    /// Max distance from `center` to any point under this node.
    pub radius: f64,
    /// Start of this node's contiguous range in the permuted point array.
    pub start: u32,
    /// One past the end of the range.
    pub end: u32,
    /// Id one past the node's subtree: the next node in pre-order that is
    /// not a descendant (`id + 1` for a leaf).
    pub skip: NodeId,
    /// Depth (root = 0).
    pub depth: u8,
    /// Leaf flag (leaves own their points; internal nodes delegate).
    pub is_leaf: bool,
}

// Every `T_A`/`T_Q` node is replicated on every rank and read once per
// step of the planner's walk: the record stays one 48-byte load.
const _: () = assert!(std::mem::size_of::<OctreeNode>() == 48);

impl OctreeNode {
    /// Number of points under this node.
    #[inline]
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Displacement summary returned by [`Octree::refresh_delta`]: how far
/// points, centroids and enclosing radii moved during an in-place
/// refresh. Incremental re-planning uses the global maxima to bound how
/// much any separation-test margin can have eroded, and the per-leaf
/// displacements / dirty set to decide what to rebuild locally.
#[derive(Debug, Clone, Default)]
pub struct RefreshDelta {
    /// Largest single-point displacement anywhere in the tree (Å),
    /// measured against the coordinates of the *previous* refresh.
    pub max_point_disp: f64,
    /// Largest centroid shift over all rescanned nodes (Å). Zero when
    /// every leaf stayed within its drift tolerance (nothing rescanned).
    pub max_center_shift: f64,
    /// Largest |enclosing-radius change| over all rescanned nodes (Å).
    pub max_radius_delta: f64,
    /// Largest accumulated drift of any still-frozen leaf after this
    /// refresh (Å) — how stale the frozen centroids/radii are, bounded
    /// by the caller's tolerance.
    pub max_drift: f64,
    /// Max point displacement per leaf, indexed like [`Octree::leaves`].
    pub leaf_disp: Vec<f64>,
    /// Leaf *indices* (into [`Octree::leaves`]) whose accumulated drift
    /// exceeded the caller's tolerance, forcing their (and their
    /// ancestors') centroid/radius to be recomputed this refresh.
    pub dirty_leaves: Vec<u32>,
    /// Nodes whose centroid/radius were actually recomputed.
    pub nodes_rescanned: usize,
}

/// A flat octree over a set of points.
///
/// Built with [`crate::build::OctreeConfig::build`]. Points are stored
/// permuted into Morton order; `order[i]` maps slot `i` back to the
/// caller's original point index so per-point payloads (charges, weights,
/// normals) stay in the caller's arrays.
#[derive(Debug, Clone)]
pub struct Octree {
    /// Nodes in DFS pre-order (see [`OctreeNode`]).
    pub(crate) nodes: Vec<OctreeNode>,
    /// Permuted point positions (Morton order).
    pub(crate) points: Vec<Vec3>,
    /// `order[slot] = original index`.
    pub(crate) order: Vec<u32>,
    /// Leaf node ids in left-to-right (Morton) order.
    pub(crate) leaves: Vec<NodeId>,
    /// Spatial cell of each leaf, indexed like `leaves` (loose after a
    /// rigid transform). Only [`Octree::refresh_delta`]'s containment
    /// test reads them; the traversals use `center` + `radius`.
    pub(crate) leaf_cells: Vec<Aabb>,
    /// Per-leaf accumulated point drift (Å) since that leaf's geometry
    /// (centroid/enclosing radius) was last recomputed, indexed like
    /// `leaves`. [`Octree::refresh_delta`] keeps a leaf's stored
    /// geometry bitwise-frozen while this stays within the caller's
    /// tolerance — the delta-tolerant reuse model: frozen nodes cannot
    /// flip separation tests, at the cost of node geometry being stale
    /// by at most the tolerance.
    pub(crate) leaf_drift: Vec<f64>,
}

impl Octree {
    /// The root node id (0). Valid for non-empty trees.
    pub const ROOT: NodeId = 0;

    #[inline]
    pub fn node(&self, id: NodeId) -> &OctreeNode {
        &self.nodes[id as usize]
    }

    /// All nodes (index = node id).
    #[inline]
    pub fn nodes(&self) -> &[OctreeNode] {
        &self.nodes
    }

    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of points in the tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Leaf node ids in Morton order — the unit of the paper's *node-based
    /// work division* (leaf segments are assigned to ranks).
    #[inline]
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// The children of `id` in octant order: `id + 1`, then each child's
    /// `skip`, until the walk reaches the parent's own `skip`. Empty for
    /// a leaf.
    #[inline]
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let end = self.nodes[id as usize].skip;
        let inside = move |c: NodeId| Some(c).filter(|&c| c < end);
        std::iter::successors(inside(id + 1), move |&c| {
            inside(self.nodes[c as usize].skip)
        })
    }

    /// Positions (Morton-permuted) in the node's range.
    #[inline]
    pub fn points_in(&self, id: NodeId) -> &[Vec3] {
        let n = self.node(id);
        &self.points[n.start as usize..n.end as usize]
    }

    /// Original point indices in the node's range, aligned with
    /// [`Octree::points_in`].
    #[inline]
    pub fn indices_in(&self, id: NodeId) -> &[u32] {
        let n = self.node(id);
        &self.order[n.start as usize..n.end as usize]
    }

    /// The full permutation (`slot → original index`).
    #[inline]
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// All permuted points.
    #[inline]
    pub fn points(&self) -> &[Vec3] {
        &self.points
    }

    /// Maximum leaf depth.
    pub fn depth(&self) -> u8 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Heap footprint in bytes (nodes + points + permutation + leaf list
    /// and its per-leaf cells and drift).
    /// Used by the octree-vs-nblist memory experiment: this is *independent
    /// of any cutoff or approximation parameter*.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<OctreeNode>()
            + self.points.len() * std::mem::size_of::<Vec3>()
            + self.order.len() * std::mem::size_of::<u32>()
            + self.leaves.len() * std::mem::size_of::<NodeId>()
            + self.leaf_cells.len() * std::mem::size_of::<Aabb>()
            + self.leaf_drift.len() * std::mem::size_of::<f64>()
    }

    /// Worst accumulated drift of any leaf (Å) — how stale the stored
    /// node geometry can be after delta-tolerant refreshes.
    pub fn max_drift(&self) -> f64 {
        self.leaf_drift.iter().copied().fold(0.0, f64::max)
    }

    /// Bottom-up per-node aggregation (the pseudo-particle builder).
    ///
    /// `leaf_val(original_index, pos)` produces each point's contribution;
    /// `combine` must be associative. Returns one `T` per node, indexed by
    /// node id. Example: the paper's pseudo-q-point `ñ_Q = Σ w_q·n_q` or a
    /// node's total charge `q_U`.
    pub fn aggregate<T, F, G>(&self, identity: T, mut leaf_val: F, mut combine: G) -> Vec<T>
    where
        T: Clone,
        F: FnMut(u32, Vec3) -> T,
        G: FnMut(&T, &T) -> T,
    {
        let mut out: Vec<T> = vec![identity.clone(); self.nodes.len()];
        // Children always have larger ids than parents (construction is
        // pre-order), so a reverse scan is a valid post-order fold.
        for id in (0..self.nodes.len()).rev() {
            let node = self.nodes[id];
            let mut acc = identity.clone();
            if node.is_leaf {
                for (slot, &orig) in self.order[node.start as usize..node.end as usize]
                    .iter()
                    .enumerate()
                {
                    let pos = self.points[node.start as usize + slot];
                    let v = leaf_val(orig, pos);
                    acc = combine(&acc, &v);
                }
            } else {
                for c in self.children(id as NodeId) {
                    acc = combine(&acc, &out[c as usize]);
                }
            }
            out[id] = acc;
        }
        out
    }

    /// A rigidly transformed copy: all centroids and points are mapped;
    /// enclosing radii are invariant; leaf cells become loose boxes of the
    /// transformed corners (traversal only uses center + radius).
    ///
    /// This is the paper's docking optimization (§IV.C): "we can move the
    /// same octree to different positions or rotate it as needed by
    /// multiplying with proper transformation matrices".
    pub fn transformed(&self, xf: &RigidTransform) -> Octree {
        let nodes = self
            .nodes
            .iter()
            .map(|n| OctreeNode {
                center: xf.apply_point(n.center),
                ..*n
            })
            .collect();
        let leaf_cells = self
            .leaf_cells
            .iter()
            .map(|c| {
                let corners = [
                    c.min,
                    Vec3::new(c.max.x, c.min.y, c.min.z),
                    Vec3::new(c.min.x, c.max.y, c.min.z),
                    Vec3::new(c.min.x, c.min.y, c.max.z),
                    Vec3::new(c.max.x, c.max.y, c.min.z),
                    Vec3::new(c.max.x, c.min.y, c.max.z),
                    Vec3::new(c.min.x, c.max.y, c.max.z),
                    c.max,
                ];
                Aabb::from_points(corners.into_iter().map(|c| xf.apply_point(c)))
            })
            .collect();
        Octree {
            nodes,
            points: self.points.iter().map(|&p| xf.apply_point(p)).collect(),
            order: self.order.clone(),
            leaves: self.leaves.clone(),
            leaf_cells,
            leaf_drift: self.leaf_drift.clone(),
        }
    }

    /// Refresh point coordinates in place after small motion — the
    /// flexible-molecule maintenance mode of the paper's companion work
    /// \[8\] ("Space-efficient maintenance of nonbonded lists for
    /// flexible molecules using dynamic octrees"), with a drift-tolerant
    /// dirty pass — the core of delta-tolerant plan reuse. The tree
    /// *structure* (permutation, ranges, cells) is kept.
    ///
    /// Validity requires every point to remain inside its leaf's spatial
    /// cell (padded by `slack` Å, the octree analogue of a Verlet skin).
    /// If any point escaped, `Err(escaped_count)` is returned and the
    /// tree is left *unchanged* — the caller should rebuild, exactly as
    /// an nblist rebuilds when the skin is violated. `positions` must be
    /// in original index order. Only valid for trees that have not been
    /// rigidly transformed (transformed cell bounds are loose).
    ///
    /// Node geometry is only recomputed where motion has *accumulated*:
    /// each leaf carries the total point drift since its centroid/radius
    /// were last recomputed, and while that drift stays within
    /// `tolerance` the leaf's (and its untouched ancestors') stored
    /// centroid and enclosing radius are kept **bitwise frozen**. A frozen
    /// node presents identical inputs to every separation test, so no
    /// test involving only frozen nodes can flip — which is what lets an
    /// [`InteractionPlan`](../../polar_gb/plan) patch a moving frame
    /// without re-running any traversal. The price is bounded staleness:
    /// a frozen node's geometry describes coordinates up to `tolerance` Å
    /// old (its true enclosing radius may exceed the stored one by the
    /// drift), degrading the far-field approximation by `O(tolerance)`
    /// while leaving near-field arithmetic — which reads actual point
    /// coordinates, refreshed here unconditionally — exact.
    ///
    /// A leaf whose accumulated drift exceeds `tolerance` is rescanned
    /// exactly (resetting its drift to zero), together with every
    /// ancestor on its path. `tolerance == 0.0` recovers the exact
    /// refresh: every moved leaf rescans and stored geometry never goes
    /// stale, even after earlier tolerant refreshes.
    ///
    /// The returned [`RefreshDelta`] reports per-leaf displacement, the
    /// recomputed (dirty) leaf set, the worst surviving drift, and the
    /// global worst-case centroid shift / enclosing-radius change — the
    /// inputs incremental re-planning needs to prove which separation
    /// tests cannot have flipped. On a frame where nothing crosses the
    /// tolerance, `max_center_shift` and `max_radius_delta` are exactly
    /// zero: the plan's margins provably cannot have eroded at all.
    pub fn refresh_delta(
        &mut self,
        positions: &[Vec3],
        slack: f64,
        tolerance: f64,
    ) -> Result<RefreshDelta, usize> {
        assert_eq!(positions.len(), self.len(), "position count changed");
        assert!(slack >= 0.0);
        assert!(tolerance >= 0.0);
        // Pass 1: validate containment before touching anything.
        let mut escaped = 0usize;
        for (&leaf, cell) in self.leaves.iter().zip(&self.leaf_cells) {
            let node = &self.nodes[leaf as usize];
            let cell = cell.padded(slack);
            for slot in node.start..node.end {
                let p = positions[self.order[slot as usize] as usize];
                if !cell.contains(p) {
                    escaped += 1;
                }
            }
        }
        if escaped > 0 {
            return Err(escaped);
        }
        // Pass 2: write coordinates through the permutation, measuring
        // the displacement of every point as it lands and folding it
        // into the leaf's accumulated drift (triangle inequality: total
        // motion since the last rescan is at most the sum of per-frame
        // maxima).
        let mut delta = RefreshDelta {
            leaf_disp: vec![0.0; self.leaves.len()],
            ..RefreshDelta::default()
        };
        let mut moved = vec![false; self.nodes.len()];
        for (li, &leaf) in self.leaves.iter().enumerate() {
            let node = self.nodes[leaf as usize];
            let mut worst = 0.0_f64;
            for slot in node.start as usize..node.end as usize {
                let p = positions[self.order[slot] as usize];
                worst = worst.max(p.dist(self.points[slot]));
                self.points[slot] = p;
            }
            delta.leaf_disp[li] = worst;
            delta.max_point_disp = delta.max_point_disp.max(worst);
            let drift = self.leaf_drift[li] + worst;
            if drift > tolerance {
                self.leaf_drift[li] = 0.0;
                if drift > 0.0 {
                    moved[leaf as usize] = true;
                    delta.dirty_leaves.push(li as u32);
                }
            } else {
                self.leaf_drift[li] = drift;
                delta.max_drift = delta.max_drift.max(drift);
            }
        }
        // Children always have larger ids than parents, so a reverse scan
        // propagates "subtree moved" bottom-up.
        for id in (0..self.nodes.len()).rev() {
            if !self.nodes[id].is_leaf {
                moved[id] = self.children(id as NodeId).any(|c| moved[c as usize]);
            }
        }
        // Pass 3: locally rebuild only the dirty subtrees — recompute the
        // centroid and enclosing radius of every node that saw motion
        // (exact rescan of its contiguous range, like the builder).
        for (id, node) in self.nodes.iter_mut().enumerate() {
            if !moved[id] {
                continue;
            }
            let slice = &self.points[node.start as usize..node.end as usize];
            let centroid = slice.iter().copied().sum::<Vec3>() / slice.len() as f64;
            let r_sq = slice
                .iter()
                .map(|p| p.dist_sq(centroid))
                .fold(0.0_f64, f64::max);
            let radius = r_sq.sqrt();
            delta.max_center_shift = delta.max_center_shift.max(centroid.dist(node.center));
            delta.max_radius_delta = delta.max_radius_delta.max((radius - node.radius).abs());
            delta.nodes_rescanned += 1;
            node.center = centroid;
            node.radius = radius;
        }
        Ok(delta)
    }

    /// Validate structural invariants (used by tests and debug assertions):
    /// ranges nest, children partition parents, enclosing balls enclose,
    /// the permutation is a bijection, and the `skip` links describe a
    /// DFS pre-order — every `skip` lies past its node, a leaf's is
    /// `id + 1`, and each internal node's children, chained by `skip`
    /// from `id + 1`, end exactly at the node's own `skip`. Because every
    /// link must point forward, a corrupted `skip` is reported, never
    /// followed in a loop.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.is_empty() {
            return if self.nodes.is_empty() {
                Ok(())
            } else {
                Err("empty tree with nodes".into())
            };
        }
        let root = self.node(Self::ROOT);
        if root.start != 0 || root.end as usize != self.points.len() {
            return Err("root does not span all points".into());
        }
        if root.skip as usize != self.nodes.len() {
            return Err("root subtree does not span all nodes".into());
        }
        for (id, n) in self.nodes.iter().enumerate() {
            let skip = n.skip as usize;
            if skip <= id || skip > self.nodes.len() || n.is_leaf != (skip == id + 1) {
                return Err(format!("node {id}: skip {skip} does not fit the node"));
            }
        }
        let mut seen = vec![false; self.order.len()];
        for &o in &self.order {
            let o = o as usize;
            if o >= seen.len() || seen[o] {
                return Err("order is not a permutation".into());
            }
            seen[o] = true;
        }
        for (id, n) in self.nodes.iter().enumerate() {
            if n.start > n.end {
                return Err(format!("node {id}: inverted range"));
            }
            if n.is_empty() {
                return Err(format!("node {id}: empty node stored"));
            }
            // Frozen leaves (delta-tolerant refresh) may under-enclose by
            // their accumulated drift; the stored ball must still hold
            // every point within that slack.
            let pad = self.max_drift() + 1e-9;
            for (slot, p) in self.points_in(id as NodeId).iter().enumerate() {
                if p.dist(n.center) > n.radius + pad {
                    return Err(format!(
                        "node {id}: point {slot} outside enclosing ball by {}",
                        p.dist(n.center) - n.radius
                    ));
                }
            }
            if !n.is_leaf {
                // Every skip points forward (checked above), so this
                // chain ends.
                let mut cursor = n.start;
                let mut c = id + 1;
                while c < n.skip as usize {
                    let ch = &self.nodes[c];
                    if ch.depth != n.depth + 1 {
                        return Err(format!("node {id}: child depth mismatch"));
                    }
                    if ch.start != cursor {
                        return Err(format!("node {id}: children not contiguous"));
                    }
                    cursor = ch.end;
                    c = ch.skip as usize;
                }
                if c != n.skip as usize {
                    return Err(format!("node {id}: child {c} overruns skip {}", n.skip));
                }
                if cursor != n.end {
                    return Err(format!("node {id}: children do not cover range"));
                }
            }
        }
        if self.leaf_cells.len() != self.leaves.len() {
            return Err("one cell per leaf expected".into());
        }
        // Leaves must cover all points in order.
        let mut cursor = 0;
        for &l in &self.leaves {
            let n = self.node(l);
            if !n.is_leaf {
                return Err("non-leaf in leaf list".into());
            }
            if n.start != cursor {
                return Err("leaf list out of order".into());
            }
            cursor = n.end;
        }
        if cursor as usize != self.points.len() {
            return Err("leaves do not cover all points".into());
        }
        Ok(())
    }
}
