//! Hierarchical E_pol approximation — `APPROX-EPOL`, Fig. 3 of the paper.
//!
//! The energy is a double sum over atoms. The traversal fixes one leaf `V`
//! of the atoms octree at a time and recurses over nodes `U` of the same
//! tree:
//!
//! * `U` leaf → exact pairwise sum between the atoms under `U` and `V`
//!   (Fig. 3 line 1);
//! * `U` and `V` well separated (`r_UV > (r_U + r_V)(1 + 2/ε)`) → the
//!   charges under each node, **binned by Born radius** into
//!   `M_ε = ⌈log_{1+ε}(R_max/R_min)⌉` buckets, interact bucket-by-bucket
//!   through the STILL kernel evaluated at the center distance with the
//!   representative radii `R_min(1+ε)^i` (Fig. 3 line 2);
//! * otherwise recurse into `U`'s children (line 3).
//!
//! Summing over all leaves `V` visits every ordered atom pair exactly
//! once, including the diagonal Born self-energies. Rank `i` of the
//! distributed drivers sums the `i`-th *segment of leaves* — node-based
//! work division, whose error is independent of the rank count (paper
//! §IV.A) because segment boundaries never split a tree node.

use crate::energy::exact::gb_pair;
use crate::stats::WorkCounts;
use polar_geom::MathMode;
use polar_octree::{NodeId, Octree};
use std::ops::Range;

/// Most Born-radius bins a [`BinScheme`] holds (see [`BinScheme::new`]).
const MAX_BINS: usize = 256;

/// Born-radius binning scheme shared by all nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BinScheme {
    pub r_min: f64,
    /// log(1+ε), cached.
    log1e: f64,
    pub nbins: usize,
}

impl BinScheme {
    /// Build from the molecule's Born radius range and ε.
    pub fn new(born: &[f64], eps: f64) -> BinScheme {
        assert!(eps > 0.0, "ε must be positive");
        let (mut r_min, mut r_max) = (f64::INFINITY, 0.0_f64);
        for &r in born {
            assert!(r > 0.0 && r.is_finite(), "invalid Born radius {r}");
            r_min = r_min.min(r);
            r_max = r_max.max(r);
        }
        if born.is_empty() {
            return BinScheme {
                r_min: 1.0,
                log1e: (1.0 + eps).ln(),
                nbins: 1,
            };
        }
        let log1e = (1.0 + eps).ln();
        // M_ε = ⌈log_{1+ε}(R_max/R_min)⌉, at least 1 bin. Capped: as
        // ε → 0 the count diverges (~1/ε) while the far field that would
        // consume the bins vanishes, so beyond the cap extra resolution
        // is pure memory waste. 256 bins resolve R within 2.7% even over
        // a 1000× radius range. The quotient is capped before the cast:
        // once 1 + ε rounds to 1, `log1e` is 0 and the quotient +∞.
        let bins = ((r_max / r_min).ln() / log1e).ceil().max(1.0);
        let nbins = ((bins.min(MAX_BINS as f64) as usize) + 1).min(MAX_BINS);
        let log1e = if nbins == MAX_BINS {
            // Re-derive the bin width so the capped bins still span the
            // full radius range.
            ((r_max / r_min).ln() / (MAX_BINS - 1) as f64).max(log1e * 1e-9)
        } else {
            log1e
        };
        BinScheme {
            r_min,
            log1e,
            nbins,
        }
    }

    /// Bin index of a Born radius.
    #[inline]
    pub fn bin_of(&self, r: f64) -> usize {
        if r <= self.r_min {
            return 0;
        }
        (((r / self.r_min).ln() / self.log1e) as usize).min(self.nbins - 1)
    }

    /// Representative `R_i·R_j` product for bins `i`, `j`:
    /// `R_min²(1+ε)^{i+j}` (Fig. 3).
    #[inline]
    pub fn radius_product(&self, i: usize, j: usize) -> f64 {
        self.r_min * self.r_min * ((i + j) as f64 * self.log1e).exp()
    }

    /// Representative radius of bin `i`: `R_min(1+ε)^i`. The lane far
    /// kernel gathers these per nonzero bin so `R_i·R_j` factorizes into
    /// a lane product (agrees with [`BinScheme::radius_product`] to one
    /// rounding).
    #[inline]
    pub fn bin_radius(&self, i: usize) -> f64 {
        self.r_min * (i as f64 * self.log1e).exp()
    }
}

/// Prepared inputs for the E_pol traversal: the binning scheme plus one
/// charge histogram per octree node.
pub struct EpolCtx<'a> {
    pub tree: &'a Octree,
    /// Charges, original atom order.
    pub charges: &'a [f64],
    /// Born radii, original atom order.
    pub born: &'a [f64],
    pub bins: BinScheme,
    /// Flattened per-node histograms: `hist[node * nbins + k] = q_U[k]`.
    hist: Vec<f64>,
    /// Per-node total |q| (quick emptiness check for bins loops).
    nonzero_bins: Vec<u32>,
    /// Compacted nonzero-bin rows for the lane far kernel, concatenated
    /// over nodes: charges, representative radii and radius
    /// reciprocals. `coff[id]..coff[id+1]` is node `id`'s row.
    cq: Vec<f64>,
    cr: Vec<f64>,
    cri: Vec<f64>,
    coff: Vec<u32>,
    /// `1/R` per atom in Morton slot order, for the division-free lane
    /// kernels: one divide per atom per solve, not per leaf segment.
    inv_born_slot: Vec<f64>,
}

/// The per-solve buffers of an [`EpolCtx`] that a scratch arena hands
/// from one solve to the next (capacity is kept, contents are rebuilt).
#[derive(Debug, Default)]
pub struct EpolBuffers {
    hist: Vec<f64>,
    nonzero_bins: Vec<u32>,
    inv_born_slot: Vec<f64>,
}

impl EpolBuffers {
    /// Heap bytes the buffers hold.
    pub fn memory_bytes(&self) -> usize {
        (self.hist.capacity() + self.inv_born_slot.capacity()) * 8
            + self.nonzero_bins.capacity() * 4
    }
}

impl<'a> EpolCtx<'a> {
    /// Build histograms bottom-up (the pseudo-particle aggregation for
    /// energies). O(nodes · M_ε + atoms).
    pub fn new(tree: &'a Octree, charges: &'a [f64], born: &'a [f64], eps: f64) -> EpolCtx<'a> {
        Self::new_reusing(tree, charges, born, eps, EpolBuffers::default())
    }

    /// As [`EpolCtx::new`], but refills caller-supplied buffers instead
    /// of allocating — the batch engine's scratch arenas hand the same
    /// buffers to every solve and recover them afterwards via
    /// [`EpolCtx::into_buffers`].
    pub fn new_reusing(
        tree: &'a Octree,
        charges: &'a [f64],
        born: &'a [f64],
        eps: f64,
        buffers: EpolBuffers,
    ) -> EpolCtx<'a> {
        assert_eq!(charges.len(), tree.len());
        assert_eq!(born.len(), tree.len());
        let EpolBuffers {
            mut hist,
            mut nonzero_bins,
            mut inv_born_slot,
        } = buffers;
        inv_born_slot.clear();
        inv_born_slot.extend(tree.order().iter().map(|&o| 1.0 / born[o as usize]));
        let bins = BinScheme::new(born, eps);
        let nb = bins.nbins;
        hist.clear();
        hist.resize(tree.node_count() * nb, 0.0);
        // Reverse scan = post-order (children have larger ids).
        for id in (0..tree.node_count()).rev() {
            let node = tree.node(id as NodeId);
            if node.is_leaf {
                for &orig in tree.indices_in(id as NodeId) {
                    let k = bins.bin_of(born[orig as usize]);
                    hist[id * nb + k] += charges[orig as usize];
                }
            } else {
                for c in tree.children(id as NodeId) {
                    let (lo, hi) = hist.split_at_mut(id * nb + nb);
                    let child_row = &hi[(c as usize * nb) - (id * nb + nb)..][..nb];
                    for (a, b) in lo[id * nb..].iter_mut().zip(child_row) {
                        *a += b;
                    }
                }
            }
        }
        nonzero_bins.clear();
        nonzero_bins.extend((0..tree.node_count()).map(|id| {
            hist[id * nb..(id + 1) * nb]
                .iter()
                .filter(|&&q| q != 0.0)
                .count() as u32
        }));
        // Compact every histogram once, up front: the far stage of the
        // execute phase reads each node's row once per far entry, and
        // rescanning 256 mostly-zero bins there costs more than the
        // whole STILL evaluation.
        let total: usize = nonzero_bins.iter().map(|&n| n as usize).sum();
        let mut cq = Vec::with_capacity(total);
        let mut cr = Vec::with_capacity(total);
        let mut cri = Vec::with_capacity(total);
        let mut coff = Vec::with_capacity(tree.node_count() + 1);
        coff.push(0u32);
        for id in 0..tree.node_count() {
            for (k, &c) in hist[id * nb..(id + 1) * nb].iter().enumerate() {
                if c != 0.0 {
                    let r = bins.bin_radius(k);
                    cq.push(c);
                    cr.push(r);
                    cri.push(1.0 / r);
                }
            }
            coff.push(cq.len() as u32);
        }
        EpolCtx {
            tree,
            charges,
            born,
            bins,
            hist,
            nonzero_bins,
            cq,
            cr,
            cri,
            coff,
            inv_born_slot,
        }
    }

    /// Reciprocal Born radii in Morton slot order (the layout of
    /// `GbSolver::born_by_slot`).
    #[inline]
    pub fn inv_born_slot(&self) -> &[f64] {
        &self.inv_born_slot
    }

    /// One node's binned-charge histogram (`q_U[k]`, Fig. 3). Public so
    /// the plan+execute engine ([`crate::plan`]) can evaluate far-field
    /// entries with exactly the recursive traversal's arithmetic.
    #[inline]
    pub fn hist_row(&self, id: NodeId) -> &[f64] {
        let nb = self.bins.nbins;
        &self.hist[id as usize * nb..(id as usize + 1) * nb]
    }

    /// Number of nonzero histogram bins of a node — a far (U, V) entry
    /// costs `nz(U)·nz(V)` STILL-kernel evaluations, which is how the
    /// plan derives per-leaf work vectors without re-traversing.
    #[inline]
    pub fn nonzero_bin_count(&self, id: NodeId) -> u32 {
        self.nonzero_bins[id as usize]
    }

    /// One node's compacted row — `(charges, radii, radius
    /// reciprocals)` of its [`EpolCtx::nonzero_bin_count`] nonzero bins,
    /// in bin order — as [`crate::kernels::epol_far_rows`] reads it.
    #[inline]
    pub fn compact_row(&self, id: NodeId) -> (&[f64], &[f64], &[f64]) {
        let (s, e) = (
            self.coff[id as usize] as usize,
            self.coff[id as usize + 1] as usize,
        );
        (&self.cq[s..e], &self.cr[s..e], &self.cri[s..e])
    }

    /// Histogram and reciprocal memory in bytes (for space accounting).
    pub fn memory_bytes(&self) -> usize {
        (self.hist.len() + 3 * self.cq.len() + self.inv_born_slot.len()) * 8
            + (self.nonzero_bins.len() + self.coff.len()) * 4
    }

    /// Recover the recyclable buffers so a scratch arena can hand them
    /// to the next solve.
    pub fn into_buffers(self) -> EpolBuffers {
        EpolBuffers {
            hist: self.hist,
            nonzero_bins: self.nonzero_bins,
            inv_born_slot: self.inv_born_slot,
        }
    }
}

/// The far-field separation test of Fig. 3: `r_UV > (r_U + r_V)(1 + 2/ε)`.
#[inline]
pub fn separation_factor_epol(eps: f64) -> f64 {
    assert!(eps > 0.0, "ε must be positive");
    1.0 + 2.0 / eps
}

/// Sum `−(τ/2)·Σ` contributions of a contiguous segment of the atoms
/// octree's leaves (each leaf `V` interacting with the whole tree).
/// Segments partition the energy: the total over all ranks' segments is
/// the full E_pol (the paper's Step 6+7, combined by `MPI_Reduce`).
pub fn epol_for_leaf_segment(
    ctx: &EpolCtx<'_>,
    eps: f64,
    math: MathMode,
    tau: f64,
    leaf_range: Range<usize>,
    counts: &mut WorkCounts,
) -> f64 {
    if ctx.tree.is_empty() {
        return 0.0;
    }
    let factor = separation_factor_epol(eps);
    let mut acc = 0.0;
    for &v in &ctx.tree.leaves()[leaf_range] {
        acc += recurse(ctx, factor, Octree::ROOT, v, math, counts);
    }
    -0.5 * tau * acc
}

fn recurse(
    ctx: &EpolCtx<'_>,
    factor: f64,
    u_id: NodeId,
    v_id: NodeId,
    math: MathMode,
    counts: &mut WorkCounts,
) -> f64 {
    counts.nodes_visited += 1;
    let u = ctx.tree.node(u_id);
    let v = ctx.tree.node(v_id);
    if u.is_leaf {
        // Exact pairs (ordered: each (u-atom, v-atom) pair once).
        let u_orig = ctx.tree.indices_in(u_id);
        let v_orig = ctx.tree.indices_in(v_id);
        let u_pos = ctx.tree.points_in(u_id);
        let v_pos = ctx.tree.points_in(v_id);
        let mut acc = 0.0;
        for (a, &ai) in u_orig.iter().enumerate() {
            let (qa, ra) = (ctx.charges[ai as usize], ctx.born[ai as usize]);
            for (b, &bi) in v_orig.iter().enumerate() {
                let r_sq = u_pos[a].dist_sq(v_pos[b]);
                acc += gb_pair(
                    qa,
                    ctx.charges[bi as usize],
                    r_sq,
                    ra,
                    ctx.born[bi as usize],
                    math,
                );
            }
        }
        counts.pair_ops += (u_orig.len() * v_orig.len()) as u64;
        return acc;
    }
    let d_sq = u.center.dist_sq(v.center);
    let sep = (u.radius + v.radius) * factor;
    if d_sq > sep * sep {
        // Far: binned charges through the STILL kernel at center distance.
        let hu = ctx.hist_row(u_id);
        let hv = ctx.hist_row(v_id);
        let mut acc = 0.0;
        let mut evals = 0u64;
        for (i, &qu) in hu.iter().enumerate() {
            if qu == 0.0 {
                continue;
            }
            for (j, &qv) in hv.iter().enumerate() {
                if qv == 0.0 {
                    continue;
                }
                let rr = ctx.bins.radius_product(i, j);
                let f = math.sqrt(d_sq + rr * math.exp(-d_sq / (4.0 * rr)));
                acc += qu * qv / f;
                evals += 1;
            }
        }
        counts.far_ops += evals.max(1);
        return acc;
    }
    ctx.tree
        .children(u_id)
        .map(|c| recurse(ctx, factor, c, v_id, math, counts))
        .sum()
}

/// The paper's **atom-based work division** (§IV.A), for the ablation.
///
/// Rank `i` owns a contiguous range of atom *slots* (Morton order). It
/// accumulates the energy of its atoms against the whole tree: exact
/// pairs in the near field, and in the far field the *owned subset* of a
/// leaf's charges binned on the fly but represented by the **full leaf's
/// centroid and radius** — ownership boundaries can split a tree node,
/// which is exactly why the paper observes that "the error of atom based
/// work division keeps changing with the number of processes even when
/// the approximation parameters are kept fixed". Node-based division
/// ([`epol_for_leaf_segment`]) never splits a node, so its error is
/// P-independent.
pub fn epol_for_atom_segment(
    ctx: &EpolCtx<'_>,
    eps: f64,
    math: MathMode,
    tau: f64,
    slot_range: Range<usize>,
    counts: &mut WorkCounts,
) -> f64 {
    if ctx.tree.is_empty() || slot_range.is_empty() {
        return 0.0;
    }
    let factor = separation_factor_epol(eps);
    let nb = ctx.bins.nbins;
    let mut acc = 0.0;
    let mut sub_hist = vec![0.0_f64; nb];
    for &v in ctx.tree.leaves() {
        let node = ctx.tree.node(v);
        let lo = (node.start as usize).max(slot_range.start);
        let hi = (node.end as usize).min(slot_range.end);
        if lo >= hi {
            continue;
        }
        let owned = lo - node.start as usize..hi - node.start as usize;
        if owned.len() == node.len() {
            // Whole leaf owned: identical to node-based handling.
            acc += recurse(ctx, factor, Octree::ROOT, v, math, counts);
        } else {
            // Partial leaf: the rank treats *its shard* of the leaf as a
            // pseudo-particle — own sub-histogram, own centroid, own
            // radius. Shard geometry depends on where the division
            // boundary fell, which is the paper's source of P-dependent
            // error for atom-based division.
            for q in sub_hist.iter_mut() {
                *q = 0.0;
            }
            let orig = ctx.tree.indices_in(v);
            for &oi in &orig[owned.clone()] {
                sub_hist[ctx.bins.bin_of(ctx.born[oi as usize])] += ctx.charges[oi as usize];
            }
            let pos = &ctx.tree.points_in(v)[owned.clone()];
            let centroid = pos.iter().copied().sum::<polar_geom::Vec3>() / pos.len() as f64;
            let radius = pos
                .iter()
                .map(|p| p.dist_sq(centroid))
                .fold(0.0_f64, f64::max)
                .sqrt();
            acc += recurse_partial(
                ctx,
                factor,
                Octree::ROOT,
                v,
                owned,
                &sub_hist,
                centroid,
                radius,
                math,
                counts,
            );
        }
    }
    -0.5 * tau * acc
}

#[allow(clippy::too_many_arguments)]
fn recurse_partial(
    ctx: &EpolCtx<'_>,
    factor: f64,
    u_id: NodeId,
    v_id: NodeId,
    owned: Range<usize>,
    v_hist: &[f64],
    v_center: polar_geom::Vec3,
    v_radius: f64,
    math: MathMode,
    counts: &mut WorkCounts,
) -> f64 {
    counts.nodes_visited += 1;
    let u = ctx.tree.node(u_id);
    if u.is_leaf {
        let u_orig = ctx.tree.indices_in(u_id);
        let v_orig = &ctx.tree.indices_in(v_id)[owned.clone()];
        let u_pos = ctx.tree.points_in(u_id);
        let v_pos = &ctx.tree.points_in(v_id)[owned];
        let mut acc = 0.0;
        for (a, &ai) in u_orig.iter().enumerate() {
            let (qa, ra) = (ctx.charges[ai as usize], ctx.born[ai as usize]);
            for (b, &bi) in v_orig.iter().enumerate() {
                let r_sq = u_pos[a].dist_sq(v_pos[b]);
                acc += gb_pair(
                    qa,
                    ctx.charges[bi as usize],
                    r_sq,
                    ra,
                    ctx.born[bi as usize],
                    math,
                );
            }
        }
        counts.pair_ops += (u_orig.len() * v_orig.len()) as u64;
        return acc;
    }
    let d_sq = u.center.dist_sq(v_center);
    let sep = (u.radius + v_radius) * factor;
    if d_sq > sep * sep {
        let hu = ctx.hist_row(u_id);
        let mut acc = 0.0;
        let mut evals = 0u64;
        for (i, &qu) in hu.iter().enumerate() {
            if qu == 0.0 {
                continue;
            }
            for (j, &qv) in v_hist.iter().enumerate() {
                if qv == 0.0 {
                    continue;
                }
                let rr = ctx.bins.radius_product(i, j);
                let f = math.sqrt(d_sq + rr * math.exp(-d_sq / (4.0 * rr)));
                acc += qu * qv / f;
                evals += 1;
            }
        }
        counts.far_ops += evals.max(1);
        return acc;
    }
    ctx.tree
        .children(u_id)
        .map(|c| {
            recurse_partial(
                ctx,
                factor,
                c,
                v_id,
                owned.clone(),
                v_hist,
                v_center,
                v_radius,
                math,
                counts,
            )
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constants::{tau, EPS_WATER};
    use crate::energy::exact::epol_naive;
    use polar_geom::Vec3;
    use polar_molecule::generators;
    use polar_octree::OctreeConfig;

    fn fixture(n: usize, seed: u64) -> (Vec<Vec3>, Vec<f64>, Vec<f64>, Octree) {
        let mol = generators::globular("e", n, seed);
        let pos = mol.positions();
        let charges = mol.charges();
        // Synthetic but physical Born radii: vdW ≤ R ≤ a few Å,
        // larger toward the center (buried atoms).
        let c = mol.centroid();
        let born: Vec<f64> = mol
            .atoms
            .iter()
            .map(|a| a.radius + 3.0 / (1.0 + a.pos.dist(c) * 0.2))
            .collect();
        let tree = OctreeConfig {
            max_leaf_size: 8,
            max_depth: 20,
        }
        .build(&pos);
        (pos, charges, born, tree)
    }

    fn octree_epol(
        pos_tree: &Octree,
        charges: &[f64],
        born: &[f64],
        eps: f64,
    ) -> (f64, WorkCounts) {
        let ctx = EpolCtx::new(pos_tree, charges, born, eps);
        let mut counts = WorkCounts::ZERO;
        let e = epol_for_leaf_segment(
            &ctx,
            eps,
            MathMode::Exact,
            tau(EPS_WATER),
            0..pos_tree.leaves().len(),
            &mut counts,
        );
        (e, counts)
    }

    #[test]
    fn bin_scheme_covers_range_and_is_monotone() {
        let born = [1.0, 1.5, 3.0, 10.0];
        let b = BinScheme::new(&born, 0.5);
        assert!(b.nbins >= 2);
        assert_eq!(b.bin_of(1.0), 0);
        assert_eq!(b.bin_of(0.5), 0); // below range clamps to 0
        assert!(b.bin_of(10.0) < b.nbins);
        assert!(b.bin_of(3.0) <= b.bin_of(10.0));
        // Representative product at (0,0) is R_min².
        assert!((b.radius_product(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bin_scheme_degenerate_single_radius() {
        // A single atom (or any all-equal radii set) has r_min == r_max:
        // log(r_max/r_min) = 0 must not produce a zero-bin scheme or a
        // divide-by-zero bin width.
        for eps in [0.01, 0.5, 2.0] {
            let b = BinScheme::new(&[2.5], eps);
            assert!(b.nbins >= 1 && b.nbins <= 2, "nbins = {}", b.nbins);
            assert_eq!(b.bin_of(2.5), 0);
            assert!((b.radius_product(0, 0) - 6.25).abs() < 1e-12);

            let many = BinScheme::new(&[1.7; 32], eps);
            assert_eq!(many.bin_of(1.7), 0);
            assert!(many.bin_of(1.7) < many.nbins);
        }
    }

    #[test]
    fn bin_scheme_cap_rederives_width_to_span_range() {
        // Tiny ε over a wide radius range wants ~9000 bins; the cap
        // clamps to 256 and the re-derived width must still cover the
        // whole range — r_max lands in the last bin (modulo one ulp of
        // the division), never out of bounds.
        let b = BinScheme::new(&[0.1, 1000.0], 0.001);
        assert_eq!(b.nbins, 256);
        let top = b.bin_of(1000.0);
        assert!(top >= b.nbins - 2 && top < b.nbins, "top bin {top}");
        // Anything above r_max still clamps inside the scheme.
        assert!(b.bin_of(1e9) < b.nbins);
        // An uncapped scheme over the same range keeps the exact width.
        let u = BinScheme::new(&[0.1, 1000.0], 0.5);
        assert!(u.nbins < 256);
        assert!(u.bin_of(1000.0) < u.nbins);
    }

    #[test]
    fn an_epsilon_that_vanishes_against_one_takes_the_capped_scheme() {
        // 1 + ε == 1 here, so log(1+ε) is 0 and the bin-count quotient
        // +∞: the cast saturated and the `+ 1` wrapped to zero bins.
        for eps in [1e-17, 1e-300] {
            let b = BinScheme::new(&[0.1, 1.0, 1000.0], eps);
            assert_eq!(b.nbins, MAX_BINS, "ε = {eps}");
            for r in [0.05, 0.1, 1.0, 999.0, 1000.0, 1e9] {
                assert!(b.bin_of(r) < b.nbins, "ε = {eps}, r = {r}");
            }
            assert!(b.bin_of(1.0) <= b.bin_of(1000.0));
        }
    }

    #[test]
    fn bin_of_is_monotone_across_capped_and_uncapped_schemes() {
        // bin_of must be non-decreasing in r for both the capped
        // (re-derived width) and uncapped schemes, over the full range
        // and past its edges.
        for (born, eps) in [
            (vec![0.1, 1000.0], 0.001), // capped at 256
            (vec![0.1, 1000.0], 0.5),   // uncapped
            (vec![1.0, 1.5, 3.0, 10.0], 0.3),
        ] {
            let b = BinScheme::new(&born, eps);
            let mut prev = 0usize;
            let mut r = 0.05;
            while r < 2000.0 {
                let k = b.bin_of(r);
                assert!(k < b.nbins, "r={r}: bin {k} out of {}", b.nbins);
                assert!(k >= prev, "bin_of not monotone at r={r}: {k} < {prev}");
                prev = k;
                r *= 1.01;
            }
        }
    }

    #[test]
    fn histograms_conserve_charge() {
        let (_, charges, born, tree) = fixture(200, 1);
        let ctx = EpolCtx::new(&tree, &charges, &born, 0.9);
        // Root histogram sums to the total charge.
        let root_sum: f64 = ctx.hist_row(Octree::ROOT).iter().sum();
        let total: f64 = charges.iter().sum();
        assert!((root_sum - total).abs() < 1e-9);
        // Every internal node's histogram equals the sum of its children's.
        for (id, node) in tree.nodes().iter().enumerate() {
            if !node.is_leaf {
                let mine: f64 = ctx.hist_row(id as NodeId).iter().sum();
                let kids: f64 = tree
                    .children(id as NodeId)
                    .map(|c| ctx.hist_row(c).iter().sum::<f64>())
                    .sum();
                assert!((mine - kids).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn tiny_eps_matches_naive_energy() {
        let (pos, charges, born, tree) = fixture(150, 2);
        let t = tau(EPS_WATER);
        let naive = epol_naive(&pos, &charges, &born, t, MathMode::Exact);
        // ε → 0 makes the separation factor huge: nothing is far, every
        // pair is computed exactly.
        let (e, counts) = octree_epol(&tree, &charges, &born, 1e-6);
        assert!((e - naive).abs() <= 1e-9 * naive.abs(), "{e} vs {naive}");
        assert_eq!(counts.far_ops, 0);
        assert_eq!(counts.pair_ops, (150 * 150) as u64);
    }

    #[test]
    fn moderate_eps_within_percent_error() {
        let (pos, charges, born, tree) = fixture(400, 3);
        let t = tau(EPS_WATER);
        let naive = epol_naive(&pos, &charges, &born, t, MathMode::Exact);
        for eps in [0.3, 0.9] {
            let (e, counts) = octree_epol(&tree, &charges, &born, eps);
            let rel = ((e - naive) / naive).abs();
            // The paper reports < 1% error at ε = 0.9 for the energy stage.
            assert!(rel < 0.02, "eps={eps}: {e} vs {naive} (rel {rel})");
            // Small ε can make the separation requirement stricter than a
            // 400-atom globule's diameter; only ε = 0.9 must approximate.
            if eps >= 0.9 {
                assert!(counts.far_ops > 0, "eps={eps} never approximated");
            }
        }
    }

    #[test]
    fn energy_error_grows_with_eps() {
        let (pos, charges, born, tree) = fixture(400, 4);
        let t = tau(EPS_WATER);
        let naive = epol_naive(&pos, &charges, &born, t, MathMode::Exact);
        let (e_small, c_small) = octree_epol(&tree, &charges, &born, 0.1);
        let (e_large, c_large) = octree_epol(&tree, &charges, &born, 0.9);
        let rel_small = ((e_small - naive) / naive).abs();
        let rel_large = ((e_large - naive) / naive).abs();
        assert!(rel_small <= rel_large + 1e-12, "{rel_small} vs {rel_large}");
        // and does less work at larger ε (speed/accuracy tradeoff, Fig 10).
        assert!(c_large.pair_ops <= c_small.pair_ops);
    }

    #[test]
    fn leaf_segments_partition_the_energy() {
        let (_, charges, born, tree) = fixture(250, 5);
        let t = tau(EPS_WATER);
        let ctx = EpolCtx::new(&tree, &charges, &born, 0.7);
        let n = tree.leaves().len();
        let full = epol_for_leaf_segment(
            &ctx,
            0.7,
            MathMode::Exact,
            t,
            0..n,
            &mut WorkCounts::default(),
        );
        let mut pieces = 0.0;
        for r in crate::partition::even_segments(n, 4) {
            pieces +=
                epol_for_leaf_segment(&ctx, 0.7, MathMode::Exact, t, r, &mut WorkCounts::default());
        }
        assert!(
            (full - pieces).abs() <= 1e-9 * full.abs(),
            "{full} vs {pieces}"
        );
    }

    #[test]
    fn node_division_error_is_independent_of_segmentation() {
        // The paper's argument for node–node division: the *result* is
        // identical no matter how many ranks the leaves are split across.
        let (_, charges, born, tree) = fixture(250, 6);
        let t = tau(EPS_WATER);
        let ctx = EpolCtx::new(&tree, &charges, &born, 0.9);
        let n = tree.leaves().len();
        let mut energies = Vec::new();
        for parts in [1usize, 2, 5, 9] {
            let mut e = 0.0;
            for r in crate::partition::even_segments(n, parts) {
                e += epol_for_leaf_segment(
                    &ctx,
                    0.9,
                    MathMode::Exact,
                    t,
                    r,
                    &mut WorkCounts::default(),
                );
            }
            energies.push(e);
        }
        for w in energies.windows(2) {
            assert!((w[0] - w[1]).abs() <= 1e-9 * w[0].abs());
        }
    }

    #[test]
    fn atom_division_sums_to_an_energy_close_to_node_division() {
        let (_, charges, born, tree) = fixture(300, 7);
        let t = tau(EPS_WATER);
        let ctx = EpolCtx::new(&tree, &charges, &born, 0.9);
        let node_e = epol_for_leaf_segment(
            &ctx,
            0.9,
            MathMode::Exact,
            t,
            0..tree.leaves().len(),
            &mut WorkCounts::default(),
        );
        for parts in [1usize, 3, 7] {
            let mut atom_e = 0.0;
            for r in crate::partition::even_segments(tree.len(), parts) {
                atom_e += epol_for_atom_segment(
                    &ctx,
                    0.9,
                    MathMode::Exact,
                    t,
                    r,
                    &mut WorkCounts::default(),
                );
            }
            let rel = ((atom_e - node_e) / node_e).abs();
            assert!(rel < 0.01, "P={parts}: atom {atom_e} vs node {node_e}");
        }
    }

    #[test]
    fn atom_division_with_one_part_equals_node_division() {
        // A single segment never splits a leaf, so the two divisions are
        // identical computations.
        let (_, charges, born, tree) = fixture(200, 8);
        let t = tau(EPS_WATER);
        let ctx = EpolCtx::new(&tree, &charges, &born, 0.7);
        let node_e = epol_for_leaf_segment(
            &ctx,
            0.7,
            MathMode::Exact,
            t,
            0..tree.leaves().len(),
            &mut WorkCounts::default(),
        );
        let atom_e = epol_for_atom_segment(
            &ctx,
            0.7,
            MathMode::Exact,
            t,
            0..tree.len(),
            &mut WorkCounts::default(),
        );
        assert!((atom_e - node_e).abs() <= 1e-9 * node_e.abs());
    }

    #[test]
    fn atom_division_energy_varies_with_rank_count() {
        // The paper's §IV.A observation: splitting tree nodes at segment
        // boundaries makes the *approximation itself* depend on P.
        let (_, charges, born, tree) = fixture(300, 9);
        let t = tau(EPS_WATER);
        let ctx = EpolCtx::new(&tree, &charges, &born, 0.9);
        let e_at = |parts: usize| -> f64 {
            crate::partition::even_segments(tree.len(), parts)
                .into_iter()
                .map(|r| {
                    epol_for_atom_segment(
                        &ctx,
                        0.9,
                        MathMode::Exact,
                        t,
                        r,
                        &mut WorkCounts::default(),
                    )
                })
                .sum()
        };
        let energies: Vec<f64> = [1usize, 2, 5, 11].iter().map(|&p| e_at(p)).collect();
        let spread = energies
            .iter()
            .fold(0.0_f64, |m, &e| m.max((e - energies[0]).abs()));
        assert!(
            spread > 1e-12 * energies[0].abs(),
            "atom-based division unexpectedly P-invariant: {energies:?}"
        );
    }

    #[test]
    fn empty_tree_gives_zero() {
        let tree = OctreeConfig::default().build(&[]);
        let ctx = EpolCtx::new(&tree, &[], &[], 0.9);
        let e = epol_for_leaf_segment(
            &ctx,
            0.9,
            MathMode::Exact,
            300.0,
            0..0,
            &mut WorkCounts::default(),
        );
        assert_eq!(e, 0.0);
    }
}
