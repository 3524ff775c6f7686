//! SIMD-lane kernels for the plan engine: one source per kernel,
//! instantiated once per ISA tier.
//!
//! The flat interaction lists built by [`crate::plan::InteractionPlan`]
//! turn the two hot traversals into dense block loops — exactly the shape
//! explicit f64 lanes want. This module supplies:
//!
//! * the `Simd` tier trait — an 8-wide f64 vector type and the ~25
//!   operations the kernels are written in — with three impls:
//!   `Portable` (`[f64; 8]`), `Avx2` (two `__m256d` halves) and
//!   `Avx512` (one `__m512d`);
//! * `rsqrt`/`rcp` — a per-tier seed refined by that tier's Newton step
//!   count to rounding-limited ~2 ulp (exact-grade, unlike the 2-step
//!   approximate-math variant of [`polar_geom::fastmath::fast_rsqrt`]) — and
//!   `exp`, an exact-grade (≈1 e−15 relative) vectorizable exponential:
//!   magic-shift rounding to split `x = k·ln2 + r`, a degree-12 Taylor
//!   polynomial on `|r| ≤ ln2/2`, and a bit-assembled `2^k` scale;
//! * the five kernels the execute phase runs, each written **once** as a
//!   generic `fn …<S: Simd>`: [`born_near_blocks`] (descreening integrals
//!   of a block of eight q-leaves over the block's [`Window`]s of atom
//!   slots), [`born_far_blocks`] (R6 pseudo-q-point terms of the block
//!   over its windows of `T_A` node ids), [`epol_near_runs`] (STILL
//!   pair sums of a leaf against its near partners, stored as slot
//!   [`Run`]s), [`epol_far_rows`] (binned-charge interaction of a leaf
//!   with all its far nodes' precompacted histogram rows, laid end to
//!   end as [`FarRows`]) and [`epol_grad_block`] (frozen-radii gradient
//!   of a targets × partners block);
//! * the one kernel the planner runs, `born_block_walk`: the Fig. 2
//!   separation test of a `T_A` node against eight q-leaves in one
//!   8-lane step, inside the joint walk that plans a Born block. The
//!   walk reads `T_A`'s 48-byte pre-order [`OctreeNode`]s in place —
//!   `id + 1` descends, `skip` cuts a subtree — so a node costs it one
//!   record load and no per-plan copy of the tree exists.
//!
//! ## Dispatch
//!
//! Every dispatched kernel is declared by one `tiers!` line, which emits a
//! `#[target_feature]` wrapper per x86 tier around the generic body and
//! picks the widest tier the CPU has on each call: AVX-512F, then
//! AVX2+FMA, then portable. `is_x86_feature_detected!` is the only
//! selector — there is no option, environment variable or cargo feature
//! — so the tier is fixed per process. The kernels are division-free on
//! the x86 tiers: Born radii and bin radii stream in with precomputed
//! reciprocals, and in-kernel divisions become seeded Newton reciprocals.
//!
//! ## The tier contract
//!
//! A tier is a zero-sized token plus a vector type. The x86 tokens can
//! only be obtained from `detect()`, so holding one proves the CPU has
//! the tier's instructions; that proof is what makes the trait's
//! methods safe to call, and every intrinsic in the crate sits inside
//! an `impl Simd for` block behind it. A window of eight ids becomes an
//! `Ids` — what `gather`/`scatter_mask` take — only after it has been
//! checked against the shortest slice it will index (one `vpcmpud` on
//! AVX-512): an id out of range is a panic that names the whole window,
//! whether or not a lane mask would have used it. The blocked Born
//! kernels pay that check once per window, for up to eight leaves'
//! terms.
//!
//! `gather` and `scatter_mask` are the same on every tier: eight scalar
//! loads assembled into a register, and scalar stores of the lanes a
//! mask names. No tier uses the hardware gather or scatter. On the
//! AVX-512 host these kernels were tuned on, one `vgatherdpd zmm` costs
//! 25 cycles (9.5 ns at 2.6 GHz; the `gather` rows of
//! `crates/bench/benches/kernels.rs` reproduce it) against 6 for the
//! eight loads and inserts, where a zmm FMA costs half a cycle — with
//! hardware gathers the execute kernels were bound by how operands
//! reached the lanes, not by the paper's arithmetic. CI fails if a
//! gather or scatter intrinsic appears under `crates/*/src`.
//!
//! Each tier fixes its own op sequence, and the generic bodies do not
//! vary it: `Portable` never contracts `a·b + c` (off the FMA units
//! `mul_add` is a slow libm call) and divides for `1/x`; `Avx2` seeds
//! `rsqrt` with the bit trick (4 Newton steps) and `rcp` with `rcpps`
//! through an f32 round-trip (3 steps) and blends with an AND mask;
//! `Avx512` seeds both with the 2⁻¹⁴ hardware estimates (2 steps) and
//! blends through a mask register.
//!
//! ## Why the bodies contain no closures
//!
//! A kernel body and every helper that touches `S::V` is
//! `#[inline(always)]`, so the whole kernel is compiled *inside* the
//! tier's `#[target_feature]` wrapper and its intrinsics become single
//! instructions. A closure is a function of its own that does not
//! inherit the wrapper's target features: LLVM then cannot inline the
//! intrinsics into it and every vector op turns into a call through
//! memory (two closures cost the prototype of this design 17× on
//! `warm_rescore`). The same
//! goes for any non-`inline(always)` helper. A [`Window`]'s ids are
//! read in place.
//!
//! ## Accuracy contract and summation order
//!
//! The execute kernels are *not* bitwise-reproducible against the scalar
//! reference loops ([`KernelMode::Strict`] in [`crate::plan`]): each
//! 8-wide accumulator re-associates the sum, and FMA contracts rounding
//! steps. (The planner's separation test is: it uses no FMA and no
//! reciprocal, and its decisions and margins are bit-equal to the scalar
//! test on every tier.) They are exact-grade — every elementary term is computed to a
//! few ulp — so planned energies stay within 1 e−12 relative of the
//! recursive reference (asserted by tests and the CI bench floor).
//! Within one build on one machine the kernels are deterministic: the
//! dispatch tier is fixed per process, lanes accumulate in slot order
//! and horizontal sums reduce lanes low → high, so a given machine
//! always produces the same bits (different ISA tiers differ at the ulp
//! level — determinism is per build *per machine*). `LANE_WIDTH` is
//! part of that contract — every tier's vector is 8 wide, and changing
//! that would reorder reductions between releases, which is why
//! `width_is_pinned` locks it.
//!
//! ## Ragged tails
//!
//! A ragged last window is padded to a full lane instead of peeling a
//! scalar loop: ids and positions replicate the last valid element
//! (keeping the arithmetic in range — no 0/0), while charges pad with 0
//! so padded terms vanish, and only real lanes are written back. The
//! Born near kernel additionally clamps `r²` away from the subnormal
//! range and masks on the same `r² > 1e-12` guard as the scalar kernel,
//! so coincident atom/q-point pairs contribute an exact 0.0 rather than
//! a garbage `inf·0`. The plan pads the last [`Window`] of a Born list
//! itself, repeating its last id in lanes that no leaf's row names; the
//! blocked kernels compute those lanes and never store them.

use crate::born::octree::QDipole;
use polar_octree::{NodeId, Octree, OctreeNode};
#[cfg(target_arch = "x86")]
use std::arch::x86::*;
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
use tier::Avx2;
#[cfg(target_arch = "x86_64")]
use tier::Avx512;
use tier::Portable;

/// Which arithmetic the plan execute phase runs. Selected per solve via
/// [`crate::solver::GbParams::kernel`] (CLI: `--strict-fp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Hand-vectorized 8-wide f64 lane kernels on the widest ISA tier
    /// the CPU has. Exact-grade: E_pol within 1 e−12 relative of the
    /// scalar reference; Born radii differ only at the ulp level.
    #[default]
    Lane,
    /// The scalar reference loops — bitwise-identical Born partials and
    /// ulp-identical E_pol against the recursive traversals, at scalar
    /// speed. The reproducibility baseline every lane result is tested
    /// against.
    Strict,
}

impl KernelMode {
    /// Stable label used by reports and the experiment harness.
    pub fn label(self) -> &'static str {
        match self {
            KernelMode::Lane => "lane",
            KernelMode::Strict => "strict",
        }
    }
}

/// Lane width of the dispatched kernels. Pinned: widening or narrowing
/// this re-associates every lane reduction (see module docs).
pub const LANE_WIDTH: usize = 8;

/// `r²` guard shared with the scalar Born kernel: nearer pairs are
/// coincident surface points and contribute exactly 0.
const R2_GUARD: f64 = 1e-12;
/// Clamp floor applied before `rcp` in the Born near kernel so masked
/// (sub-guard) lanes stay in the normal range instead of overflowing.
const R2_FLOOR: f64 = 1e-30;

/// The tier tokens. In a module of their own so that the x86 ones can
/// be built by `detect()` and nothing else.
mod tier {
    /// Plain `[f64; 8]` arithmetic; runs anywhere.
    #[derive(Clone, Copy)]
    pub struct Portable;

    /// Proof that the CPU has AVX2 and FMA.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[derive(Clone, Copy)]
    pub struct Avx2(());

    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    impl Avx2 {
        #[inline]
        pub fn detect() -> Option<Avx2> {
            (std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma"))
            .then_some(Avx2(()))
        }
    }

    /// Proof that the CPU has AVX-512F (which implies AVX2 and FMA).
    #[cfg(target_arch = "x86_64")]
    #[derive(Clone, Copy)]
    pub struct Avx512(());

    #[cfg(target_arch = "x86_64")]
    impl Avx512 {
        #[inline]
        pub fn detect() -> Option<Avx512> {
            std::arch::is_x86_feature_detected!("avx512f").then_some(Avx512(()))
        }
    }
}

/// A window of eight ids that [`checked`] has held to a limit — the only
/// way to make one, so [`Simd::gather`] and [`Simd::scatter_mask`] take
/// no window whose bad id has not already been reported whole.
#[derive(Clone, Copy)]
struct Ids<'a>(&'a [u32; 8]);

/// Check one id window against `limit` — the length of the shortest
/// slice the window will index. Panics on an id out of range.
#[inline(always)]
fn checked<S: Simd>(s: S, ids: &[u32; 8], limit: usize) -> Ids<'_> {
    // The AVX-512 check compares ids as 32-bit lanes.
    let limit = limit.min(1 << 31);
    if !s.ids_in_range(ids, limit) {
        id_out_of_range(ids, limit);
    }
    Ids(ids)
}

/// Out of line, so the kernels' loops carry no formatting state.
#[cold]
#[inline(never)]
fn id_out_of_range(ids: &[u32; 8], limit: usize) -> ! {
    panic!("lane id out of range: {ids:?} must all be below {limit}")
}

/// One ISA tier: an 8-wide f64 vector and the operations the kernel
/// bodies are written in. `self` is the tier token (see the module docs:
/// holding one proves the instructions exist), so every method is safe.
/// All methods are `#[inline(always)]` in every impl — the bodies rely on
/// being compiled inside the tier's `#[target_feature]` wrapper.
trait Simd: Copy {
    type V: Copy;
    /// Newton steps that take `rsqrt_seed` to rounding-limited accuracy.
    const RSQRT_STEPS: usize;
    /// Newton steps that take `rcp_seed` to rounding-limited accuracy.
    const RCP_STEPS: usize;

    fn splat(self, v: f64) -> Self::V;
    fn load(self, p: &[f64; 8]) -> Self::V;
    fn to_array(self, v: Self::V) -> [f64; 8];
    /// Whether every id is `< limit` (`limit ≤ 2³¹`).
    fn ids_in_range(self, ids: &[u32; 8], limit: usize) -> bool;
    /// `src[ids[k]]` in lane `k`: eight scalar loads assembled into one
    /// register, on every tier (see the module docs — the hardware
    /// gather costs more). Panics if `src` is shorter than the limit `w`
    /// was checked against and an id falls past it.
    #[inline(always)]
    fn gather(self, src: &[f64], w: Ids<'_>) -> Self::V {
        // A plain loop: `array::map` takes a closure, which is compiled
        // outside the tier's target features (see the module docs).
        let mut lanes = [0.0; 8];
        for k in 0..8 {
            lanes[k] = src[w.0[k] as usize];
        }
        self.load(&lanes)
    }
    fn add(self, a: Self::V, b: Self::V) -> Self::V;
    fn sub(self, a: Self::V, b: Self::V) -> Self::V;
    fn mul(self, a: Self::V, b: Self::V) -> Self::V;
    fn max(self, a: Self::V, b: Self::V) -> Self::V;
    fn min(self, a: Self::V, b: Self::V) -> Self::V;
    /// `a·b + c` — one rounding on the FMA tiers, two on `Portable`.
    fn fma(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// `c − a·b`, rounded like [`Simd::fma`].
    fn fnma(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    /// `acc + (x > thr ? term : 0)` per lane — a blend, so masked
    /// garbage (inf/NaN from clamped lanes) is discarded, never
    /// multiplied by zero.
    fn add_if_gt(self, acc: Self::V, term: Self::V, x: Self::V, thr: Self::V) -> Self::V;
    /// First estimate of `1/√x` for positive normal `x`.
    fn rsqrt_seed(self, x: Self::V) -> Self::V;
    /// First estimate of `1/x` for positive normal `x`.
    fn rcp_seed(self, x: Self::V) -> Self::V;
    /// `p·2^k`, where `m = k + 1.5·2⁵²` carries the integer `k` in its
    /// low mantissa bits (`|k| ≤ 1022`).
    fn exp2_scale(self, p: Self::V, m: Self::V) -> Self::V;
    /// Correctly rounded `√x` (IEEE 754), bit-equal to `f64::sqrt`.
    fn sqrt(self, x: Self::V) -> Self::V;
    fn abs(self, x: Self::V) -> Self::V;
    /// Bit `k` is set iff `a[k] > b[k]` (false on NaN).
    fn gt_bits(self, a: Self::V, b: Self::V) -> u8;
    /// `on[k]` in the lanes whose bit is set, `off[k]` in the others.
    fn select(self, bits: u8, on: Self::V, off: Self::V) -> Self::V;
    /// `dst[ids[k]] = v[k]` for the lanes whose bit is set, as scalar
    /// stores; the other lanes are not written. Panics like
    /// [`Simd::gather`].
    #[inline(always)]
    fn scatter_mask(self, dst: &mut [f64], w: Ids<'_>, v: Self::V, bits: u8) {
        let lanes = self.to_array(v);
        for k in 0..8 {
            if bits >> k & 1 == 1 {
                dst[w.0[k] as usize] = lanes[k];
            }
        }
    }
}

/// The `fast_rsqrt` bit-trick seed (~3 % error).
const RSQRT_MAGIC: u64 = 0x5fe6_eb50_c7b5_37a9;
/// Mask of an f64's 52 mantissa bits.
const MANTISSA: u64 = (1 << 52) - 1;
/// `2^k` has exponent field `k + 1023`; `m`'s mantissa holds `k + 2⁵¹`.
const EXP2_BIAS: i64 = 1023 - (1 << 51);

impl Simd for Portable {
    type V = [f64; 8];
    const RSQRT_STEPS: usize = 4;
    const RCP_STEPS: usize = 0;

    #[inline(always)]
    fn splat(self, v: f64) -> [f64; 8] {
        [v; 8]
    }
    #[inline(always)]
    fn load(self, p: &[f64; 8]) -> [f64; 8] {
        *p
    }
    #[inline(always)]
    fn to_array(self, v: [f64; 8]) -> [f64; 8] {
        v
    }
    #[inline(always)]
    fn ids_in_range(self, ids: &[u32; 8], limit: usize) -> bool {
        ids.iter().all(|&i| (i as usize) < limit)
    }
    #[inline(always)]
    fn add(self, a: [f64; 8], b: [f64; 8]) -> [f64; 8] {
        core::array::from_fn(|k| a[k] + b[k])
    }
    #[inline(always)]
    fn sub(self, a: [f64; 8], b: [f64; 8]) -> [f64; 8] {
        core::array::from_fn(|k| a[k] - b[k])
    }
    #[inline(always)]
    fn mul(self, a: [f64; 8], b: [f64; 8]) -> [f64; 8] {
        core::array::from_fn(|k| a[k] * b[k])
    }
    #[inline(always)]
    fn max(self, a: [f64; 8], b: [f64; 8]) -> [f64; 8] {
        core::array::from_fn(|k| a[k].max(b[k]))
    }
    #[inline(always)]
    fn min(self, a: [f64; 8], b: [f64; 8]) -> [f64; 8] {
        core::array::from_fn(|k| a[k].min(b[k]))
    }
    #[inline(always)]
    fn fma(self, a: [f64; 8], b: [f64; 8], c: [f64; 8]) -> [f64; 8] {
        core::array::from_fn(|k| a[k] * b[k] + c[k])
    }
    #[inline(always)]
    fn fnma(self, a: [f64; 8], b: [f64; 8], c: [f64; 8]) -> [f64; 8] {
        core::array::from_fn(|k| c[k] - a[k] * b[k])
    }
    #[inline(always)]
    fn add_if_gt(self, acc: [f64; 8], term: [f64; 8], x: [f64; 8], thr: [f64; 8]) -> [f64; 8] {
        core::array::from_fn(|k| acc[k] + if x[k] > thr[k] { term[k] } else { 0.0 })
    }
    #[inline(always)]
    fn rsqrt_seed(self, x: [f64; 8]) -> [f64; 8] {
        core::array::from_fn(|k| f64::from_bits(RSQRT_MAGIC.wrapping_sub(x[k].to_bits() >> 1)))
    }
    #[inline(always)]
    fn rcp_seed(self, x: [f64; 8]) -> [f64; 8] {
        core::array::from_fn(|k| 1.0 / x[k])
    }
    #[inline(always)]
    fn exp2_scale(self, p: [f64; 8], m: [f64; 8]) -> [f64; 8] {
        core::array::from_fn(|k| {
            let exponent = (m[k].to_bits() & MANTISSA) as i64 + EXP2_BIAS;
            p[k] * f64::from_bits((exponent as u64) << 52)
        })
    }
    #[inline(always)]
    fn sqrt(self, x: [f64; 8]) -> [f64; 8] {
        core::array::from_fn(|k| x[k].sqrt())
    }
    #[inline(always)]
    fn abs(self, x: [f64; 8]) -> [f64; 8] {
        core::array::from_fn(|k| x[k].abs())
    }
    #[inline(always)]
    fn gt_bits(self, a: [f64; 8], b: [f64; 8]) -> u8 {
        let mut bits = 0;
        for k in 0..8 {
            bits |= ((a[k] > b[k]) as u8) << k;
        }
        bits
    }
    #[inline(always)]
    fn select(self, bits: u8, on: [f64; 8], off: [f64; 8]) -> [f64; 8] {
        core::array::from_fn(|k| if bits >> k & 1 == 1 { on[k] } else { off[k] })
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
impl Simd for Avx2 {
    /// Lanes 0–3 and 4–7.
    type V = [__m256d; 2];
    const RSQRT_STEPS: usize = 4;
    /// The 12-bit `rcpps` seed squares its error each step:
    /// 2⁻¹² → 2⁻²⁴ → 2⁻⁴⁸ → rounding-limited.
    const RCP_STEPS: usize = 3;

    #[inline(always)]
    fn splat(self, v: f64) -> Self::V {
        // SAFETY: `self` proves AVX.
        let h = unsafe { _mm256_set1_pd(v) };
        [h, h]
    }
    #[inline(always)]
    fn load(self, p: &[f64; 8]) -> Self::V {
        // SAFETY: `self` proves AVX; `p` is eight readable f64s.
        unsafe {
            [
                _mm256_loadu_pd(p.as_ptr()),
                _mm256_loadu_pd(p.as_ptr().add(4)),
            ]
        }
    }
    #[inline(always)]
    fn to_array(self, v: Self::V) -> [f64; 8] {
        let mut out = [0.0f64; 8];
        // SAFETY: `self` proves AVX; `out` is eight writable f64s.
        unsafe {
            _mm256_storeu_pd(out.as_mut_ptr(), v[0]);
            _mm256_storeu_pd(out.as_mut_ptr().add(4), v[1]);
        }
        out
    }
    #[inline(always)]
    fn ids_in_range(self, ids: &[u32; 8], limit: usize) -> bool {
        Portable.ids_in_range(ids, limit)
    }
    #[inline(always)]
    fn add(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: `self` proves AVX.
        unsafe { [_mm256_add_pd(a[0], b[0]), _mm256_add_pd(a[1], b[1])] }
    }
    #[inline(always)]
    fn sub(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: `self` proves AVX.
        unsafe { [_mm256_sub_pd(a[0], b[0]), _mm256_sub_pd(a[1], b[1])] }
    }
    #[inline(always)]
    fn mul(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: `self` proves AVX.
        unsafe { [_mm256_mul_pd(a[0], b[0]), _mm256_mul_pd(a[1], b[1])] }
    }
    #[inline(always)]
    fn max(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: `self` proves AVX.
        unsafe { [_mm256_max_pd(a[0], b[0]), _mm256_max_pd(a[1], b[1])] }
    }
    #[inline(always)]
    fn min(self, a: Self::V, b: Self::V) -> Self::V {
        // SAFETY: `self` proves AVX.
        unsafe { [_mm256_min_pd(a[0], b[0]), _mm256_min_pd(a[1], b[1])] }
    }
    #[inline(always)]
    fn fma(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        // SAFETY: `self` proves FMA.
        unsafe {
            [
                _mm256_fmadd_pd(a[0], b[0], c[0]),
                _mm256_fmadd_pd(a[1], b[1], c[1]),
            ]
        }
    }
    #[inline(always)]
    fn fnma(self, a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        // SAFETY: `self` proves FMA.
        unsafe {
            [
                _mm256_fnmadd_pd(a[0], b[0], c[0]),
                _mm256_fnmadd_pd(a[1], b[1], c[1]),
            ]
        }
    }
    #[inline(always)]
    fn add_if_gt(self, acc: Self::V, term: Self::V, x: Self::V, thr: Self::V) -> Self::V {
        // SAFETY: `self` proves AVX.
        unsafe {
            let keep0 = _mm256_cmp_pd::<_CMP_GT_OQ>(x[0], thr[0]);
            let keep1 = _mm256_cmp_pd::<_CMP_GT_OQ>(x[1], thr[1]);
            [
                _mm256_add_pd(acc[0], _mm256_and_pd(term[0], keep0)),
                _mm256_add_pd(acc[1], _mm256_and_pd(term[1], keep1)),
            ]
        }
    }
    /// The same bit trick as `Portable`.
    #[inline(always)]
    fn rsqrt_seed(self, x: Self::V) -> Self::V {
        // SAFETY: `self` proves AVX2.
        unsafe {
            let magic = _mm256_set1_epi64x(RSQRT_MAGIC as i64);
            let h0 = _mm256_srli_epi64::<1>(_mm256_castpd_si256(x[0]));
            let h1 = _mm256_srli_epi64::<1>(_mm256_castpd_si256(x[1]));
            [
                _mm256_castsi256_pd(_mm256_sub_epi64(magic, h0)),
                _mm256_castsi256_pd(_mm256_sub_epi64(magic, h1)),
            ]
        }
    }
    /// `rcpps` through a narrowing f32 round-trip — no `vdivpd`, whose
    /// ~8-cycle ymm throughput would dominate the kernels.
    #[inline(always)]
    fn rcp_seed(self, x: Self::V) -> Self::V {
        // SAFETY: `self` proves AVX.
        unsafe {
            [
                _mm256_cvtps_pd(_mm_rcp_ps(_mm256_cvtpd_ps(x[0]))),
                _mm256_cvtps_pd(_mm_rcp_ps(_mm256_cvtpd_ps(x[1]))),
            ]
        }
    }
    #[inline(always)]
    fn exp2_scale(self, p: Self::V, m: Self::V) -> Self::V {
        // SAFETY: `self` proves AVX2.
        unsafe {
            let mant = _mm256_set1_epi64x(MANTISSA as i64);
            let bias = _mm256_set1_epi64x(EXP2_BIAS);
            let k0 = _mm256_and_si256(_mm256_castpd_si256(m[0]), mant);
            let k1 = _mm256_and_si256(_mm256_castpd_si256(m[1]), mant);
            let s0 = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_add_epi64(k0, bias)));
            let s1 = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_add_epi64(k1, bias)));
            [_mm256_mul_pd(p[0], s0), _mm256_mul_pd(p[1], s1)]
        }
    }
    #[inline(always)]
    fn sqrt(self, x: Self::V) -> Self::V {
        // SAFETY: `self` proves AVX.
        unsafe { [_mm256_sqrt_pd(x[0]), _mm256_sqrt_pd(x[1])] }
    }
    #[inline(always)]
    fn abs(self, x: Self::V) -> Self::V {
        // SAFETY: `self` proves AVX.
        unsafe {
            let sign = _mm256_set1_pd(-0.0);
            [_mm256_andnot_pd(sign, x[0]), _mm256_andnot_pd(sign, x[1])]
        }
    }
    #[inline(always)]
    fn gt_bits(self, a: Self::V, b: Self::V) -> u8 {
        // SAFETY: `self` proves AVX.
        unsafe {
            let lo = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(a[0], b[0]));
            let hi = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_GT_OQ>(a[1], b[1]));
            (lo | hi << 4) as u8
        }
    }
    /// Each lane tests its own bit of the broadcast `bits`.
    #[inline(always)]
    fn select(self, bits: u8, on: Self::V, off: Self::V) -> Self::V {
        // SAFETY: `self` proves AVX2.
        unsafe {
            let b = _mm256_set1_epi64x(bits as i64);
            let lane0 = _mm256_set_epi64x(8, 4, 2, 1);
            let lane1 = _mm256_set_epi64x(128, 64, 32, 16);
            let m0 = _mm256_cmpeq_epi64(_mm256_and_si256(b, lane0), lane0);
            let m1 = _mm256_cmpeq_epi64(_mm256_and_si256(b, lane1), lane1);
            [
                _mm256_blendv_pd(off[0], on[0], _mm256_castsi256_pd(m0)),
                _mm256_blendv_pd(off[1], on[1], _mm256_castsi256_pd(m1)),
            ]
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl Simd for Avx512 {
    /// One register is the pinned 8-wide lane.
    type V = __m512d;
    /// The 2⁻¹⁴ hardware seeds need two steps: 6.1e−5 → 5.6e−9 → 4.7e−17.
    const RSQRT_STEPS: usize = 2;
    const RCP_STEPS: usize = 2;

    #[inline(always)]
    fn splat(self, v: f64) -> __m512d {
        // SAFETY: `self` proves AVX-512F.
        unsafe { _mm512_set1_pd(v) }
    }
    #[inline(always)]
    fn load(self, p: &[f64; 8]) -> __m512d {
        // SAFETY: `self` proves AVX-512F; `p` is eight readable f64s.
        unsafe { _mm512_loadu_pd(p.as_ptr()) }
    }
    #[inline(always)]
    fn to_array(self, v: __m512d) -> [f64; 8] {
        let mut out = [0.0f64; 8];
        // SAFETY: `self` proves AVX-512F; `out` is eight writable f64s.
        unsafe { _mm512_storeu_pd(out.as_mut_ptr(), v) };
        out
    }
    /// One unsigned `vpcmpud` over the window.
    #[inline(always)]
    fn ids_in_range(self, ids: &[u32; 8], limit: usize) -> bool {
        // SAFETY: `self` proves AVX-512F; `ids` is 32 readable bytes.
        // `limit ≤ 2³¹` fits a u32; the cast to i32 only relabels bits
        // for the unsigned compare. Lanes 8–15 hold zeros, which pass
        // whenever a real id can (all sixteen bits set is the one mask
        // value AVX-512F can branch on without a move to a register).
        unsafe {
            let v = _mm512_zextsi256_si512(_mm256_loadu_si256(ids.as_ptr().cast()));
            _mm512_cmplt_epu32_mask(v, _mm512_set1_epi32(limit as u32 as i32)) == 0xffff
        }
    }
    #[inline(always)]
    fn add(self, a: __m512d, b: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F.
        unsafe { _mm512_add_pd(a, b) }
    }
    #[inline(always)]
    fn sub(self, a: __m512d, b: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F.
        unsafe { _mm512_sub_pd(a, b) }
    }
    #[inline(always)]
    fn mul(self, a: __m512d, b: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F.
        unsafe { _mm512_mul_pd(a, b) }
    }
    #[inline(always)]
    fn max(self, a: __m512d, b: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F.
        unsafe { _mm512_max_pd(a, b) }
    }
    #[inline(always)]
    fn min(self, a: __m512d, b: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F.
        unsafe { _mm512_min_pd(a, b) }
    }
    #[inline(always)]
    fn fma(self, a: __m512d, b: __m512d, c: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F.
        unsafe { _mm512_fmadd_pd(a, b, c) }
    }
    #[inline(always)]
    fn fnma(self, a: __m512d, b: __m512d, c: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F.
        unsafe { _mm512_fnmadd_pd(a, b, c) }
    }
    /// A masked add: sub-threshold lanes keep `acc` untouched.
    #[inline(always)]
    fn add_if_gt(self, acc: __m512d, term: __m512d, x: __m512d, thr: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F.
        unsafe { _mm512_mask_add_pd(acc, _mm512_cmp_pd_mask::<_CMP_GT_OQ>(x, thr), acc, term) }
    }
    #[inline(always)]
    fn rsqrt_seed(self, x: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F.
        unsafe { _mm512_rsqrt14_pd(x) }
    }
    #[inline(always)]
    fn rcp_seed(self, x: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F.
        unsafe { _mm512_rcp14_pd(x) }
    }
    #[inline(always)]
    fn exp2_scale(self, p: __m512d, m: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F.
        unsafe {
            let k = _mm512_and_epi64(_mm512_castpd_si512(m), _mm512_set1_epi64(MANTISSA as i64));
            let exponent = _mm512_add_epi64(k, _mm512_set1_epi64(EXP2_BIAS));
            _mm512_mul_pd(p, _mm512_castsi512_pd(_mm512_slli_epi64::<52>(exponent)))
        }
    }
    #[inline(always)]
    fn sqrt(self, x: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F.
        unsafe { _mm512_sqrt_pd(x) }
    }
    #[inline(always)]
    fn abs(self, x: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F.
        unsafe { _mm512_abs_pd(x) }
    }
    #[inline(always)]
    fn gt_bits(self, a: __m512d, b: __m512d) -> u8 {
        // SAFETY: `self` proves AVX-512F.
        unsafe { _mm512_cmp_pd_mask::<_CMP_GT_OQ>(a, b) }
    }
    /// A blend through the mask register; around an `add` it folds
    /// into one masked add.
    #[inline(always)]
    fn select(self, bits: u8, on: __m512d, off: __m512d) -> __m512d {
        // SAFETY: `self` proves AVX-512F.
        unsafe { _mm512_mask_blend_pd(bits, off, on) }
    }
}

/// Declare one dispatched kernel: a function with the given visibility
/// and signature that runs the generic `$body` on the widest tier the CPU
/// has (AVX-512F, then AVX2+FMA, then portable). Each x86 tier gets a
/// `#[target_feature]` wrapper so the `#[inline(always)]` body, and the
/// intrinsics inside it, are compiled with that tier's instructions.
macro_rules! tiers {
    ($(#[$attr:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:ident) => {
        $(#[$attr])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx512f")]
                fn avx512(s: Avx512, $($arg: $ty),*) $(-> $ret)? {
                    $body(s, $($arg),*)
                }
                if let Some(s) = Avx512::detect() {
                    // SAFETY: `detect` saw avx512f on this CPU.
                    return unsafe { avx512(s, $($arg),*) };
                }
            }
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            {
                #[target_feature(enable = "avx2,fma")]
                fn avx2(s: Avx2, $($arg: $ty),*) $(-> $ret)? {
                    $body(s, $($arg),*)
                }
                if let Some(s) = Avx2::detect() {
                    // SAFETY: `detect` saw avx2 and fma on this CPU.
                    return unsafe { avx2(s, $($arg),*) };
                }
            }
            $body(Portable, $($arg),*)
        }
    };
}

/// Horizontal sum in the pinned low → high lane order.
#[inline(always)]
fn hsum<S: Simd>(s: S, v: S::V) -> f64 {
    let lanes = s.to_array(v);
    let mut sum = lanes[0];
    for &x in &lanes[1..] {
        sum += x;
    }
    sum
}

/// Exact-grade `1/√x`: the tier's seed refined by its Newton step count
/// (`y ← y·(1.5 − 0.5·x·y²)`, error squares each step). Inputs must be
/// positive normals (the kernels clamp before calling).
#[inline(always)]
fn rsqrt<S: Simd>(s: S, x: S::V) -> S::V {
    let mut y = s.rsqrt_seed(x);
    let three_half = s.splat(1.5);
    let neg_half_x = s.mul(x, s.splat(-0.5));
    for _ in 0..S::RSQRT_STEPS {
        // t = 1.5 − 0.5·x·y² as one FMA chain: (−0.5x·y)·y + 1.5.
        let t = s.fma(s.mul(neg_half_x, y), y, three_half);
        y = s.mul(y, t);
    }
    y
}

/// Exact-grade `1/x` without a vector divide on the x86 tiers:
/// `r ← r·(2 − x·r)` from the tier's seed. Inputs must be positive
/// normals.
#[inline(always)]
fn rcp<S: Simd>(s: S, x: S::V) -> S::V {
    let mut r = s.rcp_seed(x);
    let two = s.splat(2.0);
    for _ in 0..S::RCP_STEPS {
        r = s.mul(r, s.fnma(x, r, two));
    }
    r
}

// Cody–Waite split of ln 2 (high part has trailing zero bits, so
// `k·LN2_HI` is exact for |k| < 2²⁰) and the 1.5·2⁵² magic shift that
// forces round-to-nearest-integer in f64 arithmetic.
const EXP_SHIFT: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
const LN2_HI: f64 = 6.931_471_803_691_238e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// Beyond ±708 the result under/overflows the normal range; clamping
/// keeps the bit-assembled 2^k scale a valid normal.
const EXP_CLAMP: f64 = 708.0;
/// Taylor coefficients 1/12! … 1/2! of the `exp` polynomial.
/// Remainder ≤ (ln2/2)¹³/13! ≈ 2.4e−16.
const EXP_TAYLOR: [f64; 11] = [
    2.087_675_698_786_81e-9,    // 1/12!
    2.505_210_838_544_172e-8,   // 1/11!
    2.755_731_922_398_589e-7,   // 1/10!
    2.755_731_922_398_589_4e-6, // 1/9!
    2.480_158_730_158_73e-5,    // 1/8!
    1.984_126_984_126_984e-4,   // 1/7!
    1.388_888_888_888_889e-3,   // 1/6!
    8.333_333_333_333_333e-3,   // 1/5!
    4.166_666_666_666_666_4e-2, // 1/4!
    1.666_666_666_666_666_6e-1, // 1/3!
    5e-1,                       // 1/2!
];

/// Exact-grade `exp` (≈1 e−15 relative): range reduction
/// `x = k·ln2 + r` with `|r| ≤ ln2/2` via the magic-shift trick, a
/// degree-12 Taylor polynomial in Horner form, and `2^k` assembled
/// directly in the exponent field.
#[inline(always)]
fn exp<S: Simd>(s: S, x: S::V) -> S::V {
    let x = s.min(s.max(x, s.splat(-EXP_CLAMP)), s.splat(EXP_CLAMP));
    let shift = s.splat(EXP_SHIFT);
    // m's low mantissa bits now hold round(x/ln2) + 2⁵¹.
    let m = s.fma(x, s.splat(std::f64::consts::LOG2_E), shift);
    let kf = s.sub(m, shift);
    let r = s.fnma(kf, s.splat(LN2_HI), x);
    let r = s.fnma(kf, s.splat(LN2_LO), r);
    let mut p = s.splat(EXP_TAYLOR[0]);
    for &c in &EXP_TAYLOR[1..] {
        p = s.fma(p, r, s.splat(c));
    }
    let one = s.splat(1.0);
    p = s.fma(p, r, one);
    p = s.fma(p, r, one);
    s.exp2_scale(p, m)
}

/// Pad the ragged last window of a column (1–7 elements) to a full
/// lane with `fill`.
#[inline(always)]
fn pad8<T: Copy>(rem: &[T], fill: T) -> [T; 8] {
    let mut w = [fill; 8];
    w[..rem.len()].copy_from_slice(rem);
    w
}

/// As [`pad8`], replicating the last element so the padded lanes hold
/// real data (ids that address real atoms, positions and radii that
/// keep `f_GB` positive).
#[inline(always)]
fn pad_last<T: Copy>(rem: &[T]) -> [T; 8] {
    pad8(rem, rem[rem.len() - 1])
}

/// The length the columns share. Panics if they differ.
#[inline(always)]
fn common_len<const N: usize>(cols: &[&[f64]; N]) -> usize {
    let n = cols[0].len();
    assert!(
        cols.iter().all(|c| c.len() == n),
        "columns differ in length"
    );
    n
}

/// `acc + term` in the lanes whose bit is set; the others keep `acc`.
#[inline(always)]
fn add_mask<S: Simd>(s: S, acc: S::V, term: S::V, bits: u8) -> S::V {
    s.select(bits, s.add(acc, term), acc)
}

/// Q-leaves per Born block: the plan groups consecutive `T_Q` leaves
/// eight at a time and stores each partner id once per block. A constant
/// of the list format like [`LANE_WIDTH`], not a setting — no sum depends
/// on it (every accumulator takes its terms in ascending q-leaf order
/// whatever the grouping).
pub const QLEAF_BLOCK: usize = 8;

/// Eight partner ids shared by the q-leaves of one block — `T_A` node
/// ids in a far list, atom slots in a near list — and which leaves meet
/// which of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct Window {
    /// Partner ids, one per lane. The ids of lanes that some leaf
    /// contributes to must be distinct; a padding lane repeats a real id
    /// and is in no leaf's row.
    pub ids: [u32; LANE_WIDTH],
    /// `by_leaf[l]` bit `k` is set iff leaf `l` of the block has a term
    /// for `ids[k]`.
    pub by_leaf: [u8; QLEAF_BLOCK],
}

/// Panics unless the leaves `first..first + n` a call covers (their rows
/// of every window's `by_leaf`) lie inside one block.
#[inline(always)]
fn assert_leaves_in_block(first: usize, n: usize) {
    assert!(
        first + n <= QLEAF_BLOCK,
        "leaves {first}..{} are not inside one block of {QLEAF_BLOCK}",
        first + n
    );
}

/// The lanes any of the leaves `rows` contributes to.
#[inline(always)]
fn union_rows(rows: &[u8]) -> u8 {
    let mut any = 0;
    for &row in rows {
        any |= row;
    }
    any
}

/// `Σ_j w_j·(d⃗·n⃗_j)/r⁶` over the q-points `q` (columns x, y, z, nx, ny,
/// nz, w) for eight atoms at `a`, one per lane — accumulators live in
/// lanes, so there is no horizontal reduction.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // j indexes all seven q columns
fn born_near_term<S: Simd>(s: S, a: [S::V; 3], q: &[&[f64]; 7]) -> S::V {
    let (floor, guard) = (s.splat(R2_FLOOR), s.splat(R2_GUARD));
    let mut acc = s.splat(0.0);
    for j in 0..q[0].len() {
        let dx = s.sub(s.splat(q[0][j]), a[0]);
        let dy = s.sub(s.splat(q[1][j]), a[1]);
        let dz = s.sub(s.splat(q[2][j]), a[2]);
        let r2 = s.fma(dz, dz, s.fma(dy, dy, s.mul(dx, dx)));
        let dot = s.mul(
            s.fma(
                dz,
                s.splat(q[5][j]),
                s.fma(dy, s.splat(q[4][j]), s.mul(dx, s.splat(q[3][j]))),
            ),
            s.splat(q[6][j]),
        );
        let inv_r2 = rcp(s, s.max(r2, floor));
        let inv6 = s.mul(s.mul(inv_r2, inv_r2), inv_r2);
        // Same guard as the scalar kernel; the blend discards any
        // clamped-lane garbage instead of multiplying it by 0.
        acc = s.add_if_gt(acc, s.mul(dot, inv6), r2, guard);
    }
    acc
}

#[inline(always)]
fn born_near_blocks_body<S: Simd>(
    s: S,
    windows: &[Window],
    first: usize,
    q_bounds: &[u32],
    a: [&[f64]; 3],
    q: [&[f64]; 7],
    s_atom: &mut [f64],
) {
    let n = q_bounds.len().saturating_sub(1);
    assert_leaves_in_block(first, n);
    common_len(&q); // panics if the q columns differ in length
                    // Each leaf's q-points, sliced once per call.
    let mut leaf_q = [[&[] as &[f64]; 7]; QLEAF_BLOCK];
    for l in 0..n {
        for (col, src) in leaf_q[l].iter_mut().zip(q) {
            *col = &src[q_bounds[l] as usize..q_bounds[l + 1] as usize];
        }
    }
    let limit = common_len(&a).min(s_atom.len());
    for win in windows {
        let w = checked(s, &win.ids, limit);
        let rows = &win.by_leaf[first..first + n];
        let pos = [s.gather(a[0], w), s.gather(a[1], w), s.gather(a[2], w)];
        let mut sum = s.gather(s_atom, w);
        for (q, &row) in leaf_q.iter().zip(rows) {
            if row != 0 {
                sum = add_mask(s, sum, born_near_term(s, pos, q), row);
            }
        }
        s.scatter_mask(s_atom, w, sum, union_rows(rows));
    }
}

tiers! {
    /// Blocked Born near kernel: for every window of one block's near
    /// list and every leaf `l` of `first..first + n` (block-local,
    /// `n = q_bounds.len() − 1`) with a nonzero row, add the descreening
    /// integrals `Σ_j w_j·(d⃗·n⃗_j)/r⁶` of leaf `l`'s q-points — slots
    /// `q_bounds[l − first]..q_bounds[l − first + 1]` of the columns `q`
    /// (x, y, z, nx, ny, nz, w) — to `s_atom[ids[k]]` in the lanes of
    /// its row. A window's positions (columns `a`: x, y, z) and its
    /// accumulators are gathered once and scattered once, and leaves
    /// add in ascending order, so every accumulator receives its terms
    /// in ascending q-leaf order however the leaves are split over
    /// calls.
    ///
    /// # Panics
    /// If an id is out of range for `a` or `s_atom`, the leaves do not
    /// fit one block, a bound is outside `q`, or the columns of `a` or
    /// of `q` differ in length.
    pub fn born_near_blocks(
        windows: &[Window],
        first: usize,
        q_bounds: &[u32],
        a: [&[f64]; 3],
        q: [&[f64]; 7],
        s_atom: &mut [f64],
    ) = born_near_blocks_body
}

/// The pseudo-q-point of one `T_Q` leaf: its centroid, weighted normal
/// sum and dipole moment about the centroid.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QLeafMoments {
    pub center: [f64; 3],
    pub nsum: [f64; 3],
    pub dipole: QDipole,
}

/// Eight R6 far terms `(ñ·d + tr D)/r⁶ − 6·(dᵀDd)/r⁸` of the a-node
/// centers `an`, one per lane, against the broadcast q-leaf `q`.
#[inline(always)]
fn born_far_term<S: Simd>(s: S, an: [S::V; 3], q: &QLeafMoments) -> S::V {
    let dx = s.sub(s.splat(q.center[0]), an[0]);
    let dy = s.sub(s.splat(q.center[1]), an[1]);
    let dz = s.sub(s.splat(q.center[2]), an[2]);
    let r2 = s.fma(dz, dz, s.fma(dy, dy, s.mul(dx, dx)));
    let dot = s.fma(
        dz,
        s.splat(q.nsum[2]),
        s.fma(dy, s.splat(q.nsum[1]), s.mul(dx, s.splat(q.nsum[0]))),
    );
    let mut m = [s.splat(0.0); 9];
    for (lanes, &v) in m.iter_mut().zip(&q.dipole.m) {
        *lanes = s.splat(v);
    }
    let quad = s.fma(
        dz,
        s.fma(dz, m[8], s.fma(dy, m[7], s.mul(dx, m[6]))),
        s.fma(
            dy,
            s.fma(dz, m[5], s.fma(dy, m[4], s.mul(dx, m[3]))),
            s.mul(dx, s.fma(dz, m[2], s.fma(dy, m[1], s.mul(dx, m[0])))),
        ),
    );
    let inv_r2 = rcp(s, r2);
    let inv_rp = s.mul(s.mul(inv_r2, inv_r2), inv_r2);
    s.sub(
        s.mul(s.add(dot, s.splat(q.dipole.trace())), inv_rp),
        s.mul(s.mul(s.splat(6.0), quad), s.mul(inv_rp, inv_r2)),
    )
}

#[inline(always)]
fn born_far_blocks_body<S: Simd>(
    s: S,
    windows: &[Window],
    first: usize,
    leaves: &[QLeafMoments],
    an: [&[f64]; 3],
    s_node: &mut [f64],
) {
    assert_leaves_in_block(first, leaves.len());
    let limit = common_len(&an).min(s_node.len());
    // The centers and `s_node` fit in L1 for realistic trees;
    // out-of-order execution overlaps consecutive windows.
    for win in windows {
        let w = checked(s, &win.ids, limit);
        let rows = &win.by_leaf[first..first + leaves.len()];
        let c = [s.gather(an[0], w), s.gather(an[1], w), s.gather(an[2], w)];
        let mut sum = s.gather(s_node, w);
        for (q, &row) in leaves.iter().zip(rows) {
            if row != 0 {
                sum = add_mask(s, sum, born_far_term(s, c, q), row);
            }
        }
        s.scatter_mask(s_node, w, sum, union_rows(rows));
    }
}

tiers! {
    /// Blocked Born far kernel: for every window of one block's far
    /// list and every leaf `l` of `first..first + leaves.len()`
    /// (block-local) with a nonzero row, add the R6 pseudo-q-point term
    /// of (a-node, leaf `l`) to `s_node[ids[k]]` in the lanes of its
    /// row. `an` holds the node-center columns (x, y, z) by node id. A
    /// window's centers and accumulators are gathered once and
    /// scattered once under the union of the rows, with leaves adding in
    /// ascending order in between — see [`born_near_blocks`]. The lane
    /// reciprocal-multiply formulation is ulp-grade against the strict
    /// two-division scalar term, not bitwise.
    ///
    /// # Panics
    /// If an id is out of range for `an` or `s_node`, the leaves do not
    /// fit one block, or the columns of `an` differ in length.
    pub fn born_far_blocks(
        windows: &[Window],
        first: usize,
        leaves: &[QLeafMoments],
        an: [&[f64]; 3],
        s_node: &mut [f64],
    ) = born_far_blocks_body
}

/// The q-leaves of one block as the joint walk reads them: center x, y,
/// z and radius, one leaf per lane. Aligned to a cache line because the
/// walk's loop reads the four rows from here on every node — they are
/// reloaded, not held in registers, across its `push` calls — and rows
/// that straddle two lines made the walk 30 % slower, or not, depending
/// on how deep the caller's stack happened to be.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
pub(crate) struct QLeafLanes(pub [[f64; 8]; 4]);

/// What one block's joint walk of `T_A` decided.
#[derive(Debug, Default)]
pub(crate) struct BlockWalk {
    /// (`T_A` node id, leaves it is separated from), in pre-order.
    pub far: Vec<(NodeId, u8)>,
    /// (atom slot, leaves whose walk reached its leaf), slots ascending.
    pub near: Vec<(u32, u8)>,
    /// Per leaf, the minimum `|d − sep|` over its separation tests.
    pub margin: [f64; QLEAF_BLOCK],
    /// Per leaf, the `T_A` leaves its walk reached.
    pub near_blocks: [u32; QLEAF_BLOCK],
    /// Σ over leaves of the nodes each one's own walk visits.
    pub visited: u64,
}

/// The Fig. 2 separation test of one `T_A` node against eight q-leaves
/// (`q`: center x, y, z and radius, one leaf per lane): the lanes that
/// are separated, and every lane's `|d − sep|`. The operation order is
/// the scalar test's — `sub, mul, add, add` for `d²`, no FMA, IEEE `√` —
/// so both are bit-equal to `recurse_qleaf`'s on every tier.
#[inline(always)]
fn separation_test<S: Simd>(s: S, node: &OctreeNode, q: &[S::V; 4], factor: S::V) -> (u8, S::V) {
    let dx = s.sub(s.splat(node.center.x), q[0]);
    let dy = s.sub(s.splat(node.center.y), q[1]);
    let dz = s.sub(s.splat(node.center.z), q[2]);
    let d_sq = s.add(s.add(s.mul(dx, dx), s.mul(dy, dy)), s.mul(dz, dz));
    let sep = s.mul(s.add(s.splat(node.radius), q[3]), factor);
    let gap = s.abs(s.sub(s.sqrt(d_sq), sep));
    let far = s.gt_bits(d_sq, s.mul(sep, sep)) & s.gt_bits(d_sq, s.splat(0.0));
    (far, gap)
}

#[inline(always)]
fn born_block_walk_body<S: Simd>(
    s: S,
    tree_a: &Octree,
    q: &QLeafLanes,
    active: u8,
    factor: f64,
    out: &mut BlockWalk,
) {
    out.far.clear();
    out.near.clear();
    out.near_blocks = [0; QLEAF_BLOCK];
    out.visited = 0;
    let q = [
        s.load(&q.0[0]),
        s.load(&q.0[1]),
        s.load(&q.0[2]),
        s.load(&q.0[3]),
    ];
    let factor = s.splat(factor);
    let mut margin = s.splat(f64::INFINITY);
    // The leaves still walking at each depth: a node's mask is what its
    // parent left undecided, and pre-order guarantees the parent was the
    // last node written at the depth above.
    let mut open = [0u8; 257];
    open[0] = active;
    let nodes = tree_a.nodes();
    let mut id = 0;
    while let Some(node) = nodes.get(id) {
        let here = open[node.depth as usize];
        out.visited += here.count_ones() as u64;
        let (far, gap) = separation_test(s, node, &q, factor);
        margin = s.select(here, s.min(margin, gap), margin);
        let far = far & here;
        if far != 0 {
            out.far.push((id as NodeId, far));
        }
        let near = here & !far;
        if near != 0 {
            if !node.is_leaf {
                open[node.depth as usize + 1] = near;
                id += 1;
                continue;
            }
            for slot in node.start..node.end {
                out.near.push((slot, near));
            }
            let mut rest = near;
            while rest != 0 {
                out.near_blocks[rest.trailing_zeros() as usize] += 1;
                rest &= rest - 1;
            }
        }
        id = node.skip as usize;
    }
    out.margin = s.to_array(margin);
}

tiers! {
    /// One joint stackless walk of `tree_a`'s pre-order nodes, read in
    /// place (`id + 1` descends, `skip` cuts a subtree), for a block of
    /// up to eight q-leaves — `q` holds their centers (x, y, z) and
    /// radii one leaf per lane, `active` the lanes that are leaves —
    /// replacing `out`'s contents with every leaf's decisions. Lane `l` is tested on exactly the
    /// nodes leaf `l`'s own walk would visit, with bit-equal arithmetic
    /// (see `separation_test`), so the far/near sets, the margins and
    /// the visit count are those of eight separate `recurse_qleaf`
    /// walks.
    pub(crate) fn born_block_walk(
        tree_a: &Octree,
        q: &QLeafLanes,
        active: u8,
        factor: f64,
        out: &mut BlockWalk,
    ) = born_block_walk_body
}

/// Equally long atom columns: position, charge, Born radius and its
/// reciprocal — the order of the public kernels' `[&[f64]; 6]`.
#[derive(Clone, Copy)]
struct Atoms<'a> {
    x: &'a [f64],
    y: &'a [f64],
    z: &'a [f64],
    q: &'a [f64],
    r: &'a [f64],
    ri: &'a [f64],
}

impl<'a> Atoms<'a> {
    #[inline(always)]
    fn new(c: [&'a [f64]; 6]) -> (Atoms<'a>, usize) {
        let [x, y, z, q, r, ri] = c;
        (Atoms { x, y, z, q, r, ri }, common_len(&c))
    }
}

/// Eight atoms, one per lane.
struct Lanes<S: Simd> {
    x: S::V,
    y: S::V,
    z: S::V,
    q: S::V,
    r: S::V,
    ri: S::V,
}

impl<S: Simd> Lanes<S> {
    #[inline(always)]
    fn gather(s: S, a: Atoms<'_>, w: Ids<'_>) -> Lanes<S> {
        Lanes {
            x: s.gather(a.x, w),
            y: s.gather(a.y, w),
            z: s.gather(a.z, w),
            q: s.gather(a.q, w),
            r: s.gather(a.r, w),
            ri: s.gather(a.ri, w),
        }
    }

    /// From one window of each column, in [`Atoms`] field order.
    #[inline(always)]
    fn load(s: S, c: [&[f64; 8]; 6]) -> Lanes<S> {
        Lanes {
            x: s.load(c[0]),
            y: s.load(c[1]),
            z: s.load(c[2]),
            q: s.load(c[3]),
            r: s.load(c[4]),
            ri: s.load(c[5]),
        }
    }
}

/// `q_a·q_b / f_GB(r²_ab, R_a, R_b)` of the broadcast atom `u[i]`
/// (charge passed as `qa`) against the eight atoms `b`. With
/// reciprocal radii the exponent argument `−r²/(4·R_aR_b)` is a product,
/// so the term is division-free (a vector divide costs more than the
/// whole rest of it on most cores).
#[inline(always)]
fn epol_near_term<S: Simd>(s: S, b: &Lanes<S>, u: Atoms<'_>, i: usize, qa: S::V) -> S::V {
    let dx = s.sub(b.x, s.splat(u.x[i]));
    let dy = s.sub(b.y, s.splat(u.y[i]));
    let dz = s.sub(b.z, s.splat(u.z[i]));
    let r2 = s.fma(dz, dz, s.fma(dy, dy, s.mul(dx, dx)));
    let rr = s.mul(s.splat(u.r[i]), b.r);
    // f_GB² = r² + R_aR_b·exp(−r²/(4R_aR_b)); since rr > 0 the argument
    // is finite and f² ≥ max(r², rr·e^arg) stays normal.
    let arg = s.mul(s.mul(r2, s.splat(-0.25 * u.ri[i])), b.ri);
    let f2 = s.fma(rr, exp(s, arg), r2);
    s.mul(s.mul(qa, b.q), rsqrt(s, f2))
}

/// Every atom of `u` against the eight atoms `b`. Two `u` atoms per
/// pass keep two independent exp/rsqrt dependency chains in flight;
/// `acc.0` and `acc.1` combine once at the end of the kernel (fixed
/// order — deterministic).
#[inline(always)]
fn epol_near_window<S: Simd>(
    s: S,
    b: &Lanes<S>,
    u: Atoms<'_>,
    mut acc: (S::V, S::V),
) -> (S::V, S::V) {
    let n_u = u.x.len();
    let mut a = 0;
    while a < n_u {
        acc.0 = s.add(acc.0, epol_near_term(s, b, u, a, s.splat(u.q[a])));
        // An odd final atom runs chain 1 on itself with zero charge.
        let (a1, qa1) = if a + 1 < n_u {
            (a + 1, u.q[a + 1])
        } else {
            (a, 0.0)
        };
        acc.1 = s.add(acc.1, epol_near_term(s, b, u, a1, s.splat(qa1)));
        a += 2;
    }
    acc
}

/// A maximal run of consecutive atom slots, `start..start + len`, in an
/// energy-stage near list: Morton order keeps a partner leaf's atoms —
/// and usually its neighbours' — side by side, so a source leaf's
/// partners are a few long runs rather than many ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct Run {
    pub start: u32,
    pub len: u32,
}

impl Run {
    /// The slots of the run.
    #[inline(always)]
    pub fn slots(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// Out of line, like [`id_out_of_range`].
#[cold]
#[inline(never)]
fn run_out_of_range(run: Run, limit: usize) -> ! {
    panic!("lane id out of range: {run:?} must end at or below {limit}")
}

/// The full eight-slot windows of `col[slots]`.
#[inline(always)]
fn windows_of(col: &[f64], slots: std::ops::Range<usize>) -> &[[f64; 8]] {
    col[slots].as_chunks::<8>().0
}

#[inline(always)]
fn epol_near_runs_body<S: Simd>(s: S, runs: &[Run], a: [&[f64]; 6], u: [&[f64]; 6]) -> f64 {
    let ((a, limit), (u, n_u)) = (Atoms::new(a), Atoms::new(u));
    if n_u == 0 {
        return 0.0;
    }
    let limit = limit.min(1 << 31);
    let mut acc = (s.splat(0.0), s.splat(0.0));
    // The window being assembled across a run boundary.
    let (mut ids, mut held) = ([0u32; 8], 0);
    for &run in runs {
        let std::ops::Range { start: mut at, end } = run.slots();
        if end > limit {
            run_out_of_range(run, limit);
        }
        while held > 0 && at < end {
            ids[held] = at as u32;
            (held, at) = (held + 1, at + 1);
            if held == 8 {
                let b = Lanes::gather(s, a, checked(s, &ids, limit));
                acc = epol_near_window(s, &b, u, acc);
                held = 0;
            }
        }
        // Inside the run a window is six contiguous loads, in range
        // because the run is.
        let body = at..end;
        let (x, y, z) = (
            windows_of(a.x, body.clone()),
            windows_of(a.y, body.clone()),
            windows_of(a.z, body.clone()),
        );
        let (q, r, ri) = (
            windows_of(a.q, body.clone()),
            windows_of(a.r, body.clone()),
            windows_of(a.ri, body),
        );
        for j in 0..x.len() {
            let b = Lanes::load(s, [&x[j], &y[j], &z[j], &q[j], &r[j], &ri[j]]);
            acc = epol_near_window(s, &b, u, acc);
        }
        for slot in at + 8 * x.len()..end {
            ids[held] = slot as u32;
            held += 1;
        }
    }
    if held > 0 {
        let mut b = Lanes::gather(s, a, checked(s, &pad_last(&ids[..held]), limit));
        // The replicated lanes are real atoms (their f_GB stays
        // positive); zeroing their charge removes the duplicates.
        b.q = s.load(&pad8(&s.to_array(b.q)[..held], 0.0));
        acc = epol_near_window(s, &b, u, acc);
    }
    hsum(s, s.add(acc.0, acc.1))
}

tiers! {
    /// Energy near kernel: returns `Σ_{a∈U, b∈runs} q_a q_b /
    /// f_GB(r²_ab, R_a, R_b)` with exact-grade lane math. The lane side
    /// is the slots of `runs`, taken eight at a time **as if the runs
    /// were one flat list** — so a lane holds the atom it would hold if
    /// every slot were stored, whatever the run lengths: a window inside
    /// one run is six contiguous loads from the slot-indexed atom
    /// columns `a`, a window that straddles runs gathers its eight
    /// slots, and the ragged last window repeats its last slot with the
    /// charge zeroed. `u` holds the broadcast side. Both are columns x,
    /// y, z, charge, Born radius and reciprocal Born radius. One
    /// horizontal sum at the end, low → high.
    ///
    /// # Panics
    /// If a run ends outside `a`, or the columns of one side differ in
    /// length.
    pub fn epol_near_runs(runs: &[Run], a: [&[f64]; 6], u: [&[f64]; 6]) -> f64
        = epol_near_runs_body
}

/// The far-field rows one source leaf `V` meets, laid end to end: for
/// every real (nonzero-charge) bin of every far node `U`, the bin's
/// charge and representative radius, `−d²_UV/(4·R)` and `d²_UV`. Lanes
/// then run over bins of *all* the leaf's far nodes at once and are full
/// but for one ragged tail per leaf, where a lane pass per (U, V) entry
/// has `nz(V)` ≈ 1–3 of eight lanes live.
#[derive(Debug, Default)]
pub struct FarRows {
    q: Vec<f64>,
    r: Vec<f64>,
    /// `−¼·d²·R⁻¹`: times `R_v⁻¹` it is the exponent argument, so the
    /// term stays division-free.
    s: Vec<f64>,
    d_sq: Vec<f64>,
}

impl FarRows {
    /// Empty rows with room for `entries` bins.
    pub fn with_capacity(entries: usize) -> FarRows {
        let col = || Vec::with_capacity(entries);
        FarRows {
            q: col(),
            r: col(),
            s: col(),
            d_sq: col(),
        }
    }

    /// Empty the rows, keeping their capacity for the next leaf.
    pub fn clear(&mut self) {
        for col in [&mut self.q, &mut self.r, &mut self.s, &mut self.d_sq] {
            col.clear();
        }
    }

    /// Append one far node's real bins — charges, radii and radius
    /// reciprocals (see
    /// [`crate::energy::octree::EpolCtx::compact_row`]) — at squared
    /// center distance `d_sq` from the source leaf.
    ///
    /// # Panics
    /// If the three rows differ in length.
    pub fn push_row(&mut self, d_sq: f64, u: [&[f64]; 3]) {
        let n = common_len(&u);
        self.q.extend_from_slice(u[0]);
        self.r.extend_from_slice(u[1]);
        self.s.extend(u[2].iter().map(|&ri| -0.25 * d_sq * ri));
        self.d_sq.extend(std::iter::repeat_n(d_sq, n));
    }
}

/// Eight far terms `q_u q_v / f_GB(d², R_u, R_v)`, one row entry per
/// lane (`u`: charge, radius, `−¼d²/R`, `d²`), against the broadcast bin
/// `v` (charge, radius, radius reciprocal).
#[inline(always)]
fn epol_far_term<S: Simd>(s: S, u: [&[f64; 8]; 4], v: [S::V; 3]) -> S::V {
    let rr = s.mul(v[1], s.load(u[1]));
    let arg = s.mul(s.load(u[2]), v[2]);
    let f2 = s.fma(rr, exp(s, arg), s.load(u[3]));
    s.mul(s.mul(s.load(u[0]), v[0]), rsqrt(s, f2))
}

#[inline(always)]
fn epol_far_rows_body<S: Simd>(s: S, rows: &FarRows, v: [&[f64]; 3]) -> f64 {
    let (n_v, [vq, vr, vri]) = (common_len(&v), v);
    let (q, tq) = rows.q.as_chunks::<8>();
    let (r, tr) = rows.r.as_chunks::<8>();
    let (su, ts) = rows.s.as_chunks::<8>();
    let (d_sq, td) = rows.d_sq.as_chunks::<8>();
    // The ragged tail, padded once per leaf: charge 0 makes the padded
    // terms vanish, radius 1 at distance 1 keeps their f_GB positive.
    let tail = [pad8(tq, 0.0), pad8(tr, 1.0), pad8(ts, 0.0), pad8(td, 1.0)];
    let mut acc = s.splat(0.0);
    for i in 0..n_v {
        let bin = [s.splat(vq[i]), s.splat(vr[i]), s.splat(vri[i])];
        for j in 0..q.len() {
            acc = s.add(acc, epol_far_term(s, [&q[j], &r[j], &su[j], &d_sq[j]], bin));
        }
        if !tq.is_empty() {
            let [q, r, su, d_sq] = &tail;
            acc = s.add(acc, epol_far_term(s, [q, r, su, d_sq], bin));
        }
    }
    hsum(s, acc)
}

tiers! {
    /// The whole far field of one source leaf of the energy stage in one
    /// lane pass: `Σ q_u q_v / f_GB(d²_UV, R_u, R_v)` over every entry of
    /// `rows` and every bin of `v` — the leaf's own real bins as charges,
    /// representative radii and radius reciprocals, each broadcast over
    /// the rows. Every term is the one a pass per (U, V) entry computes;
    /// only the order they are summed in is the rows'. One horizontal
    /// sum per leaf, low → high.
    ///
    /// # Panics
    /// If the rows of `v` differ in length.
    pub fn epol_far_rows(rows: &FarRows, v: [&[f64]; 3]) -> f64
        = epol_far_rows_body
}

/// One target against eight partners:
/// `k = τ·q_aq_b(1 − e/4)/f³` per lane, `g += k·(x⃗_a − x⃗_b)`; `kept`
/// counts the lanes that were *not* sub-guard. `t` holds the broadcast
/// target with its charge pre-scaled by τ and `ri` pre-scaled by −¼.
#[inline(always)]
fn epol_grad_window<S: Simd>(s: S, t: &Lanes<S>, b: &Lanes<S>, g: &mut [S::V; 3], kept: &mut S::V) {
    let (one, guard) = (s.splat(1.0), s.splat(R2_GUARD));
    let dx = s.sub(t.x, b.x);
    let dy = s.sub(t.y, b.y);
    let dz = s.sub(t.z, b.z);
    let r2 = s.fma(dz, dz, s.fma(dy, dy, s.mul(dx, dx)));
    let rr = s.mul(t.r, b.r);
    let e = exp(s, s.mul(s.mul(r2, t.ri), b.ri));
    let f2 = s.fma(rr, e, r2);
    let inv_f = rsqrt(s, f2);
    let k = s.mul(
        s.mul(s.mul(t.q, b.q), s.fma(e, s.splat(-0.25), one)),
        s.mul(s.mul(inv_f, inv_f), inv_f),
    );
    // Sub-guard lanes blend to 0 and are left out of the kept count.
    let k = s.add_if_gt(s.splat(0.0), k, r2, guard);
    *kept = s.add_if_gt(*kept, one, r2, guard);
    g[0] = s.fma(dx, k, g[0]);
    g[1] = s.fma(dy, k, g[1]);
    g[2] = s.fma(dz, k, g[2]);
}

#[inline(always)]
fn epol_grad_block_body<S: Simd>(
    s: S,
    u: [&[f64]; 6],
    v: [&[f64]; 6],
    tau: f64,
    g: [&mut [f64]; 3],
) -> u64 {
    let ((u, n_u), (v, n_v)) = (Atoms::new(u), Atoms::new(v));
    if n_u == 0 || n_v == 0 {
        return 0;
    }
    let (fx, tx) = v.x.as_chunks::<8>();
    let (fy, ty) = v.y.as_chunks::<8>();
    let (fz, tz) = v.z.as_chunks::<8>();
    let (fq, tq) = v.q.as_chunks::<8>();
    let (fr, tr) = v.r.as_chunks::<8>();
    let (fri, tri) = v.ri.as_chunks::<8>();
    // The ragged tail is padded once per block, not once per target:
    // positions and radii replicate the last partner, charges pad with 0.
    let tail = if tx.is_empty() {
        None
    } else {
        let cols = [
            &pad_last(tx),
            &pad_last(ty),
            &pad_last(tz),
            &pad8(tq, 0.0),
            &pad_last(tr),
            &pad_last(tri),
        ];
        Some(Lanes::load(s, cols))
    };
    let [gx, gy, gz] = g;
    let zero = s.splat(0.0);
    let mut kept = zero;
    for a in 0..n_u {
        let t = Lanes::<S> {
            x: s.splat(u.x[a]),
            y: s.splat(u.y[a]),
            z: s.splat(u.z[a]),
            q: s.splat(tau * u.q[a]),
            r: s.splat(u.r[a]),
            ri: s.splat(-0.25 * u.ri[a]),
        };
        let mut acc = [zero; 3];
        for j in 0..fx.len() {
            let b = Lanes::load(s, [&fx[j], &fy[j], &fz[j], &fq[j], &fr[j], &fri[j]]);
            epol_grad_window(s, &t, &b, &mut acc, &mut kept);
        }
        if let Some(b) = &tail {
            epol_grad_window(s, &t, b, &mut acc, &mut kept);
        }
        gx[a] += hsum(s, acc[0]);
        gy[a] += hsum(s, acc[1]);
        gz[a] += hsum(s, acc[2]);
    }
    let lanes = n_u * n_v.div_ceil(LANE_WIDTH) * LANE_WIDTH;
    lanes as u64 - hsum(s, kept) as u64
}

tiers! {
    /// One (targets × partners) frozen-Born-radii *gradient* block: for
    /// each target atom `a` of `u`, accumulate `Σ_b τ·q_aq_b(1 −
    /// e/4)/f³·(x⃗_a − x⃗_b)` over the partners `v` into `g[axis][a]`
    /// (`u` and `v` are columns x, y, z, charge, Born radius, reciprocal
    /// Born radius). Lanes run over partners, targets broadcast; each
    /// target's three component sums reduce once per block (low → high),
    /// so a target's value is a fixed-order sum for a fixed
    /// partner-block sequence — the execute layer replays blocks in plan
    /// order, making the whole gradient bitwise-deterministic.
    ///
    /// Sub-guard pairs (`r² ≤ R2_GUARD`) are blended to zero *and
    /// counted*: the return value is the number of such lanes, padded
    /// ones included. A target meeting itself (the leaf's own near block)
    /// contributes exactly one expected count; any excess means genuinely
    /// coincident atoms and the caller escalates to a typed error.
    /// Partner columns shorter than a lane multiple are tail-padded in
    /// registers (positions clamped, charges zeroed), which is only
    /// count-safe when real partners cannot coincide with targets (far
    /// blocks); near blocks must be pre-padded by the caller with far
    /// sentinel positions instead.
    ///
    /// # Panics
    /// If the columns of one side differ in length or a `g` slice is
    /// shorter than the targets.
    pub fn epol_grad_block(u: [&[f64]; 6], v: [&[f64]; 6], tau: f64, g: [&mut [f64]; 3]) -> u64
        = epol_grad_block_body
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::born::octree::BornKernel;
    use crate::energy::exact::gb_pair;
    use crate::energy::gradient::pair_dedr_over_r;
    use crate::energy::octree::BinScheme;
    use polar_geom::{MathMode, Vec3};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Run `$body` once per tier this CPU has — `Portable`, then every
    /// x86 tier `detect()` returns, narrowest first — with `$s` bound to
    /// the tier's token and `$tier` to its name. The last run is the
    /// tier the public dispatchers pick.
    macro_rules! each_tier {
        (|$s:ident, $tier:ident| $body:block) => {{
            {
                let ($s, $tier) = (Portable, "portable");
                $body
            }
            #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
            if let Some($s) = Avx2::detect() {
                let $tier = "avx2";
                $body
            }
            #[cfg(target_arch = "x86_64")]
            if let Some($s) = Avx512::detect() {
                let $tier = "avx512";
                $body
            }
        }};
    }

    /// Deterministic pseudo-random f64 in [lo, hi) (splitmix64).
    fn rng(seed: &mut u64, lo: f64, hi: f64) -> f64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        lo + (hi - lo) * (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn column(seed: &mut u64, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| rng(seed, lo, hi)).collect()
    }

    fn cols<const N: usize>(c: &[Vec<f64>; N]) -> [&[f64]; N] {
        c.each_ref().map(|c| c.as_slice())
    }

    fn rel(a: f64, b: f64) -> f64 {
        ((a - b) / b.abs().max(1e-300)).abs()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Running a kernel again into its own output doubles it exactly:
    /// it accumulates, and it produces the same bits every run.
    fn assert_doubled(twice: &[f64], once: &[f64], tier: &str) {
        let doubled: Vec<f64> = once.iter().map(|x| 2.0 * x).collect();
        assert_eq!(bits(twice), bits(&doubled), "{tier}: not deterministic");
    }

    /// The public dispatcher ran the last (widest) tier of `each_tier!`.
    fn assert_widest(per_tier: &[Vec<f64>], dispatched: &[f64]) {
        let widest = per_tier.last().unwrap();
        assert_eq!(bits(widest), bits(dispatched), "not the widest tier");
    }

    /// `n` distinct ids below `pool` in four orders: ascending from 0
    /// (contiguous), reversed, strided and scattered (`pool` must be a
    /// prime above `3n`).
    fn id_lists(n: usize, pool: usize) -> [(&'static str, Vec<u32>); 4] {
        assert!(pool > 3 * n);
        let identity: Vec<u32> = (0..n as u32).collect();
        [
            ("reversed", identity.iter().rev().copied().collect()),
            ("identity", identity),
            ("strided", (0..n as u32).map(|k| 3 * k + 1).collect()),
            (
                "scattered",
                (0..n).map(|k| ((k * 37 + 5) % pool) as u32).collect(),
            ),
        ]
    }

    #[test]
    fn labels_and_default() {
        assert_eq!(KernelMode::Lane.label(), "lane");
        assert_eq!(KernelMode::Strict.label(), "strict");
        assert_eq!(KernelMode::default(), KernelMode::Lane);
    }

    #[test]
    fn width_is_pinned() {
        // Changing the dispatched width silently re-associates every
        // reduction between releases — widen only with a CHANGES entry
        // and a refreshed BENCH_kernels baseline.
        assert_eq!(LANE_WIDTH, 8);
    }

    #[test]
    fn host_tiers_are_listed() {
        // CI reads this line to check that an x86-64 runner exercised
        // more than the portable tier.
        let mut tiers = Vec::new();
        each_tier!(|_s, tier| {
            tiers.push(tier);
        });
        println!("each_tier tiers: {}", tiers.join(" "));
        assert_eq!(tiers[0], "portable");
    }

    #[test]
    fn elementary_functions_are_exact_grade_on_every_tier() {
        let wide: Vec<f64> = (0..71).map(|k| 1e-20 * 3.7f64.powi(k)).collect(); // to 6e19
        let mut args: Vec<f64> = (0..4105).map(|k| -700.0 + 0.173 * k as f64).collect(); // to 10
        args.extend([0.0, -1e9, 1e9]);
        each_tier!(|s, tier| {
            for w in wide.chunks(8) {
                let x = pad_last(w);
                let r = s.to_array(rsqrt(s, s.load(&x)));
                let q = s.to_array(rcp(s, s.load(&x)));
                for (k, x) in x.into_iter().enumerate() {
                    assert!(rel(r[k], 1.0 / x.sqrt()) < 5e-15, "{tier} rsqrt({x})");
                    assert!(rel(q[k], 1.0 / x) < 5e-15, "{tier} rcp({x})");
                }
            }
            for w in args.chunks(8) {
                let x = pad_last(w);
                let e = s.to_array(exp(s, s.load(&x)));
                for k in 0..8 {
                    // Edges: exact at 0, clamped (not garbage) far out
                    // of range.
                    if x[k] == 0.0 {
                        assert_eq!(e[k], 1.0, "{tier}");
                    } else if x[k].abs() == 1e9 {
                        assert!(e[k].is_finite() && (x[k] > 0.0 || e[k] < 1e-300), "{tier}");
                    } else {
                        assert!(rel(e[k], x[k].exp()) < 5e-15, "{tier} exp({})", x[k]);
                    }
                }
            }
            // Low → high: a pairwise tree would keep the first 1.0.
            let v = [1e16, 1.0, -1e16, 1.0, 3.0, 0.5, 0.25, 0.125];
            assert_eq!(hsum(s, s.load(&v)), 4.875, "{tier}");
        });
    }

    /// Atom columns (x, y, z) and q-point columns (x, y, z, nx, ny, nz, w).
    fn born_fixture(n_a: usize, n_q: usize, seed: u64) -> ([Vec<f64>; 3], [Vec<f64>; 7]) {
        let mut s = seed;
        let a = [(); 3].map(|_| column(&mut s, n_a, -8.0, 8.0));
        let q = [(-9.0, 9.0); 3]
            .into_iter()
            .chain([(-1.0, 1.0); 3])
            .chain([(0.1, 2.0)])
            .map(|(lo, hi)| column(&mut s, n_q, lo, hi));
        (a, Vec::from_iter(q).try_into().unwrap())
    }

    /// The strict loop's descreening terms of atom `i` against the
    /// q-points `range`: their sum and the sum of their magnitudes.
    fn born_near_scalar(
        a: &[Vec<f64>; 3],
        q: &[Vec<f64>; 7],
        range: std::ops::Range<usize>,
        i: usize,
    ) -> (f64, f64) {
        let (mut sum, mut scale) = (0.0, 0.0);
        for j in range {
            let d = [q[0][j] - a[0][i], q[1][j] - a[1][i], q[2][j] - a[2][i]];
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            let dot = q[6][j] * (d[0] * q[3][j] + d[1] * q[4][j] + d[2] * q[5][j]);
            if r2 > R2_GUARD {
                sum += dot / (r2 * r2 * r2);
                scale += (dot / (r2 * r2 * r2)).abs();
            }
        }
        (sum, scale)
    }

    /// Windows over `ids` in order, id `k` meeting the leaves
    /// `leaves[k]`; the last window is padded as the plan pads it.
    fn windows(ids: &[u32], leaves: &[u8]) -> Vec<Window> {
        ids.chunks(8)
            .zip(leaves.chunks(8))
            .map(|(ids, leaves)| {
                let mut w = Window {
                    ids: pad_last(ids),
                    by_leaf: [0; QLEAF_BLOCK],
                };
                for (k, &m) in leaves.iter().enumerate() {
                    for l in 0..QLEAF_BLOCK {
                        w.by_leaf[l] |= (m >> l & 1) << k;
                    }
                }
                w
            })
            .collect()
    }

    /// Leaf sets for `n` ids: every leaf, one leaf, none (an id only
    /// other calls' leaves meet, so whole windows can be empty), and a
    /// seeded mix in which some ids meet no leaf of a sub-range.
    fn leaf_patterns(n: usize, seed: &mut u64) -> [(&'static str, Vec<u8>); 4] {
        [
            ("every leaf", vec![0xff; n]),
            ("one leaf", vec![1 << 5; n]),
            ("no leaf", vec![0; n]),
            (
                "mixed",
                (0..n).map(|_| rng(seed, 0.0, 256.0) as u8).collect(),
            ),
        ]
    }

    /// The sub-ranges `(first, n)` of a block's leaves a call may cover:
    /// the whole block, each count 1–8 from the front, and interior and
    /// trailing cuts.
    fn leaf_ranges() -> Vec<(usize, usize)> {
        let mut ranges: Vec<(usize, usize)> = (1..=QLEAF_BLOCK).map(|n| (0, n)).collect();
        ranges.extend([(5, 1), (3, 4), (7, 1), (2, 6), (4, 0)]);
        ranges
    }

    /// Hold one blocked kernel run `got` (from zeros) to the scalar
    /// reference `want(leaf, id) -> (term, scale)` summed over the
    /// leaves `first..first + n` that meet each id; unmet ids must not
    /// have been written.
    #[allow(clippy::too_many_arguments)]
    fn assert_blocked_sums(
        got: &[f64],
        ids: &[u32],
        leaves: &[u8],
        (first, n): (usize, usize),
        want: &dyn Fn(usize, usize) -> (f64, f64),
        what: &str,
    ) {
        let mut met = vec![false; got.len()];
        for (&id, &m) in ids.iter().zip(leaves) {
            let (mut sum, mut scale) = (0.0, 0.0);
            for l in (first..first + n).filter(|l| m >> l & 1 == 1) {
                let (t, s) = want(l, id as usize);
                sum += t;
                scale += s;
                met[id as usize] = true;
            }
            let g = got[id as usize];
            assert!(
                (g - sum).abs() <= 1e-12 * scale,
                "{what} #{id}: {g} vs {sum}"
            );
        }
        for (i, g) in got.iter().enumerate() {
            assert!(met[i] || g.to_bits() == 0, "{what}: wrote unmet id {i}");
        }
    }

    #[test]
    fn born_near_blocks_matches_scalar_on_every_tier() {
        // Leaves of 1–5 q-points (the plan's are ~3.2); leaf 5 is where
        // the "one leaf" pattern lands.
        let bounds: [u32; 9] = [0, 3, 4, 8, 11, 16, 19, 22, 25];
        let pool = 101;
        let (a, mut q) = born_fixture(pool, 25, 0x5eed);
        // A q-point of leaf 5 sitting exactly on atom 6: the r² guard
        // must contribute an exact 0, not inf·0 = NaN.
        for k in 0..3 {
            q[k][17] = a[k][6];
        }
        let want = |l: usize, i: usize| {
            born_near_scalar(&a, &q, bounds[l] as usize..bounds[l + 1] as usize, i)
        };
        // (ids): full windows, a padded last window, a single id.
        for n in [8, 13, 1, 32] {
            let mut seed = 0xb10c + n as u64;
            for (order, ids) in id_lists(n, pool) {
                for (pattern, leaves) in leaf_patterns(n, &mut seed) {
                    let win = windows(&ids, &leaves);
                    for (first, count) in leaf_ranges() {
                        let what = format!("{order} {n} ids, {pattern}, leaves {first}+{count}");
                        let q_bounds = &bounds[first..=first + count];
                        let mut per_tier = Vec::new();
                        each_tier!(|s, tier| {
                            let what = format!("{tier} {what}");
                            let mut got = vec![0.0; pool];
                            born_near_blocks_body(
                                s,
                                &win,
                                first,
                                q_bounds,
                                cols(&a),
                                cols(&q),
                                &mut got,
                            );
                            assert_blocked_sums(&got, &ids, &leaves, (first, count), &want, &what);
                            // Leaf by leaf, in ascending order, into one
                            // buffer: the same bits as the one call.
                            let mut pieced = vec![0.0; pool];
                            for l in first..first + count {
                                let one = &bounds[l..=l + 1];
                                born_near_blocks_body(
                                    s,
                                    &win,
                                    l,
                                    one,
                                    cols(&a),
                                    cols(&q),
                                    &mut pieced,
                                );
                            }
                            assert_eq!(bits(&pieced), bits(&got), "{what}: depends on the cut");
                            per_tier.push(got);
                        });
                        let mut dispatched = vec![0.0; pool];
                        born_near_blocks(
                            &win,
                            first,
                            q_bounds,
                            cols(&a),
                            cols(&q),
                            &mut dispatched,
                        );
                        assert_widest(&per_tier, &dispatched);
                    }
                }
            }
        }
        // A lone coincident pair: exactly zero.
        each_tier!(|s, tier| {
            let (at, normal, mut z) = ([&[1.0][..], &[2.0], &[3.0]], &[0.5][..], [0.0]);
            let q = [at[0], at[1], at[2], normal, normal, normal, &[1.0]];
            born_near_blocks_body(s, &windows(&[0], &[1]), 0, &[0, 1], at, q, &mut z);
            assert_eq!(z[0].to_bits(), 0, "{tier}");
        });
    }

    #[test]
    fn born_far_blocks_matches_the_strict_far_term_on_every_tier() {
        let pool = 101;
        let mut seed = 0xfa2u64;
        // Node centers 12–30 Å from the q-leaves: far, as the plan's
        // separation test guarantees.
        let an = [(); 3].map(|_| column(&mut seed, pool, 7.0, 17.0));
        let block: [QLeafMoments; QLEAF_BLOCK] = core::array::from_fn(|_| QLeafMoments {
            center: core::array::from_fn(|_| rng(&mut seed, -2.0, 1.0)),
            nsum: core::array::from_fn(|_| rng(&mut seed, -1.2, 1.2)),
            dipole: QDipole {
                m: core::array::from_fn(|_| rng(&mut seed, -2.0, 2.0)),
            },
        });
        let want = |l: usize, i: usize| {
            let (q, v) = (&block[l], |c: [f64; 3]| Vec3::new(c[0], c[1], c[2]));
            let d = v(q.center) - Vec3::new(an[0][i], an[1][i], an[2][i]);
            let r2 = d.dot(d);
            let term = BornKernel::R6.far_term(v(q.nsum), &q.dipole, d, r2);
            // The two parts cancel: measure against their sizes.
            let r6 = r2 * r2 * r2;
            let scale = (v(q.nsum).dot(d) + q.dipole.trace()).abs() / r6
                + 6.0 * q.dipole.quad(d).abs() / (r6 * r2);
            (term, scale)
        };
        for n in [0, 1, 7, 8, 9, 32, 33] {
            for (order, ids) in id_lists(n, pool) {
                for (pattern, leaves) in leaf_patterns(n, &mut seed) {
                    let win = windows(&ids, &leaves);
                    for (first, count) in leaf_ranges() {
                        let what = format!("{order} {n} ids, {pattern}, leaves {first}+{count}");
                        let in_range = &block[first..first + count];
                        let mut per_tier = Vec::new();
                        each_tier!(|s, tier| {
                            let what = format!("{tier} {what}");
                            let mut got = vec![0.0; pool];
                            born_far_blocks_body(s, &win, first, in_range, cols(&an), &mut got);
                            assert_blocked_sums(&got, &ids, &leaves, (first, count), &want, &what);
                            let mut pieced = vec![0.0; pool];
                            for l in first..first + count {
                                born_far_blocks_body(
                                    s,
                                    &win,
                                    l,
                                    &block[l..=l],
                                    cols(&an),
                                    &mut pieced,
                                );
                            }
                            assert_eq!(bits(&pieced), bits(&got), "{what}: depends on the cut");
                            per_tier.push(got);
                        });
                        let mut dispatched = vec![0.0; pool];
                        born_far_blocks(&win, first, in_range, cols(&an), &mut dispatched);
                        assert_widest(&per_tier, &dispatched);
                    }
                }
            }
        }
    }

    #[test]
    fn separation_test_is_bit_equal_to_the_scalar_test_on_every_tier() {
        let mut seed = 0x5e9;
        for case in 0..400 {
            // Eight leaves: centers x, y, z and radii.
            let mut q = [(-30.0, 30.0), (-30.0, 30.0), (-30.0, 30.0), (0.0, 4.0)]
                .map(|(lo, hi)| [(); 8].map(|_| rng(&mut seed, lo, hi)));
            let mut node = OctreeNode {
                center: Vec3::new(
                    rng(&mut seed, -30.0, 30.0),
                    rng(&mut seed, -30.0, 30.0),
                    rng(&mut seed, -30.0, 30.0),
                ),
                radius: rng(&mut seed, 0.0, 12.0),
                start: 0,
                end: 1,
                skip: 1,
                depth: 0,
                is_leaf: true,
            };
            let factor = 1.0 + 2.0 / [0.1, 0.5, 0.9][case % 3];
            // Coincident centers (`d² = 0` is never far), a zero-radius
            // pair on top of them (`sep = 0`, margin 0), and a lane
            // exactly on the boundary `d = sep`.
            node.center = match case % 8 {
                0 | 1 => Vec3::new(q[0][3], q[1][3], q[2][3]),
                _ => node.center,
            };
            if case % 8 == 1 {
                (node.radius, q[3][3]) = (0.0, 0.0);
            }
            if case % 8 == 2 {
                (q[1][5], q[2][5]) = (node.center.y, node.center.z);
                (node.radius, q[3][5]) = (1.5, 0.5);
                q[0][5] = node.center.x + 2.0 * factor;
            }
            each_tier!(|s, tier| {
                let lanes = [s.load(&q[0]), s.load(&q[1]), s.load(&q[2]), s.load(&q[3])];
                let (far, gap) = separation_test(s, &node, &lanes, s.splat(factor));
                let gap = s.to_array(gap);
                for lane in 0..8 {
                    // `recurse_qleaf`, word for word.
                    let c = Vec3::new(q[0][lane], q[1][lane], q[2][lane]);
                    let d_sq = node.center.dist_sq(c);
                    let sep = (node.radius + q[3][lane]) * factor;
                    let want = d_sq > sep * sep && d_sq > 0.0;
                    assert_eq!(far >> lane & 1 == 1, want, "{tier} case {case} lane {lane}");
                    let want = (d_sq.sqrt() - sep).abs();
                    assert_eq!(gap[lane].to_bits(), want.to_bits(), "{tier} case {case}");
                }
            });
        }
    }

    /// Columns x, y, z, charge, Born radius, reciprocal radius.
    fn atoms_fixture(n: usize, seed: &mut u64) -> [Vec<f64>; 6] {
        let [x, y, z] = [(); 3].map(|_| column(seed, n, -6.0, 6.0));
        let (q, r) = (column(seed, n, -0.8, 0.8), column(seed, n, 1.0, 4.0));
        let ri = r.iter().map(|&r| 1.0 / r).collect();
        [x, y, z, q, r, ri]
    }

    /// `x⃗_u[a] − x⃗_v[b]` and its squared length.
    fn delta(u: &[Vec<f64>; 6], a: usize, v: &[Vec<f64>; 6], b: usize) -> ([f64; 3], f64) {
        let d = [u[0][a] - v[0][b], u[1][a] - v[1][b], u[2][a] - v[2][b]];
        (d, d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
    }

    /// The strict double loop over `u` × `v[ids]`.
    fn epol_near_scalar(u: &[Vec<f64>; 6], v: &[Vec<f64>; 6], ids: &[u32]) -> f64 {
        let mut sum = 0.0;
        for a in 0..u[0].len() {
            for b in ids.iter().map(|&b| b as usize) {
                let r_sq = delta(u, a, v, b).1;
                sum += gb_pair(u[3][a], v[3][b], r_sq, u[4][a], v[4][b], MathMode::Exact);
            }
        }
        sum
    }

    /// One one-slot run per id: every window is assembled on the stack
    /// and gathered, whatever the ids.
    fn one_slot_runs(ids: &[u32]) -> Vec<Run> {
        Vec::from_iter(ids.iter().map(|&start| Run { start, len: 1 }))
    }

    fn runs(shape: &[(u32, u32)]) -> Vec<Run> {
        Vec::from_iter(shape.iter().map(|&(start, len)| Run { start, len }))
    }

    #[test]
    fn epol_near_runs_matches_gb_pair_on_every_tier() {
        let pool = 277;
        let many_short = Vec::from_iter((0..40).map(|k| (k * 5, 1 + k % 3)));
        // (what, broadcast atoms, runs). The broadcast counts are odd and
        // even; (3, 361 slots in five runs) is the 2.5k-globule shape.
        type Shape<'a> = (&'a str, usize, &'a [(u32, u32)]);
        let shapes: [Shape<'_>; 10] = [
            ("one slot", 1, &[(5, 1)]),
            ("seven", 2, &[(3, 7)]),
            ("one window", 8, &[(16, 8)]),
            ("nine", 5, &[(1, 9)]),
            ("ending at the last slot", 3, &[(40, 8), (277 - 21, 21)]),
            ("many short runs", 4, &many_short),
            (
                "straddling windows",
                11,
                &[(0, 5), (100, 6), (9, 13), (200, 1), (50, 31)],
            ),
            ("ragged tail", 2, &[(7, 16), (90, 3)]),
            ("unmerged neighbours", 3, &[(10, 4), (14, 4), (18, 11)]),
            (
                "globule leaf",
                3,
                &[(2, 131), (140, 17), (160, 96), (0, 64), (200, 53)],
            ),
        ];
        for (what, n_u, shape) in shapes {
            let mut seed = 0xabc + n_u as u64;
            let (u, mut a) = (
                atoms_fixture(n_u, &mut seed),
                atoms_fixture(pool, &mut seed),
            );
            let runs = runs(shape);
            let ids = Vec::from_iter(runs.iter().flat_map(|r| r.slots()).map(|s| s as u32));
            // An exact self-pair (r = 0, the Born self-energy).
            for k in 0..6 {
                a[k][ids[0] as usize] = u[k][0];
            }
            let want = epol_near_scalar(&u, &a, &ids);
            let mut per_tier = Vec::new();
            each_tier!(|s, tier| {
                let got = epol_near_runs_body(s, &runs, cols(&a), cols(&u));
                assert!(rel(got, want) < 1e-13, "{tier} {what}: {got} vs {want}");
                // A lane holds the atom it holds in the flat list, loaded
                // or gathered: the same bits.
                let gathered = epol_near_runs_body(s, &one_slot_runs(&ids), cols(&a), cols(&u));
                assert_eq!(
                    got.to_bits(),
                    gathered.to_bits(),
                    "{tier} {what}: gather path"
                );
                per_tier.push(vec![got]);
            });
            let dispatched = epol_near_runs(&runs, cols(&a), cols(&u));
            assert_widest(&per_tier, &[dispatched]);
        }
        // Ids in any order, through the gather path alone.
        let mut seed = 0xabd;
        let (u, a) = (atoms_fixture(5, &mut seed), atoms_fixture(pool, &mut seed));
        for (order, ids) in id_lists(17, pool) {
            let want = epol_near_scalar(&u, &a, &ids);
            each_tier!(|s, tier| {
                let got = epol_near_runs_body(s, &one_slot_runs(&ids), cols(&a), cols(&u));
                assert!(rel(got, want) < 1e-13, "{tier} {order}: {got} vs {want}");
            });
        }
        assert_eq!(epol_near_runs(&[], cols(&a), cols(&u)), 0.0);
        let no_u = atoms_fixture(0, &mut seed);
        assert_eq!(epol_near_runs(&runs(&[(0, 9)]), cols(&a), cols(&no_u)), 0.0);
    }

    #[test]
    fn epol_far_rows_matches_the_per_entry_scalar_loop_on_every_tier() {
        let born: Vec<f64> = (0..40).map(|i| 1.0 + 0.15 * i as f64).collect();
        let bins = BinScheme::new(&born, 0.1);
        let nb = bins.nbins;
        assert!(nb >= 8);
        let mut seed = 0x9d0u64;
        // A histogram with a charge in every bin `keep` accepts, and its
        // compacted row (charges, radii, reciprocals).
        let mut hist = |keep: &dyn Fn(usize) -> bool| {
            let h =
                Vec::from_iter((0..nb).map(|k| keep(k) as u8 as f64 * rng(&mut seed, 0.1, 0.5)));
            let real = Vec::from_iter((0..nb).filter(|&k| h[k] != 0.0));
            let row = [
                Vec::from_iter(real.iter().map(|&k| h[k])),
                Vec::from_iter(real.iter().map(|&k| bins.bin_radius(k))),
                Vec::from_iter(real.iter().map(|&k| 1.0 / bins.bin_radius(k))),
            ];
            (h, row)
        };
        // Far nodes with 1 (a single-bin U), 2, 3 and 8 real bins, in
        // lists that end on a full lane and on a ragged one.
        let us = [
            hist(&|k| k == 2),
            hist(&|k| k % 4 == 1),
            hist(&|k| k % 3 == 0),
            hist(&|k| k < 8),
        ];
        let lists: [&[usize]; 4] = [&[], &[0], &[3, 3], &[1, 0, 2, 3, 0, 1, 1, 2, 0]];
        for (vh, vrow) in [hist(&|k| k == 5), hist(&|k| k % 2 == 0), hist(&|k| k < 8)] {
            for list in lists {
                let mut rows = FarRows::default();
                let (mut want, mut want_evals) = (0.0, 0usize);
                for (entry, &node) in list.iter().enumerate() {
                    let (uh, urow) = &us[node];
                    let d_sq = 400.0 + 37.0 * entry as f64;
                    rows.push_row(d_sq, cols(urow));
                    for (i, &qu) in uh.iter().enumerate().filter(|(_, &q)| q != 0.0) {
                        for (j, &qv) in vh.iter().enumerate().filter(|(_, &q)| q != 0.0) {
                            let rr = bins.radius_product(i, j);
                            want += qu * qv / (d_sq + rr * (-d_sq / (4.0 * rr)).exp()).sqrt();
                            want_evals += 1;
                        }
                    }
                }
                let what = format!("nz(V) {} over {list:?}", vrow[0].len());
                assert_eq!(rows.q.len() * vrow[0].len(), want_evals, "{what}: evals");
                let mut per_tier = Vec::new();
                each_tier!(|s, tier| {
                    let e = epol_far_rows_body(s, &rows, cols(&vrow));
                    assert!(
                        rel(e, want) < 1e-13 || e == want,
                        "{tier} {what}: {e} vs {want}"
                    );
                    let again = epol_far_rows_body(s, &rows, cols(&vrow));
                    assert_eq!(e.to_bits(), again.to_bits(), "{tier}: not deterministic");
                    per_tier.push(vec![e]);
                });
                assert_widest(&per_tier, &[epol_far_rows(&rows, cols(&vrow))]);
                // Refilled rows hold nothing of the last leaf.
                rows.clear();
                assert_eq!(epol_far_rows(&rows, cols(&vrow)), 0.0);
            }
        }
    }

    #[test]
    fn gather_and_scatter_mask_move_the_same_lanes_on_every_tier() {
        let mut seed = 0x6a7;
        let src = column(&mut seed, 40, -9.0, 9.0);
        // Distinct ids, the last slot, and a padded window whose unused
        // lanes repeat its last id (as the plan pads a Born list).
        let windows: [([u32; 8], u8); 4] = [
            ([0, 1, 2, 3, 4, 5, 6, 7], 0xff),
            ([39, 0, 17, 5, 38, 20, 1, 9], 0b1010_0101),
            ([3, 9, 4, 4, 4, 4, 4, 4], 0b0000_0111),
            ([12; 8], 0),
        ];
        for (ids, mask) in windows {
            let want = ids.map(|id| src[id as usize]);
            let v: [f64; 8] = core::array::from_fn(|k| 100.0 + k as f64);
            let mut want_dst = src.clone();
            for k in (0..8).filter(|k| mask >> k & 1 == 1) {
                want_dst[ids[k] as usize] = v[k];
            }
            each_tier!(|s, tier| {
                let got = s.to_array(s.gather(&src, checked(s, &ids, src.len())));
                assert_eq!(bits(&got), bits(&want), "{tier} gather {ids:?}");
                let mut dst = src.clone();
                s.scatter_mask(&mut dst, checked(s, &ids, 40), s.load(&v), mask);
                assert_eq!(bits(&dst), bits(&want_dst), "{tier} scatter {ids:?}");
            });
        }
        each_tier!(|s, tier| {
            for bad in [40, u32::MAX, 1 << 31] {
                let ids = [0, 1, 2, bad, 4, 5, 6, 7];
                let out = catch_unwind(|| s.gather(&src, checked(s, &ids, src.len())));
                assert!(out.is_err(), "{tier} gathered id {bad} of 40");
            }
        });
    }

    #[test]
    fn epol_grad_matches_scalar_and_counts_suspects_on_every_tier() {
        let tau = 300.0;
        // (targets, partners): lane multiples (the pre-padded near
        // form), ragged and single-element tails (far node slices).
        for (n_u, n_v) in [(8, 16), (5, 17), (1, 1), (11, 3), (3, 96)] {
            let mut seed = 0x6ad + n_u as u64;
            let (u, mut v) = (atoms_fixture(n_u, &mut seed), atoms_fixture(n_v, &mut seed));
            // Plant an exact self-pair: it must count as one suspect and
            // contribute nothing (d⃗ = 0 and the blend both kill it).
            let want_susp = (n_u > 1 && n_v > 1) as u64;
            if want_susp == 1 {
                for k in 0..6 {
                    v[k][1] = u[k][2];
                }
            }
            let mut want = [vec![0.0; n_u], vec![0.0; n_u], vec![0.0; n_u]];
            for a in 0..n_u {
                for b in 0..n_v {
                    let (d, r_sq) = delta(&u, a, &v, b);
                    if r_sq > R2_GUARD {
                        let k = pair_dedr_over_r(
                            u[3][a],
                            v[3][b],
                            r_sq,
                            u[4][a],
                            v[4][b],
                            MathMode::Exact,
                        );
                        for axis in 0..3 {
                            want[axis][a] += d[axis] * tau * k;
                        }
                    }
                }
            }
            let mut per_tier = Vec::new();
            each_tier!(|s, tier| {
                let mut got = [vec![0.0; n_u], vec![0.0; n_u], vec![0.0; n_u]];
                let g = got.each_mut().map(|c| c.as_mut_slice());
                let susp = epol_grad_block_body(s, cols(&u), cols(&v), tau, g);
                assert_eq!(susp, want_susp, "{tier} {n_u}x{n_v}");
                for a in 0..n_u {
                    let scale = want.iter().fold(1e-9f64, |m, w| m.max(w[a].abs()));
                    for axis in 0..3 {
                        let (g, w) = (got[axis][a], want[axis][a]);
                        assert!(
                            (g - w).abs() <= 1e-12 * scale,
                            "{tier} {n_u}x{n_v} {a}.{axis}"
                        );
                    }
                }
                let mut twice = got.clone();
                let g = twice.each_mut().map(|c| c.as_mut_slice());
                epol_grad_block_body(s, cols(&u), cols(&v), tau, g);
                assert_doubled(&twice.concat(), &got.concat(), tier);
                per_tier.push(got.concat());
            });
            let mut dispatched = [vec![0.0; n_u], vec![0.0; n_u], vec![0.0; n_u]];
            let g = dispatched.each_mut().map(|c| c.as_mut_slice());
            assert_eq!(epol_grad_block(cols(&u), cols(&v), tau, g), want_susp);
            assert_widest(&per_tier, &dispatched.concat());
        }
    }

    #[test]
    fn an_out_of_range_id_panics_on_every_tier() {
        let mut seed = 0xbad;
        let (a, u) = (atoms_fixture(40, &mut seed), atoms_fixture(3, &mut seed));
        let (a6, xyz, u6) = (cols(&a), [&a[0][..], &a[1], &a[2]], cols(&u));
        let (_, q) = born_fixture(0, 3, 9);
        let (q, far_leaf) = (cols(&q), [QLeafMoments::default()]);
        // Every kernel that takes ids, over 40-element columns and a
        // `short`-element output. The blocked kernels check a window
        // whatever its rows say: here no leaf meets the bad id.
        let panics = |ids: &[u32], short: usize| {
            let leaves = Vec::from_iter(ids.iter().map(|&id| (id < 40) as u8));
            let win = windows(ids, &leaves);
            each_tier!(|s, tier| {
                let near = catch_unwind(AssertUnwindSafe(|| {
                    born_near_blocks_body(s, &win, 0, &[0, 3], xyz, q, &mut vec![0.0; short])
                }));
                let far = catch_unwind(AssertUnwindSafe(|| {
                    born_far_blocks_body(s, &win, 0, &far_leaf, xyz, &mut vec![0.0; short])
                }));
                let epol = catch_unwind(|| epol_near_runs_body(s, &one_slot_runs(ids), a6, u6));
                assert!(near.is_err(), "{tier} born_near_blocks accepted {ids:?}");
                assert!(far.is_err(), "{tier} born_far_blocks accepted {ids:?}");
                assert!(
                    epol.is_err() || short < 40,
                    "{tier} epol_near accepted {ids:?}"
                );
            });
            // The public dispatchers run the widest tier.
            let near = catch_unwind(AssertUnwindSafe(|| {
                born_near_blocks(&win, 0, &[0, 3], xyz, q, &mut vec![0.0; short])
            }));
            let far = catch_unwind(AssertUnwindSafe(|| {
                born_far_blocks(&win, 0, &far_leaf, xyz, &mut vec![0.0; short])
            }));
            assert!(
                near.is_err() && far.is_err(),
                "dispatchers accepted {ids:?}"
            );
        };
        // One bad id — one past the end, negative as an i32, the sign
        // bit alone — at the start, middle and end of lists that are
        // full windows and ragged tails.
        for n in [5, 8, 13, 32, 35] {
            for at in [0, n / 2, n - 1] {
                for bad in [40, u32::MAX, 1 << 31] {
                    let mut ids: Vec<u32> = (0..n as u32).collect();
                    ids[at] = bad;
                    panics(&ids, 40);
                }
            }
        }
        // The limit is the *shortest* slice: id 20 is inside the atom
        // columns but outside a 16-element output.
        panics(&Vec::from_iter(13..21), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn born_near_blocks_rejects_an_out_of_range_id() {
        let (a, q) = born_fixture(12, 3, 1);
        let win = windows(&[0, 1, 2, 3, 4, 5, 6, 12], &[1; 8]);
        born_near_blocks(&win, 0, &[0, 3], cols(&a), cols(&q), &mut [0.0; 12]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn born_far_blocks_rejects_an_out_of_range_id() {
        let (a, _) = born_fixture(12, 0, 2);
        // In the padded last window, and negative as an i32.
        let ids = [0, 1, 2, 3, 4, 5, 6, 7, 8, u32::MAX];
        let win = windows(&ids, &[1; 10]);
        let leaf = [QLeafMoments {
            center: [90.0; 3],
            nsum: [1.0; 3],
            dipole: QDipole::default(),
        }];
        born_far_blocks(&win, 0, &leaf, cols(&a), &mut [0.0; 12]);
    }

    #[test]
    #[should_panic(expected = "inside one block")]
    fn blocked_kernels_reject_leaves_past_the_block() {
        let (a, _) = born_fixture(12, 0, 2);
        let leaves = [QLeafMoments::default(); 3];
        born_far_blocks(&[], 6, &leaves, cols(&a), &mut [0.0; 12]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn epol_near_runs_rejects_a_run_past_the_columns() {
        let mut seed = 3;
        let (a, u) = (atoms_fixture(12, &mut seed), atoms_fixture(2, &mut seed));
        epol_near_runs(&runs(&[(0, 3), (8, 5)]), cols(&a), cols(&u));
    }
}
