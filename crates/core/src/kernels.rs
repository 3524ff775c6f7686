//! SIMD-lane kernels for the plan execute phase: one source per kernel,
//! instantiated once per ISA tier.
//!
//! The flat interaction lists built by [`crate::plan::InteractionPlan`]
//! turn the two hot traversals into dense block loops — exactly the shape
//! explicit f64 lanes want. This module supplies:
//!
//! * the `Simd` tier trait — an 8-wide f64 vector type and the ~20
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
//!   generic `fn …<S: Simd>`: [`born_near_gather`] (descreening integrals
//!   of a q-leaf group's gathered atom slots), [`born_far_r6_entries`]
//!   (R6 pseudo-q-point terms over a far node-id list),
//!   [`epol_near_gather`] (STILL pair sums of a leaf against its gathered
//!   near partners), [`epol_far_compact`] (binned-charge node-node
//!   interaction over precompacted histogram rows) and
//!   [`epol_grad_block`] (frozen-radii gradient of a targets × partners
//!   block). [`epol_near_block`] and [`epol_far_entry`] are dense-slice
//!   conveniences over the same kernels.
//!
//! ## Dispatch
//!
//! Every public kernel is declared by one `tiers!` line, which emits a
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
//! an `impl Simd for` block behind it. Indexed loads go further: a
//! window of eight ids becomes an `Ids` only after it has been checked
//! against the shortest slice it will index (one `vpcmpud` on AVX-512),
//! so `gather`/`scatter_add` never touch memory outside their slice
//! whatever ids a caller passes — an id out of range is a panic.
//!
//! Each tier fixes its own op sequence, and the generic bodies do not
//! vary it: `Portable` never contracts `a·b + c` (off the FMA units
//! `mul_add` is a slow libm call) and divides for `1/x`; `Avx2` seeds
//! `rsqrt` with the bit trick (4 Newton steps) and `rcp` with `rcpps`
//! through an f32 round-trip (3 steps), gathers with scalar loads and
//! blends with an AND mask; `Avx512` seeds both with the 2⁻¹⁴ hardware
//! estimates (2 steps), gathers with `vgatherdpd` and blends through a
//! mask register.
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
//! goes for any non-`inline(always)` helper. Full id windows are read
//! in place (`as_chunks::<8>()`); only the ragged last window of a list
//! is copied, because eight scalar stores reloaded as one vector stall
//! on store forwarding.
//!
//! ## Accuracy contract and summation order
//!
//! Lane kernels are *not* bitwise-reproducible against the scalar
//! reference loops ([`KernelMode::Strict`] in [`crate::plan`]): each
//! 8-wide accumulator re-associates the sum, and FMA contracts rounding
//! steps. They are exact-grade — every elementary term is computed to a
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
//! a garbage `inf·0`. The one exception is [`born_far_r6_entries`],
//! whose last `len % 8` entries run one at a time in plain f64.

use crate::born::octree::QDipole;
use crate::energy::octree::BinScheme;
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

/// A window of eight ids, every one below `limit` and below 2³¹ (the
/// hardware gather sign-extends 32-bit indices). Built only by
/// [`checked`]; the invariant is what lets `Avx512::gather` and
/// `Avx512::scatter_add` skip per-lane bounds checks.
#[derive(Clone, Copy)]
struct Ids<'a> {
    ids: &'a [u32; 8],
    limit: usize,
}

/// Check one id window against `limit` — the length of the shortest
/// slice the window will index. Panics on an id out of range.
#[inline(always)]
fn checked<S: Simd>(s: S, ids: &[u32; 8], limit: usize) -> Ids<'_> {
    let limit = limit.min(1 << 31);
    if !s.ids_in_range(ids, limit) {
        id_out_of_range(ids, limit);
    }
    Ids { ids, limit }
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
    /// `src[ids[k]]` in lane `k`. Panics unless `src` is at least as
    /// long as the limit `w` was checked against.
    fn gather(self, src: &[f64], w: Ids<'_>) -> Self::V;
    /// `dst[ids[k]] += v[k]`. The ids of one window must be distinct
    /// (the vector form reads all eight before it writes any). Panics
    /// like [`Simd::gather`].
    fn scatter_add(self, dst: &mut [f64], w: Ids<'_>, v: Self::V);
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
}

/// The `fast_rsqrt` bit-trick seed (~3 % error).
const RSQRT_MAGIC: u64 = 0x5fe6_eb50_c7b5_37a9;
/// Mask of an f64's 52 mantissa bits.
const MANTISSA: u64 = (1 << 52) - 1;
/// `2^k` has exponent field `k + 1023`; `m`'s mantissa holds `k + 2⁵¹`.
const EXP2_BIAS: i64 = 1023 - (1 << 51);

/// `dst[ids[k]] += v[k]` for as many lanes as `ids` has.
#[inline(always)]
fn add_lanes(dst: &mut [f64], ids: &[u32], v: &[f64; 8]) {
    for (&id, &x) in ids.iter().zip(v) {
        dst[id as usize] += x;
    }
}

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
    fn gather(self, src: &[f64], w: Ids<'_>) -> [f64; 8] {
        core::array::from_fn(|k| src[w.ids[k] as usize])
    }
    #[inline(always)]
    fn scatter_add(self, dst: &mut [f64], w: Ids<'_>, v: [f64; 8]) {
        add_lanes(dst, w.ids, &v);
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
    /// Eight scalar loads: on AVX2 they beat the 4-wide `vgatherdpd`.
    #[inline(always)]
    fn gather(self, src: &[f64], w: Ids<'_>) -> Self::V {
        self.load(&Portable.gather(src, w))
    }
    #[inline(always)]
    fn scatter_add(self, dst: &mut [f64], w: Ids<'_>, v: Self::V) {
        add_lanes(dst, w.ids, &self.to_array(v));
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
    fn gather(self, src: &[f64], w: Ids<'_>) -> __m512d {
        assert!(
            w.limit <= src.len(),
            "gather source shorter than the checked limit"
        );
        // SAFETY: `self` proves AVX-512F. Every id is below
        // `w.limit ≤ src.len()`, so each lane reads inside `src`, and
        // below 2³¹, so the sign-extended index is the id; scale 8 is
        // `size_of::<f64>()`.
        unsafe { _mm512_i32gather_pd::<8>(_mm256_loadu_si256(w.ids.as_ptr().cast()), src.as_ptr()) }
    }
    #[inline(always)]
    fn scatter_add(self, dst: &mut [f64], w: Ids<'_>, v: __m512d) {
        assert!(
            w.limit <= dst.len(),
            "scatter target shorter than the checked limit"
        );
        // SAFETY: as in `gather`, every lane addresses inside `dst`,
        // which is exclusively borrowed.
        unsafe {
            let idx = _mm256_loadu_si256(w.ids.as_ptr().cast());
            let cur = _mm512_i32gather_pd::<8>(idx, dst.as_ptr());
            _mm512_i32scatter_pd::<8>(dst.as_mut_ptr(), idx, _mm512_add_pd(cur, v));
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
}

/// Declare one dispatched kernel: a public function with the given
/// signature that runs the generic `$body` on the widest tier the CPU
/// has (AVX-512F, then AVX2+FMA, then portable). Each x86 tier gets a
/// `#[target_feature]` wrapper so the `#[inline(always)]` body, and the
/// intrinsics inside it, are compiled with that tier's instructions.
macro_rules! tiers {
    ($(#[$attr:meta])* pub fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:ident) => {
        $(#[$attr])*
        pub fn $name($($arg: $ty),*) $(-> $ret)? {
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

/// `Σ_j w_j·(d⃗·n⃗_j)/r⁶` over the q-point block `q` (columns x, y, z,
/// nx, ny, nz, w) for the eight atoms of window `w`, one per lane —
/// accumulators live in lanes, so there is no horizontal reduction.
#[inline(always)]
#[allow(clippy::needless_range_loop)] // j indexes all seven q columns
fn born_near_window<S: Simd>(s: S, w: Ids<'_>, a: [&[f64]; 3], q: [&[f64]; 7]) -> S::V {
    let (x, y, z) = (s.gather(a[0], w), s.gather(a[1], w), s.gather(a[2], w));
    let (floor, guard) = (s.splat(R2_FLOOR), s.splat(R2_GUARD));
    let mut acc = s.splat(0.0);
    for j in 0..q[0].len() {
        let dx = s.sub(s.splat(q[0][j]), x);
        let dy = s.sub(s.splat(q[1][j]), y);
        let dz = s.sub(s.splat(q[2][j]), z);
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
fn born_near_gather_body<S: Simd>(
    s: S,
    idx: &[u32],
    a: [&[f64]; 3],
    q: [&[f64]; 7],
    out: &mut [f64],
) {
    if idx.is_empty() || common_len(&q) == 0 {
        return;
    }
    let limit = common_len(&a).min(out.len());
    let (windows, rem) = idx.as_chunks::<8>();
    for ids in windows {
        let acc = born_near_window(s, checked(s, ids, limit), a, q);
        add_lanes(out, ids, &s.to_array(acc));
    }
    if !rem.is_empty() {
        // The replicated lanes are computed and dropped: only the real
        // ones are added back.
        let acc = born_near_window(s, checked(s, &pad_last(rem), limit), a, q);
        add_lanes(out, rem, &s.to_array(acc));
    }
}

tiers! {
    /// Gather-form Born near kernel: for every atom slot in `idx` (the
    /// concatenated near-entry ranges of one plan group), accumulate the
    /// descreening integrals `Σ_j w_j·(d⃗·n⃗_j)/r⁶` of the q-leaf block
    /// `q` (columns x, y, z, nx, ny, nz, w) into `out[idx[k]]`. Gathers
    /// straight from the molecule SoA columns `a` (x, y, z) — no scratch
    /// copies, no separate scatter pass.
    ///
    /// # Panics
    /// If an id is out of range for `a` or `out`, or the columns of `a`
    /// or of `q` differ in length.
    pub fn born_near_gather(idx: &[u32], a: [&[f64]; 3], q: [&[f64]; 7], out: &mut [f64])
        = born_near_gather_body
}

/// The broadcast q-node side of a Born far group.
struct FarNode<S: Simd> {
    center: [S::V; 3],
    nsum: [S::V; 3],
    trace: S::V,
    m: [S::V; 9],
    six: S::V,
}

/// Eight R6 far terms `(ñ·d + tr D)/r⁶ − 6·(dᵀDd)/r⁸` from gathered
/// a-node centers `an` (columns x, y, z).
#[inline(always)]
fn born_far_window<S: Simd>(s: S, w: Ids<'_>, an: [&[f64]; 3], q: &FarNode<S>) -> S::V {
    let dx = s.sub(q.center[0], s.gather(an[0], w));
    let dy = s.sub(q.center[1], s.gather(an[1], w));
    let dz = s.sub(q.center[2], s.gather(an[2], w));
    let r2 = s.fma(dz, dz, s.fma(dy, dy, s.mul(dx, dx)));
    let dot = s.fma(dz, q.nsum[2], s.fma(dy, q.nsum[1], s.mul(dx, q.nsum[0])));
    let m = &q.m;
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
        s.mul(s.add(dot, q.trace), inv_rp),
        s.mul(s.mul(q.six, quad), s.mul(inv_rp, inv_r2)),
    )
}

#[inline(always)]
fn born_far_r6_body<S: Simd>(
    s: S,
    a_ids: &[u32],
    an: [&[f64]; 3],
    qc: [f64; 3],
    nsum: [f64; 3],
    dip: &QDipole,
    s_node: &mut [f64],
) {
    let limit = common_len(&an).min(s_node.len());
    let (tr, m) = (dip.trace(), &dip.m);
    let mut moments = [s.splat(0.0); 9];
    for (lanes, &v) in moments.iter_mut().zip(m) {
        *lanes = s.splat(v);
    }
    // The q-side of a far group is one node: moments broadcast, only
    // the a-node centers are gathered per lane.
    let q = FarNode::<S> {
        center: [s.splat(qc[0]), s.splat(qc[1]), s.splat(qc[2])],
        nsum: [s.splat(nsum[0]), s.splat(nsum[1]), s.splat(nsum[2])],
        trace: s.splat(tr),
        m: moments,
        six: s.splat(6.0),
    };
    let (windows, rem) = a_ids.as_chunks::<8>();
    // The centers and `s_node` fit in L1 for realistic trees, so the
    // loop is bound by gather throughput; out-of-order execution
    // overlaps consecutive windows (a hand interleave of four measured
    // no faster).
    for ids in windows {
        let w = checked(s, ids, limit);
        let t = born_far_window(s, w, an, &q);
        s.scatter_add(s_node, w, t);
    }
    if rem.is_empty() {
        return;
    }
    // The last `len % 8` entries, one at a time in plain f64 with the
    // lanes' reciprocal-multiply formulation (the two divisions of the
    // strict term become one reciprocal).
    checked(s, &pad_last(rem), limit);
    for &a_id in rem {
        let a = a_id as usize;
        let dx = qc[0] - an[0][a];
        let dy = qc[1] - an[1][a];
        let dz = qc[2] - an[2][a];
        let r2 = dx * dx + dy * dy + dz * dz;
        let dot = nsum[0] * dx + nsum[1] * dy + nsum[2] * dz;
        let quad = dx * (m[0] * dx + m[1] * dy + m[2] * dz)
            + dy * (m[3] * dx + m[4] * dy + m[5] * dz)
            + dz * (m[6] * dx + m[7] * dy + m[8] * dz);
        let inv_r2 = 1.0 / r2;
        let inv_rp = inv_r2 * inv_r2 * inv_r2;
        s_node[a] += (dot + tr) * inv_rp - 6.0 * quad * inv_rp * inv_r2;
    }
}

tiers! {
    /// Far-field Born kernel: adds the R6 pseudo-q-point term of
    /// (a-node, q-node) to `s_node[a_id]` for every id in `a_ids`, with
    /// the q-side (one node per far group) broadcast. `an` holds the
    /// node-center columns (x, y, z) indexed by node id. Uses the lane
    /// reciprocal-multiply formulation — ulp-grade against the strict
    /// two-division scalar term, not bitwise. The ids of one call must
    /// be distinct (each a-node is visited once per q-leaf); a repeated
    /// id inside an 8-id window would lose all but one of its terms.
    ///
    /// # Panics
    /// If an id is out of range for `an` or `s_node`, or the columns of
    /// `an` differ in length.
    pub fn born_far_r6_entries(
        a_ids: &[u32],
        an: [&[f64]; 3],
        qc: [f64; 3],
        nsum: [f64; 3],
        dip: &QDipole,
        s_node: &mut [f64],
    ) = born_far_r6_body
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

#[inline(always)]
fn epol_near_gather_body<S: Simd>(s: S, idx: &[u32], a: [&[f64]; 6], u: [&[f64]; 6]) -> f64 {
    let ((a, limit), (u, n_u)) = (Atoms::new(a), Atoms::new(u));
    if idx.is_empty() || n_u == 0 {
        return 0.0;
    }
    let mut acc = (s.splat(0.0), s.splat(0.0));
    let (windows, rem) = idx.as_chunks::<8>();
    for ids in windows {
        let b = Lanes::gather(s, a, checked(s, ids, limit));
        acc = epol_near_window(s, &b, u, acc);
    }
    if !rem.is_empty() {
        let mut b = Lanes::gather(s, a, checked(s, &pad_last(rem), limit));
        // The replicated lanes are real atoms (their f_GB stays
        // positive); zeroing their charge removes the duplicates.
        b.q = s.load(&pad8(&s.to_array(b.q)[..rem.len()], 0.0));
        acc = epol_near_window(s, &b, u, acc);
    }
    hsum(s, s.add(acc.0, acc.1))
}

tiers! {
    /// Energy near kernel: returns `Σ_{a∈U, b∈idx} q_a q_b /
    /// f_GB(r²_ab, R_a, R_b)` with exact-grade lane math. The lane side
    /// is `idx` into the slot-indexed atom SoA columns `a` (gathered
    /// eight at a time, amortized over every U atom — no dense scratch
    /// fill); `u` holds the broadcast side. Both are columns x, y, z,
    /// charge, Born radius and reciprocal Born radius (the execute phase
    /// computes the reciprocals once per segment). One horizontal sum at
    /// the end, low → high.
    ///
    /// # Panics
    /// If an id is out of range for `a`, or the columns of one side
    /// differ in length.
    pub fn epol_near_gather(idx: &[u32], a: [&[f64]; 6], u: [&[f64]; 6]) -> f64
        = epol_near_gather_body
}

/// Dense form of [`epol_near_gather`] that computes the Born radius
/// reciprocals itself: `u*`/`v*` are the two leaves' slot ranges of
/// positions, charges and Born radii, and the lanes run over all of `V`.
#[allow(clippy::too_many_arguments)]
pub fn epol_near_block(
    ux: &[f64],
    uy: &[f64],
    uz: &[f64],
    uq: &[f64],
    ur: &[f64],
    vx: &[f64],
    vy: &[f64],
    vz: &[f64],
    vq: &[f64],
    vr: &[f64],
) -> f64 {
    let uri: Vec<f64> = ur.iter().map(|&r| 1.0 / r).collect();
    let vri: Vec<f64> = vr.iter().map(|&r| 1.0 / r).collect();
    let all_v: Vec<u32> = (0..vx.len() as u32).collect();
    let (u, v) = ([ux, uy, uz, uq, ur, &uri], [vx, vy, vz, vq, vr, &vri]);
    epol_near_gather(&all_v, v, u)
}

#[inline(always)]
fn epol_far_compact_body<S: Simd>(s: S, d_sq: f64, u: [&[f64]; 3], v: [&[f64]; 3]) -> f64 {
    let (n_u, [uq, ur, uri]) = (common_len(&u), u);
    let (vq, _) = v[0].as_chunks::<8>();
    let (vr, _) = v[1].as_chunks::<8>();
    let (vri, _) = v[2].as_chunks::<8>();
    assert!(
        common_len(&v) == 8 * vq.len(),
        "V rows must be padded to a LANE_WIDTH multiple"
    );
    let d2 = s.splat(d_sq);
    let mut acc = s.splat(0.0);
    for i in 0..n_u {
        let qul = s.splat(uq[i]);
        let pul = s.splat(ur[i]);
        let su = s.splat(-0.25 * d_sq * uri[i]);
        for j in 0..vq.len() {
            let rr = s.mul(pul, s.load(&vr[j]));
            let arg = s.mul(su, s.load(&vri[j]));
            let f2 = s.fma(rr, exp(s, arg), d2);
            acc = s.add(acc, s.mul(s.mul(qul, s.load(&vq[j])), rsqrt(s, f2)));
        }
    }
    hsum(s, acc)
}

tiers! {
    /// One far (U, V) entry of the energy stage over *compacted*
    /// histogram rows (see
    /// [`crate::energy::octree::EpolCtx::compact_row`]): `u` holds U's
    /// nonzero bin charges, representative radii and radius reciprocals
    /// (real entries only); `v` holds the same three rows but padded to
    /// a [`LANE_WIDTH`] multiple with charge 0 / radius 1, so every
    /// chunk is a full lane and padded terms vanish exactly.
    /// Division-free: the exponent argument factorizes as
    /// `(−d²/4·R_u⁻¹)·R_v⁻¹`.
    ///
    /// # Panics
    /// If the rows of one side differ in length or the V rows are not a
    /// [`LANE_WIDTH`] multiple.
    pub fn epol_far_compact(d_sq: f64, u: [&[f64]; 3], v: [&[f64]; 3]) -> f64
        = epol_far_compact_body
}

/// Upper bound on histogram length, mirrored from [`BinScheme`]'s
/// `MAX_BINS` cap so the nonzero-bin gather fits on the stack.
const MAX_BINS: usize = 256;

/// Compact one histogram row onto the stack: charge, bin radius and
/// radius reciprocal for every nonzero bin. With `pad`, the row is
/// extended to a [`LANE_WIDTH`] multiple with charge 0 / radius 1 (the
/// V-side contract of [`epol_far_compact`]). Returns `(real, padded)`
/// lengths.
fn hist_compact_row(
    h: &[f64],
    bins: &BinScheme,
    pad: bool,
    q: &mut [f64; MAX_BINS],
    r: &mut [f64; MAX_BINS],
    ri: &mut [f64; MAX_BINS],
) -> (usize, usize) {
    let mut n = 0;
    for (i, &c) in h.iter().enumerate() {
        if c != 0.0 {
            let rad = bins.bin_radius(i);
            q[n] = c;
            r[n] = rad;
            ri[n] = 1.0 / rad;
            n += 1;
        }
    }
    let mut padded = n;
    if pad {
        padded = n.div_ceil(LANE_WIDTH) * LANE_WIDTH;
        for k in n..padded {
            q[k] = 0.0;
            r[k] = 1.0;
            ri[k] = 1.0;
        }
    }
    (n, padded)
}

/// Histogram-slice form of the far entry: compacts both rows on the
/// stack, runs [`epol_far_compact`] and returns the energy together with
/// the nonzero-pair evaluation count. The execute phase uses the
/// precompacted rows directly; this form serves callers (and tests)
/// holding plain dense histograms.
pub fn epol_far_entry(d_sq: f64, hu: &[f64], hv: &[f64], bins: &BinScheme) -> (f64, u64) {
    let (mut uq, mut ur, mut uri) = ([0.0; MAX_BINS], [0.0; MAX_BINS], [0.0; MAX_BINS]);
    let (mut vq, mut vr, mut vri) = ([0.0; MAX_BINS], [0.0; MAX_BINS], [0.0; MAX_BINS]);
    let (nu, _) = hist_compact_row(hu, bins, false, &mut uq, &mut ur, &mut uri);
    let (nv, pv) = hist_compact_row(hv, bins, true, &mut vq, &mut vr, &mut vri);
    if nu == 0 || nv == 0 {
        return (0.0, 0);
    }
    let e = epol_far_compact(
        d_sq,
        [&uq[..nu], &ur[..nu], &uri[..nu]],
        [&vq[..pv], &vr[..pv], &vri[..pv]],
    );
    (e, (nu * nv) as u64)
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
    /// blocks); gathered near blocks must be pre-padded by the caller
    /// with far sentinel positions instead.
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

    /// The strict loop's per-atom descreening sum.
    #[allow(clippy::needless_range_loop)] // j indexes all seven q columns
    fn born_near_scalar(a: &[Vec<f64>; 3], q: &[Vec<f64>; 7], i: usize) -> f64 {
        let mut sum = 0.0;
        for j in 0..q[0].len() {
            let d = [q[0][j] - a[0][i], q[1][j] - a[1][i], q[2][j] - a[2][i]];
            let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
            let dot = q[6][j] * (d[0] * q[3][j] + d[1] * q[4][j] + d[2] * q[5][j]);
            if r2 > R2_GUARD {
                sum += dot / (r2 * r2 * r2);
            }
        }
        sum
    }

    #[test]
    fn born_near_gather_matches_scalar_on_every_tier() {
        // (ids, q-points): full windows, ragged and single-element
        // tails, and the 2.5k-globule shape (~26 slots × ~3 q-points).
        for (n, n_q) in [(8, 8), (13, 11), (1, 1), (7, 23), (16, 3), (26, 3)] {
            let pool = 101;
            let (a, q) = born_fixture(pool, n_q, 0x5eed + n as u64);
            for (order, ids) in id_lists(n, pool) {
                let mut per_tier = Vec::new();
                each_tier!(|s, tier| {
                    let mut got = vec![0.0; pool];
                    born_near_gather_body(s, &ids, cols(&a), cols(&q), &mut got);
                    for (i, g) in got.iter().enumerate() {
                        if ids.contains(&(i as u32)) {
                            let w = born_near_scalar(&a, &q, i);
                            assert!(rel(*g, w) < 1e-12, "{tier} {order} {n}x{n_q} #{i}: {g}");
                        } else {
                            assert_eq!(g.to_bits(), 0, "{tier}: wrote unlisted atom {i}");
                        }
                    }
                    let mut twice = got.clone();
                    born_near_gather_body(s, &ids, cols(&a), cols(&q), &mut twice);
                    assert_doubled(&twice, &got, tier);
                    per_tier.push(got);
                });
                let mut dispatched = vec![0.0; pool];
                born_near_gather(&ids, cols(&a), cols(&q), &mut dispatched);
                assert_widest(&per_tier, &dispatched);
            }
        }
    }

    #[test]
    fn born_near_gather_masks_coincident_pairs_exactly() {
        // A q-point sitting exactly on an atom: the r² guard must produce
        // an exact 0 contribution, not inf·0 = NaN.
        let (a, mut q) = born_fixture(9, 9, 77);
        for k in 0..3 {
            q[k][4] = a[k][6];
        }
        let ids: Vec<u32> = (0..9).rev().collect();
        each_tier!(|s, tier| {
            let mut got = vec![0.0; 9];
            born_near_gather_body(s, &ids, cols(&a), cols(&q), &mut got);
            for (i, g) in got.iter().enumerate() {
                let w = born_near_scalar(&a, &q, i);
                assert!(g.is_finite() && rel(*g, w) < 1e-12, "{tier} #{i}: {g}");
            }
            // A lone coincident pair: exactly zero.
            let (at, normal, mut z) = ([&[1.0][..], &[2.0], &[3.0]], &[0.5][..], [0.0]);
            let q = [at[0], at[1], at[2], normal, normal, normal, &[1.0]];
            born_near_gather_body(s, &[0], at, q, &mut z);
            assert_eq!(z[0], 0.0, "{tier}");
        });
    }

    #[test]
    fn born_far_r6_matches_the_strict_far_term_for_every_remainder() {
        let pool = 101;
        let mut seed = 0xfa2u64;
        // Node centers 12–30 Å from the q node: far, as the plan's
        // separation test guarantees.
        let an = [(); 3].map(|_| column(&mut seed, pool, 7.0, 17.0));
        let (qc, nsum) = ([-1.0, 0.5, -2.0], [0.3, -1.1, 0.7]);
        let dip = QDipole {
            m: core::array::from_fn(|_| rng(&mut seed, -2.0, 2.0)),
        };
        for n in [0, 1, 7, 8, 9, 31, 32, 33] {
            for (order, ids) in id_lists(n, pool) {
                let (mut want, mut scale) = (vec![0.0; pool], vec![0.0; pool]);
                for i in ids.iter().map(|&i| i as usize) {
                    let d = Vec3::new(qc[0] - an[0][i], qc[1] - an[1][i], qc[2] - an[2][i]);
                    let (r2, ns) = (d.dot(d), Vec3::new(nsum[0], nsum[1], nsum[2]));
                    want[i] = BornKernel::R6.far_term(ns, &dip, d, r2);
                    // The two parts cancel: measure against their sizes.
                    let r6 = r2 * r2 * r2;
                    scale[i] =
                        (ns.dot(d) + dip.trace()).abs() / r6 + 6.0 * dip.quad(d).abs() / (r6 * r2);
                }
                let mut per_tier = Vec::new();
                each_tier!(|s, tier| {
                    let mut got = vec![0.0; pool];
                    born_far_r6_body(s, &ids, cols(&an), qc, nsum, &dip, &mut got);
                    for i in 0..pool {
                        let (g, tol) = (got[i], 1e-12 * scale[i]);
                        assert!((g - want[i]).abs() <= tol, "{tier} {order} {n} #{i}: {g}");
                    }
                    let mut twice = got.clone();
                    born_far_r6_body(s, &ids, cols(&an), qc, nsum, &dip, &mut twice);
                    assert_doubled(&twice, &got, tier);
                    per_tier.push(got);
                });
                let mut dispatched = vec![0.0; pool];
                born_far_r6_entries(&ids, cols(&an), qc, nsum, &dip, &mut dispatched);
                assert_widest(&per_tier, &dispatched);
            }
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

    #[test]
    fn epol_near_gather_matches_gb_pair_on_every_tier() {
        // (broadcast atoms, ids): full windows, ragged and single-element
        // tails, odd and even broadcast counts, and the 2.5k-globule
        // shape (a ~3-atom leaf × its gathered partners).
        for (n_u, n) in [(8, 8), (5, 17), (1, 1), (11, 2), (2, 9), (3, 90)] {
            let pool = 277;
            let mut seed = 0xabc + n_u as u64;
            let (u, mut a) = (
                atoms_fixture(n_u, &mut seed),
                atoms_fixture(pool, &mut seed),
            );
            for (order, ids) in id_lists(n, pool) {
                // An exact self-pair (r = 0, the Born self-energy).
                for k in 0..6 {
                    a[k][ids[0] as usize] = u[k][0];
                }
                let want = epol_near_scalar(&u, &a, &ids);
                let mut per_tier = Vec::new();
                each_tier!(|s, tier| {
                    let got = epol_near_gather_body(s, &ids, cols(&a), cols(&u));
                    assert!(rel(got, want) < 1e-13, "{tier} {order} {n_u}x{n}: {got}");
                    let again = epol_near_gather_body(s, &ids, cols(&a), cols(&u));
                    assert_eq!(got.to_bits(), again.to_bits(), "{tier}: not deterministic");
                    per_tier.push(vec![got]);
                });
                let dispatched = epol_near_gather(&ids, cols(&a), cols(&u));
                assert_widest(&per_tier, &[dispatched]);
            }
        }
    }

    #[test]
    fn epol_near_block_is_the_dense_form() {
        let mut seed = 0xfeed;
        let (u, v) = (atoms_fixture(19, &mut seed), atoms_fixture(21, &mut seed));
        let want = epol_near_scalar(&u, &v, &Vec::from_iter(0..21));
        let got = epol_near_block(
            &u[0], &u[1], &u[2], &u[3], &u[4], &v[0], &v[1], &v[2], &v[3], &v[4],
        );
        assert!(rel(got, want) < 1e-13, "{got} vs {want}");
        let none = epol_near_block(&u[0], &u[1], &u[2], &u[3], &u[4], &[], &[], &[], &[], &[]);
        assert_eq!(none, 0.0);
    }

    #[test]
    fn epol_far_matches_scalar_and_counts_evals() {
        let born: Vec<f64> = (0..40).map(|i| 1.0 + 0.15 * i as f64).collect();
        let bins = BinScheme::new(&born, 0.9);
        let mut s = 0x9d0u64;
        let nb = bins.nbins;
        let mut hu = vec![0.0; nb];
        let mut hv = vec![0.0; nb];
        for k in 0..nb {
            if k % 2 == 0 {
                hu[k] = rng(&mut s, -0.5, 0.5);
            }
            if k % 3 == 0 {
                hv[k] = rng(&mut s, -0.5, 0.5);
            }
        }
        let d_sq = 900.0;
        let mut want = 0.0;
        let mut want_evals = 0u64;
        for (i, &qu) in hu.iter().enumerate() {
            if qu == 0.0 {
                continue;
            }
            for (j, &qv) in hv.iter().enumerate() {
                if qv == 0.0 {
                    continue;
                }
                let rr = bins.radius_product(i, j);
                let f = (d_sq + rr * (-d_sq / (4.0 * rr)).exp()).sqrt();
                want += qu * qv / f;
                want_evals += 1;
            }
        }
        let (got, evals) = epol_far_entry(d_sq, &hu, &hv, &bins);
        assert!(rel(got, want) < 1e-13, "{got} vs {want}");
        assert_eq!(evals, want_evals);
        // Empty histograms short-circuit.
        let (z, e0) = epol_far_entry(d_sq, &vec![0.0; nb], &hv, &bins);
        assert_eq!((z, e0), (0.0, 0));

        // The same rows on every tier.
        let (mut uq, mut ur, mut uri) = ([0.0; MAX_BINS], [0.0; MAX_BINS], [0.0; MAX_BINS]);
        let (mut vq, mut vr, mut vri) = ([0.0; MAX_BINS], [0.0; MAX_BINS], [0.0; MAX_BINS]);
        let (nu, _) = hist_compact_row(&hu, &bins, false, &mut uq, &mut ur, &mut uri);
        let (_, pv) = hist_compact_row(&hv, &bins, true, &mut vq, &mut vr, &mut vri);
        let (u, v) = (
            [&uq[..nu], &ur[..nu], &uri[..nu]],
            [&vq[..pv], &vr[..pv], &vri[..pv]],
        );
        let mut per_tier = Vec::new();
        each_tier!(|s, tier| {
            let e = epol_far_compact_body(s, d_sq, u, v);
            assert!(rel(e, want) < 1e-13, "{tier}: {e} vs {want}");
            let again = epol_far_compact_body(s, d_sq, u, v);
            assert_eq!(e.to_bits(), again.to_bits(), "{tier}: not deterministic");
            per_tier.push(vec![e]);
        });
        assert_widest(&per_tier, &[got]);
    }

    #[test]
    #[should_panic(expected = "LANE_WIDTH multiple")]
    fn epol_far_compact_rejects_unpadded_rows() {
        epol_far_compact(
            900.0,
            [&[0.1], &[1.0], &[1.0]],
            [&[0.1; 9], &[1.0; 9], &[1.0; 9]],
        );
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
        let (q, dip) = (cols(&q), QDipole::default());
        // Every kernel that takes ids, over 40-element columns and a
        // `short`-element output.
        let panics = |ids: &[u32], short: usize| {
            each_tier!(|s, tier| {
                let near = catch_unwind(AssertUnwindSafe(|| {
                    born_near_gather_body(s, ids, xyz, q, &mut vec![0.0; short])
                }));
                let far = catch_unwind(AssertUnwindSafe(|| {
                    born_far_r6_body(
                        s,
                        ids,
                        xyz,
                        [90.0; 3],
                        [1.0; 3],
                        &dip,
                        &mut vec![0.0; short],
                    )
                }));
                let epol = catch_unwind(|| epol_near_gather_body(s, ids, a6, u6));
                assert!(near.is_err(), "{tier} born_near_gather accepted {ids:?}");
                assert!(far.is_err(), "{tier} born_far_r6_entries accepted {ids:?}");
                assert!(
                    epol.is_err() || short < 40,
                    "{tier} epol_near accepted {ids:?}"
                );
            });
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
    fn born_near_gather_rejects_an_out_of_range_id() {
        let (a, q) = born_fixture(12, 3, 1);
        born_near_gather(
            &[0, 1, 2, 3, 4, 5, 6, 12],
            cols(&a),
            cols(&q),
            &mut [0.0; 12],
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn born_far_r6_entries_rejects_an_out_of_range_id() {
        let (a, _) = born_fixture(12, 0, 2);
        // In the ragged tail, and negative as an i32.
        let ids = [0, 1, 2, 3, 4, 5, 6, 7, 8, u32::MAX];
        born_far_r6_entries(
            &ids,
            cols(&a),
            [90.0; 3],
            [1.0; 3],
            &QDipole::default(),
            &mut [0.0; 12],
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn epol_near_gather_rejects_an_out_of_range_id() {
        let mut seed = 3;
        let (a, u) = (atoms_fixture(12, &mut seed), atoms_fixture(2, &mut seed));
        epol_near_gather(&[3, 99, 4], cols(&a), cols(&u));
    }
}
