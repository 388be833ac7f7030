//! A hand-rolled four-lane `f64` vector for the explicit-SIMD likelihood
//! kernel, and the one explicit AVX2+FMA combine loop.
//!
//! The build environment is offline and the workspace compiles on stable
//! Rust, so neither `std::simd` (nightly) nor an external SIMD crate is
//! available. [`F64x4`] is the portable substitute: a `#[repr(transparent)]`
//! wrapper over `[f64; 4]` whose lane-wise operations are written as fixed
//! four-iteration loops that LLVM lowers to vector instructions for whatever
//! width the target offers (two 128-bit ops under baseline SSE2, one 256-bit
//! op under AVX). `F64x4` uses no `unsafe`, no intrinsics and no platform
//! gates — the same source is correct everywhere and backs
//! [`likelihood::Kernel::Simd`](crate::likelihood::Kernel::Simd) and the
//! non-AVX2 fallback of [`likelihood::Kernel::Auto`](crate::likelihood::Kernel::Auto).
//!
//! The only operation with a semantic choice is [`F64x4::mul_add`]: when the
//! target guarantees hardware FMA (`target_feature = "fma"`) it contracts to
//! a fused multiply–add per lane; otherwise it is a plain multiply-then-add,
//! because `f64::mul_add` without hardware support falls back to a libm call
//! per lane and would be dramatically *slower* than the scalar kernel.
//!
//! The `dispatch` module closes the gap between that compile-time choice
//! and the hardware the binary actually lands on. It holds the combine loop
//! written out with `std::arch` AVX2+FMA intrinsics inside a
//! `#[target_feature(enable = "avx2,fma")]` function, and
//! [`likelihood::Kernel::Auto`](crate::likelihood::Kernel::Auto) routes to it
//! after probing the CPU at runtime. The loop is explicit rather than the
//! generic `F64x4` loop recompiled with those features because LLVM
//! vectorised the generic form *across* patterns — it splatted all 32
//! matrix entries into separate registers, spilled them to the stack and
//! transposed pattern rows — instead of one pattern per vector. The
//! explicit loop keeps the four matrix columns in registers and spends four
//! broadcasts, one multiply and three FMAs per child and pattern, with
//! exactly the per-lane arithmetic of the fused `F64x4` form, so its output
//! is bit-identical to that form at about 1.6× its speed. `dispatch` is the
//! one place in the crate allowed to use `unsafe`: the calls into the
//! `#[target_feature]` functions, guarded by the runtime probe, and the
//! unaligned vector loads and stores.
//!
//! Each four-lane loop has a *half* sibling for the dirty path a proposal
//! set shares: `mat_vec_rows_*` computes a clean off-path child's `M·p` once
//! per set, and `combine_half_rows_*` combines a path node from the on-path
//! child's product times that row. The half loops run the full loops'
//! per-lane instructions, so their output is bit-identical to them.
//!
//! Four lanes is exactly one conditional-likelihood vector (one probability
//! per nucleotide), which is why the structure-of-arrays
//! `[node × pattern × 4]` layout of
//! [`LikelihoodWorkspace`](crate::likelihood::LikelihoodWorkspace) makes the
//! SIMD kernel a local change: each pattern's four lanes are already
//! contiguous in memory.

use std::ops::{Add, Div, Mul};

/// Four `f64` lanes, operated on element-wise.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(transparent)]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    /// All four lanes set to `value`.
    #[inline(always)]
    pub fn splat(value: f64) -> Self {
        F64x4([value; 4])
    }

    /// Load four lanes from the first four elements of `slice`.
    #[inline(always)]
    pub fn from_slice(slice: &[f64]) -> Self {
        F64x4([slice[0], slice[1], slice[2], slice[3]])
    }

    /// Store the four lanes into the first four elements of `out`.
    #[inline(always)]
    pub fn write_to(self, out: &mut [f64]) {
        out[..4].copy_from_slice(&self.0);
    }

    /// `self * b + c`, lane-wise. Contracts to hardware FMA when the target
    /// guarantees it; otherwise an unfused multiply-then-add (see the module
    /// docs for why the libm `f64::mul_add` fallback is avoided).
    #[inline(always)]
    pub fn mul_add(self, b: F64x4, c: F64x4) -> F64x4 {
        #[cfg(target_feature = "fma")]
        {
            F64x4([
                self.0[0].mul_add(b.0[0], c.0[0]),
                self.0[1].mul_add(b.0[1], c.0[1]),
                self.0[2].mul_add(b.0[2], c.0[2]),
                self.0[3].mul_add(b.0[3], c.0[3]),
            ])
        }
        #[cfg(not(target_feature = "fma"))]
        {
            self * b + c
        }
    }

    /// The largest lane (the per-pattern magnitude the rescaling check
    /// inspects).
    #[inline(always)]
    pub fn max_element(self) -> f64 {
        let m01 = self.0[0].max(self.0[1]);
        let m23 = self.0[2].max(self.0[3]);
        m01.max(m23)
    }

    /// The four columns of a row-major 4×4 matrix, as one vector per column.
    /// This is the layout the matrix–vector product wants: the product
    /// `M·p` becomes `Σ_y column_y(M) * splat(p[y])`, four broadcast
    /// multiply–adds with no horizontal reduction.
    #[inline(always)]
    pub fn columns(matrix: &[[f64; 4]; 4]) -> [F64x4; 4] {
        let mut cols = [F64x4::splat(0.0); 4];
        for (y, col) in cols.iter_mut().enumerate() {
            *col = F64x4([matrix[0][y], matrix[1][y], matrix[2][y], matrix[3][y]]);
        }
        cols
    }

    /// `M·p` for a row-major matrix already split into [`F64x4::columns`]:
    /// four broadcast multiply–adds, accumulated in the same `y = 0..4` order
    /// as the scalar kernel's inner loop.
    #[inline(always)]
    pub fn mat_vec(cols: &[F64x4; 4], p: &[f64]) -> F64x4 {
        let mut acc = cols[0] * F64x4::splat(p[0]);
        acc = cols[1].mul_add(F64x4::splat(p[1]), acc);
        acc = cols[2].mul_add(F64x4::splat(p[2]), acc);
        cols[3].mul_add(F64x4::splat(p[3]), acc)
    }
}

/// The portable four-lane combine loop behind `Kernel::Simd` and the
/// non-AVX2 fallback of the runtime dispatch: the transition matrices are
/// transposed to column-major once per node, turning each matrix–vector
/// product into four broadcast multiply–adds with no horizontal reduction.
/// The underflow rescale is *hoisted out of the hot loop*: the main pass is
/// branch-free (it only records whether any pattern's magnitude fell below
/// the threshold), and the rare rescaling pass ([`rescale_rows`]) re-reads
/// the stored rows and applies exactly the scalar kernel's per-pattern
/// renormalisation — so the two-pass structure changes no values, only
/// control flow. Numerically the kernel reassociates the matrix–vector
/// products (and contracts them to fused multiply–adds when the whole crate
/// is compiled with `target_feature = "fma"`), so results match the scalar
/// kernel to ≤1e-12 relative tolerance rather than bit-exactly.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn combine_rows_f64x4(
    scale_threshold: f64,
    ma: &[[f64; 4]; 4],
    mb: &[[f64; 4]; 4],
    pa: &[f64],
    pb: &[f64],
    sa: &[f64],
    sb: &[f64],
    out_partials: &mut [f64],
    out_scales: &mut [f64],
) {
    let ca = F64x4::columns(ma);
    let cb = F64x4::columns(mb);
    let len = out_scales.len();
    let mut needs_rescale = false;
    for p in 0..len {
        let va = F64x4::mat_vec(&ca, &pa[p * 4..p * 4 + 4]);
        let vb = F64x4::mat_vec(&cb, &pb[p * 4..p * 4 + 4]);
        let v = va * vb;
        let max = v.max_element();
        needs_rescale |= max > 0.0 && max < scale_threshold;
        v.write_to(&mut out_partials[p * 4..p * 4 + 4]);
        out_scales[p] = sa[p] + sb[p];
    }
    if needs_rescale {
        rescale_rows(scale_threshold, out_partials, out_scales);
    }
}

/// `M·p` for every pattern of `p`, written to `out`, with exactly the
/// per-lane arithmetic [`combine_rows_f64x4`] spends on one child: the
/// shared off-path row that [`combine_half_rows_f64x4`] multiplies by.
#[inline(always)]
pub(crate) fn mat_vec_rows_f64x4(m: &[[f64; 4]; 4], p: &[f64], out: &mut [f64]) {
    let cols = F64x4::columns(m);
    for (out, p) in out.chunks_exact_mut(4).zip(p.chunks_exact(4)) {
        F64x4::mat_vec(&cols, p).write_to(out);
    }
}

/// [`combine_rows_f64x4`] with the off-path child's product already in
/// `off` (from [`mat_vec_rows_f64x4`]): one matrix–vector product for the
/// on-path child, then the same Hadamard product, rescale test and scale
/// sum. Lane products and scale sums commute exactly in IEEE arithmetic, so
/// the output is bit-identical to the full loop whichever child is on the
/// path.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn combine_half_rows_f64x4(
    scale_threshold: f64,
    m_on: &[[f64; 4]; 4],
    p_on: &[f64],
    s_on: &[f64],
    off: &[f64],
    s_off: &[f64],
    out_partials: &mut [f64],
    out_scales: &mut [f64],
) {
    let cols = F64x4::columns(m_on);
    let len = out_scales.len();
    let mut needs_rescale = false;
    for p in 0..len {
        let v = F64x4::mat_vec(&cols, &p_on[p * 4..p * 4 + 4])
            * F64x4::from_slice(&off[p * 4..p * 4 + 4]);
        let max = v.max_element();
        needs_rescale |= max > 0.0 && max < scale_threshold;
        v.write_to(&mut out_partials[p * 4..p * 4 + 4]);
        out_scales[p] = s_on[p] + s_off[p];
    }
    if needs_rescale {
        rescale_rows(scale_threshold, out_partials, out_scales);
    }
}

/// The exact second pass shared by both four-lane loops: every pattern of
/// the first `out_scales.len()` whose largest lane lies in
/// `(0, scale_threshold)` is divided by that lane and the lane's `ln` is
/// added to its scale — the scalar kernel's per-pattern renormalisation.
/// The first passes only decide whether this runs; patterns outside the
/// range are left untouched, so a superset test there changes no value.
fn rescale_rows(scale_threshold: f64, out_partials: &mut [f64], out_scales: &mut [f64]) {
    for (p, scale) in out_scales.iter_mut().enumerate() {
        let v = F64x4::from_slice(&out_partials[p * 4..p * 4 + 4]);
        let max = v.max_element();
        if max > 0.0 && max < scale_threshold {
            (v / F64x4::splat(max)).write_to(&mut out_partials[p * 4..p * 4 + 4]);
            *scale += max.ln();
        }
    }
}

/// Runtime CPU dispatch for the combine loop, and the explicit AVX2+FMA
/// loop it dispatches to: the one place in the crate where `unsafe` is
/// permitted. Calling a `#[target_feature]` function from code compiled
/// without those features requires an unsafe block whose soundness
/// obligation — "the features the callee was compiled for are present on
/// this CPU" — is discharged by the [`avx2_fma_supported`] probe; inside
/// the loop, the 256-bit unaligned store takes a raw pointer.
///
/// [`avx2_fma_supported`]: dispatch::avx2_fma_supported
#[allow(unsafe_code)]
pub(crate) mod dispatch {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    use arch::{
        __m256d, _mm256_and_pd, _mm256_broadcast_sd, _mm256_cmp_pd, _mm256_fmadd_pd,
        _mm256_loadu_pd, _mm256_movemask_pd, _mm256_mul_pd, _mm256_or_pd, _mm256_set1_pd,
        _mm256_setr_pd, _mm256_setzero_pd, _mm256_storeu_pd, _CMP_GT_OQ, _CMP_LT_OQ,
    };
    #[cfg(target_arch = "x86")]
    use std::arch::x86 as arch;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64 as arch;

    /// Whether this CPU supports both AVX2 and FMA (always `false` off
    /// x86/x86-64). `std` caches the CPUID probe, so calling this per
    /// kernel invocation costs one relaxed atomic load.
    #[inline]
    pub fn avx2_fma_supported() -> bool {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        {
            false
        }
    }

    /// The four columns of a row-major 4×4 matrix as 256-bit vectors, lane
    /// `x` of column `y` holding `matrix[x][y]` (the layout of
    /// [`F64x4::columns`](super::F64x4::columns)).
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    fn columns(matrix: &[[f64; 4]; 4]) -> [__m256d; 4] {
        let column =
            |y: usize| _mm256_setr_pd(matrix[0][y], matrix[1][y], matrix[2][y], matrix[3][y]);
        [column(0), column(1), column(2), column(3)]
    }

    /// `M·p` for one pattern: a multiply by the broadcast `p[0]`, then a
    /// fused multiply–add per remaining entry, accumulated in `y = 0..4`
    /// order — per lane, `fma(c3, p3, fma(c2, p2, fma(c1, p1, c0 · p0)))`.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    fn mat_vec(cols: &[__m256d; 4], p: &[f64]) -> __m256d {
        let mut acc = _mm256_mul_pd(cols[0], _mm256_broadcast_sd(&p[0]));
        acc = _mm256_fmadd_pd(cols[1], _mm256_broadcast_sd(&p[1]), acc);
        acc = _mm256_fmadd_pd(cols[2], _mm256_broadcast_sd(&p[2]), acc);
        _mm256_fmadd_pd(cols[3], _mm256_broadcast_sd(&p[3]), acc)
    }

    /// The combine loop for AVX2+FMA hosts, one pattern per 256-bit vector:
    /// per pattern and child a broadcast multiply and three FMAs, one
    /// multiply for the Hadamard product and one unaligned store. Rescale
    /// detection is a vector compare that accumulates "some lane lies in
    /// `(0, threshold)`", a superset of the exact per-pattern test "the
    /// largest lane lies in `(0, threshold)`"; it only decides whether the
    /// exact second pass ([`super::rescale_rows`]) runs. Output is
    /// bit-identical to the `F64x4` loop with every multiply–add fused.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    fn combine_rows_avx2_fma_impl(
        scale_threshold: f64,
        ma: &[[f64; 4]; 4],
        mb: &[[f64; 4]; 4],
        pa: &[f64],
        pb: &[f64],
        sa: &[f64],
        sb: &[f64],
        out_partials: &mut [f64],
        out_scales: &mut [f64],
    ) {
        let len = out_scales.len();
        let ca = columns(ma);
        let cb = columns(mb);
        let zero = _mm256_setzero_pd();
        let threshold = _mm256_set1_pd(scale_threshold);
        let mut tiny = _mm256_setzero_pd();
        let rows = out_partials[..len * 4]
            .chunks_exact_mut(4)
            .zip(pa[..len * 4].chunks_exact(4))
            .zip(pb[..len * 4].chunks_exact(4));
        for ((out, a), b) in rows {
            let v = _mm256_mul_pd(mat_vec(&ca, a), mat_vec(&cb, b));
            let in_range = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GT_OQ>(v, zero),
                _mm256_cmp_pd::<_CMP_LT_OQ>(v, threshold),
            );
            tiny = _mm256_or_pd(tiny, in_range);
            // SAFETY: `out` is one chunk of `chunks_exact_mut(4)`, so it is
            // exactly four contiguous, initialised, exclusively borrowed
            // `f64`s: the 32-byte unaligned store writes inside it and
            // nowhere else.
            unsafe { _mm256_storeu_pd(out.as_mut_ptr(), v) };
        }
        for ((scale, &a), &b) in out_scales.iter_mut().zip(&sa[..len]).zip(&sb[..len]) {
            *scale = a + b;
        }
        if _mm256_movemask_pd(tiny) != 0 {
            super::rescale_rows(scale_threshold, out_partials, out_scales);
        }
    }

    /// `M·p` for every pattern, with [`mat_vec`]'s per-lane arithmetic: the
    /// shared off-path row of [`combine_half_rows_avx2_fma_impl`].
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2", enable = "fma")]
    fn mat_vec_rows_avx2_fma_impl(m: &[[f64; 4]; 4], p: &[f64], out: &mut [f64]) {
        let cols = columns(m);
        for (out, p) in out.chunks_exact_mut(4).zip(p.chunks_exact(4)) {
            // SAFETY: `out` is one chunk of `chunks_exact_mut(4)`: four
            // contiguous, exclusively borrowed `f64`s.
            unsafe { _mm256_storeu_pd(out.as_mut_ptr(), mat_vec(&cols, p)) };
        }
    }

    /// [`combine_rows_avx2_fma_impl`] with the off-path child's product
    /// precomputed in `off`: per pattern a broadcast multiply and three FMAs
    /// for the on-path child, one load and one multiply. Per lane this is the
    /// full loop's arithmetic with the Hadamard product's operands possibly
    /// swapped, which IEEE multiplication does not notice.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    fn combine_half_rows_avx2_fma_impl(
        scale_threshold: f64,
        m_on: &[[f64; 4]; 4],
        p_on: &[f64],
        s_on: &[f64],
        off: &[f64],
        s_off: &[f64],
        out_partials: &mut [f64],
        out_scales: &mut [f64],
    ) {
        let len = out_scales.len();
        let cols = columns(m_on);
        let zero = _mm256_setzero_pd();
        let threshold = _mm256_set1_pd(scale_threshold);
        let mut tiny = _mm256_setzero_pd();
        let rows = out_partials[..len * 4]
            .chunks_exact_mut(4)
            .zip(p_on[..len * 4].chunks_exact(4))
            .zip(off[..len * 4].chunks_exact(4));
        for ((out, on), off) in rows {
            // SAFETY: `off` is one chunk of `chunks_exact(4)`: four
            // contiguous, initialised `f64`s, which the 32-byte unaligned
            // load reads and nothing beyond.
            let off = unsafe { _mm256_loadu_pd(off.as_ptr()) };
            let v = _mm256_mul_pd(mat_vec(&cols, on), off);
            let in_range = _mm256_and_pd(
                _mm256_cmp_pd::<_CMP_GT_OQ>(v, zero),
                _mm256_cmp_pd::<_CMP_LT_OQ>(v, threshold),
            );
            tiny = _mm256_or_pd(tiny, in_range);
            // SAFETY: as in `combine_rows_avx2_fma_impl`, `out` is exactly
            // four exclusively borrowed `f64`s.
            unsafe { _mm256_storeu_pd(out.as_mut_ptr(), v) };
        }
        for ((scale, &a), &b) in out_scales.iter_mut().zip(&s_on[..len]).zip(&s_off[..len]) {
            *scale = a + b;
        }
        if _mm256_movemask_pd(tiny) != 0 {
            super::rescale_rows(scale_threshold, out_partials, out_scales);
        }
    }

    /// Safe entry point for [`mat_vec_rows_avx2_fma_impl`], with the same
    /// probe and four-lane fallback as [`combine_rows_avx2_fma`].
    pub(crate) fn mat_vec_rows_avx2_fma(m: &[[f64; 4]; 4], p: &[f64], out: &mut [f64]) {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if avx2_fma_supported() {
            // SAFETY: the probe just confirmed AVX2 and FMA on this CPU.
            unsafe { mat_vec_rows_avx2_fma_impl(m, p, out) };
            return;
        }
        super::mat_vec_rows_f64x4(m, p, out);
    }

    /// Safe entry point for [`combine_half_rows_avx2_fma_impl`], with the
    /// same probe and four-lane fallback as [`combine_rows_avx2_fma`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn combine_half_rows_avx2_fma(
        scale_threshold: f64,
        m_on: &[[f64; 4]; 4],
        p_on: &[f64],
        s_on: &[f64],
        off: &[f64],
        s_off: &[f64],
        out_partials: &mut [f64],
        out_scales: &mut [f64],
    ) {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if avx2_fma_supported() {
            // SAFETY: the probe just confirmed AVX2 and FMA on this CPU.
            unsafe {
                combine_half_rows_avx2_fma_impl(
                    scale_threshold,
                    m_on,
                    p_on,
                    s_on,
                    off,
                    s_off,
                    out_partials,
                    out_scales,
                );
            }
            return;
        }
        super::combine_half_rows_f64x4(
            scale_threshold,
            m_on,
            p_on,
            s_on,
            off,
            s_off,
            out_partials,
            out_scales,
        );
    }

    /// Safe entry point for the AVX2+FMA combine loop. Re-checks the CPU
    /// probe so the function is sound for *any* caller — on a host without
    /// the features (or off x86 entirely) it degrades to the baseline
    /// four-lane loop instead of executing unsupported instructions.
    /// `Kernel::Auto` only selects this path after the probe succeeded, so
    /// the hot path never takes the fallback branch.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn combine_rows_avx2_fma(
        scale_threshold: f64,
        ma: &[[f64; 4]; 4],
        mb: &[[f64; 4]; 4],
        pa: &[f64],
        pb: &[f64],
        sa: &[f64],
        sb: &[f64],
        out_partials: &mut [f64],
        out_scales: &mut [f64],
    ) {
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        if avx2_fma_supported() {
            // SAFETY: `avx2_fma_supported()` just confirmed via CPUID that
            // this CPU executes AVX2 and FMA instructions, which are exactly
            // the features `combine_rows_avx2_fma_impl` is compiled for.
            unsafe {
                combine_rows_avx2_fma_impl(
                    scale_threshold,
                    ma,
                    mb,
                    pa,
                    pb,
                    sa,
                    sb,
                    out_partials,
                    out_scales,
                );
            }
            return;
        }
        super::combine_rows_f64x4(
            scale_threshold,
            ma,
            mb,
            pa,
            pb,
            sa,
            sb,
            out_partials,
            out_scales,
        );
    }

    #[cfg(test)]
    mod tests {
        use super::super::F64x4;
        use super::{avx2_fma_supported, combine_rows_avx2_fma};

        /// `a * b + c` lane-wise, always fused (the deleted
        /// `F64x4::fused_mul_add`).
        fn fused_mul_add(a: F64x4, b: F64x4, c: F64x4) -> F64x4 {
            F64x4([
                a.0[0].mul_add(b.0[0], c.0[0]),
                a.0[1].mul_add(b.0[1], c.0[1]),
                a.0[2].mul_add(b.0[2], c.0[2]),
                a.0[3].mul_add(b.0[3], c.0[3]),
            ])
        }

        /// `M·p` through [`fused_mul_add`] in `y = 0..4` order (the deleted
        /// `F64x4::mat_vec_fma`).
        fn mat_vec_fma(cols: &[F64x4; 4], p: &[f64]) -> F64x4 {
            let mut acc = cols[0] * F64x4::splat(p[0]);
            acc = fused_mul_add(cols[1], F64x4::splat(p[1]), acc);
            acc = fused_mul_add(cols[2], F64x4::splat(p[2]), acc);
            fused_mul_add(cols[3], F64x4::splat(p[3]), acc)
        }

        /// The fused arm of the former generic four-lane loop, verbatim: the
        /// reference the explicit loop must match bit for bit.
        #[allow(clippy::too_many_arguments)]
        fn combine_rows_f64x4_fused(
            scale_threshold: f64,
            ma: &[[f64; 4]; 4],
            mb: &[[f64; 4]; 4],
            pa: &[f64],
            pb: &[f64],
            sa: &[f64],
            sb: &[f64],
            out_partials: &mut [f64],
            out_scales: &mut [f64],
        ) {
            let ca = F64x4::columns(ma);
            let cb = F64x4::columns(mb);
            let len = out_scales.len();
            let mut needs_rescale = false;
            for p in 0..len {
                let (va, vb) = (
                    mat_vec_fma(&ca, &pa[p * 4..p * 4 + 4]),
                    mat_vec_fma(&cb, &pb[p * 4..p * 4 + 4]),
                );
                let v = va * vb;
                let max = v.max_element();
                needs_rescale |= max > 0.0 && max < scale_threshold;
                v.write_to(&mut out_partials[p * 4..p * 4 + 4]);
                out_scales[p] = sa[p] + sb[p];
            }
            if needs_rescale {
                for p in 0..len {
                    let v = F64x4::from_slice(&out_partials[p * 4..p * 4 + 4]);
                    let max = v.max_element();
                    if max > 0.0 && max < scale_threshold {
                        (v / F64x4::splat(max)).write_to(&mut out_partials[p * 4..p * 4 + 4]);
                        out_scales[p] += max.ln();
                    }
                }
            }
        }

        /// SplitMix64 stream, uniform in `[0, 1)`.
        struct Uniform(u64);

        impl Uniform {
            fn next(&mut self) -> f64 {
                self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
            }
        }

        /// A 4×4 matrix with entries in `[0.01, 1.01)`.
        fn matrix(rng: &mut Uniform) -> [[f64; 4]; 4] {
            let mut m = [[0.0; 4]; 4];
            for row in &mut m {
                for entry in row.iter_mut() {
                    *entry = 0.01 + rng.next();
                }
            }
            m
        }

        /// How a test row's entries are drawn.
        #[derive(Debug, Clone, Copy)]
        enum Rows {
            /// Probabilities in `[0, 1)`.
            Unit,
            /// Magnitudes near `1e-60`: every product falls below `1e-100`
            /// and takes the rescale pass.
            Deep,
            /// Every fourth pattern deep, the rest unit: the rescale pass
            /// runs and must leave the unit patterns alone.
            Mixed,
            /// All zeros.
            Zero,
            /// Subnormal magnitudes (products flush to zero or stay tiny).
            Subnormal,
            /// Unit rows with one NaN lane in pattern 1.
            NanLane,
        }

        fn rows(rng: &mut Uniform, kind: Rows, len: usize) -> Vec<f64> {
            (0..len * 4)
                .map(|i| {
                    let u = rng.next();
                    match kind {
                        Rows::Unit => u,
                        Rows::Deep => 1e-60 * (0.5 + u),
                        Rows::Mixed if (i / 4) % 4 == 0 => 1e-60 * (0.5 + u),
                        Rows::Mixed => u,
                        Rows::Zero => 0.0,
                        Rows::Subnormal => f64::MIN_POSITIVE * 1e-3 * u,
                        Rows::NanLane if i == 6 => f64::NAN,
                        Rows::NanLane => u,
                    }
                })
                .collect()
        }

        #[test]
        fn explicit_loop_is_bit_identical_to_the_fused_f64x4_loop() {
            if !avx2_fma_supported() {
                eprintln!("skipping: this CPU lacks AVX2/FMA, so the explicit loop cannot run");
                return;
            }
            let mut rng = Uniform(0x5EED_2017);
            let kinds =
                [Rows::Unit, Rows::Deep, Rows::Mixed, Rows::Zero, Rows::Subnormal, Rows::NanLane];
            for len in [0, 1, 3, 142, 255, 256] {
                for kind in kinds {
                    let (ma, mb) = (matrix(&mut rng), matrix(&mut rng));
                    let pa = rows(&mut rng, kind, len);
                    // The second child stays finite, so a NaN lane has one
                    // source and one payload.
                    let pb = rows(
                        &mut rng,
                        if matches!(kind, Rows::NanLane) { Rows::Unit } else { kind },
                        len,
                    );
                    let sa: Vec<f64> = (0..len).map(|_| -50.0 * rng.next()).collect();
                    let sb: Vec<f64> = (0..len).map(|_| -50.0 * rng.next()).collect();
                    let mut want_p = vec![0.0; len * 4];
                    let mut want_s = vec![0.0; len];
                    combine_rows_f64x4_fused(
                        1e-100,
                        &ma,
                        &mb,
                        &pa,
                        &pb,
                        &sa,
                        &sb,
                        &mut want_p,
                        &mut want_s,
                    );
                    // Stale values in the output must not leak through.
                    let mut got_p = vec![7.0; len * 4];
                    let mut got_s = vec![7.0; len];
                    combine_rows_avx2_fma(
                        1e-100, &ma, &mb, &pa, &pb, &sa, &sb, &mut got_p, &mut got_s,
                    );
                    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got_p), bits(&want_p), "partials, {kind:?} rows, len {len}");
                    assert_eq!(bits(&got_s), bits(&want_s), "scales, {kind:?} rows, len {len}");
                    if matches!(kind, Rows::Deep) && len > 0 {
                        assert!(got_s.iter().zip(&sa).zip(&sb).all(|((&s, &a), &b)| s < a + b));
                    }
                    if matches!(kind, Rows::NanLane) && len > 1 {
                        assert!(got_p[4..8].iter().all(|x| x.is_nan()));
                    }
                }
            }
        }

        type FullLoop = fn(
            f64,
            &[[f64; 4]; 4],
            &[[f64; 4]; 4],
            &[f64],
            &[f64],
            &[f64],
            &[f64],
            &mut [f64],
            &mut [f64],
        );
        type RowsLoop = fn(&[[f64; 4]; 4], &[f64], &mut [f64]);
        type HalfLoop =
            fn(f64, &[[f64; 4]; 4], &[f64], &[f64], &[f64], &[f64], &mut [f64], &mut [f64]);

        #[test]
        fn half_loops_match_the_full_loops_bit_for_bit() {
            let mut loops: Vec<(&str, FullLoop, RowsLoop, HalfLoop)> = vec![(
                "f64x4",
                super::super::combine_rows_f64x4,
                super::super::mat_vec_rows_f64x4,
                super::super::combine_half_rows_f64x4,
            )];
            if avx2_fma_supported() {
                loops.push((
                    "avx2+fma",
                    combine_rows_avx2_fma,
                    super::mat_vec_rows_avx2_fma,
                    super::combine_half_rows_avx2_fma,
                ));
            }
            let mut rng = Uniform(0x4A1F_2017);
            let kinds =
                [Rows::Unit, Rows::Deep, Rows::Mixed, Rows::Zero, Rows::Subnormal, Rows::NanLane];
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for len in [0, 1, 3, 142, 256] {
                for kind in kinds {
                    let (ma, mb) = (matrix(&mut rng), matrix(&mut rng));
                    let pa = rows(&mut rng, kind, len);
                    let pb = rows(
                        &mut rng,
                        if matches!(kind, Rows::NanLane) { Rows::Unit } else { kind },
                        len,
                    );
                    let sa: Vec<f64> = (0..len).map(|_| -50.0 * rng.next()).collect();
                    let sb: Vec<f64> = (0..len).map(|_| -50.0 * rng.next()).collect();
                    for &(name, full, mat_vec_rows, half) in &loops {
                        let mut want_p = vec![0.0; len * 4];
                        let mut want_s = vec![0.0; len];
                        full(1e-100, &ma, &mb, &pa, &pb, &sa, &sb, &mut want_p, &mut want_s);
                        // Either child may be the one on the path.
                        for (m_on, p_on, s_on, m_off, p_off, s_off) in
                            [(&ma, &pa, &sa, &mb, &pb, &sb), (&mb, &pb, &sb, &ma, &pa, &sa)]
                        {
                            let mut off = vec![7.0; len * 4];
                            mat_vec_rows(m_off, p_off, &mut off);
                            let mut got_p = vec![7.0; len * 4];
                            let mut got_s = vec![7.0; len];
                            half(1e-100, m_on, p_on, s_on, &off, s_off, &mut got_p, &mut got_s);
                            assert_eq!(bits(&got_p), bits(&want_p), "{name}, {kind:?}, len {len}");
                            assert_eq!(bits(&got_s), bits(&want_s), "{name}, {kind:?}, len {len}");
                        }
                    }
                }
            }
        }
    }
}

impl Add for F64x4 {
    type Output = F64x4;

    #[inline(always)]
    fn add(self, rhs: F64x4) -> F64x4 {
        F64x4([
            self.0[0] + rhs.0[0],
            self.0[1] + rhs.0[1],
            self.0[2] + rhs.0[2],
            self.0[3] + rhs.0[3],
        ])
    }
}

impl Mul for F64x4 {
    type Output = F64x4;

    #[inline(always)]
    fn mul(self, rhs: F64x4) -> F64x4 {
        F64x4([
            self.0[0] * rhs.0[0],
            self.0[1] * rhs.0[1],
            self.0[2] * rhs.0[2],
            self.0[3] * rhs.0[3],
        ])
    }
}

impl Div for F64x4 {
    type Output = F64x4;

    #[inline(always)]
    fn div(self, rhs: F64x4) -> F64x4 {
        F64x4([
            self.0[0] / rhs.0[0],
            self.0[1] / rhs.0[1],
            self.0[2] / rhs.0[2],
            self.0[3] / rhs.0[3],
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_arithmetic_matches_scalar() {
        let a = F64x4([1.0, 2.0, 3.0, 4.0]);
        let b = F64x4([0.5, 0.25, 2.0, -1.0]);
        assert_eq!((a + b).0, [1.5, 2.25, 5.0, 3.0]);
        assert_eq!((a * b).0, [0.5, 0.5, 6.0, -4.0]);
        assert_eq!((a / b).0, [2.0, 8.0, 1.5, -4.0]);
        let c = F64x4::splat(1.0);
        let fma = a.mul_add(b, c);
        for i in 0..4 {
            assert!((fma.0[i] - (a.0[i] * b.0[i] + c.0[i])).abs() < 1e-15);
        }
    }

    #[test]
    fn loads_stores_and_max() {
        let data = [0.1, 0.9, 0.4, 0.2, 99.0];
        let v = F64x4::from_slice(&data);
        assert_eq!(v.0, [0.1, 0.9, 0.4, 0.2]);
        assert_eq!(v.max_element(), 0.9);
        let mut out = [0.0; 5];
        v.write_to(&mut out);
        assert_eq!(out, [0.1, 0.9, 0.4, 0.2, 0.0]);
        assert_eq!(F64x4::splat(7.0).0, [7.0; 4]);
        assert_eq!(F64x4::default().0, [0.0; 4]);
    }

    #[test]
    fn fused_and_unfused_combine_loops_agree() {
        // The dispatched AVX2+FMA loop reassociates nothing beyond what the
        // baseline four-lane loop already does; fusing only removes one
        // rounding per multiply–add, so the two variants agree to ~1e-15.
        let ma = [
            [0.7, 0.1, 0.1, 0.1],
            [0.1, 0.7, 0.1, 0.1],
            [0.2, 0.1, 0.6, 0.1],
            [0.1, 0.2, 0.1, 0.6],
        ];
        let mb = [
            [0.6, 0.2, 0.1, 0.1],
            [0.1, 0.6, 0.2, 0.1],
            [0.1, 0.1, 0.7, 0.1],
            [0.2, 0.1, 0.1, 0.6],
        ];
        let len = 37;
        let pa: Vec<f64> = (0..len * 4).map(|i| 1e-150 + ((i * 37) % 100) as f64 / 150.0).collect();
        let pb: Vec<f64> = (0..len * 4).map(|i| 1e-150 + ((i * 53) % 100) as f64 / 150.0).collect();
        let sa = vec![0.0; len];
        let sb = vec![0.0; len];
        let mut base_p = vec![0.0; len * 4];
        let mut base_s = vec![0.0; len];
        combine_rows_f64x4(1e-100, &ma, &mb, &pa, &pb, &sa, &sb, &mut base_p, &mut base_s);
        let mut disp_p = vec![0.0; len * 4];
        let mut disp_s = vec![0.0; len];
        dispatch::combine_rows_avx2_fma(
            1e-100,
            &ma,
            &mb,
            &pa,
            &pb,
            &sa,
            &sb,
            &mut disp_p,
            &mut disp_s,
        );
        for (b, d) in base_p.iter().zip(&disp_p) {
            assert!((b - d).abs() <= 1e-12 * b.abs().max(1.0), "{b} vs {d}");
        }
        for (b, d) in base_s.iter().zip(&disp_s) {
            assert!((b - d).abs() <= 1e-12 * b.abs().max(1.0), "{b} vs {d}");
        }
    }

    #[test]
    fn mat_vec_matches_the_scalar_product() {
        let m = [
            [0.7, 0.1, 0.1, 0.1],
            [0.1, 0.7, 0.1, 0.1],
            [0.2, 0.1, 0.6, 0.1],
            [0.1, 0.2, 0.1, 0.6],
        ];
        let p = [0.3, 0.1, 0.5, 0.1];
        let cols = F64x4::columns(&m);
        let fast = F64x4::mat_vec(&cols, &p);
        for (row, &lane) in m.iter().zip(&fast.0) {
            let scalar: f64 = row.iter().zip(&p).map(|(&m, &p)| m * p).sum();
            assert!((lane - scalar).abs() < 1e-15, "{lane} vs {scalar}");
        }
    }
}
