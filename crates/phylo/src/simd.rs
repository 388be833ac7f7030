//! A hand-rolled four-lane `f64` vector for the explicit-SIMD likelihood
//! kernel.
//!
//! The build environment is offline and the workspace compiles on stable
//! Rust, so neither `std::simd` (nightly) nor an external SIMD crate is
//! available. [`F64x4`] is the portable substitute: a `#[repr(transparent)]`
//! wrapper over `[f64; 4]` whose lane-wise operations are written as fixed
//! four-iteration loops that LLVM lowers to vector instructions for whatever
//! width the target offers (two 128-bit ops under baseline SSE2, one 256-bit
//! op under AVX). No `unsafe`, no intrinsics, no platform gates — the same
//! source is correct everywhere and fast wherever the backend can vectorise.
//!
//! The only operation with a semantic choice is [`F64x4::mul_add`]: when the
//! target guarantees hardware FMA (`target_feature = "fma"`) it contracts to
//! a fused multiply–add per lane; otherwise it is a plain multiply-then-add,
//! because `f64::mul_add` without hardware support falls back to a libm call
//! per lane and would be dramatically *slower* than the scalar kernel.
//!
//! The `dispatch` module closes the gap between that compile-time choice
//! and the hardware the binary actually lands on: the combine loop is
//! compiled a second time inside a `#[target_feature(enable = "avx2,fma")]`
//! function (with the fused multiply–add forced on), and
//! [`likelihood::Kernel::Auto`](crate::likelihood::Kernel::Auto) routes to it
//! after probing the CPU at runtime — so a default build reaches the same
//! 256-bit FMA code path a `RUSTFLAGS="-C target-feature=+avx2,+fma"` build
//! gets statically. That module is the one place in the crate allowed to use
//! `unsafe` (calling a `#[target_feature]` function), guarded by the runtime
//! probe.
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

    /// `self * b + c`, lane-wise, *always* fused. Only reachable from code
    /// compiled with hardware FMA in scope (the `dispatch` module's
    /// `#[target_feature]` variant of the combine loop), where `f64::mul_add`
    /// lowers to one `vfmadd` instruction rather than a libm call. The
    /// `cfg(target_feature)` test used by [`F64x4::mul_add`] reflects the
    /// *crate-wide* codegen options, not the enclosing function's
    /// `#[target_feature]` attributes, which is why this explicit variant
    /// exists.
    #[inline(always)]
    pub fn fused_mul_add(self, b: F64x4, c: F64x4) -> F64x4 {
        F64x4([
            self.0[0].mul_add(b.0[0], c.0[0]),
            self.0[1].mul_add(b.0[1], c.0[1]),
            self.0[2].mul_add(b.0[2], c.0[2]),
            self.0[3].mul_add(b.0[3], c.0[3]),
        ])
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

    /// [`F64x4::mat_vec`] with the accumulation forced through
    /// [`F64x4::fused_mul_add`]; same `y = 0..4` order. For use inside the
    /// `dispatch` module's `#[target_feature]` combine loop only.
    #[inline(always)]
    pub fn mat_vec_fma(cols: &[F64x4; 4], p: &[f64]) -> F64x4 {
        let mut acc = cols[0] * F64x4::splat(p[0]);
        acc = cols[1].fused_mul_add(F64x4::splat(p[1]), acc);
        acc = cols[2].fused_mul_add(F64x4::splat(p[2]), acc);
        cols[3].fused_mul_add(F64x4::splat(p[3]), acc)
    }
}

/// The explicit four-lane combine loop shared by `Kernel::Simd` and the
/// runtime-dispatched AVX2+FMA variant: the transition matrices are
/// transposed to column-major once per node, turning each matrix–vector
/// product into four broadcast multiply–adds with no horizontal reduction.
/// The underflow rescale is *hoisted out of the hot loop*: the main pass is
/// branch-free (it only records whether any pattern's magnitude fell below
/// the threshold), and the rare rescaling pass re-reads the stored rows and
/// applies exactly the scalar kernel's per-pattern renormalisation — so the
/// two-pass structure changes no values, only control flow. Numerically the
/// kernel reassociates the matrix–vector products (and contracts them to
/// fused multiply–adds when `FUSED`, or when the whole crate is compiled
/// with `target_feature = "fma"`), so results match the scalar kernel to
/// ≤1e-12 relative tolerance rather than bit-exactly.
///
/// `FUSED` selects [`F64x4::mat_vec_fma`] over [`F64x4::mat_vec`]; it is
/// only set by the `dispatch` module, whose `#[target_feature]` context
/// makes the fused form a hardware instruction.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn combine_rows_f64x4<const FUSED: bool>(
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
        let (va, vb) = if FUSED {
            (
                F64x4::mat_vec_fma(&ca, &pa[p * 4..p * 4 + 4]),
                F64x4::mat_vec_fma(&cb, &pb[p * 4..p * 4 + 4]),
            )
        } else {
            (F64x4::mat_vec(&ca, &pa[p * 4..p * 4 + 4]), F64x4::mat_vec(&cb, &pb[p * 4..p * 4 + 4]))
        };
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

/// Runtime CPU dispatch for the combine loop: the one place in the crate
/// where `unsafe` is permitted, because calling a `#[target_feature]`
/// function requires an unsafe block whose soundness obligation — "the
/// features the callee was compiled for are present on this CPU" — is
/// discharged by the [`avx2_fma_supported`] probe.
///
/// [`avx2_fma_supported`]: dispatch::avx2_fma_supported
#[allow(unsafe_code)]
pub(crate) mod dispatch {
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

    /// The combine loop compiled for AVX2+FMA: every `F64x4` op becomes one
    /// 256-bit instruction and every multiply–add one `vfmadd`, regardless
    /// of the crate-wide codegen baseline.
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn combine_rows_avx2_fma_impl(
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
        super::combine_rows_f64x4::<true>(
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
        super::combine_rows_f64x4::<false>(
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
        combine_rows_f64x4::<false>(1e-100, &ma, &mb, &pa, &pb, &sa, &sb, &mut base_p, &mut base_s);
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
