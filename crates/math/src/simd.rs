//! Four-wide f64 lane arrays for the split (SoA) complex kernels.
//!
//! The state-vector kernels process four **independent** amplitude groups
//! per iteration by splitting complex numbers into separate real/imaginary
//! lane arrays ([`C64x4`]). Every lane operation is elementwise and mirrors
//! the exact operation sequence of the scalar [`Complex64`] arithmetic
//! (`re = a.re*b.re - a.im*b.im; im = a.re*b.im + a.im*b.re`, additions in
//! the same order), and Rust never contracts `a*b + c` into a fused
//! multiply-add implicitly — so the lane kernels are **bit-identical** to
//! the scalar path by construction, not merely close. The scalar kernels
//! stay in the tree as the oracle; the property suites assert exact
//! equality between the two.
//!
//! The types compile to plain `[f64; 4]` arithmetic that LLVM
//! auto-vectorizes for the target's widest available lanes (two SSE2
//! `mulpd`/`addpd` pairs at the default x86-64 baseline, one AVX `ymm` op
//! when the target supports it). No `core::arch` intrinsics, no `unsafe`,
//! no target-feature gates — portable by construction.

use crate::complex::Complex64;
use std::ops::{Add, AddAssign, Mul, Sub};

/// Four f64 lanes with elementwise arithmetic.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(transparent)]
pub struct F64x4(pub [f64; 4]);

impl F64x4 {
    /// All four lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        F64x4([v; 4])
    }

    /// All four lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        F64x4([0.0; 4])
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

impl Sub for F64x4 {
    type Output = F64x4;
    #[inline(always)]
    fn sub(self, rhs: F64x4) -> F64x4 {
        F64x4([
            self.0[0] - rhs.0[0],
            self.0[1] - rhs.0[1],
            self.0[2] - rhs.0[2],
            self.0[3] - rhs.0[3],
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

impl AddAssign for F64x4 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: F64x4) {
        *self = *self + rhs;
    }
}

/// Four complex numbers in split (SoA) real/imaginary layout.
///
/// The product mirrors [`Complex64`]'s `Mul` exactly, lane by lane:
/// `re = a.re*b.re - a.im*b.im`, `im = a.re*b.im + a.im*b.re`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct C64x4 {
    /// Real parts of the four lanes.
    pub re: F64x4,
    /// Imaginary parts of the four lanes.
    pub im: F64x4,
}

impl C64x4 {
    /// All four lanes set to `z`.
    #[inline(always)]
    pub fn splat(z: Complex64) -> Self {
        C64x4 {
            re: F64x4::splat(z.re),
            im: F64x4::splat(z.im),
        }
    }

    /// All four lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        C64x4 {
            re: F64x4::zero(),
            im: F64x4::zero(),
        }
    }

    /// Gathers four complex values into split layout.
    #[inline(always)]
    pub fn gather(a: Complex64, b: Complex64, c: Complex64, d: Complex64) -> Self {
        C64x4 {
            re: F64x4([a.re, b.re, c.re, d.re]),
            im: F64x4([a.im, b.im, c.im, d.im]),
        }
    }

    /// Scatters the four lanes back to interleaved complex values.
    #[inline(always)]
    pub fn scatter(self) -> [Complex64; 4] {
        [self.lane(0), self.lane(1), self.lane(2), self.lane(3)]
    }

    /// The `k`-th lane as a scalar complex number.
    #[inline(always)]
    pub fn lane(self, k: usize) -> Complex64 {
        Complex64 {
            re: self.re.0[k],
            im: self.im.0[k],
        }
    }
}

impl Add for C64x4 {
    type Output = C64x4;
    #[inline(always)]
    fn add(self, rhs: C64x4) -> C64x4 {
        C64x4 {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Mul for C64x4 {
    type Output = C64x4;
    #[inline(always)]
    fn mul(self, rhs: C64x4) -> C64x4 {
        C64x4 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl AddAssign for C64x4 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: C64x4) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    #[test]
    fn lane_product_is_bit_identical_to_scalar() {
        // Awkward values (subnormal-adjacent, irrational, sign-mixed) so any
        // reassociation or FMA contraction would change the bits.
        let xs = [
            c64(0.1, -0.7),
            c64(1.0e-160, 3.3),
            c64(-2.5000000000000004, 1.0e16),
            c64(std::f64::consts::PI, -std::f64::consts::E),
        ];
        let ys = [
            c64(-0.30000000000000004, 0.2),
            c64(7.7, -1.0e-9),
            c64(1.0 / 3.0, 2.0 / 3.0),
            c64(-1.0e-300, 4.4),
        ];
        let a = C64x4::gather(xs[0], xs[1], xs[2], xs[3]);
        let b = C64x4::gather(ys[0], ys[1], ys[2], ys[3]);
        let prod = a * b;
        let sum = a + b;
        let mut acc = C64x4::splat(c64(0.5, -0.25));
        acc += prod;
        for k in 0..4 {
            let sp = xs[k] * ys[k];
            assert_eq!(prod.lane(k).re.to_bits(), sp.re.to_bits());
            assert_eq!(prod.lane(k).im.to_bits(), sp.im.to_bits());
            let ss = xs[k] + ys[k];
            assert_eq!(sum.lane(k).re.to_bits(), ss.re.to_bits());
            let mut sa = c64(0.5, -0.25);
            sa += sp;
            assert_eq!(acc.lane(k).re.to_bits(), sa.re.to_bits());
            assert_eq!(acc.lane(k).im.to_bits(), sa.im.to_bits());
        }
    }

    #[test]
    fn gather_scatter_round_trips() {
        let v = [c64(1.0, 2.0), c64(3.0, 4.0), c64(5.0, 6.0), c64(7.0, 8.0)];
        let lanes = C64x4::gather(v[0], v[1], v[2], v[3]);
        assert_eq!(lanes.scatter(), v);
    }
}
