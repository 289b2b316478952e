//! Complex lane types for the state-vector kernels, in two layouts chosen
//! by where a kernel's operands lie in memory.
//!
//! * [`C64x4`] holds four complex numbers **split** into real and imaginary
//!   lane arrays ([`F64x4`]). Kernels that lane *across* amplitude groups
//!   (dense blocks, sparse components, the permutation lane walk) gather
//!   one amplitude from each of four groups, so their operands are
//!   scattered anyway, and the split layout makes the product elementwise.
//! * [`C64x2`] holds two complex numbers **interleaved** as they lie in
//!   memory, `[re₀, im₀, re₁, im₁]` in one 256-bit register. Kernels that
//!   walk *along* contiguous strips (the single-qubit pair sweep, diagonal
//!   strips and diagonal table slices) load and store it whole, with no
//!   gather or per-lane scatter. It has two bodies behind one trait:
//!   [`PortableC64x2`], plain `[f64; 4]` arithmetic for every target, and,
//!   on x86-64, [`Avx2C64x2`], built on `core::arch` intrinsics
//!   (`_mm256_movedup_pd`, `_mm256_permute_pd`, `_mm256_addsub_pd`) for the
//!   kernels' runtime AVX2 re-dispatch. Kernels are generic over the body,
//!   so the AVX2 instance inlines every lane operation.
//!
//! **Bit identity.** Both layouts reproduce the scalar [`Complex64`]
//! arithmetic bit for bit for finite inputs. `C64x4`'s product replays the
//! scalar product lane by lane (`re = a.re*b.re - a.im*b.im`,
//! `im = a.re*b.im + a.im*b.re`). `C64x2`'s product of `a` by `u` is
//! `addsub(a·dup(u.re), swap(a)·dup(u.im))`: the real lane gets
//! `a.re*u.re - a.im*u.im` and the imaginary lane `a.im*u.re + a.re*u.im`,
//! the scalar product's own four multiplies, one subtraction and one
//! addition. IEEE multiplication and addition are commutative, signed zeros
//! included, so the operand order inside each does not change a bit. No
//! body fuses a multiply into an add: Rust never contracts `a*b + c`
//! implicitly, and the AVX2 body enables no FMA feature. The scalar kernels
//! stay in the tree as the oracle; tests assert exact equality.

use crate::complex::Complex64;
use std::ops::{Add, AddAssign, Mul, Sub};

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::{
    __m256d, _mm256_add_pd, _mm256_addsub_pd, _mm256_loadu_pd, _mm256_movedup_pd, _mm256_mul_pd,
    _mm256_permute2f128_pd, _mm256_permute_pd, _mm256_setr_pd, _mm256_storeu_pd,
};

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

/// Two complex numbers interleaved in one 256-bit lane set,
/// `[re₀, im₀, re₁, im₁]`, as they lie in memory.
///
/// A value is proof that its body runs on this CPU: the constructors are
/// `unsafe`, and their contract includes the body's target features (none
/// for [`PortableC64x2`], AVX2 for [`Avx2C64x2`]). `a * u` is bit-identical
/// to `Complex64`'s `a * u` and `u * a` lane by lane (see the module docs),
/// `a + b` to its sum.
pub trait C64x2: Copy + Add<Output = Self> + Mul<Output = Self> {
    /// Loads `p[0]` and `p[1]`.
    ///
    /// # Safety
    ///
    /// Both reads must be valid, and the CPU must support the body's target
    /// features.
    unsafe fn load(p: *const Complex64) -> Self;

    /// Both lanes set to `z`.
    ///
    /// # Safety
    ///
    /// The CPU must support the body's target features.
    unsafe fn splat(z: Complex64) -> Self;

    /// Stores the two lanes to `p[0]` and `p[1]`.
    ///
    /// # Safety
    ///
    /// Both writes must be valid.
    unsafe fn store(self, p: *mut Complex64);

    /// `([a₀, b₀], [a₁, b₁])` from `a = [a₀, a₁]` and `b = [b₀, b₁]`; it is
    /// its own inverse.
    fn transpose(a: Self, b: Self) -> (Self, Self);
}

/// The portable [`C64x2`] body: plain `[f64; 4]` arithmetic in the AVX2
/// body's operation order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PortableC64x2([f64; 4]);

impl C64x2 for PortableC64x2 {
    #[inline(always)]
    unsafe fn load(p: *const Complex64) -> Self {
        let (a, b) = (*p, *p.add(1));
        PortableC64x2([a.re, a.im, b.re, b.im])
    }

    #[inline(always)]
    unsafe fn splat(z: Complex64) -> Self {
        PortableC64x2([z.re, z.im, z.re, z.im])
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut Complex64) {
        let [ar, ai, br, bi] = self.0;
        *p = Complex64 { re: ar, im: ai };
        *p.add(1) = Complex64 { re: br, im: bi };
    }

    #[inline(always)]
    fn transpose(a: Self, b: Self) -> (Self, Self) {
        let ([a0, a1, a2, a3], [b0, b1, b2, b3]) = (a.0, b.0);
        (
            PortableC64x2([a0, a1, b0, b1]),
            PortableC64x2([a2, a3, b2, b3]),
        )
    }
}

impl Add for PortableC64x2 {
    type Output = PortableC64x2;
    #[inline(always)]
    fn add(self, rhs: PortableC64x2) -> PortableC64x2 {
        let (a, b) = (self.0, rhs.0);
        PortableC64x2([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]])
    }
}

impl Mul for PortableC64x2 {
    type Output = PortableC64x2;
    /// `addsub(a·dup(u.re), swap(a)·dup(u.im))`, written out.
    #[inline(always)]
    fn mul(self, u: PortableC64x2) -> PortableC64x2 {
        let (a, u) = (self.0, u.0);
        PortableC64x2([
            a[0] * u[0] - a[1] * u[1],
            a[1] * u[0] + a[0] * u[1],
            a[2] * u[2] - a[3] * u[3],
            a[3] * u[2] + a[2] * u[3],
        ])
    }
}

/// The AVX2 [`C64x2`] body: one `ymm` register. Its intrinsics are AVX
/// ones, which AVX2 implies; the kernels detect AVX2.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
pub struct Avx2C64x2(__m256d);

#[cfg(target_arch = "x86_64")]
impl C64x2 for Avx2C64x2 {
    #[inline(always)]
    unsafe fn load(p: *const Complex64) -> Self {
        Avx2C64x2(_mm256_loadu_pd(p.cast()))
    }

    #[inline(always)]
    unsafe fn splat(z: Complex64) -> Self {
        Avx2C64x2(_mm256_setr_pd(z.re, z.im, z.re, z.im))
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut Complex64) {
        _mm256_storeu_pd(p.cast(), self.0);
    }

    #[inline(always)]
    fn transpose(a: Self, b: Self) -> (Self, Self) {
        // Safety: a value exists only through `load` or `splat`, whose
        // callers vouch for AVX2.
        unsafe {
            (
                Avx2C64x2(_mm256_permute2f128_pd::<0x20>(a.0, b.0)),
                Avx2C64x2(_mm256_permute2f128_pd::<0x31>(a.0, b.0)),
            )
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl Add for Avx2C64x2 {
    type Output = Avx2C64x2;
    #[inline(always)]
    fn add(self, rhs: Avx2C64x2) -> Avx2C64x2 {
        // Safety: as in `transpose`, `self` proves AVX2.
        unsafe { Avx2C64x2(_mm256_add_pd(self.0, rhs.0)) }
    }
}

#[cfg(target_arch = "x86_64")]
impl Mul for Avx2C64x2 {
    type Output = Avx2C64x2;
    #[inline(always)]
    fn mul(self, u: Avx2C64x2) -> Avx2C64x2 {
        // Safety: as in `transpose`, `self` proves AVX2.
        unsafe {
            let re = _mm256_movedup_pd(u.0);
            let im = _mm256_permute_pd::<0b1111>(u.0);
            let swapped = _mm256_permute_pd::<0b0101>(self.0);
            Avx2C64x2(_mm256_addsub_pd(
                _mm256_mul_pd(self.0, re),
                _mm256_mul_pd(swapped, im),
            ))
        }
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

    /// Runs `f` with every [`C64x2`] body this CPU supports.
    fn for_each_body(mut f: impl FnMut(&str, &dyn Fn(&[Complex64], &[Complex64]) -> Lanes)) {
        f("portable", &lanes::<PortableC64x2>);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            f("avx2", &lanes::<Avx2C64x2>);
        }
    }

    /// Products, sums and transposes of two lane pairs, stored back out.
    type Lanes = [[Complex64; 2]; 5];

    fn lanes<L: C64x2>(xs: &[Complex64], ys: &[Complex64]) -> Lanes {
        let store = |v: L| {
            let mut out = [Complex64::ZERO; 2];
            // Safety: two valid writes.
            unsafe { v.store(out.as_mut_ptr()) };
            out
        };
        // Safety: two valid reads each; callers check the body's features.
        let (a, b) = unsafe { (L::load(xs.as_ptr()), L::load(ys.as_ptr())) };
        let splat = unsafe { L::splat(ys[1]) };
        let (t0, t1) = L::transpose(a, b);
        [
            store(a * b),
            store(a + b),
            store(a * splat),
            store(t0),
            store(t1),
        ]
    }

    #[test]
    fn interleaved_lanes_are_bit_identical_to_scalar_in_both_bodies() {
        // The C64x4 test's awkward values, plus signed zeros: `(−0)·u`
        // keeps or flips the zero's sign exactly as the scalar does.
        let xs = [
            c64(0.1, -0.7),
            c64(1.0e-160, 3.3),
            c64(-2.5000000000000004, 1.0e16),
            c64(std::f64::consts::PI, -std::f64::consts::E),
            c64(-0.0, 0.0),
            c64(0.0, -0.0),
        ];
        let ys = [
            c64(-0.30000000000000004, 0.2),
            c64(7.7, -1.0e-9),
            c64(1.0 / 3.0, 2.0 / 3.0),
            c64(-1.0e-300, 4.4),
            c64(1.0, 0.0),
            c64(-0.0, -1.0),
        ];
        let bits = |z: Complex64| (z.re.to_bits(), z.im.to_bits());
        for_each_body(|body, run| {
            for i in 0..xs.len() {
                for j in 0..ys.len() {
                    let (x, y) = ([xs[i], xs[(i + 1) % 6]], [ys[j], ys[(j + 3) % 6]]);
                    let [prod, sum, scaled, t0, t1] = run(&x, &y);
                    for k in 0..2 {
                        let what = format!("{body}: x{i} y{j} lane {k}");
                        // Both operand orders of the scalar product agree.
                        assert_eq!(bits(prod[k]), bits(x[k] * y[k]), "{what}: a * b");
                        assert_eq!(bits(prod[k]), bits(y[k] * x[k]), "{what}: b * a");
                        assert_eq!(bits(sum[k]), bits(x[k] + y[k]), "{what}: a + b");
                        assert_eq!(bits(scaled[k]), bits(x[k] * y[1]), "{what}: a * splat");
                    }
                    assert_eq!([bits(t0[0]), bits(t0[1])], [bits(x[0]), bits(y[0])]);
                    assert_eq!([bits(t1[0]), bits(t1[1])], [bits(x[1]), bits(y[1])]);
                }
            }
        });
    }

    #[test]
    fn gather_scatter_round_trips() {
        let v = [c64(1.0, 2.0), c64(3.0, 4.0), c64(5.0, 6.0), c64(7.0, 8.0)];
        let lanes = C64x4::gather(v[0], v[1], v[2], v[3]);
        assert_eq!(lanes.scatter(), v);
    }
}
