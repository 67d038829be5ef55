//! A minimal 3-component vector of `f64` used throughout the solvers.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

/// A Cartesian 3-vector of `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f64,
    pub y: f64,
    pub z: f64,
}

serde::impl_codec_struct!(Vec3 { x, y, z });

impl Vec3 {
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };

    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// All three components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    #[inline]
    pub fn dot(self, o: Vec3) -> f64 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    #[inline]
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * o.z - self.z * o.y,
            y: self.z * o.x - self.x * o.z,
            z: self.x * o.y - self.y * o.x,
        }
    }

    #[inline]
    pub fn norm2(self) -> f64 {
        self.dot(self)
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.norm2().sqrt()
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Vec3 {
        Vec3::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Unit vector in the direction of `self`; `None` for (near) zero vectors.
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n > 0.0 && n.is_finite() {
            Some(self / n)
        } else {
            None
        }
    }

    #[inline]
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    #[inline]
    pub fn from_array(a: [f64; 3]) -> Vec3 {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl IndexMut<usize> for Vec3 {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        match i {
            0 => &mut self.x,
            1 => &mut self.y,
            2 => &mut self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl MulAssign<f64> for Vec3 {
    #[inline]
    fn mul_assign(&mut self, s: f64) {
        *self = *self * s;
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl DivAssign<f64> for Vec3 {
    #[inline]
    fn div_assign(&mut self, s: f64) {
        *self = *self / s;
    }
}

impl Sum for Vec3 {
    fn sum<I: Iterator<Item = Vec3>>(iter: I) -> Vec3 {
        iter.fold(Vec3::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * (1.0 + a.abs() + b.abs())
    }

    #[test]
    fn basic_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 5.0, 0.5);
        assert_eq!(a + b, Vec3::new(-3.0, 7.0, 3.5));
        assert_eq!(a - b, Vec3::new(5.0, -3.0, 2.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
    }

    #[test]
    fn dot_and_cross() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        let z = Vec3::new(0.0, 0.0, 1.0);
        assert_eq!(x.cross(y), z);
        assert_eq!(y.cross(z), x);
        assert_eq!(z.cross(x), y);
        assert_eq!(x.dot(y), 0.0);
    }

    #[test]
    fn indexing_roundtrip() {
        let mut v = Vec3::new(7.0, 8.0, 9.0);
        for i in 0..3 {
            v[i] += 1.0;
        }
        assert_eq!(v.to_array(), [8.0, 9.0, 10.0]);
        assert_eq!(Vec3::from_array([8.0, 9.0, 10.0]), v);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let v = Vec3::ZERO;
        let _ = v[3];
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Vec3::ZERO.normalized().is_none());
        let n = Vec3::new(3.0, 4.0, 0.0).normalized().unwrap();
        assert!(close(n.norm(), 1.0));
    }

    proptest! {
        #[test]
        fn cross_is_orthogonal(ax in -1e3f64..1e3, ay in -1e3f64..1e3, az in -1e3f64..1e3,
                               bx in -1e3f64..1e3, by in -1e3f64..1e3, bz in -1e3f64..1e3) {
            let a = Vec3::new(ax, ay, az);
            let b = Vec3::new(bx, by, bz);
            let c = a.cross(b);
            // |a.(a x b)| should vanish relative to the magnitudes involved.
            let scale = (a.norm() * a.norm() * b.norm()).max(1.0);
            prop_assert!((a.dot(c) / scale).abs() < 1e-12);
            prop_assert!((b.dot(c) / scale).abs() < 1e-12);
        }

        #[test]
        fn sum_matches_fold(vals in proptest::collection::vec(-1e6f64..1e6, 0..32)) {
            let vs: Vec<Vec3> = vals.iter().map(|&v| Vec3::splat(v)).collect();
            let total: Vec3 = vs.iter().copied().sum();
            let expect: f64 = vals.iter().sum();
            prop_assert!(close(total.x, expect));
            prop_assert!(close(total.y, expect));
            prop_assert!(close(total.z, expect));
        }
    }
}
