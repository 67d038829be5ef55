//! Rotating-frame source terms.
//!
//! "The grid is rotating about the z-axis with a period of 1.42 days,
//! corresponding to the initial period of the binary" (§6). In the
//! co-rotating frame the momentum equation gains the Coriolis and
//! centrifugal terms
//!
//!   ds/dt += −2 Ω × s + ρ Ω² (x, y, 0),
//!
//! and the gas energy gains the centrifugal work `u · ρΩ²(x,y,0)`
//! (Coriolis forces do no work).
//!
//! Like every momentum source, the frame force must also close the
//! discrete angular-momentum budget of [`crate::angmom`]: the force is
//! applied at the cell centre, so its torque on `r × s` is compensated
//! in the spin ledger with [`crate::angmom::body_force_spin`], exactly
//! as the driver does for the gravity force. The monitored total
//! `Σ (r × s + l) V` — the *rotating-frame* angular momentum — then
//! changes only through domain-boundary fluxes. (The z-component of
//! the centrifugal torque is identically zero; the Coriolis torque
//! `−2Ω(x sₓ + y s_y)` is not, and without the ledger deposit the
//! flagship machine-precision z-angular-momentum check fails.)

use octree::subgrid::{Field, SubGrid, N_SUB};
use util::vec3::Vec3;

/// Rotation about the z-axis with angular velocity `omega`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RotatingFrame {
    pub omega: f64,
}

impl RotatingFrame {
    pub fn new(omega: f64) -> RotatingFrame {
        RotatingFrame { omega }
    }

    /// No rotation (verification tests).
    pub fn inertial() -> RotatingFrame {
        RotatingFrame { omega: 0.0 }
    }

    /// Frame acceleration (per unit mass) at position `r` for velocity
    /// `u`: Coriolis + centrifugal.
    #[inline]
    pub fn acceleration(&self, r: Vec3, u: Vec3) -> Vec3 {
        if self.omega == 0.0 {
            return Vec3::ZERO;
        }
        let om = Vec3::new(0.0, 0.0, self.omega);
        let coriolis = -2.0 * om.cross(u);
        let centrifugal = Vec3::new(r.x, r.y, 0.0) * (self.omega * self.omega);
        coriolis + centrifugal
    }

    /// Accumulate the frame sources into a sub-grid's RHS. `origin` is
    /// the node's lower corner, `dx` its cell size; the rotation axis
    /// passes through the domain origin.
    pub fn add_sources(
        &self,
        grid: &SubGrid,
        origin: Vec3,
        dx: f64,
        dudt: &mut [crate::flux::StateVec],
    ) {
        if self.omega == 0.0 {
            return;
        }
        let n = N_SUB as isize;
        let mut idx = 0;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let r = Vec3::new(
                        origin.x + (i as f64 + 0.5) * dx,
                        origin.y + (j as f64 + 0.5) * dx,
                        origin.z + (k as f64 + 0.5) * dx,
                    );
                    let rho = grid.at(Field::Rho, i, j, k);
                    let s = Vec3::new(
                        grid.at(Field::Sx, i, j, k),
                        grid.at(Field::Sy, i, j, k),
                        grid.at(Field::Sz, i, j, k),
                    );
                    let u = if rho > 0.0 { s / rho } else { Vec3::ZERO };
                    let a = self.acceleration(r, u);
                    let f = a * rho;
                    dudt[idx][Field::Sx.idx()] += f.x;
                    dudt[idx][Field::Sy.idx()] += f.y;
                    dudt[idx][Field::Sz.idx()] += f.z;
                    // Only the centrifugal part does work.
                    let centrifugal = Vec3::new(r.x, r.y, 0.0) * (self.omega * self.omega);
                    dudt[idx][Field::Egas.idx()] += s.dot(centrifugal);
                    // Close the angular budget: the spin ledger absorbs
                    // the frame force's torque on r × s.
                    let spin = crate::angmom::body_force_spin(r, f);
                    dudt[idx][Field::Lx.idx()] += spin.x;
                    dudt[idx][Field::Ly.idx()] += spin.y;
                    dudt[idx][Field::Lz.idx()] += spin.z;
                    idx += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flux::StateVec;
    use octree::subgrid::FIELD_COUNT;

    #[test]
    fn inertial_frame_is_a_no_op() {
        let f = RotatingFrame::inertial();
        assert_eq!(f.acceleration(Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0)), Vec3::ZERO);
        let g = SubGrid::new();
        let mut rhs: Vec<StateVec> = vec![[0.0; FIELD_COUNT]; N_SUB * N_SUB * N_SUB];
        f.add_sources(&g, Vec3::ZERO, 0.1, &mut rhs);
        assert!(rhs.iter().all(|du| du.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn coriolis_deflects_perpendicular() {
        let f = RotatingFrame::new(1.0);
        // Moving +x at the origin: Coriolis = -2 ẑ×u = -2(ẑ×x̂) = -2ŷ.
        let a = f.acceleration(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
        assert!((a - Vec3::new(0.0, -2.0, 0.0)).norm() < 1e-14);
    }

    #[test]
    fn centrifugal_points_outward() {
        let f = RotatingFrame::new(2.0);
        let a = f.acceleration(Vec3::new(3.0, 0.0, 5.0), Vec3::ZERO);
        // Ω² (x, y, 0) = 4 * (3, 0, 0); z-coordinate irrelevant.
        assert!((a - Vec3::new(12.0, 0.0, 0.0)).norm() < 1e-14);
    }

    #[test]
    fn coriolis_does_no_work() {
        let f = RotatingFrame::new(1.7);
        let u = Vec3::new(0.3, -0.8, 0.2);
        let coriolis = f.acceleration(Vec3::ZERO, u); // centrifugal = 0 at origin
        assert!(coriolis.dot(u).abs() < 1e-14);
    }

    #[test]
    fn sources_accumulate_into_rhs() {
        let f = RotatingFrame::new(1.0);
        let mut g = SubGrid::new();
        g.field_mut(Field::Rho).fill(1.0);
        g.field_mut(Field::Sx).fill(0.5);
        let mut rhs: Vec<StateVec> = vec![[0.0; FIELD_COUNT]; N_SUB * N_SUB * N_SUB];
        f.add_sources(&g, Vec3::new(1.0, 1.0, 1.0), 0.25, &mut rhs);
        // Some cell must feel both Coriolis (−2Ω×u → -y) and
        // centrifugal (+x, +y).
        let any_sy = rhs.iter().any(|du| du[Field::Sy.idx()] != 0.0);
        let any_sx = rhs.iter().any(|du| du[Field::Sx.idx()] != 0.0);
        let any_e = rhs.iter().any(|du| du[Field::Egas.idx()] != 0.0);
        assert!(any_sx && any_sy && any_e);
    }

    #[test]
    fn frame_sources_close_the_angular_budget_per_cell() {
        // Regression for the flagship conservation property: the frame
        // force's torque on r × s must be cancelled *bitwise* by the
        // spin-ledger deposit, cell by cell, so d(r × s + l)/dt from
        // the source is exactly zero.
        let f = RotatingFrame::new(0.83);
        let mut g = SubGrid::new();
        let indexer = g.indexer();
        for (i, j, k) in indexer.all() {
            let x = (i as f64) * 0.37 - 1.0;
            let y = (j as f64) * 0.21 + 0.4;
            let z = (k as f64) * 0.11 - 0.3;
            g.set(Field::Rho, i, j, k, 1.0 + 0.1 * (x * y).sin().abs());
            g.set(Field::Sx, i, j, k, 0.3 * y);
            g.set(Field::Sy, i, j, k, -0.2 * x);
            g.set(Field::Sz, i, j, k, 0.05 * z);
            g.set(Field::Egas, i, j, k, 2.0);
        }
        let origin = Vec3::new(-0.9, 0.7, -0.4);
        let dx = 0.25;
        let mut rhs: Vec<StateVec> = vec![[0.0; FIELD_COUNT]; N_SUB * N_SUB * N_SUB];
        f.add_sources(&g, origin, dx, &mut rhs);
        let n = N_SUB as isize;
        let mut idx = 0;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let r = Vec3::new(
                        origin.x + (i as f64 + 0.5) * dx,
                        origin.y + (j as f64 + 0.5) * dx,
                        origin.z + (k as f64 + 0.5) * dx,
                    );
                    let ds = Vec3::new(
                        rhs[idx][Field::Sx.idx()],
                        rhs[idx][Field::Sy.idx()],
                        rhs[idx][Field::Sz.idx()],
                    );
                    let dl = Vec3::new(
                        rhs[idx][Field::Lx.idx()],
                        rhs[idx][Field::Ly.idx()],
                        rhs[idx][Field::Lz.idx()],
                    );
                    let budget = r.cross(ds) + dl;
                    assert_eq!(
                        budget,
                        Vec3::ZERO,
                        "cell ({i},{j},{k}): frame torque not absorbed by ledger"
                    );
                    idx += 1;
                }
            }
        }
    }
}
