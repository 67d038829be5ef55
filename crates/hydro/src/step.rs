//! The per-sub-grid flux sweep, CFL condition, and RK2 integration.
//!
//! [`HydroStepper::dudt_into`] computes the semi-discrete right-hand
//! side for every interior cell of a sub-grid whose ghosts have been
//! filled: PPM-reconstruct each field along each axis, evaluate the
//! Kurganov–Tadmor flux at every face, difference fluxes, and add the
//! angular-momentum spin source of [`crate::angmom`]. The driver in the
//! `octotiger` crate composes this with halo exchange and TVD-RK2
//! stages, exactly the structure of Octo-Tiger's timestep.
//!
//! **Pencil layout.** The sweep is one kernel over
//! [`util::simd::Lanes`], the single-source SIMD type the FMM kernels
//! use (the follow-on Octo-Tiger work vectorised its hydro the same way,
//! arXiv:2210.06439). A *pencil* is the `SWEEP_LANES` lines along the
//! sweep axis that share one transverse index and are adjacent in the
//! other: for the x- and y-sweeps the lanes are the contiguous `k` row
//! of the struct-of-arrays field slice, for the z-sweep they are `j`, a
//! stride-14 gather. Per pencil and field, 14 cells are loaded straight
//! from the field slice and reconstructed — each limited slope once per
//! cell, each interface value once per face, every limiter branch a
//! compare-and-select, bit-uniform lines passed through untouched
//! ([`crate::ppm::ppm_pencil`]) — into the face
//! states of the 10 cells `-1..=N_SUB`; then each of the 9 faces gets
//! one KT flux, with the primitive recovery in lanes and the dual-energy
//! `powf` called per lane where that branch is taken. The scratch is the
//! two face-state arrays, 9 KB on the task's stack; nothing is
//! allocated.
//!
//! **Bit-identity contract.** A lane holds exactly the operation
//! sequence the scalar formulas prescribe for its cell, so what is
//! *fixed* is per face and per cell: the expression order inside the
//! slope, interface, limiter, primitive recovery and KT flux; that a
//! face's flux is computed once and used, bitwise the same, by the two
//! cells sharing it (also across sub-grids, whose ghost fills copy
//! bits) — the interior telescoping behind the machine-precision
//! conservation ledgers; and the order a cell's output accumulates in —
//! from `0.0`, then per axis `+= (F⁻ − F⁺)/dx` over the fields followed
//! by that axis's spin source. What is *free*: the lane width, which
//! transverse index rides in the lanes, the order pencils are visited
//! in, where the intermediate values live, and skipping arithmetic
//! whose result is known beforehand. The pre-pencil sweep
//! (one gathered `Vec` per line, scalar branches) is kept verbatim in
//! this module's tests as the oracle the kernel is compared against
//! with `to_bits`, at the production width and at `W = 1`.

use crate::angmom::spin_source_lanes;
use crate::eos::{IdealGas, DUAL_ENERGY_SWITCH};
use crate::flux::{kt_flux_lanes, StateLanes, StateVec};
use crate::ppm::ppm_pencil;
use crate::prim::PrimitiveLanes;
use octree::subgrid::{Field, SubGrid, ALL_FIELDS, FIELD_COUNT, N_GHOST, N_SUB};
use util::simd::Lanes;
use util::vec3::Vec3;

/// Lane width of the production sweep. On the baseline x86-64 target
/// (two `f64` per register) 2 and 4 time the same and 8 is ~20 % slower
/// (its values spill); 4 is what the FMM kernels run.
const SWEEP_LANES: usize = 4;

/// Cells of one reconstruction line: the interior plus every ghost.
const LINE: usize = N_SUB + 2 * N_GHOST;

/// Cells reconstructed per line: the interior plus one ghost per side,
/// whose inward face states close the two boundary faces.
const N_REC: usize = N_SUB + 2;

/// Interior cells of a sub-grid — the length of an RHS.
const N_CELLS: usize = N_SUB * N_SUB * N_SUB;

/// CFL time step: `cfl * dx / max_signal_speed`.
pub fn cfl_dt(dx: f64, max_signal: f64, cfl: f64) -> f64 {
    assert!(cfl > 0.0 && cfl < 1.0, "CFL number must be in (0,1)");
    if max_signal <= 0.0 {
        f64::INFINITY
    } else {
        cfl * dx / max_signal
    }
}

/// The hydrodynamics solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct HydroStepper {
    pub eos: IdealGas,
}

impl HydroStepper {
    pub fn new(eos: IdealGas) -> HydroStepper {
        HydroStepper { eos }
    }

    /// Maximum signal speed |u|+c over the interior (for the CFL step).
    /// One primitive recovery per cell, a `k` row at a time; the fold
    /// visits cells in interior order and axes 0, 1, 2 within a cell.
    pub fn max_signal_speed(&self, grid: &SubGrid) -> f64 {
        let indexer = grid.indexer();
        let mut max = 0.0f64;
        for i in 0..N_SUB as isize {
            for j in 0..N_SUB as isize {
                let at = indexer.idx(i, j, 0);
                let row = |f: Field| Lanes::<N_SUB>::gather(grid.field(f), at, 1);
                let prim = PrimitiveLanes::from_conserved(
                    &self.eos,
                    row(Field::Rho),
                    [row(Field::Sx), row(Field::Sy), row(Field::Sz)],
                    row(Field::Egas),
                    row(Field::Tau),
                );
                let speeds = [0, 1, 2].map(|axis| prim.signal_speed(&self.eos, axis));
                for k in 0..N_SUB {
                    for a in speeds {
                        max = max.max(a.lane(k));
                    }
                }
            }
        }
        max
    }

    /// Semi-discrete RHS for every interior cell, in the row-major
    /// interior order of `GridIndexer::interior`. `grid` must be a
    /// [`SubGrid::ghosted`] grid with its ghosts filled.
    /// Allocates the result; a caller with a standing buffer uses
    /// [`HydroStepper::dudt_into`], which this wraps.
    pub fn dudt(&self, grid: &SubGrid, dx: f64) -> Vec<StateVec> {
        let mut out = vec![[0.0; FIELD_COUNT]; N_CELLS];
        self.dudt_into(grid, dx, &mut out);
        out
    }

    /// [`HydroStepper::dudt`] into `out`, one entry per interior cell,
    /// overwriting whatever it held.
    pub fn dudt_into(&self, grid: &SubGrid, dx: f64, out: &mut [StateVec]) {
        self.sweep::<SWEEP_LANES>(grid, dx, out);
    }

    /// The flux sweep at lane width `W` (a divisor of `N_SUB`); see the
    /// module header for the layout and what fixes the result's bits.
    fn sweep<const W: usize>(&self, grid: &SubGrid, dx: f64, out: &mut [StateVec]) {
        const { assert!(N_SUB.is_multiple_of(W), "lane width must divide a row") };
        assert_eq!(out.len(), N_CELLS, "RHS length mismatch");
        assert_eq!(grid.indexer().ghost, N_GHOST, "the flux sweep reads a ghosted grid");
        out.fill([0.0; FIELD_COUNT]);
        let indexer = grid.indexer();
        let first = indexer.idx(0, 0, 0);
        let (si, sj, sk) = indexer.strides();
        let (oi, oj, ok) = (N_SUB * N_SUB, N_SUB, 1);
        // Face states of cells -1..=N_SUB of one pencil, rewritten whole
        // by each.
        let mut minus = [[Lanes::<W>::splat(0.0); FIELD_COUNT]; N_REC];
        let mut plus = minus;
        for axis in 0..3 {
            // Strides along the line, across pencils and across lanes:
            // in the padded field slice and in the interior-only output.
            let ([line, row, lane], [out_line, out_row, out_lane]) = match axis {
                0 => ([si, sj, sk], [oi, oj, ok]),
                1 => ([sj, si, sk], [oj, oi, ok]),
                _ => ([sk, si, sj], [ok, oi, oj]),
            };
            for r in 0..N_SUB {
                for l0 in (0..N_SUB).step_by(W) {
                    let start = first + r * row + l0 * lane - N_GHOST * line;
                    for f in ALL_FIELDS {
                        let data = grid.field(f);
                        let mut cells = [Lanes::<W>::splat(0.0); LINE];
                        for (c, cell) in cells.iter_mut().enumerate() {
                            *cell = Lanes::gather(data, start + c * line, lane);
                        }
                        ppm_pencil(&cells, |n, m, p| {
                            minus[n][f.idx()] = m;
                            plus[n][f.idx()] = p;
                        });
                    }
                    // Face c sits between cells c-1 and c: one flux per
                    // face, handed from each cell to the next.
                    let target = r * out_row + l0 * out_lane;
                    let mut f_lo = kt_flux_lanes(&self.eos, &plus[0], &minus[1], axis);
                    for c in 0..N_SUB {
                        let f_hi = kt_flux_lanes(&self.eos, &plus[c + 1], &minus[c + 2], axis);
                        let spin = spin_source_lanes(axis, momentum(&f_lo), momentum(&f_hi));
                        let mut d = f_lo;
                        for f in 0..FIELD_COUNT {
                            d[f] = (f_lo[f] - f_hi[f]) / dx;
                        }
                        for l in 0..W {
                            let cell = &mut out[target + c * out_line + l * out_lane];
                            for f in 0..FIELD_COUNT {
                                cell[f] += d[f].lane(l);
                            }
                            for (a, s) in spin.iter().enumerate() {
                                cell[Field::Lx.idx() + a] += s.lane(l);
                            }
                        }
                        f_lo = f_hi;
                    }
                }
            }
        }
    }

    /// `U += dt * dudt` over the interior.
    pub fn apply(&self, grid: &mut SubGrid, dudt: &[StateVec], dt: f64) {
        assert_eq!(dudt.len(), N_CELLS, "RHS length mismatch");
        let indexer = grid.indexer();
        for f in ALL_FIELDS {
            let data = grid.field_mut(f);
            for (row, rhs) in dudt.chunks_exact(N_SUB).enumerate() {
                let at = indexer.idx((row / N_SUB) as isize, (row % N_SUB) as isize, 0);
                for (u, du) in data[at..at + N_SUB].iter_mut().zip(rhs) {
                    *u += dt * du[f.idx()];
                }
            }
        }
    }

    /// `U = (U_old + U_stage + dt * dudt(U_stage)) / 2` — the second TVD
    /// RK2 stage. `grid` holds `U_stage`; `old` holds `U_old`. Each grid
    /// is read by its own layout, so a leaf grid and a ghosted one mix.
    pub fn apply_rk2_final(&self, grid: &mut SubGrid, old: &SubGrid, dudt: &[StateVec], dt: f64) {
        assert_eq!(dudt.len(), N_CELLS, "RHS length mismatch");
        let (to, from) = (grid.indexer(), old.indexer());
        for f in ALL_FIELDS {
            let (data, old) = (grid.field_mut(f), old.field(f));
            for (row, rhs) in dudt.chunks_exact(N_SUB).enumerate() {
                let (i, j) = ((row / N_SUB) as isize, (row % N_SUB) as isize);
                let (at, was) = (to.idx(i, j, 0), from.idx(i, j, 0));
                let stage = data[at..at + N_SUB].iter_mut().zip(&old[was..was + N_SUB]);
                for ((u, u_old), du) in stage.zip(rhs) {
                    *u = 0.5 * (u_old + *u + dt * du[f.idx()]);
                }
            }
        }
    }

    /// Physical floors: density and internal energy must stay positive
    /// (strong rarefactions on under-resolved grids can otherwise drive
    /// them negative). Momenta in floored cells are zeroed — the cell
    /// is numerically empty — but the angular momentum `r × s` they
    /// carried is deposited into the spin ledger (`origin`/`dx` locate
    /// the cells), so flooring injects mass yet never torques the
    /// monitored total `Σ (r × s + l) V`.
    pub fn enforce_floors(&self, grid: &mut SubGrid, origin: Vec3, dx: f64) {
        let n = N_SUB as isize;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let rho = grid.at(Field::Rho, i, j, k);
                    if rho < crate::prim::RHO_FLOOR {
                        let r = Vec3::new(
                            origin.x + (i as f64 + 0.5) * dx,
                            origin.y + (j as f64 + 0.5) * dx,
                            origin.z + (k as f64 + 0.5) * dx,
                        );
                        let s = Vec3::new(
                            grid.at(Field::Sx, i, j, k),
                            grid.at(Field::Sy, i, j, k),
                            grid.at(Field::Sz, i, j, k),
                        );
                        let spin = r.cross(s);
                        grid.set(Field::Rho, i, j, k, crate::prim::RHO_FLOOR);
                        grid.set(Field::Sx, i, j, k, 0.0);
                        grid.set(Field::Sy, i, j, k, 0.0);
                        grid.set(Field::Sz, i, j, k, 0.0);
                        grid.add(Field::Lx, i, j, k, spin.x);
                        grid.add(Field::Ly, i, j, k, spin.y);
                        grid.add(Field::Lz, i, j, k, spin.z);
                    }
                    let rho = grid.at(Field::Rho, i, j, k);
                    let e_floor = rho * 1.0e-10;
                    let s = Vec3::new(
                        grid.at(Field::Sx, i, j, k),
                        grid.at(Field::Sy, i, j, k),
                        grid.at(Field::Sz, i, j, k),
                    );
                    let ke = 0.5 * s.norm2() / rho;
                    if grid.at(Field::Egas, i, j, k) < ke + e_floor {
                        grid.set(Field::Egas, i, j, k, ke + e_floor);
                    }
                    if grid.at(Field::Tau, i, j, k) < 0.0 {
                        let t = self.eos.tau_from_e(e_floor);
                        grid.set(Field::Tau, i, j, k, t);
                    }
                }
            }
        }
    }

    /// Dual-energy resynchronization: where the thermal energy is well
    /// resolved, reset the entropy tracer from the total energy (keeps τ
    /// consistent in smooth flow; elsewhere τ remains authoritative).
    pub fn resync_tau(&self, grid: &mut SubGrid) {
        let n = N_SUB as isize;
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let rho = grid.at(Field::Rho, i, j, k).max(crate::prim::RHO_FLOOR);
                    let s = Vec3::new(
                        grid.at(Field::Sx, i, j, k),
                        grid.at(Field::Sy, i, j, k),
                        grid.at(Field::Sz, i, j, k),
                    );
                    let egas = grid.at(Field::Egas, i, j, k);
                    let e_thermal = egas - 0.5 * s.norm2() / rho;
                    if egas > 0.0 && e_thermal > DUAL_ENERGY_SWITCH * egas {
                        grid.set(Field::Tau, i, j, k, self.eos.tau_from_e(e_thermal));
                    }
                }
            }
        }
    }
}

/// The momentum components of a flux: the vector the spin source sees.
#[inline(always)]
fn momentum<const W: usize>(flux: &StateLanes<W>) -> [Lanes<W>; 3] {
    [flux[Field::Sx.idx()], flux[Field::Sy.idx()], flux[Field::Sz.idx()]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angmom::spin_source;
    use crate::flux::oracle::{kt_flux, physical_flux};
    use crate::ppm::oracle::ppm_cell;
    use crate::prim::RHO_FLOOR;
    use proptest::prelude::*;

    /// The sweep, CFL scan and stage updates as they were before the
    /// pencil kernel — one gathered line at a time, scalar and branching
    /// all the way down (`ppm::oracle`, `flux::oracle`) — kept verbatim
    /// as the reference for `to_bits` comparison.
    mod oracle {
        use super::*;

        fn state_at(grid: &SubGrid, i: isize, j: isize, k: isize) -> StateVec {
            let mut u = [0.0; FIELD_COUNT];
            for f in ALL_FIELDS {
                u[f.idx()] = grid.at(f, i, j, k);
            }
            u
        }

        pub fn max_signal_speed(eos: &IdealGas, grid: &SubGrid) -> f64 {
            let mut max = 0.0f64;
            for (i, j, k) in grid.indexer().interior() {
                let u = state_at(grid, i, j, k);
                for axis in 0..3 {
                    let (_, a) = physical_flux(eos, &u, axis);
                    max = max.max(a);
                }
            }
            max
        }

        pub fn dudt(eos: &IdealGas, grid: &SubGrid, dx: f64) -> Vec<StateVec> {
            let n = N_SUB as isize;
            let mut out = vec![[0.0; FIELD_COUNT]; (n * n * n) as usize];
            let interior_index =
                |i: isize, j: isize, k: isize| -> usize { ((i * n + j) * n + k) as usize };

            // Per axis: reconstruct lines and difference face fluxes.
            for axis in 0..3usize {
                // Iterate over the two transverse coordinates.
                for a in 0..n {
                    for b in 0..n {
                        // Gather the line of states: cells -3..n+3 along `axis`.
                        let cell = |c: isize| -> (isize, isize, isize) {
                            match axis {
                                0 => (c, a, b),
                                1 => (a, c, b),
                                _ => (a, b, c),
                            }
                        };
                        let line: Vec<StateVec> = (-3..n + 3)
                            .map(|c| {
                                let (i, j, k) = cell(c);
                                state_at(grid, i, j, k)
                            })
                            .collect();
                        // PPM faces for cells -1..n (line index offset +3).
                        // faces[c + 1] = (minus, plus) of cell c.
                        let n_rec = (n + 2) as usize;
                        let mut minus = vec![[0.0; FIELD_COUNT]; n_rec];
                        let mut plus = vec![[0.0; FIELD_COUNT]; n_rec];
                        for (rec, c) in (-1..n + 1).enumerate() {
                            let li = (c + 3) as usize;
                            for f in 0..FIELD_COUNT {
                                let w = [
                                    line[li - 2][f],
                                    line[li - 1][f],
                                    line[li][f],
                                    line[li + 1][f],
                                    line[li + 2][f],
                                ];
                                let fp = ppm_cell(w);
                                minus[rec][f] = fp.minus;
                                plus[rec][f] = fp.plus;
                            }
                        }
                        // Face fluxes: face `c` sits between cells c-1 and c,
                        // for c in 0..=n.
                        let fluxes: Vec<StateVec> = (0..=n)
                            .map(|c| {
                                let left = &plus[c as usize]; // cell c-1 is rec index c-1+1
                                let right = &minus[(c + 1) as usize];
                                kt_flux(eos, left, right, axis)
                            })
                            .collect();
                        // Difference into the RHS and add the spin source.
                        for c in 0..n {
                            let (i, j, k) = cell(c);
                            let idx = interior_index(i, j, k);
                            let fm = &fluxes[c as usize];
                            let fp = &fluxes[(c + 1) as usize];
                            for f in 0..FIELD_COUNT {
                                out[idx][f] += (fm[f] - fp[f]) / dx;
                            }
                            // Angular momentum bookkeeping: momentum flux
                            // vectors through the two faces.
                            let fsm = Vec3::new(
                                fm[Field::Sx.idx()],
                                fm[Field::Sy.idx()],
                                fm[Field::Sz.idx()],
                            );
                            let fsp = Vec3::new(
                                fp[Field::Sx.idx()],
                                fp[Field::Sy.idx()],
                                fp[Field::Sz.idx()],
                            );
                            let spin = spin_source(axis, fsm, fsp);
                            out[idx][Field::Lx.idx()] += spin.x;
                            out[idx][Field::Ly.idx()] += spin.y;
                            out[idx][Field::Lz.idx()] += spin.z;
                        }
                    }
                }
            }
            out
        }

        pub fn apply(grid: &mut SubGrid, dudt: &[StateVec], dt: f64) {
            for (idx, (i, j, k)) in grid.indexer().interior().enumerate() {
                for f in ALL_FIELDS {
                    grid.add(f, i, j, k, dt * dudt[idx][f.idx()]);
                }
            }
        }

        pub fn apply_rk2_final(grid: &mut SubGrid, old: &SubGrid, dudt: &[StateVec], dt: f64) {
            for (idx, (i, j, k)) in grid.indexer().interior().enumerate() {
                for f in ALL_FIELDS {
                    let u_old = old.at(f, i, j, k);
                    let u_stage = grid.at(f, i, j, k);
                    grid.set(f, i, j, k, 0.5 * (u_old + u_stage + dt * dudt[idx][f.idx()]));
                }
            }
        }
    }

    /// splitmix64, as the proptest stand-in uses: a grid is a pure
    /// function of its seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[-1, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }

        fn one_in(&mut self, n: u64) -> bool {
            self.next().is_multiple_of(n)
        }
    }

    /// A ghost-filled grid exercising every branch of the sweep inside
    /// single lane bundles: a smooth or noisy background whose gradient
    /// runs along `axis` only (3 = all axes), with cells sprinkled in
    /// that sit under `RHO_FLOOR`, move fast enough to fall below
    /// `DUAL_ENERGY_SWITCH`, are local extrema, carry -0.0 momenta or
    /// 1e-300 scalars.
    fn random_grid(seed: u64, axis: usize, noisy: bool) -> SubGrid {
        let eos = IdealGas::monatomic();
        let mut rng = Rng(seed);
        let mut g = SubGrid::ghosted();
        let wave: [f64; 3] = std::array::from_fn(|a| {
            if axis == a || axis == 3 {
                0.3 + 0.2 * rng.unit()
            } else {
                0.0
            }
        });
        for (i, j, k) in g.indexer().all() {
            let phase = wave[0] * i as f64 + wave[1] * j as f64 + wave[2] * k as f64;
            let jitter = if noisy { 0.3 * rng.unit() } else { 0.0 };
            let mut rho = 1.0 + 0.4 * phase.sin() + jitter;
            let mut vel = Vec3::new(0.3 * phase.cos(), -0.2 * phase.sin(), 0.1 + jitter);
            let e_int = 1.0 + 0.5 * (0.7 * phase).cos() + jitter.abs();
            if rng.one_in(9) {
                rho = 0.25 * RHO_FLOOR * (2.0 + rng.unit());
            }
            if rng.one_in(7) {
                // Kinetic energy ~1e3..1e5 x thermal: the entropy branch.
                vel *= 300.0 * (1.5 + rng.unit());
            }
            if rng.one_in(11) {
                rho *= 3.0; // a local extremum in every conserved field
            }
            let mut s = vel * rho;
            if rng.one_in(13) {
                s = Vec3::new(-0.0, s.y, -0.0);
            }
            g.set(Field::Rho, i, j, k, rho);
            g.set(Field::Sx, i, j, k, s.x);
            g.set(Field::Sy, i, j, k, s.y);
            g.set(Field::Sz, i, j, k, s.z);
            g.set(Field::Egas, i, j, k, e_int + 0.5 * rho * vel.norm2());
            g.set(Field::Tau, i, j, k, eos.tau_from_e(e_int));
            g.set(Field::Lz, i, j, k, 0.01 * rho * phase.cos());
            let tiny = rng.one_in(5);
            g.set(Field::AccretorCore, i, j, k, if tiny { 1e-300 } else { 0.5 * rho });
            g.set(Field::DonorEnv, i, j, k, if tiny { -1e-300 } else { rho * jitter });
        }
        g
    }

    /// The interior of `g`, as a leaf of the tree stores it.
    fn leaf(g: &SubGrid) -> SubGrid {
        let mut out = SubGrid::new();
        out.copy_box(&octree::subgrid::BoxMap::same_level((0, 0, 0)), g);
        out
    }

    fn assert_rhs_bits_equal(got: &[StateVec], want: &[StateVec], what: &str) {
        assert_eq!(got.len(), want.len());
        for (cell, (g, w)) in got.iter().zip(want).enumerate() {
            for f in 0..FIELD_COUNT {
                assert!(
                    crate::same_bits(g[f], w[f]),
                    "{what}: cell {cell} field {f}: {:e} vs oracle {:e}",
                    g[f],
                    w[f]
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// All 512 x 14 outputs of the pencil kernel equal the
        /// line-by-line oracle bit for bit — at the production width,
        /// at the widths in between and at `W = 1` — and the output
        /// buffer's previous contents do not matter.
        #[test]
        fn pencil_kernel_matches_the_line_by_line_oracle(seed in any::<u64>()) {
            let stepper = HydroStepper::new(IdealGas::monatomic());
            let grid = random_grid(seed, (seed % 4) as usize, seed >> 2 & 1 == 1);
            let dx = 0.05 + (seed >> 8 & 0xff) as f64 / 512.0;
            let want = oracle::dudt(&stepper.eos, &grid, dx);
            let mut out = vec![[f64::NAN; FIELD_COUNT]; N_CELLS];
            stepper.dudt_into(&grid, dx, &mut out);
            assert_rhs_bits_equal(&out, &want, "dudt_into");
            assert_rhs_bits_equal(&stepper.dudt(&grid, dx), &want, "dudt");
            stepper.sweep::<1>(&grid, dx, &mut out);
            assert_rhs_bits_equal(&out, &want, "W = 1");
            stepper.sweep::<2>(&grid, dx, &mut out);
            assert_rhs_bits_equal(&out, &want, "W = 2");
            stepper.sweep::<4>(&grid, dx, &mut out);
            assert_rhs_bits_equal(&out, &want, "W = 4");

            // The CFL scan and both stage updates, on the same grid.
            prop_assert_eq!(
                stepper.max_signal_speed(&grid).to_bits(),
                oracle::max_signal_speed(&stepper.eos, &grid).to_bits()
            );
            let dt = 0.3 * dx;
            let (mut a, mut b) = (grid.clone(), grid.clone());
            stepper.apply(&mut a, &want, dt);
            oracle::apply(&mut b, &want, dt);
            prop_assert!(a == b, "apply");
            // The driver's stage 2 runs on leaf grids, interior-only.
            let (mut c, old) = (leaf(&a), leaf(&grid));
            stepper.apply_rk2_final(&mut a, &grid, &want, dt);
            stepper.apply_rk2_final(&mut c, &old, &want, dt);
            oracle::apply_rk2_final(&mut b, &grid, &want, dt);
            prop_assert!(a == b && c == leaf(&b), "apply_rk2_final");
        }
    }

    /// The mix `random_grid` promises is really there: floored cells,
    /// both dual-energy branches and signed zeros share lane bundles.
    #[test]
    fn random_grids_cover_the_branches() {
        let g = random_grid(7, 3, true);
        let (mut floored, mut entropy, mut thermal, mut negative_zero) = (0, 0, 0, 0);
        for (i, j, k) in g.indexer().interior() {
            let rho = g.at(Field::Rho, i, j, k);
            let s = Vec3::new(g.at(Field::Sx, i, j, k), g.at(Field::Sy, i, j, k), g.at(Field::Sz, i, j, k));
            let egas = g.at(Field::Egas, i, j, k);
            floored += (rho < RHO_FLOOR) as usize;
            negative_zero += (s.x == 0.0 && s.x.is_sign_negative()) as usize;
            let e_thermal = egas - 0.5 * s.norm2() / rho.max(RHO_FLOOR);
            if e_thermal > DUAL_ENERGY_SWITCH * egas {
                thermal += 1;
            } else {
                entropy += 1;
            }
        }
        assert!(floored > 20 && entropy > 20 && thermal > 100 && negative_zero > 10,
                "{floored} floored, {entropy} entropy, {thermal} thermal, {negative_zero} -0.0");
    }

    fn uniform_grid(rho: f64, vel: Vec3, e_int: f64) -> SubGrid {
        let eos = IdealGas::monatomic();
        let mut g = SubGrid::ghosted();
        let prim = crate::prim::Primitive { rho, vel, p: eos.pressure(e_int), e_int };
        let (r, s, e, tau) = prim.to_conserved(&eos);
        // Fill interior AND ghosts (as a periodic/infinite uniform medium).
        let indexer = g.indexer();
        for (i, j, k) in indexer.all() {
            g.set(Field::Rho, i, j, k, r);
            g.set(Field::Sx, i, j, k, s.x);
            g.set(Field::Sy, i, j, k, s.y);
            g.set(Field::Sz, i, j, k, s.z);
            g.set(Field::Egas, i, j, k, e);
            g.set(Field::Tau, i, j, k, tau);
        }
        g
    }

    #[test]
    fn uniform_state_is_steady() {
        let stepper = HydroStepper::new(IdealGas::monatomic());
        let g = uniform_grid(1.0, Vec3::new(0.3, -0.2, 0.1), 2.0);
        let rhs = stepper.dudt(&g, 0.1);
        for (n, du) in rhs.iter().enumerate() {
            for f in 0..FIELD_COUNT {
                assert!(
                    du[f].abs() < 1e-12,
                    "cell {n} field {f}: residual {}",
                    du[f]
                );
            }
        }
    }

    #[test]
    fn cfl_dt_behaviour() {
        assert!((cfl_dt(0.1, 2.0, 0.4) - 0.02).abs() < 1e-15);
        assert_eq!(cfl_dt(0.1, 0.0, 0.4), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "CFL")]
    fn cfl_number_validated() {
        let _ = cfl_dt(0.1, 1.0, 1.5);
    }

    #[test]
    fn max_signal_speed_of_static_gas_is_sound_speed() {
        let eos = IdealGas::monatomic();
        let stepper = HydroStepper::new(eos);
        let g = uniform_grid(1.0, Vec3::ZERO, 1.5);
        let c = eos.sound_speed(1.0, eos.pressure(1.5));
        assert!((stepper.max_signal_speed(&g) - c).abs() < 1e-12);
    }

    /// Build a grid with a 1-D density pulse and mirror-periodic ghosts,
    /// then check conservation of the flux sweep.
    #[test]
    fn flux_sweep_conserves_in_periodic_interior() {
        let eos = IdealGas::monatomic();
        let stepper = HydroStepper::new(eos);
        let mut g = uniform_grid(1.0, Vec3::new(0.5, 0.0, 0.0), 1.0);
        // Periodic pulse along x with period N_SUB so ghosts replicate.
        let indexer = g.indexer();
        for (i, j, k) in indexer.all() {
            let phase =
                2.0 * std::f64::consts::PI * (i.rem_euclid(N_SUB as isize) as f64) / N_SUB as f64;
            let rho = 1.0 + 0.2 * phase.sin();
            g.set(Field::Rho, i, j, k, rho);
            g.set(Field::Sx, i, j, k, rho * 0.5);
            let e_int = 1.0;
            g.set(Field::Egas, i, j, k, e_int + 0.5 * rho * 0.25);
            g.set(Field::Tau, i, j, k, eos.tau_from_e(e_int));
        }
        let dx = 0.1;
        let rhs = stepper.dudt(&g, dx);
        // With periodic data the total mass change is exactly the
        // difference of identical boundary fluxes: zero.
        let total_drho: f64 = rhs.iter().map(|du| du[Field::Rho.idx()]).sum();
        assert!(
            total_drho.abs() < 1e-10,
            "periodic sweep must conserve mass, got {total_drho}"
        );
    }

    #[test]
    fn apply_and_rk2_combine_correctly() {
        let stepper = HydroStepper::new(IdealGas::monatomic());
        let mut g = uniform_grid(2.0, Vec3::ZERO, 1.0);
        let old = g.clone();
        let n3 = N_SUB * N_SUB * N_SUB;
        // Artificial RHS: +1 on density everywhere.
        let mut rhs = vec![[0.0; FIELD_COUNT]; n3];
        for du in rhs.iter_mut() {
            du[Field::Rho.idx()] = 1.0;
        }
        stepper.apply(&mut g, &rhs, 0.1);
        assert!((g.at(Field::Rho, 0, 0, 0) - 2.1).abs() < 1e-14);
        // RK2 final: U = (2.0 + 2.1 + 0.1*1)/2 = 2.1.
        stepper.apply_rk2_final(&mut g, &old, &rhs, 0.1);
        assert!((g.at(Field::Rho, 0, 0, 0) - 2.1).abs() < 1e-14);
    }

    #[test]
    fn floors_preserve_total_angular_momentum() {
        // A cell under the density floor loses its momentum, but the
        // r × s it carried must move to the spin ledger bitwise.
        let eos = IdealGas::monatomic();
        let stepper = HydroStepper::new(eos);
        let mut g = uniform_grid(1.0, Vec3::ZERO, 1.0);
        g.set(Field::Rho, 2, 5, 1, 0.5 * crate::prim::RHO_FLOOR);
        g.set(Field::Sx, 2, 5, 1, 3.0e-4);
        g.set(Field::Sy, 2, 5, 1, -1.0e-4);
        g.set(Field::Sz, 2, 5, 1, 7.0e-5);
        let origin = Vec3::new(-2.0, 1.0, 0.5);
        let dx = 0.25;
        let total = |g: &SubGrid| -> Vec3 {
            let mut sum = Vec3::ZERO;
            let n = N_SUB as isize;
            for i in 0..n {
                for j in 0..n {
                    for k in 0..n {
                        let r = Vec3::new(
                            origin.x + (i as f64 + 0.5) * dx,
                            origin.y + (j as f64 + 0.5) * dx,
                            origin.z + (k as f64 + 0.5) * dx,
                        );
                        let s = Vec3::new(
                            g.at(Field::Sx, i, j, k),
                            g.at(Field::Sy, i, j, k),
                            g.at(Field::Sz, i, j, k),
                        );
                        let l = Vec3::new(
                            g.at(Field::Lx, i, j, k),
                            g.at(Field::Ly, i, j, k),
                            g.at(Field::Lz, i, j, k),
                        );
                        sum = sum + r.cross(s) + l;
                    }
                }
            }
            sum
        };
        let before = total(&g);
        stepper.enforce_floors(&mut g, origin, dx);
        let after = total(&g);
        assert_eq!(g.at(Field::Sx, 2, 5, 1), 0.0, "momentum must be zeroed");
        assert!(
            (after - before).norm() < 1e-18,
            "flooring torqued the total: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn resync_tau_updates_resolved_cells() {
        let eos = IdealGas::monatomic();
        let stepper = HydroStepper::new(eos);
        let mut g = uniform_grid(1.0, Vec3::ZERO, 2.0);
        // Corrupt tau; resync must restore it from E.
        g.field_mut(Field::Tau).fill(0.0);
        stepper.resync_tau(&mut g);
        let expect = eos.tau_from_e(2.0);
        assert!((g.at(Field::Tau, 3, 3, 3) - expect).abs() < 1e-12);
    }

    #[test]
    fn smooth_symmetric_stress_has_zero_spin_source() {
        // For a smooth linear shear the discrete momentum-flux tensor is
        // symmetric, so the torque residual - and hence the spin source -
        // vanishes identically: the x-sweep term -F_y(x-faces) cancels
        // the y-sweep term +F_x(y-faces). Spin only absorbs *discrete*
        // asymmetries (limiting/dissipation at jumps).
        let eos = IdealGas::monatomic();
        let stepper = HydroStepper::new(eos);
        let mut g = uniform_grid(1.0, Vec3::ZERO, 1.0);
        let indexer = g.indexer();
        let ux = 0.5;
        for (i, j, k) in indexer.all() {
            let vy = 0.1 * i as f64;
            g.set(Field::Sx, i, j, k, ux);
            g.set(Field::Sy, i, j, k, vy);
            g.set(Field::Egas, i, j, k, 1.0 + 0.5 * (ux * ux + vy * vy));
        }
        let rhs = stepper.dudt(&g, 0.1);
        let spin_total: f64 = rhs.iter().map(|du| du[Field::Lz.idx()].abs()).sum();
        assert!(
            spin_total < 1e-12,
            "symmetric stress must give zero spin source, got {spin_total}"
        );
    }

    #[test]
    fn shear_jump_generates_compensating_spin() {
        // A tangential-velocity discontinuity: the KT dissipation makes
        // the x-face y-momentum flux asymmetric against the y-face
        // x-momentum flux, and the spin fields must absorb the torque.
        let eos = IdealGas::monatomic();
        let stepper = HydroStepper::new(eos);
        let mut g = uniform_grid(1.0, Vec3::ZERO, 1.0);
        let indexer = g.indexer();
        let ux = 0.5;
        for (i, j, k) in indexer.all() {
            let vy = if i < 4 { 0.0 } else { 1.0 };
            g.set(Field::Sx, i, j, k, ux);
            g.set(Field::Sy, i, j, k, vy);
            g.set(Field::Egas, i, j, k, 1.0 + 0.5 * (ux * ux + vy * vy));
        }
        let rhs = stepper.dudt(&g, 0.1);
        let spin_total: f64 = rhs.iter().map(|du| du[Field::Lz.idx()].abs()).sum();
        assert!(spin_total > 1e-6, "shear jump must generate spin bookkeeping");
        assert!(spin_total.is_finite());
    }
}

