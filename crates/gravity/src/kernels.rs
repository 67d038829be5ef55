//! The stencil-based struct-of-arrays FMM compute kernels — the
//! application hotspot (§4.3).
//!
//! "In order to improve cache-efficiency and vector-unit usage, we
//! changed it to a stencil-based approach and are now utilizing a
//! struct-of-arrays datastructure." Each kernel launch applies the
//! same-level stencil to all 512 cells of a sub-grid, reading sources
//! from an extended SoA buffer holding the node's own cells plus the
//! neighbor halo.
//!
//! Two kernels, as in the paper:
//! * [`monopole_kernel`] — monopole–monopole (12 flops/interaction):
//!   both nodes are leaves, cells are point masses.
//! * [`multipole_kernel`] — the combined multipole–multipole /
//!   multipole–monopole kernel (455 flops/interaction): full M2L with
//!   quadrupoles and the conservation corrections.
//!
//! The innermost loops are **branchless**: instead of testing whether
//! a slot holds data (which defeats vectorization, exactly the
//! branch-divergence problem GPU kernels predicate away), each slot
//! carries a `mask` weight of 1.0/0.0 and every contribution is
//! multiplied by `mask[t] · mask[s]`. Absent slots hold `m = 0` and a
//! softened separation (`r² += 1 − w`) keeps the 1/r tensors finite, so
//! masked-out pairs contribute exact (signed) zeros. Multiplication by
//! 1.0 is exact in IEEE arithmetic, so present pairs are bit-identical
//! to the branchy formulation. The same pair weights, summed, are the
//! interaction counters.
//!
//! **One body, two widths.** The pair arithmetic is written once over
//! the lane type [`util::simd::Lanes`] (the "Merging Frameworks"
//! follow-up's SIMD types, arXiv:2210.06439): these kernels instantiate
//! it at `W = 4`, the pairwise API
//! ([`LocalExpansion::accumulate_softened`], hence the AoS
//! `interaction_list` ablation) at `W = 1`. Lanes map to *target cells*
//! — four k-adjacent cells for the offset kernels, the four same-parity
//! stride-2 cells of a row for the parity-stencil kernels — so each
//! cell's accumulation order over its offset list is the one-pair-at-a-
//! time order and the results are bit-identical by construction (see
//! DESIGN.md "Chunking & SIMD").
//!
//! **Cache-blocked ranges.** Every kernel has a `*_range_into` form
//! restricted to a slab `[start, end)` of the interior linear index
//! (`(i·8 + j)·8 + k`, k fastest). Slabs are whole 8-cell rows — a
//! checked precondition, so every cell of a slab sits in a full lane
//! group and there is no scalar path to fall back to. The chunked
//! solver (`FmmSolver`) launches one task per slab and concatenates
//! the slabs in index order, which reproduces the monolithic kernel's
//! output exactly — each cell is owned by exactly one slab and its
//! per-offset accumulation never crosses slab boundaries.

use crate::expansion::{vec3_lane, LocalExpansion, PairTerms};
use crate::multipole::Multipole;
use crate::stencil::Stencil;
use octree::subgrid::N_SUB;
use util::simd::Lanes;
use util::vec3::Vec3;

/// Number of interior cells in a sub-grid (`N_SUB³`).
pub const N_CELLS: usize = N_SUB * N_SUB * N_SUB;

/// Struct-of-arrays moment storage over an extended grid of
/// `(N_SUB + 2·width)³` cells (interior + stencil halo).
pub struct MomentGrid {
    width: i32,
    dim: usize,
    pub m: Vec<f64>,
    pub comx: Vec<f64>,
    pub comy: Vec<f64>,
    pub comz: Vec<f64>,
    pub q: [Vec<f64>; 6],
    /// Branchless predication weight: 1.0 where source data exists,
    /// 0.0 elsewhere (outside the domain or where no neighbor provides
    /// data). Kernels multiply contributions by this instead of
    /// branching.
    pub mask: Vec<f64>,
}

impl MomentGrid {
    pub fn new(width: i32) -> MomentGrid {
        assert!(width >= 0);
        let dim = N_SUB + 2 * width as usize;
        let n = dim * dim * dim;
        MomentGrid {
            width,
            dim,
            m: vec![0.0; n],
            comx: vec![0.0; n],
            comy: vec![0.0; n],
            comz: vec![0.0; n],
            q: std::array::from_fn(|_| vec![0.0; n]),
            mask: vec![0.0; n],
        }
    }

    /// Halo width.
    pub fn width(&self) -> i32 {
        self.width
    }

    /// Zero every slot, restoring the state of a freshly built grid
    /// without reallocating — the scratch-pool reuse path.
    pub fn reset(&mut self) {
        self.m.fill(0.0);
        self.comx.fill(0.0);
        self.comy.fill(0.0);
        self.comz.fill(0.0);
        for c in &mut self.q {
            c.fill(0.0);
        }
        self.mask.fill(0.0);
    }

    /// Flattened index of extended coordinates in
    /// `[-width, N_SUB + width)`.
    #[inline]
    pub fn idx(&self, i: isize, j: isize, k: isize) -> usize {
        let w = self.width as isize;
        debug_assert!(i >= -w && (i as i64) < (N_SUB as i64 + w as i64));
        (((i + w) as usize * self.dim) + (j + w) as usize) * self.dim + (k + w) as usize
    }

    /// Install a cell's moments.
    pub fn set(&mut self, i: isize, j: isize, k: isize, mp: &Multipole) {
        let n = self.idx(i, j, k);
        self.m[n] = mp.m;
        self.comx[n] = mp.com.x;
        self.comy[n] = mp.com.y;
        self.comz[n] = mp.com.z;
        for c in 0..6 {
            self.q[c][n] = mp.q[c];
        }
        self.mask[n] = 1.0;
    }

    /// Read a cell's moments back.
    pub fn get(&self, i: isize, j: isize, k: isize) -> Option<Multipole> {
        let n = self.idx(i, j, k);
        if self.mask[n] == 0.0 {
            return None;
        }
        Some(Multipole {
            m: self.m[n],
            com: Vec3::new(self.comx[n], self.comy[n], self.comz[n]),
            q: std::array::from_fn(|c| self.q[c][n]),
        })
    }
}

/// Result of one kernel launch: per-interior-cell expansions plus the
/// interaction count (for the performance counters of §6.1).
pub struct KernelResult {
    pub expansions: Vec<LocalExpansion>,
    pub interactions: u64,
}

/// Flattened interior-cell linear index `(i·8 + j)·8 + k` (k fastest) —
/// the index the cache-blocked slabs of the chunked solver range over.
#[inline]
pub fn interior_index(i: isize, j: isize, k: isize) -> usize {
    ((i * N_SUB as isize + j) * N_SUB as isize + k) as usize
}

/// Lane width of the SoA kernels: half a row, so a row is two lane
/// groups both as k-adjacent halves and as same-parity stride-2 cells.
const LANES: usize = 4;
const _: () = assert!(N_SUB == 2 * LANES);

/// Check the slab `[start, end)` (whole rows inside the sub-grid) and
/// reset `out` to one default expansion per slab cell without shrinking
/// its capacity (zero-allocation on reuse).
fn reset_slab(out: &mut Vec<LocalExpansion>, start: usize, end: usize) {
    assert!(start <= end && end <= N_CELLS);
    assert!(
        start.is_multiple_of(N_SUB) && end.is_multiple_of(N_SUB),
        "slab [{start}, {end}) is not whole {N_SUB}-cell rows"
    );
    out.clear();
    out.resize(end - start, LocalExpansion::default());
}

/// Decompose an interior linear index `(i·8 + j)·8 + k` into `(i, j, k)`.
#[inline]
fn interior_coords(c: usize) -> (isize, isize, isize) {
    let n = N_SUB;
    ((c / (n * n)) as isize, ((c / n) % n) as isize, (c % n) as isize)
}

/// The weights `w = mask[t]·mask[s]` and separations `com[t] − com[s]`
/// of `W` pairs: lane `l` is target slot `t0 + l·stride` / source slot
/// `s0 + l·stride`.
#[inline(always)]
fn pair_geometry<const W: usize>(
    grid: &MomentGrid,
    t0: usize,
    s0: usize,
    stride: usize,
) -> (Lanes<W>, [Lanes<W>; 3]) {
    let diff = |f: &[f64]| Lanes::gather(f, t0, stride) - Lanes::gather(f, s0, stride);
    let w = Lanes::gather(&grid.mask, t0, stride) * Lanes::gather(&grid.mask, s0, stride);
    (w, [diff(&grid.comx), diff(&grid.comy), diff(&grid.comz)])
}

/// A pair body the slab loops are instantiated with. A trait rather
/// than a function value: `B::accum` is a direct call that inlines the
/// body into the loops, where a passed-in function is reached through
/// an outlined call per lane group.
trait PairBody {
    /// Accumulate `W` pairs (lanes as in [`pair_geometry`]) into
    /// `out[l·stride]` and return their weights.
    fn accum<const W: usize>(
        grid: &MomentGrid,
        t0: usize,
        s0: usize,
        stride: usize,
        out: &mut [LocalExpansion],
    ) -> Lanes<W>;
}

/// The 12-flop monopole–monopole interaction, branchless: all
/// contributions are weighted by `w` and the separation is softened by
/// `1 − w` so masked slots produce exact zeros instead of NaNs.
struct MonopolePairs;

impl PairBody for MonopolePairs {
    #[inline(always)]
    fn accum<const W: usize>(
        grid: &MomentGrid,
        t0: usize,
        s0: usize,
        stride: usize,
        out: &mut [LocalExpansion],
    ) -> Lanes<W> {
        let (w, d) = pair_geometry::<W>(grid, t0, s0, stride);
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + (Lanes::splat(1.0) - w);
        let u = w / r2.sqrt();
        let u3 = u / r2;
        let ms = Lanes::gather(&grid.m, s0, stride);
        let d_phi = ms * -u;
        let s_dphi = ms * u3;
        // Canonical mirror-exact force term.
        let s_force = u3 * -(Lanes::gather(&grid.m, t0, stride) * ms);
        for l in 0..W {
            let e = &mut out[l * stride];
            let dl = vec3_lane(&d, l);
            e.phi += d_phi.lane(l);
            e.dphi += dl * s_dphi.lane(l);
            e.force += dl * s_force.lane(l);
        }
        w
    }
}

/// The 455-flop multipole interaction ([`PairTerms`]), branchless: the
/// source moments are scaled by the pair weight (every accumulated term
/// is linear in them), and the softened tensors stay finite on masked
/// slots.
struct MultipolePairs;

impl PairBody for MultipolePairs {
    #[inline(always)]
    fn accum<const W: usize>(
        grid: &MomentGrid,
        t0: usize,
        s0: usize,
        stride: usize,
        out: &mut [LocalExpansion],
    ) -> Lanes<W> {
        let (w, d) = pair_geometry::<W>(grid, t0, s0, stride);
        let terms = PairTerms::of(
            Lanes::gather(&grid.m, t0, stride),
            Lanes::gather(&grid.m, s0, stride) * w,
            &std::array::from_fn(|c| Lanes::gather(&grid.q[c], t0, stride)),
            &std::array::from_fn(|c| Lanes::gather(&grid.q[c], s0, stride) * w),
            d,
            Lanes::splat(1.0) - w,
        );
        for l in 0..W {
            out[l * stride].add_pair(&terms, l);
        }
        w
    }
}

/// Apply `offsets` to every cell of the row-aligned slab `[start, end)`
/// with the pair body `B`, offset-major: lane groups are four
/// k-adjacent targets, contiguous in both the extended grid (k fastest)
/// and the output slab. Returns the interaction count.
fn offset_range_into<B: PairBody>(
    grid: &MomentGrid,
    offsets: &[(i32, i32, i32)],
    start: usize,
    end: usize,
    out: &mut Vec<LocalExpansion>,
) -> u64 {
    reset_slab(out, start, end);
    let mut pairs = Lanes::<LANES>::splat(0.0);
    for &(dx, dy, dz) in offsets {
        for c in (start..end).step_by(LANES) {
            let (i, j, k) = interior_coords(c);
            let t0 = grid.idx(i, j, k);
            let s0 = grid.idx(i + dx as isize, j + dy as isize, k + dz as isize);
            pairs += B::accum::<LANES>(grid, t0, s0, 1, &mut out[c - start..]);
        }
    }
    // Every weight is 1.0 or 0.0, so the sum is the exact count.
    pairs.0.iter().sum::<f64>() as u64
}

/// Parity-exact same-level pass over the row-aligned slab
/// `[start, end)` with the pair body `B`: each cell uses the offset
/// list of its parity, so every pair is owned by exactly one level of
/// the tree walk. k parity alternates along a row, so a row is two lane
/// groups of four same-parity stride-2 cells sharing an offset list —
/// the even-k cells, then the odd-k cells. Returns the interaction
/// count.
fn parity_range_into<B: PairBody>(
    grid: &MomentGrid,
    stencil: &Stencil,
    start: usize,
    end: usize,
    out: &mut Vec<LocalExpansion>,
) -> u64 {
    reset_slab(out, start, end);
    let mut pairs = Lanes::<LANES>::splat(0.0);
    for row in (start..end).step_by(N_SUB) {
        let (i, j, _) = interior_coords(row);
        for k0 in 0..2isize {
            let t0 = grid.idx(i, j, k0);
            for &(dx, dy, dz) in stencil.for_parity(parity_of(i, j, k0)) {
                let s0 = grid.idx(i + dx as isize, j + dy as isize, k0 + dz as isize);
                pairs += B::accum::<LANES>(grid, t0, s0, 2, &mut out[row - start + k0 as usize..]);
            }
        }
    }
    // Every weight is 1.0 or 0.0, so the sum is the exact count.
    pairs.0.iter().sum::<f64>() as u64
}

/// Parity of a cell: `(i&1) | ((j&1)<<1) | ((k&1)<<2)`.
#[inline]
fn parity_of(i: isize, j: isize, k: isize) -> u8 {
    ((i & 1) | ((j & 1) << 1) | ((k & 1) << 2)) as u8
}

/// Monopole–monopole kernel — point masses only (leaf/leaf node pairs)
/// — applying `offsets` to the target-cell slab `[start, end)` of the
/// interior linear index, which must be whole 8-cell rows. `out` gets
/// `end − start` expansions, slab cell `c` at `out[c − start]`. Returns
/// the interaction count.
pub fn monopole_kernel_range_into(
    grid: &MomentGrid,
    offsets: &[(i32, i32, i32)],
    start: usize,
    end: usize,
    out: &mut Vec<LocalExpansion>,
) -> u64 {
    offset_range_into::<MonopolePairs>(grid, offsets, start, end, out)
}

/// The combined multipole kernel — full M2L with quadrupoles and
/// conservation corrections — over the slab `[start, end)`; layout as
/// [`monopole_kernel_range_into`].
pub fn multipole_kernel_range_into(
    grid: &MomentGrid,
    offsets: &[(i32, i32, i32)],
    start: usize,
    end: usize,
    out: &mut Vec<LocalExpansion>,
) -> u64 {
    offset_range_into::<MultipolePairs>(grid, offsets, start, end, out)
}

/// Parity-exact same-level monopole kernel over the slab
/// `[start, end)` (whole rows): each cell uses the offset list of its
/// parity. Output layout as [`monopole_kernel_range_into`].
pub fn monopole_kernel_stencil_range_into(
    grid: &MomentGrid,
    stencil: &Stencil,
    start: usize,
    end: usize,
    out: &mut Vec<LocalExpansion>,
) -> u64 {
    parity_range_into::<MonopolePairs>(grid, stencil, start, end, out)
}

/// Parity-exact same-level multipole kernel over the slab
/// `[start, end)` (whole rows); see
/// [`monopole_kernel_stencil_range_into`].
pub fn multipole_kernel_stencil_range_into(
    grid: &MomentGrid,
    stencil: &Stencil,
    start: usize,
    end: usize,
    out: &mut Vec<LocalExpansion>,
) -> u64 {
    parity_range_into::<MultipolePairs>(grid, stencil, start, end, out)
}

/// A whole-sub-grid launch into a fresh buffer.
fn full_launch(range_into: impl FnOnce(&mut Vec<LocalExpansion>) -> u64) -> KernelResult {
    let mut expansions = Vec::new();
    let interactions = range_into(&mut expansions);
    KernelResult { expansions, interactions }
}

/// [`monopole_kernel_range_into`] over every interior cell.
pub fn monopole_kernel(grid: &MomentGrid, offsets: &[(i32, i32, i32)]) -> KernelResult {
    full_launch(|out| monopole_kernel_range_into(grid, offsets, 0, N_CELLS, out))
}

/// [`multipole_kernel_range_into`] over every interior cell.
pub fn multipole_kernel(grid: &MomentGrid, offsets: &[(i32, i32, i32)]) -> KernelResult {
    full_launch(|out| multipole_kernel_range_into(grid, offsets, 0, N_CELLS, out))
}

/// [`monopole_kernel_stencil_range_into`] over every interior cell.
pub fn monopole_kernel_stencil(grid: &MomentGrid, stencil: &Stencil) -> KernelResult {
    full_launch(|out| monopole_kernel_stencil_range_into(grid, stencil, 0, N_CELLS, out))
}

/// [`multipole_kernel_stencil_range_into`] over every interior cell.
pub fn multipole_kernel_stencil(grid: &MomentGrid, stencil: &Stencil) -> KernelResult {
    full_launch(|out| multipole_kernel_stencil_range_into(grid, stencil, 0, N_CELLS, out))
}

/// Build the extended moment grid for one node from its own cell
/// moments and a halo lookup: `lookup(i, j, k)` returns the moment of
/// the (possibly out-of-node) cell at extended coordinates, or `None`
/// outside the domain.
pub fn gather_moments(
    width: i32,
    lookup: impl Fn(isize, isize, isize) -> Option<Multipole>,
) -> MomentGrid {
    let mut grid = MomentGrid::new(width);
    gather_moments_into(&mut grid, lookup);
    grid
}

/// [`gather_moments`] into an existing (e.g. pooled) grid of the right
/// width; the grid is reset first, so the result is identical to a
/// freshly built one.
pub fn gather_moments_into(
    grid: &mut MomentGrid,
    lookup: impl Fn(isize, isize, isize) -> Option<Multipole>,
) {
    grid.reset();
    let w = grid.width() as isize;
    let n = N_SUB as isize;
    for i in -w..n + w {
        for j in -w..n + w {
            for k in -w..n + w {
                if let Some(mp) = lookup(i, j, k) {
                    grid.set(i, j, k, &mp);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::Stencil;

    /// A uniform lattice of unit point masses at integer cell centres.
    fn lattice(width: i32) -> MomentGrid {
        gather_moments(width, |i, j, k| {
            Some(Multipole::monopole(
                1.0,
                Vec3::new(i as f64, j as f64, k as f64),
            ))
        })
    }

    #[test]
    fn moment_grid_set_get_roundtrip() {
        let mut g = MomentGrid::new(2);
        assert!(g.get(0, 0, 0).is_none());
        let mp = Multipole {
            m: 2.0,
            com: Vec3::new(0.1, 0.2, 0.3),
            q: [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        };
        g.set(-2, 5, 9, &mp);
        assert_eq!(g.get(-2, 5, 9).unwrap(), mp);
        g.reset();
        assert!(g.get(-2, 5, 9).is_none());
    }

    #[test]
    fn monopole_kernel_counts_interactions() {
        let s = Stencil::octotiger();
        let grid = lattice(s.width());
        let res = monopole_kernel(&grid, s.offsets());
        // Full lattice: every cell sees the whole stencil.
        assert_eq!(res.interactions, (s.len() * 512) as u64);
        assert_eq!(res.expansions.len(), 512);
    }

    #[test]
    fn uniform_lattice_center_feels_no_net_force() {
        // Symmetric surroundings: the interior-most cell's stencil
        // contributions cancel.
        let s = Stencil::octotiger();
        let grid = lattice(s.width());
        let res = monopole_kernel(&grid, s.offsets());
        // Cell (4,4,4)-ish is symmetric wrt the stencil in this lattice
        // (sources exist everywhere).
        let e = &res.expansions[interior_index(4, 4, 4)];
        assert!(
            e.force.norm() < 1e-12,
            "symmetric lattice force should cancel, got {:?}",
            e.force
        );
        assert!(e.phi < 0.0, "potential must be negative");
    }

    #[test]
    fn lattice_momentum_conservation_with_closed_halo() {
        // Make the halo empty: only interior cells interact; total
        // momentum change (sum of force ledgers) must vanish to
        // round-off because every pair is inside.
        let s = Stencil::octotiger();
        let grid = gather_moments(s.width(), |i, j, k| {
            let n = N_SUB as isize;
            if (0..n).contains(&i) && (0..n).contains(&j) && (0..n).contains(&k) {
                // Irregular masses for a nontrivial test.
                let m = 1.0 + ((i * 7 + j * 3 + k) % 5) as f64 * 0.25;
                Some(Multipole::monopole(m, Vec3::new(i as f64, j as f64, k as f64)))
            } else {
                None
            }
        });
        let res = monopole_kernel(&grid, s.offsets());
        let total: Vec3 = res.expansions.iter().map(|e| e.force).sum();
        let scale: f64 = res.expansions.iter().map(|e| e.force.norm()).sum();
        assert!(
            total.norm() <= 1e-13 * scale.max(1.0),
            "momentum residual {:?} at scale {scale}",
            total
        );
    }

    #[test]
    fn multipole_kernel_conserves_momentum_and_angular_momentum() {
        let s = Stencil::octotiger();
        let grid = gather_moments(s.width(), |i, j, k| {
            let n = N_SUB as isize;
            if (0..n).contains(&i) && (0..n).contains(&j) && (0..n).contains(&k) {
                let m = 1.0 + ((i + 2 * j + 3 * k) % 7) as f64 * 0.5;
                let off = 0.1 * ((i * j + k) % 3) as f64;
                Some(Multipole {
                    m,
                    com: Vec3::new(i as f64 + off, j as f64 - off, k as f64),
                    q: [
                        0.01 * (i % 3) as f64,
                        0.01 * (j % 3) as f64,
                        0.01 * (k % 3) as f64,
                        0.005,
                        -0.002,
                        0.001,
                    ],
                })
            } else {
                None
            }
        });
        let res = multipole_kernel(&grid, s.offsets());
        // Linear momentum.
        let total_f: Vec3 = res.expansions.iter().map(|e| e.force).sum();
        let scale_f: f64 = res.expansions.iter().map(|e| e.force.norm()).sum();
        assert!(
            total_f.norm() <= 1e-13 * scale_f.max(1.0),
            "momentum residual {total_f:?}"
        );
        // Angular momentum: orbital torque + deposited spin torques.
        let mut orbital = Vec3::ZERO;
        let mut spin = Vec3::ZERO;
        let mut scale_t = 0.0;
        for i in 0..N_SUB as isize {
            for j in 0..N_SUB as isize {
                for k in 0..N_SUB as isize {
                    let e = &res.expansions[interior_index(i, j, k)];
                    let com = grid.get(i, j, k).unwrap().com;
                    orbital += com.cross(e.force);
                    spin += e.torque;
                    scale_t += com.cross(e.force).norm() + e.torque.norm();
                }
            }
        }
        let residual = (orbital + spin).norm();
        assert!(
            residual <= 1e-13 * scale_t.max(1.0),
            "angular momentum residual {residual} at scale {scale_t}"
        );
    }

    #[test]
    fn missing_sources_are_skipped() {
        let s = Stencil::octotiger();
        // Only one cell present: no interactions at all.
        let grid = gather_moments(s.width(), |i, j, k| {
            if (i, j, k) == (4, 4, 4) {
                Some(Multipole::monopole(1.0, Vec3::ZERO))
            } else {
                None
            }
        });
        let res = monopole_kernel(&grid, s.offsets());
        assert_eq!(res.interactions, 0);
        assert!(res.expansions.iter().all(|e| e.phi == 0.0));
    }

    #[test]
    fn masked_slots_contribute_exact_zero() {
        // A partially filled grid: the branchless (masked) kernels must
        // produce finite values everywhere and exact zeros for cells
        // with no present pairs.
        let s = Stencil::octotiger();
        let n = N_SUB as isize;
        let grid = gather_moments(s.width(), |i, j, k| {
            if (0..n).contains(&i) && (0..n).contains(&j) && (0..n).contains(&k) && (i + j + k) % 2 == 0 {
                Some(Multipole::monopole(1.0, Vec3::new(i as f64, j as f64, k as f64)))
            } else {
                None
            }
        });
        for res in [
            monopole_kernel(&grid, s.offsets()),
            multipole_kernel(&grid, s.offsets()),
            monopole_kernel_stencil(&grid, &s),
            multipole_kernel_stencil(&grid, &s),
        ] {
            assert!(res.expansions.iter().all(|e| e.phi.is_finite()
                && e.dphi.norm().is_finite()
                && e.force.norm().is_finite()));
        }
    }

    /// Splitmix64 — deterministic pseudo-random doubles in [-1, 1).
    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
    }

    /// A random moment grid: jittered centres, irregular masses and
    /// quadrupoles, ~1/8 of slots absent (mask = 0).
    fn random_grid(width: i32, seed: u64) -> MomentGrid {
        let mut state = seed;
        let mut grid = MomentGrid::new(width);
        let w = width as isize;
        let n = N_SUB as isize;
        for i in -w..n + w {
            for j in -w..n + w {
                for k in -w..n + w {
                    let m = 1.0 + 0.5 * splitmix(&mut state);
                    let com = Vec3::new(
                        i as f64 + 0.2 * splitmix(&mut state),
                        j as f64 + 0.2 * splitmix(&mut state),
                        k as f64 + 0.2 * splitmix(&mut state),
                    );
                    let q = std::array::from_fn(|_| 0.05 * splitmix(&mut state));
                    let absent = splitmix(&mut state) < -0.75;
                    if !absent {
                        grid.set(i, j, k, &Multipole { m, com, q });
                    }
                }
            }
        }
        grid
    }

    fn assert_expansion_bits(a: &LocalExpansion, b: &LocalExpansion, what: &str) {
        assert_eq!(a.phi.to_bits(), b.phi.to_bits(), "{what}: phi");
        for ax in 0..3 {
            assert_eq!(a.dphi[ax].to_bits(), b.dphi[ax].to_bits(), "{what}: dphi");
            assert_eq!(a.force[ax].to_bits(), b.force[ax].to_bits(), "{what}: force");
            assert_eq!(a.f_corr[ax].to_bits(), b.f_corr[ax].to_bits(), "{what}: f_corr");
            assert_eq!(a.torque[ax].to_bits(), b.torque[ax].to_bits(), "{what}: torque");
        }
        for nn in 0..6 {
            assert_eq!(a.d2phi[nn].to_bits(), b.d2phi[nn].to_bits(), "{what}: d2phi");
        }
    }

    /// The per-width contract: every kernel family at `W = 4` must
    /// match the same pair body at `W = 1`, driven one (cell, offset)
    /// pair at a time in scalar loop order, bit-for-bit on random masked
    /// grids.
    #[test]
    fn four_lane_kernels_match_one_lane_bit_for_bit() {
        let s = Stencil::octotiger();
        for seed in [0x5eed_0001u64, 0x5eed_0002] {
            let grid = random_grid(s.width(), seed);

            // W = 1 references. Monopole: the monopole body itself.
            // Multipole: the public pairwise API, fed what the SoA body
            // feeds the lanes (weighted source moments, softened r²).
            type Pair<'a> = &'a dyn Fn(usize, usize, &mut LocalExpansion);
            let mono: Pair = &|t, s_idx, e| {
                MonopolePairs::accum::<1>(&grid, t, s_idx, 1, std::slice::from_mut(e));
            };
            let multi: Pair = &|t, s_idx, e| {
                let w = grid.mask[t] * grid.mask[s_idx];
                let at = |n: usize, scale: f64| Multipole {
                    m: grid.m[n] * scale,
                    com: Vec3::new(grid.comx[n], grid.comy[n], grid.comz[n]),
                    q: std::array::from_fn(|c| grid.q[c][n] * scale),
                };
                let (tgt, src) = (at(t, 1.0), at(s_idx, w));
                e.accumulate_softened(&tgt, &src, tgt.com - src.com, 1.0 - w);
            };
            let one_lane_offset = |pair: Pair| {
                let mut out = vec![LocalExpansion::default(); N_CELLS];
                for &(dx, dy, dz) in s.offsets() {
                    for c in 0..N_CELLS {
                        let (i, j, k) = interior_coords(c);
                        let s_idx = grid.idx(i + dx as isize, j + dy as isize, k + dz as isize);
                        pair(grid.idx(i, j, k), s_idx, &mut out[c]);
                    }
                }
                out
            };
            let one_lane_stencil = |pair: Pair| {
                let mut out = vec![LocalExpansion::default(); N_CELLS];
                for c in 0..N_CELLS {
                    let (i, j, k) = interior_coords(c);
                    for &(dx, dy, dz) in s.for_parity(parity_of(i, j, k)) {
                        let s_idx = grid.idx(i + dx as isize, j + dy as isize, k + dz as isize);
                        pair(grid.idx(i, j, k), s_idx, &mut out[c]);
                    }
                }
                out
            };

            for (what, four, one) in [
                (
                    "monopole offsets",
                    monopole_kernel(&grid, s.offsets()).expansions,
                    one_lane_offset(mono),
                ),
                (
                    "multipole offsets",
                    multipole_kernel(&grid, s.offsets()).expansions,
                    one_lane_offset(multi),
                ),
                (
                    "monopole stencil",
                    monopole_kernel_stencil(&grid, &s).expansions,
                    one_lane_stencil(mono),
                ),
                (
                    "multipole stencil",
                    multipole_kernel_stencil(&grid, &s).expansions,
                    one_lane_stencil(multi),
                ),
            ] {
                assert_eq!(four.len(), one.len());
                for (a, b) in four.iter().zip(one.iter()) {
                    assert_expansion_bits(a, b, &format!("{what} (seed {seed:#x})"));
                }
            }
        }
    }

    /// Concatenating row-aligned slab ranges reproduces the full kernel
    /// exactly, and the per-slab interaction counts sum to the full
    /// count.
    #[test]
    fn range_kernels_concatenate_to_full() {
        let s = Stencil::octotiger();
        let grid = random_grid(s.width(), 0xc0ffee);
        let full_off = multipole_kernel(&grid, s.offsets());
        let full_sten = multipole_kernel_stencil(&grid, &s);
        let full_mono = monopole_kernel(&grid, s.offsets());
        for chunk in [8usize, 24, 64, N_CELLS] {
            let mut cat_off = Vec::new();
            let mut cat_sten = Vec::new();
            let mut cat_mono = Vec::new();
            let (mut i_off, mut i_sten, mut i_mono) = (0u64, 0u64, 0u64);
            let mut start = 0;
            while start < N_CELLS {
                let end = (start + chunk).min(N_CELLS);
                let mut buf = Vec::new();
                i_off += multipole_kernel_range_into(&grid, s.offsets(), start, end, &mut buf);
                cat_off.extend_from_slice(&buf);
                i_sten += multipole_kernel_stencil_range_into(&grid, &s, start, end, &mut buf);
                cat_sten.extend_from_slice(&buf);
                i_mono += monopole_kernel_range_into(&grid, s.offsets(), start, end, &mut buf);
                cat_mono.extend_from_slice(&buf);
                start = end;
            }
            assert_eq!(i_off, full_off.interactions, "chunk {chunk}");
            assert_eq!(i_sten, full_sten.interactions, "chunk {chunk}");
            assert_eq!(i_mono, full_mono.interactions, "chunk {chunk}");
            for (cat, full, what) in [
                (&cat_off, &full_off.expansions, "offsets"),
                (&cat_sten, &full_sten.expansions, "stencil"),
                (&cat_mono, &full_mono.expansions, "monopole"),
            ] {
                assert_eq!(cat.len(), full.len());
                for (a, b) in cat.iter().zip(full.iter()) {
                    assert_expansion_bits(a, b, &format!("{what} chunk {chunk}"));
                }
            }
        }
    }

    /// There is no scalar tail: a slab that is not whole rows is a
    /// caller bug, not a slow path.
    #[test]
    #[should_panic(expected = "not whole 8-cell rows")]
    fn unaligned_slab_is_rejected() {
        let s = Stencil::octotiger();
        let grid = lattice(s.width());
        monopole_kernel_stencil_range_into(&grid, &s, 8, 21, &mut Vec::new());
    }

    #[test]
    fn range_kernels_reuse_buffers_and_match() {
        let s = Stencil::octotiger();
        let grid = lattice(s.width());
        let fresh = monopole_kernel_stencil(&grid, &s);
        // A dirty, reused buffer must give identical results.
        let mut buf = vec![
            LocalExpansion {
                phi: 99.0,
                ..LocalExpansion::default()
            };
            7
        ];
        let cap_marker = {
            buf.reserve(600);
            buf.capacity()
        };
        let interactions = monopole_kernel_stencil_range_into(&grid, &s, 0, N_CELLS, &mut buf);
        assert_eq!(interactions, fresh.interactions);
        assert_eq!(buf.capacity(), cap_marker, "no reallocation on reuse");
        for (a, b) in buf.iter().zip(fresh.expansions.iter()) {
            assert_eq!(a.phi.to_bits(), b.phi.to_bits());
            for ax in 0..3 {
                assert_eq!(a.force[ax].to_bits(), b.force[ax].to_bits());
            }
        }
    }
}
