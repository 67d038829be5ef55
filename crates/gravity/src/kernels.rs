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
//! Two kernels, as in the paper, and one pair body: `PairTerms::of`
//! is the only pair arithmetic here, and the paper's kernel variants are
//! its four `const` instantiations `{QUAD} × {HESS}` (does the pair
//! carry a quadrupole × is the target's Hessian read):
//! * [`monopole_kernel`] — **leaf targets**, `HESS = false`: a leaf's
//!   expansion is never translated, so its Hessian is never read and
//!   never computed. On leaf–leaf pairs (`QUAD = false`) this is the
//!   monopole–monopole kernel, cells as point masses, 12
//!   flops/interaction; where a source carries a quadrupole — a refined
//!   neighbour's cells — the same launch takes `QUAD = true`.
//! * [`multipole_kernel`] — **refined targets**, `HESS = true`: the
//!   combined multipole–multipole / multipole–monopole kernel (455
//!   flops/interaction at `QUAD = true`), full M2L with quadrupoles and
//!   the conservation corrections.
//!
//! The pair body is **branchless**: instead of testing whether a
//! slot holds data (which defeats vectorization, exactly the
//! branch-divergence problem GPU kernels predicate away), each slot
//! carries a `mask` weight of 1.0/0.0 and every contribution is
//! multiplied by `mask[t] · mask[s]`. Absent slots hold `m = 0` and a
//! softened separation (`r² += 1 − w`) keeps the 1/r tensors finite, so
//! a masked-out pair inside an evaluated lane group is weighted out by
//! its lane: it contributes exact (signed) zeros. Multiplication by 1.0
//! is exact in IEEE arithmetic, so present pairs are bit-identical to
//! the branchy formulation. The same pair weights, summed, are the
//! interaction counters.
//!
//! **Which instantiation a pair gets.** `HESS` is the caller's, per
//! node: which of the two kernels it launches. Everything else is
//! decided per *lane group* (four targets against four sources) from the
//! slots' own flags — `PRESENT`, `QUAD` (`!is_monopole()`) and `LATTICE`
//! (a lattice point mass: a leaf's P2M cell or a coarse cell's split
//! share, which only the solver's gather knows and records):
//! * a group whose four source slots are all absent is **skipped**: all
//!   its weights are zero, so it would add `±0.0` to every accumulator
//!   and nothing to the interaction count;
//! * on a leaf launch with its level's lattice table (the solver's;
//!   `tensors` module docs), a group whose eight slots are all lattice
//!   point masses or absent is a **lattice group**: `B0` and `B1` come
//!   from the table row of the offset — no divide, no square root, no
//!   centre read — and the body is `PairTerms::of::<false, false>` on
//!   them, §4.3's 12 flops;
//! * otherwise, in `accum_group`: a group with no quadrupole on any of
//!   its eight slots takes `QUAD = false` — the same source with `B3`,
//!   both `q:B3` contractions, `f_qs`, `f_qt`, the torque and the twelve
//!   `q` gathers compiled out — and one with a quadrupole `QUAD = true`;
//!   with a table, the group's lattice–lattice lanes take `B0` / `B1`
//!   from it by `select`, so a lattice pair has the table's rounding
//!   whichever group it falls in.
//!
//! Every one of these choices but the table is **bit-neutral by
//! construction**, and the table is applied to every lattice–lattice
//! pair a leaf evaluates, so a pair has one rounding whichever node,
//! kernel or lane group evaluates it, and a monopole pair's two forces
//! are bit-for-bit opposite across any leaf / refined or flagged /
//! unflagged boundary (the table's rows are: `B1(−o) = −B1(o)`). For
//! `QUAD` and the skip: every dropped term is an exact signed zero (zero
//! moments times finite tensors, summed from `+0.0`); an accumulator that
//! starts at `+0.0` can never hold `−0.0` (round-to-nearest yields `−0.0`
//! only from `−0.0 + −0.0`), and adding `±0.0` to anything but `−0.0` is
//! the identity — which is also why a lane with an absent side may take
//! the table's tensors or the softened ones alike. For `HESS`: `d2phi`
//! feeds no other field, and an unread field cannot move a bit. The
//! unselective loop — always `<true, true>`, nothing skipped, the table
//! applied pair by pair — survives as the `W = 1` oracle of this
//! module's tests.
//!
//! **One body, two widths.** The pair arithmetic is written once over
//! the lane type [`util::simd::Lanes`] (the "Merging Frameworks"
//! follow-up's SIMD types, arXiv:2210.06439, which get their kernel
//! variants by compile-time specialisation of one body and their ISA at
//! compile time — here `.cargo/config.toml`): these kernels instantiate
//! it at `W = 4`, the pairwise API
//! ([`LocalExpansion::accumulate_softened`]) at `W = 1`. Lanes map to
//! *target cells* — four k-adjacent cells for the offset kernels, the
//! four same-parity stride-2 cells of a row for the parity-stencil
//! kernels.
//!
//! **Target-major sums.** Both kernel loops walk target lane groups
//! outermost (`target_group`): the group's side of every pair — mask,
//! mass, centre, second moments, quadrupole flag — is gathered once, its
//! φ, ∇φ, Hessian, force, `f_corr` and torque run as lane-wide sums
//! (`GroupSums`) across the group's whole offset list, and each cell is
//! stored once. This is §4.3's reason for the stencil/SoA form — the
//! target's Taylor coefficients stay in vector registers while the
//! stencil streams past. A cell's sums start at `+0.0` and take its
//! pairs through the one accumulation sequence (`GroupSums::add`),
//! lane-wise, so they are the bits of the one-pair-at-a-time order (see
//! DESIGN.md "One work item per sub-grid & SIMD"). The order is the
//! offset list's, except on a leaf launch with a lattice table whose
//! target group is lattice point masses (every leaf's): there the list is walked twice — the
//! lattice groups first, in list order, in a loop of its own that keeps
//! only the seven sums they touch (`lattice_walk`), then the offsets it
//! deferred, in list order, through `accum_group`. A cell's order is its
//! lattice pairs, then the rest; the `W = 1` oracle adds them in that
//! order too.
//!
//! **Whole sub-grids.** A launch covers all 512 cells of a sub-grid, as
//! the paper's do (one launch per sub-grid, §4.3), in the interior
//! linear order (`(i·8 + j)·8 + k`, k fastest); a row is two full lane
//! groups, so there is no scalar tail. The two loops, `offset_into` and
//! `parity_into`, write into a caller's buffer — the solver's pooled
//! ones — and the public kernels below are those loops into a fresh one.

use crate::expansion::{GroupSums, LocalExpansion, PairTerms};
use crate::multipole::Multipole;
use crate::stencil::Stencil;
use crate::tensors::{KernelTensors, LatticeRow};
use octree::subgrid::N_SUB;
use std::cell::RefCell;
use util::simd::Lanes;
use util::vec3::Vec3;

/// Number of interior cells in a sub-grid (`N_SUB³`).
pub const N_CELLS: usize = N_SUB * N_SUB * N_SUB;

/// Struct-of-arrays moment storage over an extended grid of
/// `(N_SUB + 2·width)³` cells (interior + stencil halo).
///
/// The columns are private because they must agree slot by slot — the
/// flags with `q` and with where the slot came from, `mask` with the
/// rest — and the kernels pick a lane group's arithmetic from the flags
/// alone: [`MomentGrid::set`], [`MomentGrid::reset`] and the solver's box
/// gather (through `put`) are the only writers.
pub struct MomentGrid {
    width: i32,
    dim: usize,
    m: Vec<f64>,
    comx: Vec<f64>,
    comy: Vec<f64>,
    comz: Vec<f64>,
    q: [Vec<f64>; 6],
    /// Branchless predication weight: 1.0 where source data exists,
    /// 0.0 elsewhere (outside the domain or where no neighbor provides
    /// data). Kernels multiply contributions by this instead of
    /// branching.
    mask: Vec<f64>,
    /// Per slot, its [`PRESENT`], [`LATTICE`] and [`QUAD`] bits; zero on
    /// absent slots. Eight bytes longer than the grid, so the flags of a
    /// lane group are one word load ([`MomentGrid::group_flags`]).
    flags: Vec<u8>,
    /// Every slot outside `±filled` cells around the interior is absent
    /// (`-1`: every slot is), so [`MomentGrid::reset`] clears that box
    /// only.
    filled: i32,
}

/// Slot flag: the slot holds data (its `mask` is 1.0).
const PRESENT: u8 = 1;
/// Slot flag: the slot is a lattice point mass — a leaf's P2M cell or a
/// coarse cell's split share, at its cell centre — as the solver's gather
/// knows from the block it came from. Never set by [`MomentGrid::set`].
const LATTICE: u8 = 2;
/// Slot flag: the slot carries second moments (`!is_monopole()`).
const QUAD: u8 = 4;

/// `bits` in the byte of each of `W` lanes `stride` bytes apart — the
/// layout of [`MomentGrid::group_flags`].
#[inline(always)]
fn lane_bits<const W: usize>(bits: u8, stride: usize) -> u64 {
    (0..W).fold(0, |word, l| word | (bits as u64) << (8 * l * stride))
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
            flags: vec![0; n + 8],
            filled: -1,
        }
    }

    /// Halo width.
    pub fn width(&self) -> i32 {
        self.width
    }

    /// Zero every slot, restoring the state of a freshly built grid
    /// without reallocating — the scratch-pool reuse path. Only the box
    /// the last user filled is cleared: the rest is absent already.
    pub fn reset(&mut self) {
        if self.filled < 0 {
            return;
        }
        let (lo, hi) = (-(self.filled as isize), (N_SUB as i32 + self.filled) as isize);
        for i in lo..hi {
            for j in lo..hi {
                let row = self.idx(i, j, lo)..self.idx(i, j, hi - 1) + 1;
                let columns = [&mut self.m, &mut self.comx, &mut self.comy, &mut self.comz];
                for c in columns.into_iter().chain([&mut self.mask]).chain(&mut self.q) {
                    c[row.clone()].fill(0.0);
                }
                self.flags[row].fill(0);
            }
        }
        self.filled = -1;
    }

    /// [`MomentGrid::reset`], then admit writes out to `reach` cells
    /// around the interior — the solver's gather, which `put`s nothing
    /// farther out.
    pub(crate) fn reset_to(&mut self, reach: i32) {
        assert!((0..=self.width).contains(&reach), "reach {reach} outside the grid");
        self.reset();
        self.filled = reach;
    }

    /// Flattened index of extended coordinates in
    /// `[-width, N_SUB + width)` — all three of them: a `j` or `k` past
    /// the edge would land on a slot of a neighbouring row.
    #[inline]
    pub fn idx(&self, i: isize, j: isize, k: isize) -> usize {
        let w = self.width as isize;
        debug_assert!(
            [i, j, k].iter().all(|x| (-w..N_SUB as isize + w).contains(x)),
            "({i}, {j}, {k}) outside the width-{w} grid"
        );
        (((i + w) as usize * self.dim) + (j + w) as usize) * self.dim + (k + w) as usize
    }

    /// The slot `offset` cells away from slot `n`.
    #[inline(always)]
    fn shifted(&self, n: usize, (dx, dy, dz): (i32, i32, i32)) -> usize {
        debug_assert!(dx.abs().max(dy.abs()).max(dz.abs()) <= self.width);
        let dim = self.dim as isize;
        (n as isize + (dx as isize * dim + dy as isize) * dim + dz as isize) as usize
    }

    /// Install a cell's moments (not a lattice point mass: only the
    /// solver's gather knows that of a slot).
    pub fn set(&mut self, i: isize, j: isize, k: isize, mp: &Multipole) {
        self.filled = self.width;
        self.put(self.idx(i, j, k), mp, false);
    }

    /// Install `mp` at slot `n`, a lattice point mass (a monopole) or
    /// not; the slot must lie inside the box [`MomentGrid::reset_to`]
    /// admitted, which is all [`MomentGrid::reset`] clears.
    #[inline(always)]
    pub(crate) fn put(&mut self, n: usize, mp: &Multipole, lattice: bool) {
        let quad = !mp.is_monopole();
        debug_assert!(!(lattice && quad), "a lattice point mass has no second moments");
        debug_assert!(
            self.filled >= 0 && {
                let (d, lo) = (self.dim, (self.width - self.filled) as usize);
                [n / (d * d), n / d % d, n % d].iter().all(|&x| (lo..d - lo).contains(&x))
            },
            "slot {n} outside the box reset_to admitted"
        );
        self.m[n] = mp.m;
        self.comx[n] = mp.com.x;
        self.comy[n] = mp.com.y;
        self.comz[n] = mp.com.z;
        for c in 0..6 {
            self.q[c][n] = mp.q[c];
        }
        self.mask[n] = 1.0;
        self.flags[n] = PRESENT | if lattice { LATTICE } else { 0 } | if quad { QUAD } else { 0 };
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

    /// The flags of the `W` slots `n0 + l·stride`, lane `l`'s in byte
    /// `l·stride` of one word — one load for the group
    /// (`(W − 1)·stride < 8`).
    #[inline(always)]
    fn group_flags<const W: usize>(&self, n0: usize, stride: usize) -> GroupFlags {
        debug_assert!((W - 1) * stride < 8);
        let bytes = self.flags[n0..n0 + 8].try_into().expect("a slice of eight bytes");
        let word = u64::from_le_bytes(bytes) & lane_bits::<W>(PRESENT | LATTICE | QUAD, stride);
        GroupFlags { word, stride }
    }
}

/// The slot flags of a lane group ([`MomentGrid::group_flags`]).
#[derive(Clone, Copy)]
struct GroupFlags {
    word: u64,
    stride: usize,
}

impl GroupFlags {
    #[inline(always)]
    fn lanes<const W: usize>(self, bits: u8) -> u64 {
        self.word & lane_bits::<W>(bits, self.stride)
    }

    /// No slot holds data.
    #[inline(always)]
    fn absent<const W: usize>(self) -> bool {
        self.lanes::<W>(PRESENT) == 0
    }

    /// Some slot carries a quadrupole.
    #[inline(always)]
    fn quad<const W: usize>(self) -> bool {
        self.lanes::<W>(QUAD) != 0
    }

    /// Every slot is absent or a lattice point mass.
    #[inline(always)]
    fn absent_or_lattice<const W: usize>(self) -> bool {
        self.lanes::<W>(PRESENT) & !(self.word >> 1) == 0
    }

    /// The lanes where both `self`'s and `other`'s slot have all of
    /// `bits`, and how many.
    #[inline(always)]
    fn both<const W: usize>(self, other: GroupFlags, bits: u8) -> ([bool; W], u64) {
        let both = self.lanes::<W>(bits) & other.lanes::<W>(bits);
        let lane = |l: usize| both >> (8 * l * self.stride) & bits as u64 == bits as u64;
        (std::array::from_fn(lane), (0..W).filter(|&l| lane(l)).count() as u64)
    }
}

#[cfg(test)]
impl MomentGrid {
    /// Require every column and flag of every slot to hold `other`'s
    /// bits.
    pub(crate) fn assert_same_bits(&self, other: &MomentGrid, what: &str) {
        assert_eq!(self.width, other.width, "{what}: width");
        fn columns(g: &MomentGrid) -> Vec<&Vec<f64>> {
            [&g.m, &g.comx, &g.comy, &g.comz, &g.mask].into_iter().chain(&g.q).collect()
        }
        for (c, (a, b)) in columns(self).iter().zip(columns(other).iter()).enumerate() {
            for n in 0..a.len() {
                assert_eq!(a[n].to_bits(), b[n].to_bits(), "{what}: column {c}, slot {n}");
            }
        }
        assert_eq!(self.flags, other.flags, "{what}: flags");
    }

    /// Whether slot `n` is a lattice point mass / carries a quadrupole.
    fn is(&self, n: usize, bit: u8) -> bool {
        self.flags[n] & bit != 0
    }
}

/// The target side of a lane group — slots `t0 + l·stride` — gathered
/// once for the group's whole offset list.
struct Targets<const W: usize> {
    stride: usize,
    mask: Lanes<W>,
    m: Lanes<W>,
    com: [Lanes<W>; 3],
    q: [Lanes<W>; 6],
    /// Their flags: on a refined node they carry quadrupoles, and then
    /// the source flags are never read for `QUAD`.
    flags: GroupFlags,
}

impl<const W: usize> Targets<W> {
    #[inline(always)]
    fn gather(grid: &MomentGrid, t0: usize, stride: usize) -> Targets<W> {
        let at = |f: &[f64]| Lanes::gather(f, t0, stride);
        Targets {
            stride,
            mask: at(&grid.mask),
            m: at(&grid.m),
            com: [at(&grid.comx), at(&grid.comy), at(&grid.comz)],
            q: std::array::from_fn(|c| at(&grid.q[c])),
            flags: grid.group_flags::<W>(t0, stride),
        }
    }
}

/// Result of one kernel launch: per-interior-cell expansions plus the
/// interaction count (for the performance counters of §6.1).
pub struct KernelResult {
    pub expansions: Vec<LocalExpansion>,
    pub interactions: u64,
}

/// What a kernel launch did with the (target, source) pairs of its
/// sub-grid.
/// `counted ≤ evaluated`, the gap being pairs weighted out by their lane
/// inside a group that had to run; whole groups of absent sources are in
/// neither. A timing divided by `counted` hides both that gap and which
/// body ran — these are the counters that show them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PairCounts {
    /// Pairs with both slots present: the interaction count.
    pub counted: u64,
    /// Pairs whose arithmetic ran (four per lane group not skipped).
    pub evaluated: u64,
    /// Of `evaluated`, pairs at `QUAD = true` (the 455-flop body on a
    /// refined target). The rest took `QUAD = false`.
    pub full_body: u64,
    /// Of `evaluated`, pairs whose `B0` / `B1` came from the lattice
    /// table, not from a divide and a square root: every pair of a
    /// group in the lattice walk, and the lattice–lattice lanes of a
    /// deferred one. On a leaf these are the 12-flop monopole kernel.
    pub lattice: u64,
}

impl std::ops::AddAssign for PairCounts {
    fn add_assign(&mut self, rhs: PairCounts) {
        self.counted += rhs.counted;
        self.evaluated += rhs.evaluated;
        self.full_body += rhs.full_body;
        self.lattice += rhs.lattice;
    }
}

/// Flattened interior-cell linear index `(i·8 + j)·8 + k` (k fastest) —
/// the order of every kernel's output.
#[inline]
pub fn interior_index(i: isize, j: isize, k: isize) -> usize {
    ((i * N_SUB as isize + j) * N_SUB as isize + k) as usize
}

/// Lane width of the SoA kernels: half a row, so a row is two lane
/// groups both as k-adjacent halves and as same-parity stride-2 cells.
const LANES: usize = 4;
const _: () = assert!(N_SUB == 2 * LANES);

/// Decompose an interior linear index `(i·8 + j)·8 + k` into `(i, j, k)`.
#[inline]
fn interior_coords(c: usize) -> (isize, isize, isize) {
    let n = N_SUB;
    ((c / (n * n)) as isize, ((c / n) % n) as isize, (c % n) as isize)
}

/// The interaction ([`PairTerms::of`]) of `W` pairs — lane `l` is target
/// `l` of `tgt` against source slot `s0 + l·stride` — branchless: the
/// pair weight `w = mask[t]·mask[s]` scales the source moments (every
/// accumulated term is linear in them) and `1 − w` softens `r²`, so the
/// tensors stay finite on masked slots. `QUAD` and `HESS` are the
/// body's; `QUAD = false` never reads a `q` column and is only for
/// groups whose eight slots have none set. Where `lattice` is given, its
/// lanes take `B0` / `B1` from its row. Adds the pairs to `sums` and
/// returns the weights.
#[inline(always)]
fn pairs<const W: usize, const QUAD: bool, const HESS: bool>(
    grid: &MomentGrid,
    tgt: &Targets<W>,
    s0: usize,
    lattice: Option<([bool; W], &LatticeRow)>,
    sums: &mut GroupSums<W>,
) -> Lanes<W> {
    let src = |f: &[f64]| Lanes::gather(f, s0, tgt.stride);
    let w = tgt.mask * src(&grid.mask);
    let d = [
        tgt.com[0] - src(&grid.comx),
        tgt.com[1] - src(&grid.comy),
        tgt.com[2] - src(&grid.comz),
    ];
    let mut qs = [Lanes::splat(0.0); 6];
    if QUAD {
        for c in 0..6 {
            qs[c] = src(&grid.q[c]) * w;
        }
    }
    let mut t = KernelTensors::at_softened::<QUAD, HESS>(d, Lanes::splat(1.0) - w);
    if let Some((lanes, row)) = lattice {
        t = t.with_lattice(lanes, row);
    }
    sums.add(&PairTerms::of::<QUAD, HESS>(tgt.m, src(&grid.m) * w, &tgt.q, &qs, d, &t));
    w
}

/// Running totals of one kernel loop; see [`PairCounts`].
struct Tally {
    /// Summed pair weights, lane by lane, of the groups [`pairs`] ran.
    weights: Lanes<LANES>,
    /// Pairs with both slots present in the lattice walk's groups.
    present: u64,
    evaluated: u64,
    full_body: u64,
    lattice: u64,
}

impl Tally {
    fn new() -> Tally {
        Tally { weights: Lanes::splat(0.0), present: 0, evaluated: 0, full_body: 0, lattice: 0 }
    }

    fn counts(&self) -> PairCounts {
        PairCounts {
            // Every weight is 1.0 or 0.0, so the sum is the exact count.
            counted: self.weights.0.iter().sum::<f64>() as u64 + self.present,
            evaluated: self.evaluated,
            full_body: self.full_body,
            lattice: self.lattice,
        }
    }
}

/// One lane group against one offset through the computed tensors — the
/// one place a group's `QUAD` is picked (module docs). With a lattice
/// `row`, its lattice–lattice lanes take `B0` / `B1` from it.
#[inline(always)]
fn accum_group<const HESS: bool>(
    grid: &MomentGrid,
    tgt: &Targets<LANES>,
    s0: usize,
    row: Option<&LatticeRow>,
    sums: &mut GroupSums<LANES>,
    tally: &mut Tally,
) {
    let src = grid.group_flags::<LANES>(s0, tgt.stride);
    if src.absent::<LANES>() {
        return;
    }
    tally.evaluated += LANES as u64;
    let lattice = row.map(|row| {
        let (lanes, n) = tgt.flags.both::<LANES>(src, LATTICE);
        tally.lattice += n;
        (lanes, row)
    });
    tally.weights += if tgt.flags.quad::<LANES>() || src.quad::<LANES>() {
        tally.full_body += LANES as u64;
        pairs::<LANES, true, HESS>(grid, tgt, s0, lattice, sums)
    } else {
        pairs::<LANES, false, HESS>(grid, tgt, s0, lattice, sums)
    };
}

/// One target lane group — slots `t0 + l·stride`, cells `out[l·stride]`
/// — against its whole offset list, target-major: the target side is
/// gathered once, the sums run in [`GroupSums`] from `+0.0`, and each
/// cell is stored once.
///
/// Without `rows` the sums take the list in order through
/// [`accum_group`]. With the lattice rows of a leaf launch
/// (`HESS = false`, on the leaf's own cells: lattice point masses),
/// aligned with `offsets`, the list is walked twice: first in the
/// lattice loop ([`lattice_walk`]), then the offsets it deferred, in
/// list order, through [`accum_group`]. Kept apart — the lattice loop a
/// function of its own — it holds its seven sums in registers; the
/// general body beside it would spill them. The deferred offsets go to
/// a buffer per thread, grown to the longest list it has run, so a
/// steady-state launch allocates nothing.
#[inline(always)]
fn target_group<const HESS: bool>(
    grid: &MomentGrid,
    t0: usize,
    stride: usize,
    offsets: &[(i32, i32, i32)],
    rows: Option<&[LatticeRow]>,
    out: &mut [LocalExpansion],
    tally: &mut Tally,
) {
    thread_local! {
        static DEFERRED: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }
    let tgt = Targets::gather(grid, t0, stride);
    let sums = match rows {
        Some(rows) => DEFERRED.with_borrow_mut(|deferred| {
            debug_assert!(!HESS && tgt.flags.absent_or_lattice::<LANES>(), "not a leaf's targets");
            if deferred.len() < offsets.len() {
                deferred.resize(offsets.len(), 0);
            }
            let (mut sums, n) = match stride {
                1 => lattice_walk::<1>(grid, &tgt, t0, offsets, rows, deferred, tally),
                _ => lattice_walk::<2>(grid, &tgt, t0, offsets, rows, deferred, tally),
            };
            for &n in &deferred[..n] {
                let s0 = grid.shifted(t0, offsets[n]);
                accum_group::<false>(grid, &tgt, s0, Some(&rows[n]), &mut sums, tally);
            }
            sums
        }),
        None => {
            let mut sums = GroupSums::load([LocalExpansion::default(); LANES]);
            for &offset in offsets {
                accum_group::<HESS>(grid, &tgt, grid.shifted(t0, offset), None, &mut sums, tally);
            }
            sums
        }
    };
    for l in 0..LANES {
        out[l * stride] = sums.lane(l);
    }
}

/// The first walk of [`target_group`], for lane groups `STRIDE` slots
/// apart: the group's sums from `+0.0` over its list in order, one test
/// of the four source slots' flags per offset — all absent: skipped; all
/// lattice point masses or absent: the 12-flop body on the offset's
/// lattice row; else its index goes to `deferred`. Returns the sums and
/// how many were deferred.
#[inline(never)]
fn lattice_walk<const STRIDE: usize>(
    grid: &MomentGrid,
    tgt: &Targets<LANES>,
    t0: usize,
    offsets: &[(i32, i32, i32)],
    rows: &[LatticeRow],
    deferred: &mut [usize],
    tally: &mut Tally,
) -> (GroupSums<LANES>, usize) {
    debug_assert!(tgt.stride == STRIDE && rows.len() == offsets.len());
    let mut sums = GroupSums::load([LocalExpansion::default(); LANES]);
    let targets_present = tgt.flags.lanes::<LANES>(PRESENT);
    let zero = Lanes::splat(0.0);
    let (mut groups, mut present, mut n_deferred) = (0, 0, 0);
    for (n, (&offset, row)) in offsets.iter().zip(rows).enumerate() {
        let s0 = grid.shifted(t0, offset);
        let src = grid.group_flags::<LANES>(s0, STRIDE);
        if src.absent::<LANES>() {
            continue;
        }
        if src.absent_or_lattice::<LANES>() {
            groups += 1;
            // One bit a lane, one lane a byte: the byte sum is the count.
            present += (src.word & targets_present).wrapping_mul(0x0101_0101_0101_0101) >> 56;
            // The body, `PairTerms::of::<false, false>` on the row's
            // `B0` / `B1`, reads only `m` of the sources, weighted by the
            // targets' mask alone: an absent source has `m = +0.0`, which
            // the pair weight could only multiply into `+0.0` again, so
            // these are the bits `pairs` would feed it.
            let ms = Lanes::gather(&grid.m, s0, STRIDE) * tgt.mask;
            let (b0, b1) = (Lanes::splat(row.b0), row.b1.map(Lanes::splat));
            let t = KernelTensors { b0, b1, b2: [zero; 6], b3: [zero; 10] };
            sums.add(&PairTerms::of::<false, false>(tgt.m, ms, &tgt.q, &[zero; 6], [zero; 3], &t));
        } else {
            deferred[n_deferred] = n;
            n_deferred += 1;
        }
    }
    tally.present += present;
    tally.evaluated += groups * LANES as u64;
    tally.lattice += groups * LANES as u64;
    (sums, n_deferred)
}

/// Apply `offsets` to every cell of the sub-grid: lane groups are four
/// k-adjacent targets, contiguous in both the extended grid (k fastest)
/// and `out`. A leaf launch (`HESS = false`) with the lattice `rows` of
/// `offsets` at the grid's level takes the lattice walk
/// ([`target_group`]) — the solver's; the public kernels pass none, and
/// every pair computes its tensors.
pub(crate) fn offset_into<const HESS: bool>(
    grid: &MomentGrid,
    offsets: &[(i32, i32, i32)],
    rows: Option<&[LatticeRow]>,
    out: &mut Vec<LocalExpansion>,
) -> PairCounts {
    // One expansion per cell, keeping a reused buffer's capacity: every
    // cell is overwritten whole.
    out.resize(N_CELLS, LocalExpansion::default());
    let mut tally = Tally::new();
    for c in (0..N_CELLS).step_by(LANES) {
        let (i, j, k) = interior_coords(c);
        let out = &mut out[c..];
        target_group::<HESS>(grid, grid.idx(i, j, k), 1, offsets, rows, out, &mut tally);
    }
    tally.counts()
}

/// Parity-exact same-level pass over the sub-grid: each cell uses the
/// offset list of its parity (and, with `rows`, that list's lattice rows;
/// see [`offset_into`]), so every pair is owned by exactly one level of
/// the tree walk. k parity alternates along a row, so a row is two lane
/// groups of four same-parity stride-2 cells sharing an offset list — the
/// even-k cells, then the odd-k cells.
pub(crate) fn parity_into<const HESS: bool>(
    grid: &MomentGrid,
    stencil: &Stencil,
    rows: Option<&[Vec<LatticeRow>; 8]>,
    out: &mut Vec<LocalExpansion>,
) -> PairCounts {
    out.resize(N_CELLS, LocalExpansion::default());
    let mut tally = Tally::new();
    for row in (0..N_CELLS).step_by(N_SUB) {
        let (i, j, _) = interior_coords(row);
        for k0 in 0..2isize {
            let parity = parity_of(i, j, k0);
            let offsets = stencil.for_parity(parity);
            let rows = rows.map(|rows| rows[parity as usize].as_slice());
            let out = &mut out[row + k0 as usize..];
            target_group::<HESS>(grid, grid.idx(i, j, k0), 2, offsets, rows, out, &mut tally);
        }
    }
    tally.counts()
}

/// Parity of a cell: `(i&1) | ((j&1)<<1) | ((k&1)<<2)`.
#[inline]
fn parity_of(i: isize, j: isize, k: isize) -> u8 {
    ((i & 1) | ((j & 1) << 1) | ((k & 1) << 2)) as u8
}

/// A whole-sub-grid launch into a fresh buffer.
fn full_launch(into: impl FnOnce(&mut Vec<LocalExpansion>) -> PairCounts) -> KernelResult {
    let mut expansions = Vec::new();
    let interactions = into(&mut expansions).counted;
    KernelResult { expansions, interactions }
}

/// The kernel for a leaf's cells (`HESS = false`; on leaf/leaf node
/// pairs the monopole–monopole kernel) applying `offsets` to every
/// interior cell: `expansions[c]` is cell `c`'s, in the interior linear
/// order, its `d2phi` `+0.0`. Every pair computes its tensors: the
/// lattice walk is the solver's.
pub fn monopole_kernel(grid: &MomentGrid, offsets: &[(i32, i32, i32)]) -> KernelResult {
    full_launch(|out| offset_into::<false>(grid, offsets, None, out))
}

/// The kernel for a refined node's cells (`HESS = true`) — the combined
/// multipole kernel, full M2L with quadrupoles and conservation
/// corrections; layout as [`monopole_kernel`].
pub fn multipole_kernel(grid: &MomentGrid, offsets: &[(i32, i32, i32)]) -> KernelResult {
    full_launch(|out| offset_into::<true>(grid, offsets, None, out))
}

/// Parity-exact same-level kernel for a leaf's cells: each cell uses the
/// offset list of its parity. Layout as [`monopole_kernel`].
pub fn monopole_kernel_stencil(grid: &MomentGrid, stencil: &Stencil) -> KernelResult {
    full_launch(|out| parity_into::<false>(grid, stencil, None, out))
}

/// Parity-exact same-level kernel for a refined node's cells; see
/// [`monopole_kernel_stencil`].
pub fn multipole_kernel_stencil(grid: &MomentGrid, stencil: &Stencil) -> KernelResult {
    full_launch(|out| parity_into::<true>(grid, stencil, None, out))
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
    gather_moments_into(&mut grid, width, lookup);
    grid
}

/// [`gather_moments`] into an existing (e.g. pooled) grid, out to
/// `reach` cells around the node — as far as the offsets the caller will
/// apply go. The grid is reset first, so the result is identical to a
/// freshly built one whose slots beyond `reach` are absent.
pub fn gather_moments_into(
    grid: &mut MomentGrid,
    reach: i32,
    lookup: impl Fn(isize, isize, isize) -> Option<Multipole>,
) {
    assert!((0..=grid.width()).contains(&reach), "reach {reach} outside the grid");
    grid.reset();
    let w = reach as isize;
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
        // Irregular masses for a nontrivial test.
        let grid = closed_lattice(|i, j, k, c| {
            Multipole::monopole(1.0 + ((i * 7 + j * 3 + k) % 5) as f64 * 0.25, c)
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
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// How [`random_grid`] lays the slot classes out.
    #[derive(Debug, Clone, Copy)]
    enum Layout {
        /// Every slot draws its own class: lane groups are mixed, a
        /// uniform group of four is rare.
        Scattered,
        /// Every aligned cube of this edge draws one class — the shape a
        /// domain wall (absent), a leaf neighbour (monopole) or a refined
        /// neighbour (quadrupole) makes. Edge 8 is whole nodes.
        Boxes(isize),
        /// What the solver's gather places around a leaf: whole nodes,
        /// the leaf itself and its leaf or coarse-split neighbours as
        /// lattice point masses at cell centres `(x + ½)·H − ½` with
        /// their rounding, refined neighbours as quadrupoles off the
        /// lattice — a fifth of their cells monopoles off the lattice
        /// (a refined cell whose mass sits in one child, a quarter cell
        /// from its centre) — and domain walls absent.
        Placed,
    }

    /// The cell width of [`Layout::Placed`] grids: no power of two, so a
    /// difference of two rounded centres is not `offset · H`.
    const H: f64 = 0.1;

    /// A random moment grid: irregular masses and, but for
    /// [`Layout::Placed`], jittered centres and three slot classes —
    /// absent (mask = 0), monopole, quadrupole — in the given layout.
    fn random_grid(width: i32, seed: u64, layout: Layout) -> MomentGrid {
        let mut state = seed;
        let mut grid = MomentGrid::new(width);
        grid.reset_to(width);
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
                    let own = splitmix(&mut state);
                    let cube = |edge: isize| {
                        let b = |x: isize| x.div_euclid(edge).rem_euclid(8) as u64;
                        splitmix(&mut (seed ^ ((b(i) << 6 | b(j) << 3 | b(k)) + 1) << 32))
                    };
                    let class = match layout {
                        Layout::Scattered => own,
                        Layout::Boxes(edge) => cube(edge),
                        // The targets: the leaf's own cells.
                        Layout::Placed if [i, j, k].iter().all(|x| (0..n).contains(x)) => -0.25,
                        Layout::Placed => cube(n),
                    };
                    // A quarter absent, three eighths each of the rest.
                    if class < -0.5 {
                        continue;
                    }
                    if let Layout::Placed = layout {
                        let cell = Vec3::new(i as f64, j as f64, k as f64);
                        let centre = Vec3::from_array(cell.to_array().map(|x| (x + 0.5) * H - 0.5));
                        let (mp, lattice) = if class < 0.25 {
                            (Multipole::monopole(m, centre), true)
                        } else if own < -0.6 {
                            let side = [q[0], q[1], q[2]].map(f64::signum);
                            let child = Vec3::from_array(side) * (0.25 * H);
                            (Multipole::monopole(m, centre + child), false)
                        } else {
                            (Multipole { m, com: centre + (com - cell) * H, q }, false)
                        };
                        let n = grid.idx(i, j, k);
                        grid.put(n, &mp, lattice);
                        continue;
                    }
                    let q = if class < 0.25 { [0.0; 6] } else { q };
                    grid.set(i, j, k, &Multipole { m, com, q });
                }
            }
        }
        grid
    }

    /// Which offsets a kernel family applies: one list to every cell at
    /// stride 1 (the solver's root and near-field lists, and the
    /// stencil's union for the kernel rungs), or the stencil's list of
    /// each cell's parity at stride 2.
    #[derive(Clone, Copy)]
    enum Offsets<'a> {
        List(&'static str, &'a [(i32, i32, i32)]),
        Parity(&'a Stencil),
    }

    /// The unselective oracle of all four kernel families: every (cell,
    /// offset) pair of the sub-grid, one at a time at `W = 1`, **nothing
    /// skipped and always the full body** — `PairTerms::of::<true, true>`
    /// on `KernelTensors::at_softened`, fed what the SoA body feeds its
    /// lanes (weighted source moments, softened r²).
    ///
    /// With a lattice cell width `h` (the leaf launches of a solver, whose
    /// targets are lattice point masses) it applies the lattice rule too:
    /// a pair of two lattice point masses takes `B0` / `B1` from
    /// `LatticeRow::rows(list, h)`, and a lane group takes first, in list
    /// order, the offsets at which its four sources are all absent or
    /// lattice (not all absent), then the rest in list order. Without it
    /// every cell takes its offsets in list order.
    ///
    /// Beside the expansions it returns the [`PairCounts`] the selective
    /// kernels must report, worked out per lane group from the columns
    /// (not from the `quad` flags), the number of pairs it evaluated
    /// itself, and how many pairs were in lattice-walk groups.
    fn oracle(
        grid: &MomentGrid,
        which: Offsets,
        h: Option<f64>,
    ) -> (Vec<LocalExpansion>, PairCounts, u64, u64) {
        let pair = |t: usize, s_idx: usize, row: Option<&LatticeRow>, e: &mut LocalExpansion| {
            let w = grid.mask[t] * grid.mask[s_idx];
            let at = |n: usize, scale: f64| Multipole {
                m: grid.m[n] * scale,
                com: Vec3::new(grid.comx[n], grid.comy[n], grid.comz[n]),
                q: std::array::from_fn(|c| grid.q[c][n] * scale),
            };
            let (tgt, src) = (at(t, 1.0), at(s_idx, w));
            let one = |x: f64| Lanes([x]);
            let d = (tgt.com - src.com).to_array().map(one);
            let mut tensors = KernelTensors::at_softened::<true, true>(d, one(1.0 - w));
            if let Some(row) = row.filter(|_| grid.is(t, LATTICE) && grid.is(s_idx, LATTICE)) {
                tensors = tensors.with_lattice([true], row);
            }
            let (mt, ms) = (one(tgt.m), one(src.m));
            let terms =
                PairTerms::of::<true, true>(mt, ms, &tgt.q.map(one), &src.q.map(one), d, &tensors);
            let mut sums = GroupSums::load([*e]);
            sums.add(&terms);
            *e = sums.lane(0);
        };
        let has_quad = |n: usize| (0..6).any(|c| grid.q[c][n] != 0.0);
        let plain = |n: usize| grid.mask[n] == 0.0 || grid.is(n, LATTICE);
        let mut out = vec![LocalExpansion::default(); N_CELLS];
        let mut counts = PairCounts::default();
        let (mut all_pairs, mut lean_pairs) = (0, 0);
        let by_parity = matches!(which, Offsets::Parity(_));
        let (stride, group_step) = if by_parity { (2, 1) } else { (1, LANES as isize) };
        for row in (0..N_CELLS).step_by(N_SUB) {
            let (i, j, _) = interior_coords(row);
            for g in 0..2isize {
                let k0 = g * group_step;
                let offsets = match which {
                    Offsets::List(_, list) => list,
                    Offsets::Parity(s) => s.for_parity(parity_of(i, j, k0)),
                };
                let rows = h.map(|h| LatticeRow::rows(offsets, h));
                let lanes = |(dx, dy, dz): (i32, i32, i32)| -> [(usize, usize, usize); LANES] {
                    std::array::from_fn(|l| {
                        let k = k0 + l as isize * stride;
                        (
                            interior_index(i, j, k),
                            grid.idx(i, j, k),
                            grid.idx(i + dx as isize, j + dy as isize, k + dz as isize),
                        )
                    })
                };
                let lean = |n: usize| {
                    let lanes = lanes(offsets[n]);
                    rows.is_some()
                        && lanes.iter().all(|&(_, _, s)| plain(s))
                        && lanes.iter().any(|&(_, _, s)| grid.mask[s] != 0.0)
                };
                let all = 0..offsets.len();
                let order = all.clone().filter(|&n| lean(n)).chain(all.filter(|&n| !lean(n)));
                for n in order {
                    let lanes = lanes(offsets[n]);
                    let row = rows.as_ref().map(|rows| &rows[n]);
                    all_pairs += LANES as u64;
                    for &(c, t, s_idx) in &lanes {
                        pair(t, s_idx, row, &mut out[c]);
                        counts.counted += (grid.mask[t] * grid.mask[s_idx]) as u64;
                    }
                    if lanes.iter().any(|&(_, _, s_idx)| grid.mask[s_idx] != 0.0) {
                        counts.evaluated += LANES as u64;
                        if lanes.iter().any(|&(_, t, s)| has_quad(t) || has_quad(s)) {
                            counts.full_body += LANES as u64;
                        }
                        if lean(n) {
                            lean_pairs += LANES as u64;
                            counts.lattice += LANES as u64;
                        } else if row.is_some() {
                            let both = |&&(_, t, s): &&(usize, usize, usize)| {
                                grid.is(t, LATTICE) && grid.is(s, LATTICE)
                            };
                            counts.lattice += lanes.iter().filter(both).count() as u64;
                        }
                    }
                }
            }
        }
        (out, counts, all_pairs, lean_pairs)
    }

    /// The share of an oracle's pairs that the selective kernel skipped
    /// (absent lane groups), ran at `QUAD = false`, and ran at
    /// `QUAD = true`; and of those, how many took `B0` / `B1` from the
    /// lattice table in the lattice walk and in the deferred one.
    struct Coverage {
        skipped: u64,
        reduced: u64,
        full: u64,
        lean: u64,
        deferred_lattice: u64,
    }

    impl Coverage {
        /// All three lane-group classes occurred — or the test calling
        /// this does not reach the paths it is named for.
        fn assert_all_three(&self, what: &str) {
            assert!(self.skipped > 0, "{what}: no lane group was skipped");
            assert!(self.reduced > 0, "{what}: no lane group took the reduced form");
            assert!(self.full > 0, "{what}: no lane group took the full body");
        }

        /// Both walks took lattice pairs: some groups ran in the lattice
        /// walk, some deferred groups selected table values for a lane.
        fn assert_both_walks(&self, what: &str) {
            assert!(self.lean > 0, "{what}: no group took the lattice walk");
            assert!(self.deferred_lattice > 0, "{what}: no deferred lane took a table value");
        }
    }

    /// Run the `W = 4` kernel families over `grid` — both `HESS` forms of
    /// the parity stencil and of the offset kernel on the stencil's union,
    /// on the near-field list and, where the grid is wide enough for it,
    /// on the root list — and require each to match the [`oracle`] bit
    /// for bit: counters, and every field the family writes (all of them
    /// for the refined-target kernels, all but a `d2phi` left at exactly
    /// `[0.0; 6]` for the leaf-target ones). With a lattice cell width
    /// `h` the leaf-target families are the solver's, with the lattice
    /// rows of each list at `h`, against the oracle's lattice rule.
    /// Returns each family's [`Coverage`].
    fn assert_kernels_match_oracle(grid: &MomentGrid, what: &str, h: Option<f64>) -> Vec<Coverage> {
        let s = Stencil::octotiger();
        let (near, root) = (Stencil::near_field(0.5), Stencil::root_offsets(0.5));
        let mut families = vec![
            Offsets::List("offsets", s.offsets()),
            Offsets::Parity(&s),
            Offsets::List("near field", &near),
        ];
        if grid.width() >= N_SUB as i32 - 1 {
            families.push(Offsets::List("root", &root));
        }
        let mut buf = Vec::new();
        let mut coverage = Vec::new();
        for which in families {
            for leaf in [true, false] {
                let h = h.filter(|_| leaf);
                let (one, expect, all_pairs, lean) = oracle(grid, which, h);
                let buf = &mut buf;
                let (counts, list) = match (leaf, which, h) {
                    (true, Offsets::List(name, list), None) => {
                        (offset_into::<false>(grid, list, None, buf), name)
                    }
                    (true, Offsets::List(name, list), Some(h)) => {
                        let rows = LatticeRow::rows(list, h);
                        (offset_into::<false>(grid, list, Some(&rows), buf), name)
                    }
                    (false, Offsets::List(name, list), _) => {
                        (offset_into::<true>(grid, list, None, buf), name)
                    }
                    (true, Offsets::Parity(s), None) => {
                        (parity_into::<false>(grid, s, None, buf), "stencil")
                    }
                    (true, Offsets::Parity(s), Some(h)) => {
                        let rows = std::array::from_fn(|p| LatticeRow::rows(s.for_parity(p as u8), h));
                        (parity_into::<false>(grid, s, Some(&rows), buf), "stencil")
                    }
                    (false, Offsets::Parity(s), _) => {
                        (parity_into::<true>(grid, s, None, buf), "stencil")
                    }
                };
                let what =
                    format!("{what}: {} {list}", if leaf { "monopole" } else { "multipole" });
                assert_eq!(counts, expect, "{what}: pair counts");
                assert_eq!(buf.len(), one.len());
                for (a, b) in buf.iter().zip(one.iter()) {
                    if leaf {
                        a.assert_same_bits_without_hessian(b, &what);
                    } else {
                        a.assert_same_bits(b, &what);
                    }
                }
                coverage.push(Coverage {
                    skipped: all_pairs - counts.evaluated,
                    reduced: counts.evaluated - counts.full_body,
                    full: counts.full_body,
                    lean,
                    deferred_lattice: counts.lattice - lean,
                });
            }
        }
        coverage
    }

    /// The per-width, per-instantiation contract: every kernel family at
    /// `W = 4` — skipping absent lane groups, taking `QUAD = false`
    /// where a group has no quadrupole, `HESS = false` on leaf targets,
    /// and on a leaf's placed grid the lattice table and the two walks —
    /// must match the full body at `W = 1` driven one (cell, offset) pair
    /// at a time with nothing skipped, bit-for-bit, on grids of absent /
    /// monopole / quadrupole slots laid out scattered and in boxes, and
    /// on placed grids of lattice point masses, refined cells and
    /// off-lattice monopoles, at stride 1 (offset kernels) and stride 2
    /// (parity stencils). The grids of the root's width (`N_SUB − 1`) add
    /// its 3 282-entry list.
    #[test]
    fn four_lane_kernels_match_one_lane_bit_for_bit() {
        let width = Stencil::octotiger().width();
        let root_width = N_SUB as i32 - 1;
        // Whole-node boxes come in the two shapes a solve has: the
        // targets are a leaf's (all three lane-group classes occur) or a
        // refined node's (every target group carries a quadrupole, so
        // none takes the reduced form).
        for (width, seed, layout, refined_targets) in [
            (width, 0x5eed_0001u64, Layout::Scattered, false),
            (root_width, 0x5eed_0002, Layout::Scattered, false),
            (width, 0x5eed_0003, Layout::Boxes(4), false),
            (root_width, 0x5eed_0004, Layout::Boxes(4), false),
            (width, 0x5eed_0008, Layout::Boxes(8), false),
            (width, 0x5eed_0005, Layout::Boxes(8), true),
            (width, 0x5eed_0009, Layout::Placed, false),
            (root_width, 0x5eed_000a, Layout::Placed, false),
        ] {
            let grid = random_grid(width, seed, layout);
            let what = format!("seed {seed:#x} {layout:?}");
            let h = matches!(layout, Layout::Placed).then_some(H);
            for (n, c) in assert_kernels_match_oracle(&grid, &what, h).iter().enumerate() {
                if refined_targets {
                    assert!(c.skipped > 0 && c.full > 0 && c.reduced == 0, "{what}");
                } else {
                    c.assert_all_three(&what);
                }
                // Families alternate leaf, refined targets.
                if h.is_some() && n % 2 == 0 {
                    c.assert_both_walks(&what);
                }
            }
        }
    }

    /// One pair through the SoA body at `W = 1`, from a fresh expansion.
    fn one_pair<const QUAD: bool, const HESS: bool>(
        g: &MomentGrid,
        t: usize,
        s: usize,
    ) -> LocalExpansion {
        let mut sums = GroupSums::load([LocalExpansion::default()]);
        pairs::<1, QUAD, HESS>(g, &Targets::gather(g, t, 1), s, None, &mut sums);
        sums.lane(0)
    }

    /// A lattice of unit-spaced point masses with a closed halo, where
    /// `moments(i, j, k)` makes each interior cell's multipole from its
    /// centre.
    fn closed_lattice(moments: impl Fn(isize, isize, isize, Vec3) -> Multipole) -> MomentGrid {
        let n = N_SUB as isize;
        gather_moments(Stencil::octotiger().width(), |i, j, k| {
            let inside = (0..n).contains(&i) && (0..n).contains(&j) && (0..n).contains(&k);
            inside.then(|| moments(i, j, k, Vec3::new(i as f64, j as f64, k as f64)))
        })
    }

    /// `0 · −u = −0.0`: a present source of zero mass contributes
    /// negative zeros to φ, which must leave every accumulator as the
    /// full body leaves it.
    #[test]
    fn zero_mass_sources_add_signed_zeros_and_change_nothing() {
        let grid = closed_lattice(|i, j, k, c| {
            let m = if (i + j + k) % 3 == 0 { 0.0 } else { 1.0 + 0.25 * ((i * 5 + k) % 4) as f64 };
            let q = if i < 3 { [0.02, 0.01, 0.03, 0.0, -0.01, 0.004] } else { [0.0; 6] };
            Multipole { m, com: c, q }
        });
        let (t, s_idx) = (grid.idx(7, 7, 7), grid.idx(6, 6, 0));
        assert_eq!(grid.m[s_idx], 0.0);
        let e = one_pair::<false, false>(&grid, t, s_idx);
        assert_eq!(e.phi.to_bits(), 0.0f64.to_bits(), "+0.0 + −0.0 is +0.0");
        for c in assert_kernels_match_oracle(&grid, "zero-mass sources", None) {
            c.assert_all_three("zero-mass sources");
        }
    }

    /// A fresh accumulator whose every contribution is a signed zero —
    /// the first one `−0.0` — ends as `+0.0`, whichever form ran and
    /// whether or not the group was skipped.
    #[test]
    fn a_first_contribution_of_negative_zero_stays_positive_zero() {
        let grid = closed_lattice(|_, _, _, c| Multipole::monopole(0.0, c));
        assert_kernels_match_oracle(&grid, "all-zero masses", None);
        let s = Stencil::octotiger();
        for res in [monopole_kernel_stencil(&grid, &s), multipole_kernel_stencil(&grid, &s)] {
            assert!(res.interactions > 0);
            for e in &res.expansions {
                e.assert_same_bits(&LocalExpansion::default(), "all-zero masses");
            }
        }
    }

    /// `is_monopole` is true for `−0.0` second moments, so such slots
    /// take the reduced form, while the oracle multiplies the `−0.0`s
    /// through `B2` and `B3`: same bits.
    #[test]
    fn negative_zero_quadrupoles_take_the_reduced_form() {
        let grid = closed_lattice(|i, j, k, c| Multipole {
            m: 1.0 + 0.125 * ((i + 3 * j + 5 * k) % 7) as f64,
            com: c + Vec3::new(0.1, -0.05, 0.02) * ((i + k) % 3) as f64,
            q: if j >= 6 { [0.03, 0.02, 0.01, -0.004, 0.0, 0.002] } else { [-0.0; 6] },
        });
        let (n_zero, n_quad) = (grid.idx(0, 0, 0), grid.idx(0, 6, 0));
        assert!(grid.q[0][n_zero].is_sign_negative() && !grid.is(n_zero, QUAD) && grid.is(n_quad, QUAD));
        for c in assert_kernels_match_oracle(&grid, "−0.0 quadrupoles", None) {
            c.assert_all_three("−0.0 quadrupoles");
        }
    }

    /// An absent slot sits at the origin, where cell (0, 0, 0) of the
    /// lattice has its centre too: the pair has `d = 0` and is finite
    /// only by the softening. In a lane group that runs it is weighted
    /// out; in a group of absent sources it is never evaluated; the
    /// oracle evaluates it every time.
    #[test]
    fn a_masked_slot_coincident_with_its_target_changes_nothing() {
        let grid = closed_lattice(|i, _, _, c| Multipole {
            m: 2.0,
            com: c,
            q: if i == 0 { [0.01; 6] } else { [0.0; 6] },
        });
        assert_eq!(grid.get(0, 0, 0).unwrap().com, Vec3::ZERO);
        for c in assert_kernels_match_oracle(&grid, "coincident masked slot", None) {
            c.assert_all_three("coincident masked slot");
        }
    }

    /// One pair, one rounding: a monopole–monopole pair's two forces are
    /// bit-for-bit opposite whichever instantiations evaluate its two
    /// sides — `<false, false>` on an unflagged leaf against what a
    /// flagged neighbour (`<true, false>`), a refined node's reduced
    /// group (`<false, true>`) or its full body with zero quadrupoles
    /// (`<true, true>`) runs. Until PR 23 the monopole kernel was a
    /// second hand-written arithmetic and this test pinned a ≤ 4 ulp
    /// residual, hence its name, which the test-floor list keeps.
    #[test]
    fn cross_body_monopole_pair_cancels_to_ulps_not_bits() {
        fn force<const QUAD: bool, const HESS: bool>(g: &MomentGrid, t: usize, s: usize) -> Vec3 {
            one_pair::<QUAD, HESS>(g, t, s).force
        }
        let grid = random_grid(1, 0xb0d1e5, Layout::Scattered);
        let mut checked = 0;
        for t in 0..grid.m.len() - 1 {
            let s_idx = t + 1;
            if grid.mask[t] * grid.mask[s_idx] == 0.0 || grid.is(t, QUAD) || grid.is(s_idx, QUAD) {
                continue;
            }
            let leaf = force::<false, false>(&grid, t, s_idx);
            for (back, what) in [
                (force::<false, false>(&grid, s_idx, t), "<false, false>"),
                (force::<true, false>(&grid, s_idx, t), "<true, false>"),
                (force::<false, true>(&grid, s_idx, t), "<false, true>"),
                (force::<true, true>(&grid, s_idx, t), "<true, true>"),
            ] {
                for ax in 0..3 {
                    assert_ne!(leaf[ax], 0.0);
                    assert_eq!(leaf[ax].to_bits(), (-back[ax]).to_bits(), "{what}, slot {t}");
                    assert_eq!(leaf[ax] + back[ax], 0.0, "{what}, slot {t}");
                }
            }
            checked += 1;
        }
        assert!(checked > 50, "only {checked} pairs");

        // The lane-group form, through the kernels: offset (0, 0, 2) on
        // leaf targets one way, (0, 0, −2) on refined targets back, so a
        // cell holds exactly one pair. Rows with a quadrupole at k = 5
        // flag the group (0..4 → 2..6) one way while its mirror
        // (0..4 → −2..2) stays unflagged; the other rows are unflagged
        // both ways.
        let grid = closed_lattice(|i, j, k, c| Multipole {
            m: 1.0 + 0.125 * ((i + 3 * j + 5 * k) % 7) as f64,
            com: c + Vec3::new(0.1, -0.05, 0.02) * ((i + k) % 3) as f64,
            q: if k == 5 && j % 2 == 0 { [0.03, 0.02, 0.01, -0.004, 0.0, 0.002] } else { [0.0; 6] },
        });
        let (mut there, mut back) = (Vec::new(), Vec::new());
        let n_there = offset_into::<false>(&grid, &[(0, 0, 2)], None, &mut there);
        let n_back = offset_into::<true>(&grid, &[(0, 0, -2)], None, &mut back);
        assert_eq!(n_there.counted, n_back.counted);
        // Even-j rows: both groups flagged one way, one of two back.
        assert_eq!(n_there.full_body * 2, n_there.evaluated);
        assert_eq!(n_back.full_body * 4, n_back.evaluated);
        let n = N_SUB as isize;
        let mut across = 0;
        for c in 0..N_CELLS {
            let (i, j, k) = interior_coords(c);
            if k + 2 >= n || grid.is(grid.idx(i, j, k), QUAD) || grid.is(grid.idx(i, j, k + 2), QUAD) {
                continue;
            }
            let (a, b) = (there[c].force, back[c + 2].force);
            for ax in 0..3 {
                assert_eq!(a[ax].to_bits(), (-b[ax]).to_bits(), "cell ({i}, {j}, {k})");
            }
            // Pairs 0 → 2 and 1 → 3 of an even-j row cross the flag.
            across += (j % 2 == 0 && k < 2) as u32;
        }
        assert_eq!(across, 2 * 4 * 8);

        // A lattice pair, once in the lattice walk and once deferred: a
        // leaf's cells as lattice point masses at rounded centres, with a
        // refined neighbour's quadrupole, off the lattice, in the halo at
        // k = 8 of even-j rows, through the leaf kernels with lattice
        // rows both ways. On an even-j row, 4 → 6 and 5 → 7 run in the
        // deferred group (4..8 → 6..10, which reaches the quadrupole) and
        // take the table by lane; their mirrors (4..8 → 2..6) run in the
        // lattice walk.
        let mut grid = MomentGrid::new(Stencil::octotiger().width());
        grid.reset_to(1);
        for c in 0..N_CELLS {
            let (i, j, k) = interior_coords(c);
            let centre = |k| Vec3::from_array([i, j, k].map(|x| (x as f64 + 0.5) * H - 0.5));
            let m = 1.0 + 0.125 * ((i + 3 * j + 5 * k) % 7) as f64;
            grid.put(grid.idx(i, j, k), &Multipole::monopole(m, centre(k)), true);
            if k == 0 && j % 2 == 0 {
                let com = centre(8) + Vec3::new(0.01, -0.005, 0.002);
                let q = [0.03, 0.02, 0.01, -0.004, 0.0, 0.002];
                grid.put(grid.idx(i, j, 8), &Multipole { m, com, q }, false);
            }
        }
        let (fwd, rev) = ([(0, 0, 2)], [(0, 0, -2)]);
        let (rows_fwd, rows_rev) = (LatticeRow::rows(&fwd, H), LatticeRow::rows(&rev, H));
        let n_there = offset_into::<false>(&grid, &fwd, Some(&rows_fwd), &mut there);
        let n_back = offset_into::<false>(&grid, &rev, Some(&rows_rev), &mut back);
        // Forward adds 6 → 8 on the 32 even-j rows, which has no mirror.
        assert_eq!(n_there.counted, n_back.counted + 32);
        // 32 even-j rows, 32 odd ones. Forward, an even-j row's second
        // group takes the full body (lattice lanes 4 → 6 and 5 → 7) and
        // every other group is a lattice group; backward, every group is.
        assert_eq!((n_there.full_body, n_back.full_body), (32 * 4, 0));
        assert_eq!((n_there.lattice, n_back.lattice), (32 * (4 + 2) + 32 * 8, 64 * 8));
        let mut across = 0;
        for c in 0..N_CELLS {
            let (i, j, k) = interior_coords(c);
            if k + 2 >= n {
                continue;
            }
            // Along z: the x and y parts are zeros, of either sign.
            let (a, b) = (there[c].force.z, back[c + 2].force.z);
            assert_ne!(a, 0.0);
            assert_eq!(a.to_bits(), (-b).to_bits(), "lattice cell ({i}, {j}, {k})");
            across += (j % 2 == 0 && k >= 4) as u32;
        }
        assert_eq!(across, 2 * 4 * 8);

        // The table is `at_softened` at the exact lattice separation
        // `−o·h` (to 2 ulp), and mirror-exact.
        let ulps = |a: f64, b: f64| (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs();
        let s = Stencil::octotiger();
        for h in [H, 1.0, 6.1e11] {
            let rows = LatticeRow::rows(s.offsets(), h);
            let mirrored: Vec<_> = s.offsets().iter().map(|&(x, y, z)| (-x, -y, -z)).collect();
            let mirror = LatticeRow::rows(&mirrored, h);
            for ((&(x, y, z), row), back) in s.offsets().iter().zip(&rows).zip(&mirror) {
                let d = [x, y, z].map(|o| -(o as f64) * h);
                let t = KernelTensors::at(Vec3::from_array(d));
                assert!(ulps(row.b0, t.b0.lane(0)) <= 2, "B0 at ({x}, {y}, {z}), h = {h}");
                assert_eq!(row.b0.to_bits(), back.b0.to_bits());
                for a in 0..3 {
                    assert!(ulps(row.b1[a], t.b1[a].lane(0)) <= 2, "B1 at ({x}, {y}, {z}), h = {h}");
                    if row.b1[a] != 0.0 {
                        assert_eq!(row.b1[a].to_bits(), (-back.b1[a]).to_bits());
                    }
                }
            }
        }
    }

    /// A `j` or `k` off the grid is caught, not read from a slot of a
    /// neighbouring row (debug builds: `idx` is on the kernels' path).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "outside the width-2 grid")]
    fn moment_grid_idx_checks_every_coordinate() {
        MomentGrid::new(2).idx(0, 0, N_SUB as isize + 2);
    }

    /// The solver's loops reuse a dirty pooled buffer without
    /// reallocating, and write what a fresh launch does.
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
        let counts = parity_into::<false>(&grid, &s, None, &mut buf);
        assert_eq!(counts.counted, fresh.interactions);
        assert_eq!(buf.capacity(), cap_marker, "no reallocation on reuse");
        for (a, b) in buf.iter().zip(fresh.expansions.iter()) {
            assert_eq!(a.phi.to_bits(), b.phi.to_bits());
            for ax in 0..3 {
                assert_eq!(a.force[ax].to_bits(), b.force[ax].to_bits());
            }
        }
    }
}
