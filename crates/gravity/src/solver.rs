//! The full FMM tree walk over an AMR octree (§4.3's three steps).
//!
//! 1. **Up**: per-cell multipole moments at every level — leaf cells are
//!    point masses (`m = ρ V` at the cell centre, locally homogeneous
//!    density), refined nodes aggregate 2×2×2 child cells by M2M. The
//!    [`MomentMap`] keeps a leaf's cell masses alone, since the rest of
//!    its cells' moments is a function of the key, and its readers
//!    rebuild the monopoles as P2M evaluates them ([`NodeMoments`]).
//! 2. **Same-level**: every node runs the stencil kernels over its own
//!    cells plus the gathered neighbor halo; leaves additionally run the
//!    near-field pass (offsets inside the opening criterion).
//! 3. **Down**: each refined node sums, once, its per-cell *totals* —
//!    its own same-level expansions plus what it inherited, and the
//!    force-correction ledger — and each child translates (L2L) what it
//!    needs from its parent's totals and takes its mass share of the
//!    ledger. The field holds φ, g and the force density alone: the
//!    angular-momentum closure is the driver's, which deposits the
//!    counter-torque of the force it applies into the spin fields
//!    (`hydro::angmom::body_force_spin`).
//!
//! Neighbor gathering across refinement jumps: when a same-level
//! neighbor node does not exist (the region is one level coarser, by
//! 2:1 balance), its cells are synthesized by splitting the coarse
//! cell's mass into equal monopoles at the fine sub-cell centres. This
//! keeps interactions complete; the reaction on the coarse side is
//! carried at the coarse level, so conservation across AMR interfaces
//! is approximate (round-off level on uniform grids, truncation level
//! at refinement jumps — measured in EXPERIMENTS.md). The gather works
//! by blocks — the node and the neighbours its reach touches resolved
//! once, each block's box copied or split as a whole (`FmmSolver::gather_into`) —
//! and it records which slots are **lattice point masses**: a leaf's
//! cells and the coarse splits are, a refined node's M2M cells are not.
//!
//! **Which instantiation a pair gets.** There is one pair arithmetic
//! (`PairTerms::of`) and the solver decides one thing about it per
//! node: a leaf launches the `HESS = false` kernels — `assemble_leaf`
//! never reads a Hessian, so none is computed — with its level's
//! lattice table (`tensors::LatticeRow`, built at the start of each
//! solve for every level a leaf is on), and a refined node, whose
//! children translate its expansions, the `HESS = true` ones without a
//! table. Everything finer
//! is the kernels' business and is decided per lane group from the
//! grid's own flags (`kernels` module docs): groups of absent sources
//! are skipped, a leaf's groups of lattice point masses take `B0` /
//! `B1` from the table in a loop of their own, and only groups that hold
//! a quadrupole take a quadrupole form, and only for the side that has
//! one (`QS` for the sources, `QT` for the targets) — on a leaf next to
//! a refined node that is the lane groups that reach into it, at
//! `QS = true` only, not all 512 × (651 + 92) pairs. A lattice pair takes the table's values in
//! whichever group it falls, and nothing else moves a bit, so a pair is
//! rounded the same whichever node evaluates it. What they came to is on
//! the field: [`GravityField::interactions`] (pairs counted),
//! [`GravityField::pairs_evaluated`], [`GravityField::pairs_full_body`]
//! and [`GravityField::pairs_lattice`], published as `fmm/pairs/*`
//! beside `fmm/interactions/*`, identical between the serial and the
//! futurized walk.
//!
//! **Futurization** (§4.1): [`FmmSolver::solve_parallel`] runs the same
//! walk as a task graph on the [`amt`] runtime: the moment pass (P2M
//! over the leaves, then M2M per level, bottom-up), then one dataflow
//! graph per solve with no barrier inside it. There is one futurized
//! walk: it takes the leaves to solve for
//! ([`FmmSolver::solve_restricted_parallel`]), and the whole-tree entry
//! points pass all of them.
//! Every per-node computation is the *same function* the serial path
//! calls, and per-node results are merged into maps by key (never by
//! arrival order), so the parallel field is bit-identical to the serial
//! one at any thread count — the invariant `fmm_parallel_matches_serial`
//! pins down. Scratch buffers come from the solver's [`ScratchPool`].
//!
//! **One work item per sub-grid** (DESIGN.md "One work item per
//! sub-grid & SIMD"): the solve launches per node what the paper
//! launches per sub-grid (§4.3, §5.1). A node's item
//! (`FmmSolver::node_item`) leases a moment grid from the
//! [`ScratchPool`] and gathers the node's halo into it, runs the node's
//! same-level kernel over all 512 cells and, on a leaf, the near-field
//! kernel, adds the near-field result cell by cell, and returns the
//! grid. The graph has three kinds of task:
//!
//! * a **refined node's item**, started when the solve starts;
//! * a **refined node's downward step**, one `then` task once its item
//!   and its parent's step are done: it sums the node's totals
//!   (`downward_node`), shares them with its children and hands its
//!   item's output buffer back to the pool;
//! * a **target leaf's item**, one `then` task on its parent's step
//!   (`FmmSolver::leaf_item`): the node item, then the leaf's cells
//!   assembled from its expansions and what it translates from its
//!   parent's totals (`assemble_leaf`). It returns the leaf's cells and
//!   gives its buffers back; a leaf under a parent that finishes early
//!   runs while other refined items still run.
//!
//! So only refined nodes hold an expansion buffer across tasks, and a
//! parent's totals live until its last child has read them: at most one
//! buffer per refined node plus two per running item are live, which
//! is what the pool is warmed with and all steady-state solves take. An
//! item is its task. Results merge by node key, so the field is the
//! serial walk's at any worker count. A solver with a [`GpuContext`]
//! runs this same graph, then hands the solve's items to the context for
//! a virtual-time replay of the §5.1 launch policy
//! ([`GpuContext::replay`]), which prices where each would have run and
//! never touches the field.

use crate::expansion::LocalExpansion;
use crate::gpu::{AggregationConfig, GpuContext, KernelKind, HIST_LABELS};
use crate::kernels::{interior_index, offset_into, parity_into, MomentGrid, PairCounts, N_CELLS};
use crate::multipole::Multipole;
use crate::scratch::ScratchPool;
use crate::stencil::Stencil;
use crate::tensors::LatticeRow;
use amt::trace::{self, TraceCategory};
use amt::{when_all, Future, Promise, Runtime, Scheduler};
use octree::geometry::Domain;
use octree::subgrid::{Field, N_SUB};
use octree::tree::Octree;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use util::morton::MortonKey;
use util::vec3::Vec3;

/// Per-cell moments of every node, keyed by node. Values are `Arc`ed so
/// per-level snapshots taken by the parallel moment pass are O(nodes)
/// pointer bumps, not deep copies.
pub type MomentMap = HashMap<MortonKey, Arc<NodeMoments>>;

/// Each leaf's 512 cell masses, keyed by leaf: what P2M produces
/// ([`p2m_parallel`]), what the distributed moment exchange carries and
/// what [`m2m_parallel`] completes into a [`MomentMap`].
pub type LeafMasses = HashMap<MortonKey, Vec<f64>>;

/// The per-cell moments of one node, in interior order.
#[derive(Debug, Clone)]
pub enum NodeMoments {
    /// A leaf: each cell's mass alone. A leaf cell's moment is a
    /// monopole at the cell's centre (locally homogeneous density), a
    /// function of the key but for the mass, so it is rebuilt where it
    /// is read ([`NodeMoments::cells`]), as P2M evaluates it.
    Leaf(Vec<f64>),
    /// A refined node: its cells' multipoles, built by M2M.
    Refined(Vec<Multipole>),
}

impl NodeMoments {
    /// Cell `ci`'s mass.
    fn mass(&self, ci: usize) -> f64 {
        match self {
            NodeMoments::Leaf(masses) => masses[ci],
            NodeMoments::Refined(cells) => cells[ci].m,
        }
    }

    /// The multipole of cell `(i, j, k)`, for these moments of node
    /// `key` in `domain`: a refined node's stored one, a leaf cell's
    /// `Multipole::monopole(m, domain.cell_center(key, i, j, k))` — the
    /// expression P2M evaluates, so bit for bit what a stored leaf
    /// multipole would be.
    pub fn cells<'a>(
        &'a self,
        domain: &Domain,
        key: MortonKey,
    ) -> impl Fn(isize, isize, isize) -> Multipole + 'a {
        let centre = domain.cell_centers(key);
        move |i, j, k| match self {
            NodeMoments::Leaf(masses) => {
                Multipole::monopole(masses[interior_index(i, j, k)], centre(i, j, k))
            }
            NodeMoments::Refined(cells) => cells[interior_index(i, j, k)],
        }
    }
}

/// Inherited per-cell data handed from parent to child in the downward
/// pass: (translated expansion, force-correction share). A refined
/// node's per-cell totals have the same shape: (own plus inherited
/// expansion, force-correction ledger).
type Inherited = (LocalExpansion, Vec3);

/// A refined node's per-cell totals ([`downward_node`]), shared by the
/// children that translate from them and dropped after the last one.
type Totals = Arc<Vec<Inherited>>;

/// Gravity data for one cell of a leaf sub-grid.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellGravity {
    /// Gravitational potential φ.
    pub phi: f64,
    /// Acceleration −∇φ (all levels combined) — for energy coupling and
    /// diagnostics.
    pub g: Vec3,
    /// Conservation-grade force density for the momentum update
    /// (same-level exact pair forces / V + inherited field force).
    pub force_density: Vec3,
}

/// The solved gravitational field on all leaves.
pub struct GravityField {
    cells: HashMap<MortonKey, Vec<CellGravity>>,
    /// Total same-level + near-field interactions executed.
    pub interactions: u64,
    /// Same-level (M2L) interactions only.
    pub interactions_same_level: u64,
    /// Near-field (P2P, leaves only) interactions only.
    pub interactions_near_field: u64,
    /// Pairs whose arithmetic ran, both passes: `interactions` plus the
    /// pairs weighted out by their lane inside an evaluated lane group
    /// (see [`PairCounts`]).
    pub pairs_evaluated: u64,
    /// Of `pairs_evaluated`, pairs evaluated with quadrupole terms
    /// (`QS` or `QT`, per lane group; see [`PairCounts`]): on refined
    /// nodes every group, on leaves the groups that reach a refined
    /// neighbour's cells.
    pub pairs_full_body: u64,
    /// Of `pairs_evaluated`, pairs whose `B0` / `B1` came from a level's
    /// lattice table instead of a divide and a square root (leaves only).
    pub pairs_lattice: u64,
    /// Number of kernel launches: one work item per node — its
    /// same-level kernel and, on a leaf, the near-field one.
    pub kernel_launches: u64,
}

impl GravityField {
    /// Per-cell data of leaf `key` (row-major interior order).
    pub fn leaf(&self, key: MortonKey) -> Option<&[CellGravity]> {
        self.cells.get(&key).map(|v| v.as_slice())
    }

    /// Single-cell accessor.
    pub fn at(&self, key: MortonKey, i: isize, j: isize, k: isize) -> CellGravity {
        self.cells[&key][interior_index(i, j, k)]
    }

    /// Leaf keys present.
    pub fn leaves(&self) -> impl Iterator<Item = MortonKey> + '_ {
        self.cells.keys().copied()
    }
}

/// P2M of leaf `key`: each cell's mass `m = ρ V`, the whole of a leaf
/// cell's moment (see [`NodeMoments::Leaf`]).
fn leaf_masses(tree: &Octree, key: MortonKey) -> Vec<f64> {
    let grid = tree.node(key).and_then(|node| node.grid.as_ref()).expect("leaf grid");
    let vol = tree.domain().cell_volume(key.level);
    let mut masses = vec![0.0; N_CELLS];
    for (i, j, k) in grid.indexer().interior() {
        masses[interior_index(i, j, k)] = grid.at(Field::Rho, i, j, k).max(0.0) * vol;
    }
    masses
}

/// M2M of refined node `key`: each cell combines the 8 child cells it
/// covers. Its children (at `key.level + 1`) must already be present in
/// `moments`.
fn refined_moments(tree: &Octree, moments: &MomentMap, key: MortonKey) -> Vec<Multipole> {
    let domain = tree.domain();
    let h = N_SUB as isize / 2;
    let mut cells = vec![Multipole::default(); N_CELLS];
    for octant in 0..8u8 {
        let child_key = key.child(octant);
        let child = moments[&child_key].cells(&domain, child_key);
        let o = [octant & 1, (octant >> 1) & 1, (octant >> 2) & 1].map(|b| b as isize * h);
        for i in 0..h {
            for j in 0..h {
                for k in 0..h {
                    let parts: [Multipole; 8] = std::array::from_fn(|d| {
                        let [di, dj, dk] = [d & 1, (d >> 1) & 1, d >> 2].map(|b| b as isize);
                        child(2 * i + di, 2 * j + dj, 2 * k + dk)
                    });
                    let ci = interior_index(o[0] + i, o[1] + j, o[2] + k);
                    cells[ci] = Multipole::combine(&parts);
                }
            }
        }
    }
    cells
}

/// What each cell `ci` of node `key` inherits from its parent's
/// per-cell `totals`: the parent cell's total expansion translated (L2L)
/// from the parent cell's centre of mass to the cell's, and the cell's
/// mass share of the parent cell's force-correction ledger. A cell has
/// one parent cell, so this is all it inherits; it is added onto zeros,
/// as an accumulation into a cleared cell would be.
fn inheritance<'a>(
    moments: &'a MomentMap,
    domain: &Domain,
    key: MortonKey,
    totals: &'a [Inherited],
) -> impl Fn(usize) -> Inherited + 'a {
    let parent = key.parent().expect("a node that inherits has a parent");
    let own = moments[&key].cells(domain, key);
    let up = moments[&parent].cells(domain, parent);
    let (n, o) = (N_SUB as isize, key.octant() as isize);
    let base = [o & 1, (o >> 1) & 1, (o >> 2) & 1].map(|b| b * n / 2);
    move |ci| {
        let (i, j, k) = (ci as isize / (n * n), ci as isize / n % n, ci as isize % n);
        let (pi, pj, pk) = (base[0] + i / 2, base[1] + j / 2, base[2] + k / 2);
        let (total, ledger) = &totals[interior_index(pi, pj, pk)];
        let (parent_mp, cmp) = (up(pi, pj, pk), own(i, j, k));
        let mut inh = (LocalExpansion::default(), Vec3::ZERO);
        inh.0.add(&total.translated(cmp.com - parent_mp.com));
        let share = if parent_mp.m > 0.0 {
            cmp.m / parent_mp.m
        } else {
            0.125
        };
        inh.1 += *ledger * share;
        inh
    }
}

/// Step-3 work of a single refined node: its per-cell totals — its
/// same-level expansions `own_same` plus what each cell inherits from
/// the `parent` node's totals (`None` at the root), and the
/// force-correction ledger its children split mass-weighted.
/// Summed once per node; each child translates its share itself
/// ([`inheritance`]).
fn downward_node(
    moments: &MomentMap,
    domain: &Domain,
    key: MortonKey,
    own_same: &[LocalExpansion],
    parent: Option<&[Inherited]>,
) -> Vec<Inherited> {
    let inherit = parent.map(|totals| inheritance(moments, domain, key, totals));
    (0..N_CELLS)
        .map(|ci| {
            let mut total = own_same[ci];
            let inh_fc = match &inherit {
                Some(inherit) => {
                    let (exp, fc) = inherit(ci);
                    total.add(&exp);
                    fc
                }
                None => Vec3::ZERO,
            };
            (total, total.f_corr + inh_fc)
        })
        .collect()
}

/// Final assembly of leaf `key`: combine its same-level expansions and
/// what each cell inherits from the `parent` node's totals (nothing at a
/// root leaf) into per-cell outputs.
fn assemble_leaf(
    moments: &MomentMap,
    domain: &Domain,
    key: MortonKey,
    own_same: &[LocalExpansion],
    parent: Option<&[Inherited]>,
) -> Vec<CellGravity> {
    let inherit = parent.map(|totals| inheritance(moments, domain, key, totals));
    let (own_moments, vol) = (&moments[&key], domain.cell_volume(key.level));
    (0..N_CELLS)
        .map(|ci| {
            let s = &own_same[ci];
            let (inh_exp, inh_fc) = match &inherit {
                Some(inherit) => inherit(ci),
                None => (LocalExpansion::default(), Vec3::ZERO),
            };
            let m = own_moments.mass(ci);
            let phi = s.phi + inh_exp.phi;
            let g = -(s.dphi + inh_exp.dphi);
            let inherited_force = -inh_exp.dphi * m + inh_fc;
            CellGravity {
                phi,
                g,
                force_density: (s.force + inherited_force) / vol,
            }
        })
        .collect()
}

/// `put` `cell(i, j, k)` — a lattice point mass or not — into every slot
/// `(i, j, k)` of the box `si × sj × sk` of `grid`.
fn fill_box(
    grid: &mut MomentGrid,
    [si, sj, sk]: [std::ops::Range<isize>; 3],
    lattice: bool,
    cell: impl Fn(isize, isize, isize) -> Multipole,
) {
    for i in si {
        for j in sj.clone() {
            for k in sk.clone() {
                grid.put(grid.idx(i, j, k), &cell(i, j, k), lattice);
            }
        }
    }
}

/// P2M, futurized: the cell masses of every leaf in `leaves`, one task
/// per leaf on `rt`. This is the per-leaf unit of work a locality
/// computes for the leaves it owns (and ships to its peers); each task
/// runs the same `leaf_masses` the serial [`FmmSolver::compute_moments`]
/// does, so the values are bit-identical to that pass's leaf entries.
pub fn p2m_parallel(tree: &Arc<Octree>, leaves: &[MortonKey], rt: &Arc<Runtime>) -> LeafMasses {
    assert!(tree.has_grids(), "FMM needs grid data");
    let sched = Arc::clone(rt.scheduler());
    let futs = leaves
        .iter()
        .map(|&key| {
            assert!(tree.is_leaf(key), "P2M of the refined node {key:?}");
            let tree = Arc::clone(tree);
            rt.async_call(move || {
                let _span = trace::span_labeled(TraceCategory::FmmP2M, || format!("{key:?}"));
                (key, leaf_masses(&tree, key))
            })
        })
        .collect();
    when_all(&sched, futs).get_help(&sched).into_iter().collect()
}

/// M2M, futurized: complete `masses` — every leaf's, own and received —
/// into the moment map, with all refined ancestors, one task per refined
/// node, level by level bottom-up (a level's tasks only read the
/// finished levels below, snapshotted behind an `Arc`). Refined nodes
/// read only their children's moments — never grids — so the result is
/// bit-identical to [`FmmSolver::compute_moments`] on the reference tree
/// whenever the leaf masses are.
pub fn m2m_parallel(tree: &Arc<Octree>, masses: LeafMasses, rt: &Arc<Runtime>) -> MomentMap {
    let sched = Arc::clone(rt.scheduler());
    let mut moments: MomentMap =
        masses.into_iter().map(|(key, m)| (key, Arc::new(NodeMoments::Leaf(m)))).collect();
    for level in (0..tree.max_level()).rev() {
        // Cheap snapshot: clones Arcs, not moment vectors.
        let snapshot = Arc::new(moments.clone());
        let futs = tree
            .level_keys(level)
            .into_iter()
            .filter(|&key| !tree.is_leaf(key))
            .map(|key| {
                let (tree, snap) = (Arc::clone(tree), Arc::clone(&snapshot));
                rt.async_call(move || {
                    let _span = trace::span_labeled(TraceCategory::FmmM2M, || format!("{key:?}"));
                    (key, Arc::new(NodeMoments::Refined(refined_moments(&tree, &snap, key))))
                })
            })
            .collect();
        moments.extend(when_all(&sched, futs).get_help(&sched));
    }
    moments
}

/// What one node's work item hands back: the node's same-level
/// expansions (the near field added on a leaf) and each pass's pairs.
struct NodeItem {
    out: Vec<LocalExpansion>,
    same: PairCounts,
    near: PairCounts,
}

/// What one target leaf's work item hands back: its assembled cells and
/// each pass's pairs.
struct LeafItem {
    cells: Vec<CellGravity>,
    same: PairCounts,
    near: PairCounts,
}

/// Summed counters of one solve (serial or futurized).
#[derive(Default, Clone, Copy)]
struct PassTotals {
    same: PairCounts,
    near: PairCounts,
    launches: u64,
}

impl PassTotals {
    /// Count one node's item and its pairs.
    fn add(&mut self, same: PairCounts, near: PairCounts) {
        self.same += same;
        self.near += near;
        self.launches += 1;
    }

    /// The solved field over `cells`, carrying these counters.
    fn field(&self, cells: HashMap<MortonKey, Vec<CellGravity>>) -> GravityField {
        GravityField {
            cells,
            interactions: self.same.counted + self.near.counted,
            interactions_same_level: self.same.counted,
            interactions_near_field: self.near.counted,
            pairs_evaluated: self.same.evaluated + self.near.evaluated,
            pairs_full_body: self.same.full_body + self.near.full_body,
            pairs_lattice: self.same.lattice + self.near.lattice,
            kernel_launches: self.launches,
        }
    }
}

/// The FMM gravity solver.
pub struct FmmSolver {
    stencil: Stencil,
    near_field: Vec<(i32, i32, i32)>,
    /// [`Stencil::root_offsets`]: what the root node applies instead of
    /// the parity stencils.
    root_offsets: Vec<(i32, i32, i32)>,
    /// Recycled kernel staging buffers (see [`ScratchPool`]).
    scratch: ScratchPool,
    /// When present, each parallel solve's items are replayed through
    /// the §5.1 launch policy on it.
    gpu: Option<GpuContext>,
}

/// The lattice rows (`tensors::LatticeRow`) of one level's leaf lists,
/// aligned with them: the root's list at level 0, each parity's stencil
/// list elsewhere, and the near field.
struct LevelTable {
    root: Vec<LatticeRow>,
    parity: [Vec<LatticeRow>; 8],
    near: Vec<LatticeRow>,
}

/// One solve's lattice tables, indexed by level: a [`LevelTable`] for
/// each level on which the solve has a leaf to launch.
struct LeafTables(Vec<Option<LevelTable>>);

impl LeafTables {
    /// The table of a leaf on `level` (one the solve was built for).
    fn level(&self, level: u8) -> &LevelTable {
        self.0[level as usize].as_ref().expect("a lattice table for every target leaf's level")
    }
}

impl FmmSolver {
    /// Build a solver with opening parameter `theta` (0.5 = Octo-Tiger).
    pub fn new(theta: f64) -> FmmSolver {
        Self::build(theta, None)
    }

    /// Build a solver that, after each parallel solve, replays the
    /// solve's work items on the simulated GPU `ctx` (idle stream → GPU,
    /// otherwise CPU); the field is the CPU-only solver's.
    pub fn with_gpu(theta: f64, ctx: GpuContext) -> FmmSolver {
        Self::build(theta, Some(ctx))
    }

    /// Accepts and ignores a same-level chunk size: the pass runs one
    /// work item per sub-grid (module docs), whatever `_cells` says. It
    /// stays, with `Config::fmm_chunk_cells`, until the benchmark stops
    /// setting them.
    pub fn with_chunk_cells(self, _cells: usize) -> FmmSolver {
        self
    }

    /// Override the work-aggregation thresholds (builder style):
    /// `slots` items of one kind fuse into one batch, `window` bounds
    /// the total buffered items before everything flushes. `(1, 1)`
    /// disables batching (every item is its own launch). Normalized
    /// through [`AggregationConfig::new`] and applied to the attached
    /// GPU context; a CPU-only solver has nothing to batch and ignores
    /// them.
    pub fn with_aggregation(mut self, slots: usize, window: usize) -> FmmSolver {
        if let Some(ctx) = &mut self.gpu {
            ctx.set_aggregation(AggregationConfig::new(slots, window));
        }
        self
    }

    fn build(theta: f64, gpu: Option<GpuContext>) -> FmmSolver {
        let stencil = Stencil::generate(theta);
        let near_field = Stencil::near_field(theta);
        // A non-root node is gathered out to the stencil's width only.
        assert!(
            crate::stencil::reach_of(&near_field) <= stencil.width(),
            "near field reaches past the stencil"
        );
        FmmSolver {
            stencil,
            near_field,
            root_offsets: Stencil::root_offsets(theta),
            scratch: ScratchPool::new(),
            gpu,
        }
    }

    /// The lattice tables of a solve over the nodes `keys` of `tree`,
    /// built once at its start: one per level that has a leaf among
    /// `keys`, at that level's cell width, with the lists a leaf there
    /// launches (the root's list on level 0 only, the parity stencils
    /// elsewhere).
    fn leaf_tables<'a>(
        &self,
        tree: &Octree,
        keys: impl IntoIterator<Item = &'a MortonKey>,
    ) -> LeafTables {
        let mut tables: Vec<_> = (0..=tree.max_level()).map(|_| None).collect();
        for &key in keys.into_iter().filter(|&&key| tree.is_leaf(key)) {
            let level = key.level;
            tables[level as usize].get_or_insert_with(|| {
                let rows = |offsets: &[(i32, i32, i32)]| {
                    LatticeRow::rows(offsets, tree.domain().cell_dx(level))
                };
                LevelTable {
                    root: if level == 0 { rows(&self.root_offsets) } else { Vec::new() },
                    parity: std::array::from_fn(|p| {
                        if level == 0 { Vec::new() } else { rows(self.stencil.for_parity(p as u8)) }
                    }),
                    near: rows(&self.near_field),
                }
            });
        }
        LeafTables(tables)
    }

    /// The same-level stencil in use.
    pub fn stencil(&self) -> &Stencil {
        &self.stencil
    }

    /// The scratch pool (hit/miss counters for tests and benches).
    pub fn scratch(&self) -> &ScratchPool {
        &self.scratch
    }

    /// The GPU launch context, if the solver replays its items on one.
    pub fn gpu(&self) -> Option<&GpuContext> {
        self.gpu.as_ref()
    }

    /// Halo width of the gathered moment grid: one width for every
    /// node (and one scratch pool), of which only the root's offsets use
    /// more than the stencil's.
    fn gather_width(&self) -> i32 {
        self.stencil.width().max(N_SUB as i32 - 1)
    }

    /// Solve the gravitational field of `tree` (which must carry grids).
    pub fn solve(&self, tree: &Octree) -> GravityField {
        let moments = self.compute_moments(tree);
        self.solve_with_moments(tree, &moments)
    }

    /// Futurized solve: same tree walk as [`FmmSolver::solve`], run as
    /// one task per node per pass on `rt`. Bit-identical output.
    pub fn solve_parallel(self: &Arc<Self>, tree: &Arc<Octree>, rt: &Arc<Runtime>) -> GravityField {
        let moments = Arc::new(self.compute_moments_parallel(tree, rt));
        self.solve_with_moments_parallel(tree, &moments, rt)
    }

    /// Step 1: per-cell multipole moments for every node, bottom-up.
    pub fn compute_moments(&self, tree: &Octree) -> MomentMap {
        assert!(tree.has_grids(), "FMM needs grid data");
        let mut moments: MomentMap = HashMap::new();
        for level in (0..=tree.max_level()).rev() {
            for key in tree.level_keys(level) {
                let cells = if tree.is_leaf(key) {
                    NodeMoments::Leaf(leaf_masses(tree, key))
                } else {
                    NodeMoments::Refined(refined_moments(tree, &moments, key))
                };
                moments.insert(key, Arc::new(cells));
            }
        }
        moments
    }

    /// Step 1, futurized: [`p2m_parallel`] over every leaf, then
    /// [`m2m_parallel`] — the moment pass of a locality that owns the
    /// whole tree.
    pub fn compute_moments_parallel(&self, tree: &Arc<Octree>, rt: &Arc<Runtime>) -> MomentMap {
        m2m_parallel(tree, p2m_parallel(tree, &tree.leaves(), rt), rt)
    }

    /// Gather the extended moment grid of node `key` into `grid`, out to
    /// what the node's offsets reach (the root list ±(`N_SUB` − 1), the
    /// parity stencils and the near field the stencil's width), by
    /// blocks: the node and the neighbours the reach touches (≤ 26 while
    /// it is ≤ `N_SUB` cells; θ < 0.354 makes it 9 or more and adds the
    /// next shell) are resolved once, and each block, clipped to the
    /// reach, is
    /// * a **same-level node**: its box of cells, copied — lattice point
    ///   masses if the node is a leaf (P2M), not if it is refined (M2M);
    /// * a **coarser region** (no same-level node; by 2:1 balance usually
    ///   one level up): the first existing ancestor's cells, each split
    ///   into `8^depth` equal monopoles at the fine cell centres — lattice
    ///   point masses;
    /// * **outside the domain**: absent.
    ///
    /// Only the box the grid's last user filled is cleared first
    /// ([`MomentGrid::reset_to`]).
    fn gather_into(
        &self,
        tree: &Octree,
        moments: &MomentMap,
        key: MortonKey,
        grid: &mut MomentGrid,
    ) {
        debug_assert_eq!(grid.width(), self.gather_width());
        let level = key.level;
        let reach = if level == 0 { self.gather_width() } else { self.stencil.width() };
        grid.reset_to(reach);
        let (n, r, n64) = (N_SUB as isize, reach as isize, N_SUB as i64);
        let domain = tree.domain();
        let (kx, ky, kz) = key.coords();
        let key_xyz = [kx, ky, kz].map(i64::from);
        let base = key_xyz.map(|x| x * n64);
        // Block offset `b` of an axis covers the extended coordinates
        // `b·N_SUB .. (b + 1)·N_SUB`, clipped to the reach, and `nb`
        // blocks each way cover the reach: one while it is ≤ `N_SUB`.
        let nb = (r + n - 1) / n;
        let span = |b: isize| (b * n).max(-r)..((b + 1) * n).min(n + r);
        // The node and its neighbours, as a block offset per axis.
        let d = 2 * nb + 1;
        for b in (0..d * d * d).map(|b| [b / (d * d) - nb, b / d % d - nb, b % d - nb]) {
            let node: [i64; 3] = std::array::from_fn(|a| key_xyz[a] + b[a] as i64);
            if node.iter().any(|&x| x < 0 || x >= 1 << level) {
                continue;
            }
            let nk = MortonKey::new(level, node[0] as u32, node[1] as u32, node[2] as u32);
            let block = b.map(span);
            if let Some(cells) = moments.get(&nk) {
                let cell = cells.cells(&domain, nk);
                fill_box(grid, block, tree.is_leaf(nk), |i, j, k| {
                    cell(i - b[0] * n, j - b[1] * n, k - b[2] * n)
                });
            } else if let Some((anc, cells)) = std::iter::successors(nk.parent(), |a| a.parent())
                .find_map(|a| moments.get(&a).map(|cells| (a, cells)))
            {
                // Each fine slot is its cell's 8^depth-th share of the
                // ancestor cell containing it, at the fine cell centre.
                let depth = level - anc.level;
                let frac = 1.0 / 8f64.powi(depth as i32);
                let (dx, half) = (domain.cell_dx(level), domain.edge / 2.0);
                let (ax, ay, az) = anc.coords();
                let anc_base = [ax, ay, az].map(|x| x as i64 * n64);
                fill_box(grid, block, true, |i, j, k| {
                    let g: [i64; 3] = std::array::from_fn(|a| base[a] + [i, j, k][a] as i64);
                    let c = [0, 1, 2].map(|a| ((g[a] >> depth) - anc_base[a]) as isize);
                    let centre = g.map(|g| (g as f64 + 0.5) * dx - half);
                    let coarse = cells.mass(interior_index(c[0], c[1], c[2]));
                    Multipole::monopole(coarse * frac, Vec3::from_array(centre))
                });
            }
        }
    }

    /// Same-level kernel of one node over all its cells. The root has no
    /// parent level: run all separated pairs there; other levels use the
    /// parity-exact stencils. A leaf (`table` is its level's lattice
    /// table) launches the `HESS = false` kernels, a refined node the
    /// `HESS = true` ones: only a refined node's Hessian is read.
    fn same_level_kernel_into(
        &self,
        grid: &MomentGrid,
        level: u8,
        table: Option<&LevelTable>,
        out: &mut Vec<LocalExpansion>,
    ) -> PairCounts {
        let root = &self.root_offsets;
        match (level == 0, table) {
            (true, Some(t)) => offset_into::<false>(grid, root, Some(&t.root), out),
            (true, None) => offset_into::<true>(grid, root, None, out),
            (false, Some(t)) => parity_into::<false>(grid, &self.stencil, Some(&t.parity), out),
            (false, None) => parity_into::<true>(grid, &self.stencil, None, out),
        }
    }

    /// One node's same-level work item — what the paper launches per
    /// sub-grid. It leases a grid and gathers the node's halo into it,
    /// runs the node's same-level kernel over all 512 cells and, on a leaf
    /// (`table` is its level's lattice table), the near-field kernel,
    /// whose result it adds cell by cell; then it returns the grid. The
    /// serial walk and the futurized one run this body, so neither can
    /// move a bit.
    /// Its three stages are `fmm/*` spans of their own, nested in no
    /// other compute span.
    fn node_item(
        &self,
        tree: &Octree,
        moments: &MomentMap,
        key: MortonKey,
        table: Option<&LevelTable>,
    ) -> NodeItem {
        let label = || format!("{key:?}");
        let mut grid = self.scratch.take_grid(self.gather_width());
        {
            let _span = trace::span_labeled(TraceCategory::FmmGather, label);
            self.gather_into(tree, moments, key, &mut grid);
        }
        let mut out = self.scratch.take_expansions();
        let same = {
            let _span = trace::span_labeled(TraceCategory::FmmSameLevel, label);
            self.same_level_kernel_into(&grid, key.level, table, &mut out)
        };
        let mut near = PairCounts::default();
        if let Some(table) = table {
            let _span = trace::span_labeled(TraceCategory::FmmNearField, label);
            let mut buf = self.scratch.take_expansions();
            near = offset_into::<false>(&grid, &self.near_field, Some(&table.near), &mut buf);
            for (e, ne) in out.iter_mut().zip(&buf) {
                e.add(ne);
            }
            self.scratch.put_expansions(buf);
        }
        self.scratch.put_grid(grid);
        NodeItem { out, same, near }
    }

    /// A refined node's downward step: its totals ([`downward_node`])
    /// from its item's expansions `same` and its `parent`'s totals (`None`
    /// at the root). `same` goes back to the pool.
    fn downward(
        &self,
        tree: &Octree,
        moments: &MomentMap,
        key: MortonKey,
        same: Vec<LocalExpansion>,
        parent: Option<&[Inherited]>,
    ) -> Totals {
        let totals = {
            let _span = trace::span_labeled(TraceCategory::FmmL2L, || format!("{key:?}"));
            downward_node(moments, &tree.domain(), key, &same, parent)
        };
        self.scratch.put_expansions(same);
        Arc::new(totals)
    }

    /// One target leaf's work item: [`FmmSolver::node_item`] with its
    /// level's lattice table, then its cells assembled from its
    /// expansions and what each translates from its `parent`'s totals
    /// (`None` at a root leaf), in a `fmm/leaf-assembly` span after the
    /// item's three. Its expansion buffer goes back to the pool before it
    /// returns, so a leaf holds one only while its item runs.
    fn leaf_item(
        &self,
        tree: &Octree,
        moments: &MomentMap,
        key: MortonKey,
        table: &LevelTable,
        parent: Option<&[Inherited]>,
    ) -> LeafItem {
        let item = self.node_item(tree, moments, key, Some(table));
        let cells = {
            let _span = trace::span_labeled(TraceCategory::FmmLeafAssembly, || format!("{key:?}"));
            assemble_leaf(moments, &tree.domain(), key, &item.out, parent)
        };
        self.scratch.put_expansions(item.out);
        LeafItem { cells, same: item.same, near: item.near }
    }

    /// Run the full solve given precomputed moments (serial reference
    /// path — the same per-node functions, in the same order per node, as
    /// the futurized graph): the refined nodes top-down, each one's item
    /// and then its downward step, then every leaf's item.
    pub fn solve_with_moments(&self, tree: &Octree, moments: &MomentMap) -> GravityField {
        let leaves = tree.leaves();
        let tables = self.leaf_tables(tree, &leaves);
        let mut counts = PassTotals::default();
        let mut totals: HashMap<MortonKey, Totals> = HashMap::new();
        for level in 0..=tree.max_level() {
            for key in tree.level_keys(level).into_iter().filter(|&key| !tree.is_leaf(key)) {
                let item = self.node_item(tree, moments, key, None);
                counts.add(item.same, item.near);
                let parent = key.parent().map(|p| Arc::clone(&totals[&p]));
                let parent = parent.as_deref().map(Vec::as_slice);
                totals.insert(key, self.downward(tree, moments, key, item.out, parent));
            }
        }
        let mut cells = HashMap::with_capacity(leaves.len());
        for key in leaves {
            let parent = key.parent().map(|p| totals[&p].as_slice());
            let item = self.leaf_item(tree, moments, key, tables.level(key.level), parent);
            counts.add(item.same, item.near);
            cells.insert(key, item.cells);
        }
        counts.field(cells)
    }

    /// Futurized steps 2–3 + assembly over the whole tree:
    /// [`FmmSolver::solve_restricted_parallel`] with every leaf a target.
    pub fn solve_with_moments_parallel(
        self: &Arc<Self>,
        tree: &Arc<Octree>,
        moments: &Arc<MomentMap>,
        rt: &Arc<Runtime>,
    ) -> GravityField {
        self.solve_restricted_parallel(tree, moments, &tree.leaves(), rt)
    }

    /// Publish the solve's counters as `fmm/*` into the runtime's
    /// [`amt::Metrics`] view (`locality/<i>/fmm/*` on a cluster).
    fn publish_counters(&self, rt: &Arc<Runtime>, totals: &PassTotals) {
        let metrics = rt.metrics();
        metrics.counter("fmm/scratch_hits").store(self.scratch.hits());
        metrics.counter("fmm/scratch_misses").store(self.scratch.misses());
        // One work item per node (the benchmark's `gravity.chunks_per_solve`).
        metrics.counter("fmm/chunks").add(totals.launches);
        metrics
            .counter("fmm/interactions/same_level")
            .add(totals.same.counted);
        metrics
            .counter("fmm/interactions/near_field")
            .add(totals.near.counted);
        metrics
            .counter("fmm/pairs/evaluated")
            .add(totals.same.evaluated + totals.near.evaluated);
        metrics
            .counter("fmm/pairs/full_body")
            .add(totals.same.full_body + totals.near.full_body);
        metrics
            .counter("fmm/pairs/lattice")
            .add(totals.same.lattice + totals.near.lattice);
        // The replayed launch ledger (cumulative over the context's
        // lifetime, hence `store` not `add`): how many kernels went up
        // fused, the batch-size histogram per kind, the flush-trigger
        // breakdown, and the slot-window occupancy.
        if let Some(ctx) = &self.gpu {
            let agg = ctx.agg_stats();
            metrics.counter("fmm/kernels/batched").store(agg.items_gpu());
            metrics.counter("fmm/agg/batches").store(agg.batches());
            metrics.counter("fmm/agg/items_cpu").store(agg.items_cpu());
            metrics.counter("fmm/agg/flush_full").store(agg.flush_full());
            metrics
                .counter("fmm/agg/flush_window")
                .store(agg.flush_window());
            metrics.counter("fmm/agg/flush_idle").store(agg.flush_idle());
            metrics
                .counter("fmm/agg/occupancy_permille")
                .store(agg.occupancy_permille(ctx.agg_config().slots));
            for kind in KernelKind::ALL {
                for (bucket, label) in HIST_LABELS.iter().enumerate() {
                    metrics
                        .counter(&format!("fmm/agg/hist/{}/{label}", kind.as_str()))
                        .store(agg.hist(kind.index(), bucket));
                }
            }
        }
    }

    /// Futurized steps 2–3 + assembly *restricted to a shard*: one
    /// dataflow graph (module docs) over `targets` (leaves owned by one
    /// locality) and their refined ancestors — each ancestor's item and
    /// downward step, each target's item — with no barrier inside it.
    /// Results are merged by key, so scheduling order never affects the
    /// output. `moments` must be the complete (globally replicated)
    /// moment map, so gathered neighbor halos do not depend on `targets`
    /// — which makes every per-target output bit-identical to the
    /// corresponding entry of the serial [`FmmSolver::solve_with_moments`],
    /// however the leaves are split into shards.
    pub fn solve_restricted_parallel(
        self: &Arc<Self>,
        tree: &Arc<Octree>,
        moments: &Arc<MomentMap>,
        targets: &[MortonKey],
        rt: &Arc<Runtime>,
    ) -> GravityField {
        let sched = Arc::clone(rt.scheduler());
        // Closure over ancestors: every target leaf needs the downward
        // contributions of its whole refined ancestor chain. In key order,
        // which is level by level, top-down.
        let mut needed: BTreeSet<MortonKey> = BTreeSet::new();
        for &key in targets {
            assert!(tree.is_leaf(key), "a target is a leaf: {key:?}");
            let mut cur = Some(key);
            while let Some(key) = cur.filter(|&key| needed.insert(key)) {
                cur = key.parent();
            }
        }
        let refined: Vec<MortonKey> =
            needed.iter().copied().filter(|&key| !tree.is_leaf(key)).collect();
        // Pre-warm the pool so steady-state solves never allocate: a grid
        // for each item that can run at once (every worker and the
        // helping caller), an expansion buffer per refined node, held from
        // its item to its downward step, and two per running item (a
        // leaf's output and near field).
        let running = (sched.n_threads() + 1).min(needed.len());
        self.scratch.ensure(running, self.gather_width(), refined.len() + 2 * running);
        let walk = Arc::new(Walk {
            solver: Arc::clone(self),
            tree: Arc::clone(tree),
            moments: Arc::clone(moments),
            tables: self.leaf_tables(tree, targets),
            sched: Arc::clone(&sched),
            counts: Mutex::default(),
        });
        let items = walk.refined_items(rt, &refined);
        // Each target's item waits on its parent's totals.
        let mut leaves_of: HashMap<MortonKey, Vec<Promise<Option<Totals>>>> = HashMap::new();
        let leaves: Vec<_> = targets
            .iter()
            .map(|&key| {
                let (promise, parent) = Promise::new();
                match key.parent() {
                    Some(p) => leaves_of.entry(p).or_default().push(promise),
                    None => promise.set_value(None),
                }
                let walk = Arc::clone(&walk);
                parent.then(&sched, move |parent| walk.leaf(key, parent))
            })
            .collect();
        // The refined nodes' steps, bottom-up so each node's children are
        // built before it; the root's starts the graph.
        let mut built: HashMap<MortonKey, Pending> = HashMap::new();
        for (&key, item) in refined.iter().zip(items).rev() {
            let node = Pending {
                key,
                item,
                refined: (0..8).filter_map(|o| built.remove(&key.child(o))).collect(),
                leaves: leaves_of.remove(&key).unwrap_or_default(),
            };
            built.insert(key, node);
        }
        if let Some(root) = built.remove(&MortonKey::root()) {
            walk.start(root, None);
        }
        let done = when_all(&sched, leaves).get_help(&sched);
        // Every refined step counted itself before releasing its leaves;
        // its task retires after them, and with it its share of the
        // totals.
        rt.wait_quiescent();
        let mut counts = *walk.counts.lock();
        let mut cells = HashMap::with_capacity(targets.len());
        for (&key, leaf) in targets.iter().zip(done) {
            counts.add(leaf.same, leaf.near);
            cells.insert(key, leaf.cells);
        }
        if let Some(ctx) = &self.gpu {
            ctx.replay(refined.len(), targets.len());
        }
        self.publish_counters(rt, &counts);
        counts.field(cells)
    }
}

/// A refined node's place in a futurized solve's graph: its item in
/// flight and the needed children its downward step feeds — refined ones
/// by starting their own steps, target leaves by fulfilling the promise
/// their items wait on.
struct Pending {
    key: MortonKey,
    item: Future<NodeItem>,
    refined: Vec<Pending>,
    leaves: Vec<Promise<Option<Totals>>>,
}

/// What every task of one futurized solve shares.
struct Walk {
    solver: Arc<FmmSolver>,
    tree: Arc<Octree>,
    moments: Arc<MomentMap>,
    tables: LeafTables,
    sched: Arc<Scheduler>,
    /// The refined nodes' counters (a leaf's come back with its cells).
    counts: Mutex<PassTotals>,
}

impl Walk {
    /// Start the items of the `refined` nodes (`HESS = true`) in key
    /// order, a task each, so the root's runs first, and return their
    /// futures in that order.
    fn refined_items(
        self: &Arc<Self>,
        rt: &Arc<Runtime>,
        refined: &[MortonKey],
    ) -> Vec<Future<NodeItem>> {
        refined
            .iter()
            .map(|&key| {
                let walk = Arc::clone(self);
                rt.async_call(move || walk.solver.node_item(&walk.tree, &walk.moments, key, None))
            })
            .collect()
    }

    /// Attach `node`'s downward step to its item (`parent`, its parent's
    /// totals, is in already): one task, which counts the item, sums the
    /// node's totals, starts its refined children's steps and releases
    /// its leaves' items.
    fn start(self: &Arc<Self>, node: Pending, parent: Option<Totals>) {
        let Pending { key, item, refined, leaves } = node;
        let walk = Arc::clone(self);
        // The step's outputs are its children's inputs: its own future
        // carries nothing.
        let _ = item.then(&self.sched, move |item| {
            walk.counts.lock().add(item.same, item.near);
            let parent = parent.as_deref().map(Vec::as_slice);
            let totals = walk.solver.downward(&walk.tree, &walk.moments, key, item.out, parent);
            for child in refined {
                walk.start(child, Some(Arc::clone(&totals)));
            }
            for leaf in leaves {
                leaf.set_value(Some(Arc::clone(&totals)));
            }
        });
    }

    /// Target leaf `key`'s item, once its `parent`'s totals are in
    /// (`None` at a root leaf).
    fn leaf(&self, key: MortonKey, parent: Option<Totals>) -> LeafItem {
        let (table, parent) = (self.tables.level(key.level), parent.as_deref().map(Vec::as_slice));
        self.solver.leaf_item(&self.tree, &self.moments, key, table, parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::{direct_sum, PointMass};
    use octree::geometry::Domain;
    use octree::subgrid::Field;
    use proptest::prelude::*;

    /// Build a uniformly refined tree (all leaves at `level`) with a
    /// density field.
    fn uniform_tree(level: u8, rho: impl Fn(Vec3) -> f64) -> Octree {
        let mut t = Octree::new(Domain::new(16.0));
        t.refine_where(level, |_d, _k| true);
        let domain = t.domain();
        for key in t.leaves() {
            let node = t.node_mut(key).unwrap();
            let grid = node.grid.as_mut().unwrap();
            for (i, j, k) in grid.indexer().interior() {
                let c = domain.cell_center(key, i, j, k);
                grid.set(Field::Rho, i, j, k, rho(c));
            }
        }
        t
    }

    fn blob_density(c: Vec3) -> f64 {
        let b1 = Vec3::new(-3.0, 0.0, 0.0);
        let b2 = Vec3::new(3.0, 1.0, 0.0);
        let d1 = (c - b1).norm2();
        let d2 = (c - b2).norm2();
        2.0 * (-d1).exp() + 1.0 * (-d2 / 2.0).exp() + 1e-8
    }

    /// Direct reference over all leaf cells.
    fn direct_reference(tree: &Octree) -> (Vec<PointMass>, Vec<(f64, Vec3)>) {
        let domain = tree.domain();
        let mut pts = Vec::new();
        for key in tree.leaves() {
            let grid = tree.node(key).unwrap().grid.as_ref().unwrap();
            let vol = domain.cell_volume(key.level);
            for (i, j, k) in grid.indexer().interior() {
                pts.push(PointMass {
                    m: grid.at(Field::Rho, i, j, k) * vol,
                    pos: domain.cell_center(key, i, j, k),
                });
            }
        }
        let field = direct_sum(&pts);
        (pts, field)
    }

    #[test]
    fn fmm_matches_direct_sum_on_uniform_tree() {
        let tree = uniform_tree(1, blob_density);
        let solver = FmmSolver::new(0.5);
        let field = solver.solve(&tree);
        let (pts, reference) = direct_reference(&tree);
        // Walk leaves in the same order as direct_reference.
        let mut idx = 0;
        let mut max_rel_g = 0.0f64;
        let mut max_rel_phi = 0.0f64;
        for key in tree.leaves() {
            let cg = field.leaf(key).unwrap();
            let grid = tree.node(key).unwrap().grid.as_ref().unwrap();
            for (i, j, k) in grid.indexer().interior() {
                let got = cg[interior_index(i, j, k)];
                let (phi_ref, g_ref) = reference[idx];
                let _ = pts[idx];
                if g_ref.norm() > 1e-8 {
                    max_rel_g = max_rel_g.max((got.g - g_ref).norm() / g_ref.norm());
                }
                max_rel_phi = max_rel_phi.max((got.phi - phi_ref).abs() / phi_ref.abs());
                idx += 1;
            }
        }
        assert!(max_rel_phi < 2e-2, "phi error {max_rel_phi}");
        assert!(max_rel_g < 2e-1, "g error {max_rel_g}");
    }

    #[test]
    fn momentum_conserved_to_machine_precision_on_uniform_tree() {
        let tree = uniform_tree(1, blob_density);
        let solver = FmmSolver::new(0.5);
        let field = solver.solve(&tree);
        let vol = tree.domain().cell_volume(1);
        let mut total = Vec3::ZERO;
        let mut scale = 0.0;
        for key in tree.leaves() {
            for cg in field.leaf(key).unwrap() {
                total += cg.force_density * vol;
                scale += (cg.force_density * vol).norm();
            }
        }
        assert!(
            total.norm() <= 1e-12 * scale.max(1.0),
            "momentum residual {total:?} at scale {scale}"
        );
    }

    #[test]
    fn deeper_uniform_tree_improves_direct_agreement() {
        // At level 2 the stencil is exercised across node boundaries and
        // the L2L path is active (level-1 nodes are refined).
        let tree = uniform_tree(2, blob_density);
        let solver = FmmSolver::new(0.5);
        let field = solver.solve(&tree);
        let (_, reference) = direct_reference(&tree);
        let mut idx = 0;
        let mut max_rel_phi = 0.0f64;
        for key in tree.leaves() {
            let cg = field.leaf(key).unwrap();
            let grid = tree.node(key).unwrap().grid.as_ref().unwrap();
            for (i, j, k) in grid.indexer().interior() {
                let got = cg[interior_index(i, j, k)];
                let (phi_ref, _) = reference[idx];
                max_rel_phi = max_rel_phi.max((got.phi - phi_ref).abs() / phi_ref.abs());
                idx += 1;
            }
        }
        // Order-2 multipoles at theta = 0.5: a few percent in the far
        // field of a compact blob is the expected truncation error.
        assert!(max_rel_phi < 5e-2, "phi error {max_rel_phi}");
    }

    #[test]
    fn amr_tree_solves_and_counts_kernels() {
        let mut t = Octree::new(Domain::new(16.0));
        // Refine the centre one extra level.
        t.refine(MortonKey::root());
        t.refine(MortonKey::new(1, 0, 0, 0));
        let domain = t.domain();
        for key in t.leaves() {
            let node = t.node_mut(key).unwrap();
            let grid = node.grid.as_mut().unwrap();
            for (i, j, k) in grid.indexer().interior() {
                let c = domain.cell_center(key, i, j, k);
                grid.set(Field::Rho, i, j, k, blob_density(c));
            }
        }
        t.restrict_all();
        let solver = FmmSolver::new(0.5);
        let field = solver.solve(&t);
        assert!(field.interactions > 0);
        assert!(field.kernel_launches > 0);
        // Every leaf present, all values finite.
        for key in t.leaves() {
            let cg = field.leaf(key).expect("leaf output");
            for c in cg {
                assert!(c.phi.is_finite());
                assert!(c.g.norm().is_finite());
            }
        }
    }

    #[test]
    fn parallel_solve_is_bit_identical_to_serial() {
        let tree = Arc::new(uniform_tree(2, blob_density));
        let solver = Arc::new(FmmSolver::new(0.5));
        let serial = solver.solve(&tree);
        for threads in [1, 4] {
            let rt = Runtime::new(threads);
            let par = solver.solve_parallel(&tree, &rt);
            assert_eq!(par.interactions, serial.interactions);
            for key in tree.leaves() {
                let a = serial.leaf(key).unwrap();
                let b = par.leaf(key).unwrap();
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.phi.to_bits(), y.phi.to_bits());
                    assert_eq!(x.g.x.to_bits(), y.g.x.to_bits());
                    assert_eq!(x.force_density.x.to_bits(), y.force_density.x.to_bits());
                }
            }
        }
    }

    /// A tree that is its root alone: the one leaf's item inherits
    /// nothing and starts at once, serial and futurized alike.
    #[test]
    fn a_root_leaf_solves_alone() {
        let tree = Arc::new(uniform_tree(0, blob_density));
        assert_eq!(tree.leaves(), [MortonKey::root()]);
        let solver = Arc::new(FmmSolver::new(0.5));
        let serial = solver.solve(&tree);
        let par = solver.solve_parallel(&tree, &Runtime::new(2));
        assert!(serial.interactions > 0);
        assert_eq!(par.interactions, serial.interactions);
        let (a, b) = (serial.leaf(MortonKey::root()).unwrap(), par.leaf(MortonKey::root()).unwrap());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.phi.to_bits(), y.phi.to_bits());
            assert_eq!(x.force_density.z.to_bits(), y.force_density.z.to_bits());
        }
    }

    #[test]
    fn chunk_size_never_changes_bits() {
        // `with_chunk_cells` is accepted and ignored: at any value (1 was
        // one row slab, 512 one node) and worker count the bits, the pair
        // counts and the task count are the same.
        let tree = Arc::new(uniform_tree(1, blob_density));
        let serial = FmmSolver::new(0.5).solve(&tree);
        let mut tasks = None;
        for chunk in [1usize, 32, 512] {
            let solver = Arc::new(FmmSolver::new(0.5).with_chunk_cells(chunk));
            for threads in [1usize, 2] {
                let rt = Runtime::new(threads);
                let par = solver.solve_parallel(&tree, &rt);
                assert_eq!(par.interactions, serial.interactions);
                assert_eq!(par.interactions_same_level, serial.interactions_same_level);
                assert_eq!(par.interactions_near_field, serial.interactions_near_field);
                assert_eq!(par.pairs_evaluated, serial.pairs_evaluated, "chunk {chunk}");
                assert_eq!(par.pairs_full_body, serial.pairs_full_body, "chunk {chunk}");
                let executed = rt.metrics().get("tasks/executed");
                assert_eq!(*tasks.get_or_insert(executed), executed, "chunk {chunk} threads {threads}");
                for key in tree.leaves() {
                    let a = serial.leaf(key).unwrap();
                    let b = par.leaf(key).unwrap();
                    for (x, y) in a.iter().zip(b.iter()) {
                        assert_eq!(x.phi.to_bits(), y.phi.to_bits(), "chunk {chunk} threads {threads}");
                        assert_eq!(x.g.x.to_bits(), y.g.x.to_bits());
                        assert_eq!(x.force_density.y.to_bits(), y.force_density.y.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn one_item_per_node_counters_and_tasks_add_up() {
        let tree = Arc::new(uniform_tree(1, blob_density));
        let (leaves, refined) = (8u64, 1u64); // 8 level-1 leaves under the root
        let nodes = leaves + refined;
        let solver = Arc::new(FmmSolver::new(0.5));
        let rt = Runtime::new(2);
        let executed = || rt.metrics().get("tasks/executed");
        let before = executed();
        let field = solver.solve_parallel(&tree, &rt);
        // One work item per node, one launch each (its same-level kernel
        // and, on a leaf, the near-field one) ...
        assert_eq!(rt.metrics().counter("fmm/chunks").get(), nodes);
        assert_eq!(field.kernel_launches, nodes);
        // ... and one task each: P2M and the item per leaf, M2M, the item
        // and the downward step per refined node. A join runs no task.
        assert_eq!(executed() - before, 2 * leaves + 3 * refined);
        assert_eq!(
            rt.metrics().counter("fmm/interactions/same_level").get(),
            field.interactions_same_level
        );
        assert_eq!(
            rt.metrics().counter("fmm/interactions/near_field").get(),
            field.interactions_near_field
        );
        assert!(field.interactions_near_field > 0);
        // The pair counters: published, equal to the serial walk's, and
        // ordered full ≤ evaluated, counted ≤ evaluated < all pairs (the
        // domain wall's absent lane groups are skipped). Only the root
        // carries quadrupoles here, so only its groups take the full body.
        let metric = |name: &str| rt.metrics().counter(name).get();
        assert_eq!(metric("fmm/pairs/evaluated"), field.pairs_evaluated);
        assert_eq!(metric("fmm/pairs/full_body"), field.pairs_full_body);
        let serial = solver.solve(&tree);
        assert_eq!(field.pairs_evaluated, serial.pairs_evaluated);
        assert_eq!(field.pairs_full_body, serial.pairs_full_body);
        assert!(field.interactions <= field.pairs_evaluated);
        let root_pairs = (N_CELLS * solver.root_offsets.len()) as u64;
        assert!(field.pairs_full_body > 0 && field.pairs_full_body < root_pairs);
        let parity_pairs: usize = (0..8).map(|p| solver.stencil.for_parity(p).len()).sum();
        let leaf_pairs = (N_CELLS / 8 * parity_pairs + N_CELLS * solver.near_field.len()) as u64;
        assert!(field.pairs_evaluated < root_pairs + 8 * leaf_pairs);
    }

    /// `a` and `b` are the same kind of node moments, bit for bit.
    fn assert_same_moments(a: &NodeMoments, b: &NodeMoments, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let flat = |m: &NodeMoments| match m {
            NodeMoments::Leaf(masses) => (true, bits(masses)),
            NodeMoments::Refined(cells) => {
                let values = |c: &Multipole| [c.m].into_iter().chain(c.com.to_array()).chain(c.q);
                (false, bits(&cells.iter().flat_map(values).collect::<Vec<f64>>()))
            }
        };
        assert!(flat(a) == flat(b), "{what}: moments differ");
    }

    #[test]
    fn replicated_m2m_from_leaf_moments_is_bit_identical() {
        let tree = Arc::new(uniform_tree(2, blob_density));
        let solver = FmmSolver::new(0.5);
        let reference = solver.compute_moments(&tree);
        // Simulate the distributed exchange: two "shards" P2M their own
        // leaves, the maps are merged, then M2M fills in the ancestors.
        let rt = Runtime::new(2);
        let leaves = tree.leaves();
        let (lo, hi) = leaves.split_at(leaves.len() / 2);
        let mut leaf_map = p2m_parallel(&tree, lo, &rt);
        leaf_map.extend(p2m_parallel(&tree, hi, &rt));
        assert_eq!(leaf_map.len(), leaves.len());
        let rebuilt = m2m_parallel(&tree, leaf_map, &rt);
        assert_eq!(rebuilt.len(), reference.len());
        for (key, cells) in &reference {
            assert_same_moments(cells, &rebuilt[key], &format!("{key:?}"));
        }
    }

    #[test]
    fn restricted_solve_matches_full_solve_per_leaf() {
        let tree = Arc::new(uniform_tree(2, blob_density));
        let solver = Arc::new(FmmSolver::new(0.5));
        let rt = Runtime::new(2);
        let moments = Arc::new(solver.compute_moments_parallel(&tree, &rt));
        let full = solver.solve_with_moments(&tree, &moments);
        // Split the leaves into two "shards" and solve each restricted.
        let leaves = tree.leaves();
        let mid = leaves.len() / 2;
        for shard in [&leaves[..mid], &leaves[mid..]] {
            let part = solver.solve_restricted_parallel(&tree, &moments, shard, &rt);
            assert_eq!(part.leaves().count(), shard.len());
            for &key in shard {
                let a = full.leaf(key).unwrap();
                let b = part.leaf(key).unwrap();
                for (x, y) in a.iter().zip(b.iter()) {
                    assert_eq!(x.phi.to_bits(), y.phi.to_bits());
                    assert_eq!(x.g.x.to_bits(), y.g.x.to_bits());
                    assert_eq!(x.g.y.to_bits(), y.g.y.to_bits());
                    assert_eq!(x.g.z.to_bits(), y.g.z.to_bits());
                    assert_eq!(x.force_density.x.to_bits(), y.force_density.x.to_bits());
                }
            }
        }
    }

    /// The per-slot gather the box gather replaced, kept as its oracle:
    /// one `MortonKey` and one hash-map lookup a slot, the ancestor walk
    /// per slot on a coarser region. Each slot's lattice flag is the kind
    /// of what it found: a leaf's cell or a coarse split.
    fn closure_gather(
        tree: &Octree,
        moments: &MomentMap,
        key: MortonKey,
        reach: i32,
        grid: &mut MomentGrid,
    ) {
        let level = key.level;
        let domain = tree.domain();
        let n = N_SUB as i64;
        let max_global = n << level;
        let (kx, ky, kz) = key.coords();
        let base = (kx as i64 * n, ky as i64 * n, kz as i64 * n);
        let lookup = |i: isize, j: isize, k: isize| -> Option<(Multipole, bool)> {
            let g = (base.0 + i as i64, base.1 + j as i64, base.2 + k as i64);
            if g.0 < 0 || g.1 < 0 || g.2 < 0 || g.0 >= max_global || g.1 >= max_global || g.2 >= max_global {
                return None;
            }
            let node_key =
                MortonKey::new(level, (g.0 / n) as u32, (g.1 / n) as u32, (g.2 / n) as u32);
            if let Some(cells) = moments.get(&node_key) {
                let (nx, ny, nz) = node_key.coords();
                let local = (g.0 - nx as i64 * n, g.1 - ny as i64 * n, g.2 - nz as i64 * n);
                let (li, lj, lk) = (local.0 as isize, local.1 as isize, local.2 as isize);
                let cell = cells.cells(&domain, node_key)(li, lj, lk);
                return Some((cell, tree.is_leaf(node_key)));
            }
            let (mut lvl, mut cg, mut nk) = (level, g, node_key);
            while lvl > 0 && !moments.contains_key(&nk) {
                lvl -= 1;
                cg = (cg.0 / 2, cg.1 / 2, cg.2 / 2);
                nk = MortonKey::new(lvl, (cg.0 / n) as u32, (cg.1 / n) as u32, (cg.2 / n) as u32);
            }
            let cells = moments.get(&nk)?;
            let (nx, ny, nz) = nk.coords();
            let local = (cg.0 - nx as i64 * n, cg.1 - ny as i64 * n, cg.2 - nz as i64 * n);
            let (li, lj, lk) = (local.0 as isize, local.1 as isize, local.2 as isize);
            let coarse = cells.cells(&domain, nk)(li, lj, lk);
            let frac = 1.0 / 8f64.powi((level - lvl) as i32);
            let (dx, half) = (domain.cell_dx(level), domain.edge / 2.0);
            let centre = Vec3::new(
                (g.0 as f64 + 0.5) * dx - half,
                (g.1 as f64 + 0.5) * dx - half,
                (g.2 as f64 + 0.5) * dx - half,
            );
            Some((Multipole::monopole(coarse.m * frac, centre), true))
        };
        grid.reset_to(reach);
        let (w, n) = (reach as isize, N_SUB as isize);
        for i in -w..n + w {
            for j in -w..n + w {
                for k in -w..n + w {
                    if let Some((mp, lattice)) = lookup(i, j, k) {
                        grid.put(grid.idx(i, j, k), &mp, lattice);
                    }
                }
            }
        }
    }

    proptest! {
        // Debug-build budget: the oracle does a hash-map lookup per slot,
        // 5 832 a node (10 648 at the root), over ~80–140 nodes a case.
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The box gather against the per-slot one, bit for bit on every
        /// column and both flags, on random 2:1-balanced trees with leaves
        /// on levels 2–5 (domain walls on every outer node), for every
        /// node and for keys one and two levels below a leaf — whose
        /// neighbourhood is split from coarse cells across one and two
        /// levels. One pooled grid serves every gather of a case, so each
        /// also checks that `reset_to` clears what the last user filled.
        /// Both at θ = 0.5 (reach 5) and at θ = 0.35, whose reach of 9
        /// cells passes the neighbour blocks, so blocks two nodes away are
        /// gathered too.
        #[test]
        fn box_gather_matches_the_closure_gather_on_random_trees(
            picks in proptest::collection::vec(any::<u64>(), 0..6),
            below in proptest::collection::vec(any::<u64>(), 1..4),
            phase in 0.0f64..6.0,
        ) {
            let mut tree = uniform_tree(2, |c| (0.4 * c.x + phase).sin() + 0.05 * c.y * c.z + 2.0);
            for pick in picks {
                let leaves = tree.leaves();
                let leaf = leaves[(pick % leaves.len() as u64) as usize];
                if leaf.level < 5 {
                    tree.refine(leaf); // keeps 2:1 balance
                }
            }
            tree.check_invariants();
            let mut keys: Vec<MortonKey> =
                (0..=tree.max_level()).flat_map(|l| tree.level_keys(l)).collect();
            let leaves = tree.leaves();
            for pick in below {
                let leaf = leaves[(pick % leaves.len() as u64) as usize];
                let child = leaf.child((pick >> 32) as u8 & 7);
                keys.extend([child, child.child((pick >> 40) as u8 & 7)]);
            }
            for theta in [0.5, 0.35] {
                let solver = FmmSolver::new(theta);
                let moments = solver.compute_moments(&tree);
                let width = solver.gather_width();
                let (mut boxed, mut oracle) = (MomentGrid::new(width), MomentGrid::new(width));
                for &key in &keys {
                    solver.gather_into(&tree, &moments, key, &mut boxed);
                    let reach = if key.level == 0 { width } else { solver.stencil.width() };
                    closure_gather(&tree, &moments, key, reach, &mut oracle);
                    boxed.assert_same_bits(&oracle, &format!("θ = {theta}, {key:?}"));
                }
            }
        }
    }

    #[test]
    fn parallel_solve_reuses_scratch_in_steady_state() {
        let tree = Arc::new(uniform_tree(1, blob_density));
        let solver = Arc::new(FmmSolver::new(0.5));
        let rt = Runtime::new(2);
        solver.solve_parallel(&tree, &rt); // cold: misses allowed
        let misses_after_first = solver.scratch().misses();
        solver.solve_parallel(&tree, &rt);
        solver.solve_parallel(&tree, &rt);
        assert_eq!(
            solver.scratch().misses(),
            misses_after_first,
            "steady-state solves must not allocate scratch buffers"
        );
        assert!(solver.scratch().hits() > 0);
        assert_eq!(rt.metrics().get("fmm/scratch_misses"), misses_after_first);
    }
}
