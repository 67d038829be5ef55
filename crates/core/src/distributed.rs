//! Distributed time-stepping over the parcelport cluster.
//!
//! Octo-Tiger distributes the octree's sub-grids across localities
//! along the space filling curve and exchanges halo data, FMM boundary
//! multipoles, and the global CFL reduction as HPX parcels (paper §4.2,
//! §5.2). [`DistributedDriver`] reproduces that structure over the
//! simulated [`Cluster`]: each locality owns a contiguous SFC chunk of
//! leaves ([`ShardMap`]), runs the futurized TVD-RK2 stage on its own
//! shard, and talks to the other shards only through typed parcels over
//! the configured transport (MPI-sim or libfabric-sim):
//!
//! * [`HALO_ACTION`] — a `GridMsg` carrying one leaf's grid, which is
//!   its interior alone (the halo *push*: sources ship leaf grids into
//!   the receivers' mirrors, where each owned leaf's RHS task gathers
//!   its ghosts from them — the tree itself holds no ghosts);
//!   [`MIGRATE_ACTION`] carries the same message when a rebalance
//!   re-homes a leaf,
//! * [`MOMENT_ACTION`] — a `MomentMsg` carrying one leaf's P2M
//!   multipole moments (the FMM boundary exchange: every locality
//!   rebuilds the full moment tree from the broadcast leaf moments and
//!   solves only its own targets),
//! * the per-step dt min-reduce and the end-of-step quiescence barrier
//!   ride the [`parcelport::collectives`] machinery.
//!
//! **One pipeline.** This is the only implementation of the step:
//! [`crate::driver::Simulation`] is this driver on a private
//! one-locality loopback cluster, where every peer loop below is empty
//! and nothing crosses the fabric.
//!
//! **Bit-identity.** The solve is independent of the partition — any
//! locality count, either transport, any shard map — by construction:
//!
//! 1. every mirror starts as an exact copy of the scenario tree;
//! 2. every leaf is advanced by the same per-leaf kernels
//!    (`driver::leaf_signal_dt` / `driver::leaf_rhs` /
//!    `driver::apply_stage1` / `driver::apply_stage2`) on identical
//!    inputs, whoever owns it;
//! 3. the wire codec round-trips `f64` bit patterns exactly, received
//!    messages are merged by key (never by arrival order), and every
//!    fold is ordered along the SFC — the min-reduce is exact because
//!    `f64::min` over positive finite per-shard minima of contiguous
//!    chunks equals the global ordered fold;
//! 4. the restricted FMM walk visits a target's whole ancestor chain,
//!    so per-shard fields equal the full solve's per leaf (test-proven
//!    in `gravity::solver`).
//!
//! The pinned golden digests of [`crate::scenarios`] and the serial
//! references (`FmmSolver::solve`, the per-cell halo oracle, `regrid::regrid`)
//! are the independent anchors the tests compare against.
//!
//! **Fault tolerance.** Every phase is crash-aware: quiescence waits
//! and collectives surface [`util::Error::LocalityCrashed`] when the
//! cluster's fault layer reports a dead locality, so `step` returns an
//! error instead of hanging. [`DistributedDriver::checkpoint`] cuts a
//! digest-protected snapshot of the global state between steps and
//! [`DistributedDriver::restore`] resurrects it — on a cluster of any
//! locality count — bit-identically (see [`crate::checkpoint`]).
//!
//! One driver owns its cluster's action space ([`HALO_ACTION`],
//! [`MOMENT_ACTION`], and the collectives' reduce action): build a
//! fresh cluster per driver.

use crate::config::Config;
use crate::driver::{apply_stage1, apply_stage2, leaf_rhs, leaf_signal_dt};
use crate::regrid::{self, RegridPolicy, RegridProposal};
use crate::scenario::Scenario;
use amt::trace::{self, TraceCategory};
use amt::{when_all, Counter, GlobalId};
use gravity::multipole::Multipole;
use gravity::solver::{m2m_parallel, p2m_parallel, FmmSolver, GravityField};
use hydro::flux::StateVec;
use hydro::rotating::RotatingFrame;
use hydro::step::HydroStepper;
use octree::shard::ShardMap;
use octree::subgrid::{SubGrid, FIELD_COUNT, N_SUB};
use crate::checkpoint::{self, CheckpointBody, CHECKPOINT_VERSION};
use bytes::Bytes;
use octree::tree::Octree;
use parcelport::cluster::Cluster;
use parcelport::collectives::{self, Collectives};
use parcelport::parcel::{ActionHandle, ActionId, Parcel};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use util::morton::MortonKey;
use util::vec3::Vec3;
use util::{Error, Result};

/// Action carrying one leaf's interior cells to a neighbor shard.
pub const HALO_ACTION: ActionId = ActionId(0xD05);
/// Action broadcasting one leaf's P2M moments to every other shard.
pub const MOMENT_ACTION: ActionId = ActionId(0xD06);
/// Action broadcasting one locality's regrid proposal (refine/coarsen
/// votes over its owned leaves) to every other locality.
pub const REGRID_ACTION: ActionId = ActionId(0xD08);
/// Action shipping one leaf's interior cells to a locality newly
/// responsible for it during a shard rebalance.
pub const MIGRATE_ACTION: ActionId = ActionId(0xD09);

/// One leaf's grid on the wire (the halo push and the rebalance
/// migration): the tree's layout, the checkpoint's per-leaf payload —
/// all 14 fields of the interior, `f64` bit patterns preserved by the
/// codec, which rejects a payload of the wrong length in the handler,
/// so it never reaches a mirror. The receiver moves the grid into its
/// mirror. `epoch` stamps the sender's partition epoch: a receiver
/// whose partition has since moved on drops the parcel
/// deterministically (counted in `driver/stale_epoch_drops`) instead of
/// applying data routed by a stale owner map.
struct GridMsg {
    from: u32,
    epoch: u64,
    key: MortonKey,
    grid: SubGrid,
}

serde::impl_codec_struct!(GridMsg { from, epoch, key, grid });

/// One leaf's per-cell multipole moments on the wire (the FMM boundary
/// exchange). Epoch-stamped like [`GridMsg`].
struct MomentMsg {
    from: u32,
    epoch: u64,
    key: MortonKey,
    cells: Vec<Multipole>,
}

serde::impl_codec_struct!(MomentMsg { from, epoch, key, cells });

/// One locality's regrid votes on the wire (the proposal collective).
struct RegridMsg {
    from: u32,
    epoch: u64,
    refine: Vec<MortonKey>,
    cold: Vec<MortonKey>,
}

serde::impl_codec_struct!(RegridMsg { from, epoch, refine, cold });

/// One typed exchange channel: the action peers send through, the
/// per-locality inboxes its handler stashes accepted messages in, and
/// the traffic it has put on the fabric.
///
/// Inbox pattern: handlers only stash decoded messages; the host applies
/// them post-quiescence, so no handler ever touches a mirror and
/// `Arc::get_mut` never races a task.
struct Channel<T> {
    action: ActionHandle<T>,
    inbox: Arc<Vec<Mutex<Vec<T>>>>,
    parcels_tx: Counter,
    bytes_tx: Counter,
}

/// The standing step memory of one owned leaf: the RHS its stage task
/// writes and the pre-step grid the RK2 final stage averages with, a
/// leaf grid that stage 1 copies over. Each is overwritten whole before
/// it is read within a step, so a buffer belongs to no leaf in
/// particular: slot `i` of a locality serves `shard.owned(loc)[i]` for
/// the step at hand, and a new owned set changes only how many slots a
/// locality holds (`stage_rhs` re-counts them). They are made on a
/// run's first step, not at construction: a freshly built driver has
/// touched none of that memory.
struct StageBuffers {
    rhs: Vec<StateVec>,
    prev: SubGrid,
}

impl StageBuffers {
    fn new() -> StageBuffers {
        StageBuffers { rhs: vec![[0.0; FIELD_COUNT]; N_SUB.pow(3)], prev: SubGrid::new() }
    }
}

/// Where one message of an exchange round goes.
#[derive(Clone, Copy)]
enum Dest {
    /// Every locality but the sender.
    Peers,
    /// One locality.
    One(u32),
}

/// The distributed TVD-RK2 driver: one octree shard per locality,
/// exchanged over the cluster's transport.
pub struct DistributedDriver {
    cluster: Arc<Cluster>,
    coll: Arc<Collectives>,
    shard: ShardMap,
    /// `push_plan[src][dst]` = leaves `src` ships to `dst` per exchange.
    push_plan: Vec<BTreeMap<u32, Vec<MortonKey>>>,
    /// Per-locality full-tree mirrors, with an interior-only grid on
    /// every leaf and none on a refined node
    /// ([`Octree::check_leaf_grids`]); only a mirror's *owned* leaves
    /// are authoritative, the rest hold the grids last pushed to it.
    mirrors: Vec<Arc<Octree>>,
    /// `stage[loc][i]` is the step memory of `shard.owned(loc)[i]`: a
    /// steady-state step allocates no RHS and no stage grid.
    stage: Vec<Vec<StageBuffers>>,
    halo: Channel<GridMsg>,
    moment: Channel<MomentMsg>,
    regrid: Channel<RegridMsg>,
    migrate: Channel<GridMsg>,
    /// Current partition epoch, shared with the action handlers so a
    /// stale-epoch parcel is dropped at the door.
    epoch: Arc<AtomicU64>,
    /// AGAS ids of the per-shard owner components (resident on their
    /// locality, recorded as remote everywhere else).
    shard_ids: Vec<GlobalId>,
    pub config: Config,
    stepper: HydroStepper,
    solver: Option<Arc<FmmSolver>>,
    frame: RotatingFrame,
    /// Simulated time (code units).
    pub time: f64,
    /// Steps taken.
    pub steps: u64,
    /// Sub-grids processed (leaves × steps) — the paper's throughput
    /// metric.
    pub subgrids_processed: u64,
    /// dt of every completed step, in order (checkpointed, so a
    /// restored run's per-step dts line up with the uninterrupted one).
    pub dt_history: Vec<f64>,
    /// Last id handed to a collective (reductions and barriers).
    seq: AtomicU64,
    stale_epoch_drops: Counter,
    regrids: Counter,
    rebalances: Counter,
    migrated_leaves: Counter,
}

/// Construction of a [`DistributedDriver`] from what a [`Config`]
/// cannot say: the scenario (which carries the `Config`, the run's only
/// configuration), the cluster to run on, and the skewed-start test
/// hook.
pub struct DistributedDriverBuilder {
    scenario: Scenario,
    cluster: Arc<Cluster>,
    skew_first_shard_permille: Option<u32>,
}

impl DistributedDriverBuilder {
    /// Start from a deliberately skewed SFC partition (the first shard
    /// takes `permille`/1000 of the leaves) instead of the balanced
    /// one — the load-imbalance injection hook for rebalancing tests
    /// and the benchmark's `core.rebalance_ms` rung.
    pub fn skewed_partition(mut self, permille: u32) -> Self {
        self.skew_first_shard_permille = Some(permille);
        self
    }

    /// Validate the scenario's [`Config`] and construct the driver.
    pub fn build(self) -> Result<DistributedDriver> {
        DistributedDriver::from_builder(self)
    }
}

impl DistributedDriver {
    /// Start a build of the driver that runs `scenario` on `cluster`.
    pub fn builder(scenario: Scenario, cluster: Arc<Cluster>) -> DistributedDriverBuilder {
        DistributedDriverBuilder { scenario, cluster, skew_first_shard_permille: None }
    }

    /// Register `id` on every locality of `cluster` as an exchange
    /// channel whose traffic is counted under `parcels_tx`/`bytes_tx`.
    /// The handler first checks the sender's partition epoch
    /// (`epoch_of`) against the current one and drops stale traffic
    /// deterministically, counting it in `stale`.
    fn open_channel<T>(
        cluster: &Cluster,
        id: ActionId,
        epoch_of: fn(&T) -> u64,
        epoch: &Arc<AtomicU64>,
        stale: &Counter,
        parcels_tx: &str,
        bytes_tx: &str,
    ) -> Channel<T>
    where
        T: for<'de> Deserialize<'de> + Send + 'static,
    {
        let inbox: Arc<Vec<Mutex<Vec<T>>>> =
            Arc::new((0..cluster.len()).map(|_| Mutex::new(Vec::new())).collect());
        let action = {
            let (inbox, epoch, stale) = (Arc::clone(&inbox), Arc::clone(epoch), stale.clone());
            cluster.register_action(id, move |rt, component, msg: T| {
                debug_assert!(rt.agas().is_local(component), "{id:?} parcel landed off-shard");
                if epoch_of(&msg) != epoch.load(Ordering::SeqCst) {
                    stale.increment();
                    return;
                }
                inbox[rt.locality() as usize].lock().expect("inbox poisoned").push(msg);
            })
        };
        let m = cluster.metrics();
        Channel { action, inbox, parcels_tx: m.counter(parcels_tx), bytes_tx: m.counter(bytes_tx) }
    }

    /// Register each shard's owner component on its locality and record
    /// it as remote on every other, so parcels address a resolvable
    /// global id rather than a raw rank.
    fn register_shards(cluster: &Arc<Cluster>, shard: &ShardMap) -> Vec<GlobalId> {
        let n = cluster.len();
        let mut shard_ids = Vec::with_capacity(n);
        for loc in 0..n {
            let owned: Vec<MortonKey> = shard.owned(loc as u32).to_vec();
            let id = cluster.locality(loc).runtime().agas().register(Arc::new(owned));
            shard_ids.push(id);
        }
        for loc in 0..n {
            for (owner, &id) in shard_ids.iter().enumerate() {
                if owner != loc {
                    cluster.locality(loc).runtime().agas().record_remote(id, owner as u32);
                }
            }
        }
        shard_ids
    }

    fn from_builder(b: DistributedDriverBuilder) -> Result<DistributedDriver> {
        let DistributedDriverBuilder { scenario, cluster, skew_first_shard_permille } = b;
        let config = scenario.config;
        config.validate()?;
        // Nothing reads a refined node's grid or a leaf's ghost ring; a
        // tree handed in restricted or halo-filled (a test fixture, a
        // seeded benchmark input) keeps one copy of the state, on its
        // leaves.
        let mut tree = scenario.tree;
        tree.keep_leaf_interiors();
        let n = cluster.len();
        let shard = match skew_first_shard_permille {
            Some(permille) => ShardMap::partition_skewed(&tree, n, permille)?,
            None => ShardMap::partition(&tree, n)?,
        };
        let push_plan = shard.halo_push_plan(&tree);
        // The scenario tree itself becomes the last mirror: n − 1
        // copies, none on one locality.
        let mut mirrors: Vec<Arc<Octree>> = (1..n).map(|_| Arc::new(tree.clone())).collect();
        mirrors.push(Arc::new(tree));
        let shard_ids = Self::register_shards(&cluster, &shard);

        let m = cluster.metrics();
        let epoch = Arc::new(AtomicU64::new(shard.epoch()));
        let stale_epoch_drops = m.counter("driver/stale_epoch_drops");
        let halo = Self::open_channel(
            &cluster,
            HALO_ACTION,
            |m: &GridMsg| m.epoch,
            &epoch,
            &stale_epoch_drops,
            "driver/halo/parcels_tx",
            "driver/halo/bytes_tx",
        );
        let moment = Self::open_channel(
            &cluster,
            MOMENT_ACTION,
            |m: &MomentMsg| m.epoch,
            &epoch,
            &stale_epoch_drops,
            "driver/moments/parcels_tx",
            "driver/moments/bytes_tx",
        );
        let regrid = Self::open_channel(
            &cluster,
            REGRID_ACTION,
            |m: &RegridMsg| m.epoch,
            &epoch,
            &stale_epoch_drops,
            "driver/regrid/parcels_tx",
            "driver/regrid/bytes_tx",
        );
        let migrate = Self::open_channel(
            &cluster,
            MIGRATE_ACTION,
            |m: &GridMsg| m.epoch,
            &epoch,
            &stale_epoch_drops,
            "driver/migrated_parcels",
            "driver/migrated_bytes",
        );
        let coll = Collectives::register(&cluster);

        let driver = DistributedDriver {
            stage: Vec::new(),
            stale_epoch_drops,
            regrids: m.counter("driver/regrids"),
            rebalances: m.counter("driver/rebalances"),
            migrated_leaves: m.counter("driver/migrated_leaves"),
            cluster,
            coll,
            shard,
            push_plan,
            mirrors,
            halo,
            moment,
            regrid,
            migrate,
            epoch,
            shard_ids,
            config,
            stepper: HydroStepper::new(config.eos),
            solver: config.gravity.then(|| {
                Arc::new(
                    FmmSolver::new(config.theta)
                        .with_aggregation(config.fmm_agg_slots, config.fmm_agg_window),
                )
            }),
            frame: RotatingFrame::new(config.omega),
            time: 0.0,
            steps: 0,
            subgrids_processed: 0,
            dt_history: Vec::new(),
            seq: AtomicU64::new(0),
        };
        driver.debug_check_mirrors();
        Ok(driver)
    }

    /// [`Octree::check_leaf_grids`] on every mirror, in debug builds.
    fn debug_check_mirrors(&self) {
        if cfg!(debug_assertions) {
            self.mirrors.iter().for_each(|mirror| mirror.check_leaf_grids());
        }
    }

    /// The cluster this driver runs over.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// The leaf → locality assignment.
    pub fn shard_map(&self) -> &ShardMap {
        &self.shard
    }

    /// The current partition epoch (bumped by every regrid-repartition
    /// and rebalance).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Owned-leaf imbalance of the current partition, permille over
    /// perfectly balanced (0 = balanced).
    pub fn imbalance_permille(&self) -> u64 {
        self.shard.imbalance_permille()
    }

    /// Parcels dropped because they carried a stale partition epoch
    /// (also published as the `driver/stale_epoch_drops` metric).
    pub fn stale_epoch_drops(&self) -> u64 {
        self.stale_epoch_drops.get()
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Locality `loc`'s full-tree mirror (see the `mirrors` field).
    pub(crate) fn mirror(&self, loc: usize) -> &Octree {
        &self.mirrors[loc]
    }

    /// [`DistributedDriver::mirror`], mutably.
    pub(crate) fn mirror_mut(&mut self, loc: usize) -> &mut Octree {
        exclusive(&mut self.mirrors[loc])
    }

    /// One exchange round on `ch`: every `(src, dest, msg)` of `sends`
    /// is encoded once and sent from `src` to `dest`; the cluster
    /// quiesces; then each locality's inbox is drained, checked against
    /// the number of parcels addressed to it — a parcel lost, dropped
    /// as stale or delivered twice is an error here, not a silent hole —
    /// and returned sorted by `key`, so the caller applies the messages
    /// in an order that never depends on arrival. `sends` is only
    /// pulled when there is a peer to send to, so a one-locality run
    /// builds and encodes nothing.
    fn exchange<T: Serialize, K: Ord>(
        &self,
        ch: &Channel<T>,
        what: &str,
        sends: impl Iterator<Item = (usize, Dest, T)>,
        key: impl Fn(&T) -> K,
    ) -> Result<Vec<Vec<T>>> {
        let n = self.cluster.len();
        let mut expected = vec![0usize; n];
        if n > 1 {
            for (src, dest, msg) in sends {
                // Serialize once; every destination shares the same
                // (cheaply cloned) buffer.
                let payload = ch.action.encode(&msg)?;
                let dests = match dest {
                    Dest::Peers => 0..n as u32,
                    Dest::One(dst) => dst..dst + 1,
                };
                for dst in dests.filter(|&dst| dst as usize != src) {
                    ch.parcels_tx.increment();
                    ch.bytes_tx.add((Parcel::HEADER_BYTES + payload.len()) as u64);
                    expected[dst as usize] += 1;
                    self.cluster.locality(src).send_encoded(
                        ch.action,
                        dst,
                        self.shard_ids[dst as usize],
                        payload.clone(),
                    )?;
                }
            }
        }
        self.cluster.try_wait_quiescent()?;
        let mut inbound = Vec::with_capacity(n);
        for (loc, &expected) in expected.iter().enumerate() {
            let mut msgs = std::mem::take(&mut *ch.inbox[loc].lock().expect("inbox poisoned"));
            if msgs.len() != expected {
                return Err(Error::Driver(format!(
                    "locality {loc} received {} {what}, expected {expected}",
                    msgs.len()
                )));
            }
            msgs.sort_by_key(&key);
            inbound.push(msgs);
        }
        Ok(inbound)
    }

    /// Ship the grid of every `(src, dest, leaf)` of `plan` over
    /// `channel` (the halo or the migrate one) and move what arrives
    /// into the receiving mirrors' leaves, where the RHS tasks gather
    /// ghosts from.
    fn push_interiors(
        &mut self,
        channel: fn(&Self) -> &Channel<GridMsg>,
        what: &str,
        plan: Vec<(usize, Dest, MortonKey)>,
    ) -> Result<()> {
        let epoch = self.epoch();
        let sends = plan.into_iter().map(|(src, dest, key)| {
            let grid = self.mirrors[src].node(key).expect("planned leaf").grid.clone();
            (src, dest, GridMsg { from: src as u32, epoch, key, grid: grid.expect("grid") })
        });
        let inbound = self.exchange(channel(self), what, sends, |m| m.key)?;
        for (loc, msgs) in inbound.into_iter().enumerate() {
            let tree = self.mirror_mut(loc);
            for msg in msgs {
                let node = tree.node_mut(msg.key).filter(|node| !node.refined).ok_or_else(|| {
                    Error::Driver(format!("{:?} is no leaf of mirror {loc}", msg.key))
                })?;
                node.grid = Some(msg.grid);
            }
        }
        Ok(())
    }

    /// Swap in a successor partition: rebuild the halo plan,
    /// re-register the per-shard AGAS owner components (unregister the
    /// stale ids everywhere, register the new owned lists, record them
    /// remote), and publish the new epoch so in-flight traffic stamped
    /// with the old one is dropped.
    fn install_shard(&mut self, next: ShardMap) {
        let n = self.cluster.len();
        for &id in &self.shard_ids {
            for loc in 0..n {
                let _ = self.cluster.locality(loc).runtime().agas().unregister(id);
            }
        }
        self.shard_ids = Self::register_shards(&self.cluster, &next);
        self.push_plan = next.halo_push_plan(&self.mirrors[0]);
        self.epoch.store(next.epoch(), Ordering::SeqCst);
        self.shard = next;
    }

    /// The distributed regrid collective, run on the configured cadence
    /// at the top of [`DistributedDriver::step`]:
    ///
    /// 1. every locality evaluates the policy over its *owned* leaves
    ///    only (the authoritative ones) — [`regrid::propose`];
    /// 2. proposals are broadcast as [`REGRID_ACTION`] parcels and
    ///    merged identically everywhere ([`RegridProposal::merge`]);
    /// 3. if the merged proposal is provably a no-op
    ///    ([`regrid::proposal_is_trivial`], a topology-only check every
    ///    full-tree mirror answers identically) the phase ends — no
    ///    broadcast, no epoch bump;
    /// 4. otherwise every owner ships every owned leaf's interior to
    ///    every other mirror ([`HALO_ACTION`]) and each mirror runs the
    ///    very same serial [`regrid::regrid`], which reads leaves only
    ///    (refine prolongs the leaf's own grid, coarsen restricts its
    ///    children's) — identical inputs, identical trees, whatever the
    ///    partition;
    /// 5. the new tree is repartitioned ([`ShardMap::repartition`],
    ///    successor epoch) and installed — no migration parcels needed,
    ///    the broadcast already put every leaf everywhere.
    fn regrid_phase(&mut self, policy: &RegridPolicy) -> Result<()> {
        let _span = trace::span_labeled(TraceCategory::Custom, || "regrid".to_string());
        let n = self.cluster.len();
        let epoch = self.epoch();

        // 1. Local proposals over owned leaves.
        let proposals: Vec<RegridProposal> = (0..n)
            .map(|loc| regrid::propose(&self.mirrors[loc], policy, self.shard.owned(loc as u32)))
            .collect();

        // 2. Proposal collective: all-to-all broadcast, merge by
        //    contents (never arrival order).
        let sends = proposals.iter().enumerate().map(|(src, p)| {
            let (refine, cold) = (p.refine.clone(), p.cold.clone());
            (src, Dest::Peers, RegridMsg { from: src as u32, epoch, refine, cold })
        });
        let inbound = self.exchange(&self.regrid, "regrid proposals", sends, |m| m.from)?;
        let mut merged_per_loc: Vec<RegridProposal> = inbound
            .into_iter()
            .zip(&proposals)
            .map(|(msgs, own)| {
                let parts: Vec<RegridProposal> = msgs
                    .into_iter()
                    .map(|m| RegridProposal { refine: m.refine, cold: m.cold })
                    .collect();
                RegridProposal::merge(parts.iter().chain([own]))
            })
            .collect();
        let merged = merged_per_loc.pop().expect("at least one locality");
        debug_assert!(
            merged_per_loc.iter().all(|m| *m == merged),
            "proposal merge must be locality-independent"
        );

        // 3. Quiet-step fast path: every mirror sees the same topology
        //    and the same merged votes, so the triviality answer is
        //    identical everywhere — skip the broadcast and keep the
        //    epoch.
        if regrid::proposal_is_trivial(&self.mirrors[0], &merged) {
            return Ok(());
        }

        // 4. Full interior broadcast: after this every mirror holds the
        //    complete authoritative state, so the mirrored regrid (and
        //    the repartition that follows, whatever it is) are safe.
        let owned = (0..n)
            .flat_map(|src| {
                self.shard.owned(src as u32).iter().map(move |&key| (src, Dest::Peers, key))
            })
            .collect();
        self.push_interiors(|d| &d.halo, "regrid interiors", owned)?;
        for loc in 0..n {
            regrid::regrid(self.mirror_mut(loc), policy);
        }

        // 5. Repartition the regridded tree and re-home ownership.
        let next = self.shard.repartition(&self.mirrors[0], n)?;
        self.install_shard(next);
        self.regrids.increment();
        self.debug_check_mirrors();
        Ok(())
    }

    /// Rebalance the partition *without* touching the tree: repartition
    /// the current leaves into balanced SFC chunks (successor epoch)
    /// and migrate exactly the data each locality is newly responsible
    /// for, as [`MIGRATE_ACTION`] parcels carrying the checkpoint's
    /// per-leaf payload. A locality needs fresh interiors for its
    /// owned leaves and its inbound halo-plan sources; everything it
    /// already holds fresh (previous owned set + what the last interior
    /// exchange pushed) is not re-sent. Pure ownership movement — no
    /// leaf value changes — so the numerics are untouched by
    /// construction.
    ///
    /// Returns the number of leaves whose owner changed.
    pub fn rebalance(&mut self) -> Result<usize> {
        let _span = trace::span_labeled(TraceCategory::Custom, || "rebalance".to_string());
        let n = self.cluster.len();
        let next = self.shard.repartition(&self.mirrors[0], n)?;
        let moves = self.shard.migration_plan(&next);
        if moves.is_empty() {
            // Nothing would change hands; keep the current epoch.
            return Ok(0);
        }
        let next_plan = next.halo_push_plan(&self.mirrors[0]);

        // What each locality will need fresh under the new partition…
        let mut need: Vec<BTreeSet<MortonKey>> = (0..n)
            .map(|loc| next.owned(loc as u32).iter().copied().collect())
            .collect();
        for by_dst in &next_plan {
            for (&dst, keys) in by_dst {
                need[dst as usize].extend(keys.iter().copied());
            }
        }
        // …minus what it already holds fresh under the old one.
        let mut have: Vec<BTreeSet<MortonKey>> = (0..n)
            .map(|loc| self.shard.owned(loc as u32).iter().copied().collect())
            .collect();
        for by_dst in &self.push_plan {
            for (&dst, keys) in by_dst {
                have[dst as usize].extend(keys.iter().copied());
            }
        }

        // Migrate: the *old* owner is authoritative, parcels carry the
        // new epoch (published first, so the handlers accept them and
        // reject any stale-epoch stragglers).
        self.epoch.store(next.epoch(), Ordering::SeqCst);
        let mut plan = Vec::new();
        for dst in 0..n {
            for &key in need[dst].difference(&have[dst]) {
                let src = self.shard.owner(key)? as usize;
                debug_assert_ne!(src, dst, "old owner already holds its own leaf");
                plan.push((src, Dest::One(dst as u32), key));
            }
        }
        self.push_interiors(|d| &d.migrate, "migrated leaves", plan)?;
        self.migrated_leaves.add(moves.len() as u64);
        self.install_shard(next);
        self.rebalances.increment();
        self.debug_check_mirrors();
        Ok(moves.len())
    }

    /// Elastic grow/shrink: continue this run on a *different* cluster
    /// (any locality count, either transport) by cutting a checkpoint
    /// and restoring it onto the new cluster — the same leaves-not-
    /// shards blob that makes checkpoints cluster-shape-agnostic makes
    /// the live rescale bit-identical. The new driver starts a fresh
    /// epoch sequence (epochs are per-cluster, scoped to one action
    /// space).
    pub fn rescale_onto(&self, cluster: Arc<Cluster>) -> Result<DistributedDriver> {
        let blob = self.checkpoint()?;
        let scenario = Scenario {
            name: "rescaled",
            tree: self.assemble(),
            config: self.config,
            binary: None,
        };
        DistributedDriver::restore(scenario, cluster, &blob)
    }

    /// The global CFL time step of the current state: one task per owned
    /// leaf, launched on *all* localities first, then collected, as the
    /// stage RHS and apply are. Each shard folds its dts in SFC
    /// order and the minima are min-reduced over the wire — bit-equal to
    /// the global ordered fold because `f64::min` is associative on the
    /// positive finite dts.
    pub fn compute_dt(&self) -> Result<f64> {
        let _span = trace::span(TraceCategory::DtReduce);
        let (stepper, cfl) = (self.stepper, self.config.cfl);
        let pending: Vec<(_, Vec<_>)> = (0..self.cluster.len())
            .map(|loc| {
                let (rt, tree) = (self.cluster.locality(loc).runtime(), &self.mirrors[loc]);
                let futs = self.shard.owned(loc as u32).iter().map(|&key| {
                    let tree = Arc::clone(tree);
                    rt.async_call(move || leaf_signal_dt(&tree, key, stepper, cfl))
                });
                (rt.scheduler(), futs.collect())
            })
            .collect();
        let local_dts: Vec<f64> = pending
            .into_iter()
            .map(|(sched, futs)| when_all(sched, futs).get_help(sched))
            .map(|dts| dts.into_iter().fold(f64::INFINITY, f64::min))
            .collect();
        let seq = self.next_seq();
        collectives::allreduce_wire(&self.cluster, &self.coll, seq, &local_dts, f64::min)
    }

    /// The gravitational field of the current state, one per locality
    /// over the leaves it owns (`None` when gravity is off). Every
    /// locality P2Ms its owned leaves, broadcasts
    /// them as [`MOMENT_ACTION`] parcels, completes the moment tree from
    /// what it receives (merge by key, then M2M), and runs the
    /// restricted FMM walk over its own targets only.
    pub fn solve_gravity(&self) -> Result<Vec<Option<Arc<GravityField>>>> {
        let n = self.cluster.len();
        let Some(solver) = &self.solver else {
            return Ok(vec![None; n]);
        };
        let exchange_span = trace::span(TraceCategory::MomentExchange);
        let own: Vec<_> = (0..n)
            .map(|loc| {
                let rt = self.cluster.locality(loc).runtime();
                p2m_parallel(&self.mirrors[loc], self.shard.owned(loc as u32), rt)
            })
            .collect();
        let epoch = self.epoch();
        let sends = (0..n).flat_map(|src| {
            let own = &own[src];
            self.shard.owned(src as u32).iter().map(move |&key| {
                let cells = own[&key].as_ref().clone();
                (src, Dest::Peers, MomentMsg { from: src as u32, epoch, key, cells })
            })
        });
        let inbound = self.exchange(&self.moment, "moment messages", sends, |m| m.key)?;
        drop(exchange_span);
        let _solve_span = trace::span(TraceCategory::GravitySolve);
        let mut fields = Vec::with_capacity(n);
        for (loc, (mut leaf_map, msgs)) in own.into_iter().zip(inbound).enumerate() {
            leaf_map.extend(msgs.into_iter().map(|msg| (msg.key, Arc::new(msg.cells))));
            if leaf_map.len() != self.shard.n_leaves() {
                return Err(Error::Driver(format!(
                    "locality {loc} assembled {} leaf moments, expected {}",
                    leaf_map.len(),
                    self.shard.n_leaves()
                )));
            }
            let rt = self.cluster.locality(loc).runtime();
            let moments = Arc::new(m2m_parallel(&self.mirrors[loc], leaf_map, rt));
            let field = solver.solve_restricted_parallel(
                &self.mirrors[loc],
                &moments,
                self.shard.owned(loc as u32),
                rt,
            );
            fields.push(Some(Arc::new(field)));
        }
        Ok(fields)
    }

    /// The full RHS of every shard's owned leaves for the current state,
    /// into their standing buffers: gravity solve, then one futurized
    /// RHS task per leaf, which gathers the leaf's ghosts from its own
    /// mirror's interiors first — launched on *all* localities first,
    /// then collected, so shards overlap. A task takes its leaf's buffer
    /// by move and hands it back through its future.
    fn stage_rhs(&mut self) -> Result<()> {
        let grav = self.solve_gravity()?;
        let (n, bc, stepper, frame) = (self.cluster.len(), self.config.bc, self.stepper, self.frame);
        // One slot per owned leaf: a no-op except on a run's first step
        // and after a regrid or rebalance changed the owned sets.
        self.stage.resize_with(n, Vec::new);
        let mut pending = Vec::with_capacity(n);
        for (loc, slots) in self.stage.iter_mut().enumerate() {
            let (rt, owned) = (self.cluster.locality(loc).runtime(), self.shard.owned(loc as u32));
            slots.resize_with(owned.len(), StageBuffers::new);
            let futs = owned.iter().zip(slots).map(|(&key, slot)| {
                let (tree, g) = (Arc::clone(&self.mirrors[loc]), grav[loc].clone());
                let mut rhs = std::mem::take(&mut slot.rhs);
                rt.async_call(move || {
                    let _span =
                        trace::span_labeled(TraceCategory::HydroRhs, || format!("{key:?}"));
                    leaf_rhs(&tree, key, bc, g.as_deref(), stepper, frame, &mut rhs);
                    rhs
                })
            });
            pending.push(futs.collect());
        }
        for (loc, futs) in pending.into_iter().enumerate() {
            let rt = self.cluster.locality(loc).runtime();
            let sched = Arc::clone(rt.scheduler());
            // `when_all` yields results in input order = slot order.
            let filled = when_all(&sched, futs).get_help(&sched);
            for (slot, rhs) in self.stage[loc].iter_mut().zip(filled) {
                slot.rhs = rhs;
            }
            // Tasks still hold mirror Arcs until fully retired; drain
            // them so the apply phase's Arc::get_mut cannot race.
            rt.wait_quiescent();
        }
        Ok(())
    }

    /// Push every cross-shard halo source's interior per the static
    /// plan, then apply inbound interiors sorted by key.
    fn exchange_interiors(&mut self) -> Result<()> {
        let _span = trace::span(TraceCategory::HaloExchange);
        let plan = self
            .push_plan
            .iter()
            .enumerate()
            .flat_map(|(src, by_dst)| {
                by_dst.iter().flat_map(move |(&dst, keys)| {
                    keys.iter().map(move |&key| (src, Dest::One(dst), key))
                })
            })
            .collect();
        self.push_interiors(|d| &d.halo, "halo messages", plan)
    }

    /// One stage update: `update(grid, stage, origin, dx)` as one task
    /// per owned leaf — launched on *all* localities first, then
    /// collected, like [`DistributedDriver::stage_rhs`]. A task owns its
    /// leaf's grid, taken out of the mirror, and its stage slot, taken
    /// out of the locality's slots, and hands both back through its
    /// future (`origin`/`dx` locate the leaf for the floors' spin-ledger
    /// deposit).
    fn update_owned_grids(
        &mut self,
        update: impl Fn(&mut SubGrid, &mut StageBuffers, Vec3, f64) + Copy + Send + 'static,
    ) {
        let mut pending = Vec::with_capacity(self.cluster.len());
        for (loc, slots) in self.stage.iter_mut().enumerate() {
            let rt = self.cluster.locality(loc).runtime();
            let tree = exclusive(&mut self.mirrors[loc]);
            let domain = tree.domain();
            let slots = std::mem::take(slots);
            let futs = self.shard.owned(loc as u32).iter().zip(slots).map(|(&key, mut stage)| {
                let mut grid = tree.node_mut(key).and_then(|n| n.grid.take()).expect("leaf grid");
                let (origin, dx) = (domain.node_origin(key), domain.cell_dx(key.level));
                rt.async_call(move || {
                    let _span =
                        trace::span_labeled(TraceCategory::HydroApply, || format!("{key:?}"));
                    update(&mut grid, &mut stage, origin, dx);
                    (grid, stage)
                })
            });
            pending.push(futs.collect());
        }
        for (loc, futs) in pending.into_iter().enumerate() {
            let sched = Arc::clone(self.cluster.locality(loc).runtime().scheduler());
            let tree = exclusive(&mut self.mirrors[loc]);
            let done = when_all(&sched, futs).get_help(&sched);
            let slots = &mut self.stage[loc];
            for (&key, (grid, stage)) in self.shard.owned(loc as u32).iter().zip(done) {
                tree.node_mut(key).expect("leaf").grid = Some(grid);
                slots.push(stage);
            }
        }
    }

    /// Advance one TVD-RK2 step; returns the dt taken.
    ///
    /// Phases: cadence-driven regrid collective → distributed CFL
    /// min-reduce → moment exchange + restricted FMM → stage-1 RHS (each
    /// leaf's task gathers its own ghosts) → stage-1 apply (a task per
    /// leaf) → interior exchange → moment exchange + FMM → stage-2
    /// RHS/apply → interior exchange → quiescence barrier. No phase
    /// fills or reads the mirrors' ghost cells.
    /// [`DistributedDriver::rebalance`] is never called from here: every
    /// partition a run installs itself is the balanced one.
    pub fn step(&mut self) -> Result<f64> {
        let _step_span =
            trace::span_labeled(TraceCategory::Step, || format!("step {}", self.steps));
        // Regrid first, on the configured cadence.
        if let Some(policy) = self.config.regrid {
            let cadence = self.config.regrid_cadence as u64;
            if cadence > 0 && self.steps > 0 && self.steps % cadence == 0 {
                self.regrid_phase(&policy)?;
            }
        }
        let (floors, stepper) = (self.config.floors, self.stepper);
        let dt = self.compute_dt()?;
        if !(dt.is_finite() && dt > 0.0) {
            return Err(Error::Driver(format!("CFL produced dt = {dt}")));
        }

        // Stage 1 (forward Euler); keeps the pre-update interiors the
        // RK2 final stage needs.
        self.stage_rhs()?;
        self.update_owned_grids(move |grid, stage, origin, dx| {
            apply_stage1(stepper, grid, &mut stage.prev, &stage.rhs, dt, floors, origin, dx);
        });
        self.exchange_interiors()?;

        // Stage 2 (TVD-RK2 average).
        self.stage_rhs()?;
        self.update_owned_grids(move |grid, stage, origin, dx| {
            apply_stage2(stepper, grid, &stage.prev, &stage.rhs, dt, floors, origin, dx);
        });
        self.exchange_interiors()?;

        // Per-step quiescence barrier: every locality checks in and the
        // fabric drains before the step is declared done.
        {
            let _span = trace::span(TraceCategory::Barrier);
            collectives::barrier(&self.cluster, &self.coll, self.next_seq())?;
        }

        self.time += dt;
        self.steps += 1;
        self.subgrids_processed += self.shard.n_leaves() as u64;
        self.dt_history.push(dt);
        Ok(dt)
    }

    /// Run `n` steps (or until `t_end`); returns the time advanced.
    pub fn run(&mut self, n: usize, t_end: f64) -> Result<f64> {
        let t0 = self.time;
        for _ in 0..n {
            if self.time >= t_end {
                break;
            }
            self.step()?;
        }
        Ok(self.time - t0)
    }

    /// Gather the owned leaves of every shard into one global tree
    /// (grids cloned whole, none on a refined node) — bitwise
    /// comparable to the reference `Simulation`'s tree.
    pub fn assemble(&self) -> Octree {
        let mut out = (*self.mirrors[0]).clone();
        for shard in 0..self.shard.n_shards() {
            for &key in self.shard.owned(shard as u32) {
                let grid = self.mirrors[shard]
                    .node(key)
                    .expect("leaf")
                    .grid
                    .clone()
                    .expect("grid");
                out.node_mut(key).expect("leaf").grid = Some(grid);
            }
        }
        out
    }

    /// Snapshot the global simulation state into a versioned,
    /// digest-protected blob (see [`crate::checkpoint`]). Cut between
    /// steps — typically right after a successful
    /// [`DistributedDriver::step`]; the caller keeps the blob wherever
    /// it likes (memory, disk) and hands it back to
    /// [`DistributedDriver::restore`].
    pub fn checkpoint(&self) -> Result<Bytes> {
        let total = self.shard.n_leaves();
        let mut keys = Vec::with_capacity(total);
        let mut interiors = Vec::with_capacity(total);
        for shard in 0..self.shard.n_shards() {
            for &key in self.shard.owned(shard as u32) {
                let grid = self.mirrors[shard]
                    .node(key)
                    .ok_or_else(|| {
                        Error::Checkpoint(format!("{key:?} missing from mirror {shard}"))
                    })?
                    .grid
                    .as_ref()
                    .ok_or_else(|| Error::Checkpoint(format!("{key:?} has no grid")))?;
                keys.push(key);
                interiors.push(grid.clone());
            }
        }
        checkpoint::encode(&CheckpointBody {
            version: CHECKPOINT_VERSION,
            steps: self.steps,
            time: self.time,
            seq: self.seq.load(Ordering::SeqCst),
            subgrids_processed: self.subgrids_processed,
            dt_history: self.dt_history.clone(),
            keys,
            interiors,
        })
    }

    /// Resurrect a driver from `blob` on a *fresh* `cluster`.
    ///
    /// The cluster may have a different locality count than the one
    /// that wrote the checkpoint: the blob stores leaves, not shards,
    /// so the leaves are simply repartitioned over whatever localities
    /// exist — this is how a crashed locality's shards are re-adopted
    /// by the survivors. `scenario` must be the same scenario the
    /// checkpointed run was built from (same tree topology and config);
    /// its leaf data is overwritten by the checkpoint. The restored
    /// state is bit-identical to the writer's at the moment of the
    /// snapshot, so continuing the run reproduces the uninterrupted
    /// run's per-step dts and grids exactly.
    pub fn restore(
        scenario: Scenario,
        cluster: Arc<Cluster>,
        blob: &Bytes,
    ) -> Result<DistributedDriver> {
        let body = checkpoint::decode(blob)?;
        let stored: BTreeSet<MortonKey> = body.keys.iter().copied().collect();
        let mut scenario = scenario;
        // A regrid-enabled run's tree topology drifts from the
        // scenario's initial one; the checkpoint's key set *is* the
        // topology at the cut, so rebuild it (refine-only from the
        // root — any valid balanced leaf set is reachable that way).
        // Static-tree scenarios skip this, so a genuinely mismatched
        // scenario is still rejected below.
        if scenario.config.regrid.is_some() {
            let have: BTreeSet<MortonKey> = scenario.tree.leaves().into_iter().collect();
            if have != stored {
                scenario.tree = rebuild_topology(scenario.tree.domain(), &stored)?;
            }
        }
        let mut driver = DistributedDriver::builder(scenario, cluster).build()?;
        let have: BTreeSet<MortonKey> = driver.mirrors[0].leaves().into_iter().collect();
        if have != stored {
            return Err(Error::Checkpoint(format!(
                "leaf set mismatch: scenario has {} leaves, checkpoint stores {}",
                have.len(),
                stored.len()
            )));
        }
        // Every mirror gets the full global state: owned leaves become
        // authoritative, the rest hold exactly what the interior
        // exchange would have pushed — all a step reads, since each RHS
        // task gathers its leaf's ghosts from these grids. The key sets
        // match, so every key is a leaf of every mirror.
        for (loc, mirror) in driver.mirrors.iter_mut().enumerate() {
            let tree = exclusive(mirror);
            for (key, grid) in body.keys.iter().zip(&body.interiors) {
                let node = tree.node_mut(*key).ok_or_else(|| {
                    Error::Checkpoint(format!("{key:?} missing from mirror {loc}"))
                })?;
                node.grid = Some(grid.clone());
            }
        }
        driver.debug_check_mirrors();
        driver.steps = body.steps;
        driver.time = body.time;
        driver.seq = AtomicU64::new(body.seq);
        driver.subgrids_processed = body.subgrids_processed;
        driver.dt_history = body.dt_history;
        Ok(driver)
    }
}

/// Exclusive access to a mirror. Between phases no task holds a
/// reference to one: every futurized phase ends with its runtime
/// quiescent.
fn exclusive(mirror: &mut Arc<Octree>) -> &mut Octree {
    Arc::get_mut(mirror).expect("no outstanding mirror references between phases")
}

/// Rebuild a tree whose leaf set is exactly `keys`, refine-only from
/// the root. Any leaf set cut from a live (2:1-balanced) tree is
/// reachable this way; an unreachable set fails with
/// [`Error::Checkpoint`] instead of restoring garbage.
fn rebuild_topology(
    domain: octree::geometry::Domain,
    keys: &BTreeSet<MortonKey>,
) -> Result<Octree> {
    let mut tree = Octree::new(domain);
    for &key in keys {
        let mut chain = Vec::new();
        let mut k = key;
        while let Some(p) = k.parent() {
            chain.push(p);
            k = p;
        }
        for &ancestor in chain.iter().rev() {
            if tree.is_leaf(ancestor) {
                tree.refine(ancestor);
            }
        }
    }
    let got: BTreeSet<MortonKey> = tree.leaves().into_iter().collect();
    if got != *keys {
        return Err(Error::Checkpoint(format!(
            "checkpoint key set is not a reachable topology ({} leaves rebuilt, {} stored)",
            got.len(),
            keys.len()
        )));
    }
    Ok(tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Simulation;
    use octree::subgrid::{Field, ALL_FIELDS};
    use parcelport::netmodel::TransportKind;

    fn assert_trees_bit_identical(a: &Octree, b: &Octree) {
        assert_eq!(a.leaves(), b.leaves());
        for key in a.leaves() {
            let ga = a.node(key).unwrap().grid.as_ref().unwrap();
            let gb = b.node(key).unwrap().grid.as_ref().unwrap();
            for field in ALL_FIELDS {
                for (i, j, k) in ga.indexer().interior() {
                    assert_eq!(
                        ga.at(field, i, j, k).to_bits(),
                        gb.at(field, i, j, k).to_bits(),
                        "{key:?} {field:?} ({i},{j},{k})"
                    );
                }
            }
        }
    }

    #[test]
    fn two_localities_match_reference_on_sod() {
        let mut reference = Simulation::new(Scenario::sod(1));
        let cluster = Arc::new(
            Cluster::builder()
                .localities(2)
                .threads_per(2)
                .transport(TransportKind::Mpi)
                .build(),
        );
        let mut dist = DistributedDriver::builder(Scenario::sod(1), cluster).build().unwrap();
        for _ in 0..2 {
            let dt_ref = reference.step();
            let dt = dist.step().unwrap();
            assert_eq!(dt.to_bits(), dt_ref.to_bits());
        }
        assert_trees_bit_identical(&dist.assemble(), reference.tree());
        assert_eq!(dist.steps, 2);
        assert!(dist.subgrids_processed > 0);
        // Cross-shard halo traffic actually went over the wire.
        let m = dist.cluster().metrics();
        assert!(m.get("driver/halo/parcels_tx") > 0);
        assert!(m.get("driver/halo/bytes_tx") > 0);
        assert!(m.get("parcelport/mpi/parcels_tx") > 0);
    }

    #[test]
    fn single_locality_loopback_sends_nothing() {
        let cluster = Arc::new(Cluster::builder().threads_per(2).build());
        let mut dist = DistributedDriver::builder(Scenario::sod(1), cluster).build().unwrap();
        dist.step().unwrap();
        // One shard owns everything: the push plan is empty and no
        // parcels cross the fabric beyond the collectives' loopbacks.
        assert_eq!(dist.cluster().metrics().get("driver/halo/parcels_tx"), 0);
        let t = crate::diagnostics::totals(&dist.assemble(), None);
        assert!(t.mass > 0.0);
    }

    #[test]
    fn stale_epoch_parcel_is_dropped_not_applied() {
        let cluster = Arc::new(Cluster::builder().localities(2).build());
        let dist = DistributedDriver::builder(Scenario::sod(1), cluster).build().unwrap();
        let key = dist.shard.owned(1)[0];
        let send = |payload: Bytes| {
            dist.cluster
                .locality(0)
                .send_encoded(dist.halo.action, 1, dist.shard_ids[1], payload)
                .unwrap();
            dist.cluster.try_wait_quiescent().unwrap();
        };
        let handler_errors = || dist.cluster.transport().counters().get("handler_errors");
        // A halo parcel stamped with an epoch the receiver has never
        // seen must be counted and dropped, never applied.
        let grid = dist.mirrors[1].node(key).unwrap().grid.clone().unwrap();
        let stale = GridMsg { from: 0, epoch: 99, key, grid: grid.clone() };
        send(dist.halo.action.encode(&stale).unwrap());
        assert_eq!(dist.stale_epoch_drops(), 1);
        assert!(dist.halo.inbox[1].lock().unwrap().is_empty());
        // A current-epoch parcel whose grid is two cells long fails the
        // codec in the handler: counted there, never stashed.
        let mut w = serde::Writer::new();
        (0u32, dist.epoch(), key).serialize(&mut w);
        vec![1.0f64, 2.0].serialize(&mut w);
        send(Bytes::from(w.into_vec()));
        assert_eq!(handler_errors(), 1, "a short grid must fail decode");
        assert_eq!(dist.stale_epoch_drops(), 1);
        assert!(dist.halo.inbox[1].lock().unwrap().is_empty());
        // The same parcel at the current epoch is accepted.
        let fresh = GridMsg { from: 0, epoch: dist.epoch(), key, grid };
        send(dist.halo.action.encode(&fresh).unwrap());
        assert_eq!(dist.stale_epoch_drops(), 1, "current-epoch parcel must pass");
        assert_eq!(handler_errors(), 1);
        assert_eq!(dist.halo.inbox[1].lock().unwrap().drain(..).count(), 1);
    }

    #[test]
    fn rebalance_of_a_skewed_partition_migrates_and_stays_bit_identical() {
        let mut reference = Simulation::new(Scenario::sod(2));
        let cluster = Arc::new(Cluster::builder().localities(2).threads_per(2).build());
        let mut dist = DistributedDriver::builder(Scenario::sod(2), cluster)
            .skewed_partition(900)
            .build()
            .unwrap();
        assert!(dist.imbalance_permille() > 500, "skew must register as imbalance");
        reference.step();
        dist.step().unwrap();
        let epoch_before = dist.epoch();
        let moved = dist.rebalance().unwrap();
        assert!(moved >= 1, "rebalancing a 90/10 split must move leaves");
        assert_eq!(dist.epoch(), epoch_before + 1);
        assert!(dist.imbalance_permille() < 500);
        let m = dist.cluster().metrics();
        assert_eq!(m.get("driver/rebalances"), 1);
        assert!(m.get("driver/migrated_leaves") >= moved as u64);
        assert!(m.get("driver/migrated_bytes") > 0);
        // Ownership movement must not perturb the numerics.
        for _ in 0..2 {
            let dt_ref = reference.step();
            let dt = dist.step().unwrap();
            assert_eq!(dt.to_bits(), dt_ref.to_bits());
        }
        assert_trees_bit_identical(&dist.assemble(), reference.tree());
        assert_eq!(dist.stale_epoch_drops(), 0);
    }

    /// Where every stage slot's two buffers live.
    fn stage_pointers(d: &DistributedDriver) -> Vec<(*const StateVec, *const f64)> {
        d.stage
            .iter()
            .flatten()
            .map(|slot| (slot.rhs.as_ptr(), slot.prev.field(Field::Rho).as_ptr()))
            .collect()
    }

    fn assert_one_slot_per_owned_leaf(d: &DistributedDriver) {
        for (loc, slots) in d.stage.iter().enumerate() {
            assert_eq!(slots.len(), d.shard.owned(loc as u32).len(), "locality {loc}");
        }
    }

    /// A steady-state step allocates no RHS and no stage grid: the
    /// buffers the tasks took by move come back to the same slots, on
    /// the loopback driver and across two localities with gravity on.
    #[test]
    fn stage_buffers_stand_across_steps() {
        for (scenario, localities) in [(Scenario::sod(1), 1), (Scenario::mini_binary(2), 2)] {
            let name = scenario.name;
            let cluster =
                Arc::new(Cluster::builder().localities(localities).threads_per(2).build());
            let mut dist = DistributedDriver::builder(scenario, cluster).build().unwrap();
            assert!(dist.stage.is_empty(), "{name}: construction must not touch stage memory");
            dist.step().unwrap();
            assert_one_slot_per_owned_leaf(&dist);
            let standing = stage_pointers(&dist);
            assert_eq!(standing.len(), dist.shard.n_leaves());
            for step in 2..=4 {
                dist.step().unwrap();
                assert_eq!(stage_pointers(&dist), standing, "{name}: step {step} moved a buffer");
            }
        }
    }

    fn assert_grids_on_leaves_only(tree: &Octree, what: &str) {
        for level in 0..=tree.max_level() {
            for key in tree.level_keys(level) {
                let has_grid = tree.node(key).unwrap().grid.is_some();
                assert_eq!(has_grid, tree.is_leaf(key), "{what}: {key:?} grid presence");
            }
        }
        tree.check_leaf_grids();
    }

    /// The step straight after the owned set changed — a rebalance, a
    /// regrid that grows the tree, a restore onto another cluster shape
    /// — re-counts the slots and lands on the single-locality reference
    /// bit for bit, and every mirror keeps interior-only grids on its
    /// leaves only.
    #[test]
    fn stage_slots_follow_the_owned_set() {
        let make = || {
            let mut s = Scenario::sod(1);
            s.config.regrid = Some(RegridPolicy {
                rho_ref: 0.5,
                ratio: 4.0,
                base_level: 1,
                max_level: 2,
                coarsen_fraction: 0.5,
            });
            s.config.regrid_cadence = 2;
            // Handed a refined-node grid, as a restricted fixture is.
            s.tree.node_mut(MortonKey::root()).unwrap().grid = Some(SubGrid::new());
            s
        };
        let mut reference = Simulation::new(make());
        let cluster = Arc::new(Cluster::builder().localities(2).threads_per(2).build());
        let mut dist =
            DistributedDriver::builder(make(), cluster).skewed_partition(800).build().unwrap();
        let slots = |d: &DistributedDriver| -> Vec<usize> {
            assert_one_slot_per_owned_leaf(d);
            d.stage.iter().map(Vec::len).collect()
        };
        let mut step_both = |dist: &mut DistributedDriver, what: &str| {
            let dt_ref = reference.step();
            assert_eq!(dist.step().unwrap().to_bits(), dt_ref.to_bits(), "{what}: dt");
            assert_trees_bit_identical(&dist.assemble(), reference.tree());
            assert_grids_on_leaves_only(reference.tree(), what);
            for mirror in &dist.mirrors {
                assert_grids_on_leaves_only(mirror, what);
            }
        };

        step_both(&mut dist, "skewed start");
        let skewed = slots(&dist);
        assert!(dist.rebalance().unwrap() >= 1, "the skew must move leaves");
        step_both(&mut dist, "after rebalance");
        let coarse = slots(&dist);
        assert_ne!(coarse, skewed, "the slots must follow the rebalanced partition");

        step_both(&mut dist, "across the regrid"); // steps = 2: the cadence fires first
        assert_eq!(dist.regrids.get(), 1, "the hot half must refine");
        let fine = slots(&dist);
        assert!(fine.iter().sum::<usize>() > coarse.iter().sum::<usize>());

        let blob = dist.checkpoint().unwrap();
        let alone = Arc::new(Cluster::builder().threads_per(2).build());
        let mut restored = DistributedDriver::restore(make(), alone, &blob).unwrap();
        step_both(&mut restored, "after restore");
        assert_eq!(slots(&restored), [fine.iter().sum::<usize>()]);
    }

    /// A NaN in the state used to trip `f64::clamp`'s `min <= max`
    /// assertion inside a worker as soon as a reconstruction window held
    /// two of them. The select form hands it on instead: the stencil
    /// spreads it stage by stage, and once no cell has a signal speed
    /// left the CFL check reports it.
    #[test]
    fn poisoned_state_surfaces_as_a_dt_error_not_a_worker_panic() {
        let poisoned = |everywhere: bool| {
            let mut scenario = Scenario::sod(1);
            for key in scenario.tree.leaves() {
                let grid = scenario.tree.node_mut(key).unwrap().grid.as_mut().unwrap();
                for (i, j, k) in grid.indexer().interior() {
                    if everywhere || (i, j, k) == (4, 4, 4) {
                        for f in ALL_FIELDS {
                            grid.set(f, i, j, k, f64::NAN);
                        }
                    }
                }
            }
            let cluster = Arc::new(Cluster::builder().threads_per(2).build());
            DistributedDriver::builder(scenario, cluster).build().unwrap()
        };
        // One cell per leaf: after a step every window near it is NaN.
        let mut dist = poisoned(false);
        for _ in 0..3 {
            dist.step().expect("NaN cells have no signal speed; the rest set dt");
        }
        let grid = dist.mirrors[0].node(dist.shard.owned(0)[0]).unwrap().grid.as_ref().unwrap();
        assert!(grid.at(Field::Egas, 0, 0, 0).is_nan(), "the stencil must have spread the NaN");
        match poisoned(true).step() {
            Err(Error::Driver(msg)) => assert!(msg.contains("CFL produced dt"), "{msg}"),
            other => panic!("expected the CFL check to fail, got {other:?}"),
        }
    }

    #[test]
    fn driver_surfaces_dt_errors() {
        let mut scenario = Scenario::sod(1);
        // Zero out the state: sound speed 0, dt = inf.
        for key in scenario.tree.leaves() {
            let grid = scenario.tree.node_mut(key).unwrap().grid.as_mut().unwrap();
            for (i, j, k) in grid.indexer().interior() {
                for f in ALL_FIELDS {
                    grid.set(f, i, j, k, 0.0);
                }
                grid.set(Field::Rho, i, j, k, 1.0);
            }
        }
        let cluster = Arc::new(Cluster::builder().localities(2).build());
        let mut dist = DistributedDriver::builder(scenario, cluster).build().unwrap();
        // With zero pressure and velocity the signal speed is 0 — the
        // driver must surface the non-finite dt as an error, not panic.
        match dist.step() {
            Err(Error::Driver(msg)) => assert!(msg.contains("dt")),
            other => panic!("expected a driver error, got {other:?}"),
        }
    }
}
