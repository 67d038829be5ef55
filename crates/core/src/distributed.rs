//! Distributed time-stepping over the parcelport cluster.
//!
//! Octo-Tiger distributes the octree's sub-grids across localities
//! along the space filling curve and exchanges halo data, FMM boundary
//! multipoles, and the global CFL reduction as HPX parcels (paper §4.2,
//! §5.2). [`DistributedDriver`] reproduces that structure over the
//! simulated [`Cluster`]: each locality owns a contiguous SFC chunk of
//! leaves ([`ShardMap`]), runs the futurized TVD-RK2 stage on its own
//! shard — one task per leaf that gathers its ghosts, takes its RHS and
//! writes its next state into a spare grid, which is then swapped with
//! the leaf's grid — and talks to the other shards only through typed
//! parcels over the configured transport (MPI-sim or libfabric-sim):
//!
//! * [`HALO_ACTION`] — a `GridMsg` carrying one leaf's grid, which is
//!   its interior alone (the halo *push*: sources ship leaf grids into
//!   the receivers' mirrors, where each owned leaf's RHS task gathers
//!   its ghosts from them — the tree itself holds no ghosts);
//!   [`MIGRATE_ACTION`] carries the same message when a rebalance
//!   re-homes a leaf,
//! * [`MOMENT_ACTION`] — a `MomentMsg` carrying one leaf's P2M
//!   moments as its 512 cell masses (the FMM boundary exchange: a leaf
//!   cell's moment is a monopole at the cell's centre, so the masses
//!   are the leaf's whole entry in the moment map; every locality
//!   completes the moment tree from the broadcast leaves and solves only
//!   its own targets),
//! * [`REGRID_ACTION`] — one locality's regrid votes, sent to every
//!   peer,
//! * [`DT_ACTION`] — one locality's minimum CFL dt over its owned
//!   leaves, sent to every peer; each folds what it holds with
//!   `f64::min` (the global dt reduce).
//!
//! Every one of them travels in a `DistributedDriver::exchange`
//! round: counted, epoch-checked, ended by a crash-aware quiescence
//! wait and an exact per-locality count, its messages applied in key
//! order. That is the only way localities talk; the step ends when its
//! last round does, with no barrier after it.
//!
//! **One pipeline.** This is the only implementation of the step:
//! [`crate::driver::Simulation`] is this driver on a private
//! one-locality loopback cluster, where every peer loop below is empty
//! and nothing crosses the fabric.
//!
//! **Bit-identity.** The solve is independent of the partition — any
//! locality count, either transport, any shard map — by construction:
//!
//! 1. every mirror starts with the scenario tree's topology and an
//!    exact copy of the grids its locality reads;
//! 2. every leaf is advanced by the same per-leaf kernels
//!    (`driver::leaf_signal_dt` / `driver::leaf_stage`, which takes the
//!    RHS, with `driver::apply_stage1` / `driver::apply_stage2`) on
//!    identical inputs, whoever owns it;
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
//! **Fault tolerance.** Every phase is crash-aware: each exchange
//! round's quiescence wait surfaces [`util::Error::LocalityCrashed`]
//! when the cluster's fault layer reports a dead locality, so `step`
//! returns an error instead of hanging.
//! [`DistributedDriver::checkpoint`] cuts a digest-protected snapshot
//! of the global state between steps and
//! [`DistributedDriver::restore`] resurrects it — on a cluster of any
//! locality count — bit-identically (see [`crate::checkpoint`]).
//!
//! One driver owns its cluster's action space ([`HALO_ACTION`],
//! [`MOMENT_ACTION`], [`DT_ACTION`], [`REGRID_ACTION`],
//! [`MIGRATE_ACTION`]): build a fresh cluster per driver.

use crate::config::Config;
use crate::driver::{apply_stage1, apply_stage2, leaf_signal_dt, leaf_stage};
use crate::regrid::{self, RegridPolicy, RegridProposal};
use crate::scenario::Scenario;
use amt::trace::{self, TraceCategory};
use amt::{when_all, Counter, GlobalId};
use gravity::solver::{m2m_parallel, p2m_parallel, FmmSolver, GravityField};
use hydro::flux::StateVec;
use hydro::rotating::RotatingFrame;
use hydro::step::HydroStepper;
use octree::geometry::Domain;
use octree::halo::InterfacePlan;
use octree::shard::ShardMap;
use octree::subgrid::{SubGrid, N_SUB};
use crate::checkpoint::{self, CheckpointBody, CHECKPOINT_VERSION};
use bytes::Bytes;
use octree::tree::Octree;
use parcelport::cluster::Cluster;
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
/// Action sending one locality's minimum CFL dt to every other
/// locality (the global dt reduce).
pub const DT_ACTION: ActionId = ActionId(0xD07);
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

/// One leaf's P2M moments on the wire (the FMM boundary exchange): each
/// cell's mass, which is all a leaf's entry in the moment map holds (a
/// leaf cell's moment is a monopole at the cell's centre, which the
/// receiver knows). Epoch-stamped like [`GridMsg`].
struct MomentMsg {
    from: u32,
    epoch: u64,
    key: MortonKey,
    masses: Vec<f64>,
}

serde::impl_codec_struct!(MomentMsg { from, epoch, key, masses });

/// The leaf and the masses a [`MomentMsg`] carries, which go into the
/// receiver's moment map as they are; a count other than one mass per
/// cell is an error.
fn checked_masses(msg: MomentMsg) -> Result<(MortonKey, Vec<f64>)> {
    if msg.masses.len() != N_SUB.pow(3) {
        return Err(Error::Driver(format!(
            "the moments of {:?} carry {} masses, expected {}",
            msg.key,
            msg.masses.len(),
            N_SUB.pow(3)
        )));
    }
    Ok((msg.key, msg.masses))
}

/// One locality's regrid votes on the wire (the proposal collective).
struct RegridMsg {
    from: u32,
    epoch: u64,
    refine: Vec<MortonKey>,
    cold: Vec<MortonKey>,
}

serde::impl_codec_struct!(RegridMsg { from, epoch, refine, cold });

/// One locality's minimum dt over its owned leaves on the wire (the dt
/// reduce). Epoch-stamped like [`GridMsg`].
struct DtMsg {
    from: u32,
    epoch: u64,
    dt: f64,
}

serde::impl_codec_struct!(DtMsg { from, epoch, dt });

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
    shard: ShardMap,
    /// The halo geometry of the tree, one for every locality (each
    /// mirror has the whole topology): what every RHS task gathers by,
    /// what `push_plan` and the resident sets project. Built with the
    /// driver and rebuilt only by a regrid, which alone changes the
    /// topology.
    plan: Arc<InterfacePlan>,
    /// `push_plan[src][dst]` = leaves `src` ships to `dst` per exchange:
    /// `plan` projected onto `shard`.
    push_plan: Vec<BTreeMap<u32, Vec<MortonKey>>>,
    /// Per-locality mirrors: the full topology of the tree, with an
    /// interior-only grid on exactly the leaves the locality reads — its
    /// owned leaves, which are authoritative, and their halo sources,
    /// which `push_plan` brings in and which hold the last push
    /// ([`resident_sets`], [`Octree::check_grids_on`]). A read of any
    /// other leaf's grid finds none.
    mirrors: Vec<Arc<Octree>>,
    /// `spares[loc][i]` is the spare grid of `shard.owned(loc)[i]`, which
    /// its stage task writes the leaf's next state into and a swap then
    /// trades for the leaf's tree grid. Each is overwritten whole before
    /// it is read, so a spare belongs to no leaf in particular: a new
    /// owned set changes only how many a locality holds
    /// ([`DistributedDriver::stage`] re-counts them). They are made on a
    /// run's first step, so a freshly built driver has touched none of
    /// that memory, and a steady-state step allocates no grid.
    spares: Vec<Vec<SubGrid>>,
    halo: Channel<GridMsg>,
    moment: Channel<MomentMsg>,
    regrid: Channel<RegridMsg>,
    migrate: Channel<GridMsg>,
    dt: Channel<DtMsg>,
    /// Current partition epoch, shared with the action handlers so a
    /// stale-epoch parcel is dropped at the door.
    epoch: Arc<AtomicU64>,
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
                let here = GlobalId(rt.locality() as u64);
                debug_assert_eq!(component, here, "{id:?} parcel landed off its locality");
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
        let plan = Arc::new(InterfacePlan::new(&tree, config.bc));
        let push_plan = plan.push_plan(&shard);
        // Each mirror is a copy that keeps its locality's resident grids
        // alone, trimmed before the next is made; the scenario tree
        // itself becomes the last one.
        let resident = resident_sets(&shard, &plan);
        let mut mirrors: Vec<Arc<Octree>> = Vec::with_capacity(n);
        for keep in &resident[..n - 1] {
            let mut mirror = tree.clone();
            keep_only(&mut mirror, keep);
            mirrors.push(Arc::new(mirror));
        }
        keep_only(&mut tree, &resident[n - 1]);
        mirrors.push(Arc::new(tree));

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
        let dt = Self::open_channel(
            &cluster,
            DT_ACTION,
            |m: &DtMsg| m.epoch,
            &epoch,
            &stale_epoch_drops,
            "driver/dt/parcels_tx",
            "driver/dt/bytes_tx",
        );

        let driver = DistributedDriver {
            spares: Vec::new(),
            regrids: m.counter("driver/regrids"),
            rebalances: m.counter("driver/rebalances"),
            migrated_leaves: m.counter("driver/migrated_leaves"),
            cluster,
            shard,
            plan,
            push_plan,
            mirrors,
            halo,
            moment,
            regrid,
            migrate,
            dt,
            epoch,
            config,
            stepper: HydroStepper::new(config.eos),
            solver: config.gravity.then(|| Arc::new(FmmSolver::new(config.theta))),
            frame: RotatingFrame::new(config.omega),
            time: 0.0,
            steps: 0,
            subgrids_processed: 0,
            dt_history: Vec::new(),
        };
        driver.debug_check_mirrors();
        Ok(driver)
    }

    /// In debug builds: the held interface plan is the one the tree
    /// resolves to now and the push plan its projection, every mirror
    /// holds a grid on exactly its locality's resident leaves
    /// ([`Octree::check_grids_on`]) and the partition passes
    /// [`ShardMap::check_invariants`].
    fn debug_check_mirrors(&self) {
        if cfg!(debug_assertions) {
            let fresh = InterfacePlan::new(&self.mirrors[0], self.config.bc);
            assert!(*self.plan == fresh, "the held interface plan is not the tree's");
            assert!(self.push_plan == self.plan.push_plan(&self.shard), "a stale push plan");
            let resident = resident_sets(&self.shard, &self.plan);
            for (mirror, keep) in self.mirrors.iter().zip(&resident) {
                mirror.check_grids_on(|key| keep.contains(&key));
            }
            self.shard.check_invariants(&self.mirrors[0]);
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

    /// Locality `loc`'s mirror (see the `mirrors` field).
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
                        GlobalId(dst as u64),
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

    /// Swap in a successor partition of the tree `plan` resolves:
    /// project the push plan, publish the new epoch so in-flight traffic
    /// stamped with the old one is dropped, and drop every grid a mirror
    /// no longer reads. Each caller has already put the new resident
    /// grids in place.
    fn install_shard(&mut self, next: ShardMap) {
        self.push_plan = self.plan.push_plan(&next);
        self.epoch.store(next.epoch(), Ordering::SeqCst);
        self.shard = next;
        let resident = resident_sets(&self.shard, &self.plan);
        for (mirror, keep) in self.mirrors.iter_mut().zip(&resident) {
            keep_only(exclusive(mirror), keep);
        }
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
    ///    mirror answers identically) the phase ends — no broadcast, no
    ///    epoch bump;
    /// 4. otherwise every owner ships every owned leaf's interior to
    ///    every other mirror ([`HALO_ACTION`]) and each mirror runs the
    ///    very same serial [`regrid::regrid`], which reads leaves only
    ///    (refine prolongs the leaf's own grid, coarsen restricts its
    ///    children's) — identical inputs, identical trees, whatever the
    ///    partition;
    /// 5. the new tree's interface plan is resolved, and the tree is
    ///    repartitioned ([`ShardMap::repartition`], successor epoch) and
    ///    installed — no migration parcels needed, the broadcast already
    ///    put every leaf everywhere; the install then drops each
    ///    mirror's grids outside its new resident set.
    fn regrid_phase(&mut self, policy: &RegridPolicy) -> Result<()> {
        let _span = trace::span(TraceCategory::Regrid);
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

        // 5. Resolve the new topology's halo once, repartition the
        //    regridded tree and re-home ownership.
        self.plan = Arc::new(InterfacePlan::new(&self.mirrors[0], self.config.bc));
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
    /// per-leaf payload. A locality needs the grids of its resident set
    /// under the new partition (owned leaves and inbound halo-plan
    /// sources); the ones it already holds — its resident set under the
    /// old partition, all fresh between steps — are not re-sent, and
    /// the install drops the ones it no longer reads. Pure ownership
    /// movement — no leaf value changes — so the numerics are untouched
    /// by construction.
    ///
    /// Returns the number of leaves whose owner changed.
    pub fn rebalance(&mut self) -> Result<usize> {
        let _span = trace::span(TraceCategory::Rebalance);
        let n = self.cluster.len();
        let next = self.shard.repartition(&self.mirrors[0], n)?;
        let moves = self.shard.migration_plan(&next);
        if moves.is_empty() {
            // Nothing would change hands; keep the current epoch.
            return Ok(0);
        }
        // What each locality will read under the new partition, minus
        // what it holds under the old one: the topology, and with it the
        // plan, stays.
        let need = resident_sets(&next, &self.plan);
        let have = resident_sets(&self.shard, &self.plan);

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
    /// stage tasks are. Each shard folds its dts in SFC order
    /// and sends the minimum to every peer as a [`DT_ACTION`] parcel;
    /// every locality folds the received minima onto its own with
    /// `f64::min` — bit-equal to the global ordered fold, because
    /// `f64::min` gives one answer in any order on positive dts and
    /// skips a NaN wherever it stands (and a shard's own minimum,
    /// folded from infinity, is never NaN).
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
        let epoch = self.epoch();
        let sends = local_dts.iter().enumerate().map(|(src, &dt)| {
            (src, Dest::Peers, DtMsg { from: src as u32, epoch, dt })
        });
        let inbound = self.exchange(&self.dt, "dt minima", sends, |m| m.from)?;
        let minima: Vec<f64> = inbound
            .into_iter()
            .zip(&local_dts)
            .map(|(msgs, &own)| msgs.iter().map(|m| m.dt).fold(own, f64::min))
            .collect();
        let dt = minima[0];
        debug_assert!(
            minima.iter().all(|m| m.to_bits() == dt.to_bits()),
            "dt reduce must be locality-independent"
        );
        Ok(dt)
    }

    /// The gravitational field of the current state, one per locality
    /// over the leaves it owns (`None` when gravity is off). Every
    /// locality P2Ms its owned leaves' cell masses, broadcasts them as
    /// [`MOMENT_ACTION`] parcels, completes the moment tree from what it
    /// receives (the masses go into its map by key, then M2M), and runs
    /// the restricted FMM walk over its own targets only. A parcel with
    /// other than one mass per cell is an error.
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
                let masses = own[&key].clone();
                (src, Dest::Peers, MomentMsg { from: src as u32, epoch, key, masses })
            })
        });
        let inbound = self.exchange(&self.moment, "moment messages", sends, |m| m.key)?;
        drop(exchange_span);
        let _solve_span = trace::span(TraceCategory::GravitySolve);
        let mut fields = Vec::with_capacity(n);
        for (loc, (mut leaf_map, msgs)) in own.into_iter().zip(inbound).enumerate() {
            for msg in msgs {
                let (key, masses) = checked_masses(msg)?;
                leaf_map.insert(key, masses);
            }
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

    /// One TVD-RK2 stage of every shard's owned leaves: the gravity
    /// solve, then one futurized task per leaf ([`leaf_stage`]) that
    /// gathers the leaf's ghosts from its own mirror's interiors, takes
    /// its RHS and writes its next state with `update(spare, grid, rhs,
    /// origin, dx)` into its spare grid, taken by move and handed back
    /// through its future (`origin`/`dx` locate the leaf for the floors'
    /// spin-ledger deposit) — launched on *all* localities first, then
    /// collected, so shards overlap. No task writes the tree, which its
    /// neighbours' tasks read ghosts from; once a locality's tasks have
    /// retired, each spare is swapped with its leaf's grid.
    fn stage(
        &mut self,
        update: impl Fn(&mut SubGrid, &SubGrid, &[StateVec], Vec3, f64) + Copy + Send + 'static,
    ) -> Result<()> {
        let grav = self.solve_gravity()?;
        let (n, stepper, frame) = (self.cluster.len(), self.stepper, self.frame);
        // One spare per owned leaf: a no-op except on a run's first step
        // and after a regrid or rebalance changed the owned sets.
        self.spares.resize_with(n, Vec::new);
        let mut pending = Vec::with_capacity(n);
        for (loc, spares) in self.spares.iter_mut().enumerate() {
            let (rt, owned) = (self.cluster.locality(loc).runtime(), self.shard.owned(loc as u32));
            let domain = self.mirrors[loc].domain();
            spares.resize_with(owned.len(), SubGrid::new);
            let futs = owned.iter().zip(std::mem::take(spares)).map(|(&key, mut spare)| {
                let (tree, plan) = (Arc::clone(&self.mirrors[loc]), Arc::clone(&self.plan));
                let (g, origin, dx) =
                    (grav[loc].clone(), domain.node_origin(key), domain.cell_dx(key.level));
                rt.async_call(move || {
                    leaf_stage(&tree, key, &plan, g.as_deref(), stepper, frame, |rhs, grid| {
                        update(&mut spare, grid, rhs, origin, dx);
                    });
                    spare
                })
            });
            pending.push(futs.collect());
        }
        for (loc, futs) in pending.into_iter().enumerate() {
            let rt = self.cluster.locality(loc).runtime();
            let sched = Arc::clone(rt.scheduler());
            // `when_all` yields results in input order = slot order.
            let mut spares = when_all(&sched, futs).get_help(&sched);
            // Tasks still hold mirror Arcs until fully retired.
            rt.wait_quiescent();
            let tree = exclusive(&mut self.mirrors[loc]);
            for (&key, spare) in self.shard.owned(loc as u32).iter().zip(&mut spares) {
                let grid = tree.node_mut(key).and_then(|node| node.grid.as_mut());
                std::mem::swap(grid.expect("leaf grid"), spare);
            }
            self.spares[loc] = spares;
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

    /// Advance one TVD-RK2 step; returns the dt taken.
    ///
    /// Phases: cadence-driven regrid collective → dt exchange round →
    /// moment exchange + restricted FMM → stage 1 (a task per leaf: it
    /// gathers its own ghosts, takes its RHS and writes the forward
    /// Euler state into the leaf's spare; then every spare is swapped
    /// with its leaf's grid) → interior exchange → moment exchange + FMM
    /// → stage 2 (the RK2 average, into the spare that now holds the
    /// pre-step state; swapped the same way) → interior exchange. No
    /// phase fills or reads the mirrors' ghost cells, and none waits on
    /// a barrier: the last exchange round already ends with the fabric
    /// drained and every locality's count checked.
    /// [`DistributedDriver::rebalance`] is never called from here: every
    /// partition a run installs itself is the balanced one.
    pub fn step(&mut self) -> Result<f64> {
        let _step_span =
            trace::span_labeled(TraceCategory::Step, || format!("step {}", self.steps));
        // Regrid first, on the policy's cadence.
        if let Some(policy) = self.config.regrid {
            if self.steps > 0 && self.steps.is_multiple_of(policy.cadence as u64) {
                self.regrid_phase(&policy)?;
            }
        }
        let (floors, stepper) = (self.config.floors, self.stepper);
        let dt = self.compute_dt()?;
        if !(dt.is_finite() && dt > 0.0) {
            return Err(Error::Driver(format!("CFL produced dt = {dt}")));
        }

        // Stage 1 (forward Euler); its swap leaves the pre-step grids in
        // the spares, for the RK2 final stage.
        self.stage(move |spare, grid, rhs, origin, dx| {
            apply_stage1(stepper, spare, grid, rhs, dt, floors, origin, dx);
        })?;
        self.exchange_interiors()?;

        // Stage 2 (TVD-RK2 average).
        self.stage(move |spare, grid, rhs, origin, dx| {
            apply_stage2(stepper, spare, grid, rhs, dt, floors, origin, dx);
        })?;
        self.exchange_interiors()?;

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
        let have: BTreeSet<MortonKey> = scenario.tree.leaves().into_iter().collect();
        if have != stored {
            return Err(Error::Checkpoint(format!(
                "leaf set mismatch: scenario has {} leaves, checkpoint stores {}",
                have.len(),
                stored.len()
            )));
        }
        // The stored grids replace the scenario's, and the build hands
        // each mirror the ones its locality reads: owned leaves become
        // authoritative, halo sources hold exactly what the interior
        // exchange would have pushed — all a step reads, since each RHS
        // task gathers its leaf's ghosts from these grids.
        for (key, grid) in body.keys.iter().zip(body.interiors) {
            scenario.tree.node_mut(*key).expect("a stored key is a leaf").grid = Some(grid);
        }
        let mut driver = DistributedDriver::builder(scenario, cluster).build()?;
        driver.steps = body.steps;
        driver.time = body.time;
        driver.subgrids_processed = body.subgrids_processed;
        driver.dt_history = body.dt_history;
        Ok(driver)
    }
}

/// The leaves each locality reads, by locality: its owned leaves and
/// their halo sources under `plan` — the grids its mirror holds.
fn resident_sets(shard: &ShardMap, plan: &InterfacePlan) -> Vec<BTreeSet<MortonKey>> {
    (0..shard.n_shards() as u32)
        .map(|loc| {
            let owned = shard.owned(loc);
            owned.iter().flat_map(|&key| plan.sources(key).into_iter().chain([key])).collect()
        })
        .collect()
}

/// Drop every grid of `mirror` outside `resident`.
fn keep_only(mirror: &mut Octree, resident: &BTreeSet<MortonKey>) {
    for key in mirror.leaves() {
        if !resident.contains(&key) {
            mirror.node_mut(key).expect("leaf").grid = None;
        }
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
    domain: Domain,
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
    use gravity::multipole::Multipole;
    use octree::subgrid::{Field, ALL_FIELDS};
    use std::collections::HashMap;
    use parcelport::fault::FaultPlan;
    use parcelport::netmodel::TransportKind;
    use parcelport::reliable::ReliablePolicy;

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

    /// A moment parcel's masses rebuild the sender's P2M moments bit for
    /// bit: off the wire and into the receiver's map, they complete the
    /// moment tree the serial pass builds from the grids. A parcel with a
    /// cell missing is an error, not a short leaf.
    #[test]
    fn masses_rebuild_the_p2m_moments_bit_for_bit() {
        let sim = Simulation::new(Scenario::single_star(1));
        let tree = Arc::new(sim.tree().clone());
        let p2m = p2m_parallel(&tree, &tree.leaves(), sim.runtime());
        let mut received = HashMap::new();
        for (&key, masses) in &p2m {
            let msg = MomentMsg { from: 1, epoch: 0, key, masses: masses.clone() };
            let wire = parcelport::to_bytes(&msg).unwrap();
            let short = MomentMsg { from: 1, epoch: 0, key, masses: masses[1..].to_vec() };
            let (key, masses) = checked_masses(parcelport::from_bytes(&wire).unwrap()).unwrap();
            received.insert(key, masses);
            let short = checked_masses(short);
            assert!(matches!(short, Err(Error::Driver(why)) if why.contains("511 masses")));
        }
        let rebuilt = m2m_parallel(&tree, received, sim.runtime());
        let reference = FmmSolver::new(0.5).compute_moments(&tree);
        assert_eq!(rebuilt.len(), reference.len());
        let domain = tree.domain();
        for (key, want) in &reference {
            let (want, got) = (want.cells(&domain, *key), rebuilt[key].cells(&domain, *key));
            for (i, j, k) in SubGrid::new().indexer().interior() {
                let (a, b) = (want(i, j, k), got(i, j, k));
                let bits = |c: Multipole| [c.m, c.com.x, c.com.y, c.com.z].map(f64::to_bits);
                assert_eq!(bits(a), bits(b), "{key:?} ({i},{j},{k})");
                assert!(a.q.iter().zip(&b.q).all(|(u, v)| u.to_bits() == v.to_bits()));
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
        // parcels cross the fabric.
        let m = dist.cluster().metrics();
        for counter in
            ["driver/halo/parcels_tx", "driver/dt/parcels_tx", "parcelport/mpi/parcels_tx"]
        {
            assert_eq!(m.get(counter), 0, "{counter}");
        }
        let t = crate::diagnostics::totals(&dist.assemble(), None);
        assert!(t.mass > 0.0);
    }

    /// A one-locality step runs one task per leaf and phase — dt and the
    /// two stages, each of which takes the RHS and writes the update —
    /// and nothing else: no exchange round spawns a task when there is
    /// no peer.
    #[test]
    fn a_one_locality_step_runs_only_per_leaf_tasks() {
        let cluster = Arc::new(Cluster::builder().threads_per(2).build());
        let mut dist = DistributedDriver::builder(Scenario::sod(1), cluster).build().unwrap();
        assert!(!dist.config.gravity);
        let executed =
            |d: &DistributedDriver| d.cluster().metrics().get("locality/0/tasks/executed");
        let before = executed(&dist);
        dist.step().unwrap();
        assert_eq!(executed(&dist) - before, 3 * dist.shard.n_leaves() as u64);
    }

    /// At four localities the dt round returns the global minimum — the
    /// one-locality dt, bit for bit — on both transports, with each
    /// locality sending its minimum to each of its three peers.
    #[test]
    fn dt_round_is_the_global_min_over_both_transports() {
        let one = Arc::new(Cluster::builder().threads_per(2).build());
        let reference = DistributedDriver::builder(Scenario::sod(1), one).build().unwrap();
        let reference = reference.compute_dt().unwrap();
        for kind in [TransportKind::Mpi, TransportKind::Libfabric] {
            let cluster = Cluster::builder().localities(4).threads_per(2).transport(kind).build();
            let dist = DistributedDriver::builder(Scenario::sod(1), Arc::new(cluster)).build();
            let dist = dist.unwrap();
            assert_eq!(dist.compute_dt().unwrap().to_bits(), reference.to_bits(), "{kind}");
            assert_eq!(dist.cluster().metrics().get("driver/dt/parcels_tx"), 4 * 3, "{kind}");
        }
    }

    /// The dt round on a lossy, crashless fabric — parcels dropped and
    /// duplicated, the reliable layer retransmitting and deduplicating
    /// — returns the fault-free dt bit for bit, round after round.
    #[test]
    fn dt_round_survives_a_lossy_fabric() {
        let build = |builder: parcelport::ClusterBuilder| {
            let cluster = Arc::new(builder.localities(2).threads_per(2).build());
            DistributedDriver::builder(Scenario::sod(1), cluster).build().unwrap()
        };
        let clean = build(Cluster::builder()).compute_dt().unwrap();
        let plan = FaultPlan::seeded(11).drop(0.2).duplicate(0.2);
        let lossy = build(Cluster::builder().fault_plan(plan));
        for round in 0..10 {
            assert_eq!(lossy.compute_dt().unwrap().to_bits(), clean.to_bits(), "round {round}");
        }
        let m = lossy.cluster().metrics();
        assert!(m.get("parcelport/faults/dropped") > 0 && m.get("parcelport/faults/duplicated") > 0);
        assert_eq!(m.get("driver/dt/parcels_tx"), 20);
    }

    /// A locality that dies in the dt round surfaces as
    /// `LocalityCrashed`, not as a hang.
    #[test]
    fn dt_round_reports_a_crashed_locality() {
        let cluster = Cluster::builder()
            .localities(2)
            .threads_per(2)
            // Locality 1's first outbound parcel is its dt minimum.
            .fault_plan(FaultPlan::seeded(5).crash(1, 1))
            .reliable(ReliablePolicy {
                initial_backoff_ticks: 16,
                max_backoff_ticks: 64,
                max_retries: 3,
            })
            .build();
        let dist = DistributedDriver::builder(Scenario::sod(1), Arc::new(cluster)).build().unwrap();
        assert_eq!(dist.compute_dt(), Err(Error::LocalityCrashed(1)));
    }

    #[test]
    fn stale_epoch_parcel_is_dropped_not_applied() {
        let cluster = Arc::new(Cluster::builder().localities(2).build());
        let dist = DistributedDriver::builder(Scenario::sod(1), cluster).build().unwrap();
        let key = dist.shard.owned(1)[0];
        let send = |payload: Bytes| {
            dist.cluster
                .locality(0)
                .send_encoded(dist.halo.action, 1, GlobalId(1), payload)
                .unwrap();
            dist.cluster.try_wait_quiescent().unwrap();
        };
        let m = dist.cluster.metrics();
        let handler_errors = || m.get("parcelport/mpi/handler_errors");
        let stale_drops = || m.get("driver/stale_epoch_drops");
        // A halo parcel stamped with an epoch the receiver has never
        // seen must be counted and dropped, never applied.
        let grid = dist.mirrors[1].node(key).unwrap().grid.clone().unwrap();
        let stale = GridMsg { from: 0, epoch: 99, key, grid: grid.clone() };
        send(dist.halo.action.encode(&stale).unwrap());
        assert_eq!(stale_drops(), 1);
        assert!(dist.halo.inbox[1].lock().unwrap().is_empty());
        // A current-epoch parcel whose grid is two cells long fails the
        // codec in the handler: counted there, never stashed.
        let mut w = serde::Writer::new();
        (0u32, dist.epoch(), key).serialize(&mut w);
        vec![1.0f64, 2.0].serialize(&mut w);
        send(Bytes::from(w.into_vec()));
        assert_eq!(handler_errors(), 1, "a short grid must fail decode");
        assert_eq!(stale_drops(), 1);
        assert!(dist.halo.inbox[1].lock().unwrap().is_empty());
        // The same parcel at the current epoch is accepted.
        let fresh = GridMsg { from: 0, epoch: dist.epoch(), key, grid };
        send(dist.halo.action.encode(&fresh).unwrap());
        assert_eq!(stale_drops(), 1, "current-epoch parcel must pass");
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
        assert_eq!(m.get("driver/migrated_leaves"), moved as u64);
        // The leaves each locality newly reads, and nothing it already
        // held: 22 grids of 57 373 payload bytes and a 24-byte header.
        assert_eq!(moved, 25);
        assert_eq!(m.get("driver/migrated_parcels"), 22);
        assert_eq!(m.get("driver/migrated_bytes"), 1_262_734);
        // Ownership movement must not perturb the numerics.
        for _ in 0..2 {
            let dt_ref = reference.step();
            let dt = dist.step().unwrap();
            assert_eq!(dt.to_bits(), dt_ref.to_bits());
        }
        assert_trees_bit_identical(&dist.assemble(), reference.tree());
        assert_eq!(dist.cluster().metrics().get("driver/stale_epoch_drops"), 0);
    }

    /// A rebalance keeps the tree's interface plan — the topology did not
    /// move — and, in debug builds, a held plan that is not the one the
    /// tree resolves to fails the mirror check.
    #[test]
    fn a_rebalance_keeps_the_interface_plan_and_a_stale_one_is_caught() {
        let cluster = Arc::new(Cluster::builder().localities(2).threads_per(2).build());
        let mut dist = DistributedDriver::builder(Scenario::sod(2), cluster)
            .skewed_partition(900)
            .build()
            .unwrap();
        let plan = Arc::clone(&dist.plan);
        dist.step().unwrap();
        assert!(dist.rebalance().unwrap() >= 1, "the skew must move leaves");
        assert!(Arc::ptr_eq(&plan, &dist.plan), "a rebalance resolved the tree again");
        if cfg!(debug_assertions) {
            let mut finer = Scenario::sod(2).tree;
            finer.refine(finer.leaves()[0]);
            dist.plan = Arc::new(InterfacePlan::new(&finer, dist.config.bc));
            let check = std::panic::AssertUnwindSafe(|| dist.debug_check_mirrors());
            assert!(std::panic::catch_unwind(check).is_err(), "a stale plan passed the check");
        }
    }

    /// Where every slot's spare and its leaf's tree grid live.
    fn stage_pointers(d: &DistributedDriver) -> Vec<(*const f64, *const f64)> {
        let rho = |grid: &SubGrid| grid.field(Field::Rho).as_ptr();
        let mut pointers = Vec::new();
        for (loc, spares) in d.spares.iter().enumerate() {
            for (&key, spare) in d.shard.owned(loc as u32).iter().zip(spares) {
                let grid = d.mirrors[loc].node(key).unwrap().grid.as_ref().unwrap();
                pointers.push((rho(spare), rho(grid)));
            }
        }
        pointers
    }

    fn assert_one_slot_per_owned_leaf(d: &DistributedDriver) {
        for (loc, spares) in d.spares.iter().enumerate() {
            assert_eq!(spares.len(), d.shard.owned(loc as u32).len(), "locality {loc}");
        }
    }

    /// A steady-state step allocates no grid: each slot holds one spare
    /// and no RHS, and after every full step the spare and its leaf's
    /// tree grid are the same two allocations as after step 1 — each
    /// stage swaps them once, so a step's two swaps cancel — on the
    /// loopback driver and across two localities with gravity on.
    #[test]
    fn stage_buffers_stand_across_steps() {
        for (scenario, localities) in [(Scenario::sod(1), 1), (Scenario::mini_binary(2), 2)] {
            let name = scenario.name;
            let cluster =
                Arc::new(Cluster::builder().localities(localities).threads_per(2).build());
            let mut dist = DistributedDriver::builder(scenario, cluster).build().unwrap();
            assert!(dist.spares.is_empty(), "{name}: construction must not touch stage memory");
            dist.step().unwrap();
            assert_one_slot_per_owned_leaf(&dist);
            let standing = stage_pointers(&dist);
            assert_eq!(standing.len(), dist.shard.n_leaves());
            assert!(standing.iter().all(|(spare, grid)| spare != grid), "{name}: two grids a slot");
            for step in 2..=4 {
                dist.step().unwrap();
                assert_eq!(stage_pointers(&dist), standing, "{name}: step {step} moved a grid");
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

    /// Every mirror holds an interior-only grid on exactly its owned
    /// leaves and their halo sources — derived here from a plan resolved
    /// afresh from that mirror, not from the driver's plan or its push
    /// plan — and on no refined node. Returns each mirror's grid count.
    fn assert_grids_on_resident_leaves(d: &DistributedDriver, what: &str) -> Vec<usize> {
        let mut counts = Vec::new();
        for (loc, mirror) in d.mirrors.iter().enumerate() {
            let plan = InterfacePlan::new(mirror, d.config.bc);
            let owned = d.shard.owned(loc as u32);
            let mut reads: BTreeSet<MortonKey> = owned.iter().copied().collect();
            for &key in owned {
                reads.extend(plan.sources(key));
            }
            let held: BTreeSet<MortonKey> = mirror
                .leaves()
                .into_iter()
                .filter(|&key| mirror.node(key).unwrap().grid.is_some())
                .collect();
            assert_eq!(held, reads, "{what}: mirror {loc} grid presence");
            mirror.check_grids_on(|key| reads.contains(&key));
            counts.push(held.len());
        }
        counts
    }

    /// A mirror holds the grids its locality reads and no others —
    /// after the build, a step, a rebalance and a restore onto another
    /// locality count — and the state stays bit-identical to the
    /// single-locality reference throughout. Two localities split the
    /// 64 leaves of a 4 × 4 × 4 tree into two slabs, each reading the
    /// other's 16-leaf face: 48 grids a mirror.
    #[test]
    fn mirrors_hold_grids_on_exactly_the_resident_leaves() {
        let cluster = |n| Arc::new(Cluster::builder().localities(n).threads_per(2).build());
        let mut reference = Simulation::new(Scenario::sod(2));
        let mut step_both = |drivers: &mut [&mut DistributedDriver], what: &str| {
            let dt_ref = reference.step();
            for dist in drivers.iter_mut() {
                assert_eq!(dist.step().unwrap().to_bits(), dt_ref.to_bits(), "{what}: dt");
                assert_trees_bit_identical(&dist.assemble(), reference.tree());
            }
        };
        let mut balanced =
            DistributedDriver::builder(Scenario::sod(2), cluster(2)).build().unwrap();
        assert_eq!(balanced.shard.n_leaves(), 64);
        assert_eq!(assert_grids_on_resident_leaves(&balanced, "build"), [48, 48]);
        let mut skewed = DistributedDriver::builder(Scenario::sod(2), cluster(2))
            .skewed_partition(800)
            .build()
            .unwrap();
        assert_grids_on_resident_leaves(&skewed, "skewed build");

        step_both(&mut [&mut balanced, &mut skewed], "first step");
        assert_eq!(assert_grids_on_resident_leaves(&balanced, "step"), [48, 48]);
        assert_grids_on_resident_leaves(&skewed, "skewed step");

        assert!(skewed.rebalance().unwrap() >= 1, "the skew must move leaves");
        assert_eq!(assert_grids_on_resident_leaves(&skewed, "rebalance"), [48, 48]);
        step_both(&mut [&mut balanced, &mut skewed], "after rebalance");

        let blob = skewed.checkpoint().unwrap();
        let mut restored = DistributedDriver::restore(Scenario::sod(2), cluster(3), &blob).unwrap();
        let counts = assert_grids_on_resident_leaves(&restored, "restore");
        assert!(counts.iter().all(|&c| c < 64), "restore onto 3: {counts:?}");
        step_both(&mut [&mut restored], "after restore");
        assert_grids_on_resident_leaves(&restored, "restored step");
    }

    /// The step straight after the owned set changed — a rebalance, a
    /// regrid that grows the tree, a restore onto another cluster shape
    /// — re-counts the slots and lands on the single-locality reference
    /// bit for bit, and every mirror keeps interior-only grids on
    /// exactly the leaves its locality reads.
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
                cadence: 2,
            });
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
            d.spares.iter().map(Vec::len).collect()
        };
        let mut step_both = |dist: &mut DistributedDriver, what: &str| {
            let dt_ref = reference.step();
            assert_eq!(dist.step().unwrap().to_bits(), dt_ref.to_bits(), "{what}: dt");
            assert_trees_bit_identical(&dist.assemble(), reference.tree());
            assert_grids_on_leaves_only(reference.tree(), what);
            assert_grids_on_resident_leaves(dist, what);
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
