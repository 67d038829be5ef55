//! APEX-style task tracing: per-worker span timelines.
//!
//! The paper's scaling analysis (§7, Figs. 2–3, Table 2) was produced
//! with HPX performance counters and APEX task instrumentation: idle
//! rates, parcel counts, and per-task timelines that show *when* work
//! ran on which worker, not just how much of it there was. The
//! [`crate::metrics`] registry covers the scalar half; this module adds
//! the timeline half.
//!
//! # Span model
//!
//! A *span* is one timed interval on one thread: a static
//! [`TraceCategory`] (e.g. `fmm/m2m`), an optional dynamic label (a
//! Morton key, a byte count), a monotonic start timestamp, and a
//! duration. Spans are recorded with RAII guards:
//!
//! ```
//! let _session = amt::trace::TraceSession::begin();
//! {
//!     let _span = amt::trace::span(amt::trace::TraceCategory::Custom);
//!     // ... timed work ...
//! } // guard drop records the span
//! let trace = _session.end();
//! assert_eq!(trace.events.len(), 1);
//! ```
//!
//! # Overhead budget
//!
//! Tracing is off by default and every instrumentation site first checks
//! one relaxed atomic load ([`enabled`]), so the disabled cost is a few
//! cycles per site and **zero** allocations, counters, or syscalls.
//! When enabled, a span costs two `Instant::now` reads plus one push
//! into a *thread-local ring buffer* (an uncontended mutex: only the
//! draining session ever takes it from another thread). Ring capacity
//! is fixed per session ([`TraceSession::with_capacity`]); overflow
//! overwrites the oldest events and is reported via [`Trace::dropped`]
//! rather than ever blocking or reallocating on the hot path. Dynamic
//! labels are built lazily ([`span_labeled`] takes a closure) so the
//! `format!` only runs when tracing is on.
//!
//! # Sessions
//!
//! Recording is process-global (all schedulers and localities of the
//! in-process cluster write into the same registry of thread buffers),
//! so only one [`TraceSession`] can be active at a time; `begin` blocks
//! until the previous session ends. Timestamps are nanoseconds on a
//! process-wide monotonic epoch, so events from different localities
//! share one time axis — exactly what the chrome://tracing view needs.
//!
//! [`Trace::export_chrome_json`] writes the collected events in the
//! Chrome trace-event format (loadable in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)): one "process" per scheduler
//! (locality), one "thread" row per worker. [`Trace::publish`] derives
//! scalar counters (`trace/idle_rate`, per-category duration
//! histograms) into a [`crate::Metrics`] view, mirroring how APEX
//! feeds HPX's counter namespace.

use crate::metrics::Metrics;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity (events) for [`TraceSession::begin`].
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Static classification of a span. The category is the unit of
/// aggregation for summaries, histograms, and the idle-rate derivation;
/// the free-form per-span label is only carried into the exported
/// timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u32)]
pub enum TraceCategory {
    /// A scheduler task body running on a worker (APEX "task" event).
    TaskRun,
    /// A task was pushed to a deque or the injector (instant).
    TaskSpawn,
    /// A worker stole a task from a sibling's deque (instant).
    TaskSteal,
    /// A worker found no runnable task (parked or polling background).
    Idle,
    /// FMM upward pass: leaf multipole computation (P2M).
    FmmP2M,
    /// FMM upward pass: child-to-parent moment reduction (M2M).
    FmmM2M,
    /// FMM same-level pass: halo gather building one node's extended
    /// SoA moment grid.
    FmmGather,
    /// FMM same-level pass: multipole-to-local over all cells of one
    /// node.
    FmmSameLevel,
    /// FMM near-field pass: leaf-only P2P over all cells of one leaf
    /// (split out of `fmm/same-level` so the breakdown attributes P2P
    /// work correctly).
    FmmNearField,
    /// FMM downward pass: parent-to-child local expansion shift (L2L).
    FmmL2L,
    /// FMM leaf assembly: folding local expansions into accelerations.
    FmmLeafAssembly,
    /// Per-leaf hydro right-hand-side evaluation.
    HydroRhs,
    /// A TVD-RK2 stage state update on one leaf.
    HydroApply,
    /// One full driver time step.
    Step,
    /// One leaf's ghost gather, inside its RHS task.
    HaloFill,
    /// Inter-locality halo interior exchange (parcels).
    HaloExchange,
    /// Inter-locality FMM leaf-multipole broadcast.
    MomentExchange,
    /// The gravity solve phase of a driver step.
    GravitySolve,
    /// The timestep min-reduction (per-leaf tasks, then one exchange
    /// round of per-locality minima).
    DtReduce,
    /// The distributed regrid collective: proposals, the interior
    /// broadcast, the mirrored regrid and the repartition.
    Regrid,
    /// A rebalance: a repartition of the same tree and the migration of
    /// the leaves that change hands.
    Rebalance,
    /// A parcel handed to a transport for sending.
    ParcelSend,
    /// A parcel delivered by a transport to its destination locality.
    ParcelRecv,
    /// The reliable-delivery layer retransmitted an unacknowledged
    /// parcel (backoff expired before the ack arrived).
    ParcelRetry,
    /// Anything not covered above (tests, ad-hoc probes).
    Custom,
}

serde::impl_codec_enum_unit!(TraceCategory {
    TaskRun,
    TaskSpawn,
    TaskSteal,
    Idle,
    FmmP2M,
    FmmM2M,
    FmmGather,
    FmmSameLevel,
    FmmNearField,
    FmmL2L,
    FmmLeafAssembly,
    HydroRhs,
    HydroApply,
    Step,
    HaloFill,
    HaloExchange,
    MomentExchange,
    GravitySolve,
    DtReduce,
    Regrid,
    Rebalance,
    ParcelSend,
    ParcelRecv,
    ParcelRetry,
    Custom,
});

impl TraceCategory {
    /// Every category, in declaration order.
    pub const ALL: &'static [TraceCategory] = &[
        TraceCategory::TaskRun,
        TraceCategory::TaskSpawn,
        TraceCategory::TaskSteal,
        TraceCategory::Idle,
        TraceCategory::FmmP2M,
        TraceCategory::FmmM2M,
        TraceCategory::FmmGather,
        TraceCategory::FmmSameLevel,
        TraceCategory::FmmNearField,
        TraceCategory::FmmL2L,
        TraceCategory::FmmLeafAssembly,
        TraceCategory::HydroRhs,
        TraceCategory::HydroApply,
        TraceCategory::Step,
        TraceCategory::HaloFill,
        TraceCategory::HaloExchange,
        TraceCategory::MomentExchange,
        TraceCategory::GravitySolve,
        TraceCategory::DtReduce,
        TraceCategory::Regrid,
        TraceCategory::Rebalance,
        TraceCategory::ParcelSend,
        TraceCategory::ParcelRecv,
        TraceCategory::ParcelRetry,
        TraceCategory::Custom,
    ];

    /// The stable, slash-namespaced name used in exports and counter
    /// paths (`trace/cat/<name>/...` with `/` mapped to `_`).
    pub fn as_str(self) -> &'static str {
        match self {
            TraceCategory::TaskRun => "sched/task",
            TraceCategory::TaskSpawn => "sched/spawn",
            TraceCategory::TaskSteal => "sched/steal",
            TraceCategory::Idle => "sched/idle",
            TraceCategory::FmmP2M => "fmm/p2m",
            TraceCategory::FmmM2M => "fmm/m2m",
            TraceCategory::FmmGather => "fmm/gather",
            TraceCategory::FmmSameLevel => "fmm/same-level",
            TraceCategory::FmmNearField => "fmm/near-field",
            TraceCategory::FmmL2L => "fmm/l2l",
            TraceCategory::FmmLeafAssembly => "fmm/leaf-assembly",
            TraceCategory::HydroRhs => "hydro/rhs",
            TraceCategory::HydroApply => "hydro/apply",
            TraceCategory::Step => "driver/step",
            TraceCategory::HaloFill => "driver/halo-fill",
            TraceCategory::HaloExchange => "driver/halo-exchange",
            TraceCategory::MomentExchange => "driver/moment-exchange",
            TraceCategory::GravitySolve => "driver/gravity",
            TraceCategory::DtReduce => "driver/dt-reduce",
            TraceCategory::Regrid => "driver/regrid",
            TraceCategory::Rebalance => "driver/rebalance",
            TraceCategory::ParcelSend => "parcel/send",
            TraceCategory::ParcelRecv => "parcel/recv",
            TraceCategory::ParcelRetry => "parcel/retry",
            TraceCategory::Custom => "custom",
        }
    }

    /// Categories recorded as zero-duration instants rather than spans.
    pub fn is_instant(self) -> bool {
        matches!(self, TraceCategory::TaskSpawn | TraceCategory::TaskSteal)
    }
}

// ------------------------------------------------------------- global state

static ENABLED: AtomicBool = AtomicBool::new(false);
static SESSION_BUSY: AtomicBool = AtomicBool::new(false);
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Nanoseconds since the process-wide monotonic trace epoch.
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Whether a [`TraceSession`] is currently recording. One relaxed load:
/// this is the only cost every instrumentation site pays when tracing
/// is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

struct RawEvent {
    cat: TraceCategory,
    label: Option<Box<str>>,
    t0_ns: u64,
    dur_ns: u64,
}

struct Ring {
    events: Vec<RawEvent>,
    next: usize,
    cap: usize,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring { events: Vec::new(), next: 0, cap }
    }

    fn push(&mut self, e: RawEvent, dropped: &AtomicU64) {
        if self.cap == 0 {
            dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self.events.len() < self.cap {
            self.events.push(e);
        } else {
            self.events[self.next] = e;
            self.next = (self.next + 1) % self.cap;
            dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn reset(&mut self, cap: usize) {
        self.events.clear();
        self.events.shrink_to(cap);
        self.next = 0;
        self.cap = cap;
    }
}

struct ThreadBuf {
    tid: u32,
    pid: AtomicU32,
    name: Mutex<String>,
    ring: Mutex<Ring>,
    dropped: AtomicU64,
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<ThreadBuf>>> = const { RefCell::new(None) };
}

fn with_thread_buf<R>(f: impl FnOnce(&ThreadBuf) -> R) -> R {
    CURRENT.with(|cell| {
        let mut slot = cell.borrow_mut();
        if slot.is_none() {
            let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
            let name = std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{tid}"));
            let buf = Arc::new(ThreadBuf {
                tid,
                pid: AtomicU32::new(0),
                name: Mutex::new(name),
                ring: Mutex::new(Ring::new(RING_CAPACITY.load(Ordering::Relaxed))),
                dropped: AtomicU64::new(0),
            });
            registry().lock().push(Arc::clone(&buf));
            *slot = Some(buf);
        }
        f(slot.as_ref().unwrap())
    })
}

/// Name the calling thread's timeline and assign it to a process group.
///
/// Scheduler workers call this on startup with their scheduler id as
/// `pid` so the chrome-trace view groups one locality's workers
/// together. Returns the thread's stable trace id (also available via
/// [`current_tid`]). Idempotent: re-registering renames in place.
pub fn register_thread(pid: u32, name: &str) -> u32 {
    with_thread_buf(|buf| {
        buf.pid.store(pid, Ordering::Relaxed);
        *buf.name.lock() = name.to_string();
        buf.tid
    })
}

/// The calling thread's stable trace id (registering it with defaults —
/// pid 0, the OS thread name — on first use).
pub fn current_tid() -> u32 {
    with_thread_buf(|buf| buf.tid)
}

/// Record a completed span directly (used where RAII scoping is
/// awkward, e.g. the scheduler's coalesced idle accounting). No-op when
/// tracing is off.
pub fn record_raw(cat: TraceCategory, label: Option<String>, t0_ns: u64, dur_ns: u64) {
    if !enabled() {
        return;
    }
    with_thread_buf(|buf| {
        buf.ring.lock().push(
            RawEvent { cat, label: label.map(String::into_boxed_str), t0_ns, dur_ns },
            &buf.dropped,
        );
    });
}

/// Record a zero-duration instant event (spawns, steals). No-op when
/// tracing is off.
pub fn instant(cat: TraceCategory) {
    if enabled() {
        record_raw(cat, None, now_ns(), 0);
    }
}

/// RAII span recorder: construction stamps the start, drop records the
/// completed span into the thread-local ring. Created disarmed (free)
/// when tracing is off.
pub struct TraceGuard {
    cat: TraceCategory,
    label: Option<String>,
    t0_ns: u64,
    armed: bool,
}

impl TraceGuard {
    /// A guard that records nothing on drop.
    fn disarmed(cat: TraceCategory) -> TraceGuard {
        TraceGuard { cat, label: None, t0_ns: 0, armed: false }
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.armed {
            record_raw(self.cat, self.label.take(), self.t0_ns, now_ns() - self.t0_ns);
        }
    }
}

/// Open a span of `cat` on the calling thread, closed when the returned
/// guard drops.
#[inline]
pub fn span(cat: TraceCategory) -> TraceGuard {
    if !enabled() {
        return TraceGuard::disarmed(cat);
    }
    TraceGuard { cat, label: None, t0_ns: now_ns(), armed: true }
}

/// Like [`span`], with a dynamic label. The closure only runs (and the
/// label string is only allocated) when tracing is on.
#[inline]
pub fn span_labeled(cat: TraceCategory, label: impl FnOnce() -> String) -> TraceGuard {
    if !enabled() {
        return TraceGuard::disarmed(cat);
    }
    TraceGuard { cat, label: Some(label()), t0_ns: now_ns(), armed: true }
}

// ---------------------------------------------------------------- sessions

/// An exclusive recording window. `begin` enables the global recorder;
/// [`TraceSession::end`] (or drop) disables it and drains every
/// thread's ring buffer into a [`Trace`].
pub struct TraceSession {
    start_ns: u64,
}

impl TraceSession {
    /// Start recording with [`DEFAULT_RING_CAPACITY`] events per thread.
    /// Blocks until any previous session has ended.
    pub fn begin() -> TraceSession {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// Start recording with an explicit per-thread ring capacity.
    /// Blocks until any previous session has ended.
    pub fn with_capacity(ring_capacity: usize) -> TraceSession {
        while SESSION_BUSY
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        RING_CAPACITY.store(ring_capacity, Ordering::SeqCst);
        for buf in registry().lock().iter() {
            buf.ring.lock().reset(ring_capacity);
            buf.dropped.store(0, Ordering::Relaxed);
        }
        let start_ns = now_ns();
        ENABLED.store(true, Ordering::SeqCst);
        TraceSession { start_ns }
    }

    /// Collect everything recorded so far without stopping the session.
    pub fn snapshot(&self) -> Trace {
        collect(self.start_ns)
    }

    /// Export the events recorded so far as chrome-trace JSON (see
    /// [`Trace::export_chrome_json`]).
    pub fn export_chrome_json(&self) -> String {
        self.snapshot().export_chrome_json()
    }

    /// Stop recording and drain all thread buffers.
    pub fn end(self) -> Trace {
        ENABLED.store(false, Ordering::SeqCst);
        collect(self.start_ns)
        // Drop releases the session slot.
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        SESSION_BUSY.store(false, Ordering::SeqCst);
    }
}

fn collect(start_ns: u64) -> Trace {
    let end_ns = now_ns();
    let mut threads = Vec::new();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for buf in registry().lock().iter() {
        let ring = buf.ring.lock();
        if ring.events.is_empty() {
            continue;
        }
        threads.push(ThreadInfo {
            tid: buf.tid,
            pid: buf.pid.load(Ordering::Relaxed),
            name: buf.name.lock().clone(),
        });
        // If the ring wrapped, slots [next..] are older than [..next].
        let (older, newer) = ring.events.split_at(ring.next);
        for e in newer.iter().chain(older.iter()) {
            events.push(TraceEvent {
                tid: buf.tid,
                cat: e.cat,
                label: e.label.as_deref().map(str::to_owned),
                t0_ns: e.t0_ns,
                dur_ns: e.dur_ns,
            });
        }
        dropped += buf.dropped.load(Ordering::Relaxed);
    }
    events.sort_by_key(|e| (e.t0_ns, std::cmp::Reverse(e.dur_ns)));
    threads.sort_by_key(|t| (t.pid, t.tid));
    Trace { start_ns, end_ns, dropped, threads, events }
}

// ------------------------------------------------------------------ traces

/// One thread's identity in a [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadInfo {
    /// Stable per-thread trace id (the chrome-trace `tid`).
    pub tid: u32,
    /// Process group (scheduler id for workers; the chrome-trace `pid`).
    pub pid: u32,
    /// Human-readable timeline name.
    pub name: String,
}

serde::impl_codec_struct!(ThreadInfo { tid, pid, name });

/// One recorded span or instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// The recording thread's trace id.
    pub tid: u32,
    /// Static category.
    pub cat: TraceCategory,
    /// Optional dynamic label (Morton key, byte count, ...).
    pub label: Option<String>,
    /// Start, in nanoseconds on the process trace epoch.
    pub t0_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
}

serde::impl_codec_struct!(TraceEvent { tid, cat, label, t0_ns, dur_ns });

impl TraceEvent {
    /// End timestamp (`t0_ns + dur_ns`).
    pub fn end_ns(&self) -> u64 {
        self.t0_ns + self.dur_ns
    }
}

/// Aggregate statistics for one category across a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategorySummary {
    /// The category summarized.
    pub cat: TraceCategory,
    /// Number of events.
    pub count: u64,
    /// Sum of durations in nanoseconds.
    pub total_ns: u64,
    /// Longest single event in nanoseconds.
    pub max_ns: u64,
}

/// A drained recording: the events of every thread that recorded
/// anything during the session, on one shared monotonic time axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Session start (trace-epoch nanoseconds).
    pub start_ns: u64,
    /// Drain time (trace-epoch nanoseconds).
    pub end_ns: u64,
    /// Events overwritten by ring wrap-around (0 means the trace is
    /// complete).
    pub dropped: u64,
    /// Identities of the threads that recorded events.
    pub threads: Vec<ThreadInfo>,
    /// All events, sorted by start time.
    pub events: Vec<TraceEvent>,
}

serde::impl_codec_struct!(Trace { start_ns, end_ns, dropped, threads, events });

/// Histogram bucket upper bounds (ns) used by [`Trace::publish`], one
/// `le_*` counter per bucket plus `le_inf`.
pub const HIST_BUCKETS_NS: &[(u64, &str)] = &[
    (10_000, "le_10us"),
    (100_000, "le_100us"),
    (1_000_000, "le_1ms"),
    (10_000_000, "le_10ms"),
];

impl Trace {
    /// Wall-clock length of the session in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Per-category aggregates, in [`TraceCategory::ALL`] order,
    /// omitting categories with no events.
    pub fn summary(&self) -> Vec<CategorySummary> {
        let mut by_cat: Vec<CategorySummary> = TraceCategory::ALL
            .iter()
            .map(|&cat| CategorySummary { cat, count: 0, total_ns: 0, max_ns: 0 })
            .collect();
        for e in &self.events {
            let s = &mut by_cat[e.cat as usize];
            s.count += 1;
            s.total_ns += e.dur_ns;
            s.max_ns = s.max_ns.max(e.dur_ns);
        }
        by_cat.retain(|s| s.count > 0);
        by_cat
    }

    /// Worker idle fraction in permille: `idle / (idle + busy)` where
    /// busy is the total [`TraceCategory::TaskRun`] time. 0 when no
    /// worker events were recorded.
    pub fn idle_rate_permille(&self) -> u64 {
        let mut idle = 0u64;
        let mut busy = 0u64;
        for e in &self.events {
            match e.cat {
                TraceCategory::Idle => idle += e.dur_ns,
                TraceCategory::TaskRun => busy += e.dur_ns,
                _ => {}
            }
        }
        if idle + busy == 0 {
            return 0;
        }
        idle * 1000 / (idle + busy)
    }

    /// Derive scalar counters into `metrics`, the bridge between the
    /// timeline view and the HPX-counter-style registry:
    ///
    /// * `trace/events`, `trace/dropped`, `trace/wall_ns`
    /// * `trace/idle_rate` — worker idle permille (see
    ///   [`Trace::idle_rate_permille`])
    /// * per category `<c>` (with `/` mapped to `_`, e.g. `fmm_m2m`):
    ///   `trace/cat/<c>/count`, `/total_ns`, `/max_ns`, and a duration
    ///   histogram `/hist/le_10us` ... `/hist/le_inf`
    ///   ([`HIST_BUCKETS_NS`]).
    ///
    /// Nothing is registered unless this is called, so a run without an
    /// active session leaves the `trace/` namespace empty.
    pub fn publish(&self, metrics: &Metrics) {
        metrics.counter("trace/events").store(self.events.len() as u64);
        metrics.counter("trace/dropped").store(self.dropped);
        metrics.counter("trace/wall_ns").store(self.wall_ns());
        metrics.counter("trace/idle_rate").store(self.idle_rate_permille());
        for s in self.summary() {
            let c = s.cat.as_str().replace('/', "_");
            metrics.counter(&format!("trace/cat/{c}/count")).store(s.count);
            metrics.counter(&format!("trace/cat/{c}/total_ns")).store(s.total_ns);
            metrics.counter(&format!("trace/cat/{c}/max_ns")).store(s.max_ns);
            let mut buckets = vec![0u64; HIST_BUCKETS_NS.len() + 1];
            for e in self.events.iter().filter(|e| e.cat == s.cat) {
                let idx = HIST_BUCKETS_NS
                    .iter()
                    .position(|&(ub, _)| e.dur_ns <= ub)
                    .unwrap_or(HIST_BUCKETS_NS.len());
                buckets[idx] += 1;
            }
            for (i, &(_, label)) in HIST_BUCKETS_NS.iter().enumerate() {
                metrics.counter(&format!("trace/cat/{c}/hist/{label}")).store(buckets[i]);
            }
            metrics
                .counter(&format!("trace/cat/{c}/hist/le_inf"))
                .store(buckets[HIST_BUCKETS_NS.len()]);
        }
    }

    /// Serialize to the Chrome trace-event JSON format, loadable in
    /// `chrome://tracing` and Perfetto. Spans become complete (`"X"`)
    /// events, instants become `"i"` events; timestamps are
    /// microseconds relative to the session start; workers appear as
    /// named threads grouped under their scheduler's process.
    pub fn export_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let mut pids: Vec<u32> = self.threads.iter().map(|t| t.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        for pid in pids {
            push_event_sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":\"sched-{pid}\"}}}}"
            ));
        }
        for t in &self.threads {
            push_event_sep(&mut out, &mut first);
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                t.pid,
                t.tid,
                escape_json(&t.name)
            ));
        }
        let pid_of: std::collections::HashMap<u32, u32> =
            self.threads.iter().map(|t| (t.tid, t.pid)).collect();
        for e in &self.events {
            push_event_sep(&mut out, &mut first);
            let pid = pid_of.get(&e.tid).copied().unwrap_or(0);
            let name = e.label.as_deref().unwrap_or_else(|| e.cat.as_str());
            let ts = e.t0_ns.saturating_sub(self.start_ns);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{pid},\"tid\":{}",
                escape_json(name),
                e.cat.as_str(),
                e.tid
            ));
            if e.dur_ns == 0 && e.cat.is_instant() {
                out.push_str(&format!(",\"ph\":\"i\",\"s\":\"t\",\"ts\":{}}}", micros(ts)));
            } else {
                out.push_str(&format!(
                    ",\"ph\":\"X\",\"ts\":{},\"dur\":{}}}",
                    micros(ts),
                    micros(e.dur_ns)
                ));
            }
        }
        out.push_str("]}");
        out
    }
}

// ------------------------------------------------------------- histograms

/// An empirical distribution of span durations (or any non-negative
/// integer quantity, e.g. parcel payload bytes) in logarithmic base-2
/// buckets, exported from a [`Trace`] for consumers that need to *sample*
/// measured behaviour rather than read scalar aggregates — the
/// `perfmodel` scale-out co-simulation draws per-category kernel costs
/// from these.
///
/// Bucket `i` covers values in `[2^i, 2^(i+1))` (value 0 lands in bucket
/// 0), fine enough to preserve the multi-decade shape of task-duration
/// distributions while staying a fixed 64-slot table. Exact `min`,
/// `max`, `count` and `total` are kept alongside so means are exact and
/// sampled values can be clamped into the observed range.
///
/// ```
/// use amt::trace::DurationHistogram;
///
/// let h = DurationHistogram::from_values([100u64, 200, 400, 800].into_iter());
/// assert_eq!(h.count(), 4);
/// assert!((h.mean() - 375.0).abs() < 1e-9);
/// // Quantiles interpolate the empirical CDF, clamped to [min, max].
/// assert!(h.quantile(0.0) >= 100.0 && h.quantile(1.0) <= 800.0);
/// // Sampling via inverse CDF: any u64 random word maps to a duration.
/// let v = h.sample(0x9E3779B97F4A7C15);
/// assert!((100.0..=800.0).contains(&v));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DurationHistogram {
    count: u64,
    total: u64,
    min: u64,
    max: u64,
    /// `buckets[i]` counts values with `floor(log2(max(v,1))) == i`.
    buckets: Vec<u64>,
}

impl Default for DurationHistogram {
    fn default() -> DurationHistogram {
        DurationHistogram::empty()
    }
}

impl DurationHistogram {
    /// Number of log2 buckets (covers the whole `u64` range).
    pub const BUCKETS: usize = 64;

    /// An empty histogram (count 0; [`DurationHistogram::mean`] is 0).
    pub fn empty() -> DurationHistogram {
        DurationHistogram { count: 0, total: 0, min: u64::MAX, max: 0, buckets: vec![0; Self::BUCKETS] }
    }

    /// Build from raw values.
    pub fn from_values(values: impl Iterator<Item = u64>) -> DurationHistogram {
        let mut h = DurationHistogram::empty();
        for v in values {
            h.record(v);
        }
        h
    }

    /// Add one observation.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.total += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[63 - v.max(1).leading_zeros() as usize] += 1;
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &DurationHistogram) {
        self.count += other.count;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 { 0 } else { self.min }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// Inverse empirical CDF: the value at quantile `q` ∈ [0, 1],
    /// linearly interpolated inside the containing log2 bucket and
    /// clamped to the observed `[min, max]`. Returns 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0.0;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cum + n as f64;
            if target <= next {
                let lo = if i == 0 { 0.0 } else { (1u64 << i) as f64 };
                let hi = if i >= 63 { self.max as f64 } else { (1u64 << (i + 1)) as f64 };
                let frac = (target - cum) / n as f64;
                let v = lo + frac * (hi - lo);
                return v.clamp(self.min as f64, self.max as f64);
            }
            cum = next;
        }
        self.max as f64
    }

    /// Draw one value using `word` as the uniform random source (any
    /// 64-bit word, e.g. from a seeded splitmix64 stream): maps `word`
    /// to a quantile and inverts the CDF. Deterministic in `word`.
    pub fn sample(&self, word: u64) -> f64 {
        // 53 high bits -> uniform in [0, 1).
        self.quantile((word >> 11) as f64 / (1u64 << 53) as f64)
    }

    /// Draw the sum of `n` values, using `next_word` as the random
    /// stream. Exact sampling up to 64 draws; beyond that the sum is
    /// approximated by its normal limit (mean `n·µ`, variance from the
    /// bucket spread) so cost stays bounded for large work volumes —
    /// still fully deterministic in the consumed words.
    pub fn sample_sum(&self, n: u64, mut next_word: impl FnMut() -> u64) -> f64 {
        if self.count == 0 || n == 0 {
            return 0.0;
        }
        if n <= 64 {
            return (0..n).map(|_| self.sample(next_word())).sum();
        }
        // Bucket-level variance estimate around the exact mean.
        let mean = self.mean();
        let mut var = 0.0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let mid = if i == 0 { 1.0 } else { 1.5 * (1u64 << i) as f64 };
            var += c as f64 * (mid - mean) * (mid - mean);
        }
        var /= self.count as f64;
        // Box-Muller from two words; clamp at zero (durations are
        // non-negative).
        let u1 = ((next_word() >> 11) as f64 / (1u64 << 53) as f64).max(1e-12);
        let u2 = (next_word() >> 11) as f64 / (1u64 << 53) as f64;
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (n as f64 * mean + (n as f64 * var).sqrt() * z).max(0.0)
    }
}

impl Trace {
    /// The duration distribution of one category as a log2-bucket
    /// histogram — the sampler export used to calibrate the scale-out
    /// co-simulation (see `perfmodel::calibrate`).
    pub fn histogram(&self, cat: TraceCategory) -> DurationHistogram {
        DurationHistogram::from_values(
            self.events.iter().filter(|e| e.cat == cat).map(|e| e.dur_ns),
        )
    }
}

fn push_event_sep(out: &mut String, first: &mut bool) {
    if *first {
        *first = false;
    } else {
        out.push(',');
    }
}

/// Format nanoseconds as a decimal microsecond literal with full
/// nanosecond precision (chrome-trace `ts`/`dur` are float µs).
fn micros(ns: u64) -> String {
    if ns % 1000 == 0 {
        format!("{}", ns / 1000)
    } else {
        format!("{}.{:03}", ns / 1000, ns % 1000)
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_guard_records_nothing() {
        {
            let _g = span(TraceCategory::Custom);
        }
        instant(TraceCategory::TaskSpawn);
        // No session: nothing to observe, but the calls must be free of
        // side effects — begin a session and confirm it starts empty on
        // this thread.
        let session = TraceSession::begin();
        let trace = session.end();
        let tid = current_tid();
        assert!(trace.events.iter().all(|e| e.tid != tid));
    }

    #[test]
    fn session_records_spans_and_instants() {
        let session = TraceSession::begin();
        let tid = current_tid();
        {
            let _g = span_labeled(TraceCategory::Custom, || "outer".into());
            let _inner = span(TraceCategory::TaskRun);
        }
        instant(TraceCategory::TaskSteal);
        let trace = session.end();
        let mine: Vec<_> = trace.events.iter().filter(|e| e.tid == tid).collect();
        assert_eq!(mine.len(), 3);
        assert!(mine.iter().any(|e| e.label.as_deref() == Some("outer")));
        assert!(mine
            .iter()
            .any(|e| e.cat == TraceCategory::TaskSteal && e.dur_ns == 0));
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let session = TraceSession::with_capacity(4);
        let tid = current_tid();
        for i in 0..10u32 {
            record_raw(TraceCategory::Custom, Some(format!("e{i}")), now_ns(), 1);
        }
        let trace = session.end();
        let mine: Vec<_> = trace.events.iter().filter(|e| e.tid == tid).collect();
        assert_eq!(mine.len(), 4);
        assert!(trace.dropped >= 6);
        // The survivors are the newest four, in order.
        let labels: Vec<_> = mine.iter().map(|e| e.label.clone().unwrap()).collect();
        assert_eq!(labels, vec!["e6", "e7", "e8", "e9"]);
    }

    #[test]
    fn summary_and_idle_rate() {
        let t0 = 1000u64;
        let trace = Trace {
            start_ns: 0,
            end_ns: 10_000,
            dropped: 0,
            threads: vec![ThreadInfo { tid: 1, pid: 0, name: "w".into() }],
            events: vec![
                TraceEvent {
                    tid: 1,
                    cat: TraceCategory::TaskRun,
                    label: None,
                    t0_ns: t0,
                    dur_ns: 3000,
                },
                TraceEvent {
                    tid: 1,
                    cat: TraceCategory::Idle,
                    label: None,
                    t0_ns: t0 + 3000,
                    dur_ns: 1000,
                },
            ],
        };
        assert_eq!(trace.idle_rate_permille(), 250);
        let summary = trace.summary();
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].cat, TraceCategory::TaskRun);
        assert_eq!(summary[0].total_ns, 3000);
    }

    #[test]
    fn publish_writes_trace_namespace() {
        let trace = Trace {
            start_ns: 0,
            end_ns: 5000,
            dropped: 1,
            threads: vec![],
            events: vec![TraceEvent {
                tid: 1,
                cat: TraceCategory::FmmM2M,
                label: None,
                t0_ns: 0,
                dur_ns: 50_000,
            }],
        };
        let m = Metrics::new();
        trace.publish(&m);
        let snap = m.snapshot();
        assert_eq!(snap.get("trace/events"), Some(&1));
        assert_eq!(snap.get("trace/dropped"), Some(&1));
        assert_eq!(snap.get("trace/cat/fmm_m2m/count"), Some(&1));
        assert_eq!(snap.get("trace/cat/fmm_m2m/total_ns"), Some(&50_000));
        assert_eq!(snap.get("trace/cat/fmm_m2m/hist/le_100us"), Some(&1));
        assert_eq!(snap.get("trace/cat/fmm_m2m/hist/le_10us"), Some(&0));
    }

    #[test]
    fn chrome_json_shape() {
        let trace = Trace {
            start_ns: 1000,
            end_ns: 9000,
            dropped: 0,
            threads: vec![ThreadInfo { tid: 2, pid: 7, name: "worker-\"0\"".into() }],
            events: vec![
                TraceEvent {
                    tid: 2,
                    cat: TraceCategory::TaskRun,
                    label: Some("k7".into()),
                    t0_ns: 2500,
                    dur_ns: 1500,
                },
                TraceEvent {
                    tid: 2,
                    cat: TraceCategory::TaskSteal,
                    label: None,
                    t0_ns: 2000,
                    dur_ns: 0,
                },
            ],
        };
        let json = trace.export_chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("worker-\\\"0\\\""));
        assert!(json.contains("\"ph\":\"X\",\"ts\":1.500,\"dur\":1.500"));
        assert!(json.contains("\"ph\":\"i\",\"s\":\"t\",\"ts\":1}"));
        // Balanced braces: a cheap well-formedness check without a JSON
        // parser in the dependency set.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn histogram_quantiles_bracket_the_sample() {
        let values = [120u64, 480, 950, 2100, 2100, 9000];
        let h = DurationHistogram::from_values(values.iter().copied());
        assert_eq!(h.count(), 6);
        assert_eq!(h.total(), values.iter().sum::<u64>());
        assert_eq!(h.min(), 120);
        assert_eq!(h.max(), 9000);
        assert!((h.mean() - h.total() as f64 / 6.0).abs() < 1e-9);
        // Quantiles are monotone and clamped to the observed range.
        let mut last = 0.0;
        for i in 0..=10 {
            let q = h.quantile(i as f64 / 10.0);
            assert!(q >= last, "quantiles must be monotone");
            assert!((120.0..=9000.0).contains(&q), "q={q}");
            last = q;
        }
        // Sampling never escapes [min, max] either.
        let mut word = 0x1234_5678_9abc_def0u64;
        for _ in 0..100 {
            word = word.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(1);
            let v = h.sample(word);
            assert!((120.0..=9000.0).contains(&v), "sample {v}");
        }
    }

    #[test]
    fn histogram_sum_sampling_tracks_the_mean() {
        let h = DurationHistogram::from_values((0..200u64).map(|i| 1000 + i * 7));
        let mut state = 42u64;
        let mut next = move || {
            state = state.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(0x14057B7EF767814F);
            state
        };
        // Exact path (n <= 64) and normal-limit path (n > 64) must both
        // land near n * mean.
        for n in [16u64, 1000] {
            let sum = h.sample_sum(n, &mut next);
            let expect = n as f64 * h.mean();
            assert!(
                (sum - expect).abs() < 0.25 * expect,
                "n={n}: sum {sum} vs expected {expect}"
            );
        }
        // Deterministic: the same word stream reproduces the same sums.
        let mut s1 = 7u64;
        let mut a = move || {
            s1 = s1.wrapping_add(0x9E37_79B9_7F4A_7C15);
            s1
        };
        let mut s2 = 7u64;
        let mut b = move || {
            s2 = s2.wrapping_add(0x9E37_79B9_7F4A_7C15);
            s2
        };
        assert_eq!(h.sample_sum(1000, &mut a).to_bits(), h.sample_sum(1000, &mut b).to_bits());
        // Merge is additive.
        let mut m = DurationHistogram::empty();
        m.merge(&h);
        m.merge(&h);
        assert_eq!(m.count(), 2 * h.count());
        assert_eq!(m.total(), 2 * h.total());
    }

    #[test]
    fn trace_histogram_extracts_one_category() {
        let trace = Trace {
            start_ns: 0,
            end_ns: 1000,
            dropped: 0,
            threads: vec![],
            events: vec![
                TraceEvent { tid: 1, cat: TraceCategory::FmmM2M, label: None, t0_ns: 0, dur_ns: 500 },
                TraceEvent { tid: 1, cat: TraceCategory::FmmM2M, label: None, t0_ns: 10, dur_ns: 700 },
                TraceEvent { tid: 1, cat: TraceCategory::Idle, label: None, t0_ns: 20, dur_ns: 9 },
            ],
        };
        let h = trace.histogram(TraceCategory::FmmM2M);
        assert_eq!(h.count(), 2);
        assert_eq!(h.total(), 1200);
        assert_eq!(trace.histogram(TraceCategory::HydroRhs).count(), 0);
    }

    #[test]
    fn codec_roundtrip_preserves_chrome_json() {
        let trace = Trace {
            start_ns: 10,
            end_ns: 500,
            dropped: 3,
            threads: vec![ThreadInfo { tid: 1, pid: 2, name: "w0".into() }],
            events: vec![TraceEvent {
                tid: 1,
                cat: TraceCategory::ParcelSend,
                label: Some("mpi:128B".into()),
                t0_ns: 20,
                dur_ns: 7,
            }],
        };
        let mut w = serde::Writer::new();
        serde::Serialize::serialize(&trace, &mut w);
        let bytes = w.into_vec();
        let mut r = serde::Reader::new(&bytes);
        let back: Trace = serde::Deserialize::deserialize(&mut r).unwrap();
        assert_eq!(r.remaining(), 0);
        assert_eq!(back, trace);
        assert_eq!(back.export_chrome_json(), trace.export_chrome_json());
    }
}
