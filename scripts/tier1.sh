#!/usr/bin/env bash
# Tier-1 gate: the checks every PR must keep green.
#
#   1. zero #[deprecated], zero #[ignore], zero environment-read,
#      zero second-pair-arithmetic, zero fused/fast-math, zero rank-3
#      tensor, zero gravity torque ledger, zero second device ledger or
#      device thread,
#      zero driver-ghost-fill, one halo resolution (one non-test
#      `resolve(` call under crates/octree/src, zero `halo_sources` /
#      `gather_ghosts`), zero per-leaf stage buffer, zero derived-grid,
#      zero slab-pipeline, zero
#      remote-call, zero owner-registry, one ownership record (zero
#      `HashMap` / `Vec<Vec<` in crates/octree/src/shard.rs's non-test
#      code, no `fn partition` in crates/octree/src/sfc.rs), one
#      counter namespace (zero
#      per-layer registries or mounts, zero counter lookups by name in
#      the parcelport's non-test code), one step model (zero event
#      engine in crates/perfmodel/src), stand-in (zero `crossbeam` in
#      crates/, tests/, examples/ and the root Cargo.toml, zero
#      `Condvar` in crates/amt/src/future.rs) and zero uncalled-pub-fn
#      budgets
#   2. release build of the whole workspace (bins included)
#   3. the full test suite in quiet mode
#   4. the scenario verification registry under release (golden digests,
#      conservation gates, distributed bit-identity, checkpoint/restore),
#      as .cargo/config.toml builds it (AVX2 on x86-64) and again for
#      the baseline target: the digests are ISA-independent
#   5. rustdoc with warnings denied (broken links, missing docs on amt)
#   6. the repo benchmark (its own workspace, so nothing above compiles
#      it) still builds, passes its tests and runs against these crates:
#      one smoke that bypasses the FMM, one that lives in it and one
#      that runs it on two localities over the moment wire
#   7. four paper-artifact bins run and pass their own gates —
#      fig23_scaleout among them (6–8 s in release on a 2-CPU host), the
#      only guard on Figs. 2–3 and the halo pattern they model; the
#      scenario_gate bin is left out, as step 4 runs the registry it
#      prints — and gpu_launch_fraction prints the same JSON on two runs
#
# Usage: scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: deprecation budget =="
# The deprecation budget is zero: the one-release Locality::send /
# Locality::call shims were retired with the typed work-item redesign.
# Nothing may be parked behind #[deprecated]; migrate or delete it.
stray=$(grep -rln --include='*.rs' '#\[deprecated' crates tests examples || true)
if [ -n "$stray" ]; then
    echo "!! deprecated items found (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "deprecation budget OK (0/0 shims)"

echo
echo "== tier-1: ignore budget =="
# The ignore budget is also zero: every test either runs in some tier-1
# pass (debug or the release scenario gates below) or is deleted with a
# written justification. A skipped test documents nothing.
stray=$(grep -rln --include='*.rs' '#\[ignore' crates tests examples || true)
if [ -n "$stray" ]; then
    echo "!! #[ignore]d tests found (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "ignore budget OK (0 skipped tests)"

echo
echo "== tier-1: environment budget =="
# The environment budget is zero too: `Config`, as carried by the
# `Scenario`, is the only input of a run. A variable read anywhere is a
# second configuration channel, and one set from a test races every
# sibling test thread that builds a `Config`. (`env::args` in bins is
# not matched and is fine.)
stray=$(grep -rn --include='*.rs' 'env::var\|env::set_var\|env::remove_var' crates tests examples || true)
if [ -n "$stray" ]; then
    echo "!! environment access found (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "environment budget OK (0 variables read or set)"

echo
echo "== tier-1: arithmetic budget =="
# One FMM pair arithmetic: `PairTerms::of` over
# `KernelTensors::at_softened`, whose `u2.sqrt()` in tensors.rs is the
# only square root a pair takes (direct.rs is the O(N^2) reference,
# stencil.rs geometry). tensors.rs also builds the lattice table — the
# per-offset B0 / B1 a leaf's lattice pairs take instead of a divide and
# a square root — from that same `at_softened`, so the table is no
# exception. A `sqrt` in the kernels, the expansion or the solver is a
# second hand-written pair body coming back — it would round the same
# pair differently depending on who evaluates it.
stray=$(grep -n 'sqrt' crates/gravity/src/kernels.rs crates/gravity/src/expansion.rs \
    crates/gravity/src/solver.rs || true)
if [ -n "$stray" ]; then
    echo "!! pair arithmetic outside tensors.rs (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
# Digests are ISA-independent because every `Lanes` op is one IEEE op
# per lane: a fused multiply-add or a fast-math intrinsic rounds
# differently on a host that has the instruction (DESIGN.md "One work
# item per sub-grid & SIMD"). None exists; none may come.
stray=$(grep -rn --include='*.rs' 'mul_add\|fadd_fast\|fmul_fast' crates || true)
if [ -n "$stray" ]; then
    echo "!! fused or fast-math arithmetic under crates/ (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
# No rank-3 tensor: a pair meets `B3` only through `q:B3`, which
# `KernelTensors::contract_q_b3` builds from `d`, `u⁵` and `u⁷` (tensors.rs
# module docs). Ten stored components, a symmetric-index table or a
# full-index accessor in gravity's non-test code is the 200-flop tensor
# coming back.
stray=$(awk 'FNR == 1 { test = 0 } /^mod tests/ { test = 1 }
    !test && /SYM3|b3_at|\.b3([^A-Za-z0-9_]|$)/ { print FILENAME ":" FNR ": " $0 }' \
    crates/gravity/src/*.rs)
if [ -n "$stray" ]; then
    echo "!! a rank-3 tensor in gravity's non-test code (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "arithmetic budget OK (0 square roots outside tensors.rs, 0 mul_add / fast-math, 0 rank-3 tensors)"

echo
echo "== tier-1: ledger budget =="
# One angular-momentum closure: the driver deposits the counter-torque
# `−r × f` of every body force it applies into the spin fields
# (`hydro::angmom::body_force_spin`). A torque in gravity's non-test code
# — a pair-torque term, a running sum, a field — is a second closure
# coming back, one no run reads, paid for in the pair body's registers.
stray=$(awk 'FNR == 1 { test = 0 } /^mod tests/ { test = 1 }
    { code = $0; sub(/\/\/.*/, "", code) }
    !test && code ~ /torque/ { print FILENAME ":" FNR ": " $0 }' \
    crates/gravity/src/*.rs)
if [ -n "$stray" ]; then
    echo "!! a torque in gravity's non-test code (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "ledger budget OK (0 torques in gravity's non-test code; one closure, the driver's spin deposit)"

echo
echo "== tier-1: device-ledger budget =="
# One device model: the §5.1 launch decision is made in one place
# (`StreamPool::launch`; a per-item launch is the one-item batch), in
# virtual time, and counted in one ledger
# (`AggregationStats::items_{gpu,cpu}`). A second launch entry point, a
# second launch counter, or a second string-keyed parcel count beside
# the transport's `parcels_tx` is a copy that the first has to be kept in
# step with, coming back. The simulated device keeps clocks, not
# threads: a thread, a spawned executor or a condition variable in
# gpusim is the closure-running executor coming back, and with it a
# second execution path through the FMM solver (a stream handle, a
# launch site per item).
stray=$(grep -rn --include='*.rs' 'LaunchStats\|CudaStream\|LaunchSite' crates tests examples || true)
if [ -n "$stray" ]; then
    echo "!! a second launch ledger or a stream executor's handle under crates/, tests/ or examples/ (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
stray=$(grep -rn --include='*.rs' 'thread::\|spawn\|Condvar' crates/gpusim/src || true)
if [ -n "$stray" ]; then
    echo "!! a thread in crates/gpusim/src (the budget is zero; the device runs in virtual time):" >&2
    echo "$stray" >&2
    exit 1
fi
launches=$(grep -rn --include='*.rs' 'pub fn launch' crates/gpusim/src | wc -l)
if [ "$launches" -ne 1 ]; then
    echo "!! $launches launch entry points in crates/gpusim/src (the budget is 1, StreamPool::launch):" >&2
    grep -rn --include='*.rs' 'pub fn launch' crates/gpusim/src >&2 || true
    exit 1
fi
stray=$(grep -rn --include='*.rs' '"parcels/sent"' crates || true)
if [ -n "$stray" ]; then
    echo "!! a second parcel count under crates/ (the budget is zero; read parcels_tx):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "device-ledger budget OK (0 LaunchStats / CudaStream / LaunchSite, 0 threads in gpusim, 1 launch decision, 0 parcels/sent counters)"

echo
echo "== tier-1: ghost budget =="
# Ghosts do not live in the tree: each leaf's RHS task gathers its halo
# into a per-worker scratch grid (`octree::halo::InterfacePlan::gather`). A
# whole-tree or per-shard fill called from the driver is a fill phase —
# its barriers, its spare grids, its serial install — coming back.
stray=$(grep -rn --include='*.rs' 'fill_halos_for_leaves\|fill_all_halos_parallel' crates/core/src || true)
if [ -n "$stray" ]; then
    echo "!! ghost fill called from crates/core/src (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
# A leaf's grid is its interior alone, in the layout the wire and the
# checkpoint carry: a second layout for the same state (an "interior"
# extract/apply pair, an RK2 stage fed from one) is the ghost ring in
# the tree coming back.
stray=$(grep -rnE 'extract_interior|apply_interior|_from_interior' crates tests examples || true)
if [ -n "$stray" ]; then
    echo "!! a second leaf-state layout under crates/, tests/ or examples/ (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
# The driver makes one ghosted grid: the RHS task's per-worker scratch.
ghosted=$(grep -rn --include='*.rs' 'SubGrid::ghosted' crates/core/src | wc -l)
if [ "$ghosted" -ne 1 ]; then
    echo "!! SubGrid::ghosted appears $ghosted times under crates/core/src (the budget is 1, the RHS scratch):" >&2
    grep -rn --include='*.rs' 'SubGrid::ghosted' crates/core/src >&2 || true
    exit 1
fi
echo "ghost budget OK (0 tree fills on the driver's path, 1 leaf layout, 1 ghosted scratch)"

echo
echo "== tier-1: halo-geometry budget =="
# One resolution per tree: `InterfacePlan::new` is the only caller of
# `halo::resolve` outside tests, and the gather, a leaf's sources, the
# push plan and the resident sets are projections of the plan it builds.
# A second caller — a per-leaf resolve in the gather, a source walk in
# the shard map — is a second derivation of the halo geometry coming
# back, one that the first has to be kept in step with.
calls=$(awk 'FNR == 1 { test = 0 } /^mod tests/ { test = 1 }
    { code = $0; sub(/\/\/.*/, "", code) }
    !test && code ~ /(^|[^A-Za-z0-9_])resolve\(/ && code !~ /fn resolve\(/ { print FILENAME ":" FNR ": " $0 }' \
    crates/octree/src/*.rs)
if [ "$(echo "$calls" | grep -c .)" -ne 1 ]; then
    echo "!! non-test resolve( calls under crates/octree/src (the budget is 1, InterfacePlan::new):" >&2
    echo "$calls" >&2
    exit 1
fi
stray=$(grep -rnw --include='*.rs' 'halo_sources\|gather_ghosts' crates tests examples || true)
if [ -n "$stray" ]; then
    echo "!! a halo-geometry reader beside the interface plan under crates/, tests/ or examples/ (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "halo-geometry budget OK (1 resolve call, in InterfacePlan::new; 0 halo_sources / gather_ghosts)"

echo
echo "== tier-1: stage-memory budget =="
# A leaf's RK2 stage memory is one spare grid: its stage task takes the
# RHS into a per-worker scratch and writes the update into the spare,
# which is then swapped with the leaf's grid. A per-leaf RHS buffer or
# pre-stage copy beside it is the old standing stage memory coming back
# (two 57 344 B buffers a leaf).
stray=$(grep -rn --include='*.rs' 'StageBuffers' crates/core/src || true)
if [ -n "$stray" ]; then
    echo "!! per-leaf stage buffers under crates/core/src (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
# The driver allocates one RHS: the stage task's per-worker scratch.
rhs=$(grep -rn --include='*.rs' '\[0\.0; FIELD_COUNT\]\|\.dudt(' crates/core/src | wc -l)
if [ "$rhs" -ne 1 ]; then
    echo "!! $rhs RHS allocations under crates/core/src (the budget is 1, the per-worker scratch):" >&2
    grep -rn --include='*.rs' '\[0\.0; FIELD_COUNT\]\|\.dudt(' crates/core/src >&2 || true
    exit 1
fi
echo "stage-memory budget OK (1 spare grid a leaf, 1 per-worker RHS scratch)"

echo
echo "== tier-1: derived-grid budget =="
# The tree stores the state once, on its leaves: refine moves a leaf's
# grid into its children and the FMM builds refined-node moments by M2M.
# `Octree::restrict_all` is an on-demand view for tests, bins and the
# benchmark; a call from the run path's crates is a second, derived copy
# of the state coming back, rebuilt every time and read by nothing.
stray=$(grep -rn --include='*.rs' 'restrict_all' crates/core/src crates/scf/src || true)
if [ -n "$stray" ]; then
    echo "!! restrict_all called from crates/core/src or crates/scf/src (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "derived-grid budget OK (0 refined-node grids built on the run path)"

echo
echo "== tier-1: slab budget =="
# The FMM same-level pass is one work item per sub-grid, as the paper
# launches its kernels. A chunk size, a row-slab kernel or a node window
# refilled from a merge is the slab pipeline coming back.
stray=$(grep -rnE 'normalize_chunk_cells|DEFAULT_CHUNK_CELLS|_range_into|launch_next' crates || true)
if [ -n "$stray" ]; then
    echo "!! slab pipeline under crates/ (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "slab budget OK (one FMM work item per sub-grid)"

echo
echo "== tier-1: wire budget =="
# Localities talk one way: every cross-locality message is a
# fire-and-forget action, and the driver's go through
# `DistributedDriver::exchange` rounds (counted, epoch-checked, ended by
# a crash-aware quiescence wait). A request/response call layer or a
# collectives module beside them is a second path coming back.
stray=$(grep -rnE 'collectives|call_action|try_call|register_request_handler|CallHandle|RESPONSE_ACTION' \
    crates tests examples || true)
if [ -n "$stray" ]; then
    echo "!! a remote-call or collectives path under crates/, tests/ or examples/ (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "wire budget OK (0 remote calls, 0 collectives beside the exchange rounds)"

echo
echo "== tier-1: owner-registry budget =="
# The shard map is the only record of where a leaf lives: a rebalance
# moves leaves with epoch-stamped migrate parcels, and a parcel runs on
# the locality it names. An address registry, its forwarding pointers or
# its migration calls beside the `ShardMap` are a second owner record
# coming back, one that nothing keeps in step with the first.
stray=$(grep -rnE '\bAgas\b|\.agas\(\)|forwarding_target|begin_migration|record_remote' \
    crates tests examples || true)
if [ -n "$stray" ]; then
    echo "!! an owner registry beside the shard map under crates/, tests/ or examples/ (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "owner-registry budget OK (0 records of a leaf's locality beside the shard map)"

echo
echo "== tier-1: one ownership record budget =="
# Inside the shard map, ownership is stored once: the tree's leaves in
# curve order plus one cut index per shard boundary, so every leaf has
# one owner and every shard is a contiguous run of the curve by
# construction. An owner hash map or per-shard leaf lists in shard.rs's
# non-test code are a second copy that must be checked against the
# first, and a partition routine in sfc.rs is a second copy of the cut.
stray=$(awk '/^#\[cfg\(test\)\]/ { exit } /HashMap|Vec<Vec</ { print FILENAME ":" FNR ": " $0 }' \
    crates/octree/src/shard.rs; grep -Hn 'fn partition\b' crates/octree/src/sfc.rs || true)
if [ -n "$stray" ]; then
    echo "!! a second ownership record in the shard map or sfc.rs (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "one ownership record budget OK (0 owner maps or shard lists, 0 sfc partition routines)"

echo
echo "== tier-1: counter-namespace budget =="
# One counter namespace: `amt::Metrics` is one shared map of full
# counter names, and every component counts into a prefixed view of it
# (`parcelport/<kind>`, `parcelport/faults`, `locality/<i>`, ...). A
# registry of its own in a layer, a mount table joining registries or an
# accessor handing one out is the second store coming back, one whose
# names the cluster has to splice into the first.
stray=$(grep -rnE 'CounterRegistry|\.mount\(|fn counters\(|fault_counters|reliability_counters|reliable_layer' \
    crates tests examples || true)
if [ -n "$stray" ]; then
    echo "!! a second counter store under crates/, tests/ or examples/ (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
# Each parcelport layer takes its `Counter` handles once, when it is
# built; a string-keyed update is a map lookup on every parcel.
stray=$(awk 'FNR == 1 { test = 0 } /^mod tests/ { test = 1 }
    { code = $0; sub(/\/\/.*/, "", code) }
    !test && code ~ /\.(increment|add)\("/ { print FILENAME ":" FNR ": " $0 }' \
    crates/parcelport/src/*.rs)
if [ -n "$stray" ]; then
    echo "!! a counter updated by name in crates/parcelport/src's non-test code (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "counter-namespace budget OK (0 second counter stores, 0 parcelport counters updated by name)"

echo
echo "== tier-1: one step model budget =="
# The scale-out model is barrier-synchronous, so `perfmodel::des` is one
# loop over steps whose per-phase times are local variables. A component
# trait, a shared simulation context or spec, or an event heap is the
# general event engine coming back to compute the same recurrence.
stray=$(grep -rnE 'trait Component|SimContext|SimSpec|BinaryHeap' crates/perfmodel/src || true)
if [ -n "$stray" ]; then
    echo "!! an event engine under crates/perfmodel/src (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "one step model budget OK (0 components, contexts, specs or event heaps)"

echo
echo "== tier-1: stand-in budget =="
# One queue idiom: the scheduler's deques and injector (amt) and the
# libfabric completion queues (parcelport) are std `Mutex<VecDeque>`s
# owned by the module that uses them, not a foreign deque or channel
# API over the same mutex. And a future has one wait, `get_help`, which
# runs tasks: nothing parks on a future, so it holds no condvar.
stray=$(grep -rn 'crossbeam' crates tests examples Cargo.toml || true)
if [ -n "$stray" ]; then
    echo "!! a crossbeam stand-in under crates/, tests/, examples/ or in Cargo.toml (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
stray=$(grep -n 'Condvar' crates/amt/src/future.rs || true)
if [ -n "$stray" ]; then
    echo "!! a blocking wait in crates/amt/src/future.rs (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "stand-in budget OK (0 crossbeam stand-ins, 0 condvars in amt's futures)"

echo
echo "== tier-1: caller budget =="
# Every `pub fn` / `pub(crate) fn` under crates/ is named somewhere
# besides its own definition — a call, a test, the benchmark, a doc
# link. A word-grep, so a name shared by two items counts for both: the
# budget finds surfaces nobody reaches, not every one. Uncalled surface
# is deleted, not kept "in case".
defs=$(grep -rhoE --include='*.rs' 'pub(\(crate\))? fn [A-Za-z_][A-Za-z0-9_]*' crates \
    | awk '{print $NF}' | sort | uniq -c)
words=$(grep -rhoE --include='*.rs' '\b[A-Za-z_][A-Za-z0-9_]*' crates tests examples benchmark/src \
    | sort | uniq -c)
stray=$(awk 'NR == FNR { seen[$2] = $1; next } seen[$2] <= $1 { print $2 }' \
    <(echo "$words") <(echo "$defs"))
if [ -n "$stray" ]; then
    echo "!! pub fns named nowhere but their definition (the budget is zero):" >&2
    echo "$stray" >&2
    exit 1
fi
echo "caller budget OK ($(echo "$defs" | wc -l) pub fn names, each named elsewhere)"

echo
echo "== tier-1: cargo build --workspace --release =="
cargo build --workspace --release

echo
echo "== tier-1: cargo test -q =="
cargo test -q

echo
echo "== tier-1: scenario verification registry (release gates) =="
# The full registry — golden digests, conservation gates, analytic
# tolerances, distributed bit-identity on both transports, and the
# mid-merger checkpoint/restore — runs under release: the binary-merger
# scenarios cost minutes per step in debug. The debug pass above still
# runs the sod gate as the debug==release arithmetic witness.
cargo test -q --release -p integration-tests --test scenario_gate

echo
echo "== tier-1: the same registry built for baseline x86-64 (no AVX2) =="
# .cargo/config.toml compiles for AVX2; the golden digests must not
# depend on it. `--config` appends to the checked-in rustflags (no
# environment variable), `-sse3` takes everything above SSE2 back off,
# and the second feature set gets a target directory of its own so it
# does not evict the first. ~1 min cold, the run itself ~45 s.
cargo test -q --release -p integration-tests --test scenario_gate \
    --config "target.'cfg(target_arch = \"x86_64\")'.rustflags=['-Ctarget-feature=-sse3']" \
    --target-dir target/baseline

echo
echo "== tier-1: cargo doc --no-deps (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo
echo "== tier-1: benchmark/ compiles and runs against these crates =="
# benchmark/ is a workspace of its own with path dependencies on
# crates/*: an API rename here passes every step above and breaks the
# benchmark. Read-only use — benchmark/ and BENCHMARK.json are not
# edited by this script.
cargo test --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --quick --only hydro_blast
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --quick --only binary_uniform
# The one workload that ships leaf moments between localities and runs
# the restricted solve; --quick still checks its digest against the
# one-locality run.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --quick --only binary_dist2

echo
echo "== tier-1: paper-artifact bins (each enforces its own gate) =="
# Nothing else executes these: a bin that panics or fails its gate exits
# non-zero and stops the script. Their JSON goes to stdout, which is
# not needed here.
for bin in table4_subgrids table2_node_level gpu_launch_fraction fig23_scaleout; do
    cargo run --release --quiet -p bench --bin "$bin" > /dev/null
done
# The launch split is a virtual-time replay, so it is the same on every
# run: two runs of gpu_launch_fraction print the same JSON.
cargo run --release --quiet -p bench --bin gpu_launch_fraction 2> /dev/null > target/launch_fraction_a.json
cargo run --release --quiet -p bench --bin gpu_launch_fraction 2> /dev/null > target/launch_fraction_b.json
if ! cmp target/launch_fraction_a.json target/launch_fraction_b.json; then
    echo "!! gpu_launch_fraction printed different JSON on two runs (it must be deterministic)" >&2
    exit 1
fi
echo "gpu_launch_fraction deterministic (two runs, identical JSON)"

echo
echo "tier-1 green"
