#!/usr/bin/env bash
# Tier-1 gate: the checks every PR must keep green.
#
#   1. zero #[deprecated] and zero #[ignore] budgets
#   2. release build of the whole workspace (bins + benches included)
#   3. benches compile (cargo bench --no-run — `cargo build` skips them)
#   4. the full test suite in quiet mode
#   5. the scenario verification registry under release (golden digests,
#      conservation gates, distributed bit-identity, checkpoint/restore)
#   6. the FMM_CHUNK_CELLS and FMM_AGG_* knobs round-trip env → Config →
#      solver, the regrid knobs builder → driver config
#   7. rustdoc with warnings denied (broken links, missing docs on amt)
#   8. the repo benchmark (its own workspace, so nothing above compiles
#      it) still builds, passes its tests and runs against these crates:
#      one smoke that bypasses the FMM and one that lives in it
#   9. the three cheap paper-artifact bins run and pass their own gates
#      (fig23_scaleout and the scenario_gate bin are the expensive two;
#      step 5 runs the registry the latter prints)
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
echo "== tier-1: cargo build --workspace --release =="
cargo build --workspace --release

echo
echo "== tier-1: cargo bench --no-run (benches must keep compiling) =="
cargo bench --workspace --no-run

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
echo "== tier-1: knob round-trips (env -> Config -> solver, builder -> policy) =="
cargo test -q -p integration-tests --test distributed_driver \
    fmm_chunk_cells_round_trips_through_config
cargo test -q -p integration-tests --test distributed_driver \
    fmm_agg_knobs_round_trip_through_config
cargo test -q -p integration-tests --test distributed_driver \
    regrid_knobs_round_trip_through_config_and_builder

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

echo
echo "== tier-1: paper-artifact bins (each enforces its own gate) =="
# Nothing else executes these: a bin that panics or fails its gate exits
# non-zero and stops the script. Their JSON goes to stdout, which is
# not needed here.
for bin in table4_subgrids table2_node_level gpu_launch_fraction; do
    cargo run --release --quiet -p bench --bin "$bin" > /dev/null
done

echo
echo "tier-1 green"
