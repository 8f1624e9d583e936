#!/usr/bin/env sh
# Local CI gate. Run from the repo root before sending a change out:
#
#   ./ci.sh          # fmt check + clippy + tier-1 build/test
#   ./ci.sh quick    # skip the release build, debug tests only
#
# Tier-1 (ROADMAP.md): `cargo build --release && cargo test -q` must pass.
set -eu

cd "$(dirname "$0")"

say() { printf '\n== %s ==\n' "$1"; }

say "rustfmt (check only)"
cargo fmt --check

say "clippy, warnings are errors"
cargo clippy --workspace --all-targets -- -D warnings

say "rustdoc, warnings are errors"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

say "empower-lint (determinism & concurrency gate)"
# Domain lints (D001-D011, DESIGN.md §7 and §12): hash containers,
# wall-clock time, ambient-entropy RNGs, partial_cmp().unwrap(), library
# panics, missing #![forbid(unsafe_code)], plus the workspace-aware
# concurrency-determinism rules (mpsc merges, relaxed RMWs, detached
# spawns, hot-path locks, undeclared EMPOWER_* knobs). Grandfathered
# violations live in the baseline ratchet (counts may only decrease);
# the SARIF-style report is archived as a CI artifact in both modes.
ART_DIR="${EMPOWER_CI_ARTIFACT_DIR:-target/ci-artifacts}"
mkdir -p "$ART_DIR"
cargo run -q -p empower-lint -- \
    --baseline crates/lint/baseline.lint --sarif "$ART_DIR/empower-lint.sarif"
echo "lint artifact: $ART_DIR/empower-lint.sarif"

if [ "${1:-}" = "quick" ]; then
    say "tests (debug, equivalence corpora trimmed)"
    # The §3.2 equivalence property test sweeps 50 random topologies by
    # default; 12 keep the quick loop fast while still crossing both
    # topology classes and the restricted-medium query. The simulator
    # engine-equivalence corpus is likewise trimmed to its Fig. 1 prefix
    # plus the first dynamics scenarios, and the workload replay/cross-
    # engine gate to its first scenario; CI's full mode runs everything.
    # --workspace: the repo root is itself a package, so a bare
    # `cargo test` would cover only the root crate's suites and skip the
    # member-crate gates (sim equivalence corpus, datapath graph tests,
    # bench determinism tests).
    EMPOWER_EQUIV_TOPOLOGIES=12 EMPOWER_SIM_EQUIV_SCENARIOS=14 \
        EMPOWER_WORKLOAD_SCENARIOS=1 \
        cargo test -q --workspace
    say "perf gate: simulator hot-path counters vs checked-in budget"
    # Counter-only in quick mode (EMPOWER_SIM_SKIP_TIMING): wall-clock
    # batches of an unoptimized debug build prove nothing, but the
    # deterministic allocation counters gate exactly the same way.
    PERF_JSON="$(mktemp)"
    EMPOWER_SIM_SKIP_TIMING=1 cargo run -q -p empower-bench --bin bench_sim -- \
        --quick --budget crates/bench/perf_budget.json --json "$PERF_JSON" >/dev/null
    rm -f "$PERF_JSON"
else
    say "tier-1: release build"
    # --workspace on both: a bare invocation at the repo root covers only
    # the root package, skipping the member-crate gates and the bench
    # binaries the perf gates below execute.
    cargo build --release --workspace
    say "tier-1: tests"
    cargo test -q --release --workspace
    say "perf gate: exploration-tree counters vs checked-in budget"
    # Deterministic counter gate (DESIGN.md §8): fails when the pinned
    # seeded workload expands more tree nodes than the budget allows or
    # the baseline/optimized expansion ratio drops below its floor. No
    # wall-clock thresholds, so no flakiness.
    PERF_JSON="$(mktemp)"
    target/release/bench_routing --quick \
        --budget crates/bench/perf_budget.json --json "$PERF_JSON" >/dev/null
    rm -f "$PERF_JSON"
    say "perfbench correctness smoke (campus, testbed_faults, fluid_sweep)"
    # One short run per benchmark workload. perfbench exits 0 even when a
    # job's outputs differ from the digests pinned in perfbench/pinned.txt,
    # so the gate reads the `"correct": true` flag on its last line.
    for W in campus testbed_faults fluid_sweep; do
        LAST="$(cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$W" --seed 1 --seconds 1 --trace 0 | tail -n 1)"
        case "$LAST" in
            *'"correct": true'*) ;;
            *) echo "perfbench $W: outputs differ from the pinned digests: $LAST" >&2; exit 1 ;;
        esac
    done
fi

if [ "${EMPOWER_MIRI:-}" = "1" ]; then
    # Optional deep lane: run the one threaded crate under miri, so the
    # static concurrency rules (D007-D010) get a dynamic cross-check.
    # Requires a nightly toolchain with the miri component; skipped (with
    # a notice) when absent so the lane can be enabled fleet-wide.
    if cargo miri --version >/dev/null 2>&1; then
        say "miri: empower-exec (EMPOWER_MIRI=1)"
        cargo miri test -p empower-exec
    else
        say "miri lane requested but the miri toolchain is absent — skipped"
    fi
fi

say "scenario smoke test (determinism)"
# Run the example scenario twice; the manifests must be byte-identical.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
if [ "${1:-}" = "quick" ]; then
    EMPOWER="cargo run -q --bin empower --"
else
    EMPOWER=target/release/empower
fi
$EMPOWER scenario run examples/fig12_drop.toml \
    --metrics "$SMOKE_DIR/a.json" >/dev/null
$EMPOWER scenario run examples/fig12_drop.toml \
    --metrics "$SMOKE_DIR/b.json" >/dev/null
cmp "$SMOKE_DIR/a.json" "$SMOKE_DIR/b.json" \
    || { echo "scenario manifests differ between identical runs" >&2; exit 1; }

say "workload smoke test (determinism)"
# Same two-run byte-comparison for the workload DSL's CLI entry point.
$EMPOWER workload run examples/workload_enterprise_rr.toml \
    --metrics "$SMOKE_DIR/wa.json" >/dev/null
$EMPOWER workload run examples/workload_enterprise_rr.toml \
    --metrics "$SMOKE_DIR/wb.json" >/dev/null
cmp "$SMOKE_DIR/wa.json" "$SMOKE_DIR/wb.json" \
    || { echo "workload manifests differ between identical runs" >&2; exit 1; }

if [ "${EMPOWER_SKIP_NET:-}" = "1" ]; then
    say "udp loopback smoke test skipped (EMPOWER_SKIP_NET=1)"
else
    say "udp loopback smoke test (forwarding graph over real sockets)"
    # Two OS processes forward 64 real EMPoWER frames over 127.0.0.1
    # through the same graph nodes the simulator drives (DESIGN.md §10).
    # Sandboxes without loopback sockets can set EMPOWER_SKIP_NET=1.
    if [ "${1:-}" = "quick" ]; then
        UDP_FWD="cargo run -q -p empower-datapath --example udp_forward --"
    else
        cargo build -q --release -p empower-datapath --example udp_forward
        UDP_FWD=target/release/examples/udp_forward
    fi
    # Port 0 = OS-assigned ephemeral port (no collisions between parallel
    # CI jobs); the receiver's `listening` line advertises the real
    # address. EMPOWER_UDP_PORT pins a fixed port when needed.
    UDP_ADDR="127.0.0.1:${EMPOWER_UDP_PORT:-0}"
    RECV_LOG="$SMOKE_DIR/udp_recv.log"
    $UDP_FWD recv "$UDP_ADDR" >"$RECV_LOG" 2>&1 &
    RECV_PID=$!
    # Wait until the receiver owns the socket before offering frames.
    i=0
    until grep -q '^listening' "$RECV_LOG" 2>/dev/null; do
        i=$((i + 1))
        if [ "$i" -gt 300 ]; then
            echo "udp receiver never came up:" >&2
            cat "$RECV_LOG" >&2
            kill "$RECV_PID" 2>/dev/null || true
            exit 1
        fi
        sleep 0.1
    done
    # The bound address (with the discovered port) is what the sender must
    # target, not the possibly-port-0 bind request.
    UDP_PEER="$(sed -n 's/^listening //p' "$RECV_LOG" | head -n 1)"
    [ -n "$UDP_PEER" ] \
        || { echo "udp receiver printed no bound address:" >&2; cat "$RECV_LOG" >&2; exit 1; }
    $UDP_FWD send "$UDP_PEER" >/dev/null
    wait "$RECV_PID" \
        || { echo "udp receiver failed:" >&2; cat "$RECV_LOG" >&2; exit 1; }
    grep -q 'delivered 64 of 64 frames, in order: yes' "$RECV_LOG" \
        || { echo "udp loopback delivery check failed:" >&2; cat "$RECV_LOG" >&2; exit 1; }
    grep -q 'route prices \[Some(0.25), Some(0.5)\]' "$RECV_LOG" \
        || { echo "udp loopback ack price check failed:" >&2; cat "$RECV_LOG" >&2; exit 1; }
fi

if [ "${1:-}" != "quick" ]; then
    say "perf gate: simulator hot-path counters vs checked-in budget"
    # Full mode: engine equivalence over the whole corpus, the
    # optimized/reference event-dispatch throughput (informational; only
    # the deterministic counters gate) and the complete sharded-simulation
    # scale curve — campus topologies up to 1011 nodes at shard counts
    # 1/2/4/8 with byte-identical reports asserted per row and the
    # 1011-node 4-shard row gated twice by the budget: counter speedup
    # (deterministic) and wall-clock speedup (shard-local views run in
    # parallel must beat the single-threaded engine's elapsed time; the
    # median of repeated timings is gated). (The quick lane runs the same
    # gate with the 103-node smoke curve at shards 1 and 4, counters
    # only.) It runs last because its wall-clock floor is the one
    # timing-sensitive gate: every deterministic gate above has already
    # reported by the time it can fail.
    PERF_JSON="$(mktemp)"
    target/release/bench_sim \
        --budget crates/bench/perf_budget.json --json "$PERF_JSON" >/dev/null
    rm -f "$PERF_JSON"
fi

say "ci.sh: all gates passed"
