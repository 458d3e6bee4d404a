#!/usr/bin/env bash
# Full local gate: lints, formatting, and the tier-1 build + test pass
# (ROADMAP.md). CI and pre-commit both run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clippy (deny deprecated) =="
# No in-repo code may depend on deprecated API: the one-release
# deprecation window for the old merge wrappers is over and they are
# gone, so this lane now simply keeps the workspace free of any future
# deprecated-call regressions.
cargo clippy --workspace --all-targets -- -D deprecated

echo "== rustfmt (check only) =="
cargo fmt --check

echo "== tier-1: release build + tests =="
cargo build --release
cargo test -q

echo "== query engine: proptests + golden slice/matrix output =="
# Property tests: indexed random access and streaming windows must agree
# with full decode, including across repeat-rule boundaries.
cargo test -q -p pilgrim --test query_proptests
# Golden outputs: trace_tool's slice/matrix JSON on the committed
# miniature trace is byte-stable (stdout only; timings go to stderr).
./target/release/trace_tool slice crates/bench/golden/mini.pilgrim 1 5 8 2>/dev/null |
  diff -u crates/bench/golden/mini.slice.json - ||
  { echo "FAIL: trace_tool slice output diverged from golden file." >&2; exit 1; }
./target/release/trace_tool matrix crates/bench/golden/mini.pilgrim 2>/dev/null |
  diff -u crates/bench/golden/mini.matrix.json - ||
  { echo "FAIL: trace_tool matrix output diverged from golden file." >&2; exit 1; }

echo "== governor: bounded memory + degraded-trace e2e =="
# The resource governor must hold every rank's working set within the
# budget on a compression-hostile workload, change nothing when the
# budget is never approached, and leave degraded traces that still
# decode, verify, replay, and answer queries (with fidelity flags).
cargo test -q -p pilgrim --test governor

echo "== corruption: checksummed container never panics =="
# Bit flips and truncations must surface as errors, never panics, and
# salvage must only ever return ranks that verify losslessly.
cargo test -q -p pilgrim --test decode_errors

echo "== governor: adversarial bounded-memory sweep =="
# Deterministic budget sweep on the adversarial workload: each budget
# rung must complete without panicking and report its ladder progress.
cargo run --release -q -p pilgrim-bench --bin governor_sweep -- --iters 150 > /dev/null

echo "== merge equivalence: streamed == batch =="
# The incremental (streaming) merge must be byte-identical to the batch
# merge — clean runs, governor budgets, lossy timing, odd world sizes.
cargo test -q -p pilgrim --test merge_equivalence

echo "== pilgrimd: concurrent streaming ingest smoke =="
# Eight concurrent 4-rank jobs stream into one ingest session (odd jobs
# under a governor budget, so sealed segments flow mid-run); every
# spilled container must validate. Nonzero exit on any loss, and the
# run must end with a parseable schema-1 envelope declaring exit 0.
rm -rf target/pilgrimd-smoke
smoke_out=$(cargo run --release -q -p pilgrim-bench --bin pilgrimd -- \
  --jobs 8 --ranks 4 --iters 20 --budget 48000 --out target/pilgrimd-smoke)
echo "$smoke_out" | tail -1 | grep -q '"schema":1,"command":"local".*"exit":0' ||
  { echo "FAIL: pilgrimd local envelope missing or not exit 0." >&2; exit 1; }
for f in target/pilgrimd-smoke/*.pilgrim; do
  ./target/release/trace_tool validate "$f" > /dev/null ||
    { echo "FAIL: spilled container $f does not validate." >&2; exit 1; }
done

echo "== chaos: seeded fault-injection sweep =="
# Deterministic: same seed, same casualties, same trace. Nonzero exit
# means the degraded merge deadlocked, panicked, or lost rank 0's trace.
cargo run --release -q -p pilgrim-bench --bin chaos -- --quick --seed 0x5EED
cargo run --release -q -p pilgrim-bench --bin chaos -- --quick --seed 42

echo "== crash recovery: kill the collector mid-run, then recover =="
# pilgrimd dies by abort() the moment its 3rd job finishes, leaving the
# other 5 of 8 jobs mid-stream with only the WAL to remember them.
# Recovery must account for all 8 jobs — none silently dropped — and
# rebuild at least the 3 finished ones plus every WAL-intact job.
cargo test -q -p pilgrim --test ingest_recovery
rm -rf target/pilgrimd-crash
cargo run --release -q -p pilgrim-bench --bin pilgrimd -- \
  --jobs 8 --ranks 4 --iters 20 --wal --crash-at-job 3 \
  --out target/pilgrimd-crash || true
recover_json=$(./target/release/trace_tool recover target/pilgrimd-crash) ||
  [ $? -eq 3 ]  # exit 3 (partial/lost present) is an acceptable verdict
echo "$recover_json"
total=$(echo "$recover_json" | grep -o '"total":[0-9]*' | cut -d: -f2)
recovered=$(echo "$recover_json" | grep -o '"recovered":[0-9]*' | cut -d: -f2)
[ "${total:-0}" -eq 8 ] ||
  { echo "FAIL: recovery saw only ${total:-0}/8 crashed jobs." >&2; exit 1; }
[ "${recovered:-0}" -ge 3 ] ||
  { echo "FAIL: only ${recovered:-0} jobs recovered (need >= 3)." >&2; exit 1; }
# Every recovered container the report wrote must validate.
for f in target/pilgrimd-crash/recovered/*.pilgrim; do
  [ -e "$f" ] || continue
  ./target/release/trace_tool validate "$f" > /dev/null ||
    { echo "FAIL: recovered container $f does not validate." >&2; exit 1; }
done

echo "== chaos ingest: fault-injection sweep over the collector =="
# Seeded worker panics, poisoned segments, torn spills and stalled
# producers; half the jobs crash mid-run. Nonzero exit means a WAL cell
# dropped a job without a trace.
cargo run --release -q -p pilgrim-bench --bin chaos_ingest -- --quick --iters 10

echo "== net: loopback serve/send smoke over PNT1 =="
# A real pilgrimd collector process on a loopback port, a real send
# process streaming 4 jobs into it. Both must end with schema-1
# envelopes declaring exit 0, and every delivered container must
# validate. The net_ingest tier-1 suite covers kill/restart/resume and
# degrade-to-local-spill in-process; this lane proves the binaries.
rm -rf target/pilgrimd-net
mkdir -p target/pilgrimd-net
cargo build --release -q -p pilgrim-bench
./target/release/pilgrimd serve --listen 127.0.0.1:0 --out target/pilgrimd-net \
  --expect-jobs 4 > target/pilgrimd-net/serve.out &
serve_pid=$!
listen_addr=""
for _ in $(seq 1 100); do
  listen_addr=$(grep -o '"listening":"[^"]*"' target/pilgrimd-net/serve.out 2>/dev/null |
    head -1 | cut -d'"' -f4) && [ -n "$listen_addr" ] && break
  sleep 0.1
done
[ -n "$listen_addr" ] || { echo "FAIL: pilgrimd serve never reported its port." >&2; exit 1; }
./target/release/pilgrimd send --addr "$listen_addr" --jobs 4 --ranks 2 --iters 10 \
  --spill target/pilgrimd-net/client | tail -1 |
  grep -q '"schema":1,"command":"send".*"exit":0' ||
  { echo "FAIL: pilgrimd send envelope missing or not exit 0." >&2; exit 1; }
wait "$serve_pid" ||
  { echo "FAIL: pilgrimd serve exited nonzero after a clean send." >&2; exit 1; }
tail -1 target/pilgrimd-net/serve.out | grep -q '"schema":1,"command":"serve".*"exit":0' ||
  { echo "FAIL: pilgrimd serve envelope missing or not exit 0." >&2; exit 1; }
for f in target/pilgrimd-net/*.pilgrim; do
  [ -e "$f" ] || { echo "FAIL: no delivered containers in target/pilgrimd-net." >&2; exit 1; }
  ./target/release/trace_tool validate "$f" > /dev/null ||
    { echo "FAIL: delivered container $f does not validate." >&2; exit 1; }
done

echo "== chaos net: seeded wire-fault sweep, twice, bit-identical =="
# Refused connects, mid-frame cuts, bit flips, duplicate frames, stalls
# and permanent partitions. Nonzero exit means a job went nowhere —
# neither delivered, spilled locally, nor recoverable from the
# collector's WALs. Two runs must produce byte-identical tables.
cargo run --release -q -p pilgrim-bench --bin chaos_net -- --quick > target/chaos_net.1
cargo run --release -q -p pilgrim-bench --bin chaos_net -- --quick > target/chaos_net.2
diff target/chaos_net.1 target/chaos_net.2 ||
  { echo "FAIL: chaos_net sweep is not deterministic." >&2; exit 1; }
cat target/chaos_net.1

echo "== net auth: handshake edges + malformed-frame proptests =="
# Truncated/oversized hellos, version skew, replayed challenge
# responses and wrong-key clients must all end in typed rejections with
# no partial WAL state; arbitrary bytes into the PNT1 decoders must
# Err, never panic or allocate a declared-but-unsent length.
cargo test -q -p pilgrim --test net_auth
cargo test -q -p pilgrim --test net_proptests

echo "== chaos adversary: hostile-peer sweep, twice, bit-identical =="
# Garbage hellos, oversize length prefixes, CRC-valid-but-semantically-
# invalid frames, handshake replays, wrong keys, slow-loris writers,
# held connections and mid-handshake disconnects — against a live
# collector with honest clients streaming concurrently. Nonzero exit
# means a panic, a hang, unbounded buffering, or a lost honest job.
cargo run --release -q -p pilgrim-bench --bin chaos_adversary -- --quick \
  > target/chaos_adversary.1
cargo run --release -q -p pilgrim-bench --bin chaos_adversary -- --quick \
  > target/chaos_adversary.2
diff target/chaos_adversary.1 target/chaos_adversary.2 ||
  { echo "FAIL: chaos_adversary sweep is not deterministic." >&2; exit 1; }
cat target/chaos_adversary.1

echo "== net auth e2e: authed serve/send binaries + graceful shutdown =="
# An authenticated collector: the right key delivers with exit 0, the
# wrong key is rejected with a typed error surfaced as an exit-3
# envelope (jobs land in the local spill), and SIGTERM drains the
# collector into a final envelope marked graceful.
rm -rf target/pilgrimd-auth
mkdir -p target/pilgrimd-auth
echo "check-sh-wire-key" > target/pilgrimd-auth/key
echo "not-the-right-key" > target/pilgrimd-auth/wrong-key
./target/release/pilgrimd serve --listen 127.0.0.1:0 --out target/pilgrimd-auth \
  --auth-key-file target/pilgrimd-auth/key --io-timeout-ms 500 \
  > target/pilgrimd-auth/serve.out &
auth_serve_pid=$!
auth_addr=""
for _ in $(seq 1 100); do
  auth_addr=$(grep -o '"listening":"[^"]*"' target/pilgrimd-auth/serve.out 2>/dev/null |
    head -1 | cut -d'"' -f4) && [ -n "$auth_addr" ] && break
  sleep 0.1
done
[ -n "$auth_addr" ] || { echo "FAIL: authed pilgrimd serve never reported its port." >&2; exit 1; }
./target/release/pilgrimd send --addr "$auth_addr" --jobs 2 --ranks 2 --iters 10 \
  --auth-key-file target/pilgrimd-auth/key --spill target/pilgrimd-auth/client | tail -1 |
  grep -q '"schema":1,"command":"send".*"exit":0' ||
  { echo "FAIL: authed pilgrimd send envelope missing or not exit 0." >&2; exit 1; }
wrong_out=$(./target/release/pilgrimd send --addr "$auth_addr" --jobs 1 --ranks 2 --iters 5 \
  --client-id 2 --retry-attempts 3 --auth-key-file target/pilgrimd-auth/wrong-key \
  --spill target/pilgrimd-auth/wrong-client | tail -1) && wrong_code=0 || wrong_code=$?
[ "$wrong_code" -eq 3 ] ||
  { echo "FAIL: wrong-key send exited $wrong_code, want 3 (degraded)." >&2; exit 1; }
echo "$wrong_out" | grep -q '"auth_failed":true' ||
  { echo "FAIL: wrong-key send envelope does not surface auth_failed." >&2; exit 1; }
# The degraded client's spill dir is an ordinary recoverable PWL1
# directory: recovery finds its one job recovered, and every container
# it names validates.
wrong_rec=$(./target/release/trace_tool recover target/pilgrimd-auth/wrong-client | tail -1) ||
  { echo "FAIL: trace_tool recover failed on the degraded client spill dir." >&2; exit 1; }
echo "$wrong_rec" | grep -q '"total":1,"recovered":1,' ||
  { echo "FAIL: degraded client spill dir did not recover its job: $wrong_rec" >&2; exit 1; }
for c in $(echo "$wrong_rec" | grep -o '"output":"[^"]*"' | cut -d'"' -f4); do
  ./target/release/trace_tool validate "$c" > /dev/null ||
    { echo "FAIL: recovered container $c does not validate." >&2; exit 1; }
done
kill -TERM "$auth_serve_pid"
wait "$auth_serve_pid" ||
  { echo "FAIL: authed pilgrimd serve exited nonzero after SIGTERM drain." >&2; exit 1; }
tail -1 target/pilgrimd-auth/serve.out |
  grep -q '"schema":1,"command":"serve".*"graceful":true.*"exit":0' ||
  { echo "FAIL: SIGTERM did not produce a graceful exit-0 serve envelope." >&2; exit 1; }

echo "== record/replay: bit-determinism, divergence, minimization =="
# The rr engine's promises, proven end to end on real binaries:
#  1. a fresh wildcard-heavy recording strict-replays clean (the PGND
#     side-channel pins every nondeterministic choice);
#  2. the committed fixture still strict-replays clean (format + replay
#     direction are stable across sessions);
#  3. corrupting one recorded event makes strict replay fail (exit 1)
#     naming a divergence site;
#  4. the grammar-aware minimizer shrinks the corrupted fixture to the
#     committed reproducer, byte-for-byte (mutate and minimize are pure
#     functions of the trace, so the golden diff is exact).
cargo test -q -p integration-tests --test rr_e2e
cargo test -q -p integration-tests --test rr_proptests
rm -rf target/rr-lane && mkdir -p target/rr-lane
./target/release/trace_tool record master_worker 4 20 target/rr-lane/fresh.pilgrim --rr \
  > /dev/null
./target/release/trace_tool replay target/rr-lane/fresh.pilgrim --strict > /dev/null ||
  { echo "FAIL: fresh rr recording did not strict-replay clean." >&2; exit 1; }
./target/release/trace_tool replay crates/bench/golden/rr_fixture.pilgrim --strict \
  > /dev/null ||
  { echo "FAIL: committed rr fixture did not strict-replay clean." >&2; exit 1; }
./target/release/trace_tool mutate crates/bench/golden/rr_fixture.pilgrim \
  target/rr-lane/mutated.pilgrim > /dev/null
if ./target/release/trace_tool replay target/rr-lane/mutated.pilgrim --strict > /dev/null
then echo "FAIL: strict replay accepted a corrupted recording." >&2; exit 1; fi
./target/release/trace_tool minimize target/rr-lane/mutated.pilgrim \
  target/rr-lane/minimized.pilgrim target/rr-lane/reproducer.json > /dev/null
diff -u crates/bench/golden/rr_reproducer.json target/rr-lane/reproducer.json ||
  { echo "FAIL: minimized reproducer diverged from golden file." >&2; exit 1; }

echo "== panic hygiene: no new unwrap/expect in fault-critical modules =="
# The merge and fabric must degrade, not panic, on peer failure. Counts
# cover non-test code only; lower is fine, higher fails the gate.
check_panics() {
  local file=$1 budget=$2
  local n
  n=$(awk '/^#\[cfg\(test\)\]/{exit} {print}' "$file" |
    grep -c '\.unwrap()\|\.expect(' || true)
  if [ "$n" -gt "$budget" ]; then
    echo "FAIL: $file has $n unwrap()/expect() calls (budget $budget)." >&2
    echo "Handle the error or route it through the degraded path." >&2
    exit 1
  fi
  echo "$file: $n/$budget unwrap()/expect() calls"
}
check_panics crates/mpi-sim/src/fabric.rs 5
check_panics crates/core/src/merge.rs 3
# The governed hot path and the container decoder face untrusted input
# (adversarial workloads, corrupt bytes); they must stay panic-free.
check_panics crates/core/src/tracer.rs 0
check_panics crates/core/src/ingest.rs 0
check_panics crates/core/src/decode.rs 0
check_panics crates/core/src/governor.rs 0
# The crash-recovery path runs when things have already gone wrong once;
# it must never make it worse by panicking.
check_panics crates/core/src/wal.rs 0
check_panics crates/core/src/recover.rs 0
check_panics crates/core/src/ingest_fault.rs 0
# The wire transport runs on both sides of every traced job; a panic on
# a torn frame or a poisoned lock would take the collector (or the
# traced rank) down with it.
check_panics crates/core/src/net.rs 0
check_panics crates/core/src/net_fault.rs 0
# The auth layer authenticates hostile bytes by definition; every input
# is attacker-controlled and nothing in it may panic.
check_panics crates/core/src/auth.rs 0
# The rr engine replays untrusted recordings and its nondet decoder
# faces corrupt PGND bytes; both must return typed errors, never panic.
check_panics crates/core/src/rr.rs 0
check_panics crates/core/src/nondet.rs 0

echo "== unsafe budget: no unsafe outside the two audited sites =="
# Non-test code under crates/*/src may use `unsafe` only in auth.rs (the
# one call into the SHA-NI block function, behind run-time feature
# detection) and pilgrimd.rs (the raw libc `signal` registration).
# Comment lines are ignored; a test module ends the scan of its file.
unsafe_lines() {
  awk '/^#\[cfg\(test\)\]/{t=1; next} t && /^ *(pub(\([a-z]+\))? )?mod /{exit} {t=0; print}' "$1" |
    grep -v '^[[:space:]]*//' | grep -c '\bunsafe\b' || true
}
declare -A unsafe_budget=(
  [crates/core/src/auth.rs]=1
  [crates/bench/src/bin/pilgrimd.rs]=1
)
while IFS= read -r f; do
  n=$(unsafe_lines "$f")
  budget=${unsafe_budget[$f]:-0}
  if [ "$n" -gt "$budget" ]; then
    echo "FAIL: $f has $n non-test line(s) with unsafe (budget $budget)." >&2
    echo "Use safe code, or audit the new site and add it to this lane." >&2
    exit 1
  fi
  if [ -n "${unsafe_budget[$f]:-}" ]; then echo "$f: $n/$budget unsafe lines"; fi
done < <(find crates/*/src -name '*.rs' | sort)

echo "== bench baseline: no >10% ingest throughput regression =="
# Fresh best-of-2 sweep vs the committed conservative (worst-of-3)
# baseline; any row more than 10% below the baseline's calls/sec fails.
# Refresh after an intentional perf change with:
#   ingest_bench --reps 3 --stat min --json-out results/BENCH_ingest.json
grep -q '"bench":"ingest"' results/BENCH_ingest.json ||
  { echo "FAIL: results/BENCH_ingest.json missing or malformed." >&2; exit 1; }
cargo run --release -q -p pilgrim-bench --bin ingest_bench -- \
  --max-jobs 8 --check-against results/BENCH_ingest.json

echo "== bench baseline: no >10% sequitur push-throughput regression =="
# Same protocol for the grammar hot path: fresh best-of-2 vs the
# committed worst-of-3 baseline. Refresh after an intentional change:
#   sequitur_gate --reps 3 --stat min --json-out results/BENCH_sequitur.json
grep -q '"bench":"sequitur"' results/BENCH_sequitur.json ||
  { echo "FAIL: results/BENCH_sequitur.json missing or malformed." >&2; exit 1; }
cargo run --release -q -p pilgrim-bench --bin sequitur_gate -- \
  --check-against results/BENCH_sequitur.json

echo "All checks passed."
