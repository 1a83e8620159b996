#!/usr/bin/env bash
# Canonical offline gate for the workspace.
#
#   ./ci.sh
#
# Everything runs with the network forced off: the workspace has zero
# external dependencies, and this script proves it stays that way.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

echo "== build (release) =="
cargo build --release

echo "== tests =="
cargo test -q

echo "== bench smoke =="
BENCH_LOG=$(mktemp)
cargo bench -q -p atp-bench --benches -- --smoke | tee "$BENCH_LOG"

echo "== sweep bench artifact =="
# The sweep suite's JSON lines become the gate artifact for the parallel
# executor's perf numbers.
# Rows that carry a "session" key are a recorded before/after comparison
# (two builds measured back to back, see EXPERIMENTS.md §"Scaling to 100k
# nodes"); this run did not measure them, so it keeps them as they are.
KEPT=$(mktemp)
grep '"session":' BENCH_sweep.json > "$KEPT" || true
grep '^{"suite":"sweep"' "$BENCH_LOG" | cat - "$KEPT" > BENCH_sweep.json
rm -f "$BENCH_LOG" "$KEPT"
test -s BENCH_sweep.json
# The artifact must carry the scheduler microbenches (wheel vs heap churn)
# and the large-N scaling table, smallest and largest point.
grep -q '"name":"sched_wheel_churn_1k_pending"' BENCH_sweep.json
grep -q '"name":"sched_heap_churn_100k_pending"' BENCH_sweep.json
grep -q '^{"suite":"sweep","name":"fig9_large_binary_n10000"' BENCH_sweep.json
grep -q '^{"suite":"sweep","name":"fig9_large_binary_n100000"' BENCH_sweep.json
grep -q '"name":"fig_shards_quick"' BENCH_sweep.json
echo "wrote BENCH_sweep.json ($(wc -l < BENCH_sweep.json) entries)"

echo "== parallel determinism smoke =="
# The same quick sweep at 1 and 4 workers must print byte-identical tables.
OUT1=$(mktemp) OUT4=$(mktemp)
ATP_THREADS=1 cargo run -q --release -p atp-sim --bin fig9 -- --quick 2>/dev/null > "$OUT1"
ATP_THREADS=4 cargo run -q --release -p atp-sim --bin fig9 -- --quick 2>/dev/null > "$OUT4"
cmp "$OUT1" "$OUT4"
ATP_THREADS=1 cargo run -q --release -p atp-sim --bin table_fairness -- --quick 2>/dev/null > "$OUT1"
ATP_THREADS=4 cargo run -q --release -p atp-sim --bin table_fairness -- --quick 2>/dev/null > "$OUT4"
cmp "$OUT1" "$OUT4"
ATP_THREADS=1 cargo run -q --release -p atp-sim --bin table_partition -- --quick 2>/dev/null > "$OUT1"
ATP_THREADS=4 cargo run -q --release -p atp-sim --bin table_partition -- --quick 2>/dev/null > "$OUT4"
cmp "$OUT1" "$OUT4"
ATP_THREADS=1 cargo run -q --release -p atp-sim --bin table_shards -- --quick --shards 4 2>/dev/null > "$OUT1"
ATP_THREADS=4 cargo run -q --release -p atp-sim --bin table_shards -- --quick --shards 4 2>/dev/null > "$OUT4"
cmp "$OUT1" "$OUT4"
rm -f "$OUT1" "$OUT4"
echo "ATP_THREADS=1 and ATP_THREADS=4 outputs are byte-identical"

echo "== large-n smoke =="
# One Figure-9 point at N=100k (4 token rounds, ~2 s for all three
# protocols since token possession stopped re-chaining the carried window
# at every node; it was ~100 s): pushes the timer wheel through its
# overflow/cascade machinery at scale, and the rendered table must stay
# byte-identical across worker counts.
LN1=$(mktemp) LN4=$(mktemp)
ATP_THREADS=1 cargo run -q --release -p atp-sim --bin fig9 -- --n 100000 2>/dev/null > "$LN1"
ATP_THREADS=4 cargo run -q --release -p atp-sim --bin fig9 -- --n 100000 2>/dev/null > "$LN4"
cmp "$LN1" "$LN4"
rm -f "$LN1" "$LN4"
echo "large-n (N=100k) table is byte-identical at ATP_THREADS=1 and 4"

echo "== observability smoke =="
# Trace export must produce parseable JSON lines, and the merged metrics
# artifact must be byte-identical across thread counts (exact registry
# merge — sharding cannot change a single byte).
OBS_DIR=$(mktemp -d)
ATP_THREADS=1 cargo run -q --release -p atp-sim --bin fig9 -- --quick \
  --trace-out "$OBS_DIR/trace.jsonl" --chrome-out "$OBS_DIR/chrome.json" \
  --metrics-out "$OBS_DIR/metrics1.json" > /dev/null 2>&1
cargo run -q --release -p atp-sim --bin trace_check -- "$OBS_DIR/trace.jsonl"
ATP_THREADS=4 cargo run -q --release -p atp-sim --bin fig9 -- --quick \
  --metrics-out "$OBS_DIR/metrics4.json" > /dev/null 2>&1
cmp "$OBS_DIR/metrics1.json" "$OBS_DIR/metrics4.json"
echo "metrics artifact is byte-identical at ATP_THREADS=1 and 4"
rm -rf "$OBS_DIR"

echo "== dst smoke =="
# Deterministic simulation testing: replay every checked-in counterexample
# tape (failing on tape rot or oracle regressions), fuzz 210 fresh
# (seed, strategy) cases per protocol under adversarial delivery orders,
# and prove the detector still catches a planted prefix-comparison bug.
# Every tape on disk must actually replay (ok line per tape) — this is
# what proves the timer-wheel scheduler reproduces the recorded schedules
# byte-for-byte.
DST_LOG=$(mktemp)
cargo run -q --release -p atp-sim --bin dst -- \
  --budget 210 --tapes tests/tapes --demo-mutation | tee "$DST_LOG"
TAPES_ON_DISK=$(ls tests/tapes/*.tape | wc -l)
TAPES_REPLAYED=$(grep -c '^tape .* ok — ' "$DST_LOG")
rm -f "$DST_LOG"
if [ "$TAPES_REPLAYED" -ne "$TAPES_ON_DISK" ]; then
  echo "tape replay mismatch: $TAPES_REPLAYED replayed, $TAPES_ON_DISK on disk" >&2
  exit 1
fi
echo "all $TAPES_REPLAYED checked-in tapes replayed against the wheel scheduler"

echo "== partition dst smoke =="
# The heal-fencing adversary: every case splits the ring and heals it under
# link loss/duplication; the dual-token-after-heal oracle must hold across
# at least 100 cases per protocol. (The checked-in partition-retransmit
# tape already replayed in the step above.)
cargo run -q --release -p atp-sim --bin dst -- --budget 120 --partition

echo "== shard dst smoke =="
# The sharded multi-token plane: 100 fresh key-addressed cases per protocol
# (random K/N, crash and partition faults in one shard), run by the one DST
# driver — per-shard state oracles, dual token after heal, and cross-shard
# isolation: a fault in shard i must never block a grant in shard j.
cargo run -q --release -p atp-sim --bin dst -- --budget 100 --shard-dst
# System BinarySearch at a budget that reaches its idle-hold branch often
# enough to catch a token parked beside a request it will not serve (~3 s).
cargo run -q --release -p atp-sim --bin dst -- --shard-dst --budget 1000 --protocol binary

echo "== dst anti-fork gate =="
# One DST driver and one explorer: a single-token case is the one-shard
# case of the sharded plane. Fail if shard.rs grows its own oracle pass or
# shrinker again.
SHARD=$(awk '/#\[cfg\(test\)\]/{exit} {print}' crates/sim/src/shard.rs)
if echo "$SHARD" | grep -q -F -e 'check_state_oracles(' -e 'shrink_tape('; then
  echo "shard.rs: a second DST driver or explorer is back" >&2
  exit 1
fi
echo "one DST driver, one explorer"

echo "== protocol conformance =="
# Every protocol variant through the same (seed x strategy x fault profile)
# matrix: identical oracle verdicts cell by cell, grant totality on benign
# cells.
cargo test -q --test protocol_conformance

echo "== naimi dst sweep =="
# The path-reversal competitor alone, at full budget: 210 fresh adversarial
# cases (Fifo/Lifo/shuffle/class-starve schedules, faults included) plus a
# partition-focused run, all oracle-clean. The sweep itself must also be
# deterministic across worker counts: the explorer output is compared
# byte-for-byte at ATP_THREADS=1 and 4.
NAIMI1=$(mktemp) NAIMI4=$(mktemp)
ATP_THREADS=1 cargo run -q --release -p atp-sim --bin dst -- \
  --budget 210 --protocol naimi | tee "$NAIMI1"
ATP_THREADS=4 cargo run -q --release -p atp-sim --bin dst -- \
  --budget 210 --protocol naimi > "$NAIMI4"
cmp <(grep -o 'clean — [0-9]* cases, [0-9]* oracle checks' "$NAIMI1") \
    <(grep -o 'clean — [0-9]* cases, [0-9]* oracle checks' "$NAIMI4")
rm -f "$NAIMI1" "$NAIMI4"
cargo run -q --release -p atp-sim --bin dst -- \
  --budget 100 --partition --protocol naimi
echo "naimi sweep clean and byte-identical across thread counts"

echo "== tcp loopback smoke =="
# Real sockets, deterministic outcome: the pinned reference script runs
# over loopback TCP (N=5, 5 requests, a few hundred virtual ticks) for
# every protocol family and the grant order + history digests must be
# byte-identical to the same script inside the deterministic World. The
# binary exits non-zero on any divergence, frame loss, decode error, or
# leaked thread; the whole matrix stays under a few seconds.
for proto in ring search binary naimi; do
  cargo run -q --release -p atp-sim --bin cluster -- \
    --conform --protocol "$proto" --transport tcp
done
echo "all four protocols conform to World over loopback TCP"

echo "== chaos recovery smoke =="
# Crash–restart recovery under wire-level chaos: every protocol family runs
# the pinned kill/restart × corruption matrix (warm and cold restarts, up to
# two victims, ~1% byte corruption under the CRC32 framing) over loopback
# TCP. The binary exits non-zero unless every scenario ends with zero
# unserved requests, no duplicate grants, no same-generation dual
# possession, every injected fault accounted for by its detector, and a
# clean thread teardown. The schedule-deterministic stdout must also be
# byte-identical across worker counts.
CH1=$(mktemp) CH4=$(mktemp)
for proto in ring search binary naimi; do
  ATP_THREADS=1 cargo run -q --release -p atp-sim --bin cluster -- \
    --chaos --protocol "$proto" --transport tcp 2>/dev/null > "$CH1"
  ATP_THREADS=4 cargo run -q --release -p atp-sim --bin cluster -- \
    --chaos --protocol "$proto" --transport tcp 2>/dev/null > "$CH4"
  cmp "$CH1" "$CH4"
done
rm -f "$CH1" "$CH4"
echo "chaos recovery matrix clean and byte-identical at ATP_THREADS=1 and 4"

echo "== custody anti-fork gate =="
# Token custody (possession, hold state, serve step, Section 5, membership,
# acks, recovery) is written once, in crates/core/src/custody.rs; the four
# protocol files keep routing only. The glue has been copied four times before: fail if the
# regeneration handling or the possession head shows up anywhere else.
PLEASE=$(grep -l 'RegenMsg::Please' crates/core/src/*.rs | xargs -n1 basename | sort | tr '\n' ' ')
if [ "$PLEASE" != "codec.rs custody.rs regen.rs " ]; then
  echo "RegenMsg::Please handled outside custody.rs/regen.rs/codec.rs: $PLEASE" >&2
  exit 1
fi
FORKED=$(cat crates/core/src/{ring,search,binary,naimi}.rs | grep -c 'apply_carried(' || true)
if [ "$FORKED" -ne 0 ]; then
  echo "the possession head (apply_carried) is back in a protocol file ($FORKED calls)" >&2
  exit 1
fi
# The hold state and the end of a critical section live in the core too: a
# protocol file keeps its routing rule only.
HOLD=$(cat crates/core/src/{ring,search,binary,naimi}.rs | grep -c -e 'enum HoldState' -e 'TIMER_SERVICE =>' || true)
if [ "$HOLD" -ne 0 ]; then
  echo "a hold-state enum or a TIMER_SERVICE arm is back in a protocol file ($HOLD lines)" >&2
  exit 1
fi
echo "custody glue exists once"

echo "== runtime anti-fork gate =="
# A node thread has one thing to block on — its endpoint — and the loop
# around it is written once for Cluster and ShardedCluster. The two copies
# it replaced each had a control channel polled under a 5 ms cap: fail if a
# second loop, a second heap, a poll or the cap comes back.
RUNTIME=$(awk '/#\[cfg\(test\)\]/{exit} {print}' crates/core/src/runtime.rs)
count() { echo "$RUNTIME" | grep -c -- "$1" || true; }
if [ "$(count 'from_millis(5)')" -ne 0 ] || [ "$(count 'try_recv')" -ne 0 ] \
  || [ "$(count 'endpoint\.recv_timeout(')" -ne 1 ] || [ "$(count 'BinaryHeap::new()')" -ne 1 ]; then
  echo "runtime.rs: the node loop forked or polls again" >&2
  echo "  from_millis(5)=$(count 'from_millis(5)') try_recv=$(count 'try_recv')" \
       "endpoint.recv_timeout(=$(count 'endpoint\.recv_timeout(') BinaryHeap::new()=$(count 'BinaryHeap::new()')" >&2
  exit 1
fi
echo "one node loop, one heap, one blocking receive, no poll"
# A runtime node keeps counters, not a copy of the history: the node loop
# switches the log off in one place, and the service reads the global order
# from `Released` (one event per entry), not from per-node `Delivered`.
SERVICE=$(awk '/#\[cfg\(test\)\]/{exit} {print}' crates/core/src/service.rs)
if [ "$(count 'with_record_log(false)')" -ne 1 ] || echo "$SERVICE" | grep -q 'Delivered'; then
  echo "runtime nodes keep a copy of the history again, or TokenService reads it" >&2
  exit 1
fi
echo "runtime nodes keep no copy of the history"

echo "== virtual-clock driver gate =="
# The conformance/chaos driver in crates/sim/src/cluster.rs receives back
# only the frames it staged to each endpoint, blocks on a socket instead of
# sleeping when one is late, and keeps its clock in one (tick, seq) heap.
# Fail if the sleep or the map-keyed clock comes back.
DRIVER=$(awk '/#\[cfg\(test\)\]/{exit} {print}' crates/sim/src/cluster.rs)
if echo "$DRIVER" | grep -q -F -e 'thread::sleep(' -e 'BTreeMap<(u64, u64)'; then
  echo "cluster.rs: the virtual-clock driver sleeps or keys its clock on a BTreeMap again" >&2
  exit 1
fi
echo "virtual-clock driver: no sleep, one heap"

echo "== idle cluster smoke =="
# System Search parks its token, so between requests every node thread is
# blocked with nothing scheduled: the closed-loop p50 is then what a wake-up
# costs. It was 5.3 ms while requests waited for a poll; a frame through
# the front door wakes the node in ~0.1 ms. The lazy token (Search, Naimi)
# must also stay bounded: it drops the history every node has acked, so its
# largest granting frame is a few hundred bytes at N = 8 however many
# requests ran; carrying all of H it was ~112 KB after 4 000.
for PROTO in search naimi; do
  IDLE_OUT=$(cargo run -q --release -p atp-sim --bin cluster -- \
    --protocol "$PROTO" --transport chan --requests 4000)
  echo "$IDLE_OUT"
  IDLE_P50=$(echo "$IDLE_OUT" | sed -n 's/^latency p50 \([0-9.]*\)ms.*/\1/p')
  if ! awk -v p50="$IDLE_P50" 'BEGIN { exit !(p50 != "" && p50 + 0 <= 1.0) }'; then
    echo "idle $PROTO p50 is ${IDLE_P50:-missing} ms (limit 1 ms): nodes are not woken on arrival" >&2
    exit 1
  fi
  TOKEN_MAX=$(echo "$IDLE_OUT" | sed -n 's/^token bytes max=\([0-9]*\)$/\1/p')
  if ! awk -v b="$TOKEN_MAX" 'BEGIN { exit !(b != "" && b + 0 <= 2048) }'; then
    echo "idle $PROTO token frame reached ${TOKEN_MAX:-missing} B (limit 2048): the carried window is not bounded" >&2
    exit 1
  fi
  echo "idle $PROTO p50 ${IDLE_P50} ms, token bytes max ${TOKEN_MAX} B"
done

echo "== benchmark self-test =="
# atpbench is a package of its own (not a workspace member) that implements
# Node, EventSource, WireProtocol, ProtocolNode, Transport and Endpoint for
# its tracing wrappers: build it and run its < 10 s self-test here, so a
# change to one of those trait surfaces fails CI, not the benchmark driver.
cargo build --release --manifest-path atpbench/Cargo.toml
cargo run --release --quiet --manifest-path atpbench/Cargo.toml -- check | tail -n 1

echo "== dependency closure =="
# Every line of `cargo tree` must be a workspace crate: atp-* or the
# umbrella package. Anything else means a registry dependency crept in.
BAD=$(cargo tree --workspace --edges normal,build,dev --prefix none \
  | sed 's/ (\*)$//' \
  | awk 'NF { print $1 }' \
  | sort -u \
  | grep -v -E '^(atp-(util|trs|spec|net|core|sim|bench)|adaptive-token-passing)$' || true)
if [ -n "$BAD" ]; then
  echo "non-workspace dependencies found:" >&2
  echo "$BAD" >&2
  exit 1
fi
echo "dependency closure is workspace-local"

echo "== ci green =="
