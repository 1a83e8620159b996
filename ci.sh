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

# No step may rewrite a committed file: the last step compares the tree's
# status with this one.
STATUS_BEFORE=$(git status --porcelain)

echo "== format =="
# The tree is rustfmt-clean, so a line count or a diff measures code, not
# layout. atpbench is not a workspace member and is not checked here.
cargo fmt --all -- --check

echo "== clippy =="
# Every workspace target, tests included, with warnings as errors; atpbench
# is not a workspace member and is not checked here either.
cargo clippy --workspace --all-targets -- -D warnings

echo "== build (release) =="
cargo build --release

echo "== tests =="
# Every package's tests: the root package alone holds under a fifth of them.
cargo test -q --workspace

echo "== figures smoke =="
# The paper's figures and tables are not benchmarks: every one of them at
# quick scale, each under its header.
cargo run -q --release -p atp-sim --bin atp -- all --quick

echo "== parallel determinism smoke =="
# The same quick sweep at 1 and 4 workers must print byte-identical tables.
OUT1=$(mktemp) OUT4=$(mktemp)
ATP_THREADS=1 cargo run -q --release -p atp-sim --bin atp -- fig9 --quick 2>/dev/null > "$OUT1"
ATP_THREADS=4 cargo run -q --release -p atp-sim --bin atp -- fig9 --quick 2>/dev/null > "$OUT4"
cmp "$OUT1" "$OUT4"
ATP_THREADS=1 cargo run -q --release -p atp-sim --bin atp -- table_fairness --quick 2>/dev/null > "$OUT1"
ATP_THREADS=4 cargo run -q --release -p atp-sim --bin atp -- table_fairness --quick 2>/dev/null > "$OUT4"
cmp "$OUT1" "$OUT4"
ATP_THREADS=1 cargo run -q --release -p atp-sim --bin atp -- table_partition --quick 2>/dev/null > "$OUT1"
ATP_THREADS=4 cargo run -q --release -p atp-sim --bin atp -- table_partition --quick 2>/dev/null > "$OUT4"
cmp "$OUT1" "$OUT4"
ATP_THREADS=1 cargo run -q --release -p atp-sim --bin atp -- table_shards --quick --shards 4 2>/dev/null > "$OUT1"
ATP_THREADS=4 cargo run -q --release -p atp-sim --bin atp -- table_shards --quick --shards 4 2>/dev/null > "$OUT4"
cmp "$OUT1" "$OUT4"
rm -f "$OUT1" "$OUT4"
echo "ATP_THREADS=1 and ATP_THREADS=4 outputs are byte-identical"

echo "== large-n smoke =="
# One Figure-9 point at N=100k (4 token rounds, ~2 s for all three
# protocols since token possession stopped re-chaining the carried window
# at every node; it was ~100 s): pushes the timer wheel through its
# overflow/cascade machinery at scale, and the rendered table must stay
# byte-identical across worker counts.
# The one-worker run must also stay lean: `atp` reports the process's peak
# RSS on stderr, 188 MiB while `World` copied its nodes and every node kept
# its event buffer and fault-path state inline, about 85 MiB since.
LN1=$(mktemp) LN4=$(mktemp) LNERR=$(mktemp)
ATP_THREADS=1 cargo run -q --release -p atp-sim --bin atp -- fig9 --n 100000 2>"$LNERR" > "$LN1"
ATP_THREADS=4 cargo run -q --release -p atp-sim --bin atp -- fig9 --n 100000 2>/dev/null > "$LN4"
cmp "$LN1" "$LN4"
LN_PEAK=$(sed -n 's/.*peak RSS \([0-9.]*\) MiB.*/\1/p' "$LNERR" | tail -n 1)
rm -f "$LN1" "$LN4" "$LNERR"
echo "large-n (N=100k) table is byte-identical at ATP_THREADS=1 and 4"
if ! awk -v mib="$LN_PEAK" 'BEGIN { exit !(mib != "" && mib + 0 <= 140) }'; then
  echo "fig9 --n 100000 at ATP_THREADS=1 peaked at ${LN_PEAK:-an unreported} MiB (limit 140 MiB)" >&2
  exit 1
fi
echo "large-n (N=100k) peak RSS ${LN_PEAK} MiB at ATP_THREADS=1 (limit 140 MiB)"

echo "== observability smoke =="
# Trace export must produce parseable JSON lines, and the merged metrics
# artifact must be byte-identical across thread counts (exact registry
# merge — sharding cannot change a single byte).
OBS_DIR=$(mktemp -d)
ATP_THREADS=1 cargo run -q --release -p atp-sim --bin atp -- fig9 --quick \
  --trace-out "$OBS_DIR/trace.jsonl" --chrome-out "$OBS_DIR/chrome.json" \
  --metrics-out "$OBS_DIR/metrics1.json" > /dev/null 2>&1
cargo run -q --release -p atp-sim --bin atp -- trace_check "$OBS_DIR/trace.jsonl"
ATP_THREADS=4 cargo run -q --release -p atp-sim --bin atp -- fig9 --quick \
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
cargo run -q --release -p atp-sim --bin atp -- dst \
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
cargo run -q --release -p atp-sim --bin atp -- dst --budget 120 --partition

echo "== shard dst smoke =="
# The sharded multi-token plane: 100 fresh key-addressed cases per protocol
# (random K/N, crash and partition faults in one shard), run by the one DST
# driver — per-shard state oracles, dual token after heal, and cross-shard
# isolation: a fault in shard i must never block a grant in shard j.
cargo run -q --release -p atp-sim --bin atp -- dst --budget 100 --shard-dst
# System BinarySearch at a budget that reaches its idle-hold branch often
# enough to catch a token parked beside a request it will not serve (~3 s).
cargo run -q --release -p atp-sim --bin atp -- dst --shard-dst --budget 1000 --protocol binary

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

echo "== cli anti-fork gate =="
# One binary, atp (crates/sim/src/bin/atp/main.rs), hosts every command, and
# only its main reads the process arguments: each command declares its flags
# on cli::Parser and parses its own slice. Sixteen mains and a second flag
# parser that let any flag through came before it: fail if a second binary
# (a top-level .rs file under crates/sim/src/bin, or another main.rs there)
# or a second reader of std::env::args comes back.
BINS=$(find crates/sim/src/bin -maxdepth 1 -name '*.rs'; \
  find crates/sim/src/bin -mindepth 2 -name main.rs ! -path crates/sim/src/bin/atp/main.rs)
ARGV=$(grep -rl 'std::env::args' crates/sim/src | grep -v -x crates/sim/src/bin/atp/main.rs || true)
if [ -n "$BINS" ] || [ -n "$ARGV" ]; then
  echo "a second binary or a second reader of std::env::args is back:" $BINS $ARGV >&2
  exit 1
fi
echo "one binary, one reader of the process arguments"

echo "== spec anti-fork gate =="
# The atp-spec systems are derived from one another as in the paper: a rule a
# later system keeps is its predecessor's builder, called with only what the
# refinement changes (arity, destination, message tag, trap shape). The send
# rule used to be typed four times and the receive and grant rules twice
# each: fail if a shared builder or trap helper is defined more than once in
# non-test code under crates/spec/src/systems, or a per-system send rule
# comes back.
SPEC=$(for f in crates/spec/src/systems/*.rs; do awk '/#\[cfg\(test\)\]/{exit} {print}' "$f"; done)
for FN in rule_send rule_receive rule_grant rule_broadcast trap_insert traps_contain; do
  DEFS=$(echo "$SPEC" | grep -c "fn $FN(" || true)
  if [ "$DEFS" -ne 1 ]; then
    echo "crates/spec/src/systems defines fn $FN( $DEFS times; it must be defined once and reused" >&2
    exit 1
  fi
done
FORKED=$(echo "$SPEC" | grep -o -E 'fn (rule_rotate|rule_send_self|rule_send_other)\(' || true)
if [ -n "$FORKED" ]; then
  echo "a per-system send rule is back:" $FORKED >&2
  exit 1
fi
echo "each shared spec rule is written once"

echo "== protocol conformance =="
# Every protocol variant through the same (seed x strategy x fault profile)
# matrix: identical oracle verdicts cell by cell, grant totality on benign
# cells.
cargo test -q --test protocol_conformance

echo "== naimi dst sweep =="
# The path-reversal competitor alone, at full budget: 210 fresh adversarial
# cases (Fifo/Lifo/shuffle/class-starve schedules, faults included) plus a
# partition-focused run, all oracle-clean. The sweep itself must also be
# deterministic across worker counts: the whole stdout is compared
# byte-for-byte at ATP_THREADS=1 and 4 (wall-clock timing goes to stderr).
NAIMI1=$(mktemp) NAIMI4=$(mktemp)
ATP_THREADS=1 cargo run -q --release -p atp-sim --bin atp -- dst \
  --budget 210 --protocol naimi | tee "$NAIMI1"
ATP_THREADS=4 cargo run -q --release -p atp-sim --bin atp -- dst \
  --budget 210 --protocol naimi 2>/dev/null > "$NAIMI4"
cmp "$NAIMI1" "$NAIMI4"
rm -f "$NAIMI1" "$NAIMI4"
cargo run -q --release -p atp-sim --bin atp -- dst \
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
  cargo run -q --release -p atp-sim --bin atp -- cluster \
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
  ATP_THREADS=1 cargo run -q --release -p atp-sim --bin atp -- cluster \
    --chaos --protocol "$proto" --transport tcp 2>/dev/null > "$CH1"
  ATP_THREADS=4 cargo run -q --release -p atp-sim --bin atp -- cluster \
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

echo "== codec anti-fork gate =="
# Each wire layout is written once, in crates/core/src/codec.rs and its
# callers, as an encoder into a sink: a size is that encoder run into the
# counting sink (`measure(`), a tag list is computed from the decoder, and
# every custodian is a WireProtocol through one blanket impl. The layouts
# used to be spelt out up to three times (bytes, a length formula, a tag
# list) and the copies drifted: fail if a second WireProtocol impl or a
# hand-written length formula comes back.
CORE=$(for f in crates/core/src/*.rs; do awk '/#\[cfg\(test\)\]/{exit} {print}' "$f"; done)
WIRE_IMPLS=$(echo "$CORE" | grep -c 'WireProtocol for' || true)
if [ "$WIRE_IMPLS" -ne 1 ]; then
  echo "crates/core/src holds $WIRE_IMPLS WireProtocol impls; the blanket impl over custodians is the one" >&2
  exit 1
fi
FORMULAS=$(echo "$CORE" | awk '
  /fn [A-Za-z0-9_]*encoded_len/ { name = $0; body = ""; depth = 0; inside = 1 }
  inside {
    body = body $0 "\n"
    opens = gsub(/\{/, "{"); closes = gsub(/\}/, "}")
    depth += opens - closes
    if (opens + closes == 0 && $0 ~ /;[[:space:]]*$/) { inside = 0 }
    else if (opens + closes > 0 && depth == 0) {
      if (body !~ /measure\(/) print name
      inside = 0
    }
  }')
if [ -n "$FORMULAS" ]; then
  echo "a length formula is back: these encoded_len bodies do not run an encoder through measure(" >&2
  echo "$FORMULAS" >&2
  exit 1
fi
echo "one WireProtocol impl, every size from its encoder"

echo "== runtime anti-fork gate =="
# One reactor thread hosts every node of a cluster, Cluster and ShardedCluster
# alike, on one heap of due entries. It blocks on a frame it is owed or on
# the door until the next due entry, never on a fixed wait. Thread-per-node
# runtimes came before it, and before those two copies of a node loop polled
# a control channel under a 5 ms cap: fail if a second thread, a second heap,
# the cap or a receive with a constant wait comes back.
RUNTIME=$(awk '/#\[cfg\(test\)\]/{exit} {print}' crates/core/src/runtime.rs)
count() { echo "$RUNTIME" | grep -c -- "$1" || true; }
# Arguments of every recv_timeout( call, lines joined so a wrapped call is
# seen whole; a zero wait is a look, not a wait.
CONST_WAITS=$(echo "$RUNTIME" | tr '\n' ' ' | grep -o 'recv_timeout( *[^)]*' \
  | sed 's/recv_timeout( *//' | grep -v '^Duration::ZERO$' \
  | grep -E '^(Duration::|[A-Z][A-Z0-9_]*$|[0-9])' || true)
if [ "$(count 'thread::spawn')" -ne 1 ] || [ "$(count 'BinaryHeap::new()')" -ne 1 ] \
  || [ "$(count 'from_millis(5)')" -ne 0 ] || [ -n "$CONST_WAITS" ]; then
  echo "runtime.rs: the reactor forked, or waits on a poll or a constant again" >&2
  echo "  thread::spawn=$(count 'thread::spawn') BinaryHeap::new()=$(count 'BinaryHeap::new()')" \
       "from_millis(5)=$(count 'from_millis(5)') constant recv_timeout waits: ${CONST_WAITS:-none}" >&2
  exit 1
fi
echo "one reactor thread, one heap, no poll, no constant wait"
# A runtime node keeps counters, not a copy of the history: the reactor
# switches the log off in one place, and the service reads the global order
# from `Released` (one event per entry), not from per-node `Delivered`.
SERVICE=$(awk '/#\[cfg\(test\)\]/{exit} {print}' crates/core/src/service.rs)
if [ "$(count 'with_record_log(false)')" -ne 1 ] || echo "$SERVICE" | grep -q 'Delivered'; then
  echo "runtime nodes keep a copy of the history again, or TokenService reads it" >&2
  exit 1
fi
echo "runtime nodes keep no copy of the history"

echo "== TCP thread gate =="
# A TCP endpoint starts one thread, its accept loop; the thread that drives
# the endpoints reads every inbound stream itself. A reader thread per
# connection came before, N·(N−1) threads for an N-node mesh, and every frame
# paid a switch to one and back: fail if a second spawn, the per-connection
# read loop or a sleep other than the reconnect backoff's comes back.
TCP=$(awk '/#\[cfg\(test\)\]/{exit} {print}' crates/net/src/tcp.rs)
TCP_SPAWNS=$(echo "$TCP" | grep -c 'thread::spawn(' || true)
TCP_SLEEPS=$(echo "$TCP" | grep 'thread::sleep(' || true)
if [ "$TCP_SPAWNS" -gt 1 ] || echo "$TCP" | grep -q 'fn read_loop' \
  || [ "$(echo "$TCP_SLEEPS" | grep -c .)" -gt 1 ] \
  || { [ -n "$TCP_SLEEPS" ] && ! echo "$TCP_SLEEPS" | grep -q 'BACKOFF_BASE'; }; then
  echo "tcp.rs: a thread per connection, its read loop or a sleep is back" >&2
  echo "  thread::spawn=$TCP_SPAWNS sleeps: ${TCP_SLEEPS:-none}" >&2
  exit 1
fi
echo "one accept thread per TCP endpoint, no reader threads, no sleep but the backoff"

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

echo "== link-model anti-fork gate =="
# A World holds one concrete Latency (constant, uniform or per-link matrix)
# and one LinkFaults (control drop, loss, duplication). Two plug-in traits
# that nothing outside atp-net implemented came before them, with a
# per-class latency and delay/sever faults that nothing injected: fail if a
# plug-in trait or the per-class latency comes back in non-test code under
# crates/.
LINK=$(find crates -name '*.rs' ! -path '*/tests/*' | sort | while read -r f; do
  awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ": " $0}' "$f"; done \
  | grep -F -e 'trait LatencyModel' -e 'trait LinkFaultModel' -e 'dyn LatencyModel' \
    -e 'dyn LinkFaultModel' -e 'ClassLatency' || true)
if [ -n "$LINK" ]; then
  echo "a latency or link-fault plug-in is back:" >&2
  echo "$LINK" >&2
  exit 1
fi
echo "one Latency, one LinkFaults"

echo "== configuration surface gate =="
# Every setting left under crates/ has a caller that sets it (DESIGN.md,
# "Configuration surface"). Settings nothing set came before: a chaos stall
# fault nothing injected, a runtime control-drop knob only its own unit test
# set, script and shard-plane fields every caller left at one value, a
# second latency-matrix setter, generators no run built, a second copy
# of the crate-root exports and a `NetProfile` setter that replaced the whole
# fault model. BinarySearch's directed search and push-pull probe dual, which
# only an ablation turned on and which cost more messages than they saved in
# every regime measured, went the same way. Fail if one comes back in
# non-test code under crates/.
SURFACE=$(find crates -name '*.rs' ! -path '*/tests/*' | sort | while read -r f; do
  awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ": " $0}' "$f"; done \
  | grep -E -e 'stall_per_mille|injected_stalls|control_drop_p|with_control_drop' \
    -e 'link_latency|key_universe|think_ticks|with_latency_matrix' \
    -e 'struct Hotspot|pub mod prelude|fn (bernoulli|poisson|exp_gap_ticks)\b' \
    -e 'fn faults\(' \
    -e 'search_mode|SearchMode|probe_on_idle|fn handle_directed_|fn handle_probe_' || true)
if [ -n "$SURFACE" ]; then
  echo "a setting nothing sets is back:" >&2
  echo "$SURFACE" >&2
  exit 1
fi
echo "no setting without a caller"

echo "== idle cluster smoke =="
# System Search parks its token, so between requests the reactor is blocked
# on the door with nothing scheduled: the closed-loop p50 is then what a
# wake-up costs. It was 5.3 ms while requests waited for a poll; a want
# through the front door wakes the reactor in well under 0.1 ms. The lazy token (Search, Naimi)
# must also stay bounded: it drops the history every node has acked, so its
# largest granting frame is a few hundred bytes at N = 8 however many
# requests ran; carrying all of H it was ~112 KB after 4 000.
for PROTO in search naimi; do
  IDLE_OUT=$(cargo run -q --release -p atp-sim --bin atp -- cluster \
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

echo "== one benchmark gate =="
# atpbench (below) is the one benchmark. A second harness came before it: a
# bench crate on a micro-bench module in atp-util, switched by ATP_PROFILE and
# ATP_BENCH_SMOKE, whose output nothing read but a JSON file this script
# rewrote on every run. Fail if a bench target, that module or either switch
# comes back under crates/.
BENCHES=$(find crates -name Cargo.toml -exec grep -l '^[[:space:]]*\[\[bench\]\]' {} + || true)
BENCH_DIRS=$(find crates -type d -name benches)
NONTEST=$(find crates -name '*.rs' ! -path '*/tests/*' | sort | while read -r f; do
  awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ": " $0}' "$f"; done)
BENCH_MOD=$(echo "$NONTEST" | grep '^crates/util/src/' | grep -E '\bmod bench\b' || true)
SWITCHES=$(echo "$NONTEST" | grep -F -e ATP_PROFILE -e ATP_BENCH_SMOKE || true)
if [ -n "$BENCHES$BENCH_DIRS$BENCH_MOD$SWITCHES" ]; then
  echo "a second benchmark is back:" >&2
  for X in "$BENCHES" "$BENCH_DIRS" "$BENCH_MOD" "$SWITCHES"; do [ -z "$X" ] || echo "$X" >&2; done
  exit 1
fi
echo "one benchmark: atpbench"

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
  | grep -v -E '^(atp-(util|trs|spec|net|core|sim)|adaptive-token-passing)$' || true)
if [ -n "$BAD" ]; then
  echo "non-workspace dependencies found:" >&2
  echo "$BAD" >&2
  exit 1
fi
echo "dependency closure is workspace-local"

echo "== tree unchanged =="
# A step that writes a committed file (or leaves an unignored one behind)
# would make every run a diff to restore by hand.
STATUS_AFTER=$(git status --porcelain)
if [ "$STATUS_AFTER" != "$STATUS_BEFORE" ]; then
  echo "this run changed the tree:" >&2
  diff <(echo "$STATUS_BEFORE") <(echo "$STATUS_AFTER") >&2 || true
  exit 1
fi
echo "git status reads as it did before the run"

echo "== ci green =="
