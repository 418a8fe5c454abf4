#!/usr/bin/env bash
# One-command CI gate: the tier-1 build + test pass, then the sanitizer
# sweeps. Mirrors exactly what a reviewer runs by hand:
#
#   1. layering guards — the transport layer (src/transport) must hold the
#      only copy of the framing/replay-dedup logic, request traces must be
#      the only tracing pipeline, the timed memory path must stay on
#      InlineCallback, snapshot chunks must come from the one snapshot
#      stream, group responses must be decoded by the one group-client
#      engine, each owner must build one telemetry stack, each
#      request-path value must have one setting, a cluster packet must be
#      framed without a scan, the replication hop must not copy, and
#      replica key sets must come from the hash index;
#   2. configure + build (default flags) and run the full ctest suite;
#   3. golden determinism — the benchmark --golden rows must match the
#      checked-in bench/golden/*.json byte for byte;
#   4. scripts/verify_asan.sh  — ASan+UBSan build, full suite;
#   5. scripts/verify_ubsan.sh — pure-UBSan build, full suite.
#
# The tier-1 stage runs first and alone decides pass/fail for correctness;
# the sanitizer stages catch memory/UB bugs that the plain build hides.
# Set KVD_CI_SKIP_SANITIZERS=1 for a quick tier-1-only pass.
#
# Usage: scripts/ci.sh [build-dir]    (default: build-ci)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"

echo "=== layering guard: one transport implementation ==="
# The reliable channel lives in src/transport and nowhere else. A second copy
# of the replay-entry bookkeeping or of the frame checksum constant is exactly
# the duplication the layering refactor removed; fail fast if one reappears.
leaks=$(grep -rnE 'ReplayEntry|0xf4a3e' src bench tests --include='*.h' --include='*.cc' \
          | grep -v '^src/transport/' || true)
if [[ -n "${leaks}" ]]; then
  echo "framing/replay logic found outside src/transport:" >&2
  echo "${leaks}" >&2
  exit 1
fi

echo "=== layering guard: one tracing pipeline ==="
# Request traces (src/obs/request_trace.h) are the only event source; the
# flight recorder renders them as Chrome/Perfetto JSON. A second tracer with
# its own hooks in the hardware models must not come back.
tracers=$(grep -rnE 'EventTracer|TraceEvent\b|SetTracer\(|\benable_tracing\b' \
            src bench tests examples || true)
if [[ -n "${tracers}" ]]; then
  echo "second tracing pipeline found:" >&2
  echo "${tracers}" >&2
  exit 1
fi

echo "=== layering guard: allocation-free timed path ==="
# The event core and the memory path below the processor take move-only
# InlineCallbacks and keep per-transaction state in pools (DESIGN.md §3). A
# std::function in these headers brings back the per-hop closure wrapping and
# heap allocation that tests/alloc_free_test.cc pins at zero.
functions=$(grep -nE 'std::function|<functional>' src/sim/*.h src/pcie/*.h \
              src/dram/load_dispatcher.h src/dram/nic_dram.h || true)
if [[ -n "${functions}" ]]; then
  echo "std::function found in a timed-path header:" >&2
  echo "${functions}" >&2
  exit 1
fi

echo "=== layering guard: one snapshot stream ==="
# Replica state transfer and shard-migration copy share one cut, chunker and
# pacer (src/replica/snapshot_stream.*, DESIGN.md §9 and §14). A kStateChunk
# message built anywhere else is a second snapshot streamer coming back.
chunkers=$(grep -rnE 'MakeMessage\(ReplicaMessageType::kStateChunk|type = ReplicaMessageType::kStateChunk' \
             src bench | grep -v '^src/replica/snapshot_stream\.' || true)
if [[ -n "${chunkers}" ]]; then
  echo "kStateChunk message built outside the snapshot stream:" >&2
  echo "${chunkers}" >&2
  exit 1
fi

echo "=== layering guard: one group-client engine ==="
# ReplicatedClient and ClusterClient are routing policies over one packet
# engine (src/replica/group_client.*, DESIGN.md §9 and §14). A group response
# decoded anywhere else is a second client engine coming back.
decoders=$(grep -rnE 'DecodeGroupResponse\(' src bench perfbench \
             | grep -vE '^src/replica/(replica_wire|group_client)\.' || true)
if [[ -n "${decoders}" ]]; then
  echo "group response decoded outside the group-client engine:" >&2
  echo "${decoders}" >&2
  exit 1
fi

echo "=== layering guard: one telemetry stack ==="
# The request tracer, latency breakdown, SLO monitor and flight recorder are
# built and wired once, by Telemetry (src/obs/telemetry.*, DESIGN.md §10);
# a group's replicas take the group's stack at construction. API that
# re-points a built stack or re-wires its consumers brings back the bypassed
# per-replica copies.
repointers=$(grep -rnE 'UseRequestTracer|UseFlightRecorder|active_flight_|active_request_tracer_|set_on_complete\(|set_on_breach\(|SetBreakdown\(|SetSloMonitor\(' \
               src tests bench examples || true)
if [[ -n "${repointers}" ]]; then
  echo "telemetry re-pointing or re-wiring API found:" >&2
  echo "${repointers}" >&2
  exit 1
fi

echo "=== layering guard: one setting per value ==="
# Each value on the request path has one way to be set (DESIGN.md §8 and
# §12): a deadline is op.deadline, the hedge delay is measured, the backlog
# bound is processor.admission.max_backlog, and the client sends framed
# packets only. A second knob or a second flush path for any of them must
# not come back.
knobs=$(grep -rnE 'FlushUnreliable|MergedAdmission|op_budget|hedge_delay|processor\.max_backlog' \
          src tests bench examples || true)
if [[ -n "${knobs}" ]]; then
  echo "second setting for a request-path value found:" >&2
  echo "${knobs}" >&2
  exit 1
fi

echo "=== layering guard: O(1) route framing ==="
# ClusterClient frames each packet from its (group, partition) required-index
# table (DESIGN.md §14). A loop in Reframe is the per-packet scan over every
# key's watermark coming back.
reframe=$(awk '/^void ClusterClient::Reframe\(/ { body = 1 } body { print } body && /^}/ { exit }' \
            src/cluster/cluster_client.cc | sed 's|//.*||')
if [[ -z "${reframe}" ]]; then
  echo "ClusterClient::Reframe not found in src/cluster/cluster_client.cc" >&2
  exit 1
fi
loops=$(grep -nE '\b(for|while)[[:space:]]*\(|\bdo[[:space:]]*\{|std::(ranges::)?(for_each|accumulate|max_element|reduce)' \
          <<<"${reframe}" || true)
if [[ -n "${loops}" ]]; then
  echo "loop found in ClusterClient::Reframe:" >&2
  echo "${loops}" >&2
  exit 1
fi

echo "=== layering guard: copy-free replication hop ==="
# The primary encodes each append window straight from its log into the
# frame that ships, and every replica message is sealed in place
# (DESIGN.md §9). FramePacket (a payload copy) or ReplicaLog::Window (a copy
# of the entries) on the replication path brings the per-hop copies back.
copies=$(grep -nE 'FramePacket\(|\.Window\(' src/replica/replication_group.cc || true)
if [[ -n "${copies}" ]]; then
  echo "copying call found on the replication hop:" >&2
  echo "${copies}" >&2
  exit 1
fi

echo "=== layering guard: key sets from the hash index ==="
# A replica's keys are listed from its store's hash index (HashIndex::Keys,
# DESIGN.md §9), and the client's watermarks are hashed. A shadow key set
# updated on every write, or an ordered watermark tree, brings the per-write
# bookkeeping back.
shadows=$({ grep -rnE '\bKeySet\b|\bTrackKey\b|\bkeys\.(insert|erase)\(' src/replica
            grep -HnE 'std::map<std::vector<uint8_t>, *Watermark>' src/replica/group_client.h
          } || true)
if [[ -n "${shadows}" ]]; then
  echo "per-write key bookkeeping found:" >&2
  echo "${shadows}" >&2
  exit 1
fi

echo "=== tier-1: configure + build + ctest ==="
cmake -B "${BUILD_DIR}" -S .
cmake --build "${BUILD_DIR}" -j "$(nproc)"
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)"

echo "=== overload-control suite (ctest -L overload) ==="
# Deadlines, admission shedding, retry budgets, hedging, gray demotion
# (DESIGN.md §12) — run again by label so a regression names itself.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L overload

echo "=== cluster control-plane suite (ctest -L cluster) ==="
# Shard map, live migration, chaos soak on the copy stream, rebalancing
# (DESIGN.md §14) — run again by label so a regression names itself.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L cluster

echo "=== consistency-check suite (ctest -L check) ==="
# Linearizability checker self-tests plus the nemesis explorer regression
# (DESIGN.md §15) — run again by label so a regression names itself.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L check

echo "=== decoder fuzzer (ctest -L fuzz) ==="
# Bit flips, every-prefix truncations and in-buffer placement over the frame,
# replica, group and result decoders, which parse views of received packets
# in place — run again by label so a regression names itself.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -L fuzz

echo "=== nemesis seed matrix: 32 seeds, history-checked ==="
# A bounded consistency sweep: 32 seeded fault scripts over the cluster
# scenario, every recorded history checked for linearizability and session
# guarantees. Any violation prints a shrunk minimal reproducer and fails CI.
"${BUILD_DIR}/tests/nemesis_matrix" --seeds 32 --rounds 6
# The harness must still be able to fail: the injected lost-update bug has
# to be caught by the same matrix (exit 1), or the green run above means
# nothing.
if "${BUILD_DIR}/tests/nemesis_matrix" --seeds 32 --rounds 6 --bug >/dev/null; then
  echo "nemesis matrix failed to catch the injected bug" >&2
  exit 1
fi
echo "nemesis matrix clean (and the injected bug is still caught)"

echo "=== golden determinism: bench --golden vs bench/golden/*.json ==="
GOLDEN_TMP=$(mktemp -d)
trap 'rm -rf "${GOLDEN_TMP}"' EXIT
"${BUILD_DIR}/bench/bench_fig16_throughput" --golden --json "${GOLDEN_TMP}/fig16_throughput.json" >/dev/null
"${BUILD_DIR}/bench/bench_chaos"            --golden --json "${GOLDEN_TMP}/chaos.json"            >/dev/null
"${BUILD_DIR}/bench/bench_replication"      --golden --json "${GOLDEN_TMP}/replication.json"      >/dev/null
"${BUILD_DIR}/bench/bench_overload"         --golden --json "${GOLDEN_TMP}/overload.json"         >/dev/null
"${BUILD_DIR}/bench/bench_rebalance"        --golden --json "${GOLDEN_TMP}/rebalance.json"        >/dev/null
"${BUILD_DIR}/bench/bench_fig17_latency"    --golden --json "${GOLDEN_TMP}/fig17_latency.json"    >/dev/null
for golden in fig16_throughput chaos replication overload rebalance fig17_latency; do
  cmp "bench/golden/${golden}.json" "${GOLDEN_TMP}/${golden}.json"
done
echo "golden rows byte-identical"

if [[ "${KVD_CI_SKIP_SANITIZERS:-0}" == "1" ]]; then
  echo "ci pass (sanitizers skipped)"
  exit 0
fi

echo "=== asan+ubsan sweep ==="
scripts/verify_asan.sh "${BUILD_DIR}-asan"

echo "=== ubsan sweep ==="
scripts/verify_ubsan.sh "${BUILD_DIR}-ubsan"

echo "ci pass"
