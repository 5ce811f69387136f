#!/usr/bin/env bash
# bench.sh — run the hot-path micro-benchmark suite and enforce the repo's
# allocation contracts. (Timings are the business of the benchmark of
# record: bash benchmark/run.sh, declared in BENCHMARK.json.)
#
# The suite runs at GOMAXPROCS=1: the engine round allocates per worker, so
# its allocs/op — and the gate on it — mean something only at a fixed worker
# count.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOMAXPROCS=1

OUT=/tmp/perigee-bench.out

# gate_unit NAME WANT UNIT — fail unless benchmark NAME reports at most WANT
# of the -benchmem column UNIT (allocs/op or B/op).
gate_unit() {
  local name="$1" want="$2" unit="$3" line got
  line="$(grep -E "^Benchmark${name}(-[0-9]+)?[[:space:]]" "$OUT" || true)"
  if [[ -z "$line" ]]; then
    echo "bench.sh: Benchmark${name} missing from output" >&2
    exit 1
  fi
  got="$(awk -v unit="$unit" '{for (i = 2; i <= NF; i++) if ($i == unit) print $(i-1)}' <<<"$line")"
  if (( got > want )); then
    echo "bench.sh: Benchmark${name} reports ${got} ${unit}, want <= ${want}" >&2
    exit 1
  fi
  echo "bench.sh: Benchmark${name} ${unit} gate ok (${got} <= ${want})"
}
# gate NAME WANT — at most WANT allocs/op.
gate() { gate_unit "$1" "$2" allocs/op; }
# gate_bytes NAME WANT — at most WANT B/op.
gate_bytes() { gate_unit "$1" "$2" B/op; }

# Main pass at 100 iterations. The 100k broadcast runs separately at 3
# iterations because a single op is a full 100k-node flood (and its set-up
# hashes 1.6M edge delays).
go test -run '^$' \
  -bench 'Micro(Broadcast1000$|Broadcast10000$|BroadcastStreaming10000$|Reconfigure1000$|TopologyRandom20000$|TableRewire1000$|ColdPrepare2000$|AnalyticArrival|RoundBroadcast1000$|RoundBroadcastPools300$|DelayToFraction|VanillaScoring|SubsetScoring|EngineRound|DeriveIndexed|DurationPercentile|WireFrame|WireRead|RelayBlock1K|StoreAdd)' \
  -benchmem -benchtime=100x . | tee "$OUT"
go test -run '^$' -bench 'MicroBroadcast100000$' -benchmem -benchtime=3x . \
  | tee -a "$OUT"
# One op is a full simulated hour (~1800 blocks through netsim plus the
# chain-view bookkeeping), so it runs at 3 iterations like the 100k
# broadcast. Its allocations are deterministic up to a few sync.Pool
# refills; the ceiling catches structural regressions — a per-block or
# per-delivery allocation would add thousands.
go test -run '^$' -bench 'WorkloadHour$' -benchmem -benchtime=3x . \
  | tee -a "$OUT"
gate MicroBroadcast1000 0
gate MicroBroadcast10000 0
gate MicroBroadcast100000 0
gate MicroBroadcastStreaming10000 0
# The engine's path from the table's rows to the CSR reuses both buffer
# generations once warm.
gate MicroReconfigure1000 0
# A build of the random topology allocates the table's two int32 slabs
# (3.2 MB at n = 20000 and 20 incoming slots), their row headers and two
# index arrays: 4.5 MB in 9 or 10 objects. Rows grown one by one were
# 7.0 MB in 165,889 objects; one permutation per node was 3.1 GB.
gate_bytes MicroTopologyRandom20000 5000000
gate MicroTopologyRandom20000 16
# Table rows live in fixed windows of the slabs: a rewire pass plus writing
# every node's row into a buffer sized once allocates nothing, from the
# first op (2 allocs/op after a 50-round warm-up when rows grew on the heap).
gate MicroTableRewire1000 0
# A fresh engine's first round builds its simulator from the table's rows
# and carves every node's round rows from slabs: a fixed number of
# allocations at any n (about 14; 2,000 nodes allocated about 19,000 when
# the adjacency snapshot, the outgoing rows and the observation matrices
# were allocated per node).
gate MicroColdPrepare2000 64
gate MicroAnalyticArrival1000 0
# A round's broadcast phase: an arrival-only flood per distinct miner on the
# workers' own queues and buffers, and the harvest of every observation from
# them. It sizes nothing per edge and allocates nothing once warm, with
# uniform miners or with the pools setting's few repeated ones (grouping the
# blocks by miner reuses engine scratch).
gate MicroRoundBroadcast1000 0
gate MicroRoundBroadcastPools300 0
gate MicroDurationPercentile 0
gate MicroDurationPercentileOfMin100 0
gate MicroDurationPercentileOfMin10 0
gate MicroDurationPercentileOfMinOrdered 0
# The scoring benchmarks rotate over the matrices of one engine round
# (bench.RoundObservations; for SubsetScoringPools, a pools round's matrices
# with their distinct-row lists; for SubsetScoringWindow10, a round's
# 10-block windows, scored by the two-slot scan); each allocates the slice
# it returns.
gate MicroVanillaScoring 1
gate MicroSubsetScoring 1
gate MicroSubsetScoringPools 1
gate MicroSubsetScoringWindow10 1
# About 2,200 allocs since the connection table keeps its rows in fixed
# windows of two slabs (4,900 when Connect grew them on the heap; 9,650
# before a round prepared every node's rows in engine slabs and built the
# simulator's CSR from the table's rows; 26,330 before a round decided
# every node into engine scratch; 39,330 before the replay moved to
# per-node inboxes carved from one slab).
gate WorkloadHour 3000
# The live wire: a frame is appended to the write loop's reused buffer in
# place, and the buffered reader owns its header and payload scratch and
# decodes a one-hash Inv into scratch of its own (1 allocation before, the
# message with its hash), so a read allocates only a message that must
# outlive the next read: a wire.Block together with its block (144 bytes;
# 8 and 128 when they were apart, 1,256 B/op in all), its transaction list
# and one buffer holding all four transaction bodies. The body buffer is
# exactly their 1,024 bytes; one that also held the length prefixes would
# round up to the 1,152-byte size class, which the byte gate catches
# (1,264 B/op in all). A relaying node frames the decoded message again on
# the checksum its reader verified, which allocates nothing (a RelayBlock
# carried that checksum before, 5 allocations in all).
gate MicroWireFrameInv 0
gate MicroWireFrameBlock1K 0
gate MicroWireReadInv 0
gate MicroWireReadBlock1K 3
gate_bytes MicroWireReadBlock1K 1264
gate MicroRelayBlock1K 3
# The live store: validating a four-transaction block hashes its Merkle
# tree in a stack array, the index and the link slab grow only now and then
# and the body ring is allocated once, so any allocation is a regression.
gate MicroStoreAdd 0
# Decision tracing is off in every Micro case; this ceiling pins the
# untraced engine round so the tracing hooks stay branch-only on the hot
# path (a per-decision or per-counterfactual allocation would add
# thousands per round). It measures 2: a round allocates its TimedRound
# and its decide fan-out (5 when Connect still grew the connection table's
# rows now and then past their earlier maxima). Nothing is paid per node:
# each node's selector stream is its worker's, reseeded, its decision is
# appended into engine scratch, and its round rows are carved from slabs
# (34 when the adjacency snapshot's rows grew with the table's; 1022 when
# each node's stream and decision were allocated too).
gate MicroEngineRound 16
# A derived stream is its RNG alone: the rand.Rand and PCG live inside it.
gate MicroDeriveIndexed 1
echo "bench.sh: all allocation gates hold"
