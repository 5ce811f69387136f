#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of cmd/perigee-serve over real
# HTTP: build the binary with the race detector, start it, submit the same
# quick scenario twice (the second submission must be answered from the
# result cache with the same job ID), and check the NDJSON event stream
# delivers exactly the round events the batch configuration implies
# (trials × rounds per arm), trace records for every traced arm, and a
# terminal status event. A traced adversarial job then checks the same
# stream contract on a scenario outside the figure harness.
#
# Usage: scripts/serve_smoke.sh [port]
# Build output and event logs go to a temporary directory (under $TMPDIR).
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${1:-18080}"
ADDR="127.0.0.1:${PORT}"
BASE="http://${ADDR}"
WORK="$(mktemp -d)"

go build -race -o "$WORK/perigee-serve" ./cmd/perigee-serve
"$WORK/perigee-serve" -addr "$ADDR" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

for _ in $(seq 1 50); do
  curl -fsS "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.2
done
curl -fsS "$BASE/healthz" | jq -e '.status == "ok"' >/dev/null
echo "serve_smoke: healthz ok"

curl -fsS "$BASE/scenarios" | jq -e 'map(.id) | index("figure3a") != null' >/dev/null
echo "serve_smoke: scenario registry served"

# wait_done JOB_ID polls the job until it finishes, failing on a failed job.
wait_done() {
  local status=""
  for _ in $(seq 1 300); do
    status="$(curl -fsS "$BASE/jobs/$1" | jq -r '.status')"
    [ "$status" = "done" ] && return 0
    if [ "$status" = "failed" ]; then
      curl -fsS "$BASE/jobs/$1" | jq . >&2
      exit 1
    fi
    sleep 0.2
  done
  echo "serve_smoke: job $1 never finished" >&2
  exit 1
}

# check_events JOB_ID TRIALS ROUNDS ROUND_BLOCKS [ARMS] streams the job's
# event log and checks it against what the batch configuration runs:
# Vanilla/Subset arms broadcast trials × rounds rounds, UCB runs
# trials × rounds × round_blocks single-block rounds (the harness matches
# block budgets across variants), every arm with round events emits trace
# records and no other arm does, ARMS (when given) arms stream, and the
# stream ends with a terminal status event.
check_events() {
  curl -fsS "$BASE/jobs/$1/events" >"$WORK/events.ndjson"
  python3 - "$2" "$3" "$4" "${5:-0}" "$WORK/events.ndjson" <<'PY'
import json
import sys

trials, rounds, blocks, arms = (int(a) for a in sys.argv[1:5])
per_arm, traces, last = {}, {}, None
with open(sys.argv[5]) as f:
    for line in f:
        ev = json.loads(line)
        if ev["kind"] == "round":
            per_arm[ev["arm"]] = per_arm.get(ev["arm"], 0) + 1
        elif ev["kind"] == "trace":
            traces[ev["arm"]] = traces.get(ev["arm"], 0) + 1
        last = ev["kind"]

if not per_arm:
    sys.exit("no round events streamed")
if arms and len(per_arm) != arms:
    sys.exit(f"{len(per_arm)} arms streamed round events, want {arms}: {sorted(per_arm)}")
for arm, n in sorted(per_arm.items()):
    want = trials * rounds * (blocks if arm == "Perigee-UCB" else 1)
    if n != want:
        sys.exit(f"arm {arm}: streamed {n} round events, batch config runs {want}")
    print(f"serve_smoke: arm {arm}: {n}/{want} round events, {traces.get(arm, 0)} trace events")
if set(traces) != set(per_arm):
    sys.exit(f"traced arms {sorted(traces)} differ from arms with round events {sorted(per_arm)}")
if last != "status":
    sys.exit(f"stream ended with {last!r}, want terminal status event")
print("serve_smoke: terminal status seen")
PY
}

TRIALS=2
ROUNDS=3
ROUND_BLOCKS=15
BODY="{\"scenario\":\"figure3a\",\"quick\":true,\"options\":{\"nodes\":60,\"trials\":${TRIALS},\"rounds\":${ROUNDS},\"round_blocks\":${ROUND_BLOCKS},\"mean_validation_ms\":50,\"trace_level\":\"decisions\",\"counterfactual_k\":2}}"

FIRST="$(curl -fsS -X POST "$BASE/jobs" -H 'Content-Type: application/json' -d "$BODY")"
JOB_ID="$(jq -r '.id' <<<"$FIRST")"
jq -e '.cache_hit == false' <<<"$FIRST" >/dev/null \
  || { echo "serve_smoke: first submission claims a cache hit" >&2; exit 1; }
echo "serve_smoke: submitted $JOB_ID"
wait_done "$JOB_ID"
echo "serve_smoke: job done"

SECOND="$(curl -fsS -X POST "$BASE/jobs" -H 'Content-Type: application/json' -d "$BODY")"
jq -e '.cache_hit == true' <<<"$SECOND" >/dev/null \
  || { echo "serve_smoke: resubmission was not a cache hit" >&2; exit 1; }
[ "$(jq -r '.id' <<<"$SECOND")" = "$JOB_ID" ] \
  || { echo "serve_smoke: cache hit returned a different job" >&2; exit 1; }
echo "serve_smoke: identical resubmission answered from cache"

# The finished job's result must carry the counterfactual regret summaries.
curl -fsS "$BASE/jobs/$JOB_ID" | jq -e '.result.Regret | length > 0' >/dev/null \
  || { echo "serve_smoke: traced result has no regret summaries" >&2; exit 1; }
check_events "$JOB_ID" "$TRIALS" "$ROUNDS" "$ROUND_BLOCKS"

# An adversarial scenario builds its engines outside the figure harness:
# all six arms (three decision rules, attacked and clean) must stream
# rounds and trace records and report a regret summary.
ADV_BODY="{\"scenario\":\"adversary-withholding\",\"quick\":true,\"options\":{\"nodes\":60,\"trials\":${TRIALS},\"rounds\":${ROUNDS},\"round_blocks\":${ROUND_BLOCKS},\"mean_validation_ms\":50,\"trace_level\":\"decisions\",\"counterfactual_k\":2}}"
ADV_ID="$(curl -fsS -X POST "$BASE/jobs" -H 'Content-Type: application/json' -d "$ADV_BODY" | jq -r '.id')"
echo "serve_smoke: submitted $ADV_ID (adversary-withholding)"
wait_done "$ADV_ID"
curl -fsS "$BASE/jobs/$ADV_ID" | jq -e '.result.Regret | length == 6' >/dev/null \
  || { echo "serve_smoke: adversarial result lacks one regret summary per arm" >&2; exit 1; }
check_events "$ADV_ID" "$TRIALS" "$ROUNDS" "$ROUND_BLOCKS" 6

echo "serve_smoke: ok"
