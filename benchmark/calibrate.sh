#!/usr/bin/env bash
# Measures how far two sets of runs of the same code disagree, which is the
# floor under every bound in BENCHMARK.json.
#
#   benchmark/calibrate.sh [runs-per-set [workload...]] > benchmark/NOISE.md
#   benchmark/calibrate.sh report                       > benchmark/NOISE.md
#
# Runs the workloads (all of BENCHMARK.json's by default) untraced as two
# interleaved sets (A B A B ...) of runs-per-set runs each (default 10, as the
# acceptance check uses), run i of both sets with seed i, and prints per
# workload x end-to-end metric each set's median and quartiles, the spread of
# set A (interquartile range over median) and the gap between the two
# medians, against the metric's bound. It exits 1 if a spread or a gap
# exceeds its bound. Each run's result line, with the machine speed and the
# λ gain it printed beside it, is appended to benchmark/out/calibrate.jsonl,
# replacing earlier ones of the same workload; "report" prints the tables
# from that file without running anything.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
raw="$here/out/calibrate.jsonl"
mkdir -p "$here/out"
touch "$raw"
cd "$(dirname "$here")"
if [[ "${1:-}" != report ]]; then
  runs="${1:-10}"
  shift || true
  seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
  if (( $# == 0 )); then
    set -- $(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
  fi
  for workload in "$@"; do
    grep -v "\"workload\":\"$workload\"" "$raw" > "$raw.keep" || true
    mv "$raw.keep" "$raw"
    for seed in $(seq 1 "$runs"); do
      for set in A B; do
        echo "calibrate: $workload seed $seed set $set" >&2
        out="$(bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)"
        speed="$(grep -o 'machine_speed_x=[0-9.]*' <<<"$out" | cut -d= -f2)"
        gain="$(grep -o 'lambda90_gain_pct=[0-9.]*' <<<"$out" | cut -d= -f2 || true)"
        echo "{\"workload\":\"$workload\",\"seed\":$seed,\"set\":\"$set\",\"speed\":$speed,\"gain\":${gain:-null},\"result\":$(tail -n 1 <<<"$out")}" >> "$raw"
      done
    done
  done
fi
python3 - "$raw" <<'PY'
import json, statistics, sys, platform, os

spec = json.load(open("BENCHMARK.json"))
rows = [json.loads(l) for l in open(sys.argv[1])]
bad = 0
print("# Run-to-run noise of the benchmark")
print()
print(f"Written by `benchmark/calibrate.sh`: {len(rows)} untraced runs on {os.cpu_count()} cores "
      f"({platform.machine()}), two interleaved sets A and B per workload, run i of both sets with seed i.")
print("`spread` is set A's interquartile range over its median (`statistics.quantiles(values, n=4)`), "
      "`gap` is how much worse set B's median is than set A's (negative: better); both as a share of set A's median.")
print("A bound holds when spread <= bound and gap <= bound; the target is spread <= bound/3 and |gap| <= bound/2.")
print()
for w in spec["workloads"]:
    name = w["name"]
    if not any(r["workload"] == name for r in rows):
        continue
    print(f"## {name}")
    print()
    print("| metric | unit | bound | A median [q1, q3] | B median [q1, q3] | spread | gap | |")
    print("|---|---|---|---|---|---|---|---|")
    for m in spec["end_to_end"]:
        sets = {}
        for s in "AB":
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in rows
                    if r["workload"] == name and r["set"] == s and r["result"]["correct"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            sets[s] = (med, q1, q3)
        (ma, qa1, qa3), (mb, qb1, qb3) = sets["A"], sets["B"]
        spread = (qa3 - qa1) / ma
        gap = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
        verdict = "ok"
        if (m["name"] != "setup_s" and spread > m["bound"]) or gap > m["bound"]:
            verdict = "EXCEEDS BOUND"
            bad += 1
        elif (m["name"] != "setup_s" and spread > m["bound"] / 3) or abs(gap) > m["bound"] / 2:
            verdict = "above target"
        print(f"| `{m['name']}` | {m['unit']} | {m['bound']:.0%} | {ma:.6g} [{qa1:.6g}, {qa3:.6g}] | "
              f"{mb:.6g} [{qb1:.6g}, {qb3:.6g}] | {spread:.2%} | {gap:+.2%} | {verdict} |")
    mine = [r for r in rows if r["workload"] == name]
    failed = [r for r in mine if not r["result"]["correct"]]
    speeds = {s: sorted(r["speed"] for r in mine if r["set"] == s) for s in "AB"}
    print()
    print("Machine speed (`machine_speed_x`; the runs of `baseline.json` read 1.12): "
          + "; ".join(f"set {s} median {statistics.median(v):.3f}, range {v[0]:.3f} to {v[-1]:.3f}" for s, v in speeds.items()) + ".")
    gains = sorted(r["gain"] for r in mine if r["gain"] is not None)
    if gains:
        print(f"`lambda90_gain_pct` over the seeds: {gains[0]:.2f} to {gains[-1]:.2f}.")
    print(f"{len(failed)} runs failed an output check.")
    print()
    bad += len(failed)
sys.exit(1 if bad else 0)
PY
