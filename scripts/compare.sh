#!/usr/bin/env bash
# compare.sh — pair runs of the benchmark of record between a base revision
# and the working tree, and say which side each end-to-end metric favours.
#
#   scripts/compare.sh [-n pairs] [-w workload]... [-o file] [--smoke] <base-rev>
#
# Options may come before or after <base-rev>; a second revision is refused.
#
# The base is checked out with `git worktree add` into a temporary directory
# (under $TMPDIR), which is removed on exit. For each workload (every one in
# BENCHMARK.json unless -w names some; -w repeats) it runs pair 1..pairs
# (default 5), base and working tree one after the other, the base first in
# odd pairs and second in even ones, with seed = pair index,
# `--seconds <run_seconds> --trace 0`; each side builds and runs its own
# benchmark/run.sh. --smoke passes -smoke (tiny sizes, seconds a run) to
# both, which checks the script and not the code.
#
# It prints, per workload and end-to-end metric, every pair's base and
# change values, both medians, the base's quartiles and how many pairs the
# change wins, the direction taken from BENCHMARK.json's "better". A metric
# whose change median is worse than the base median by more than its
# relative "bound" in BENCHMARK.json is marked **worse**. On a simulated
# workload a pair whose propagation_ms_p50 differs in any digit is flagged
# **moved**: the simulator is deterministic per seed, so no performance
# change may move it. A workload whose name starts with live- runs real
# sockets, and its propagation_ms_p50 is wall-clock relay time, which moves
# between any two runs: it is never flagged. A last row gives each run's
# machine_speed_x, the host speed its "# machine_speed_x=…" note reports
# (higher is faster; blank when a run printed none): it is a reading of the
# host while the pair ran, not a metric of either side. It exits 1 when a
# run fails or reports "correct": false, after printing what it has.
#
# -o writes the same run to a JSON file as well: the base and change
# revisions, the host the runs reported (nproc, GOMAXPROCS, Go version), and
# per workload and end-to-end metric every pair's base and change values
# (null for a failed run), both medians and the change's wins, per
# workload every pair's base and change machine_speed_x, and per simulated
# workload whether any usable pair's propagation_ms_p50 moved
# ("propagation_moved"). A run of
# record is committed as BENCH_<change rev>.json.
set -euo pipefail
usage() {
  echo "usage: scripts/compare.sh [-n pairs] [-w workload]... [-o file] [--smoke] <base-rev>" >&2
  exit 2
}
pairs=5 smoke=() workloads=() json="" rev=""
while (( $# > 0 )); do
  case "$1" in
    -n) [[ $# -ge 2 ]] || usage; pairs="$2"; shift 2 ;;
    -w) [[ $# -ge 2 ]] || usage; workloads+=("$2"); shift 2 ;;
    -o) [[ $# -ge 2 ]] || usage; json="$(realpath -m "$2")"; shift 2 ;;
    --smoke) smoke=(-smoke); shift ;;
    -*) usage ;;
    *) [[ -z "$rev" ]] || usage; rev="$1"; shift ;;
  esac
done
[[ -n "$rev" ]] || usage
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
base_rev="$(git rev-parse --verify "$rev^{commit}")"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
if (( ${#workloads[@]} == 0 )); then
  read -ra workloads <<<"$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"
fi

tmp="$(mktemp -d)"
cleanup() {
  git -C "$root" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true
  rm -rf "$tmp"
  git -C "$root" worktree prune
}
trap cleanup EXIT
git worktree add --detach --quiet "$tmp/base" "$base_rev"

raw="$tmp/runs.jsonl"
failed=0
for workload in "${workloads[@]}"; do
  for pair in $(seq 1 "$pairs"); do
    sides=(base change)
    (( pair % 2 == 1 )) || sides=(change base)
    for side in "${sides[@]}"; do
      dir="$root"
      [[ "$side" == base ]] && dir="$tmp/base"
      echo "compare: $workload pair $pair $side" >&2
      if ! out="$(cd "$dir" && bash benchmark/run.sh --workload "$workload" --seed "$pair" \
          --seconds "$seconds" --trace 0 "${smoke[@]}")"; then
        echo "compare: $workload pair $pair $side failed" >&2
        failed=1
      fi
      result="$(tail -n 1 <<<"$out")"
      [[ "$result" == "{"* ]] || result=null
      # The run's header: "# workload=… nproc=N gomaxprocs=N goX.Y.Z".
      host=null
      if [[ "$out" =~ nproc=([0-9]+)\ gomaxprocs=([0-9]+)\ (go[^[:space:]]+) ]]; then
        host="{\"nproc\":${BASH_REMATCH[1]},\"gomaxprocs\":${BASH_REMATCH[2]},\"go\":\"${BASH_REMATCH[3]}\"}"
      fi
      # The host-speed note: "# machine_speed_x=1.02".
      speed=null
      if [[ "$out" =~ \#\ machine_speed_x=([0-9.]+) ]]; then
        speed="\"${BASH_REMATCH[1]}\""
      fi
      echo "{\"workload\":\"$workload\",\"pair\":$pair,\"side\":\"$side\",\"host\":$host,\"speed\":$speed,\"result\":$result}" >> "$raw"
    done
  done
done

change_rev="$(git rev-parse HEAD)"
[[ -z "$(git status --porcelain --untracked-files=no)" ]] || change_rev+="+dirty"
python3 - "$raw" "$base_rev" "$change_rev" "$json" "$seconds" "${#smoke[@]}" <<'PY' || failed=1
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
rows = [json.loads(line) for line in open(sys.argv[1])]
bad = 0
record = {"base": sys.argv[2], "change": sys.argv[3], "seconds": int(sys.argv[5]),
          "smoke": sys.argv[6] != "0", "workloads": []}
hosts = [r["host"] for r in rows if r["host"] is not None]
for key in ("nproc", "gomaxprocs", "go"):
    values = sorted({h[key] for h in hosts})
    record[key] = values[0] if len(values) == 1 else values
print(f"# base {sys.argv[2][:12]} against the working tree at {sys.argv[3][:12]}")
for workload in dict.fromkeys(r["workload"] for r in rows):
    runs = {(r["pair"], r["side"]): r["result"] for r in rows if r["workload"] == workload}
    speeds = {(r["pair"], r["side"]): r["speed"] and float(r["speed"]) for r in rows if r["workload"] == workload}
    pairs = sorted({p for p, _ in runs})
    entry = {"name": workload, "pairs": pairs, "metrics": {},
             "machine_speed_x": {s: [speeds[p, s] for p in pairs] for s in ("base", "change")}}
    record["workloads"].append(entry)
    for m in spec["end_to_end"]:
        entry["metrics"][m["name"]] = {
            "unit": m["unit"], "better": m["better"],
            **{s: [runs[p, s]["metrics"][m["name"]]["value"] if runs.get((p, s)) and runs[p, s]["correct"] else None
                   for p in pairs] for s in ("base", "change")}}
    for (p, side), res in sorted(runs.items()):
        if res is None or not res["correct"]:
            print(f"{workload} pair {p} {side}: " + ("no result" if res is None else "correct: false"))
            bad += 1
    ok = [p for p in pairs if all(runs[p, s] is not None and runs[p, s]["correct"] for s in ("base", "change"))]
    simulated = not workload.startswith("live-")
    if simulated:
        prop = entry["metrics"]["propagation_ms_p50"]
        entry["propagation_moved"] = any(b != c for p, b, c in zip(pairs, prop["base"], prop["change"]) if p in ok)
    print()
    print(f"## {workload} ({len(ok)} of {len(pairs)} pairs usable)")
    print()
    if not ok:
        continue
    print("| metric | better | " + " | ".join(f"pair {p} base → change" for p in ok)
          + " | base median [q1, q3] | change median | change wins |")
    print("|---|---|" + "---|" * len(ok) + "---|---|---|")
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        vals = {s: [runs[p, s]["metrics"][name]["value"] for p in ok] for s in ("base", "change")}
        wins = sum((c < b) if lower else (c > b) for b, c in zip(vals["base"], vals["change"]))
        cells = []
        for b, c in zip(vals["base"], vals["change"]):
            if name == "propagation_ms_p50" and simulated:
                cells.append(f"{b!r} → {c!r}" + (" **moved**" if b != c else ""))
            else:
                cells.append(f"{b:.6g} → {c:.6g}")
        mb, mc = statistics.median(vals["base"]), statistics.median(vals["change"])
        q1, _, q3 = statistics.quantiles(vals["base"], n=4, method="inclusive") if len(ok) > 1 else [mb] * 3
        rel = f" ({(mc - mb) / mb:+.1%})" if mb else ""
        limit = mb * (1 + m["bound"] if lower else 1 - m["bound"])
        worse = " **worse**" if (mc > limit if lower else mc < limit) else ""
        print(f"| `{name}` | {m['better']} | " + " | ".join(cells)
              + f" | {mb:.6g} [{q1:.6g}, {q3:.6g}] | {mc:.6g}{rel}{worse} | {wins}/{len(ok)} |")
        entry["metrics"][name].update(base_median=mb, base_q1=q1, base_q3=q3, change_median=mc,
                                      change_wins=wins, usable_pairs=len(ok), worse=bool(worse))
    fmt = lambda v: "" if v is None else f"{v:.6g}"
    med = lambda s: fmt(statistics.median([v for p in ok if (v := speeds[p, s]) is not None] or [None]))
    print("| machine_speed_x (host) | higher | "
          + " | ".join(f"{fmt(speeds[p, 'base'])} → {fmt(speeds[p, 'change'])}" for p in ok)
          + f" | {med('base')} | {med('change')} | |")
if sys.argv[4]:
    with open(sys.argv[4], "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
sys.exit(1 if bad else 0)
PY
exit "$failed"
