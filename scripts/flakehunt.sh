#!/usr/bin/env bash
# flakehunt.sh — run the live-side test packages many times under the race
# detector and report how often each test failed, as a rate. Every run of
# every test completes before the verdict: one flaky test does not hide the
# next, and the exit status is non-zero only at the end, if anything failed.
#
#   scripts/flakehunt.sh                 # 20 runs of ./node ./internal/serve
#   scripts/flakehunt.sh 5 ./internal/serve
#   scripts/flakehunt.sh --suite 20      # 20 runs of the whole go test -count=1 ./...
#   scripts/flakehunt.sh --suite 20 --load
#
# --suite N runs the tier-1 suite as it is run for every change (all
# packages side by side, no race detector), N times in sequence. --load
# keeps one CPU-bound process per core busy for the whole hunt, so the tests
# run on a starved scheduler, as they do beside a build or another suite.
set -uo pipefail
cd "$(dirname "$0")/.."

suite=0
load=0
while (( $# )); do
  case "$1" in
    --suite) suite="$2"; shift 2 ;;
    --load) load=1; shift ;;
    *) break ;;
  esac
done
if (( suite > 0 && $# > 0 )); then
  echo "flakehunt: --suite runs ./... and takes no count or packages" >&2
  exit 2
fi
if (( suite == 0 )); then
  count="${1:-20}"
  shift || true
  if (( $# == 0 )); then
    set -- ./node ./internal/serve
  fi
fi

if (( load )); then
  hogs=()
  for (( i = 0; i < $(nproc); i++ )); do
    yes > /dev/null &
    hogs+=($!)
  done
  trap 'kill "${hogs[@]}" 2>/dev/null; wait "${hogs[@]}" 2>/dev/null' EXIT
fi

hunt() {
  if (( suite == 0 )); then
    go test -race -count="$count" -timeout 60m -json "$@"
    return
  fi
  local rc=0
  for (( i = 1; i <= suite; i++ )); do
    go test -count=1 -json ./... || rc=$?
  done
  return "$rc"
}

# The tally reads go test's JSON events: a pass or fail event that names a
# test is one run of it; one that names only a package is the package's
# verdict, which also catches what no test owns (a build error, a timeout, a
# race reported after the last test returned). Each failing run's last 40
# output lines are printed when it fails, headed by its package, test and
# run index (1-based), so a rare failure is kept, not just counted.
tally='
import collections, json, sys
runs, fails, broken = collections.Counter(), collections.Counter(), []
tails = collections.defaultdict(lambda: collections.deque(maxlen=40))
for line in sys.stdin:
    try:
        ev = json.loads(line)
    except ValueError:
        continue
    action, pkg, test = ev.get("Action"), ev.get("Package", "?"), ev.get("Test")
    if action == "run":
        tails[pkg, test].clear()
    elif action == "output":
        tails[pkg, test].append(ev.get("Output", ""))
    if action not in ("pass", "fail"):
        continue
    if test is None:
        if action == "fail":
            broken.append(pkg)
            print("flakehunt: package %s failed; its last output:" % pkg)
            sys.stdout.write("".join(tails[pkg, None]))
        del tails[pkg, None]
        continue
    runs[pkg, test] += 1
    if action == "fail":
        fails[pkg, test] += 1
        print("flakehunt: %s %s failed on run %d; its last output:" % (pkg, test, runs[pkg, test]))
        sys.stdout.write("".join(tails[pkg, test]))
    del tails[pkg, test]
print("flakehunt: %d tests, %d test runs" % (len(runs), sum(runs.values())))
for (pkg, test), n in sorted(fails.items(), key=lambda kv: (-kv[1] / runs[kv[0]], kv[0])):
    print("  %5.1f%%  %d/%d  %s %s" % (100.0 * n / runs[pkg, test], n, runs[pkg, test], pkg, test))
for pkg in broken:
    print("  package failed: %s" % pkg)
if not fails and not broken:
    print("flakehunt: no failures")
sys.exit(1 if fails or broken else 0)
'

hunt "$@" | python3 -c "$tally"
status=("${PIPESTATUS[@]}")
if (( status[1] != 0 )); then
  exit 1
fi
if (( status[0] != 0 )); then
  echo "flakehunt: go test exited ${status[0]} without a failure event" >&2
  exit 1
fi
