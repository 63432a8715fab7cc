#!/bin/sh
# Tier-1 perf-PR gate: the sanitizer and static-certification passes, the
# fig4 determinism gates against the recorded BENCH_PR6/8/9.json cells,
# the trace/timeline schema and observer-overhead gates, the shard,
# flash-crowd and critical-path smokes, and finally the fig4-configuration
# smoke bench, which fails if any BOHM configuration commits fewer
# transactions than it was given. Wire into CI before merging anything
# that touches lib/core, lib/storage or lib/runtime. The smoke bench alone
# is also available as `dune build @bench-smoke`.
set -e
cd "$(dirname "$0")/.."
dune build bench/main.exe bin/bohm_cli.exe
# One sanitized configuration per engine (footprint + chain + race
# checkers on the serialization workload), plus BOHM with a parking-width
# exec pool, preprocessing on and off.
dune exec bench/main.exe -- sanitize --quick

# Static certification gate: the footprint certifier over the built-in IR
# workloads (cross-validated against BOHM runs) plus the all-engines
# sanitize pass; any diagnostic fails the build.
dune build @lint

# Experiment names are validated before anything runs: an unknown one
# must be a usage error (non-zero exit), never a silent no-op.
if dune exec bin/bohm_cli.exe -- bench no-such-experiment > /dev/null 2>&1
then
  echo "FAIL: bohm_cli bench accepted an unknown experiment name"
  exit 1
fi
echo "bench name validation PASS (unknown experiment rejected)"

# Trace-schema gate: a small observed BOHM run must export Chrome
# trace-event JSON in which every event line carries the required keys
# and B/E span events balance per track (tid) — never closing below
# zero, nothing left open at end of trace.
tmp1=$(mktemp)
trap 'rm -f "$tmp1"' EXIT
dune exec bin/bohm_cli.exe -- run -e bohm -t 6 -n 1500 --theta 0.4 \
  --trace "$tmp1" > /dev/null
awk '
  !/"ph":/ { next }
  { events++ }
  !(/"ts":/ && /"pid":/ && /"tid":/ && /"name":/) {
    print "FAIL: trace event missing a required key: " $0; bad = 1; exit 1
  }
  {
    match($0, /"tid": [0-9]+/); tid = substr($0, RSTART + 7, RLENGTH - 7)
    match($0, /"ph": "[A-Za-z]"/); ph = substr($0, RSTART + 7, 1)
  }
  ph == "B" { depth[tid]++ }
  ph == "E" {
    if (--depth[tid] < 0) {
      print "FAIL: trace E below zero on tid " tid; bad = 1; exit 1
    }
  }
  END {
    if (bad) exit 1
    if (events == 0) { print "FAIL: empty trace"; exit 1 }
    for (t in depth) if (depth[t] != 0) {
      print "FAIL: unclosed span on tid " t; exit 1
    }
    print "trace schema gate PASS (" events " events, all tracks balanced)"
  }' "$tmp1"

row() { # row JSON-FILE X -> the values line of the fig4 row at x=X
  awk -v x="\"x\": \"$2\"" '
    /"title": "Figure 4/ { in_fig4 = 1 }
    in_fig4 && index($0, x) { print; exit }' "$1" \
    | sed 's/.*\[//; s/\].*//'
}

# Determinism gate: the single-shard engine must replay the recorded
# schedule. The --quick fig4 sweep (CC in {1,4}, exec in {2,8}; each cell
# an independent deterministic simulation at the full transaction count)
# runs the default shards=1 configuration, so it must reproduce the
# corresponding BENCH_PR6.json fig4 cells bit-for-bit — any charged
# instruction leaking from the sharded paths of the one driver into the
# single-shard run shows up here.
tmp2=$(mktemp)
trap 'rm -f "$tmp1" "$tmp2"' EXIT
dune exec bench/main.exe -- fig4 --quick --json="$tmp2" > /dev/null
for x in 2 8; do
  got=$(row "$tmp2" $x)
  want=$(row BENCH_PR6.json $x | awk -F', ' '{print $1 ", " $3}')
  if [ -z "$got" ] || [ "$got" != "$want" ]; then
    echo "FAIL: single-shard fig4 diverges from BENCH_PR6.json at exec=$x"
    echo "  got:  [$got]"
    echo "  want: [$want]"
    exit 1
  fi
done
echo "fig4 single-shard determinism gate PASS (matches BENCH_PR6.json at exec=2,8 / CC=1,4)"

# Second determinism gate: adaptive CC repartitioning must be inert when
# it cannot observe load — fig4 runs without the preprocessing stage, so
# with cc_rebalance at its default (on) no map is ever published and the
# same fig4 run must also reproduce the BENCH_PR8.json cells bit-for-bit.
# Any charged instruction leaking from the rebalance path into a
# static-map run shows up here.
for x in 2 8; do
  got=$(row "$tmp2" $x)
  want=$(row BENCH_PR8.json $x | awk -F', ' '{print $1 ", " $3}')
  if [ -z "$got" ] || [ "$got" != "$want" ]; then
    echo "FAIL: fig4 with cc_rebalance inert diverges from BENCH_PR8.json at exec=$x"
    echo "  got:  [$got]"
    echo "  want: [$want]"
    exit 1
  fi
done
echo "fig4 rebalance-inert determinism gate PASS (matches BENCH_PR8.json at exec=2,8 / CC=1,4)"

# Multi-shard ablation smoke: complete per-shard pipelines at 1/2/4
# shards with a 10% cross-shard mix. A lost vote, a missed epoch
# alignment or a mis-routed footprint slice deadlocks the simulator or
# drops commits and exits non-zero; the full-scale scaling table lives
# in EXPERIMENTS.md / BENCH_PR8.json.
dune exec bench/main.exe -- fig4-shards --quick > /dev/null \
  && echo "fig4-shards smoke PASS"

# Adaptive-repartitioning ablation smoke: static vs adaptive map on the
# Zipfian and flash-crowd workloads, shrunk. A map published at the wrong
# epoch mis-routes footprint entries, which the engine surfaces as lost
# commits or a deadlocked barrier and a non-zero exit; the full-scale
# tables live in EXPERIMENTS.md / BENCH_PR9.json.
dune exec bench/main.exe -- ablation-cc-rebalance --quick > /dev/null \
  && echo "ablation-cc-rebalance smoke PASS"
dune exec bench/main.exe -- flash-crowd --quick > /dev/null \
  && echo "flash-crowd smoke PASS"

# Third determinism gate: the metrics/timeline instrumentation must be
# invisible when obs is off. fig4 runs unobserved, so the same --quick
# fig4 cells (tmp2 above) must also reproduce the BENCH_PR9.json cells
# bit-for-bit — a charged instruction leaking from a Metrics shard, a
# timeline instant or the dep-stall blame path shows up here.
for x in 2 8; do
  got=$(row "$tmp2" $x)
  want=$(row BENCH_PR9.json $x | awk -F', ' '{print $1 ", " $3}')
  if [ -z "$got" ] || [ "$got" != "$want" ]; then
    echo "FAIL: unobserved fig4 diverges from BENCH_PR9.json at exec=$x"
    echo "  got:  [$got]"
    echo "  want: [$want]"
    exit 1
  fi
done
echo "fig4 obs-off determinism gate PASS (matches BENCH_PR9.json at exec=2,8 / CC=1,4)"

# Timeline-schema gate: the per-batch JSONL export must carry every
# schema key on every line, batch ids must be strictly increasing, and
# the disjoint stage windows must sum to at most the batch makespan
# (gc is nested inside cc and excluded from the sum).
tmp3=$(mktemp)
trap 'rm -f "$tmp1" "$tmp2" "$tmp3"' EXIT
dune exec bin/bohm_cli.exe -- run -e bohm --preprocess -t 6 -n 3000 \
  --theta 0.4 --timeline "$tmp3" > /dev/null
awk '
  function val(key,    pat) {
    pat = "\"" key "\": -?[0-9]+"
    if (!match($0, pat)) {
      print "FAIL: timeline line missing " key; bad = 1; exit 1
    }
    # + 0: force numeric comparison below
    return substr($0, RSTART + length(key) + 4, RLENGTH - length(key) - 4) + 0
  }
  {
    lines++
    n = split("batch start finish makespan d_sequence d_preprocess " \
              "d_rebalance d_cc d_gc d_exec d_vote committed steals " \
              "wakeups retry_scans dep_stall slab_occ", keys, " ")
    for (i = 1; i <= n; i++) v[keys[i]] = val(keys[i])
    if (!/"cc_imbalance": /) {
      print "FAIL: missing cc_imbalance"; bad = 1; exit 1
    }
    if (!/"votes": \{/) {
      print "FAIL: missing votes object"; bad = 1; exit 1
    }
    if (lines > 1 && v["batch"] <= prev_batch) {
      print "FAIL: batch ids not strictly increasing at line " lines
      bad = 1; exit 1
    }
    prev_batch = v["batch"]
    if (v["makespan"] != v["finish"] - v["start"]) {
      print "FAIL: makespan != finish - start at batch " v["batch"]
      bad = 1; exit 1
    }
    sum = v["d_sequence"] + v["d_preprocess"] + v["d_rebalance"] + \
          v["d_cc"] + v["d_exec"] + v["d_vote"]
    if (sum > v["makespan"]) {
      print "FAIL: stage windows exceed makespan at batch " v["batch"] \
            " (" sum " > " v["makespan"] ")"
      bad = 1; exit 1
    }
  }
  END {
    if (bad) exit 1
    if (lines == 0) { print "FAIL: empty timeline"; exit 1 }
    print "timeline schema gate PASS (" lines " batches, stage sums bounded)"
  }' "$tmp3"

# Observer-overhead gate: the same deterministic fig4-configuration run
# with and without recording must print the identical stat block —
# virtual time, commits, every extras key — differing only in the trace
# artifact lines. Recording is host-side; any drift here is a charged
# instruction leaking from the obs layer.
tmp4=$(mktemp)
tmp5=$(mktemp)
trap 'rm -f "$tmp1" "$tmp2" "$tmp3" "$tmp4" "$tmp5"' EXIT
obs_run() { # obs_run [extra flags...] -> the filtered stat block
  dune exec bin/bohm_cli.exe -- run -e bohm -w 10rmw --theta 0 -t 12 \
    --cc-fraction 0.34 -n 2000 "$@" \
    | grep -v -e '^trace: ' -e '^timeline: ' -e '^$'
}
obs_run > "$tmp4"
obs_run --trace /dev/null --timeline /dev/null > "$tmp5"
if ! cmp -s "$tmp4" "$tmp5"; then
  echo "FAIL: observed run's stat block diverges from the unobserved run"
  diff "$tmp4" "$tmp5" || true
  exit 1
fi
echo "observer-overhead gate PASS (obs on/off stat blocks identical)"

# Critical-path smoke: the binding-stage/blame analysis must run on all
# six engines (BOHM plus the five single-layer baselines over nominal
# batches); an empty batch or a malformed blame instant exits non-zero.
dune exec bench/main.exe -- critical-path --quick > /dev/null \
  && echo "critical-path smoke PASS"

exec dune exec bench/main.exe -- smoke "$@"
