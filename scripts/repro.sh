#!/usr/bin/env bash
# One-command reproduction of the paper's tables and figures.
#
# Builds the Release tree, runs every artifact-emitting bench at its
# default seed, diffs each artifact against the checked-in golden under
# bench/golden/ (tools/artifact_diff: integer counters compare exactly,
# floats within --rtol, wall-clock sections ignored), and prints the
# paper-vs-measured table collected from the artifacts' paper_comparison
# sections. See docs/repro.md for the golden-recording workflow.
#
# usage: scripts/repro.sh [--quick] [--record] [--threads=N] [--jobs=N]
#                         [--rtol=X] [--build-dir=DIR] [--skip-build]
#                         [--no-deltas]
#
#   --quick       analytical + fast Monte-Carlo subset (what CI runs):
#                 skips the three wall-clock-heavy benches
#   --record      overwrite bench/golden/ with this run's artifacts
#                 instead of diffing
#   --threads=N   worker count for the engine-backed benches (results are
#                 bit-identical for any N; default: all hardware threads)
#   --jobs=N      run each engine-backed bench as a fleet of N processes
#                 (tools/fleet) splitting shards through a shared
#                 checkpoint store; artifacts stay bit-identical to N=1.
#                 An interrupted run (^C -> exit 75) keeps its checkpoints
#                 and resumes on rerun.
#   --rtol=X      relative tolerance for float-shaped numbers
#                 (default 1e-9: absorbs libm/toolchain ulp drift while
#                 integer counters stay exact)
#   --build-dir=DIR  build tree to use (default build-release)
#   --skip-build  use existing binaries in the build tree as-is
#   --no-deltas   skip the paper-vs-measured summary table
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
RECORD=0
SKIP_BUILD=0
DELTAS=1
THREADS=""
JOBS=1
RTOL=1e-9
BUILD_DIR=build-release
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --record) RECORD=1 ;;
    --skip-build) SKIP_BUILD=1 ;;
    --no-deltas) DELTAS=0 ;;
    --threads=*) THREADS="${arg#--threads=}" ;;
    --jobs=*) JOBS="${arg#--jobs=}" ;;
    --rtol=*) RTOL="${arg#--rtol=}" ;;
    --build-dir=*) BUILD_DIR="${arg#--build-dir=}" ;;
    --help|-h) sed -n '2,25p' "$0"; exit 0 ;;
    *) echo "repro.sh: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done

GOLDEN_DIR=bench/golden
OUT_DIR=bench/out
# Checkpoints live *outside* OUT_DIR so an interrupted run (exit 75) keeps
# them for the resume; removed again once the whole run succeeds.
CKPT_DIR=bench/out.ckpt

# name | engine column | in --quick | extra ignore globs
#   engine column: T = full engine contract (--threads --checkpoint --fleet),
#                  t = --threads only (no checkpoint store),
#                  . = neither.
# (the "throughput" wall-clock section is always ignored).
BENCHES="
table1_ber          . . .
table2_ecc_fit      . . .
table3_sdc          T . .
table4_sram_vmin    . . .
fig3_sdr_cases      . . .
fig7_mttf           T . .
fig8_performance    . slow .
fig9_edp            t slow .
table8_scrub        . . metrics.scrub.sweep_wall_ns
table9_cache_size   . . .
table10_delta       . . .
table11_baselines   T . .
table12_hiecc       . . .
correction_latency  . . .
codec_throughput    . slow result.rows[*].iters,result.rows[*].seconds,result.rows[*].mb_per_s,result.rows[*].speedup_vs_reference,result.rows[*].speedup_vs_per_line
montecarlo_validation T . .
ablation_group_size . . .
ablation_features   T . .
ablation_inner_ecc  . . .
scrub_bandwidth     . . metrics.scrub.sweep_wall_ns
scenario_matrix     T slow .
frontier_pareto     T . .
"

if [ "$SKIP_BUILD" -eq 0 ]; then
  echo "== configure + build ($BUILD_DIR, Release) =="
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BUILD_DIR" -j "$(nproc)" --target \
    $(echo "$BENCHES" | awk 'NF {print "bench_" $1}') \
    bench_service_throughput artifact_diff fleet >/dev/null
fi

if [ "$JOBS" -gt 1 ] && [ ! -x "$BUILD_DIR/tools/fleet" ]; then
  echo "repro.sh: --jobs=$JOBS needs $BUILD_DIR/tools/fleet (POSIX only)" >&2
  exit 2
fi

DIFF_TOOL="$BUILD_DIR/tools/artifact_diff"
[ -x "$DIFF_TOOL" ] || { echo "repro.sh: $DIFF_TOOL not built" >&2; exit 2; }

rm -rf "$OUT_DIR"
FAILED=""
RUN=0
echo
echo "== run benches =="
while read -r name engine speed ignores; do
  [ -n "$name" ] || continue
  if [ "$QUICK" -eq 1 ] && [ "$speed" = "slow" ]; then
    echo "  skip  $name (--quick)"
    continue
  fi
  ARGS=(--out="$OUT_DIR")
  if [ "$engine" != "." ] && [ -n "$THREADS" ]; then
    ARGS+=(--threads="$THREADS")
  fi
  echo "  run   $name"
  STATUS=0
  if [ "$engine" = "T" ] && [ "$JOBS" -gt 1 ]; then
    # Fleet mode: N processes split the shards through a shared checkpoint
    # store; every finisher runs the same deterministic merge, so the
    # artifact is bit-identical to the single-process run. --resume makes
    # a rerun after an interrupt pick up the kept checkpoints.
    "$BUILD_DIR/tools/fleet" --jobs="$JOBS" -- \
      "$BUILD_DIR/bench/bench_$name" "${ARGS[@]}" \
      --checkpoint="$CKPT_DIR/$name" --fleet --resume \
      >/dev/null 2>/dev/null || STATUS=$?
  elif [ "$engine" = "T" ]; then
    "$BUILD_DIR/bench/bench_$name" "${ARGS[@]}" \
      --checkpoint="$CKPT_DIR/$name" --resume >/dev/null || STATUS=$?
  else
    "$BUILD_DIR/bench/bench_$name" "${ARGS[@]}" >/dev/null || STATUS=$?
  fi
  if [ "$STATUS" -eq 75 ]; then
    # EX_TEMPFAIL: the worker checkpointed its finished shards and stopped.
    # Distinct from a hard failure — nothing is wrong, the run is resumable.
    echo "repro.sh: bench_$name interrupted (exit 75); checkpoints kept in $CKPT_DIR/" >&2
    echo "repro.sh: rerun the same command to resume where it stopped" >&2
    exit 75
  elif [ "$STATUS" -ne 0 ]; then
    echo "repro.sh: bench_$name failed (exit $STATUS)" >&2
    FAILED="$FAILED $name(run)"
    continue
  fi
  RUN=$((RUN + 1))
  if [ "$RECORD" -eq 1 ]; then
    mkdir -p "$GOLDEN_DIR"
    cp "$OUT_DIR/$name.json" "$GOLDEN_DIR/$name.json"
    continue
  fi
  if [ ! -f "$GOLDEN_DIR/$name.json" ]; then
    echo "repro.sh: no golden for $name (record with --record)" >&2
    FAILED="$FAILED $name(missing-golden)"
    continue
  fi
  IGNORE_FLAGS=(--ignore=throughput)
  if [ "$ignores" != "." ]; then
    for pat in ${ignores//,/ }; do IGNORE_FLAGS+=(--ignore="$pat"); done
  fi
  if ! "$DIFF_TOOL" --rtol="$RTOL" "${IGNORE_FLAGS[@]}" \
       "$GOLDEN_DIR/$name.json" "$OUT_DIR/$name.json"; then
    FAILED="$FAILED $name(diff)"
  fi
done <<EOF
$BENCHES
EOF

# The concurrent-service bench is host-timing (QPS/latency depend on the
# machine), so it is checked for *schema*, not numbers: the golden pins the
# sweep's shape (row identity fields, config) while every measured field,
# the merged metrics and the wall-clock section are ignored. Always the
# --quick sweep, so the row set matches the recorded golden.
echo "  run   service_throughput (schema only)"
if ! "$BUILD_DIR/bench/bench_service_throughput" --quick --out="$OUT_DIR" >/dev/null; then
  echo "repro.sh: bench_service_throughput failed" >&2
  FAILED="$FAILED service_throughput(run)"
elif [ "$RECORD" -eq 1 ]; then
  RUN=$((RUN + 1))
  mkdir -p "$GOLDEN_DIR"
  cp "$OUT_DIR/service_throughput.json" "$GOLDEN_DIR/service_throughput.json"
elif [ ! -f "$GOLDEN_DIR/service_throughput.json" ]; then
  echo "repro.sh: no golden for service_throughput (record with --record)" >&2
  FAILED="$FAILED service_throughput(missing-golden)"
elif ! "$DIFF_TOOL" --rtol="$RTOL" --ignore=throughput --ignore=metrics \
       --ignore='result.rows[*].measured' \
       "$GOLDEN_DIR/service_throughput.json" "$OUT_DIR/service_throughput.json"; then
  FAILED="$FAILED service_throughput(diff)"
else
  RUN=$((RUN + 1))
fi

if [ "$RECORD" -eq 1 ]; then
  echo
  echo "recorded $RUN goldens under $GOLDEN_DIR/"
fi

if [ "$DELTAS" -eq 1 ]; then
  echo
  echo "== paper vs measured (from artifact paper_comparison sections) =="
  python3 scripts/paper_deltas.py "$OUT_DIR"/*.json
fi

if [ -n "$FAILED" ]; then
  echo
  echo "repro.sh: FAILED:$FAILED" >&2
  exit 1
fi
rm -rf "$CKPT_DIR"
echo
if [ "$RECORD" -eq 1 ]; then
  echo "repro.sh: OK ($RUN goldens recorded)"
else
  echo "repro.sh: OK ($RUN benches matched golden artifacts)"
fi
