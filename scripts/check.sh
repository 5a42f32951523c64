#!/usr/bin/env bash
# Static-analysis and dynamic-checking gate (see docs/STATIC_ANALYSIS.md).
#
# Runs, in order:
#   1. clang-format --dry-run over the tree        (skipped if not installed)
#   2. clang-tidy with the repo .clang-tidy config (skipped if not installed)
#   3. a strict-warnings build with MCDC_WERROR=ON
#   4. the ASan / UBSan / TSan ctest matrix, contracts enabled
#   5. a TSan stress lane over the engine-labelled tests (the sharded
#      streaming engine runs real std::thread workers under TSan — no
#      serial fallback anywhere in the repo — so interleavings are
#      worth re-rolling)
#   6. a multi-producer TSan stress lane: the >= 8-producer ingestion
#      session tests and fuzz lane, plus an 8-producer trace_tool
#      serve --verify, repeated until-fail
#   7. a telemetry-export gate: trace_tool serve --engine with
#      --telemetry-out/--prom-out under TSan, the Chrome-trace JSON
#      validated with python3 (skipped if python3 is absent) and the
#      Prometheus dump grepped for the stage-histogram series
#   8. the scenario bench gate: bench_scenarios --quick (scenlab), which
#      hard-fails unless the adaptive Δt controller beats the static
#      window on cost (diurnal family) and SLO attainment (flash family),
#      with feasibility and cost reconciliation asserted in every run
#   9. the heterogeneous-cost gate: ctest -L het (the het model / facade
#      unit suites, the fuzz het lanes, and bench_het_frontier --quick,
#      which hard-fails unless SC-het is feasible, reconciles exactly,
#      never beats the exact optimum, and its measured competitive-ratio
#      frontier stays under the per-family ceilings)
#  10. mcdc-lint (tools/lint/mcdc_lint.py): the project-specific
#      static-analysis pass proving the standing invariants at the
#      source level (no-alloc / lock-free / stamp-blind / deterministic
#      closures rooted at the src/util/annotate.h annotations, plus the
#      module include-DAG and header self-sufficiency). Uses libclang
#      when importable, its built-in text frontend otherwise; needs only
#      python3 (SKIP when absent). Report: build/lint_report.json
#
# Exit code is non-zero iff any gate that could run failed; unavailable
# tools are reported as SKIP, not failure, so the gate degrades gracefully
# on containers that ship only gcc (sanitizers still run — gcc provides
# them natively).
#
# Knobs:
#   MCDC_CHECK_SANITIZERS   space-separated subset of "address undefined
#                           thread" (default: all three)
#   MCDC_CHECK_JOBS         parallel build/test jobs (default: nproc)
#   MCDC_CHECK_SKIP_TIDY    non-empty: skip clang-tidy even if installed
#   MCDC_CHECK_SKIP_FORMAT  non-empty: skip clang-format even if installed
#   MCDC_FUZZ_ITERS         forwarded to the fuzz harness (default 1000)
#   MCDC_CHECK_ENGINE_STRESS  repeat count for the engine TSan stress lane
#                           (default 3; 0 disables the lane)
#   MCDC_CHECK_MULTI_PRODUCER  repeat count for the multi-producer TSan
#                           stress lane (default 3; 0 disables the lane)
#   MCDC_CHECK_TELEMETRY    non-empty "0": skip the telemetry-export gate
#   MCDC_CHECK_SCENARIOS    non-empty "0": skip the scenario bench gate
#   MCDC_CHECK_HET          non-empty "0": skip the heterogeneous-cost gate
#   MCDC_CHECK_SKIP_LINT    non-empty: skip the mcdc-lint gate
set -uo pipefail
cd "$(dirname "$0")/.."

JOBS="${MCDC_CHECK_JOBS:-$(nproc)}"
SANITIZERS="${MCDC_CHECK_SANITIZERS:-address undefined thread}"

declare -a RESULTS=()
FAILED=0

record() {  # record <status> <name>
  RESULTS+=("$(printf '%-6s %s' "$1" "$2")")
  if [ "$1" = "FAIL" ]; then FAILED=1; fi
}

# ---- 1. clang-format ------------------------------------------------------
if [ -n "${MCDC_CHECK_SKIP_FORMAT:-}" ]; then
  record SKIP "clang-format (MCDC_CHECK_SKIP_FORMAT set)"
elif command -v clang-format > /dev/null 2>&1; then
  if find src tests bench examples -name '*.cpp' -o -name '*.h' \
      | xargs clang-format --dry-run -Werror; then
    record PASS "clang-format"
  else
    record FAIL "clang-format"
  fi
else
  record SKIP "clang-format (not installed)"
fi

# ---- 2. clang-tidy --------------------------------------------------------
if [ -n "${MCDC_CHECK_SKIP_TIDY:-}" ]; then
  record SKIP "clang-tidy (MCDC_CHECK_SKIP_TIDY set)"
elif command -v clang-tidy > /dev/null 2>&1; then
  # compile_commands.json comes from the werror configure (step 3 reuses it).
  cmake --preset werror > /dev/null \
    && find src -name '*.cpp' \
       | xargs clang-tidy -p build-werror --quiet
  if [ $? -eq 0 ]; then
    record PASS "clang-tidy"
  else
    record FAIL "clang-tidy"
  fi
else
  record SKIP "clang-tidy (not installed)"
fi

# ---- 3. strict warnings as errors ----------------------------------------
if cmake --preset werror > /dev/null \
    && cmake --build --preset werror -j "$JOBS" > /dev/null; then
  record PASS "werror build (-Wconversion -Wshadow -Wdouble-promotion)"
else
  record FAIL "werror build (-Wconversion -Wshadow -Wdouble-promotion)"
fi

# ---- 4. sanitizer matrix --------------------------------------------------
for san in $SANITIZERS; do
  case "$san" in
    address) preset=asan ;;
    undefined) preset=ubsan ;;
    thread) preset=tsan ;;
    *) echo "unknown sanitizer '$san'" >&2; record FAIL "sanitizer $san"; continue ;;
  esac
  echo "=== sanitizer: $san (preset $preset) ==="
  if cmake --preset "$preset" > /dev/null \
      && cmake --build --preset "$preset" -j "$JOBS" > /dev/null \
      && ctest --preset "$preset" -j "$JOBS"; then
    record PASS "ctest under $san"
  else
    record FAIL "ctest under $san"
  fi
done

# ---- 5. engine TSan stress lane -------------------------------------------
# Concurrency bugs are interleaving-dependent; one green run proves little.
# Re-roll the engine-labelled tests (test_engine, the engine fuzz lane, the
# threaded smoke tests) under TSan until-fail a few times. Reuses the tsan
# build from step 4 when present; builds it otherwise.
ENGINE_STRESS="${MCDC_CHECK_ENGINE_STRESS:-3}"
if [ "$ENGINE_STRESS" -le 0 ]; then
  record SKIP "engine TSan stress (MCDC_CHECK_ENGINE_STRESS=$ENGINE_STRESS)"
else
  echo "=== engine TSan stress (repeat until-fail:$ENGINE_STRESS) ==="
  if cmake --preset tsan > /dev/null \
      && cmake --build --preset tsan -j "$JOBS" > /dev/null \
      && ctest --preset tsan -L engine --repeat "until-fail:$ENGINE_STRESS" -j "$JOBS"; then
    record PASS "engine TSan stress (x$ENGINE_STRESS)"
  else
    record FAIL "engine TSan stress (x$ENGINE_STRESS)"
  fi
fi

# ---- 6. multi-producer TSan stress lane -----------------------------------
# The deterministic cross-producer merge is the most interleaving-sensitive
# code in the repo, so it gets its own lane on top of step 5: re-roll the
# many-producer gtest lanes (>= 8 barrier-started sessions) and an
# 8-producer `trace_tool serve --verify` under TSan.
MULTI_PRODUCER="${MCDC_CHECK_MULTI_PRODUCER:-3}"
if [ "$MULTI_PRODUCER" -le 0 ]; then
  record SKIP "multi-producer TSan stress (MCDC_CHECK_MULTI_PRODUCER=$MULTI_PRODUCER)"
else
  echo "=== multi-producer TSan stress (gtest_repeat=$MULTI_PRODUCER) ==="
  if cmake --preset tsan > /dev/null \
      && cmake --build --preset tsan -j "$JOBS" > /dev/null \
      && ./build-tsan/tests/test_engine \
           --gtest_filter='IngressSession.*' \
           --gtest_repeat="$MULTI_PRODUCER" --gtest_brief=1 \
      && MCDC_FUZZ_ITERS="${MCDC_FUZZ_ITERS:-200}" ./build-tsan/tests/fuzz_differential \
           --gtest_filter='FuzzDifferential.EngineMultiProducerBitIdenticalToSerial' \
           --gtest_brief=1 \
      && ./build-tsan/examples/trace_tool gen --out=build-tsan/mp_stress.csv \
           --kind=multi --requests=4000 --items=40 --servers=6 > /dev/null \
      && ./build-tsan/examples/trace_tool serve --in=build-tsan/mp_stress.csv \
           --engine --engine-config=shards=4,cap=64 \
           --producers=8 --verify > /dev/null; then
    record PASS "multi-producer TSan stress (>=8 producers, x$MULTI_PRODUCER)"
  else
    record FAIL "multi-producer TSan stress (>=8 producers, x$MULTI_PRODUCER)"
  fi
fi

# ---- 7. telemetry export gate ---------------------------------------------
# The pipeline-telemetry exporters are observability surface the tests can
# only golden-check in miniature; this gate runs the real CLI end to end
# (under TSan: the sampler thread + shard workers + producers all race) and
# validates the artifacts: the Chrome-trace document must be syntactically
# valid JSON with a traceEvents array (python3; SKIPped when absent) and
# the Prometheus dump must carry the per-shard stage-histogram series.
if [ "${MCDC_CHECK_TELEMETRY:-1}" = "0" ]; then
  record SKIP "telemetry export gate (MCDC_CHECK_TELEMETRY=0)"
else
  echo "=== telemetry export gate (trace_tool serve --telemetry-out) ==="
  TELE_OK=1
  cmake --preset tsan > /dev/null \
    && cmake --build --preset tsan -j "$JOBS" > /dev/null \
    && ./build-tsan/examples/trace_tool gen --out=build-tsan/tele_gate.csv \
         --kind=multi --requests=3000 --items=30 --servers=6 > /dev/null \
    && ./build-tsan/examples/trace_tool serve --in=build-tsan/tele_gate.csv \
         --engine --engine-config=shards=3,cap=64,sample_ms=1 \
         --producers=4 --telemetry-out=build-tsan/tele_gate.json \
         --prom-out=build-tsan/tele_gate.prom --verify > /dev/null \
    || TELE_OK=0
  if [ "$TELE_OK" = "1" ]; then
    if command -v python3 > /dev/null 2>&1; then
      python3 - build-tsan/tele_gate.json << 'PYEOF' || TELE_OK=0
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert isinstance(events, list) and events, "traceEvents empty"
phases = {e["ph"] for e in events}
assert "X" in phases, "no span events"
assert "C" in phases, "no counter events"
threads = {e["args"]["name"] for e in events if e.get("name") == "thread_name"}
assert any(t.startswith("shard") for t in threads), "no per-shard rows"
counters = {e["name"] for e in events if e["ph"] == "C"}
assert any(c.startswith("engine_shard") for c in counters), "no sampler tracks"
print(f"telemetry JSON ok: {len(events)} events, phases {sorted(phases)}")
PYEOF
    else
      echo "  (python3 absent: JSON validation skipped, grep only)"
      grep -q '"traceEvents"' build-tsan/tele_gate.json || TELE_OK=0
    fi
    grep -q '^engine_shard0_e2e_ns_bucket' build-tsan/tele_gate.prom \
      && grep -q '^engine_shard0_queue_wait_ns_count' build-tsan/tele_gate.prom \
      || TELE_OK=0
  fi
  if [ "$TELE_OK" = "1" ]; then
    record PASS "telemetry export gate (Chrome-trace JSON + Prometheus)"
  else
    record FAIL "telemetry export gate (Chrome-trace JSON + Prometheus)"
  fi
fi

# ---- 8. scenario bench gate -----------------------------------------------
# bench_scenarios hard-gates the adaptive-window claim (adaptive beats the
# static Δt on cost for the diurnal family and on SLO attainment for the
# flash family) and every run inside it asserts feasibility and exact cost
# reconciliation. Quick mode keeps the lane to well under a second; reuses
# the werror build from step 3.
if [ "${MCDC_CHECK_SCENARIOS:-1}" = "0" ]; then
  record SKIP "scenario bench gate (MCDC_CHECK_SCENARIOS=0)"
else
  echo "=== scenario bench gate (bench_scenarios --quick) ==="
  if cmake --preset werror > /dev/null \
      && cmake --build --preset werror -j "$JOBS" --target bench_scenarios > /dev/null \
      && ./build-werror/bench/bench_scenarios --quick \
           --out=build-werror/BENCH_scenarios.json; then
    record PASS "scenario bench gate (adaptive beats static; cost+SLO)"
  else
    record FAIL "scenario bench gate (adaptive beats static; cost+SLO)"
  fi
fi

# ---- 9. heterogeneous-cost gate -------------------------------------------
# The het serving path gets its own lane: the het-labelled ctest slice
# (test_model's metric/parse suites, test_baselines' facade dispatch, the
# fuzz het lanes cross-checking SC-het against the exact oracle and the
# het heuristic, and bench_het_frontier --quick). The frontier bench
# hard-fails unless every run is feasible, reconciles its booked cost
# against Schedule::cost exactly, never beats OPT, and the per-family
# empirical competitive ratios stay under their ceilings (near-homogeneous
# must stay under the paper's proven 3). Reuses the werror build.
if [ "${MCDC_CHECK_HET:-1}" = "0" ]; then
  record SKIP "heterogeneous-cost gate (MCDC_CHECK_HET=0)"
else
  echo "=== heterogeneous-cost gate (ctest -L het) ==="
  if cmake --preset werror > /dev/null \
      && cmake --build --preset werror -j "$JOBS" > /dev/null \
      && ctest --test-dir build-werror -L het --output-on-failure -j "$JOBS"; then
    record PASS "heterogeneous-cost gate (ctest -L het + frontier ceilings)"
  else
    record FAIL "heterogeneous-cost gate (ctest -L het + frontier ceilings)"
  fi
fi

# ---- 10. mcdc-lint --------------------------------------------------------
# The custom static-analysis pass: call-graph closures rooted at the
# src/util/annotate.h annotations (no-alloc, lock-free, stamp-blind,
# deterministic) plus the module include DAG and header self-sufficiency.
# --require-roots makes silently-deleted annotations a failure, not a
# vacuous pass. The summary line carries the per-rule violation counts.
if [ -n "${MCDC_CHECK_SKIP_LINT:-}" ]; then
  record SKIP "mcdc-lint (MCDC_CHECK_SKIP_LINT set)"
elif command -v python3 > /dev/null 2>&1; then
  echo "=== mcdc-lint (tools/lint/mcdc_lint.py) ==="
  mkdir -p build
  LINT_ARGS=(--require-roots --report build/lint_report.json)
  if [ -f build-werror/compile_commands.json ]; then
    LINT_ARGS+=(--compile-commands build-werror/compile_commands.json)
  fi
  if python3 tools/lint/mcdc_lint.py "${LINT_ARGS[@]}"; then
    LINT_STATUS=PASS
  else
    LINT_STATUS=FAIL
  fi
  LINT_COUNTS=$(python3 - build/lint_report.json << 'PYEOF' 2> /dev/null
import json, sys
rules = json.load(open(sys.argv[1]))["rules"]
print(", ".join(f"{k}={rules[k]}" for k in sorted(rules)))
PYEOF
)
  record "$LINT_STATUS" "mcdc-lint (${LINT_COUNTS:-report unreadable})"
else
  record SKIP "mcdc-lint (python3 not installed)"
fi

# ---- summary --------------------------------------------------------------
echo
echo "==== check.sh summary ===="
for r in "${RESULTS[@]}"; do echo "  $r"; done
exit "$FAILED"
