#!/usr/bin/env bash
# Full verification pipeline, exactly as CI runs it:
#
#   1. tier-1: release configure + build + ctest (the gate every change
#      must pass);
#   2. sanitized: the same suite under ASan + UBSan, catching the memory
#      and UB bugs a release run hides;
#   3. tsan: the concurrency smoke suite (thread pool, sharded metrics,
#      parallel separation) under ThreadSanitizer — TSan is incompatible
#      with ASan, so it gets its own build tree and only runs the tests
#      that exercise real multi-threading;
#   4. docs: Doxygen with WARN_AS_ERROR (skipped when doxygen is absent);
#   5. fault smoke: the stock DFL workload with every registered fault
#      point forced (release build) — a recoverable fault must exit 0
#      with a byte-identical tree, an unrecoverable one must exit with
#      the typed internal-error code; the corrupt-input corpus is fed to
#      the ASan mrlc_solve expecting the parse/validation exit code;
#   5b. engine parity gate: stock instances solved with --engine sparse
#      and --engine dense must print byte-identical trees, and an
#      --lp-crosscheck run (dense shadow oracle) must pass;
#   5c. variant parity gate: `mrlc_solve ira` and `mrlc_solve ira
#      --variant mrlc` must print byte-identical trees (the problem-variant
#      interface may not perturb the historical solver); with an unlimited
#      `--budget`, both must also exit 0 with the same tree (the anytime
#      layer runs mrlc through the shared variant route); and the
#      brute-force optimality suite must pass for every variant;
#   5d. perfbench golden gate: the repository benchmark (perfbench/,
#      a standalone Release build under .bench_build/perfbench) must
#      pass its checker tests, and a 2-second run of each workload must
#      exit 0 with `"failed": 0` on its result line — every IRA tree
#      matches perfbench/golden/ira_n128.txt and every data-plane run
#      its golden field and counter digests;
#   6. service smoke: a real mrlc_serve daemon on a Unix socket, driven
#      with mrlc_client (release build) — trees must be byte-identical to
#      the one-shot solver, an injected worker crash and a corrupt payload
#      must come back as *typed* replies with the daemon still serving,
#      and SIGTERM must drain cleanly (exit 0, final metrics flushed);
#   7. bench: mrlc_bench sweep, compared against the committed
#      BENCH_solver.json baseline.  Timing deltas are a *report*, not a
#      gate — shared CI machines are too noisy to fail on wall clock.
#      Two hard gates ride on the same run: no stock workload may record
#      a simplex.cold_fallbacks event, and every workload's `counters`
#      block must equal the committed baseline's exactly (same workloads,
#      same keys, same values).  The counters are seeded and
#      thread-count independent, so any drift is an algorithmic change;
#      a change that moves them on purpose regenerates BENCH_solver.json
#      (`mrlc_bench --repeats 3 --out BENCH_solver.json`) and says why.
#
# Usage: scripts/ci.sh [--release-only|--asan-only|--tsan-only]
# Runs from any directory; build trees live in build-release/, build-asan/,
# build-tsan/ and .bench_build/perfbench/ next to the sources (all
# gitignored).
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_release=1
run_asan=1
run_tsan=1
case "${1:-}" in
  --release-only) run_asan=0; run_tsan=0 ;;
  --asan-only) run_release=0; run_tsan=0 ;;
  --tsan-only) run_release=0; run_asan=0 ;;
  "") ;;
  *)
    echo "usage: $0 [--release-only|--asan-only|--tsan-only]" >&2
    exit 2
    ;;
esac

# The concurrency-heavy binaries; everything else is single-threaded and
# already covered by the release + ASan full suites.
tsan_smoke_targets=(test_parallel test_metrics test_separation test_stress test_des)

run_tsan_suite() {
  (
    cd "$repo"
    echo "=== [tsan] configure ==="
    cmake --preset tsan
    echo "=== [tsan] build (smoke targets) ==="
    cmake --build --preset tsan -j "$jobs" \
      $(printf -- '--target %s ' "${tsan_smoke_targets[@]}")
    echo "=== [tsan] run concurrency smoke suite ==="
    for t in "${tsan_smoke_targets[@]}"; do
      echo "--- $t ---"
      TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
        "$repo/build-tsan/tests/$t"
    done
  )
}

run_suite() {
  local preset="$1"
  (
    cd "$repo"
    echo "=== [$preset] configure ==="
    cmake --preset "$preset"
    echo "=== [$preset] build ==="
    cmake --build --preset "$preset" -j "$jobs"
    echo "=== [$preset] test ==="
    ctest --preset "$preset"
  )
}

# Fault-injection smoke: every registered fault point forced over the
# stock 16-node DFL workload.  The contract (docs/algorithms.md §14):
# a recoverable fault exits 0 with a tree byte-identical to the clean
# run; the unrecoverable one exits with the typed internal-error code.
# A differing tree with exit 0 is the one outcome that must never ship.
fault_smoke() {
  local bindir="$1" label="$2"
  local gen="$bindir/tools/mrlc_gen" solve="$bindir/tools/mrlc_solve"
  echo "=== [$label] fault-injection smoke ==="
  local net="$bindir/fault_smoke.net" clean="$bindir/fault_smoke_clean.txt"
  "$gen" dfl --nodes 16 --seed 7 > "$net"
  "$solve" ira --lifetime 100 < "$net" > "$clean"
  local f out rc
  for f in lp.force_cold lp.drop_basis cutpool.corrupt separation.flow_fail; do
    out="$bindir/fault_smoke_${f//./_}.txt"
    if ! MRLC_FAULTS="$f" "$solve" ira --lifetime 100 < "$net" > "$out"; then
      echo "ci: fault $f: expected a recovered exit-0 run" >&2
      exit 1
    fi
    if ! cmp -s "$clean" "$out"; then
      echo "ci: fault $f: recovered run returned a different tree" >&2
      exit 1
    fi
  done
  set +e
  MRLC_FAULTS=parallel.task_fail "$solve" ira --lifetime 100 < "$net" \
    > /dev/null 2>&1
  rc=$?
  set -e
  if [[ $rc -ne 5 ]]; then
    echo "ci: parallel.task_fail: expected the internal-error exit 5, got $rc" >&2
    exit 1
  fi
  echo "ci[$label]: every forced fault recovered identically or exited typed"
}

# LP engine parity gate: on stock instances the sparse revised simplex
# (the default engine) and the retained dense tableau must produce
# byte-identical trees, and a --lp-crosscheck run — the dense shadow
# oracle auditing every solve and resolve in-process — must pass end to
# end.  Objective parity is implied: the printed cost is part of the
# compared bytes.
engine_parity_smoke() {
  local bindir="$1" label="$2"
  local gen="$bindir/tools/mrlc_gen" solve="$bindir/tools/mrlc_solve"
  echo "=== [$label] LP engine parity gate ==="
  local dir="$bindir/engine_parity"
  rm -rf "$dir"
  mkdir -p "$dir"
  "$gen" dfl --seed 7 > "$dir/dfl.net"
  "$gen" random --nodes 24 --seed 11 --p 0.4 > "$dir/rand.net"
  local net
  for net in dfl rand; do
    "$solve" ira --lifetime 100 --engine sparse < "$dir/$net.net" \
      > "$dir/${net}_sparse.txt"
    "$solve" ira --lifetime 100 --engine dense < "$dir/$net.net" \
      > "$dir/${net}_dense.txt"
    if ! cmp -s "$dir/${net}_sparse.txt" "$dir/${net}_dense.txt"; then
      echo "ci: engine parity: sparse and dense trees differ on $net" >&2
      exit 1
    fi
    if ! "$solve" ira --lifetime 100 --lp-crosscheck < "$dir/$net.net" \
        > /dev/null; then
      echo "ci: engine parity: --lp-crosscheck audit failed on $net" >&2
      exit 1
    fi
  done
  echo "ci[$label]: sparse/dense trees byte-identical, cross-check audit clean"
}

# Variant parity gate: routing the historical MRLC solver through the
# problem-variant interface must be invisible — `ira` and `ira --variant
# mrlc` print byte-identical stdout on stock instances (strict and direct
# bound modes both).  The anytime pair checks the same for the budgeted
# route: with a budget that never runs out, `ira --budget` and `ira
# --variant mrlc --budget` both go through the anytime layer's single
# body and must exit 0 with the direct solve's stdout.  The brute-force
# sweep then re-proves each variant optimal for its own objective against
# spanning-tree enumeration.
variant_parity_smoke() {
  local bindir="$1" label="$2"
  local gen="$bindir/tools/mrlc_gen" solve="$bindir/tools/mrlc_solve"
  echo "=== [$label] variant parity gate ==="
  local dir="$bindir/variant_parity"
  rm -rf "$dir"
  mkdir -p "$dir"
  "$gen" dfl --seed 7 > "$dir/dfl.net"
  "$gen" random --nodes 24 --seed 11 --p 0.4 > "$dir/rand.net"
  local net extra
  for net in dfl rand; do
    for extra in "" "--strict"; do
      "$solve" ira --lifetime 100 $extra < "$dir/$net.net" \
        > "$dir/${net}_legacy.txt"
      "$solve" ira --variant mrlc --lifetime 100 $extra < "$dir/$net.net" \
        > "$dir/${net}_routed.txt"
      if ! cmp -s "$dir/${net}_legacy.txt" "$dir/${net}_routed.txt"; then
        echo "ci: variant parity: --variant mrlc differs on $net ${extra:-(direct)}" >&2
        exit 1
      fi
    done
    "$solve" ira --lifetime 100 < "$dir/$net.net" > "$dir/${net}_direct.txt"
    for extra in "" "--variant mrlc"; do
      if ! "$solve" ira $extra --lifetime 100 --budget 1000000000 \
          < "$dir/$net.net" > "$dir/${net}_anytime.txt"; then
        echo "ci: variant parity: anytime ${extra:-ira} did not exit 0 on $net" >&2
        exit 1
      fi
      if ! cmp -s "$dir/${net}_direct.txt" "$dir/${net}_anytime.txt"; then
        echo "ci: variant parity: anytime ${extra:-ira} differs from the direct solve on $net" >&2
        exit 1
      fi
    done
  done
  if ! "$bindir/tests/test_variant" \
      --gtest_filter='*BruteForce*' > "$dir/bruteforce.log" 2>&1; then
    cat "$dir/bruteforce.log" >&2
    echo "ci: variant parity: brute-force optimality suite failed" >&2
    exit 1
  fi
  echo "ci[$label]: --variant mrlc and the anytime pair byte-identical, brute-force optimality clean"
}

# Benchmark golden gate: short seeded runs of every perfbench workload.
# The benchmark checks its own outputs (spanning trees, lifetime rows,
# costs against the golden IRA trees, data-plane result and counter
# digests against the golden file) and reports the misses as "failed"
# on the last stdout line while still exiting 0, so the count is parsed.
perfbench_gate() {
  echo "=== perfbench golden gate ==="
  local w line
  for w in ira_n128 dataplane_grid_n100k service_mix; do
    if ! line="$(cd "$repo" && python3 perfbench/run.py --workload "$w" \
        --seed 0 --seconds 2 --trace 0 | tail -n 1)"; then
      echo "ci: perfbench $w exited non-zero" >&2
      exit 1
    fi
    if ! python3 -c 'import json, sys; sys.exit(json.loads(sys.argv[1])["failed"] != 0)' \
        "$line"; then
      echo "ci: perfbench $w: output checks failed: $line" >&2
      exit 1
    fi
  done
  cmake --build "$repo/.bench_build/perfbench" --target perfbench_checks_test \
    -j "$jobs"
  ctest --test-dir "$repo/.bench_build/perfbench" --output-on-failure
  echo "ci: perfbench checker tests pass, every workload reports failed = 0"
}

# Service smoke: one daemon, one socket, the whole robustness contract.
# The service must answer with the *same bytes* as the one-shot anytime
# solver (`mrlc_solve ira --budget <huge>` — the direct-bound path the
# service runs), turn an injected worker crash and a corrupt payload into
# typed replies without dying, serve a repeated topology from the warm
# cache byte-identically, and drain on SIGTERM with exit 0 and a final
# metrics flush.
service_smoke() {
  local bindir="$1" label="$2"
  local gen="$bindir/tools/mrlc_gen" solve="$bindir/tools/mrlc_solve"
  local serve="$bindir/tools/mrlc_serve" client="$bindir/tools/mrlc_client"
  echo "=== [$label] solver-service smoke ==="
  local dir="$bindir/service_smoke"
  rm -rf "$dir"
  mkdir -p "$dir"
  local sock="$dir/mrlc.sock"

  "$gen" dfl --nodes 16 --seed 7 > "$dir/a.net"
  "$gen" random --nodes 14 --seed 11 > "$dir/b.net"
  # One-shot reference: the service always solves through the anytime
  # layer (direct bound), so the parity target is `ira` with a budget.
  "$solve" ira --lifetime 100 --budget 1000000000 < "$dir/a.net" \
    > "$dir/oneshot.tree"

  # Fault arrival 2 is the second solved request: request 1 below is the
  # parity check, request 2 the designated crash victim.
  "$serve" --socket "$sock" --no-timings --inject service.worker_crash:2 \
    --metrics-json "$dir/metrics.json" > "$dir/serve.log" 2>&1 &
  local serve_pid=$!
  local i
  for i in $(seq 1 100); do
    [[ -S "$sock" ]] && break
    sleep 0.1
  done
  if [[ ! -S "$sock" ]]; then
    echo "ci: mrlc_serve never bound $sock" >&2
    exit 1
  fi

  # 1. Byte parity with the one-shot solver.
  "$client" --socket "$sock" --lifetime 100 --budget 1000000000 \
    < "$dir/a.net" > "$dir/service.tree" 2> "$dir/client_parity.err"
  if ! cmp -s "$dir/oneshot.tree" "$dir/service.tree"; then
    echo "ci: service tree differs from one-shot mrlc_solve" >&2
    exit 1
  fi

  # 2. Injected worker crash -> typed `cancelled` reply (client exit 7),
  #    daemon keeps serving.
  local rc
  set +e
  "$client" --socket "$sock" --lifetime 100 --budget 1000000000 \
    < "$dir/b.net" > /dev/null 2> "$dir/client_crash.err"
  rc=$?
  set -e
  if [[ $rc -ne 7 ]]; then
    echo "ci: injected worker crash: expected the typed-cancelled exit 7, got $rc" >&2
    exit 1
  fi

  # 3. Corrupt payload -> typed `invalid_request` reply (client exit 4),
  #    daemon keeps serving.
  local corrupt
  corrupt="$(ls "$repo"/tests/data/corrupt/*.net | head -1)"
  set +e
  "$client" --socket "$sock" --lifetime 100 < "$corrupt" \
    > /dev/null 2> "$dir/client_corrupt.err"
  rc=$?
  set -e
  if [[ $rc -ne 4 ]]; then
    echo "ci: corrupt payload: expected the typed-invalid exit 4, got $rc" >&2
    exit 1
  fi
  if ! kill -0 "$serve_pid" 2>/dev/null; then
    echo "ci: mrlc_serve died on a malformed request" >&2
    exit 1
  fi

  # 4. Repeat of request 1 -> served from the warm result cache, still
  #    byte-identical.
  "$client" --socket "$sock" --lifetime 100 --budget 1000000000 \
    < "$dir/a.net" > "$dir/service_repeat.tree" 2> "$dir/client_repeat.err"
  if ! cmp -s "$dir/oneshot.tree" "$dir/service_repeat.tree"; then
    echo "ci: cached service reply differs from the first solve" >&2
    exit 1
  fi

  # 5. SIGTERM -> drain, exit 0, final metrics flushed.
  kill -TERM "$serve_pid"
  set +e
  wait "$serve_pid"
  rc=$?
  set -e
  if [[ $rc -ne 0 ]]; then
    echo "ci: mrlc_serve SIGTERM drain: expected exit 0, got $rc" >&2
    exit 1
  fi
  if ! grep -q "mrlc_serve: drained" "$dir/serve.log"; then
    echo "ci: mrlc_serve never reported a completed drain" >&2
    exit 1
  fi
  if ! grep -q '"service.completed"' "$dir/metrics.json"; then
    echo "ci: mrlc_serve drain did not flush the final metrics" >&2
    exit 1
  fi
  echo "ci[$label]: service parity, typed faults, warm cache, and drain all clean"
}

# The malformed-input corpus through the sanitized parser: each file must
# die with the documented parse/validation exit code — no crash, no tree,
# and (under ASan) no silent memory error on the way out.
corrupt_corpus() {
  local solve="$1" label="$2"
  echo "=== [$label] corrupt-input corpus ==="
  local f rc
  for f in "$repo"/tests/data/corrupt/*.net; do
    set +e
    "$solve" mst < "$f" > /dev/null 2>&1
    rc=$?
    set -e
    if [[ $rc -ne 4 ]]; then
      echo "ci: $(basename "$f"): expected the parse/validation exit 4, got $rc" >&2
      exit 1
    fi
  done
  echo "ci[$label]: every corrupt input rejected with exit 4"
}

[[ $run_release -eq 1 ]] && run_suite release
[[ $run_asan -eq 1 ]] && run_suite asan
[[ $run_tsan -eq 1 ]] && run_tsan_suite

[[ $run_release -eq 1 ]] && fault_smoke "$repo/build-release" release
[[ $run_release -eq 1 ]] && engine_parity_smoke "$repo/build-release" release
[[ $run_release -eq 1 ]] && variant_parity_smoke "$repo/build-release" release
[[ $run_release -eq 1 ]] && perfbench_gate
[[ $run_release -eq 1 ]] && service_smoke "$repo/build-release" release
[[ $run_asan -eq 1 ]] && corrupt_corpus "$repo/build-asan/tools/mrlc_solve" asan

echo "=== docs ==="
bash "$repo/scripts/docs.sh"

if [[ $run_release -eq 1 ]]; then
  echo "=== bench (non-fatal report) ==="
  bench_bin="$repo/build-release/tools/mrlc_bench"
  if [[ -x "$bench_bin" && -f "$repo/BENCH_solver.json" ]]; then
    "$bench_bin" --repeats 3 --out "$repo/build-release/BENCH_solver.json"
    python3 "$repo/scripts/bench_compare.py" \
      "$repo/BENCH_solver.json" "$repo/build-release/BENCH_solver.json" \
      || echo "bench: regressions reported above (informational only)"
    # Hard gate (unlike the timing report): the warm-started LP must never
    # abandon its basis on a stock workload.  A nonzero fallback count
    # means a numerical-robustness regression even though results stay
    # correct via the cold path.
    echo "=== bench: warm-start fallback gate ==="
    python3 - "$repo/build-release/BENCH_solver.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1], encoding="utf-8"))
bad = [(w["name"], w["metrics"]["counters"].get("simplex.cold_fallbacks", 0))
       for w in doc.get("workloads", [])
       if w["metrics"]["counters"].get("simplex.cold_fallbacks", 0)]
if bad:
    sys.exit(f"ci: simplex.cold_fallbacks nonzero on stock workloads: {bad}")
print("ci: simplex.cold_fallbacks == 0 on every stock workload")
PY
    echo "=== bench: counter gate ==="
    python3 - "$repo/BENCH_solver.json" "$repo/build-release/BENCH_solver.json" <<'PY'
import json, sys
def counters(path):
    doc = json.load(open(path, encoding="utf-8"))
    return {w["name"]: w["metrics"]["counters"] for w in doc.get("workloads", [])}
base, fresh = counters(sys.argv[1]), counters(sys.argv[2])
bad = []
for name in sorted(set(base) | set(fresh)):
    if name not in fresh or name not in base:
        bad.append(f"{name}: only in {'baseline' if name in base else 'fresh run'}")
        continue
    for key in sorted(set(base[name]) | set(fresh[name])):
        if base[name].get(key) != fresh[name].get(key):
            bad.append(f"{name} {key}: baseline {base[name].get(key)} "
                       f"-> fresh {fresh[name].get(key)}")
if bad:
    sys.exit("ci: bench counters differ from BENCH_solver.json:\n  " +
             "\n  ".join(bad))
print(f"ci: counters of all {len(base)} workloads match BENCH_solver.json")
PY
  else
    echo "bench: skipped (no bench binary or no committed baseline)"
  fi
fi

echo "=== ci.sh: all requested suites passed ==="
