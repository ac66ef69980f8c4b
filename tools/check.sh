#!/usr/bin/env bash
# Full verification matrix (docs/ANALYSIS.md): build + tests, bench
# artifact regeneration + trend gate, the in-tree analyzer
# (wikimatch-lint), the static-analysis stages, negative compile checks
# proving the contracts actually fire, and the sanitizer matrix
# (ASan+UBSan full suite; TSan concurrency tests with the runtime
# lock-order deadlock detector compiled in).
#
# Clang-only stages (thread-safety build, clang-tidy, the thread-safety
# negative check) auto-detect the toolchain and SKIP with a note when it
# is absent — the tier-1 gate must pass on a GCC-only box. A PASS/SKIP/
# WARN/FAIL table prints at the end; any FAIL exits nonzero. The same
# table is written machine-readably to check_summary.json (CI asserts on
# it; override the path with WIKIMATCH_SUMMARY_JSON).
#
# Pass extra CMake flags as arguments, e.g.
#   tools/check.sh -DWIKIMATCH_WERROR=ON
# Toggles: WIKIMATCH_SKIP_TSAN=1, WIKIMATCH_SKIP_ASAN=1,
#          WIKIMATCH_SKIP_BENCH=1 (skips artifact regen + trend).
set -uo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"

STAGE_NAMES=()
STAGE_RESULTS=()
FAILED=0

record() { # name result
  STAGE_NAMES+=("$1")
  STAGE_RESULTS+=("$2")
  if [[ "$2" == FAIL ]]; then FAILED=1; fi
  echo "check.sh: stage '$1' -> $2" >&2
}

run_stage() { # name cmd...
  local name="$1"; shift
  echo "check.sh: ==== $name ====" >&2
  if "$@"; then record "$name" PASS; else record "$name" FAIL; fi
}

have_clang() { command -v clang++ >/dev/null 2>&1; }

# ---------------------------------------------------------------- build+test
stage_build() {
  cmake -B "$BUILD_DIR" -S . "$@" && cmake --build "$BUILD_DIR" -j
}
stage_tests() {
  (cd "$BUILD_DIR" && ctest --output-on-failure -j)
}
run_stage "build (gcc/default)" stage_build "$@"
run_stage "tests (ctest)" stage_tests

# ------------------------------------------------------------- join kernels
# The similarity join dispatches between a scalar reference kernel and the
# unrolled vector kernel at runtime (WIKIMATCH_JOIN_KERNEL). Force each and
# re-run the alignment equivalence suite so both code paths — not just the
# one this machine auto-selects — prove bit-identical results.
stage_join_kernels() {
  WIKIMATCH_JOIN_KERNEL=scalar "$BUILD_DIR"/tests/align_join_test &&
  WIKIMATCH_JOIN_KERNEL=vector "$BUILD_DIR"/tests/align_join_test
}
run_stage "join kernels forced (scalar+vector equivalence)" \
  stage_join_kernels

# -------------------------------------------------------------------- bench
# bench_align --smoke asserts the indexed join reproduces the naive path
# bit-for-bit; the artifact regen makes the committed JSON track the code
# (each bench self-checks equivalence and exits nonzero on divergence).
if [[ "${WIKIMATCH_SKIP_BENCH:-0}" != "1" ]]; then
  run_stage "bench smoke" "$BUILD_DIR"/bench/bench_align --smoke
  stage_bench_artifacts() {
    "$BUILD_DIR"/bench/bench_align > BENCH_align.json &&
    "$BUILD_DIR"/bench/bench_serve_throughput > BENCH_serve.json &&
    "$BUILD_DIR"/bench/bench_ingest > BENCH_ingest.json &&
    "$BUILD_DIR"/bench/bench_serve_net > BENCH_serve_net.json &&
    "$BUILD_DIR"/bench/bench_sync > BENCH_sync.json
  }
  run_stage "bench artifacts" stage_bench_artifacts
  # Warning-only: benches on shared hardware are noisy; CI can run
  # tools/bench_trend.py directly for a hard gate.
  echo "check.sh: ==== bench trend ====" >&2
  if tools/bench_trend.py; then
    record "bench trend (>15% regression warns)" PASS
  else
    record "bench trend (>15% regression warns)" WARN
  fi
else
  record "bench smoke" SKIP
  record "bench artifacts" SKIP
  record "bench trend (>15% regression warns)" SKIP
fi

# ----------------------------------------------------------------- analyzer
# The in-tree analyzer (src/analysis/, built above as tools/wikimatch-lint)
# replaces the old regex lint: token-level rules plus the layering DAG,
# include-cycle, and unordered-iteration checks. The tree must be clean —
# every deliberate exception carries a reasoned NOLINT.
run_stage "analyzer (wikimatch-lint)" "$BUILD_DIR"/tools/wikimatch-lint \
  --root .

# --------------------------------------------------------------- clang-tidy
if command -v clang-tidy >/dev/null 2>&1 && have_clang; then
  stage_tidy() {
    local tidy_dir="${TIDY_DIR:-build-tidy}"
    cmake -B "$tidy_dir" -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      -DWIKIMATCH_BUILD_BENCHMARKS=OFF -DWIKIMATCH_BUILD_EXAMPLES=OFF \
      >/dev/null &&
    find src -name '*.cc' -print0 |
      xargs -0 clang-tidy -p "$tidy_dir" --quiet
  }
  run_stage "clang-tidy" stage_tidy
else
  echo "check.sh: clang-tidy/clang++ not installed, skipping tidy stage" >&2
  record "clang-tidy" SKIP
fi

# --------------------------------------------- clang thread-safety analysis
if have_clang; then
  stage_tsa_build() {
    local tsa_dir="${TSA_DIR:-build-tsa}"
    cmake -B "$tsa_dir" -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DWIKIMATCH_THREAD_SAFETY=ON \
      -DWIKIMATCH_BUILD_BENCHMARKS=OFF -DWIKIMATCH_BUILD_EXAMPLES=OFF &&
    cmake --build "$tsa_dir" -j
  }
  run_stage "thread-safety build (-Werror=thread-safety)" stage_tsa_build
else
  echo "check.sh: clang++ not installed, skipping thread-safety build" >&2
  record "thread-safety build (-Werror=thread-safety)" SKIP
fi

# -------------------------------------------------- negative compile checks
# Prove the contracts fire: each "bad" snippet must FAIL to compile while
# its "good" twin succeeds (so a pass can't come from an unrelated error).
NEG_DIR="$(mktemp -d)"
trap 'rm -rf "$NEG_DIR"' EXIT

cat > "$NEG_DIR/discard_bad.cc" <<'EOF'
#include "util/status.h"
wikimatch::util::Status Make() {
  return wikimatch::util::Status::InvalidArgument("x");
}
int main() { Make(); }
EOF
cat > "$NEG_DIR/discard_good.cc" <<'EOF'
#include "util/status.h"
wikimatch::util::Status Make() {
  return wikimatch::util::Status::InvalidArgument("x");
}
int main() { (void)Make(); }
EOF
stage_neg_discard() {
  c++ -std=c++20 -I src -Werror=unused-result -fsyntax-only \
      "$NEG_DIR/discard_good.cc" || return 1
  if c++ -std=c++20 -I src -Werror=unused-result -fsyntax-only \
      "$NEG_DIR/discard_bad.cc" 2>/dev/null; then
    echo "check.sh: discarded Status compiled — [[nodiscard]] gate broken" >&2
    return 1
  fi
  return 0
}
run_stage "negative: discarded Status must not compile" stage_neg_discard

cat > "$NEG_DIR/tsa_bad.cc" <<'EOF'
#include "util/mutex.h"
#include "util/thread_annotations.h"
struct Counter {
  wikimatch::util::Mutex mu;
  int n WIKIMATCH_GUARDED_BY(mu) = 0;
  int Read() { return n; }  // no lock held: must not compile under TSA
};
int main() { return Counter{}.Read(); }
EOF
cat > "$NEG_DIR/tsa_good.cc" <<'EOF'
#include "util/mutex.h"
#include "util/thread_annotations.h"
struct Counter {
  wikimatch::util::Mutex mu;
  int n WIKIMATCH_GUARDED_BY(mu) = 0;
  int Read() {
    wikimatch::util::MutexLock lock(mu);
    return n;
  }
};
int main() { return Counter{}.Read(); }
EOF
if have_clang; then
  stage_neg_tsa() {
    clang++ -std=c++20 -I src -Wthread-safety -Werror=thread-safety \
        -fsyntax-only "$NEG_DIR/tsa_good.cc" || return 1
    if clang++ -std=c++20 -I src -Wthread-safety -Werror=thread-safety \
        -fsyntax-only "$NEG_DIR/tsa_bad.cc" 2>/dev/null; then
      echo "check.sh: unlocked GUARDED_BY access compiled — annotation" \
           "gate broken" >&2
      return 1
    fi
    return 0
  }
  run_stage "negative: unlocked GUARDED_BY must not compile" stage_neg_tsa
else
  echo "check.sh: clang++ not installed, skipping TSA negative check" >&2
  record "negative: unlocked GUARDED_BY must not compile" SKIP
fi

# --------------------------------------------------------------- ASan+UBSan
if [[ "${WIKIMATCH_SKIP_ASAN:-0}" != "1" ]]; then
  stage_asan() {
    local asan_dir="${ASAN_DIR:-build-asan}"
    cmake -B "$asan_dir" -S . -DWIKIMATCH_SANITIZE=address,undefined \
      -DWIKIMATCH_BUILD_BENCHMARKS=OFF -DWIKIMATCH_BUILD_EXAMPLES=OFF &&
    cmake --build "$asan_dir" -j &&
    (cd "$asan_dir" &&
     UBSAN_OPTIONS=halt_on_error=1 ctest --output-on-failure -j) &&
    # Both join kernels again, now instrumented: the vector kernel's
    # 4-wide unrolled tails and the CSR offset arithmetic are exactly the
    # code ASan/UBSan exist to vet.
    UBSAN_OPTIONS=halt_on_error=1 WIKIMATCH_JOIN_KERNEL=scalar \
      "$asan_dir"/tests/align_join_test &&
    UBSAN_OPTIONS=halt_on_error=1 WIKIMATCH_JOIN_KERNEL=vector \
      "$asan_dir"/tests/align_join_test
  }
  run_stage "ASan+UBSan full suite" stage_asan
else
  record "ASan+UBSan full suite" SKIP
fi

# --------------------------------------------------------------------- TSan
# Rebuild the thread-touching tests with -fsanitize=thread and run them
# directly (ctest's gtest discovery would flag every deliberately-unbuilt
# sibling target as <name>_NOT_BUILT).
if [[ "${WIKIMATCH_SKIP_TSAN:-0}" != "1" ]]; then
  if echo 'int main(){return 0;}' |
      c++ -fsanitize=thread -x c++ - -o /dev/null 2>/dev/null; then
    stage_tsan() {
      local tsan_dir="${TSAN_DIR:-build-tsan}"
      # WIKIMATCH_DEADLOCK_DEBUG arms the lock-order cycle detector inside
      # every util::Mutex for this whole stage: any inverted acquisition
      # order in the concurrency tests aborts with both stacks, and
      # deadlock_test's death test proves the abort path end to end.
      cmake -B "$tsan_dir" -S . -DWIKIMATCH_SANITIZE=thread \
        -DWIKIMATCH_DEADLOCK_DEBUG=ON \
        -DWIKIMATCH_BUILD_BENCHMARKS=OFF -DWIKIMATCH_BUILD_EXAMPLES=OFF &&
      cmake --build "$tsan_dir" -j --target thread_pool_test parallel_test \
        align_join_test serve_test lru_cache_test net_server_test \
        protocol_robustness_test ingest_test sync_test deadlock_test \
        robustness_test &&
      "$tsan_dir"/tests/deadlock_test &&
      # thread_pool_test stresses the shared work-stealing pool itself:
      # nested For, async steal-on-wait, handle reuse after pool death,
      # and the multi-level pipeline run on an injected pool.
      "$tsan_dir"/tests/thread_pool_test &&
      "$tsan_dir"/tests/parallel_test &&
      "$tsan_dir"/tests/align_join_test &&
      # serve_test includes the concurrent-reload stress (queries racing a
      # generation swap); lru_cache_test races inserts against a
      # generation-key bump across cache shards.
      "$tsan_dir"/tests/serve_test &&
      "$tsan_dir"/tests/lru_cache_test &&
      # net_server_test drives the epoll TCP server end to end, including
      # the reload-under-live-traffic stress (the multi-threaded event
      # loops racing a generation swap with zero dropped/mixed responses).
      "$tsan_dir"/tests/net_server_test &&
      "$tsan_dir"/tests/protocol_robustness_test &&
      # ingest_test covers destroying a matcher while its pool-queued
      # reclaim task is still in flight (destructor steal path).
      "$tsan_dir"/tests/ingest_test &&
      # sync_test classifies article pairs on the shared pool at several
      # thread counts (byte-identity across counts) and runs Resync
      # concurrently with full Run results.
      "$tsan_dir"/tests/sync_test &&
      # Dump ingest parses a dump's pages on the shared pool at 1 and 4
      # threads (byte-identical corpus either way).
      "$tsan_dir"/tests/robustness_test --gtest_filter='DumpIngestTest.*'
    }
    run_stage "TSan concurrency tests" stage_tsan
  else
    echo "check.sh: compiler lacks -fsanitize=thread, skipping TSan" >&2
    record "TSan concurrency tests" SKIP
  fi
else
  record "TSan concurrency tests" SKIP
fi

# ------------------------------------------------------------------ summary
echo
echo "check.sh summary:"
for i in "${!STAGE_NAMES[@]}"; do
  printf '  %-50s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}"
done

# Machine-readable twin of the table above, for CI assertions
# (.github/workflows/ci.yml jq-checks that clang stages ran as PASS).
SUMMARY_JSON="${WIKIMATCH_SUMMARY_JSON:-check_summary.json}"
json_escape() { local s=$1; s=${s//\\/\\\\}; s=${s//\"/\\\"}; printf '%s' "$s"; }
{
  echo '{'
  echo '  "stages": ['
  last=$((${#STAGE_NAMES[@]} - 1))
  for i in "${!STAGE_NAMES[@]}"; do
    sep=','
    if [[ "$i" == "$last" ]]; then sep=''; fi
    printf '    {"name": "%s", "result": "%s"}%s\n' \
      "$(json_escape "${STAGE_NAMES[$i]}")" "${STAGE_RESULTS[$i]}" "$sep"
  done
  echo '  ],'
  if [[ "$FAILED" == 1 ]]; then echo '  "ok": false'; else echo '  "ok": true'; fi
  echo '}'
} > "$SUMMARY_JSON"
echo "check.sh: wrote $SUMMARY_JSON"

if [[ "$FAILED" == 1 ]]; then
  echo "check.sh: FAILED" >&2
  exit 1
fi
echo "check.sh: OK"
