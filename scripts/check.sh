#!/usr/bin/env bash
# Full verification sweep: build and run the test suite across the
# sanitizer matrix —
#   1. plain Release (the tier-1 configuration),
#   2. AddressSanitizer + UBSan (memory/UB bugs), and
#   3. ThreadSanitizer (data races, lock-order inversions).
# The ASan pass also re-runs the checkpoint durability suite explicitly
# (v1 read-compat, truncation and bit-flip sweeps), so storage corruption
# handling is always exercised under ASan/UBSan even if the main sweep is
# filtered down. The TSan pass re-runs the concurrency stress suites
# (ctest -L race, -L chaos) explicitly: those tests exist to generate racy
# schedules for TSan to observe, so "zero TSan reports" is what the pass
# proves.
# Usage:
#   scripts/check.sh            # full matrix: plain + asan/ubsan + tsan
#   scripts/check.sh --plain    # tier-1 only
#   scripts/check.sh --sanitize # asan/ubsan leg only
#   scripts/check.sh --tsan     # tsan leg only (full suite + race/chaos)
#   scripts/check.sh --chaos    # fault-injection + serving chaos suites
#   scripts/check.sh --overload # overload/brownout suite (plain + TSan)
#   scripts/check.sh --kernel   # batched-scoring suite (plain + TSan)
#   scripts/check.sh --store    # snapshot-store durability suite (plain + ASan)
#   scripts/check.sh --fuzz     # ingestion corruption-fuzz sweep (sanitized)
#   scripts/check.sh --docs     # docs link check + bench artifact schemas
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)

run_plain=1
run_sanitized=1
run_tsan=1
run_chaos=0
run_overload=0
run_kernel=0
run_store=0
run_fuzz=0
run_docs=0
case "${1:-}" in
  --plain)    run_sanitized=0; run_tsan=0; run_docs=1 ;;
  --sanitize) run_plain=0; run_tsan=0 ;;
  --tsan)     run_plain=0; run_sanitized=0 ;;
  --chaos)    run_plain=0; run_sanitized=0; run_tsan=0; run_chaos=1 ;;
  --overload) run_plain=0; run_sanitized=0; run_tsan=0; run_overload=1 ;;
  --kernel)   run_plain=0; run_sanitized=0; run_tsan=0; run_kernel=1 ;;
  --store)    run_plain=0; run_sanitized=0; run_tsan=0; run_store=1 ;;
  --fuzz)     run_plain=0; run_sanitized=0; run_tsan=0; run_fuzz=1 ;;
  --docs)     run_plain=0; run_sanitized=0; run_tsan=0; run_docs=1 ;;
  "") run_docs=1 ;;
  *) echo "usage: $0 [--plain|--sanitize|--tsan|--chaos|--overload|--kernel|--fuzz|--docs|--store]" >&2
     exit 2 ;;
esac

check_docs() {
  # Every repo path a doc mentions must exist: docs that point at files
  # which were renamed away are worse than no docs. Extract tokens that
  # look like repo paths (src/..., tests/..., bench/..., examples/...,
  # scripts/..., docs/..., perfbench/...), expand foo.{h,cc} shorthand,
  # skip anything under build*/ and glob patterns, and fail on the first
  # dangling path.
  echo "=== docs check: repo paths referenced by docs must exist ==="
  local docs=(README.md DESIGN.md ROADMAP.md EXPERIMENTS.md)
  local extra
  for extra in docs/*.md; do
    [[ -f "$extra" ]] && docs+=("$extra")
  done
  local status=0 doc path expanded
  for doc in "${docs[@]}"; do
    [[ -f "$doc" ]] || { echo "missing doc: $doc" >&2; status=1; continue; }
    while IFS= read -r path; do
      [[ "$path" == *'*'* ]] && continue  # glob example, not a real path
      if [[ "$path" == *'{'* ]]; then
        # Expand brace shorthand like src/obs/metrics.{h,cc}.
        for expanded in $(eval echo "$path"); do
          if [[ ! -e "$expanded" ]]; then
            echo "DANGLING: $doc references $expanded" >&2
            status=1
          fi
        done
      elif [[ ! -e "$path" && ! -e "$path.cc" ]]; then
        # `$path.cc` accepts target shorthand: docs may name a built
        # binary (`bench/fig5_intents`) whose source is `<path>.cc`.
        echo "DANGLING: $doc references $path" >&2
        status=1
      fi
    done < <(grep -oE '(^|[^A-Za-z0-9_/.-])(src|tests|bench|examples|scripts|docs|perfbench)/[A-Za-z0-9_./{,}*-]+' "$doc" \
             | sed 's/^[^a-z]//; s/[.,;:)]*$//' | sort -u)
  done
  if [[ "$status" != 0 ]]; then
    echo "docs check FAILED: fix the dangling references above." >&2
    exit 1
  fi
  echo "docs check passed."
}

check_bench_serving() {
  # The serving-bench artifact (bench/load_gen output) is committed; its
  # schema, per-point accounting identity, no-metastable-collapse and
  # coalescing-contrast criteria must keep holding for the numbers the
  # docs cite.
  echo "=== BENCH_serving.json schema + acceptance check ==="
  if [[ -f BENCH_serving.json ]]; then
    python3 scripts/validate_bench_serving.py BENCH_serving.json
  else
    echo "BENCH_serving.json missing: run build/bench/load_gen" >&2
    exit 1
  fi
}

check_bench_eval() {
  # Same contract for the offline-eval artifact (bench/eval_throughput
  # output): schema, universal bit-identity across the batch x thread
  # sweep, and the batched-kernel / parallel speedups the docs cite.
  echo "=== BENCH_eval.json schema + acceptance check ==="
  if [[ -f BENCH_eval.json ]]; then
    python3 scripts/validate_bench_eval.py BENCH_eval.json
  else
    echo "BENCH_eval.json missing: run build/bench/eval_throughput" >&2
    exit 1
  fi
}

if [[ "$run_docs" == 1 ]]; then
  check_docs
  check_bench_serving
  check_bench_eval
fi

if [[ "$run_plain" == 1 ]]; then
  echo "=== plain build (tier-1) ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs"
  # Random order, three passes: tests run as concurrent processes, so a
  # shared scratch path or a future stranded by a racy schedule is far
  # more likely to fail here than to slip through on one lucky ordering.
  (cd build && ctest --output-on-failure -j "$jobs" --schedule-random \
      --repeat until-fail:3)
fi

if [[ "$run_sanitized" == 1 ]]; then
  echo "=== sanitized build (address;undefined) ==="
  cmake -B build-asan -S . -DIMCAT_SANITIZE="address;undefined" >/dev/null
  cmake --build build-asan -j "$jobs"
  (cd build-asan && ctest --output-on-failure -j "$jobs")
  echo "=== sanitized checkpoint durability sweep ==="
  (cd build-asan && ctest --output-on-failure -R 'CheckpointTest')
  echo "=== sanitized per-shard corruption sweep (ctest -L shard_fault) ==="
  # The sharded-snapshot fault suite (per-shard bit flips, truncation,
  # injected read faults, quarantined serving) must stay ASan/UBSan-clean:
  # corrupt shards exercise exactly the buffer-boundary paths ASan guards.
  (cd build-asan && ctest -L shard_fault --output-on-failure --timeout 300)
  echo "=== sanitized delta-publish fault sweep (ctest -L delta_fault) ==="
  # Same reasoning for the delta-snapshot chaos suite: corrupt/truncated
  # delta files and mid-chain rejections walk the delta reader's boundary
  # checks, which is ASan/UBSan's home turf.
  (cd build-asan && ctest -L delta_fault --output-on-failure --timeout 300)
  echo "=== sanitized snapshot-store durability sweep (ctest -L store_fault) ==="
  # The snapshot-store suite includes the kill-at-every-step crash-point
  # sweep over publish -> manifest -> GC: every interleaving replays the
  # recovery scan over partially-deleted directories, exactly the
  # filename/manifest parsing paths ASan/UBSan should watch.
  (cd build-asan && ctest -L store_fault --output-on-failure --timeout 300)
  echo "=== sanitized batched-scoring sweep (ctest -L kernel) ==="
  # The batched kernel and the coalescing drain juggle raw row pointers,
  # stride arithmetic and shared queues; the batch-identity sweep and the
  # batched accounting chaos test must stay ASan/UBSan-clean.
  (cd build-asan && ctest -L kernel --output-on-failure --timeout 300)
fi

if [[ "$run_tsan" == 1 ]]; then
  # ThreadSanitizer slows execution ~5-15x; the per-test TIMEOUT
  # properties in tests/CMakeLists.txt are sized for this. halt_on_error
  # makes the first race fail the test immediately instead of letting a
  # corrupted schedule mask later reports.
  echo "=== thread-sanitized build (thread) ==="
  cmake -B build-tsan -S . -DIMCAT_SANITIZE="thread" >/dev/null
  cmake --build build-tsan -j "$jobs"
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
      ctest --output-on-failure -j "$jobs")
  echo "=== concurrency stress suites under TSan (ctest -L 'race|chaos') ==="
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
      ctest -L 'race|chaos' --output-on-failure)
fi

if [[ "$run_chaos" == 1 ]]; then
  # Chaos suites drive the FaultInjector under concurrency; run them
  # label-selected with a hard per-test timeout so a hang (a lost wakeup,
  # a stuck future) fails loudly instead of wedging CI.
  echo "=== chaos suites (ctest -L 'chaos|shard_fault|delta_fault|store_fault') ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs"
  (cd build && ctest -L 'chaos|shard_fault|delta_fault|store_fault' \
      --output-on-failure --repeat until-pass:1 --timeout 120)
fi

if [[ "$run_overload" == 1 ]]; then
  # The overload/brownout suite proves the admission-control invariants
  # (CoDel declare/clear, ladder determinism across thread counts, the
  # 10-outcome accounting identity under overload chaos) twice: once on
  # the plain build for exact behaviour, once under TSan because every
  # invariant is enforced across racing client/worker/publisher threads.
  echo "=== overload suite, plain build (ctest -L overload) ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs"
  (cd build && ctest -L overload --output-on-failure --timeout 240)
  echo "=== overload suite under TSan (ctest -L overload) ==="
  cmake -B build-tsan -S . -DIMCAT_SANITIZE="thread" >/dev/null
  cmake --build build-tsan -j "$jobs"
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
      ctest -L overload --output-on-failure --timeout 240)
fi

if [[ "$run_kernel" == 1 ]]; then
  # The batched-scoring suite proves the two batching contracts twice:
  # plain for exact bit-identity (kernel vs scalar loop, TopKBatch vs
  # scalar TopK, batched Evaluate vs per-user), then under TSan because
  # request coalescing moves queue ownership across submitter, drain
  # tickets and cancel callbacks — exactly where a lost wakeup or a torn
  # dequeue would hide. The overload suite rides along: batching must not
  # disturb the admission-control invariants it pins.
  echo "=== batched-scoring suite, plain build (ctest -L 'kernel|overload') ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs"
  (cd build && ctest -L 'kernel|overload' --output-on-failure --timeout 240)
  echo "=== batched-scoring suite under TSan (ctest -L 'kernel|overload') ==="
  cmake -B build-tsan -S . -DIMCAT_SANITIZE="thread" >/dev/null
  cmake --build build-tsan -j "$jobs"
  (cd build-tsan && TSAN_OPTIONS="halt_on_error=1" \
      ctest -L 'kernel|overload' --output-on-failure --timeout 240)
fi

if [[ "$run_store" == 1 ]]; then
  # The snapshot-store durability suite (startup recovery, chain-aware
  # retention GC, the kill-at-every-step publish sweep, ENOSPC/fsync
  # faults) runs twice: plain for exact recovery accounting, then under
  # ASan/UBSan because recovery parses attacker-adjacent inputs — torn
  # manifests, truncated artifacts, mis-labeled filenames.
  echo "=== snapshot-store suite, plain build (ctest -L store_fault) ==="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$jobs"
  (cd build && ctest -L store_fault --output-on-failure --timeout 240)
  echo "=== snapshot-store suite under ASan/UBSan (ctest -L store_fault) ==="
  cmake -B build-asan -S . -DIMCAT_SANITIZE="address;undefined" >/dev/null
  cmake --build build-asan -j "$jobs"
  (cd build-asan && ctest -L store_fault --output-on-failure --timeout 300)
fi

if [[ "$run_fuzz" == 1 ]]; then
  # The ingestion corruption-fuzz sweep (ctest -L fuzz) mutates and
  # truncates every byte offset of a valid TSV pair; it must run under
  # ASan/UBSan so that "never crashes, never trips a sanitizer" is what
  # the pass actually proves. A timeout turns a parser hang into a failure.
  echo "=== ingestion fuzz sweep under ASan/UBSan (ctest -L fuzz) ==="
  cmake -B build-asan -S . -DIMCAT_SANITIZE="address;undefined" >/dev/null
  cmake --build build-asan -j "$jobs"
  (cd build-asan && ctest -L fuzz --output-on-failure --timeout 300)
fi

echo "All checks passed."
