#!/usr/bin/env sh
# Tier-1 gate: lint, then full build + full test suite, a build of the
# perfbench/ benchmark with one checked run per workload and a traced and a
# metrics-only run that must process the same events, the chaos,
# federation, property and sanitize-labelled tests again under
# AddressSanitizer/UBSan (FAASPART_SANITIZE, see CMakeLists.txt), and last
# the bench gates. Every deterministic stage runs
# before any gate that reads host time, so host noise that trips a timed
# gate can no longer keep the sanitizer tier from running.
#
#   scripts/tier1.sh          full gate
#   scripts/tier1.sh --lint   lint stage only (fast pre-commit check)
set -eu
cd "$(dirname "$0")/.."

lint_only=0
for arg in "$@"; do
  case "$arg" in
    --lint) lint_only=1 ;;
    *) echo "usage: $0 [--lint]" >&2; exit 2 ;;
  esac
done

# --- lint stage -----------------------------------------------------------
# faaspart-lint (tools/lint) lints the roots listed in tools/lint/scope.txt
# (the list the lint_src ctest reads too) as one project under
# .faaspart-lint: the per-file rules
# (D1/D2/C1/C2/O1/O2, E1) plus the project passes — include-graph layering
# (L1) and cross-domain state isolation (S1). It runs in ratchet mode against the
# committed lint_baseline.jsonl: known findings are tolerated-but-tracked,
# any FRESH finding fails the gate. The run drops two machine-readable
# artifacts under build/ for CI to archive: the fresh-findings JSONL and
# the module-level include graph in DOT form (the DESIGN.md §15 render).
# That render must equal the committed docs/include_graph.dot, so a change
# that adds or drops an include regenerates the committed copy with it.
# The .clang-tidy baseline runs when clang-tidy exists (the dev container
# ships only GCC; CI installs it).
roots=$(grep -v '^#' tools/lint/scope.txt)
only=
for root in $roots; do only="$only --only $root"; done
cmake -B build -S .
cmake --build build -j2 --target faaspart_lint
# shellcheck disable=SC2086 # word splitting of the root list is intended
./build/tools/lint/faaspart_lint --root . \
  --compile-commands build/compile_commands.json $only \
  --emit-dot=build/include_graph.dot --json=build/lint_findings.jsonl $roots
if ! diff -u docs/include_graph.dot build/include_graph.dot >&2; then
  echo "tier1: docs/include_graph.dot differs from the include graph;" \
    "copy build/include_graph.dot over it" >&2
  exit 1
fi
if command -v clang-tidy >/dev/null 2>&1; then
  clang-tidy -p build --quiet src/sim/*.cpp src/runner/*.cpp
else
  echo "tier1: clang-tidy not installed; skipping the .clang-tidy baseline"
fi

if [ "$lint_only" -eq 1 ]; then
  exit 0
fi

# --- full build + test suite ----------------------------------------------
cmake --build build -j2
ctest --test-dir build --output-on-failure -j2

# --- benchmark build + runner check ----------------------------------------
# perfbench/ (faasbench, the program BENCHMARK.json runs) is its own CMake
# project that compiles src/ directly, so a src/ change that breaks it fails
# here instead of in the benchmark run. One checked run per workload then
# compares faasbench's row against runner::run_*_point: a change that moves
# a rendered column (say, GPU util read from the span log) fails tier 1 too.
# Each run must also process exactly the pinned number of simulator events,
# so a change that moves any simulated event fails here; one that moves them
# on purpose re-pins the counts and says why in CHANGES.md. The two FaaS
# workloads must also end with no task record left in any endpoint's DFK
# ("faas.live_records": 0): a settled task keeps no memory there.
cmake -B build-perfbench -S perfbench
cmake --build build-perfbench -j2
for pin in cluster-mps:1031169 scenario-cpu:175972 llm-disagg:127889; do
  workload=${pin%%:*}
  events=${pin#*:}
  out=$(./build-perfbench/faasbench run --workload "$workload" --seed 1 --check)
  if ! printf '%s\n' "$out" | grep -q '"runner_match": true'; then
    echo "tier1: faasbench $workload does not match the runner" >&2
    exit 1
  fi
  if ! printf '%s\n' "$out" | grep -q "\"sim_events\": $events,"; then
    echo "tier1: faasbench $workload did not process the pinned $events" \
      "simulator events" >&2
    exit 1
  fi
  if [ "$workload" != llm-disagg ] &&
    ! printf '%s\n' "$out" | grep -Eq '"faas.live_records": 0[,}]'; then
    echo "tier1: faasbench $workload left task records in a drained DFK" >&2
    exit 1
  fi
done
# Tracing adds no simulator event: the Device closes a traced kernel's span
# where it settles the launch, so each workload must process exactly as many
# events under --tel full as under --tel metrics.
for workload in cluster-mps scenario-cpu llm-disagg; do
  metrics=$(./build-perfbench/faasbench run --workload "$workload" --seed 1 \
    --tel metrics | sed -n 's/.*"sim_events": \([0-9]*\),.*/\1/p')
  full=$(./build-perfbench/faasbench run --workload "$workload" --seed 1 \
    --tel full | sed -n 's/.*"sim_events": \([0-9]*\),.*/\1/p')
  if [ -z "$metrics" ] || [ "$metrics" != "$full" ]; then
    echo "tier1: faasbench $workload processed $full simulator events with" \
      "--tel full and $metrics with --tel metrics" >&2
    exit 1
  fi
done

# Second tree with sanitizers; only the chaos/federation/property/sanitize-
# labelled binaries need to build, which keeps the single-core builder's
# turnaround tolerable. test_prop rides along so the shrinking property
# suites (and their pager/engine mutation checks) run under ASan at the
# default iteration budget; the sanitize label adds the unit tests of
# util::strf, the KvPager and the serving engine, whose buffers are
# hand-indexed.
cmake -B build-asan -S . -DFAASPART_SANITIZE=address
cmake --build build-asan -j2 --target test_faults test_properties \
  test_runner_determinism test_federation test_federation_cluster \
  test_federation_repartition test_serve_chaos test_prop \
  test_util test_gpu test_serve
ctest --test-dir build-asan -L "chaos|federation|property|sanitize" \
  --output-on-failure

# --- observability overhead gate ------------------------------------------
# bench/obs_overhead runs the same cluster-serving point with telemetry off,
# metrics-only, and full tracing; metrics-only must stay within 2% CPU of
# off (and must not perturb the virtual outcome). Non-zero exit fails the
# gate; BENCH_obs.json is the machine-readable artifact CI archives.
./build/bench/obs_overhead build/BENCH_obs.json

# --- repartitioning ablation gate -----------------------------------------
# bench/ablation_repartition replays the two-phase llama/resnet mix through
# three static layouts and the online optimizer; the run fails unless the
# online mode beats the best static layout on throughput and SLO attainment
# with zero mid-reset dispatches. BENCH_repartition.json is archived by CI.
./build/bench/ablation_repartition build/BENCH_repartition.json

# --- LLM serving gate ------------------------------------------------------
# bench/llm_serving replays the same Poisson arrival set through run-to-
# completion, continuous batching, and prefill/decode disaggregation at
# 0.5/1/2x saturation; the run fails unless the batched engines beat RTC on
# goodput and p99 TTFT at 1x and 2x and the pool balancer actually
# re-partitions. BENCH_llm_serving.json is archived by CI.
./build/bench/llm_serving build/BENCH_llm_serving.json
