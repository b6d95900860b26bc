#!/usr/bin/env bash
# Full verification: configure, build, test (plain, under ASan/UBSan, and the
# concurrent search tests under TSan), and run every benchmark.
# Usage: scripts/check.sh [--quick]   (--quick shrinks the benchmark sweeps)
set -euo pipefail
cd "$(dirname "$0")/.."

QUICK="${1:-}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B build -S .
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

# The end-to-end benchmark package (perfbench/) compiles the library from src/
# as a package of its own, and tier-1 never builds its traced program — so a
# library signature change would otherwise only surface when the benchmark
# runs. Build both of its programs and its helper tests, then run its ctest:
# the helper tests plus a tiny smoke of every workload under both programs.
cmake -B build-perfbench -S perfbench
cmake --build build-perfbench -j "$JOBS" --target perfbench_e2e perfbench_trace perfbench_tests
ctest --test-dir build-perfbench --output-on-failure -j "$JOBS"

# Tier-1 tests again under the sanitizer preset (-DPLANETP_SANITIZE accepts a
# -fsanitize list). A separate build dir keeps instrumented objects apart.
cmake -B build-asan -S . -DPLANETP_SANITIZE=address,undefined
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

# The concurrent hedged-search tests, the parallel gossip stepping, the
# parallel batch publish and the epoch-snapshot mixed-workload stress (8
# readers ranking live snapshots while a writer publishes/merges) again under
# ThreadSanitizer (the `tsan` preset uses the same build dir). TSan and ASan
# cannot share a build, hence the third tree; the -R scope keeps the (slow)
# TSan pass to the tests that actually exercise cross-thread code.
# test_reactor and test_net ride along: the reactor's cross-thread surface
# (send/post/schedule vs the loop thread, LiveNode RPC wakeups, cluster churn)
# is exactly the kind of code TSan exists for. test_pruned_topk covers the
# block-max pruned readers racing a live writer (shared compressed base,
# epoch swaps) — the PrunedTopK scope picks up its concurrent test.
# test_conformance drives a LiveCluster's threads through publish, gossip
# and RPC search next to an in-process Community. test_rank_floor checks the
# k + floor contact against the all-matches oracle while the stores' merge
# threads run.
cmake -B build-tsan -S . -DPLANETP_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" \
  --target test_search test_search_faults test_sim test_data_store test_epoch_snapshot \
           test_reactor test_net test_compact_directory test_compressed_at_rest \
           test_lazy_gossip test_pruned_topk test_conformance test_rank_floor
ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
  -R 'DistributedSearchConcurrent|KAndFloorMatchAllMatches|ParallelStepping|ParallelPublish|MixedWorkload|Reactor|LiveNode.RpcFailsFastWhenPeerCrashes|CompactDirectory|CompressedAtRest|LazyGossip|PrunedTopK|Conformance'

# Lazy-dissemination smoke under ASan: a small lazy + hybrid community
# exercising the digest/want/serve and delta-summary paths end to end under
# the sanitizer, with the zero-blind-payload counter gates applied.
echo "=== gossip_throughput --lazy-smoke (ASan) ==="
build-asan/bench/gossip_throughput --lazy-smoke

# The baseline-gated benches, in this order. Each writes BENCH_<name>.json and
# exits non-zero when one of its in-run gates fails, or when a number it gates
# falls below half (or, for a ceiling, rises above twice) the value recorded in
# bench/baselines/<name>.json — including when that value is missing
# (bench/common/harness.hpp). The in-run gates:
#   search_throughput — the warm CandidateCache must be >=5x the uncached scan
#     at 5000 peers (baseline: warm qps).
#   gossip_throughput — the epoch-cached summary path must be >=3x the
#     uncached cost model at 5000 peers; cached/uncached traces must not
#     diverge (the cache must be behaviourally invisible); hybrid must cut
#     bytes/round >2x over eager at 5000 peers with unchanged convergence;
#     lazy mode must push no blind payload (baseline: cached rounds/sec floor,
#     hybrid bytes/round ceiling).
#   live_throughput — a 100/500/1000-node loopback cluster must gossip, leak no
#     descriptors across a cluster lifecycle, and stay under the global
#     outbound byte cap (baseline: msgs/sec).
#   index_throughput — the interned pipeline's combined (publish x eval)
#     speedup over the legacy string-keyed cost model must be >=3x at 10k
#     docs, both paths must rank the same documents, and the block-max pruned
#     top-k must match the exhaustive ranking bitwise, skip blocks, and be >=3x
#     faster at 10k docs (k=10) (baseline: publish docs/sec, eval qps, pruned
#     eval qps).
#   community_scale — filter changes must converge and sampled directories
#     agree, peak RSS must stay under 10% of the fully-decoded O(N^2) cost
#     model (docs/SCALE.md), and summary-merge scans must grow with the changed
#     set, not community size (baseline: rounds/sec floor, RSS ceiling).
#     --quick stops at 5000 peers; the full run goes to 100k.
#   mixed_workload — every published epoch must rank like a sequential
#     single-threaded oracle, 1->8 reader qps must meet the hardware-adaptive
#     scaling gate, and the timed-phase readers must take the pruned scan
#     (pruned_queries and blocks_skipped nonzero) (baseline: 1-/8-reader qps).
GATED_BENCHES="search_throughput gossip_throughput live_throughput index_throughput community_scale mixed_workload"
QUICK_FLAG=""
[ "$QUICK" = "--quick" ] && QUICK_FLAG="--quick"
for name in $GATED_BENCHES; do
  echo "=== $name ==="
  build/bench/"$name" $QUICK_FLAG --baseline "bench/baselines/$name.json"
done

for b in build/bench/*; do
  # Skip build-system files (Makefiles generator) and BENCH_*.json emissions;
  # only regular executables are benchmarks.
  { [ -f "$b" ] && [ -x "$b" ]; } || continue
  case " $GATED_BENCHES " in *" $(basename "$b") "*) continue ;; esac
  echo "=== $(basename "$b") ==="
  "$b" $QUICK_FLAG
done
