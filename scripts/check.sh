#!/usr/bin/env bash
# One-command verification, locally and in CI:
#   1. tier-1: configure + build + full ctest suite (ROADMAP.md contract),
#      run TWICE: once at the default block-pipeline depth and once at
#      BRDB_PIPELINE_DEPTH=1 (the legacy serial baseline) — the pipeline
#      must never change what a test observes, only when work overlaps.
#      The suite includes the crash-recovery tests: the segmented-log
#      torn-write matrix (ledger_test), checkpoint round-trip/atomicity
#      (checkpoint_writer_test), the fork + SIGKILL restart harness at
#      pipeline depths 1 and 4 (recovery_test), and byzantine checkpoint
#      divergence detection (byzantine_detection_test);
#   2. fig8b determinism gate: the ordered commit/abort decisions and the
#      per-block write-set hashes of the fig8b workload must be
#      byte-identical across pipeline depths {1, 2, 4} — pipelining may
#      change when transactions execute, never what commits;
#      then the analytics parity gate: the fig6/fig7 analytical queries
#      must return byte-identical results on the vectorized columnar path
#      and the row-store path at every checked snapshot height, both
#      fully sealed and with the history builder lagging (row-store tail
#      top-up) — the HTAP split must never change a query result;
#      then the benchmark smoke test: perfbench (its own CMake package
#      under perfbench/) runs a short traced configuration of every
#      workload with every check on — the only check that drives EOP
#      complex_join end to end with exact result, checkpoint and parity
#      checks;
#   3. socket smoke: scripts/run_cluster.sh boots a REAL 5-OS-process
#      loopback cluster (4 brdb_noded nodes + 1 orderer over TCP), all
#      five must publish ports and stay alive for the run;
#   4. chaos smoke: a seeded ~5 s ChaosSchedule (one partition + one node
#      kill + one Byzantine peer) under open-loop load — brdb_chaos
#      asserts zero honest divergence and that detection fired on every
#      honest node, and exits non-zero otherwise (docs/ROBUSTNESS.md);
#   5. TSAN: a ThreadSanitizer build tree running the `tsan`-labelled
#      concurrency tests (the striped-commit stress test, the session
#      pipelining tests, the B+-tree CREATE INDEX bulk-load under
#      concurrent readers, the pipelined-node determinism test, the
#      byzantine checkpoint-vote test, and the socket-transport tests:
#      event_loop_test, frame_assembler_test, tcp_transport_test and
#      tcp_cluster_test, the chaos-layer tests (chaos_test), the
#      SimNetwork tests (network_test), the columnar history-builder
#      concurrency test (history_builder_test), the SIREAD oracle's
#      concurrent reader/writer test (ssi_edge_test), the node tests'
#      concurrent private-schema inserts (node_test) and the orderers'
#      event-driven cutters, whose stop, pause and deadline waits meet on
#      one topic (consensus_test) — the places where a data race would
#      hide). The fork-based recovery harness stays out of
#      the tsan label: multi-threaded children of a forked gtest process
#      are unsupported under ThreadSanitizer;
#   6. ASAN: an AddressSanitizer + UndefinedBehaviorSanitizer build tree
#      running the SQL and contract tests (sql_test, sql_property_test,
#      analytics_parity_test, columnar_test, history_builder_test,
#      contracts_test, prepared_statement_test, core_flows_test). The
#      executor reads table rows in place on the row and columnar paths
#      alike, as references into each table's version arena, and
#      history_builder_test scans that way while the builder seals; a
#      reference that outlived its row would be a use-after-free, which
#      only ASan reports.
#      UBSan findings fail the run too (-fno-sanitize-recover), and
#      libstdc++'s bounds assertions are on (_GLIBCXX_ASSERTIONS).
#
#   The tier-1 step first fails if any src/ file reads a BRDB_* variable
#   outside NodeConfig's one override ($BRDB_PIPELINE_DEPTH, read by
#   Resolve in src/core/node.cc).
#
# Usage: scripts/check.sh [--tier1-only | --tsan-only | --asan-only]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)
MODE="${1:-all}"

run_tier1() {
  echo "=== tier-1: build + full test suite ==="
  # Resolve-once: NodeConfig's one override, $BRDB_PIPELINE_DEPTH, is the
  # only BRDB_* variable src/ may read, and only Resolve in
  # src/core/node.cc reads it.
  if grep -rnE 'getenv\(\s*"BRDB_' src/ |
       grep -vE '^src/core/node\.cc:[0-9]+:.*getenv\("BRDB_PIPELINE_DEPTH"\)'; then
    echo "=== FAIL: BRDB_* environment read outside NodeConfig's override" \
         "(Resolve in src/core/node.cc reads \$BRDB_PIPELINE_DEPTH only) ===" >&2
    exit 1
  fi
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build -j "${JOBS}"
  # An explicit gate (not just set -e): a tier-1 ctest regression must fail
  # the whole check with an unambiguous message, locally and in CI.
  echo "--- tier-1 at default pipeline depth"
  if ! ctest --test-dir build --output-on-failure -j "${JOBS}"; then
    echo "=== FAIL: tier-1 ctest regressed (default depth) ===" >&2
    exit 1
  fi
  echo "--- tier-1 at pipeline depth 1 (legacy serial baseline)"
  if ! BRDB_PIPELINE_DEPTH=1 ctest --test-dir build --output-on-failure \
       -j "${JOBS}"; then
    echo "=== FAIL: tier-1 ctest regressed at pipeline depth 1 ===" >&2
    exit 1
  fi
  echo "--- fig8b determinism: depths {1, 2, 4}"
  if ! ./build/bench_fig8b_ordering_scalability --check-determinism; then
    echo "=== FAIL: fig8b decisions or write-set hashes diverge between" \
         "pipeline depths — pipelining changed a commit decision or" \
         "committed state ===" >&2
    exit 1
  fi
  echo "--- analytics parity: columnar vs row-store, byte-identical"
  if ! ./build/bench_fig6_complex_join --check-parity; then
    echo "=== FAIL: fig6 columnar execution diverged from the row store —" \
         "the vectorized path returned different bytes at some snapshot" \
         "height ===" >&2
    exit 1
  fi
  if ! ./build/bench_fig7_complex_group --check-parity; then
    echo "=== FAIL: fig7 columnar execution diverged from the row store —" \
         "the vectorized path returned different bytes at some snapshot" \
         "height ===" >&2
    exit 1
  fi
  run_perfbench_smoke
  run_socket_smoke
  run_chaos_smoke
}

# The repository benchmark's own smoke test (ctest perfbench_smoke): a short
# traced run of every workload, with result, checkpoint and parity checks.
run_perfbench_smoke() {
  echo "--- perfbench smoke: every benchmark workload end to end, checked"
  cmake -S perfbench -B build-perfbench -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-perfbench -j "${JOBS}" --target perfbench
  if ! ctest --test-dir build-perfbench -R perfbench_smoke \
       --output-on-failure; then
    echo "=== FAIL: perfbench smoke failed a check (results, checkpoints," \
         "parity or load) ===" >&2
    exit 1
  fi
}

# Boot a real multi-process cluster over loopback TCP and verify every
# process publishes its port and survives the run. This is the only check
# that exercises brdb_noded + run_cluster.sh end to end as OS processes
# (the in-process equivalent lives in tcp_cluster_test).
run_socket_smoke() {
  echo "=== socket smoke: 5-process loopback cluster ==="
  cmake --build build -j "${JOBS}" --target brdb_noded
  local smoke_dir
  smoke_dir=$(mktemp -d /tmp/brdb_smoke.XXXXXX)
  local peers_file
  if ! peers_file=$(scripts/run_cluster.sh --duration=3 \
                    --run-dir="${smoke_dir}" --block-timeout-us=50000); then
    echo "=== FAIL: run_cluster.sh did not bring the cluster up; logs in" \
         "${smoke_dir} ===" >&2
    exit 1
  fi
  local peers
  peers=$(wc -l <"${peers_file}")
  if [[ "${peers}" -ne 5 ]]; then
    echo "=== FAIL: expected 5 cluster endpoints, got ${peers}; logs in" \
         "${smoke_dir} ===" >&2
    exit 1
  fi
  if ! grep -q "ordering started" "${smoke_dir}/orderer.log"; then
    echo "=== FAIL: orderer never started ordering; see" \
         "${smoke_dir}/orderer.log ===" >&2
    exit 1
  fi
  rm -rf "${smoke_dir}"
  echo "socket smoke OK (4 nodes + orderer over loopback TCP)"
}

# Seeded ~5 s fault schedule — one partition, one node kill, one Byzantine
# peer — under open-loop load. brdb_chaos itself enforces the invariants
# (zero honest divergence, detection fired on every honest node within one
# checkpoint interval) and exits non-zero on violation.
run_chaos_smoke() {
  echo "=== chaos smoke: seeded partition + kill + byzantine schedule ==="
  cmake --build build -j "${JOBS}" --target brdb_chaos
  local chaos_out
  chaos_out=$(mktemp /tmp/brdb_chaos_smoke.XXXXXX.json)
  if ! ./build/brdb_chaos --smoke --seed=42 --out="${chaos_out}" \
       > /dev/null 2>&1; then
    echo "=== FAIL: chaos smoke violated an invariant (honest divergence" \
         "or missed Byzantine detection); rerun" \
         "./build/brdb_chaos --smoke --seed=42 for details ===" >&2
    rm -f "${chaos_out}"
    exit 1
  fi
  rm -f "${chaos_out}"
  echo "chaos smoke OK (honest nodes agreed, detection fired)"
}

run_tsan() {
  echo "=== TSAN: concurrency tests under ThreadSanitizer ==="
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j "${JOBS}" \
    --target txn_stripe_stress_test session_test btree_index_test \
             pipeline_test byzantine_detection_test event_loop_test \
             frame_assembler_test tcp_transport_test tcp_cluster_test \
             chaos_test network_test history_builder_test ssi_edge_test \
             node_test consensus_test
  ctest --test-dir build-tsan -L tsan --output-on-failure -j 1
}

run_asan() {
  echo "=== ASAN+UBSAN: values, indexes, SQL executor and contract tests ==="
  local asan_tests=(common_test btree_index_test sql_test sql_property_test
                    analytics_parity_test columnar_test history_builder_test
                    contracts_test prepared_statement_test core_flows_test)
  cmake -B build-asan -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS -fno-omit-frame-pointer -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
  cmake --build build-asan -j "${JOBS}" --target "${asan_tests[@]}"
  local regex
  regex="^($(IFS='|'; echo "${asan_tests[*]}"))\$"
  if ! ctest --test-dir build-asan -R "${regex}" --output-on-failure \
       -j "${JOBS}"; then
    echo "=== FAIL: a value, index, SQL or contract test failed under" \
         "ASan/UBSan (a dangling row reference, a leak or undefined" \
         "behavior) ===" >&2
    exit 1
  fi
}

case "${MODE}" in
  --tier1-only) run_tier1 ;;
  --tsan-only)  run_tsan ;;
  --asan-only)  run_asan ;;
  all|*)        run_tier1; run_tsan; run_asan ;;
esac
echo "=== all checks passed ==="
