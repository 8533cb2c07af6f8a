// Ablation microbenchmark for the storage ordered index: std::map (the
// seed's red-black tree) vs the B+-tree, on the three operations the
// transaction layer actually performs —
//   * point lookup (equality predicate / unique probe / index-join probe),
//   * range scan (the fig8b workload's predicate reads),
//   * maintenance insert (every AppendVersion touches every table index),
//   * bulk load (CREATE INDEX backfill on a populated table).
// Run via scripts/run_benches.sh, which records the JSON artifact
// BENCH_micro_index.json next to the fig8b trajectory.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "../tests/std_map_row_index.h"
#include "common/rng.h"
#include "storage/btree.h"

namespace brdb {
namespace {

/// Shuffled unique int keys 0..rows-1 (ids equal insertion order).
std::vector<int64_t> ShuffledKeys(int64_t rows, uint64_t seed) {
  std::vector<int64_t> keys(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) keys[static_cast<size_t>(i)] = i;
  Rng rng(seed);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.Uniform(i)]);
  }
  return keys;
}

template <typename Index>
std::unique_ptr<Index> BuildIndex(int64_t rows) {
  auto index = std::make_unique<Index>();
  std::vector<int64_t> keys = ShuffledKeys(rows, 0x1d);
  for (size_t i = 0; i < keys.size(); ++i) {
    index->Insert(Value::Int(keys[i]), static_cast<RowId>(i));
  }
  return index;
}

template <typename Index>
void BM_PointLookup(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto index = BuildIndex<Index>(rows);
  Rng rng(7);
  for (auto _ : state) {
    Value key = Value::Int(static_cast<int64_t>(rng.Uniform(rows)));
    size_t found = 0;
    index->Scan(&key, true, &key, true,
                [&](const Value&, const PostingList& ids) {
                  found += ids.size();
                  return true;
                });
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations());
}

template <typename Index>
void BM_RangeScan(benchmark::State& state) {
  const int64_t rows = state.range(0);
  const int64_t width = rows / 8;  // scan 1/8 of the key space
  auto index = BuildIndex<Index>(rows);
  Rng rng(11);
  for (auto _ : state) {
    int64_t lo_key = static_cast<int64_t>(rng.Uniform(rows - width));
    Value lo = Value::Int(lo_key), hi = Value::Int(lo_key + width - 1);
    uint64_t sum = 0;
    index->Scan(&lo, true, &hi, true,
                [&](const Value&, const PostingList& ids) {
                  for (RowId id : ids) sum += id;
                  return true;
                });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * width);
}

template <typename Index>
void BM_MaintenanceInsert(benchmark::State& state) {
  const int64_t rows = state.range(0);
  auto index = BuildIndex<Index>(rows);
  std::vector<int64_t> extra = ShuffledKeys(rows, 0xfeed);
  size_t cursor = 0;
  RowId next_id = static_cast<RowId>(rows);
  for (auto _ : state) {
    // Wrapping over the key pool turns later rounds into duplicate-key
    // posting appends — the same mix AppendVersion produces on real tables.
    index->Insert(Value::Int(extra[cursor]), next_id++);
    if (++cursor == extra.size()) cursor = 0;
  }
  state.SetItemsProcessed(state.iterations());
}

// CREATE INDEX backfill: the B+-tree packs leaves from the sorted run; the
// map can only insert entry by entry.
void LoadSorted(BTreeRowIndex* index,
                std::vector<std::pair<Value, RowId>> entries) {
  index->LoadSorted(std::move(entries));
}
void LoadSorted(StdMapRowIndex* index,
                std::vector<std::pair<Value, RowId>> entries) {
  for (auto& [key, id] : entries) index->Insert(key, id);
}

template <typename Index>
void BM_BulkLoad(benchmark::State& state) {
  const int64_t rows = state.range(0);
  std::vector<int64_t> keys = ShuffledKeys(rows, 0xb11c);
  std::vector<std::pair<Value, RowId>> entries;
  entries.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    entries.emplace_back(Value::Int(keys[i]), static_cast<RowId>(i));
  }
  std::stable_sort(entries.begin(), entries.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.Compare(b.first) < 0;
                   });
  for (auto _ : state) {
    // The batch copy happens outside the measured region so the number is
    // index-build work only (BulkLoad consumes its input).
    state.PauseTiming();
    auto batch = entries;
    state.ResumeTiming();
    Index index;
    LoadSorted(&index, std::move(batch));
    benchmark::DoNotOptimize(index.KeyCount());
  }
  state.SetItemsProcessed(state.iterations() * rows);
}

#define INDEX_BENCH(fn)                                                   \
  BENCHMARK(fn<StdMapRowIndex>)->Name(#fn "/map")->Arg(4096)->Arg(65536); \
  BENCHMARK(fn<BTreeRowIndex>)->Name(#fn "/btree")->Arg(4096)->Arg(65536)

INDEX_BENCH(BM_PointLookup);
INDEX_BENCH(BM_RangeScan);
INDEX_BENCH(BM_MaintenanceInsert);
INDEX_BENCH(BM_BulkLoad);

}  // namespace
}  // namespace brdb

BENCHMARK_MAIN();
