// Google-benchmark microbenchmarks for the hot paths: metric evaluation,
// node codec access, buffer pool fetches, inserts, bulk loading, and the
// k-NN search itself.

#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "storage/disk_manager.h"
#include "bench_util/experiment.h"
#include "common/rng.h"
#include "core/incremental.h"
#include "core/knn.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "data/workload.h"
#include "baselines/grid_file.h"
#include "baselines/kd_tree.h"
#include "geom/metrics.h"
#include "rtree/bulk_load.h"
#include "storage/heap_file.h"

namespace spatial {
namespace {

std::vector<Rect2> RandomRects(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect2> rects;
  rects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Point2 a{{rng.Uniform(0, 100), rng.Uniform(0, 100)}};
    Point2 b{{a[0] + rng.Uniform(0, 10), a[1] + rng.Uniform(0, 10)}};
    rects.push_back(Rect2::FromCorners(a, b));
  }
  return rects;
}

void BM_MinDist(benchmark::State& state) {
  auto rects = RandomRects(1024, 1);
  const Point2 q{{50.0, 50.0}};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinDistSq(q, rects[i++ & 1023]));
  }
}
BENCHMARK(BM_MinDist);

void BM_MinMaxDist(benchmark::State& state) {
  auto rects = RandomRects(1024, 2);
  const Point2 q{{50.0, 50.0}};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinMaxDistSq(q, rects[i++ & 1023]));
  }
}
BENCHMARK(BM_MinMaxDist);

void BM_BufferPoolFetchHit(benchmark::State& state) {
  DiskManager disk(1024);
  BufferPool pool(&disk, 16);
  PageId id;
  {
    auto page = pool.NewPage();
    id = page->id();
  }
  for (auto _ : state) {
    auto handle = pool.Fetch(id);
    benchmark::DoNotOptimize(handle->data());
  }
}
BENCHMARK(BM_BufferPoolFetchHit);

void BM_BufferPoolFetchMiss(benchmark::State& state) {
  DiskManager disk(1024);
  BufferPool pool(&disk, 2);
  PageId a, b, c;
  {
    auto pa = pool.NewPage();
    a = pa->id();
  }
  {
    auto pb = pool.NewPage();
    b = pb->id();
  }
  {
    auto pc = pool.NewPage();
    c = pc->id();
  }
  // Cycling three pages through two frames forces a miss per fetch.
  PageId ids[3] = {a, b, c};
  size_t i = 0;
  for (auto _ : state) {
    auto handle = pool.Fetch(ids[i++ % 3]);
    benchmark::DoNotOptimize(handle->data());
  }
}
BENCHMARK(BM_BufferPoolFetchMiss);

void BM_Insert(benchmark::State& state) {
  const auto split = static_cast<SplitAlgorithm>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    DiskManager disk(1024);
    BufferPool pool(&disk, 256);
    RTreeOptions options;
    options.split = split;
    auto tree = RTree<2>::Create(&pool, options);
    auto points = GenerateUniform<2>(4096, UnitBounds<2>(), &rng);
    state.ResumeTiming();
    for (size_t i = 0; i < points.size(); ++i) {
      benchmark::DoNotOptimize(
          tree->Insert(Rect2::FromPoint(points[i]), i).ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Insert)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_BulkLoadStr(benchmark::State& state) {
  Rng rng(4);
  auto data = MakePointEntries(
      GenerateUniform<2>(static_cast<size_t>(state.range(0)),
                         UnitBounds<2>(), &rng));
  for (auto _ : state) {
    DiskManager disk(1024);
    BufferPool pool(&disk, 256);
    auto tree =
        BulkLoad<2>(&pool, RTreeOptions{}, data, BulkLoadMethod::kStr);
    benchmark::DoNotOptimize(tree.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BulkLoadStr)
    ->Arg(4096)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond);

struct KnnFixtureState {
  std::optional<BuiltTree> built;
  std::vector<Point2> queries;
};

KnnFixtureState& KnnFixture(size_t n) {
  static KnnFixtureState states[2];
  KnnFixtureState& s = states[n == 65536 ? 1 : 0];
  if (!s.built.has_value()) {
    Rng rng(5);
    auto data = MakePointEntries(GenerateUniform<2>(n, UnitBounds<2>(), &rng));
    auto built = BuildTree2D(data, BuildMethod::kInsertQuadratic, 1024, 4096);
    s.built.emplace(std::move(built).value());
    s.queries = GenerateQueries<2>(data, 512, QueryDistribution::kUniform,
                                   0.0, &rng);
  }
  return s;
}

void BM_KnnDepthFirst(benchmark::State& state) {
  auto& fixture = KnnFixture(static_cast<size_t>(state.range(0)));
  KnnOptions knn;
  knn.k = static_cast<uint32_t>(state.range(1));
  size_t i = 0;
  for (auto _ : state) {
    auto result = KnnSearch<2>(*fixture.built->tree,
                               fixture.queries[i++ & 511], knn, nullptr);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_KnnDepthFirst)
    ->Args({4096, 1})
    ->Args({4096, 10})
    ->Args({65536, 1})
    ->Args({65536, 10});

void BM_KnnBestFirst(benchmark::State& state) {
  auto& fixture = KnnFixture(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    auto result =
        BestFirstKnn<2>(*fixture.built->tree, fixture.queries[i++ & 511],
                        static_cast<uint32_t>(state.range(1)), nullptr);
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_KnnBestFirst)
    ->Args({4096, 1})
    ->Args({4096, 10})
    ->Args({65536, 1})
    ->Args({65536, 10});

void BM_HeapFileAppend(benchmark::State& state) {
  DiskManager disk(1024);
  BufferPool pool(&disk, 64);
  auto heap = HeapFile::Create(&pool);
  const std::string record(64, 'r');
  for (auto _ : state) {
    benchmark::DoNotOptimize(heap->Append(record).ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapFileAppend);

void BM_HeapFileRead(benchmark::State& state) {
  DiskManager disk(1024);
  BufferPool pool(&disk, 64);
  auto heap = HeapFile::Create(&pool);
  std::vector<RecordId> rids;
  for (int i = 0; i < 1024; ++i) {
    rids.push_back(heap->Append(std::string(64, 'r')).value());
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(heap->Read(rids[i++ & 1023]).ok());
  }
}
BENCHMARK(BM_HeapFileRead);

void BM_GridFileKnn(benchmark::State& state) {
  Rng rng(6);
  auto data = MakePointEntries(
      GenerateUniform<2>(65536, UnitBounds<2>(), &rng));
  GridFile<2> grid(data, 128);
  auto queries = GenerateQueries<2>(data, 512,
                                    QueryDistribution::kUniform, 0.0, &rng);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.Knn(queries[i++ & 511], 1, nullptr).ok());
  }
}
BENCHMARK(BM_GridFileKnn);

void BM_KdTreeKnn(benchmark::State& state) {
  Rng rng(7);
  auto data = MakePointEntries(
      GenerateUniform<2>(65536, UnitBounds<2>(), &rng));
  KdTree<2> tree(data);
  auto queries = GenerateQueries<2>(data, 512,
                                    QueryDistribution::kUniform, 0.0, &rng);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Knn(queries[i++ & 511], 1, nullptr).ok());
  }
}
BENCHMARK(BM_KdTreeKnn);

}  // namespace
}  // namespace spatial

BENCHMARK_MAIN();
