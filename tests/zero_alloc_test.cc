// Proves the tentpole claim of the scratch arena: once warm, query
// execution performs ZERO heap allocations — not "few", none. This binary
// links spatial_alloc_tracker, which replaces global operator new/delete
// with counting forwarders, so any allocation on the hot path is caught
// mechanically rather than by inspection.
//
// Discipline inside the measured region: no gtest assertions, no stats
// formatting — counters are sampled before/after and asserted afterwards.

#include <gtest/gtest.h>

#include <vector>

#include "common/alloc_tracker.h"
#include "common/rng.h"
#include "core/incremental.h"
#include "core/knn.h"
#include "core/reverse_knn.h"
#include "core/skyline.h"
#include "data/uniform.h"
#include "data/workload.h"
#include "obs/histogram.h"
#include "obs/query_metrics.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "rtree/bulk_load.h"
#include "rtree/node.h"
#include "service/query_service.h"
#include "storage/resident_tree.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

// The pool covers the whole tree, so after the warm pass every fetch is a
// hit: steady state exercises the full traversal but no eviction path.
struct Fixture {
  Fixture() : disk(1024), pool(&disk, 2048) {
    Rng rng(404);
    data = MakePointEntries(GenerateUniform<2>(8000, UnitBounds<2>(), &rng));
    auto loaded =
        BulkLoad<2>(&pool, RTreeOptions{}, data, BulkLoadMethod::kStr);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    tree.emplace(std::move(loaded).value());
    Rng qrng(405);
    queries =
        GenerateQueries<2>(data, 64, QueryDistribution::kUniform, 0.0, &qrng);
  }

  DiskManager disk;
  BufferPool pool;
  std::vector<Entry<2>> data;
  std::optional<RTree<2>> tree;
  std::vector<Point2> queries;
};

TEST(ZeroAllocTest, TrackerCountsAllocations) {
  const AllocCounts before = ThreadAllocCounts();
  // The volatile sink keeps the allocation observable, so the compiler
  // cannot dead-code-eliminate the new/delete pair.
  static void* volatile sink;
  sink = ::operator new(32);
  ::operator delete(sink);
  const AllocCounts delta = ThreadAllocCounts() - before;
  EXPECT_GE(delta.allocations, 1u);
  EXPECT_GE(delta.bytes, 32u);
}

TEST(ZeroAllocTest, KnnSearchIntoIsAllocationFreeWhenWarm) {
  Fixture f;
  QueryScratch<2> scratch;
  std::vector<Neighbor> out;
  QueryStats stats;

  for (uint32_t k : {1u, 10u}) {
    KnnOptions options;
    options.k = k;
    // Warm pass: arenas grow to their high-water mark, pool faults in the
    // whole tree.
    for (const Point2& q : f.queries) {
      ASSERT_TRUE(
          KnnSearchInto<2>(*f.tree, q, options, &scratch, &out, &stats).ok());
    }

    const AllocCounts before = ThreadAllocCounts();
    bool all_ok = true;
    for (const Point2& q : f.queries) {
      all_ok &=
          KnnSearchInto<2>(*f.tree, q, options, &scratch, &out, &stats).ok();
    }
    const AllocCounts delta = ThreadAllocCounts() - before;
    ASSERT_TRUE(all_ok);
    EXPECT_EQ(delta.allocations, 0u) << "k=" << k << ": " << delta.bytes
                                     << " bytes allocated in steady state";
  }
}

// The SoA staging added for the SIMD kernels must obey the same arena
// discipline: the plane buffer grows once to its high-water mark and is
// then retranspose-in-place per node, never reallocated. Re-staging the
// largest batch the warm queries produced must be free, and the warm
// queries above must have left a non-trivial plane arena behind (i.e. the
// kernels really ran through the SoA path, not a fallback).
TEST(ZeroAllocTest, SoaStagingIsAllocationFreeWhenWarm) {
  Fixture f;
  QueryScratch<2> scratch;
  std::vector<Neighbor> out;
  KnnOptions options;
  options.k = 10;
  for (const Point2& q : f.queries) {
    ASSERT_TRUE(
        KnnSearchInto<2>(*f.tree, q, options, &scratch, &out, nullptr).ok());
  }
  ASSERT_GT(scratch.soa.capacity(), 0u)
      << "warm queries never staged SoA planes";
  // The largest batch any node can produce is the page fan-out (the kNN
  // traversal stages straight from the page image, so no AoS copy records
  // a high-water mark to read back).
  const uint32_t max_entries = NodeView<2>::MaxEntries(f.pool.page_size());
  ASSERT_GT(max_entries, 0u);

  std::vector<Entry<2>> batch(f.data.begin(), f.data.begin() + max_entries);
  // The k=10 warm pass never needs MINMAXDIST, so grow that output buffer
  // to its mark here — first-touch growth is warm-up, not steady state.
  scratch.min_dist.EnsureCapacity(QueryScratch<2>::DistSlots(max_entries));
  scratch.min_max_dist.EnsureCapacity(QueryScratch<2>::DistSlots(max_entries));
  const AllocCounts before = ThreadAllocCounts();
  double checksum = 0.0;
  for (int round = 0; round < 64; ++round) {
    const SoaBlock<2> soa = scratch.StageSoa(batch.data(), max_entries);
    double* dist =
        scratch.min_dist.EnsureCapacity(QueryScratch<2>::DistSlots(max_entries));
    double* dist2 = scratch.min_max_dist.EnsureCapacity(
        QueryScratch<2>::DistSlots(max_entries));
    MinAndMinMaxDistSqBatchSoa<2>(f.queries[round % f.queries.size()], soa,
                                  dist, dist2);
    checksum += dist[0] + dist2[0];
  }
  const AllocCounts delta = ThreadAllocCounts() - before;
  EXPECT_GE(checksum, 0.0);  // keep the kernel calls observable
  EXPECT_EQ(delta.allocations, 0u)
      << delta.bytes << " bytes allocated re-staging SoA planes";
}

TEST(ZeroAllocTest, BatchKnnSteadyStateIsAllocationFree) {
  Fixture f;
  QueryScratch<2> scratch;
  BatchKnnResult batch;
  KnnOptions options;
  options.k = 10;

  // Warm: result vectors and scratch reach capacity on the first batch.
  ASSERT_TRUE(KnnSearchBatch<2>(*f.tree, f.queries.data(), f.queries.size(),
                                options, &scratch, &batch)
                  .ok());

  const AllocCounts before = ThreadAllocCounts();
  Status status = KnnSearchBatch<2>(*f.tree, f.queries.data(),
                                    f.queries.size(), options, &scratch,
                                    &batch);
  const AllocCounts delta = ThreadAllocCounts() - before;
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(delta.allocations, 0u)
      << delta.bytes << " bytes allocated in steady-state batch";
}

// The advanced query classes ride the same scratch arena: the geometric
// browse heap, candidate staging, and verification buffers all grow to
// their high-water mark during the warm pass and are then reused.
TEST(ZeroAllocTest, ReverseKnnSteadyStateIsAllocationFree) {
  Fixture f;
  QueryScratch<2> scratch;
  std::vector<Neighbor> out;
  ReverseKnnOptions options;
  options.k = 3;

  for (const Point2& q : f.queries) {
    ASSERT_TRUE(
        ReverseKnnSearch(*f.tree, q, options, &scratch, &out, nullptr).ok());
  }

  const AllocCounts before = ThreadAllocCounts();
  bool all_ok = true;
  for (const Point2& q : f.queries) {
    all_ok &=
        ReverseKnnSearch(*f.tree, q, options, &scratch, &out, nullptr).ok();
  }
  const AllocCounts delta = ThreadAllocCounts() - before;
  ASSERT_TRUE(all_ok);
  EXPECT_EQ(delta.allocations, 0u)
      << delta.bytes << " bytes allocated in steady-state reverse k-NN";
}

TEST(ZeroAllocTest, NnSkylineSteadyStateIsAllocationFree) {
  Fixture f;
  QueryScratch<2> scratch;
  std::vector<Entry<2>> out;
  // Two-source skylines over sliding query pairs.
  std::vector<Point2> sources(2);

  const auto run_all = [&](bool* ok) {
    for (size_t i = 0; i + 1 < f.queries.size(); i += 2) {
      sources[0] = f.queries[i];
      sources[1] = f.queries[i + 1];
      const Status s =
          NnSkylineSearch<2>(*f.tree, sources.data(), 2, &scratch, &out,
                             nullptr);
      if (ok != nullptr) *ok &= s.ok();
    }
  };
  run_all(nullptr);  // warm

  const AllocCounts before = ThreadAllocCounts();
  bool all_ok = true;
  run_all(&all_ok);
  const AllocCounts delta = ThreadAllocCounts() - before;
  ASSERT_TRUE(all_ok);
  EXPECT_EQ(delta.allocations, 0u)
      << delta.bytes << " bytes allocated in steady-state skyline";
}

TEST(ZeroAllocTest, ApproxAndBoundedKnnSteadyStateIsAllocationFree) {
  Fixture f;
  QueryScratch<2> scratch;
  std::vector<Neighbor> out;
  QueryStats stats;
  KnnOptions options;
  options.k = 10;
  options.epsilon = 0.5;
  options.max_visits = 64;
  options.max_distance = 0.25;

  for (const Point2& q : f.queries) {
    ASSERT_TRUE(
        KnnSearchInto<2>(*f.tree, q, options, &scratch, &out, &stats).ok());
  }

  const AllocCounts before = ThreadAllocCounts();
  bool all_ok = true;
  for (const Point2& q : f.queries) {
    all_ok &=
        KnnSearchInto<2>(*f.tree, q, options, &scratch, &out, &stats).ok();
  }
  const AllocCounts delta = ThreadAllocCounts() - before;
  ASSERT_TRUE(all_ok);
  EXPECT_EQ(delta.allocations, 0u)
      << delta.bytes << " bytes allocated in steady-state approx kNN";
}

TEST(ZeroAllocTest, ResidentApproxAndBoundedKnnSteadyStateIsAllocationFree) {
  Fixture f;
  auto resident =
      ResidentTree<2>::Compile(&f.pool, f.tree->root_page(), f.tree->size(),
                               {});
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  QueryScratch<2> scratch;
  std::vector<Neighbor> out;
  QueryStats stats;
  KnnOptions options;
  options.k = 10;
  options.epsilon = 0.5;
  options.max_visits = 64;
  options.max_distance = 0.25;

  for (const Point2& q : f.queries) {
    ASSERT_TRUE(
        KnnSearchInto<2>(*resident, q, options, &scratch, &out, &stats).ok());
  }

  const AllocCounts before = ThreadAllocCounts();
  bool all_ok = true;
  for (const Point2& q : f.queries) {
    all_ok &=
        KnnSearchInto<2>(*resident, q, options, &scratch, &out, &stats).ok();
  }
  const AllocCounts delta = ThreadAllocCounts() - before;
  ASSERT_TRUE(all_ok);
  EXPECT_EQ(delta.allocations, 0u)
      << delta.bytes << " bytes allocated in steady-state resident approx kNN";
}

// The observability layer must not repeal the zero-alloc contract: this
// replays the QueryService worker loop's per-query instrumentation —
// histogram records, the sampling draw, per-kind stat mirror, trace
// arming, and slow-log capture — around the same warm KnnSearchInto and
// KnnSearchBatch paths, at 0% sampling (the steady default), 1% (mostly
// the sampled-out path), and 100% (every query traced and logged).
TEST(ZeroAllocTest, InstrumentedQueryPathIsAllocationFree) {
  Fixture f;
  QueryScratch<2> scratch;
  std::vector<Neighbor> out;
  QueryStats stats;
  KnnOptions options;
  options.k = 10;

  obs::AtomicQueryStats kind_stats;
  obs::StatCounter kind_count;
  LatencyHistogram latency;
  LatencyHistogram queue_wait;
  obs::TraceContext trace_ctx;
  obs::SlowQueryLog::Options log_options;
  log_options.slow_capacity = 8;
  log_options.sampled_capacity = 8;
  // Everything below the threshold: slow capture exercised via sampling.
  log_options.slow_threshold_ns = ~0ull;
  obs::SlowQueryLog log(log_options);
  uint64_t rng = 0x9E3779B97F4A7C15ULL;

  auto run_instrumented = [&](uint32_t sample_per_million) -> bool {
    bool all_ok = true;
    for (const Point2& q : f.queries) {
      queue_wait.Record(100);
      const bool sampled = obs::SampleDraw(&rng, sample_per_million);
      if (sampled) {
        trace_ctx.Reset();
        trace_ctx.SetSpan(obs::SpanKind::kQueueWait, 100);
        scratch.trace = &trace_ctx;
      }
      stats.Reset();
      all_ok &=
          KnnSearchInto<2>(*f.tree, q, options, &scratch, &out, &stats).ok();
      ++kind_count;
      kind_stats.Add(stats);
      latency.Record(5000);
      if (sampled) {
        trace_ctx.SetSpan(obs::SpanKind::kExecute, 5000);
        scratch.trace = nullptr;
        obs::QueryTraceRecord rec;
        rec.worker = 0;
        rec.k = options.k;
        rec.SetKindName("knn");
        rec.latency_ns = 5000;
        rec.queue_wait_ns = 100;
        rec.traced = true;
        rec.stats = stats;
        for (int l = 0; l < obs::kTraceMaxLevels; ++l) {
          rec.nodes_per_level[l] = trace_ctx.nodes_per_level[l];
        }
        log.Record(rec);
      }
    }
    return all_ok;
  };

  // Warm pass (100% sampling fills the log's preallocated storage too).
  ASSERT_TRUE(run_instrumented(1'000'000));

  for (uint32_t per_million : {0u, 10'000u, 1'000'000u}) {
    const AllocCounts before = ThreadAllocCounts();
    const bool all_ok = run_instrumented(per_million);
    const AllocCounts delta = ThreadAllocCounts() - before;
    ASSERT_TRUE(all_ok);
    EXPECT_EQ(delta.allocations, 0u)
        << "sampling " << per_million << "/1e6: " << delta.bytes
        << " bytes allocated in instrumented steady state";
  }
  EXPECT_GT(log.total_recorded(), 0u);
  EXPECT_GT(kind_stats.Snapshot().nodes_visited, 0u);
}

// Batch path under 100% sampling: the whole batch is one "query" from the
// service's perspective, so the trace context is armed across it.
TEST(ZeroAllocTest, InstrumentedBatchKnnIsAllocationFree) {
  Fixture f;
  QueryScratch<2> scratch;
  BatchKnnResult batch;
  KnnOptions options;
  options.k = 10;
  obs::TraceContext trace_ctx;

  scratch.trace = &trace_ctx;
  trace_ctx.Reset();
  ASSERT_TRUE(KnnSearchBatch<2>(*f.tree, f.queries.data(), f.queries.size(),
                                options, &scratch, &batch)
                  .ok());

  const AllocCounts before = ThreadAllocCounts();
  trace_ctx.Reset();
  Status status = KnnSearchBatch<2>(*f.tree, f.queries.data(),
                                    f.queries.size(), options, &scratch,
                                    &batch);
  const AllocCounts delta = ThreadAllocCounts() - before;
  scratch.trace = nullptr;
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(delta.allocations, 0u)
      << delta.bytes << " bytes allocated in traced steady-state batch";
  uint64_t traced_nodes = 0;
  for (int l = 0; l < obs::kTraceMaxLevels; ++l) {
    traced_nodes += trace_ctx.nodes_per_level[l];
  }
  EXPECT_GT(traced_nodes, 0u);
}

// The resident tier's headline contract: a query over the compiled arena
// performs zero steady-state allocations — same discipline as the paged
// path, minus even the buffer-pool bookkeeping. One compile, then every
// traversal is pointer-chasing through preallocated planes.
TEST(ZeroAllocTest, ResidentKnnSearchIntoIsAllocationFreeWhenWarm) {
  Fixture f;
  auto resident =
      ResidentTree<2>::Compile(&f.pool, f.tree->root_page(), f.tree->size(),
                               {});
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  QueryScratch<2> scratch;
  std::vector<Neighbor> out;
  QueryStats stats;

  for (uint32_t k : {1u, 10u}) {
    KnnOptions options;
    options.k = k;
    for (const Point2& q : f.queries) {
      ASSERT_TRUE(
          KnnSearchInto<2>(*resident, q, options, &scratch, &out, &stats)
              .ok());
    }

    const AllocCounts before = ThreadAllocCounts();
    bool all_ok = true;
    for (const Point2& q : f.queries) {
      all_ok &=
          KnnSearchInto<2>(*resident, q, options, &scratch, &out, &stats).ok();
    }
    const AllocCounts delta = ThreadAllocCounts() - before;
    ASSERT_TRUE(all_ok);
    EXPECT_EQ(delta.allocations, 0u)
        << "resident k=" << k << ": " << delta.bytes
        << " bytes allocated in steady state";
  }
}

// Constrained kNN is KnnSearchInto with a window: the window filter
// compacts the survivor indices in place, so a warm windowed search
// allocates nothing on either tier, observed or not.
TEST(ZeroAllocTest, WindowedKnnSearchIntoIsAllocationFreeWhenWarm) {
  Fixture f;
  auto resident =
      ResidentTree<2>::Compile(&f.pool, f.tree->root_page(), f.tree->size(),
                               {});
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  std::vector<Rect2> windows;
  for (const Point2& q : f.queries) {
    windows.push_back(Rect2::FromCorners({{q[0] + 0.05, q[1] - 0.1}},
                                         {{q[0] + 0.25, q[1] + 0.1}}));
  }
  QueryScratch<2> scratch;
  std::vector<Neighbor> out;
  QueryStats stats;

  const TreeView<2> tiers[] = {*f.tree, *resident};
  for (int tier = 0; tier < 2; ++tier) {
    for (uint32_t k : {1u, 10u}) {
      KnnOptions options;
      options.k = k;
      auto run = [&]() {
        bool all_ok = true;
        for (size_t i = 0; i < f.queries.size(); ++i) {
          all_ok &= KnnSearchInto<2>(tiers[tier], f.queries[i], options,
                                     &scratch, &out, &stats, &windows[i])
                        .ok();
          all_ok &= KnnSearchInto<2>(tiers[tier], f.queries[i], options,
                                     &scratch, &out, nullptr, &windows[i])
                        .ok();
        }
        return all_ok;
      };
      ASSERT_TRUE(run());

      const AllocCounts before = ThreadAllocCounts();
      const bool all_ok = run();
      const AllocCounts delta = ThreadAllocCounts() - before;
      ASSERT_TRUE(all_ok);
      EXPECT_EQ(delta.allocations, 0u)
          << (tier == 0 ? "paged" : "resident") << " k=" << k << ": "
          << delta.bytes << " bytes allocated in steady state";
    }
  }
}

TEST(ZeroAllocTest, ResidentBatchKnnSteadyStateIsAllocationFree) {
  Fixture f;
  auto resident =
      ResidentTree<2>::Compile(&f.pool, f.tree->root_page(), f.tree->size(),
                               {});
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  QueryScratch<2> scratch;
  BatchKnnResult batch;
  KnnOptions options;
  options.k = 10;

  ASSERT_TRUE(KnnSearchBatch<2>(*resident, f.queries.data(), f.queries.size(),
                                options, &scratch, &batch)
                  .ok());

  const AllocCounts before = ThreadAllocCounts();
  Status status = KnnSearchBatch<2>(*resident, f.queries.data(),
                                    f.queries.size(), options, &scratch,
                                    &batch);
  const AllocCounts delta = ThreadAllocCounts() - before;
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(delta.allocations, 0u)
      << delta.bytes << " bytes allocated in resident steady-state batch";
}

TEST(ZeroAllocTest, ResidentIncrementalScanIsAllocationFreeWhenWarm) {
  Fixture f;
  auto resident =
      ResidentTree<2>::Compile(&f.pool, f.tree->root_page(), f.tree->size(),
                               {});
  ASSERT_TRUE(resident.ok()) << resident.status().ToString();
  QueryScratch<2> scratch;
  QueryStats stats;

  auto run_scans = [&]() -> size_t {
    size_t produced = 0;
    for (const Point2& q : f.queries) {
      IncrementalKnn<2> scan(*resident, q, &scratch, &stats);
      for (int i = 0; i < 16; ++i) {
        auto next = scan.Next();
        if (!next.ok() || !next->has_value()) return produced;
        ++produced;
      }
    }
    return produced;
  };
  ASSERT_EQ(run_scans(), f.queries.size() * 16);

  const AllocCounts before = ThreadAllocCounts();
  const size_t produced = run_scans();
  const AllocCounts delta = ThreadAllocCounts() - before;
  EXPECT_EQ(produced, f.queries.size() * 16);
  EXPECT_EQ(delta.allocations, 0u)
      << delta.bytes << " bytes allocated across resident incremental scans";
}

TEST(ZeroAllocTest, IncrementalScanReusesScratchWithoutAllocating) {
  Fixture f;
  QueryScratch<2> scratch;
  QueryStats stats;

  // Warm pass identical to the measured pass, so the shared heap storage
  // reaches the exact high-water mark the measurement will need.
  auto run_scans = [&]() -> size_t {
    size_t produced = 0;
    for (const Point2& q : f.queries) {
      IncrementalKnn<2> scan(*f.tree, q, &scratch, &stats);
      for (int i = 0; i < 16; ++i) {
        auto next = scan.Next();
        if (!next.ok() || !next->has_value()) return produced;
        ++produced;
      }
    }
    return produced;
  };
  ASSERT_EQ(run_scans(), f.queries.size() * 16);

  const AllocCounts before = ThreadAllocCounts();
  const size_t produced = run_scans();
  const AllocCounts delta = ThreadAllocCounts() - before;
  EXPECT_EQ(produced, f.queries.size() * 16);
  EXPECT_EQ(delta.allocations, 0u)
      << delta.bytes << " bytes allocated across incremental scans";
}

// Run to completion: a warm Execute(kKnn) on an idle service claims a
// context and runs on the calling thread, so the tracker sees the whole
// query. It allocates its answer vector and nothing else: no promise,
// future or queue node. Both tiers.
TEST(ZeroAllocTest, InlineExecuteAllocatesOnlyItsAnswer) {
  Rng rng(406);
  const auto data =
      MakePointEntries(GenerateUniform<2>(8000, UnitBounds<2>(), &rng));
  SpatialDb<2>::Options db_options;
  db_options.page_size = 1024;
  auto db = SpatialDb<2>::CreateInMemory(db_options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db->BulkLoadData(data, BulkLoadMethod::kStr).ok());
  Rng qrng(407);
  const std::vector<Point2> queries =
      GenerateQueries<2>(data, 64, QueryDistribution::kUniform, 0.0, &qrng);
  constexpr uint32_t kK = 10;

  for (const bool resident : {true, false}) {
    QueryService<2>::Options options;
    options.num_workers = 1;
    options.frames_per_worker = 2048;  // the whole tree: no eviction
    options.resident_tier = resident;
    auto service = QueryService<2>::Attach(*db, options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    auto run = [&]() -> bool {
      bool all_ok = true;
      for (const Point2& q : queries) {
        all_ok &= (*service)->Execute(QueryRequest<2>::Knn(q, kK)).ok();
      }
      return all_ok;
    };
    ASSERT_TRUE(run());  // warm: scratch high-water mark, pool faulted in

    const uint64_t inline_before = (*service)->Snapshot().inline_runs;
    const AllocCounts before = ThreadAllocCounts();
    const bool all_ok = run();
    const AllocCounts delta = ThreadAllocCounts() - before;
    ASSERT_TRUE(all_ok);
    EXPECT_EQ((*service)->Snapshot().inline_runs - inline_before,
              queries.size());
    EXPECT_EQ(delta.allocations, queries.size())
        << (resident ? "resident" : "paged") << ": " << delta.bytes
        << " bytes in steady state";
    EXPECT_EQ(delta.bytes, queries.size() * kK * sizeof(Neighbor));
  }
}

}  // namespace
}  // namespace spatial
