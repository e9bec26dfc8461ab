// E17 — SIMD distance kernel throughput (SoA staging + runtime dispatch).
//
// Measures what the SoA SIMD kernels (geom/metrics_simd.h) buy over the
// scalar-batch engine they replaced, on a memory-resident STR-packed tree
// (cached-memory backend: the pool holds the whole tree, so the axis is
// pure CPU). Engines, all answering the same uniform kNN workload:
//
//   baseline   — the scalar-batch depth-first search exactly as it shipped
//                before the SoA kernels, compiled into this binary
//                verbatim: AoS staging + the auto-vectorized batch kernels
//                of geom/metrics.h.
//   scalar/sse2/avx2
//              — the production traversal with the kernel tier pinned
//                (tiers the build or CPU lacks are skipped). `scalar` is
//                the SoA scalar tier, i.e. the staging cost without the
//                vector payoff.
//   dispatched — KnnSearchInto as shipped: whatever tier the runtime
//                dispatch resolves on this host.
//
// Every engine's answers are checked bit-identical to baseline before
// timing. Reported per (D, k): queries/sec and speedup over baseline.
// Writes BENCH_E17.json for tools/bench_compare.py; `--smoke` runs a
// scaled-down configuration for ctest.
//
// Build note: this translation unit is compiled with -ffp-contract=off and
// without -march=native. The embedded baseline must execute the exact
// expression trees of the PR it snapshots; letting the compiler contract
// mul+add into FMA would change its rounding and break the bit-identity
// check against the intrinsic kernels (which deliberately never use FMA).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "bench_util/experiment.h"
#include "common/cpu_features.h"
#include "core/knn.h"
#include "exp_common.h"
#include "geom/metrics.h"
#include "geom/metrics_simd.h"
#include "rtree/bulk_load.h"
#include "rtree/node.h"
#include "storage/disk_manager.h"

namespace spatial {
namespace bench {
namespace {

constexpr double kMinMaxSlack = 1.0 + 1e-9;

inline bool MinDistLess(const AblSlot& a, const AblSlot& b) {
  if (a.min_dist_sq != b.min_dist_sq) return a.min_dist_sq < b.min_dist_sq;
  return a.child < b.child;
}

struct AblFrame {
  std::vector<AblSlot>* arena;
  size_t base;
  ~AblFrame() { arena->resize(base); }
};

// ---------------------------------------------------------------------------
// The baseline engine: the depth-first search as it shipped with the
// zero-allocation traversal core, before SoA staging — AoS entry staging
// and the scalar batch kernels of geom/metrics.h.
// ---------------------------------------------------------------------------
namespace baseline {

template <int D>
class DepthFirstKnn {
 public:
  DepthFirstKnn(const RTree<D>& tree, const Point<D>& query,
                const KnnOptions& options, QueryScratch<D>* scratch,
                AlignedArray<Entry<D>>* stage)
      : tree_(tree),
        query_(query),
        options_(options),
        scratch_(scratch),
        stage_(stage),
        s1_active_(options.use_s1 && options.k == 1),
        s2_active_(options.use_s2 && options.k == 1),
        lazy_heap_(options.ordering == AblOrdering::kMinDist &&
                   !options.force_full_sort) {}

  Status Run(std::vector<Neighbor>* out, bool append) {
    scratch_->buffer.Reset(options_.k);
    scratch_->abl.clear();
    SPATIAL_RETURN_IF_ERROR(Visit(tree_.root_page()));
    scratch_->buffer.ExtractSorted(out, append);
    return Status::OK();
  }

 private:
  double PruneBoundSq() const {
    double bound = std::numeric_limits<double>::infinity();
    if (options_.use_s3) {
      bound = std::min(bound, scratch_->buffer.WorstDistSq());
    }
    if (s2_active_) bound = std::min(bound, estimate_sq_);
    return bound;
  }

  Status VisitLeaf(const Entry<D>* entries, uint32_t n) {
    double* dist = scratch_->min_dist.EnsureCapacity(n);
    ObjectDistSqBatch<D>(query_, entries, n, dist);
    NeighborBuffer& buffer = scratch_->buffer;
    double bound_sq = PruneBoundSq();
    for (uint32_t i = 0; i < n; ++i) {
      if (dist[i] > bound_sq) continue;
      if (buffer.Offer(entries[i].id, dist[i])) bound_sq = PruneBoundSq();
    }
    return Status::OK();
  }

  Status Visit(PageId node_id) {
    SPATIAL_ASSIGN_OR_RETURN(PageHandle handle, tree_.pool()->Fetch(node_id));
    NodeView<D> view(handle.data(), tree_.pool()->page_size());
    if (!view.has_valid_magic()) {
      return Status::Corruption("knn: node page has bad magic");
    }
    const uint32_t n = view.count();
    if (n == 0) return Status::OK();
    if (view.is_leaf()) return VisitLeaf(view.entries(), n);

    Entry<D>* stage = stage_->EnsureCapacity(n);
    view.CopyEntries(stage);
    handle.Release();

    double* dmin = scratch_->min_dist.EnsureCapacity(n);
    MinDistSqBatch<D>(query_, stage, n, dmin);
    const bool need_minmax = s1_active_ || s2_active_ ||
                             options_.ordering == AblOrdering::kMinMaxDist;
    double* dminmax = nullptr;
    if (need_minmax) {
      dminmax = scratch_->min_max_dist.EnsureCapacity(n);
      MinMaxDistSqBatch<D>(query_, stage, n, dminmax);
    }

    std::vector<AblSlot>& abl = scratch_->abl;
    AblFrame frame{&abl, abl.size()};
    const size_t base = frame.base;
    for (uint32_t i = 0; i < n; ++i) {
      abl.push_back(AblSlot{static_cast<PageId>(stage[i].id), dmin[i],
                            need_minmax ? dminmax[i] : 0.0});
    }

    if (s1_active_ || s2_active_) {
      double min_minmax = std::numeric_limits<double>::infinity();
      for (size_t i = base; i < abl.size(); ++i) {
        min_minmax = std::min(min_minmax, abl[i].min_max_dist_sq);
      }
      if (s1_active_) {
        const double s1_bound = min_minmax * kMinMaxSlack;
        size_t kept = base;
        for (size_t i = base; i < abl.size(); ++i) {
          if (abl[i].min_dist_sq <= s1_bound) abl[kept++] = abl[i];
        }
        abl.resize(kept);
      }
      if (s2_active_ && min_minmax * kMinMaxSlack < estimate_sq_) {
        estimate_sq_ = min_minmax * kMinMaxSlack;
      }
    }
    const size_t m = abl.size() - base;

    if (lazy_heap_) {
      const auto greater = [](const AblSlot& a, const AblSlot& b) {
        return MinDistLess(b, a);
      };
      std::make_heap(abl.begin() + base, abl.end(), greater);
      size_t live = m;
      while (live > 0) {
        std::pop_heap(abl.begin() + base, abl.begin() + base + live, greater);
        const AblSlot slot = abl[base + --live];
        if (slot.min_dist_sq > PruneBoundSq()) break;
        SPATIAL_RETURN_IF_ERROR(Visit(slot.child));
      }
      return Status::OK();
    }

    switch (options_.ordering) {
      case AblOrdering::kMinDist:
        std::sort(abl.begin() + base, abl.end(),
                  [](const AblSlot& a, const AblSlot& b) {
                    return MinDistLess(a, b);
                  });
        break;
      case AblOrdering::kMinMaxDist:
        std::sort(abl.begin() + base, abl.end(),
                  [](const AblSlot& a, const AblSlot& b) {
                    if (a.min_max_dist_sq != b.min_max_dist_sq) {
                      return a.min_max_dist_sq < b.min_max_dist_sq;
                    }
                    return a.child < b.child;
                  });
        break;
      case AblOrdering::kNone:
        break;
    }

    for (size_t i = 0; i < m; ++i) {
      const AblSlot slot = abl[base + i];
      if (slot.min_dist_sq > PruneBoundSq()) continue;
      SPATIAL_RETURN_IF_ERROR(Visit(slot.child));
    }
    return Status::OK();
  }

  const RTree<D>& tree_;
  const Point<D> query_;
  const KnnOptions options_;
  QueryScratch<D>* scratch_;
  AlignedArray<Entry<D>>* stage_;  // one internal node's AoS entries
  const bool s1_active_;
  const bool s2_active_;
  const bool lazy_heap_;
  double estimate_sq_ = std::numeric_limits<double>::infinity();
};

template <int D>
Status Search(const RTree<D>& tree, const Point<D>& query,
              const KnnOptions& options, QueryScratch<D>* scratch,
              AlignedArray<Entry<D>>* stage, std::vector<Neighbor>* out) {
  out->clear();
  if (tree.empty()) return Status::OK();
  DepthFirstKnn<D> search(tree, query, options, scratch, stage);
  return search.Run(out, /*append=*/false);
}

}  // namespace baseline

// ---------------------------------------------------------------------------
// The pinned engine: the production SoA traversal with the kernel set
// passed explicitly, so one process can time every built tier side by side
// (the real dispatch pins its tier once per process).
// ---------------------------------------------------------------------------
namespace pinned {

template <int D>
class DepthFirstKnn {
 public:
  DepthFirstKnn(const RTree<D>& tree, const Point<D>& query,
                const KnnOptions& options, const SoaKernelSet& set,
                QueryScratch<D>* scratch)
      : tree_(tree),
        query_(query),
        options_(options),
        set_(set),
        scratch_(scratch),
        s1_active_(options.use_s1 && options.k == 1),
        s2_active_(options.use_s2 && options.k == 1),
        lazy_heap_(options.ordering == AblOrdering::kMinDist &&
                   !options.force_full_sort) {}

  Status Run(std::vector<Neighbor>* out, bool append) {
    scratch_->buffer.Reset(options_.k);
    scratch_->abl.clear();
    SPATIAL_RETURN_IF_ERROR(Visit(tree_.root_page()));
    scratch_->buffer.ExtractSorted(out, append);
    return Status::OK();
  }

 private:
  double PruneBoundSq() const {
    double bound = std::numeric_limits<double>::infinity();
    if (options_.use_s3) {
      bound = std::min(bound, scratch_->buffer.WorstDistSq());
    }
    if (s2_active_) bound = std::min(bound, estimate_sq_);
    return bound;
  }

  // StageSoa through the pinned tier's transpose kernel (QueryScratch's
  // StageSoa would route through the process-wide dispatch).
  SoaBlock<D> Stage(const Entry<D>* entries, uint32_t n) {
    const size_t stride = SoaStride(n);
    double* planes = scratch_->soa.EnsureCapacity(SoaDoubles(D, n));
    set_.transpose(entries, sizeof(Entry<D>), n, planes, stride);
    return SoaBlock<D>{planes, stride, n};
  }

  Status VisitLeaf(const Entry<D>* entries, uint32_t n) {
    const SoaBlock<D> soa = Stage(entries, n);
    double* dist =
        scratch_->min_dist.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    set_.object_dist(query_.coord.data(), soa.planes, soa.stride, soa.n, dist);
    NeighborBuffer& buffer = scratch_->buffer;
    double bound_sq = PruneBoundSq();
    uint32_t* idx =
        scratch_->filter_idx.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    const uint32_t kept = set_.filter_not_above(dist, n, bound_sq, idx);
    for (uint32_t j = 0; j < kept; ++j) {
      const uint32_t i = idx[j];
      if (dist[i] > bound_sq) continue;
      if (buffer.Offer(entries[i].id, dist[i])) bound_sq = PruneBoundSq();
    }
    return Status::OK();
  }

  Status Visit(PageId node_id) {
    SPATIAL_ASSIGN_OR_RETURN(PageHandle handle, tree_.pool()->Fetch(node_id));
    NodeView<D> view(handle.data(), tree_.pool()->page_size());
    if (!view.has_valid_magic()) {
      return Status::Corruption("knn: node page has bad magic");
    }
    const uint32_t n = view.count();
    if (n == 0) return Status::OK();
    if (view.is_leaf()) return VisitLeaf(view.entries(), n);

    const Entry<D>* page_entries = view.entries();
    const SoaBlock<D> soa = Stage(page_entries, n);
    uint64_t* child_ids = scratch_->child_ids.EnsureCapacity(n);
    for (uint32_t i = 0; i < n; ++i) child_ids[i] = page_entries[i].id;
    handle.Release();

    double* dmin =
        scratch_->min_dist.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    const bool need_minmax = s1_active_ || s2_active_ ||
                             options_.ordering == AblOrdering::kMinMaxDist;
    double* dminmax = nullptr;
    if (need_minmax) {
      dminmax =
          scratch_->min_max_dist.EnsureCapacity(QueryScratch<D>::DistSlots(n));
      set_.min_and_min_max(query_.coord.data(), soa.planes, soa.stride, soa.n,
                           dmin, dminmax);
    } else {
      set_.min_dist(query_.coord.data(), soa.planes, soa.stride, soa.n, dmin);
    }

    std::vector<AblSlot>& abl = scratch_->abl;
    AblFrame frame{&abl, abl.size()};
    const size_t base = frame.base;
    uint32_t* idx =
        scratch_->filter_idx.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    bool pushed = false;
    if (s1_active_ || s2_active_) {
      double min_minmax = std::numeric_limits<double>::infinity();
      for (uint32_t i = 0; i < n; ++i) {
        min_minmax = std::min(min_minmax, dminmax[i]);
      }
      if (s1_active_) {
        const double s1_bound = min_minmax * kMinMaxSlack;
        const uint32_t kept = set_.filter_not_above(dmin, n, s1_bound, idx);
        for (uint32_t j = 0; j < kept; ++j) {
          const uint32_t i = idx[j];
          abl.push_back(AblSlot{static_cast<PageId>(child_ids[i]), dmin[i],
                                dminmax[i]});
        }
        pushed = true;
      }
      if (s2_active_ && min_minmax * kMinMaxSlack < estimate_sq_) {
        estimate_sq_ = min_minmax * kMinMaxSlack;
      }
    }
    if (!pushed) {
      const double bound_sq = PruneBoundSq();
      const uint32_t kept = set_.filter_not_above(dmin, n, bound_sq, idx);
      for (uint32_t j = 0; j < kept; ++j) {
        const uint32_t i = idx[j];
        abl.push_back(AblSlot{static_cast<PageId>(child_ids[i]), dmin[i],
                              need_minmax ? dminmax[i] : 0.0});
      }
    }
    const size_t m = abl.size() - base;

    if (lazy_heap_) {
      size_t live = m;
      while (live > 0) {
        AblSlot* slots = abl.data() + base;
        size_t best = 0;
        for (size_t i = 1; i < live; ++i) {
          if (MinDistLess(slots[i], slots[best])) best = i;
        }
        const AblSlot slot = slots[best];
        if (slot.min_dist_sq > PruneBoundSq()) break;
        slots[best] = slots[--live];
        SPATIAL_RETURN_IF_ERROR(Visit(slot.child));
      }
      return Status::OK();
    }

    for (size_t i = 0; i < m; ++i) {
      const AblSlot slot = abl[base + i];
      if (slot.min_dist_sq > PruneBoundSq()) continue;
      SPATIAL_RETURN_IF_ERROR(Visit(slot.child));
    }
    return Status::OK();
  }

  const RTree<D>& tree_;
  const Point<D> query_;
  const KnnOptions options_;
  const SoaKernelSet& set_;
  QueryScratch<D>* scratch_;
  const bool s1_active_;
  const bool s2_active_;
  const bool lazy_heap_;
  double estimate_sq_ = std::numeric_limits<double>::infinity();
};

template <int D>
Status Search(const RTree<D>& tree, const Point<D>& query,
              const KnnOptions& options, const SoaKernelSet& set,
              QueryScratch<D>* scratch, std::vector<Neighbor>* out) {
  out->clear();
  if (tree.empty()) return Status::OK();
  DepthFirstKnn<D> search(tree, query, options, set, scratch);
  return search.Run(out, /*append=*/false);
}

}  // namespace pinned

// ---------------------------------------------------------------------------

double Seconds(std::chrono::steady_clock::time_point a,
               std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Best-of-rounds throughput: every engine runs the same deterministic work
// each round, so the fastest pass is the least scheduler-disturbed one.
template <int D, typename Fn>
double TimeQps(const std::vector<Point<D>>& queries, size_t rounds, Fn&& fn) {
  for (const Point<D>& q : queries) fn(q);  // warm: arenas + buffer pool
  double best_seconds = std::numeric_limits<double>::infinity();
  for (size_t r = 0; r < rounds; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const Point<D>& q : queries) fn(q);
    const auto t1 = std::chrono::steady_clock::now();
    best_seconds = std::min(best_seconds, Seconds(t0, t1));
  }
  return static_cast<double>(queries.size()) / best_seconds;
}

template <int D>
struct Workload {
  Workload(size_t n_points, size_t n_queries, uint32_t frames)
      : disk(kPageSize), pool(&disk, frames) {
    Rng rng(kDataSeed);
    data = MakePointEntries(GenerateUniform<D>(n_points, UnitBounds<D>(), &rng));
    auto loaded = BulkLoad<D>(&pool, RTreeOptions{}, data, BulkLoadMethod::kStr);
    UnwrapStatus(loaded.status(), "bulk load");
    tree.emplace(std::move(loaded).value());
    Rng qrng(kQuerySeed);
    queries = GenerateQueries<D>(data, n_queries, QueryDistribution::kUniform,
                                 0.0, &qrng);
  }

  DiskManager disk;
  BufferPool pool;
  std::vector<Entry<D>> data;
  std::optional<RTree<D>> tree;
  std::vector<Point<D>> queries;
};

// Asserts `got` equals `want` bit for bit (ids and distances).
void CheckAnswers(const std::vector<Neighbor>& got,
                  const std::vector<Neighbor>& want, const char* engine,
                  int dims, uint32_t k) {
  if (got.size() != want.size() ||
      (!got.empty() && std::memcmp(got.data(), want.data(),
                                   got.size() * sizeof(Neighbor)) != 0)) {
    std::fprintf(stderr,
                 "E17: %s diverged from baseline at D=%d k=%u "
                 "(sizes %zu vs %zu)\n",
                 engine, dims, k, got.size(), want.size());
    for (size_t i = 0; i < got.size() && i < want.size(); ++i) {
      if (got[i].id != want[i].id || got[i].dist_sq != want[i].dist_sq) {
        std::fprintf(stderr, "  rank %zu: id %llu vs %llu, dist %.17g vs %.17g\n",
                     i, (unsigned long long)got[i].id,
                     (unsigned long long)want[i].id, got[i].dist_sq,
                     want[i].dist_sq);
      }
    }
    std::exit(1);
  }
}

constexpr KernelIsa kTiers[] = {KernelIsa::kScalar, KernelIsa::kSse2,
                                KernelIsa::kAvx2};

template <int D>
void RunDimension(size_t n_points, size_t n_queries, size_t rounds,
                  uint32_t frames, Table* table,
                  std::vector<std::pair<std::string, double>>* json) {
  Workload<D> w(n_points, n_queries, frames);
  const RTree<D>& tree = *w.tree;

  for (uint32_t k : {1u, 10u}) {
    KnnOptions options;
    options.k = k;
    QueryScratch<D> scratch;
    AlignedArray<Entry<D>> baseline_stage;
    std::vector<Neighbor> want, got;

    // Answers first: every engine must reproduce baseline bit for bit.
    for (const Point<D>& q : w.queries) {
      UnwrapStatus(baseline::Search<D>(tree, q, options, &scratch,
                                       &baseline_stage, &want),
                   "baseline knn");
      UnwrapStatus(KnnSearchInto<D>(tree, q, options, &scratch, &got, nullptr),
                   "dispatched knn");
      CheckAnswers(got, want, "dispatched", D, k);
      for (KernelIsa tier : kTiers) {
        const SoaKernelSet* set = SoaKernelSetFor(D, tier);
        if (set == nullptr || !CpuSupportsKernelIsa(tier)) continue;
        UnwrapStatus(
            pinned::Search<D>(tree, q, options, *set, &scratch, &got),
            "pinned knn");
        CheckAnswers(got, want, KernelIsaName(tier), D, k);
      }
    }

    const double base_qps =
        TimeQps<D>(w.queries, rounds, [&](const Point<D>& q) {
          UnwrapStatus(baseline::Search<D>(tree, q, options, &scratch,
                                           &baseline_stage, &got),
                       "baseline knn");
        });

    struct Row {
      std::string name;
      double qps;
    };
    std::vector<Row> rows;
    rows.push_back({"baseline", base_qps});
    for (KernelIsa tier : kTiers) {
      const SoaKernelSet* set = SoaKernelSetFor(D, tier);
      if (set == nullptr || !CpuSupportsKernelIsa(tier)) continue;
      rows.push_back(
          {KernelIsaName(tier),
           TimeQps<D>(w.queries, rounds, [&](const Point<D>& q) {
             UnwrapStatus(
                 pinned::Search<D>(tree, q, options, *set, &scratch, &got),
                 "pinned knn");
           })});
    }
    rows.push_back(
        {"dispatched", TimeQps<D>(w.queries, rounds, [&](const Point<D>& q) {
           UnwrapStatus(
               KnnSearchInto<D>(tree, q, options, &scratch, &got, nullptr),
               "dispatched knn");
         })});

    for (const Row& row : rows) {
      const double speedup = row.qps / base_qps;
      table->AddRow({FmtInt(D), std::to_string(k), row.name,
                     FmtDouble(row.qps, 0), FmtDouble(speedup, 2)});
      const std::string suffix =
          "_" + row.name + "_d" + std::to_string(D) + "_k" + std::to_string(k);
      json->emplace_back("qps" + suffix, row.qps);
      json->emplace_back("speedup" + suffix, speedup);
    }
  }
}

void Main(bool smoke) {
  const size_t n_points = smoke ? 4000 : 100000;
  const size_t n_queries = smoke ? 64 : 2000;
  const size_t rounds = smoke ? 1 : 5;
  const uint32_t frames = 8192;  // covers the whole tree at every D

  PrintHeader("E17", "SIMD distance kernels (SoA staging + runtime dispatch)");
  std::printf("%zu uniform points, STR-packed, %zu queries x %zu rounds, "
              "dispatch resolves to %s%s\n\n",
              n_points, n_queries, rounds, KernelIsaName(ActiveKernelIsa()),
              smoke ? " [smoke]" : "");

  std::vector<std::pair<std::string, double>> json;
  Table table({"D", "k", "engine", "qps", "speedup"});
  RunDimension<2>(n_points, n_queries, rounds, frames, &table, &json);
  RunDimension<3>(n_points, n_queries, rounds, frames, &table, &json);
  RunDimension<4>(n_points, n_queries, rounds, frames, &table, &json);
  PrintTableAndCsv(table);

  const char* json_path =
      smoke ? "/tmp/BENCH_E17_smoke.json" : "BENCH_E17.json";
  WriteBenchJson(json_path, json, /*update_manifest=*/!smoke);
  std::printf("wrote %s\n", json_path);
}

}  // namespace
}  // namespace bench
}  // namespace spatial

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  spatial::bench::Main(smoke);
  return 0;
}
