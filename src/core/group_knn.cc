#include "core/group_knn.h"

#include <algorithm>
#include <cmath>

#include "core/geo_browse.h"
#include "geom/metrics_simd.h"

namespace spatial {

const char* AggregateFnName(AggregateFn fn) {
  switch (fn) {
    case AggregateFn::kSum:
      return "sum";
    case AggregateFn::kMax:
      return "max";
  }
  return "unknown";
}

namespace {

// The browse key: the aggregate of the (non-squared) MINDISTs from every
// group member to each staged box — a lower bound on the aggregate
// distance of any object in it, exact for point objects' own MBRs. The
// batch kernel produces the scalar MinDistSq bits, so keys match a
// per-entry loop exactly.
template <int D>
struct AggregateKey {
  const std::vector<Point<D>>* group;
  AggregateFn aggregate;
  QueryScratch<D>* scratch;
  QueryStats* stats;

  void operator()(const SoaBlock<D>& soa, double* keys) const {
    double* member = scratch->min_max_dist.EnsureCapacity(
        QueryScratch<D>::DistSlots(soa.n));
    std::fill(keys, keys + soa.n, 0.0);
    for (const Point<D>& q : *group) {
      MinDistSqBatchSoa(q, soa, member);
      for (uint32_t i = 0; i < soa.n; ++i) {
        const double d = std::sqrt(member[i]);
        keys[i] = aggregate == AggregateFn::kSum ? keys[i] + d
                                                 : std::max(keys[i], d);
      }
    }
    if (stats != nullptr) {
      stats->distance_computations += group->size() * uint64_t{soa.n};
    }
  }
};

}  // namespace

template <int D>
Result<std::vector<GroupNeighbor>> GroupKnnSearch(
    TreeView<D> tree, const std::vector<Point<D>>& group, uint32_t k,
    AggregateFn aggregate, QueryStats* stats) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (group.empty()) {
    return Status::InvalidArgument("query group must not be empty");
  }
  // Best-first over the aggregate lower bounds; popping an object proves
  // its aggregate distance minimal among everything unexplored.
  QueryScratch<D> scratch;
  std::vector<GroupNeighbor> results;
  SPATIAL_RETURN_IF_ERROR(tree.WithAccess([&](const auto& access) {
    GeoBrowse browse(access,
                     AggregateKey<D>{&group, aggregate, &scratch, stats},
                     &scratch, stats);
    browse.Start();
    GeoItem<D> item;
    while (results.size() < k && browse.Next(&item)) {
      if (item.is_object) {
        results.push_back(GroupNeighbor{item.id, item.dist_sq});
        continue;
      }
      SPATIAL_RETURN_IF_ERROR(browse.Expand(item));
    }
    return Status::OK();
  }));
  return results;
}

template Result<std::vector<GroupNeighbor>> GroupKnnSearch<2>(
    TreeView<2>, const std::vector<Point<2>>&, uint32_t, AggregateFn,
    QueryStats*);
template Result<std::vector<GroupNeighbor>> GroupKnnSearch<3>(
    TreeView<3>, const std::vector<Point<3>>&, uint32_t, AggregateFn,
    QueryStats*);

}  // namespace spatial
