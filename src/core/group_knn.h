#ifndef SPATIAL_CORE_GROUP_KNN_H_
#define SPATIAL_CORE_GROUP_KNN_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/node_access.h"
#include "core/query_stats.h"
#include "geom/point.h"

namespace spatial {

// Aggregate function combining the distances from one object to every
// query point of the group.
enum class AggregateFn {
  kSum,  // minimize total travel ("meeting point" semantics)
  kMax,  // minimize the worst member's distance (minimax)
};

const char* AggregateFnName(AggregateFn fn);

// One answer of a group (aggregate) nearest-neighbor query. Unlike
// Neighbor, the distance here is the *aggregate of plain (non-squared)
// Euclidean distances* to all group members.
struct GroupNeighbor {
  uint64_t id = 0;
  double aggregate_dist = 0.0;
};

// Group k-nearest-neighbor search (Papadias et al.'s GNN problem): find the
// k objects minimizing agg(dist(o, q_1), ..., dist(o, q_m)) for a group of
// query points — e.g. the restaurant minimizing the friends' total travel.
//
// The branch-and-bound machinery of the SIGMOD'95 search generalizes
// directly: agg of the per-query MINDISTs lower-bounds the aggregate
// distance of every object in a subtree (both kSum and kMax are monotone),
// so the same best-first pruning applies. The search is a GeoBrowse
// (core/geo_browse.h) keyed by that aggregate; `tree` is either tier.
template <int D>
Result<std::vector<GroupNeighbor>> GroupKnnSearch(
    TreeView<D> tree, const std::vector<Point<D>>& group, uint32_t k,
    AggregateFn aggregate, QueryStats* stats);

extern template Result<std::vector<GroupNeighbor>> GroupKnnSearch<2>(
    TreeView<2>, const std::vector<Point<2>>&, uint32_t, AggregateFn,
    QueryStats*);
extern template Result<std::vector<GroupNeighbor>> GroupKnnSearch<3>(
    TreeView<3>, const std::vector<Point<3>>&, uint32_t, AggregateFn,
    QueryStats*);

}  // namespace spatial

#endif  // SPATIAL_CORE_GROUP_KNN_H_
