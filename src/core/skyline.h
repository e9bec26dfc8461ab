#ifndef SPATIAL_CORE_SKYLINE_H_
#define SPATIAL_CORE_SKYLINE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/node_access.h"
#include "core/query_stats.h"
#include "core/scratch.h"
#include "geom/metrics.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "rtree/entry.h"

namespace spatial {

// Spatial nearest-neighbor skyline (arXiv:1112.2336): given m source
// points, an object o is in the skyline iff no other object o' has
// dist(o', s_i) <= dist(o, s_i) for every source s_i with at least one
// strict inequality. The result is the set of "best compromise" objects
// between the sources (m = 1 degenerates to the nearest object plus its
// distance ties).
//
// Implementation: incremental distance browsing ordered by the *sum* of
// per-source squared MINDISTs plus a dominance filter. Because dominance
// implies a strictly smaller sum, objects are popped after every object
// that could dominate them, so testing each popped object against the
// current skyline set is exact; a node is pruned iff some skyline member
// dominates the node's per-source MINDIST vector (then it dominates every
// object inside). Exact for all combinations, both tiers, D = 2..4.

// True iff distance vector a (n entries) dominates b: a[i] <= b[i] for
// all i with at least one strict. Shared by the core filter, the router's
// cross-shard re-merge, and the brute-force test reference.
inline bool SkylineDominates(const double* a, const double* b, size_t n) {
  bool strict = false;
  for (size_t i = 0; i < n; ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strict = true;
  }
  return strict;
}

// Canonical per-source squared-distance vector of a box, in source order
// with the scalar MINDIST expression — the batch kernels are bit-identical
// to it, so core, router, and reference all derive the same doubles (the
// cross-shard byte-identity of skyline answers rests on this).
template <int D>
inline void SkylineDistVector(const Point<D>* sources, size_t num_sources,
                              const Rect<D>& mbr, double* out) {
  for (size_t i = 0; i < num_sources; ++i) {
    out[i] = MinDistSq(sources[i], mbr);
  }
}

// The browse / output ordering key: sum of the per-source squared
// distances, accumulated in source order.
template <int D>
inline double SkylineDistSum(const Point<D>* sources, size_t num_sources,
                             const Rect<D>& mbr) {
  double sum = 0.0;
  for (size_t i = 0; i < num_sources; ++i) {
    sum += MinDistSq(sources[i], mbr);
  }
  return sum;
}

// Computes the NN skyline of `tree` (either tier) for the given sources.
// `out` (cleared first) receives the skyline objects with their MBRs,
// sorted by ascending (distance-sum, id). Zero steady-state allocations
// when `scratch` and `out` are reused across queries. `stats` may be null.
template <int D>
Status NnSkylineSearch(TreeView<D> tree, const Point<D>* sources,
                       size_t num_sources, QueryScratch<D>* scratch,
                       std::vector<Entry<D>>* out, QueryStats* stats);

extern template Status NnSkylineSearch<2>(TreeView<2>, const Point<2>*,
                                          size_t, QueryScratch<2>*,
                                          std::vector<Entry<2>>*,
                                          QueryStats*);
extern template Status NnSkylineSearch<3>(TreeView<3>, const Point<3>*,
                                          size_t, QueryScratch<3>*,
                                          std::vector<Entry<3>>*,
                                          QueryStats*);
extern template Status NnSkylineSearch<4>(TreeView<4>, const Point<4>*,
                                          size_t, QueryScratch<4>*,
                                          std::vector<Entry<4>>*,
                                          QueryStats*);

}  // namespace spatial

#endif  // SPATIAL_CORE_SKYLINE_H_
