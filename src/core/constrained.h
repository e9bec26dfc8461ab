#ifndef SPATIAL_CORE_CONSTRAINED_H_
#define SPATIAL_CORE_CONSTRAINED_H_

#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/knn.h"

namespace spatial {

// Constrained (region-restricted) k-NN: the k objects nearest to `query`
// among those whose MBRs intersect `region` — "the 5 closest restaurants
// inside the currently visible map window". It is the depth-first search
// of KnnSearchInto with `region` as its window: a subtree is skipped when
// it cannot beat the k-th candidate *or* cannot intersect the region.
// `tree` is either tier.
//
// Options that apply: k, ordering, use_s3 and max_distance, as for plain
// kNN. use_s1 and use_s2 are ignored (the object MINMAXDIST
// promises may lie outside the region), and a nonzero epsilon or
// max_visits is InvalidArgument. Returns fewer than k neighbors when the
// region holds fewer than k objects within max_distance.
//
// Allocates a scratch and the answer per call; a serving loop calls
// KnnSearchInto with a window on a reused scratch instead.
template <int D>
Result<std::vector<Neighbor>> ConstrainedKnnSearch(TreeView<D> tree,
                                                   const Point<D>& query,
                                                   const Rect<D>& region,
                                                   const KnnOptions& options,
                                                   QueryStats* stats) {
  QueryScratch<D> scratch;
  std::vector<Neighbor> out;
  SPATIAL_RETURN_IF_ERROR(
      KnnSearchInto<D>(tree, query, options, &scratch, &out, stats, &region));
  return out;
}

}  // namespace spatial

#endif  // SPATIAL_CORE_CONSTRAINED_H_
