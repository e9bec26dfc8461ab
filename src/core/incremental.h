#ifndef SPATIAL_CORE_INCREMENTAL_H_
#define SPATIAL_CORE_INCREMENTAL_H_

#include <memory>
#include <optional>

#include "common/result.h"
#include "core/neighbor_buffer.h"
#include "core/node_access.h"
#include "core/query_stats.h"
#include "core/scratch.h"
#include "geom/point.h"

namespace spatial {

// Incremental ("distance browsing") nearest-neighbor iterator over an
// R-tree: a global best-first traversal driven by a priority queue mixing
// subtrees (keyed by MINDIST) and objects (keyed by their distance).
// Each Next() call yields the next-closest object; k is not fixed up front.
//
// This is the natural engineering extension of the SIGMOD'95 algorithm
// (later formalized by Hjaltason & Samet). A search that knows k up front
// runs BestFirstKnn (core/knn.h) instead, which visits the same nodes
// without queueing objects or their boxes.
//
// The iterator is a thin adapter over GeoBrowse (core/geo_browse.h): it
// keys entries by MINDIST, expands every node it pops and returns the
// objects. Equal-distance objects come out in ascending id order.
//
// The queue and the node-staging buffers live in a QueryScratch: pass one
// in to reuse its storage across queries (the query-service workers do), or
// use the scratch-less constructor and the iterator owns a private arena.
//
// `tree` is either tier — a paged RTree or a compiled ResidentTree
// (storage/resident_tree.h) — with bit-identical emission order. Each
// Next() call picks the tier's access policy once.
//
// The iterator borrows the tree (and `scratch` if given); it must not
// outlive them, and the tree must not be mutated while iterating. A shared
// scratch must not be used by another query until this iterator is done.
template <int D>
class IncrementalKnn {
 public:
  IncrementalKnn(TreeView<D> tree, const Point<D>& query, QueryStats* stats);
  IncrementalKnn(TreeView<D> tree, const Point<D>& query,
                 QueryScratch<D>* scratch, QueryStats* stats);

  // Returns the next-closest neighbor, or nullopt when exhausted.
  Result<std::optional<Neighbor>> Next();

 private:
  TreeView<D> tree_;
  Point<D> query_;
  QueryStats* stats_;
  std::unique_ptr<QueryScratch<D>> owned_scratch_;  // when none was passed
  QueryScratch<D>* scratch_;
};

extern template class IncrementalKnn<2>;
extern template class IncrementalKnn<3>;
extern template class IncrementalKnn<4>;

}  // namespace spatial

#endif  // SPATIAL_CORE_INCREMENTAL_H_
