#ifndef SPATIAL_CORE_GEO_BROWSE_H_
#define SPATIAL_CORE_GEO_BROWSE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/result.h"
#include "core/node_access.h"
#include "core/query_stats.h"
#include "core/scratch.h"
#include "geom/rect.h"

namespace spatial {

// Geometry-preserving incremental distance browse, shared by the
// incremental k-NN iterator, group k-NN, reverse k-NN and the NN skyline:
// the searches that do not know their k up front, key entries by more
// than one query point, or need the popped box *after* the node holding
// it is gone (sector assignment, per-source dominance tests). A k-NN
// search with a fixed k runs the kNN engine's best-first order
// (core/knn.h) instead, which queues no objects and no boxes.
//
// Runs on either tier through a node-access policy (core/node_access.h),
// keeps all queue state in the scratch arena (zero steady-state
// allocations), and computes keys with the batch kernel the caller
// supplies, so one node expansion prices all entries in one pass.
//
// Next() surfaces *both* nodes and objects: the caller decides per popped
// node whether to descend (Expand) or prune it, which is what makes the
// skyline's dominance pruning possible.
//
// The queue lives in scratch->geo_heap (the boxes in geo_boxes), not in
// the browse object: Start() seeds it with the root, and a browse
// constructed later over the same scratch resumes it (IncrementalKnn
// builds one per Next() call).
//
// KeyFn signature: void(const SoaBlock<D>& soa, double* keys) — fills
// keys[0..soa.n) with the key of each staged entry and charges its own
// distance_computations. A node's key must lower-bound the keys of
// everything below it: MINDIST^2 for the distance browse, an aggregate of
// per-source MINDISTs for group k-NN.
template <int D, class Access, class KeyFn>
class GeoBrowse {
 public:
  GeoBrowse(const Access& access, KeyFn key, QueryScratch<D>* scratch,
            QueryStats* stats)
      : access_(access),
        key_(std::move(key)),
        scratch_(scratch),
        stats_(stats) {}

  // Starts a new browse: the queue holds just the root (nothing for an
  // empty tree).
  void Start() {
    scratch_->geo_heap.clear();
    scratch_->geo_boxes.clear();
    scratch_->geo_free_boxes.clear();
    if (!access_.empty()) {
      scratch_->geo_boxes.push_back(Rect<D>::Empty());
      scratch_->geo_heap.push_back(
          GeoHeapEntry{0.0, /*is_object=*/false, 0, access_.root_page()});
      if (stats_ != nullptr) ++stats_->heap_pushes;
    }
  }

  // Pops the item with the smallest key (node or object) into *out.
  // Returns false when the queue is exhausted. Keys of popped items are
  // nondecreasing as long as the caller only Expands popped nodes.
  bool Next(GeoItem<D>* out) {
    std::vector<GeoHeapEntry>& heap = scratch_->geo_heap;
    if (heap.empty()) return false;
    std::pop_heap(heap.begin(), heap.end());
    const GeoHeapEntry top = heap.back();
    heap.pop_back();
    *out = GeoItem<D>{top.dist_sq, top.is_object, top.id,
                      scratch_->geo_boxes[top.box]};
    scratch_->geo_free_boxes.push_back(top.box);
    if (stats_ != nullptr) ++stats_->heap_pops;
    return true;
  }

  // Descends a node previously returned by Next: expands it and enqueues
  // its children (or objects) with their keys and geometry. Kept out of
  // line: inlined into the incremental scan's per-Next loop, the loop
  // measured ~10% slower.
  [[gnu::noinline]] Status Expand(const GeoItem<D>& item) {
    typename Access::Node storage;
    const typename Access::Node* node_ptr = nullptr;
    SPATIAL_RETURN_IF_ERROR(access_.Expand(static_cast<PageId>(item.id),
                                           scratch_, &storage, &node_ptr));
    const typename Access::Node& node = *node_ptr;
    if (stats_ != nullptr) {
      ++stats_->nodes_visited;
      if (node.is_leaf()) {
        ++stats_->leaf_nodes_visited;
      } else {
        ++stats_->internal_nodes_visited;
      }
    }
    if (obs::TraceContext* t = scratch_->trace) t->CountNode(node.level);
    const uint32_t n = node.count;
    if (n == 0) return Status::OK();

    const bool is_leaf = node.is_leaf();
    const auto& soa = NodeSoa(node);
    double* keys =
        scratch_->min_dist.EnsureCapacity(QueryScratch<D>::DistSlots(n));
    key_(soa, keys);
    if (stats_ != nullptr) {
      stats_->heap_pushes += n;
      if (is_leaf) {
        stats_->objects_examined += n;
      } else {
        stats_->abl_entries_generated += n;
      }
    }
    // The box geometry is read back out of the SoA planes — both tiers
    // expose them, and the plane values are the entry's exact lo/hi
    // doubles, so the reconstructed Rect is bit-exact. Slots of popped
    // entries are reused, so geo_boxes holds one box per queued entry at
    // its peak (a draining browse would otherwise keep one per entry it
    // ever pushed); 32-bit slot indices cover any queue under 2^32.
    std::vector<Rect<D>>& boxes = scratch_->geo_boxes;
    std::vector<uint32_t>& free_boxes = scratch_->geo_free_boxes;
    if (boxes.size() + n > std::numeric_limits<uint32_t>::max()) {
      return Status::ResourceExhausted("browse: more than 2^32 entries");
    }
    std::vector<GeoHeapEntry>& heap = scratch_->geo_heap;
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t slot;
      if (free_boxes.empty()) {
        slot = static_cast<uint32_t>(boxes.size());
        boxes.emplace_back();
      } else {
        slot = free_boxes.back();
        free_boxes.pop_back();
      }
      Rect<D>& box = boxes[slot];
      for (int d = 0; d < D; ++d) {
        box.lo[d] = soa.lo(d)[i];
        box.hi[d] = soa.hi(d)[i];
      }
      heap.push_back(GeoHeapEntry{keys[i], is_leaf, slot, node.id(i)});
      std::push_heap(heap.begin(), heap.end());
    }
    return Status::OK();
  }

 private:
  const Access access_;
  KeyFn key_;
  QueryScratch<D>* scratch_;
  QueryStats* stats_;
};

}  // namespace spatial

#endif  // SPATIAL_CORE_GEO_BROWSE_H_
