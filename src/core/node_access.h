#ifndef SPATIAL_CORE_NODE_ACCESS_H_
#define SPATIAL_CORE_NODE_ACCESS_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/status.h"
#include "core/scratch.h"
#include "geom/metrics_simd.h"
#include "rtree/node.h"
#include "rtree/rtree.h"
#include "storage/resident_tree.h"

namespace spatial {

// One expanded paged node, in the exact form the traversals consume: the
// SoA planes the SIMD kernels read and an id column. Produced by
// PagedAccess::Expand; the resident tier hands out its ResidentNodeRef
// instead, which exposes the same count/level/id accessors, so one
// traversal source serves both tiers — which is what keeps the resident
// tier's answers and visit order bit-identical to the paged path.
//
// Id access is strided because the paged leaf path reads ids in place from
// the pinned page image (id embedded in Entry<D>), while internal nodes
// have a dense uint64_t column. Descent loops use dense_ids() directly.
template <int D>
struct ExpandedNode {
  SoaBlock<D> soa;
  const char* id_base = nullptr;
  size_t id_stride = 0;  // bytes between consecutive ids
  uint32_t count = 0;
  uint16_t level = 0;
  // Leaves only: the pin that keeps `id_base` (and soa.planes' source)
  // valid. Released with the ExpandedNode. Never held for internal nodes —
  // descent recursion must keep pin-depth at one frame.
  PageHandle pin;

  bool is_leaf() const { return level == 0; }

  uint64_t id(uint32_t i) const {
    uint64_t v;
    std::memcpy(&v, id_base + static_cast<size_t>(i) * id_stride, sizeof(v));
    return v;
  }

  // Dense id column; valid for internal nodes only.
  const uint64_t* dense_ids() const {
    return reinterpret_cast<const uint64_t*>(id_base);
  }
};

// The two compile-time node-access policies. Every traversal in core/ is
// templated on one of them, so the tier costs no branch per node visit:
// the resident instantiation compiles down to a table lookup with no
// staging and no PageHandle, the paged one to a buffer-pool fetch.
//
// Policy interface:
//   using Node;                      // ExpandedNode<D> or ResidentNodeRef<D>
//   PageId root_page() const; bool empty() const;
//   Status Expand(PageId id, QueryScratch<D>* scratch, Node* storage,
//                 const Node** out) const;
//   void Prefetch(PageId id) const;  // a hint; no-op when paged
//
// Expand points *out at the expanded node: at `storage` for the paged
// tier (which owns a leaf's pin), into the compiled arena for the resident
// one. Both policies borrow the tree they are built over and are built
// once per query (TreeView::WithAccess).

// Paged tier: fetch the page through the buffer pool, stage its SoA planes
// into the scratch arena and (for internal nodes) copy the child-id column
// out so the pin can drop before descent.
template <int D>
class PagedAccess {
 public:
  using Node = ExpandedNode<D>;

  explicit PagedAccess(const RTree<D>& tree)
      : pool_(tree.pool()),
        root_page_(tree.root_page()),
        empty_(tree.empty()) {}

  PageId root_page() const { return root_page_; }
  bool empty() const { return empty_; }

  Status Expand(PageId id, QueryScratch<D>* scratch, Node* storage,
                const Node** out) const {
    *out = storage;
    SPATIAL_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(id));
    NodeView<D> view(handle.data(), pool_->page_size());
    if (!view.has_valid_magic()) {
      return Status::Corruption("node page has bad magic");
    }
    const uint32_t n = view.count();
    storage->count = n;
    storage->level = view.level();
    if (n == 0) return Status::OK();
    const Entry<D>* page_entries = view.entries();
    storage->soa = scratch->StageSoa(page_entries, n);
    if (view.is_leaf()) {
      // Leaves recurse no further: hold the pin and read ids in place.
      storage->id_base = reinterpret_cast<const char*>(page_entries) +
                         offsetof(Entry<D>, id);
      storage->id_stride = sizeof(Entry<D>);
      storage->pin = std::move(handle);
    } else {
      // Internal nodes: copy the one column descent needs, then drop the
      // pin so pin-depth stays at one frame however deep the tree.
      uint64_t* child_ids = scratch->child_ids.EnsureCapacity(n);
      for (uint32_t i = 0; i < n; ++i) child_ids[i] = page_entries[i].id;
      storage->id_base = reinterpret_cast<const char*>(child_ids);
      storage->id_stride = sizeof(uint64_t);
    }
    return Status::OK();
  }

  void Prefetch(PageId) const {}

 private:
  BufferPool* pool_;
  PageId root_page_;
  bool empty_;
};

// Resident tier: one table lookup — the planes and ids already sit in the
// compiled arena, so the scratch arena is not touched at all. An unknown
// id is Corruption: a compiled tree contains every page its root reaches,
// so a miss means the caller's root does not belong to this tree.
template <int D>
class ResidentAccess {
 public:
  using Node = ResidentNodeRef<D>;

  explicit ResidentAccess(const ResidentTree<D>& tree) : tree_(&tree) {}

  PageId root_page() const { return tree_->root_page(); }
  bool empty() const { return tree_->empty(); }

  Status Expand(PageId id, QueryScratch<D>*, Node*, const Node** out) const {
    const ResidentNodeRef<D>* node = tree_->Find(id);
    if (node == nullptr) {
      return Status::Corruption("resident tree: unknown node page");
    }
    *out = node;
    return Status::OK();
  }

  void Prefetch(PageId id) const {
    if (const ResidentNodeRef<D>* node = tree_->Find(id)) {
      __builtin_prefetch(node->planes);
    }
  }

 private:
  const ResidentTree<D>* tree_;
};

// The SoA planes in the form the kernels take, from either node shape (the
// paged ExpandedNode carries the staged block by value, the resident node
// derives it from its arena record).
template <int D>
inline const SoaBlock<D>& NodeSoa(const ExpandedNode<D>& node) {
  return node.soa;
}
template <int D>
inline SoaBlock<D> NodeSoa(const ResidentNodeRef<D>& node) {
  return node.soa();
}

// A non-owning handle on one served tree in either tier — the parameter
// type of every public traversal entry point, so each is declared once and
// both `RTree` and `ResidentTree` arguments convert implicitly. WithAccess
// is the one tier branch of a query: it hands `fn` the matching access
// policy, and everything `fn` runs is compiled for that tier.
template <int D>
class TreeView {
 public:
  TreeView(const RTree<D>& tree) : paged_(&tree) {}  // NOLINT: implicit
  TreeView(const ResidentTree<D>& tree)              // NOLINT: implicit
      : resident_(&tree) {}

  // Returns fn(PagedAccess<D>) or fn(ResidentAccess<D>); `fn` must return
  // the same type for both.
  template <class Fn>
  decltype(auto) WithAccess(Fn&& fn) const {
    if (resident_ != nullptr) return fn(ResidentAccess<D>(*resident_));
    return fn(PagedAccess<D>(*paged_));
  }

 private:
  const RTree<D>* paged_ = nullptr;
  const ResidentTree<D>* resident_ = nullptr;
};

}  // namespace spatial

#endif  // SPATIAL_CORE_NODE_ACCESS_H_
