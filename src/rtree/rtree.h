#ifndef SPATIAL_RTREE_RTREE_H_
#define SPATIAL_RTREE_RTREE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geom/rect.h"
#include "rtree/entry.h"
#include "rtree/node.h"
#include "rtree/options.h"
#include "storage/buffer_pool.h"
#include "storage/cow.h"

namespace spatial {

// A disk-based R-tree (Guttman 1984) with selectable split algorithms
// (linear / quadratic / R*) and R* forced reinsertion. Nodes are pages of
// the underlying BufferPool; the maximum fan-out M is derived from the page
// size exactly as in the SIGMOD'95 testbed, so "page accesses" are the
// natural cost unit for every query.
//
// Usage:
//   DiskManager disk(1024);
//   BufferPool pool(&disk, 256);
//   auto tree = RTree<2>::Create(&pool, RTreeOptions{});
//   tree->Insert(Rect2::FromPoint({{0.3, 0.7}}), /*id=*/42);
//
// Pin-depth note: mutating operations keep the root-to-leaf path pinned, so
// the pool needs at least (height + 3) frames for inserts/deletes. Read-only
// traversals copy entries out and release each page before descending, so
// queries run with a single frame.
//
// Copy-on-write mode: with SetCowPolicy(policy) installed, mutations never
// edit a page the policy marks as shadow-required (i.e. reachable from a
// published snapshot). Such pages are copied to a fresh page first, the
// original is retired through the policy (not freed — concurrent snapshot
// readers may still traverse it), and the parent's child pointer is
// re-aimed at the copy; the root id itself may change on any mutation, so
// cow-mode callers must observe root_page() after each operation. With no
// policy (the default) behaviour is byte-for-byte the classic in-place
// update. See docs/DURABILITY.md.
//
// Not thread-safe.
template <int D>
class RTree {
 public:
  // Creates an empty tree (a single empty leaf as root).
  static Result<RTree> Create(BufferPool* pool, const RTreeOptions& options);

  // Re-opens a tree previously built on `pool`'s disk, rooted at
  // `root_page`. The entry count is recomputed by a traversal.
  static Result<RTree> Open(BufferPool* pool, const RTreeOptions& options,
                            PageId root_page);

  // Re-opens with a trusted entry count (e.g. from a SpatialDb meta page),
  // skipping the recount traversal. The root page is still validated.
  static Result<RTree> Open(BufferPool* pool, const RTreeOptions& options,
                            PageId root_page, uint64_t known_size);

  RTree(RTree&&) = default;
  RTree& operator=(RTree&&) = default;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  // Inserts an object with the given MBR. Duplicate (mbr, id) pairs are
  // permitted, as in classic R-trees.
  Status Insert(const Rect<D>& mbr, uint64_t id);

  // Deletes one object matching (mbr, id) exactly. Returns true if an
  // object was found and removed.
  Result<bool> Delete(const Rect<D>& mbr, uint64_t id);

  // Appends to `out` every leaf entry whose MBR intersects `window`.
  Status Search(const Rect<D>& window, std::vector<Entry<D>>* out) const;

  // Appends to `out` every leaf entry whose MBR lies fully inside `window`.
  Status SearchContained(const Rect<D>& window,
                         std::vector<Entry<D>>* out) const;

  // Number of leaf entries whose MBRs intersect `window`, without
  // materializing them.
  Result<uint64_t> CountIntersecting(const Rect<D>& window) const;

  // Tight bounding rectangle of all indexed objects (Empty() if none).
  Result<Rect<D>> Bounds() const;

  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Number of levels; 1 for a tree that is a single leaf.
  int height() const { return root_level_ + 1; }

  PageId root_page() const { return root_page_; }
  BufferPool* pool() const { return pool_; }
  const RTreeOptions& options() const { return options_; }

  uint32_t max_entries() const;
  uint32_t min_entries() const;

  // Installs (or, with nullptr, removes) the copy-on-write policy consulted
  // by every mutation. Owned by the caller; must outlive the tree or be
  // reset before destruction.
  void SetCowPolicy(CowPolicy* cow) { cow_ = cow; }
  CowPolicy* cow_policy() const { return cow_; }

  // Re-points this tree object at another published version (root page,
  // entry count, root level) without touching storage. Used by snapshot
  // readers to adopt a newly published version, and by the writer after
  // recovery. The caller is responsible for the triple being consistent.
  void Rebase(PageId root_page, uint64_t size, uint16_t root_level) {
    root_page_ = root_page;
    size_ = size;
    root_level_ = root_level;
  }

 private:
  friend class TreeBuilderAccess;  // bulk loader installs prebuilt roots

  RTree(BufferPool* pool, RTreeOptions options, PageId root_page,
        uint64_t size, uint16_t root_level)
      : pool_(pool),
        options_(options),
        root_page_(root_page),
        size_(size),
        root_level_(root_level) {}

  // An entry scheduled for reinsertion at a specific tree level.
  struct PendingEntry {
    Entry<D> entry;
    uint16_t level;
  };

  // What a recursive insert reports to its parent.
  struct InsertOutcome {
    Rect<D> updated_mbr;                  // new MBR of the visited child
    std::optional<Entry<D>> split_entry;  // sibling created by a split
    std::vector<PendingEntry> reinserts;  // R* forced-reinsertion backlog
    PageId node_id = kInvalidPageId;      // where the child lives now (COW)
  };

  struct DeleteOutcome {
    bool found = false;
    bool underflow = false;  // node fell below the minimum fill
    Rect<D> updated_mbr = Rect<D>::Empty();
    PageId node_id = kInvalidPageId;  // where the child lives now (COW)
  };

  Status InsertAtLevel(const Entry<D>& entry, uint16_t target_level,
                       uint32_t* reinsert_mask);
  Result<InsertOutcome> InsertRecursive(PageId node_id,
                                        const Entry<D>& entry,
                                        uint16_t target_level,
                                        uint32_t* reinsert_mask);
  Result<InsertOutcome> HandleOverflow(NodeView<D>* view, PageHandle* handle,
                                       PageId node_id, bool is_root,
                                       const Entry<D>& extra,
                                       uint32_t* reinsert_mask);

  // Pins `node_id` for mutation. Under an active CowPolicy that demands a
  // shadow, copies the page to a fresh one, retires the original, and
  // returns the copy; `*current_id` receives the id the caller must use
  // (and propagate to its parent) from now on.
  Result<PageHandle> FetchMutable(PageId node_id, PageId* current_id);

  // Allocates a page and reports it to the CowPolicy.
  Result<PageHandle> NewTrackedPage();

  // Removes a page from the current tree version: retires it through the
  // CowPolicy when one is installed, otherwise frees it immediately.
  Status RetireOrFree(PageId id);
  size_t ChooseSubtree(const NodeView<D>& node, const Rect<D>& mbr) const;

  Result<DeleteOutcome> DeleteRecursive(PageId node_id, const Rect<D>& mbr,
                                        uint64_t id,
                                        std::vector<PendingEntry>* orphans);
  Status ShrinkRootIfNeeded();

  // Which leaf entries a window walk reports.
  enum class LeafTest { kIntersects, kContained };

  // The one window traversal, behind Search, SearchContained and
  // CountIntersecting: depth-first in entry order (the order results are
  // reported in), pruning interior entries by intersection, it calls
  // `visit` on every leaf entry that passes `test`. Each page is released
  // before the next is fetched, so the walk pins one frame, and pending
  // children share one stack, so it allocates nothing per visited node.
  template <typename Visit>
  Status Walk(const Rect<D>& window, LeafTest test, Visit&& visit) const;

  BufferPool* pool_;
  RTreeOptions options_;
  PageId root_page_;
  uint64_t size_;
  uint16_t root_level_;
  CowPolicy* cow_ = nullptr;
};

extern template class RTree<2>;
extern template class RTree<3>;
extern template class RTree<4>;

}  // namespace spatial

#endif  // SPATIAL_RTREE_RTREE_H_
