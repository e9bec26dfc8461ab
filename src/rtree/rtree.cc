#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/macros.h"
#include "geom/point.h"
#include "rtree/node_codec.h"
#include "rtree/split.h"

namespace spatial {

namespace {

template <int D>
Rect<D> UnionOf(const std::vector<Entry<D>>& entries) {
  Rect<D> mbr = Rect<D>::Empty();
  for (const Entry<D>& e : entries) mbr.ExpandToInclude(e.mbr);
  return mbr;
}

}  // namespace

template <int D>
Result<RTree<D>> RTree<D>::Create(BufferPool* pool,
                                  const RTreeOptions& options) {
  if (pool == nullptr) {
    return Status::InvalidArgument("RTree::Create: pool is null");
  }
  SPATIAL_RETURN_IF_ERROR(options.Validate());
  if (NodeView<D>::MaxEntries(pool->page_size()) < 4) {
    return Status::InvalidArgument(
        "page size too small: a node must hold at least 4 entries");
  }
  SPATIAL_ASSIGN_OR_RETURN(PageHandle root, pool->NewPage());
  NodeView<D> view(root.data(), pool->page_size());
  view.InitEmpty(/*level=*/0);
  root.MarkDirty();
  return RTree<D>(pool, options, root.id(), /*size=*/0, /*root_level=*/0);
}

template <int D>
Result<RTree<D>> RTree<D>::Open(BufferPool* pool, const RTreeOptions& options,
                                PageId root_page, uint64_t known_size) {
  if (pool == nullptr) {
    return Status::InvalidArgument("RTree::Open: pool is null");
  }
  SPATIAL_RETURN_IF_ERROR(options.Validate());
  SPATIAL_ASSIGN_OR_RETURN(PageHandle root, pool->Fetch(root_page));
  SPATIAL_RETURN_IF_ERROR(CheckNodePage<D>(root.data(), pool->page_size()));
  NodeView<D> view(root.data(), pool->page_size());
  const uint16_t root_level = view.level();
  root.Release();
  return RTree<D>(pool, options, root_page, known_size, root_level);
}

template <int D>
Result<RTree<D>> RTree<D>::Open(BufferPool* pool, const RTreeOptions& options,
                                PageId root_page) {
  SPATIAL_ASSIGN_OR_RETURN(RTree<D> tree,
                           Open(pool, options, root_page, /*known_size=*/0));
  // Recompute the entry count with a full-window count.
  Rect<D> everything;
  for (int i = 0; i < D; ++i) {
    everything.lo[i] = -std::numeric_limits<double>::infinity();
    everything.hi[i] = std::numeric_limits<double>::infinity();
  }
  SPATIAL_ASSIGN_OR_RETURN(tree.size_, tree.CountIntersecting(everything));
  return tree;
}

template <int D>
uint32_t RTree<D>::max_entries() const {
  return NodeView<D>::MaxEntries(pool_->page_size());
}

template <int D>
uint32_t RTree<D>::min_entries() const {
  const uint32_t max = max_entries();
  uint32_t m = static_cast<uint32_t>(
      std::floor(static_cast<double>(max) * options_.min_fill));
  m = std::max<uint32_t>(m, 1);
  m = std::min<uint32_t>(m, max / 2);
  return m;
}

template <int D>
Result<PageHandle> RTree<D>::FetchMutable(PageId node_id,
                                          PageId* current_id) {
  SPATIAL_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(node_id));
  if (cow_ == nullptr || !cow_->NeedsShadow(node_id)) {
    *current_id = node_id;
    return handle;
  }
  SPATIAL_ASSIGN_OR_RETURN(PageHandle shadow, pool_->NewPage());
  std::memcpy(shadow.data(), handle.data(), pool_->page_size());
  shadow.MarkDirty();
  handle.Release();
  cow_->OnPageAllocated(shadow.id());
  cow_->OnPageRetired(node_id);
  *current_id = shadow.id();
  return shadow;
}

template <int D>
Result<PageHandle> RTree<D>::NewTrackedPage() {
  SPATIAL_ASSIGN_OR_RETURN(PageHandle handle, pool_->NewPage());
  if (cow_ != nullptr) cow_->OnPageAllocated(handle.id());
  return handle;
}

template <int D>
Status RTree<D>::RetireOrFree(PageId id) {
  // Under COW even a fresh page is retired rather than freed: deferring to
  // checkpoint costs one page of reuse latency and keeps a single
  // invariant — no page leaves the allocator while any snapshot or the
  // durable superblock might reference it.
  if (cow_ != nullptr) {
    cow_->OnPageRetired(id);
    return Status::OK();
  }
  return pool_->FreePage(id);
}

template <int D>
Status RTree<D>::Insert(const Rect<D>& mbr, uint64_t id) {
  if (!mbr.IsValid()) {
    return Status::InvalidArgument("Insert: invalid rectangle");
  }
  uint32_t reinsert_mask = 0;
  SPATIAL_RETURN_IF_ERROR(
      InsertAtLevel(Entry<D>{mbr, id}, /*target_level=*/0, &reinsert_mask));
  ++size_;
  return Status::OK();
}

template <int D>
Status RTree<D>::InsertAtLevel(const Entry<D>& entry, uint16_t target_level,
                               uint32_t* reinsert_mask) {
  SPATIAL_ASSIGN_OR_RETURN(
      InsertOutcome outcome,
      InsertRecursive(root_page_, entry, target_level, reinsert_mask));
  root_page_ = outcome.node_id;  // the root may have been shadowed
  if (outcome.split_entry.has_value()) {
    // Root split: grow the tree by one level.
    SPATIAL_ASSIGN_OR_RETURN(PageHandle new_root, NewTrackedPage());
    NodeView<D> view(new_root.data(), pool_->page_size());
    view.InitEmpty(static_cast<uint16_t>(root_level_ + 1));
    view.Append(Entry<D>{outcome.updated_mbr, root_page_});
    view.Append(*outcome.split_entry);
    new_root.MarkDirty();
    root_page_ = new_root.id();
    ++root_level_;
  }
  // Forced-reinsertion backlog (R* only). The mask guarantees each level
  // triggers at most one forced reinsertion per top-level insert, so this
  // terminates.
  for (const PendingEntry& pending : outcome.reinserts) {
    SPATIAL_RETURN_IF_ERROR(
        InsertAtLevel(pending.entry, pending.level, reinsert_mask));
  }
  return Status::OK();
}

template <int D>
auto RTree<D>::InsertRecursive(PageId node_id, const Entry<D>& entry,
                               uint16_t target_level, uint32_t* reinsert_mask)
    -> Result<InsertOutcome> {
  // An insert dirties every node on its path, so shadow (if the COW policy
  // requires it) before reading. is_root is decided by the incoming id —
  // root_page_ still holds the pre-shadow root id at this point.
  const bool is_root = node_id == root_page_;
  PageId current_id = node_id;
  SPATIAL_ASSIGN_OR_RETURN(PageHandle handle,
                           FetchMutable(node_id, &current_id));
  NodeView<D> view(handle.data(), pool_->page_size());
  if (!view.has_valid_magic()) {
    return Status::Corruption("insert: node page has bad magic");
  }

  if (view.level() == target_level) {
    if (!view.full()) {
      view.Append(entry);
      handle.MarkDirty();
      return InsertOutcome{view.ComputeMbr(), std::nullopt, {}, current_id};
    }
    return HandleOverflow(&view, &handle, current_id, is_root, entry,
                          reinsert_mask);
  }

  SPATIAL_DCHECK(view.level() > target_level);
  const size_t child_idx = ChooseSubtree(view, entry.mbr);
  const Entry<D> child_entry = view.entry(static_cast<uint32_t>(child_idx));
  const PageId child_id = static_cast<PageId>(child_entry.id);

  SPATIAL_ASSIGN_OR_RETURN(
      InsertOutcome child_outcome,
      InsertRecursive(child_id, entry, target_level, reinsert_mask));

  view.set_entry(
      static_cast<uint32_t>(child_idx),
      Entry<D>{child_outcome.updated_mbr, child_outcome.node_id});
  handle.MarkDirty();

  if (child_outcome.split_entry.has_value()) {
    SPATIAL_DCHECK(child_outcome.reinserts.empty());
    if (!view.full()) {
      view.Append(*child_outcome.split_entry);
      return InsertOutcome{view.ComputeMbr(), std::nullopt, {}, current_id};
    }
    return HandleOverflow(&view, &handle, current_id, is_root,
                          *child_outcome.split_entry, reinsert_mask);
  }
  return InsertOutcome{view.ComputeMbr(), std::nullopt,
                       std::move(child_outcome.reinserts), current_id};
}

template <int D>
auto RTree<D>::HandleOverflow(NodeView<D>* view, PageHandle* handle,
                              PageId node_id, bool is_root,
                              const Entry<D>& extra,
                              uint32_t* reinsert_mask) -> Result<InsertOutcome> {
  const uint16_t level = view->level();
  std::vector<Entry<D>> entries = view->GetEntries();
  entries.push_back(extra);

  const bool may_reinsert =
      options_.split == SplitAlgorithm::kRStar && options_.rstar_reinsert &&
      !is_root && (*reinsert_mask & (1u << level)) == 0;

  if (may_reinsert) {
    *reinsert_mask |= (1u << level);
    size_t p = static_cast<size_t>(std::llround(
        options_.reinsert_fraction * static_cast<double>(entries.size())));
    p = std::clamp<size_t>(p, 1, entries.size() - min_entries());

    // Remove the p entries whose centers are farthest from the node center
    // ("far reinsert"); reinsert them closest-first.
    const Point<D> center = UnionOf(entries).Center();
    std::sort(entries.begin(), entries.end(),
              [&center](const Entry<D>& a, const Entry<D>& b) {
                return SquaredDistance(a.mbr.Center(), center) <
                       SquaredDistance(b.mbr.Center(), center);
              });
    std::vector<Entry<D>> keep(entries.begin(),
                               entries.end() - static_cast<ptrdiff_t>(p));
    InsertOutcome outcome;
    outcome.reinserts.reserve(p);
    for (size_t i = entries.size() - p; i < entries.size(); ++i) {
      outcome.reinserts.push_back(PendingEntry{entries[i], level});
    }
    view->SetEntries(keep);
    handle->MarkDirty();
    outcome.updated_mbr = view->ComputeMbr();
    outcome.node_id = node_id;
    return outcome;
  }

  SplitResult<D> split =
      SplitEntries<D>(options_.split, min_entries(), std::move(entries));
  view->SetEntries(split.group_a);
  handle->MarkDirty();
  const Rect<D> mbr_a = UnionOf(split.group_a);
  const Rect<D> mbr_b = UnionOf(split.group_b);

  SPATIAL_ASSIGN_OR_RETURN(PageHandle sibling, NewTrackedPage());
  NodeView<D> sibling_view(sibling.data(), pool_->page_size());
  sibling_view.InitEmpty(level);
  sibling_view.SetEntries(split.group_b);
  sibling.MarkDirty();

  return InsertOutcome{mbr_a, Entry<D>{mbr_b, sibling.id()}, {}, node_id};
}

template <int D>
size_t RTree<D>::ChooseSubtree(const NodeView<D>& node,
                               const Rect<D>& mbr) const {
  const uint32_t n = node.count();
  SPATIAL_DCHECK(n > 0);

  // R* refinement: when the children are leaves, minimize the increase of
  // overlap with sibling entries rather than pure area enlargement.
  if (options_.split == SplitAlgorithm::kRStar && node.level() == 1) {
    size_t best = 0;
    double best_overlap_increase = std::numeric_limits<double>::infinity();
    double best_enlargement = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (uint32_t i = 0; i < n; ++i) {
      const Rect<D> current = node.entry(i).mbr;
      const Rect<D> enlarged = Rect<D>::Union(current, mbr);
      double overlap_increase = 0.0;
      for (uint32_t j = 0; j < n; ++j) {
        if (j == i) continue;
        const Rect<D> other = node.entry(j).mbr;
        overlap_increase +=
            enlarged.OverlapArea(other) - current.OverlapArea(other);
      }
      const double enlargement = current.Enlargement(mbr);
      const double area = current.Area();
      if (overlap_increase < best_overlap_increase ||
          (overlap_increase == best_overlap_increase &&
           (enlargement < best_enlargement ||
            (enlargement == best_enlargement && area < best_area)))) {
        best_overlap_increase = overlap_increase;
        best_enlargement = enlargement;
        best_area = area;
        best = i;
      }
    }
    return best;
  }

  // Guttman: least enlargement, ties by smallest area.
  size_t best = 0;
  double best_enlargement = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (uint32_t i = 0; i < n; ++i) {
    const Rect<D> current = node.entry(i).mbr;
    const double enlargement = current.Enlargement(mbr);
    const double area = current.Area();
    if (enlargement < best_enlargement ||
        (enlargement == best_enlargement && area < best_area)) {
      best_enlargement = enlargement;
      best_area = area;
      best = i;
    }
  }
  return best;
}

template <int D>
Result<bool> RTree<D>::Delete(const Rect<D>& mbr, uint64_t id) {
  if (!mbr.IsValid()) {
    return Status::InvalidArgument("Delete: invalid rectangle");
  }
  std::vector<PendingEntry> orphans;
  SPATIAL_ASSIGN_OR_RETURN(DeleteOutcome outcome,
                           DeleteRecursive(root_page_, mbr, id, &orphans));
  if (!outcome.found) return false;
  root_page_ = outcome.node_id;  // the root may have been shadowed
  --size_;
  // Reinsert entries of dissolved nodes at their original levels.
  for (const PendingEntry& orphan : orphans) {
    uint32_t reinsert_mask = 0;
    SPATIAL_RETURN_IF_ERROR(
        InsertAtLevel(orphan.entry, orphan.level, &reinsert_mask));
  }
  SPATIAL_RETURN_IF_ERROR(ShrinkRootIfNeeded());
  return true;
}

template <int D>
auto RTree<D>::DeleteRecursive(PageId node_id, const Rect<D>& mbr,
                               uint64_t id,
                               std::vector<PendingEntry>* orphans)
    -> Result<DeleteOutcome> {
  // Unlike insert, a delete only dirties the path to the matching entry —
  // so the descent reads in place, and a node is shadowed (re-fetched via
  // FetchMutable, a guaranteed pool hit) only once a match is known.
  SPATIAL_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(node_id));
  NodeView<D> view(handle.data(), pool_->page_size());
  if (!view.has_valid_magic()) {
    return Status::Corruption("delete: node page has bad magic");
  }
  const bool is_root = node_id == root_page_;

  if (view.is_leaf()) {
    for (uint32_t i = 0; i < view.count(); ++i) {
      const Entry<D> e = view.entry(i);
      if (e.id == id && e.mbr == mbr) {
        handle.Release();
        PageId current_id = node_id;
        SPATIAL_ASSIGN_OR_RETURN(PageHandle mut,
                                 FetchMutable(node_id, &current_id));
        NodeView<D> mut_view(mut.data(), pool_->page_size());
        mut_view.RemoveAt(i);
        mut.MarkDirty();
        DeleteOutcome outcome;
        outcome.found = true;
        outcome.underflow = !is_root && mut_view.count() < min_entries();
        outcome.updated_mbr = mut_view.ComputeMbr();
        outcome.node_id = current_id;
        return outcome;
      }
    }
    return DeleteOutcome{};
  }

  for (uint32_t i = 0; i < view.count(); ++i) {
    const Entry<D> child_entry = view.entry(i);
    if (!child_entry.mbr.Contains(mbr)) continue;
    const PageId child_id = static_cast<PageId>(child_entry.id);
    SPATIAL_ASSIGN_OR_RETURN(DeleteOutcome child_outcome,
                             DeleteRecursive(child_id, mbr, id, orphans));
    if (!child_outcome.found) continue;

    handle.Release();
    PageId current_id = node_id;
    SPATIAL_ASSIGN_OR_RETURN(PageHandle mut,
                             FetchMutable(node_id, &current_id));
    NodeView<D> mut_view(mut.data(), pool_->page_size());

    // Keep a lone under-full child under the root: the subsequent
    // root-shrink pass promotes it, preserving all entries.
    const bool dissolve_child =
        child_outcome.underflow && !(is_root && mut_view.count() == 1);
    if (dissolve_child) {
      SPATIAL_ASSIGN_OR_RETURN(PageHandle child_handle,
                               pool_->Fetch(child_outcome.node_id));
      NodeView<D> child_view(child_handle.data(), pool_->page_size());
      const uint16_t child_level = child_view.level();
      for (const Entry<D>& e : child_view.GetEntries()) {
        orphans->push_back(PendingEntry{e, child_level});
      }
      child_handle.Release();
      SPATIAL_RETURN_IF_ERROR(RetireOrFree(child_outcome.node_id));
      mut_view.RemoveAt(i);
    } else {
      mut_view.set_entry(
          i, Entry<D>{child_outcome.updated_mbr, child_outcome.node_id});
    }
    mut.MarkDirty();

    DeleteOutcome outcome;
    outcome.found = true;
    outcome.underflow = !is_root && mut_view.count() < min_entries();
    outcome.updated_mbr = mut_view.ComputeMbr();
    outcome.node_id = current_id;
    return outcome;
  }
  return DeleteOutcome{};
}

template <int D>
Status RTree<D>::ShrinkRootIfNeeded() {
  for (;;) {
    SPATIAL_ASSIGN_OR_RETURN(PageHandle root, pool_->Fetch(root_page_));
    NodeView<D> view(root.data(), pool_->page_size());
    if (view.is_leaf() || view.count() != 1) return Status::OK();
    const PageId new_root = static_cast<PageId>(view.entry(0).id);
    const PageId old_root = root_page_;
    root.Release();
    SPATIAL_RETURN_IF_ERROR(RetireOrFree(old_root));
    root_page_ = new_root;
    --root_level_;
  }
}

template <int D>
template <typename Visit>
Status RTree<D>::Walk(const Rect<D>& window, LeafTest test,
                      Visit&& visit) const {
  if (window.IsEmpty()) return Status::OK();
  std::vector<PageId> pending{root_page_};
  while (!pending.empty()) {
    const PageId node_id = pending.back();
    pending.pop_back();
    SPATIAL_ASSIGN_OR_RETURN(PageHandle handle, pool_->Fetch(node_id));
    NodeView<D> view(handle.data(), pool_->page_size());
    if (!view.has_valid_magic()) {
      return Status::Corruption("window walk: node page has bad magic");
    }
    if (view.is_leaf()) {
      for (uint32_t i = 0; i < view.count(); ++i) {
        const Entry<D> e = view.entry(i);
        if (test == LeafTest::kContained ? window.Contains(e.mbr)
                                         : e.mbr.Intersects(window)) {
          visit(e);
        }
      }
      continue;
    }
    // Interior pruning is by intersection for every test: a child subtree
    // may hold contained objects even if the child MBR pokes out of the
    // window. Children go on the stack last first, so they pop in entry
    // order, as a recursive descent would visit them.
    for (uint32_t i = view.count(); i-- > 0;) {
      const Entry<D> e = view.entry(i);
      if (e.mbr.Intersects(window)) {
        pending.push_back(static_cast<PageId>(e.id));
      }
    }
  }
  return Status::OK();
}

template <int D>
Status RTree<D>::Search(const Rect<D>& window,
                        std::vector<Entry<D>>* out) const {
  SPATIAL_CHECK(out != nullptr);
  return Walk(window, LeafTest::kIntersects,
              [out](const Entry<D>& e) { out->push_back(e); });
}

template <int D>
Status RTree<D>::SearchContained(const Rect<D>& window,
                                 std::vector<Entry<D>>* out) const {
  SPATIAL_CHECK(out != nullptr);
  return Walk(window, LeafTest::kContained,
              [out](const Entry<D>& e) { out->push_back(e); });
}

template <int D>
Result<uint64_t> RTree<D>::CountIntersecting(const Rect<D>& window) const {
  uint64_t count = 0;
  SPATIAL_RETURN_IF_ERROR(
      Walk(window, LeafTest::kIntersects, [&count](const Entry<D>&) {
        ++count;
      }));
  return count;
}

template <int D>
Result<Rect<D>> RTree<D>::Bounds() const {
  SPATIAL_ASSIGN_OR_RETURN(PageHandle root, pool_->Fetch(root_page_));
  NodeView<D> view(root.data(), pool_->page_size());
  return view.ComputeMbr();
}

template class RTree<2>;
template class RTree<3>;
template class RTree<4>;

}  // namespace spatial
