#ifndef SPATIAL_TESTS_DUAL_BACKEND_H_
#define SPATIAL_TESTS_DUAL_BACKEND_H_

// One data set on both query tiers: an STR-packed paged R-tree and its
// compiled resident twin. Suites that check a query class on both tiers
// build a DualBackend and compare the answers byte for byte.

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/neighbor_buffer.h"
#include "rtree/bulk_load.h"
#include "rtree/entry.h"
#include "rtree/rtree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/resident_tree.h"

namespace spatial {

// An STR-packed tree plus its compiled resident twin, over the same data.
template <int D>
struct DualBackend {
  DiskManager disk{1024};
  BufferPool pool;
  std::optional<RTree<D>> tree;
  std::optional<ResidentTree<D>> resident;
  std::vector<Entry<D>> data;

  explicit DualBackend(std::vector<Entry<D>> entries)
      : pool(&disk, 4096), data(std::move(entries)) {
    auto loaded =
        BulkLoad<D>(&pool, RTreeOptions{}, data, BulkLoadMethod::kStr);
    ASSERT_OK(loaded.status());
    tree.emplace(std::move(loaded).value());
    auto compiled = ResidentTree<D>::Compile(&pool, tree->root_page(),
                                             tree->size(), {});
    ASSERT_OK(compiled.status());
    resident.emplace(std::move(compiled).value());
  }

  static void ASSERT_OK(const Status& s) {
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
};

inline void ExpectNeighborsByteIdentical(const std::vector<Neighbor>& got,
                                         const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  if (!got.empty()) {
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             got.size() * sizeof(Neighbor)));
  }
}

}  // namespace spatial

#endif  // SPATIAL_TESTS_DUAL_BACKEND_H_
