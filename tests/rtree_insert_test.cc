#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <vector>

#include "storage/disk_manager.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "rtree/rtree.h"
#include "rtree/validator.h"

namespace spatial {
namespace {

constexpr uint32_t kPageSize = 512;

struct TestIndex {
  TestIndex(uint32_t page_size, uint32_t buffer_pages, RTreeOptions options)
      : disk(page_size), pool(&disk, buffer_pages) {
    auto created = RTree<2>::Create(&pool, options);
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    tree.emplace(std::move(created).value());
  }

  DiskManager disk;
  BufferPool pool;
  std::optional<RTree<2>> tree;
};

TEST(RTreeCreateTest, EmptyTreeProperties) {
  TestIndex index(kPageSize, 64, RTreeOptions{});
  EXPECT_EQ(index.tree->size(), 0u);
  EXPECT_TRUE(index.tree->empty());
  EXPECT_EQ(index.tree->height(), 1);
  auto report = ValidateTree<2>(*index.tree, /*check_min_fill=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->nodes, 1u);
}

TEST(RTreeCreateTest, RejectsNullPool) {
  EXPECT_FALSE(RTree<2>::Create(nullptr, RTreeOptions{}).ok());
}

TEST(RTreeCreateTest, RejectsBadOptions) {
  DiskManager disk(kPageSize);
  BufferPool pool(&disk, 8);
  RTreeOptions options;
  options.min_fill = 0.9;  // > 0.5
  EXPECT_TRUE(
      RTree<2>::Create(&pool, options).status().IsInvalidArgument());
}

TEST(RTreeCreateTest, RejectsTinyPages) {
  DiskManager disk(64);
  BufferPool pool(&disk, 8);
  EXPECT_TRUE(
      RTree<2>::Create(&pool, RTreeOptions{}).status().IsInvalidArgument());
}

TEST(RTreeInsertTest, RejectsInvalidRect) {
  TestIndex index(kPageSize, 64, RTreeOptions{});
  Rect2 bad;
  bad.lo = {{2.0, 2.0}};
  bad.hi = {{1.0, 1.0}};
  EXPECT_TRUE(index.tree->Insert(bad, 1).IsInvalidArgument());
  EXPECT_EQ(index.tree->size(), 0u);
}

TEST(RTreeInsertTest, RejectsNanRectAndLeavesTreeUnchanged) {
  // lo > hi is false for NaN, so only a per-dimension lo <= hi test keeps
  // a NaN box out of the index.
  TestIndex index(kPageSize, 64, RTreeOptions{});
  Rng rng(7);
  const auto data =
      MakePointEntries(GenerateUniform<2>(2000, UnitBounds<2>(), &rng));
  for (const auto& e : data) ASSERT_TRUE(index.tree->Insert(e.mbr, e.id).ok());
  const PageId root = index.tree->root_page();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Rect2 bad = Rect2::FromPoint({{nan, 0.5}});
  EXPECT_TRUE(index.tree->Insert(bad, 999999).IsInvalidArgument());
  EXPECT_TRUE(index.tree->Delete(bad, data[0].id).status().IsInvalidArgument());
  EXPECT_EQ(index.tree->size(), data.size());
  EXPECT_EQ(index.tree->root_page(), root);
  std::vector<Entry<2>> found;
  ASSERT_TRUE(index.tree->Search(Rect2{{{0, 0}}, {{1, 1}}}, &found).ok());
  EXPECT_EQ(found.size(), data.size());
  auto report = ValidateTree<2>(*index.tree, /*check_min_fill=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

TEST(RTreeInsertTest, SingleInsertIsFindable) {
  TestIndex index(kPageSize, 64, RTreeOptions{});
  const Rect2 r = Rect2::FromPoint({{0.5, 0.5}});
  ASSERT_TRUE(index.tree->Insert(r, 7).ok());
  EXPECT_EQ(index.tree->size(), 1u);
  std::vector<Entry<2>> found;
  ASSERT_TRUE(index.tree->Search(Rect2{{{0, 0}}, {{1, 1}}}, &found).ok());
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].id, 7u);
  EXPECT_EQ(found[0].mbr, r);
}

TEST(RTreeInsertTest, DuplicateEntriesAllowed) {
  TestIndex index(kPageSize, 64, RTreeOptions{});
  const Rect2 r = Rect2::FromPoint({{0.5, 0.5}});
  ASSERT_TRUE(index.tree->Insert(r, 7).ok());
  ASSERT_TRUE(index.tree->Insert(r, 7).ok());
  EXPECT_EQ(index.tree->size(), 2u);
  std::vector<Entry<2>> found;
  ASSERT_TRUE(index.tree->Search(r, &found).ok());
  EXPECT_EQ(found.size(), 2u);
}

TEST(RTreeInsertTest, RootSplitGrowsHeight) {
  TestIndex index(kPageSize, 64, RTreeOptions{});
  const uint32_t max = index.tree->max_entries();
  for (uint32_t i = 0; i <= max; ++i) {
    ASSERT_TRUE(index.tree
                    ->Insert(Rect2::FromPoint({{static_cast<double>(i),
                                                 0.0}}),
                             i)
                    .ok());
  }
  EXPECT_EQ(index.tree->height(), 2);
  auto report = ValidateTree<2>(*index.tree, /*check_min_fill=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->leaf_entries, max + 1);
}

class RTreeInsertParamTest
    : public ::testing::TestWithParam<std::tuple<SplitAlgorithm, uint64_t>> {
};

TEST_P(RTreeInsertParamTest, ThousandsOfInsertsKeepTreeValid) {
  const auto [split, seed] = GetParam();
  RTreeOptions options;
  options.split = split;
  TestIndex index(kPageSize, 64, options);
  Rng rng(seed);
  auto points = GenerateUniform<2>(3000, UnitBounds<2>(), &rng);
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(
        index.tree->Insert(Rect2::FromPoint(points[i]), i).ok());
  }
  EXPECT_EQ(index.tree->size(), points.size());
  EXPECT_GE(index.tree->height(), 2);
  auto report = ValidateTree<2>(*index.tree, /*check_min_fill=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->leaf_entries, points.size());
}

TEST_P(RTreeInsertParamTest, EveryInsertedEntryIsFindable) {
  const auto [split, seed] = GetParam();
  RTreeOptions options;
  options.split = split;
  TestIndex index(kPageSize, 64, options);
  Rng rng(seed ^ 0xf00d);
  auto points = GenerateUniform<2>(500, UnitBounds<2>(), &rng);
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(
        index.tree->Insert(Rect2::FromPoint(points[i]), i).ok());
  }
  for (size_t i = 0; i < points.size(); ++i) {
    std::vector<Entry<2>> found;
    ASSERT_TRUE(
        index.tree->Search(Rect2::FromPoint(points[i]), &found).ok());
    bool present = false;
    for (const auto& e : found) present |= (e.id == i);
    EXPECT_TRUE(present) << "lost point " << i;
  }
}

TEST_P(RTreeInsertParamTest, ExtendedObjectsSupported) {
  const auto [split, seed] = GetParam();
  RTreeOptions options;
  options.split = split;
  TestIndex index(kPageSize, 64, options);
  Rng rng(seed ^ 0xbeef);
  std::vector<Rect2> rects;
  for (size_t i = 0; i < 800; ++i) {
    Point2 a{{rng.Uniform(0, 100), rng.Uniform(0, 100)}};
    Point2 b{{a[0] + rng.Uniform(0, 3), a[1] + rng.Uniform(0, 3)}};
    rects.push_back(Rect2::FromCorners(a, b));
    ASSERT_TRUE(index.tree->Insert(rects.back(), i).ok());
  }
  auto report = ValidateTree<2>(*index.tree, /*check_min_fill=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Window query for a specific rect returns it.
  std::vector<Entry<2>> found;
  ASSERT_TRUE(index.tree->Search(rects[123], &found).ok());
  bool present = false;
  for (const auto& e : found) present |= (e.id == 123);
  EXPECT_TRUE(present);
}

INSTANTIATE_TEST_SUITE_P(
    AllSplits, RTreeInsertParamTest,
    ::testing::Combine(::testing::Values(SplitAlgorithm::kLinear,
                                         SplitAlgorithm::kQuadratic,
                                         SplitAlgorithm::kRStar),
                       ::testing::Values(7u, 1234u)));

TEST(RTreeInsertTest, RStarWithoutReinsertionAlsoValid) {
  RTreeOptions options;
  options.split = SplitAlgorithm::kRStar;
  options.rstar_reinsert = false;
  TestIndex index(kPageSize, 64, options);
  Rng rng(4);
  auto points = GenerateUniform<2>(2000, UnitBounds<2>(), &rng);
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(index.tree->Insert(Rect2::FromPoint(points[i]), i).ok());
  }
  auto report = ValidateTree<2>(*index.tree, /*check_min_fill=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
}

TEST(RTreeInsertTest, BoundsCoverAllInsertedData) {
  TestIndex index(kPageSize, 64, RTreeOptions{});
  Rng rng(3);
  auto points = GenerateUniform<2>(300, UnitBounds<2>(), &rng);
  Rect2 expected = Rect2::Empty();
  for (size_t i = 0; i < points.size(); ++i) {
    ASSERT_TRUE(index.tree->Insert(Rect2::FromPoint(points[i]), i).ok());
    expected.ExpandToInclude(points[i]);
  }
  auto bounds = index.tree->Bounds();
  ASSERT_TRUE(bounds.ok());
  EXPECT_EQ(*bounds, expected);
}

TEST(RTreeInsertTest, ThreeDimensionalTree) {
  DiskManager disk(1024);
  BufferPool pool(&disk, 64);
  auto created = RTree<3>::Create(&pool, RTreeOptions{});
  ASSERT_TRUE(created.ok());
  RTree<3> tree = std::move(created).value();
  Rng rng(11);
  for (size_t i = 0; i < 1000; ++i) {
    Point3 p{{rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1)}};
    ASSERT_TRUE(tree.Insert(Rect3::FromPoint(p), i).ok());
  }
  auto report = ValidateTree<3>(tree, /*check_min_fill=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->leaf_entries, 1000u);
}

}  // namespace
}  // namespace spatial
