// Degenerate and extreme inputs across the stack: identical points,
// collinear data, huge/tiny coordinates, adversarial k values.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/rng.h"
#include "core/incremental.h"
#include "core/knn.h"
#include "data/dataset.h"
#include "data/uniform.h"
#include "rtree/validator.h"
#include "tests/test_util.h"

namespace spatial {
namespace {

TEST(EdgeCaseTest, ThousandsOfIdenticalPoints) {
  // All objects identical: every split is degenerate, yet structure and
  // queries must remain correct.
  TestIndex2D index;
  std::vector<Entry<2>> data;
  for (uint64_t i = 0; i < 3000; ++i) {
    data.push_back(Entry<2>{Rect2::FromPoint({{0.5, 0.5}}), i});
    ASSERT_TRUE(index.tree->Insert(data.back().mbr, i).ok());
  }
  auto report = ValidateTree<2>(*index.tree, /*check_min_fill=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  KnnOptions knn;
  knn.k = 10;
  auto result = KnnSearch<2>(*index.tree, {{0.5, 0.5}}, knn, nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 10u);
  for (const Neighbor& n : *result) {
    EXPECT_DOUBLE_EQ(n.dist_sq, 0.0);
  }
}

TEST(EdgeCaseTest, CollinearPoints) {
  // Zero-area MBRs everywhere (all heuristics tie); correctness must hold.
  TestIndex2D index;
  std::vector<Entry<2>> data;
  for (uint64_t i = 0; i < 2000; ++i) {
    data.push_back(Entry<2>{
        Rect2::FromPoint({{static_cast<double>(i) * 0.001, 0.0}}), i});
    ASSERT_TRUE(index.tree->Insert(data.back().mbr, i).ok());
  }
  auto report = ValidateTree<2>(*index.tree, /*check_min_fill=*/true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (double x : {0.0, 0.51237, 1.999, 5.0}) {
    const Point2 q{{x, 0.3}};
    KnnOptions knn;
    knn.k = 5;
    auto result = KnnSearch<2>(*index.tree, q, knn, nullptr);
    ASSERT_TRUE(result.ok());
    ExpectKnnMatchesBruteForce(data, q, 5, *result);
  }
}

TEST(EdgeCaseTest, HugeAndTinyCoordinates) {
  TestIndex2D index;
  std::vector<Entry<2>> data{
      Entry<2>{Rect2::FromPoint({{1e15, -1e15}}), 1},
      Entry<2>{Rect2::FromPoint({{-1e15, 1e15}}), 2},
      Entry<2>{Rect2::FromPoint({{1e-15, 1e-15}}), 3},
      Entry<2>{Rect2::FromPoint({{0.0, 0.0}}), 4},
  };
  for (const auto& e : data) {
    ASSERT_TRUE(index.tree->Insert(e.mbr, e.id).ok());
  }
  auto result = KnnSearch<2>(*index.tree, {{1.0, 1.0}}, KnnOptions{}, nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0].id, 3u);
}

TEST(EdgeCaseTest, NegativeCoordinateDomain) {
  TestIndex2D index;
  Rng rng(71);
  std::vector<Entry<2>> data;
  for (uint64_t i = 0; i < 1000; ++i) {
    data.push_back(Entry<2>{
        Rect2::FromPoint({{rng.Uniform(-500, -400), rng.Uniform(-9, -8)}}),
        i});
    ASSERT_TRUE(index.tree->Insert(data.back().mbr, i).ok());
  }
  const Point2 q{{-450.0, -8.5}};
  KnnOptions knn;
  knn.k = 7;
  auto result = KnnSearch<2>(*index.tree, q, knn, nullptr);
  ASSERT_TRUE(result.ok());
  ExpectKnnMatchesBruteForce(data, q, 7, *result);
}

TEST(EdgeCaseTest, KEqualsTreeSizeExactly) {
  TestIndex2D index;
  Rng rng(72);
  std::vector<Entry<2>> data;
  for (uint64_t i = 0; i < 137; ++i) {
    data.push_back(Entry<2>{
        Rect2::FromPoint({{rng.Uniform(0, 1), rng.Uniform(0, 1)}}), i});
    ASSERT_TRUE(index.tree->Insert(data.back().mbr, i).ok());
  }
  KnnOptions knn;
  knn.k = 137;
  auto result = KnnSearch<2>(*index.tree, {{0.5, 0.5}}, knn, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 137u);
  ExpectKnnMatchesBruteForce(data, {{0.5, 0.5}}, 137, *result);
}

TEST(EdgeCaseTest, NestedContainedRectangles) {
  // Matryoshka rectangles: heavily overlapping internal nodes.
  TestIndex2D index;
  std::vector<Entry<2>> data;
  for (uint64_t i = 0; i < 300; ++i) {
    const double inset = static_cast<double>(i) * 0.001;
    data.push_back(Entry<2>{
        Rect2{{{inset, inset}}, {{1.0 - inset, 1.0 - inset}}}, i});
    ASSERT_TRUE(index.tree->Insert(data.back().mbr, i).ok());
  }
  auto report = ValidateTree<2>(*index.tree, /*check_min_fill=*/true);
  ASSERT_TRUE(report.ok());
  const Point2 q{{2.0, 2.0}};  // outside all of them
  KnnOptions knn;
  knn.k = 4;
  auto result = KnnSearch<2>(*index.tree, q, knn, nullptr);
  ASSERT_TRUE(result.ok());
  ExpectKnnMatchesBruteForce(data, q, 4, *result);
  // Inside every rectangle: all distances zero.
  auto inside = KnnSearch<2>(*index.tree, {{0.5, 0.5}}, knn, nullptr);
  ASSERT_TRUE(inside.ok());
  for (const Neighbor& n : *inside) {
    EXPECT_DOUBLE_EQ(n.dist_sq, 0.0);
  }
}

TEST(EdgeCaseTest, BestFirstOnDuplicatePoints) {
  TestIndex2D index;
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_TRUE(
        index.tree->Insert(Rect2::FromPoint({{0.25, 0.75}}), i).ok());
  }
  auto result = BestFirstKnn<2>(*index.tree, {{0.25, 0.75}}, 20, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 20u);
}

TEST(EdgeCaseTest, BestFirstWithUnboundedKReturnsWholeTree) {
  // Nothing is sized by k up front, so k = UINT32_MAX (what an uncapped
  // wire top_k can carry) just drains the tree.
  TestIndex2D index;
  Rng rng(65);
  index.InsertAll(
      MakePointEntries(GenerateUniform<2>(50, UnitBounds<2>(), &rng)));
  auto result = BestFirstKnn<2>(*index.tree, {{0.5, 0.5}},
                                std::numeric_limits<uint32_t>::max(), nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 50u);
}

TEST(EdgeCaseTest, AlternatingGrowShrinkAroundRootTransitions) {
  // Repeatedly cross the root-split / root-shrink boundary.
  TestIndex2D index;
  const uint32_t max = index.tree->max_entries();
  std::vector<Entry<2>> data;
  for (int round = 0; round < 10; ++round) {
    // Grow past a root split.
    for (uint32_t i = 0; i < max + 2; ++i) {
      const Rect2 r = Rect2::FromPoint(
          {{static_cast<double>(i), static_cast<double>(round)}});
      const uint64_t id =
          static_cast<uint64_t>(round) * 1000 + i;
      ASSERT_TRUE(index.tree->Insert(r, id).ok());
      data.push_back(Entry<2>{r, id});
    }
    EXPECT_GE(index.tree->height(), 2);
    // Shrink back to (almost) nothing.
    while (data.size() > 1) {
      auto removed = index.tree->Delete(data.back().mbr, data.back().id);
      ASSERT_TRUE(removed.ok());
      ASSERT_TRUE(*removed);
      data.pop_back();
    }
    auto report = ValidateTree<2>(*index.tree, /*check_min_fill=*/true);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(index.tree->height(), 1);
  }
}

}  // namespace
}  // namespace spatial
