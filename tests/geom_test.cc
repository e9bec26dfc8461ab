#include <gtest/gtest.h>

#include <limits>

#include "geom/point.h"
#include "geom/rect.h"

namespace spatial {
namespace {

TEST(PointTest, IndexingAndEquality) {
  Point2 p{{1.0, 2.0}};
  EXPECT_EQ(p[0], 1.0);
  EXPECT_EQ(p[1], 2.0);
  Point2 q{{1.0, 2.0}};
  EXPECT_EQ(p, q);
  q[1] = 3.0;
  EXPECT_NE(p, q);
}

TEST(PointTest, Distances) {
  Point2 a{{0.0, 0.0}};
  Point2 b{{3.0, 4.0}};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25.0);
  EXPECT_DOUBLE_EQ(Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, a), 0.0);
}

TEST(PointTest, HigherDimensions) {
  Point<4> a{{1, 1, 1, 1}};
  Point<4> b{{2, 2, 2, 2}};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 4.0);
}

TEST(RectTest, EmptyBehaviour) {
  Rect2 e = Rect2::Empty();
  EXPECT_TRUE(e.IsEmpty());
  EXPECT_FALSE(e.IsValid());
  EXPECT_EQ(e.Area(), 0.0);
  EXPECT_EQ(e.Margin(), 0.0);
}

TEST(RectTest, InfiniteBoundIsNotValid) {
  // A stored MBR must be finite: one infinite bound would cover a half
  // plane, and every kNN would find the object at distance 0.
  const double inf = std::numeric_limits<double>::infinity();
  for (int d = 0; d < 2; ++d) {
    Rect2 low = Rect2::FromCorners({{0.0, 0.0}}, {{1.0, 1.0}});
    low.lo[d] = -inf;
    EXPECT_FALSE(low.IsValid()) << "dim " << d;
    Rect2 high = Rect2::FromCorners({{0.0, 0.0}}, {{1.0, 1.0}});
    high.hi[d] = inf;
    EXPECT_FALSE(high.IsValid()) << "dim " << d;
  }
  EXPECT_FALSE((Rect2{{{-inf, -inf}}, {{inf, inf}}}).IsValid());
  EXPECT_FALSE(Rect2::FromPoint({{inf, 0.5}}).IsValid());
  EXPECT_TRUE(Rect2::FromCorners({{-1e300, -1e300}}, {{1e300, 1e300}})
                  .IsValid());
}

TEST(RectTest, FromPointIsDegenerateAndValid) {
  Rect2 r = Rect2::FromPoint({{2.0, 3.0}});
  EXPECT_TRUE(r.IsValid());
  EXPECT_EQ(r.Area(), 0.0);
  EXPECT_TRUE(r.Contains(Point2{{2.0, 3.0}}));
  EXPECT_FALSE(r.Contains(Point2{{2.0, 3.1}}));
}

TEST(RectTest, FromCornersNormalizesOrder) {
  Rect2 r = Rect2::FromCorners({{5.0, 1.0}}, {{2.0, 4.0}});
  EXPECT_EQ(r.lo[0], 2.0);
  EXPECT_EQ(r.hi[0], 5.0);
  EXPECT_EQ(r.lo[1], 1.0);
  EXPECT_EQ(r.hi[1], 4.0);
}

TEST(RectTest, ContainsPointIncludesBoundary) {
  Rect2 r{{{0, 0}}, {{1, 1}}};
  EXPECT_TRUE(r.Contains(Point2{{0.0, 0.0}}));
  EXPECT_TRUE(r.Contains(Point2{{1.0, 1.0}}));
  EXPECT_TRUE(r.Contains(Point2{{0.5, 0.5}}));
  EXPECT_FALSE(r.Contains(Point2{{1.0001, 0.5}}));
}

TEST(RectTest, ContainsRect) {
  Rect2 outer{{{0, 0}}, {{10, 10}}};
  Rect2 inner{{{2, 2}}, {{3, 3}}};
  EXPECT_TRUE(outer.Contains(inner));
  EXPECT_FALSE(inner.Contains(outer));
  EXPECT_TRUE(outer.Contains(outer));
}

TEST(RectTest, IntersectsIncludesTouching) {
  Rect2 a{{{0, 0}}, {{1, 1}}};
  Rect2 b{{{1, 1}}, {{2, 2}}};  // corner touch
  Rect2 c{{{1.5, 0}}, {{2, 1}}};
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_TRUE(b.Intersects(a));
  EXPECT_FALSE(a.Intersects(c));
}

TEST(RectTest, UnionAndExpand) {
  Rect2 a{{{0, 0}}, {{1, 1}}};
  Rect2 b{{{2, -1}}, {{3, 0.5}}};
  Rect2 u = Rect2::Union(a, b);
  EXPECT_EQ(u.lo[0], 0.0);
  EXPECT_EQ(u.lo[1], -1.0);
  EXPECT_EQ(u.hi[0], 3.0);
  EXPECT_EQ(u.hi[1], 1.0);

  Rect2 e = Rect2::Empty();
  e.ExpandToInclude(a);
  EXPECT_EQ(e, a);
  e.ExpandToInclude(Point2{{-1.0, 5.0}});
  EXPECT_EQ(e.lo[0], -1.0);
  EXPECT_EQ(e.hi[1], 5.0);
}

TEST(RectTest, IntersectionMayBeEmpty) {
  Rect2 a{{{0, 0}}, {{1, 1}}};
  Rect2 b{{{2, 2}}, {{3, 3}}};
  EXPECT_TRUE(Rect2::Intersection(a, b).IsEmpty());
  Rect2 c{{{0.5, 0.5}}, {{2, 2}}};
  Rect2 i = Rect2::Intersection(a, c);
  EXPECT_EQ(i.lo[0], 0.5);
  EXPECT_EQ(i.hi[0], 1.0);
}

TEST(RectTest, AreaMarginCenter) {
  Rect2 r{{{1, 2}}, {{4, 6}}};
  EXPECT_DOUBLE_EQ(r.Area(), 12.0);
  EXPECT_DOUBLE_EQ(r.Margin(), 7.0);
  EXPECT_EQ(r.Center(), (Point2{{2.5, 4.0}}));
}

TEST(RectTest, OverlapArea) {
  Rect2 a{{{0, 0}}, {{2, 2}}};
  Rect2 b{{{1, 1}}, {{3, 3}}};
  EXPECT_DOUBLE_EQ(a.OverlapArea(b), 1.0);
  EXPECT_DOUBLE_EQ(b.OverlapArea(a), 1.0);
  Rect2 c{{{5, 5}}, {{6, 6}}};
  EXPECT_DOUBLE_EQ(a.OverlapArea(c), 0.0);
  // Touching edges overlap with zero area.
  Rect2 d{{{2, 0}}, {{3, 2}}};
  EXPECT_DOUBLE_EQ(a.OverlapArea(d), 0.0);
}

TEST(RectTest, Enlargement) {
  Rect2 a{{{0, 0}}, {{2, 2}}};
  EXPECT_DOUBLE_EQ(a.Enlargement(Rect2{{{1, 1}}, {{2, 2}}}), 0.0);
  EXPECT_DOUBLE_EQ(a.Enlargement(Rect2{{{0, 0}}, {{4, 2}}}), 4.0);
}

TEST(RectTest, ThreeDimensionalVolume) {
  Rect3 r{{{0, 0, 0}}, {{2, 3, 4}}};
  EXPECT_DOUBLE_EQ(r.Area(), 24.0);
  EXPECT_DOUBLE_EQ(r.Margin(), 9.0);
}

}  // namespace
}  // namespace spatial
