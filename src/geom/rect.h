#ifndef SPATIAL_GEOM_RECT_H_
#define SPATIAL_GEOM_RECT_H_

#include <algorithm>
#include <limits>
#include <string>

#include "common/macros.h"
#include "geom/point.h"

namespace spatial {

// An axis-aligned (hyper-)rectangle: the MBR (minimum bounding rectangle)
// of the R-tree literature. Represented by its lower-left and upper-right
// corners. An "empty" rectangle has lo > hi in every dimension and acts as
// the identity for Union / ExpandToInclude.
template <int D>
struct Rect {
  Point<D> lo;
  Point<D> hi;

  // The empty rectangle (identity element for unions).
  static Rect Empty() {
    Rect r;
    for (int i = 0; i < D; ++i) {
      r.lo[i] = std::numeric_limits<double>::infinity();
      r.hi[i] = -std::numeric_limits<double>::infinity();
    }
    return r;
  }

  // Degenerate rectangle covering exactly one point.
  static Rect FromPoint(const Point<D>& p) { return Rect{p, p}; }

  static Rect FromCorners(const Point<D>& a, const Point<D>& b) {
    Rect r;
    for (int i = 0; i < D; ++i) {
      r.lo[i] = std::min(a[i], b[i]);
      r.hi[i] = std::max(a[i], b[i]);
    }
    return r;
  }

  bool IsEmpty() const {
    for (int i = 0; i < D; ++i) {
      if (lo[i] > hi[i]) return true;
    }
    return false;
  }

  // True iff every bound is finite and lo <= hi in every dimension
  // (degenerate boxes are valid). A NaN or infinite bound fails the test.
  // This is the rule for stored MBRs; read windows are never tested with
  // it, so Empty() and infinite windows stay legal queries.
  bool IsValid() const {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (int i = 0; i < D; ++i) {
      if (!(-kInf < lo[i] && lo[i] <= hi[i] && hi[i] < kInf)) return false;
    }
    return true;
  }

  bool Contains(const Point<D>& p) const {
    for (int i = 0; i < D; ++i) {
      if (p[i] < lo[i] || p[i] > hi[i]) return false;
    }
    return true;
  }

  bool Contains(const Rect& other) const {
    for (int i = 0; i < D; ++i) {
      if (other.lo[i] < lo[i] || other.hi[i] > hi[i]) return false;
    }
    return true;
  }

  bool Intersects(const Rect& other) const {
    for (int i = 0; i < D; ++i) {
      if (other.hi[i] < lo[i] || other.lo[i] > hi[i]) return false;
    }
    return true;
  }

  void ExpandToInclude(const Point<D>& p) {
    for (int i = 0; i < D; ++i) {
      lo[i] = std::min(lo[i], p[i]);
      hi[i] = std::max(hi[i], p[i]);
    }
  }

  void ExpandToInclude(const Rect& other) {
    for (int i = 0; i < D; ++i) {
      lo[i] = std::min(lo[i], other.lo[i]);
      hi[i] = std::max(hi[i], other.hi[i]);
    }
  }

  static Rect Union(const Rect& a, const Rect& b) {
    Rect r = a;
    r.ExpandToInclude(b);
    return r;
  }

  // Intersection; may be empty.
  static Rect Intersection(const Rect& a, const Rect& b) {
    Rect r;
    for (int i = 0; i < D; ++i) {
      r.lo[i] = std::max(a.lo[i], b.lo[i]);
      r.hi[i] = std::min(a.hi[i], b.hi[i]);
    }
    return r;
  }

  // D-dimensional volume ("area" in the 2-D literature). 0 for empty boxes.
  double Area() const {
    if (IsEmpty()) return 0.0;
    double area = 1.0;
    for (int i = 0; i < D; ++i) area *= hi[i] - lo[i];
    return area;
  }

  // Sum of edge lengths (the R*-tree "margin"). 0 for empty boxes.
  double Margin() const {
    if (IsEmpty()) return 0.0;
    double margin = 0.0;
    for (int i = 0; i < D; ++i) margin += hi[i] - lo[i];
    return margin;
  }

  double OverlapArea(const Rect& other) const {
    double area = 1.0;
    for (int i = 0; i < D; ++i) {
      const double w =
          std::min(hi[i], other.hi[i]) - std::max(lo[i], other.lo[i]);
      if (w <= 0.0) return 0.0;
      area *= w;
    }
    return area;
  }

  // Increase in area if this rectangle were enlarged to include `other`.
  double Enlargement(const Rect& other) const {
    return Union(*this, other).Area() - Area();
  }

  Point<D> Center() const {
    Point<D> c;
    for (int i = 0; i < D; ++i) c[i] = 0.5 * (lo[i] + hi[i]);
    return c;
  }

  friend bool operator==(const Rect& a, const Rect& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const Rect& a, const Rect& b) { return !(a == b); }

  std::string ToString() const {
    return "[" + lo.ToString() + " - " + hi.ToString() + "]";
  }
};

using Rect2 = Rect<2>;
using Rect3 = Rect<3>;

}  // namespace spatial

#endif  // SPATIAL_GEOM_RECT_H_
