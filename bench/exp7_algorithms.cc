// E8: algorithm comparison. The paper's ordered depth-first branch-and-bound
// vs: global best-first (page-optimal comparator), repeated range expansion
// (the naive R-tree alternative), a uniform grid, and a full linear scan.
// Expected shape: branch-and-bound beats the scan by orders of magnitude at
// large N and stays within a whisker of the best-first page counts.

#include <chrono>

#include "baselines/grid_file.h"
#include "baselines/kd_tree.h"
#include "baselines/linear_scan.h"
#include "baselines/range_expand.h"
#include "core/incremental.h"
#include "exp_common.h"

namespace spatial {
namespace bench {
namespace {

void Run() {
  PrintHeader("E8", "k-NN algorithm comparison (uniform data)");
  Table table({"N", "k", "algorithm", "pages/query", "objects/query",
               "us/query"});
  for (size_t n : {4000u, 16000u, 64000u, 256000u}) {
    auto data = MakeDataset(Family::kUniform, n, kDataSeed);
    auto built = Unwrap(BuildTree2D(data, BuildMethod::kInsertQuadratic,
                                    kPageSize, kBufferPages),
                        "build");
    GridFile<2> grid(data, 64);
    KdTree<2> kd(data);
    auto queries = MakeQueries(data, 100);
    for (uint32_t k : {1u, 10u}) {
      QueryStats df_total, bf_total, re_total;
      GridQueryStats grid_total;
      KdQueryStats kd_total;
      double df_us = 0, bf_us = 0, re_us = 0, grid_us = 0, kd_us = 0,
             scan_us = 0;
      uint64_t scan_objects = 0;
      for (const Point2& q : queries) {
        using Clock = std::chrono::steady_clock;
        KnnOptions knn;
        knn.k = k;
        auto t0 = Clock::now();
        Unwrap(KnnSearch<2>(*built.tree, q, knn, &df_total), "df");
        auto t1 = Clock::now();
        Unwrap(BestFirstKnn<2>(*built.tree, q, k, &bf_total), "bf");
        auto t2 = Clock::now();
        Unwrap(RangeExpandKnn<2>(*built.tree, q, k, 0.0, &re_total), "re");
        auto t3 = Clock::now();
        Unwrap(grid.Knn(q, k, &grid_total), "grid");
        auto t4 = Clock::now();
        Unwrap(kd.Knn(q, k, &kd_total), "kd");
        auto t4b = Clock::now();
        QueryStats scan_stats;
        LinearScanKnn<2>(data, q, k, &scan_stats);
        auto t5 = Clock::now();
        scan_objects += scan_stats.objects_examined;
        const auto us = [](auto a, auto b) {
          return std::chrono::duration<double, std::micro>(b - a).count();
        };
        df_us += us(t0, t1);
        bf_us += us(t1, t2);
        re_us += us(t2, t3);
        grid_us += us(t3, t4);
        kd_us += us(t4, t4b);
        scan_us += us(t4b, t5);
      }
      const double nq = static_cast<double>(queries.size());
      auto add = [&](const char* name, double pages, double objects,
                     double micros) {
        table.AddRow({FmtInt(n), FmtInt(k), name, FmtDouble(pages, 2),
                      FmtDouble(objects, 1), FmtDouble(micros, 1)});
      };
      add("bb-depth-first (paper)",
          static_cast<double>(df_total.nodes_visited) / nq,
          static_cast<double>(df_total.objects_examined) / nq, df_us / nq);
      add("best-first",
          static_cast<double>(bf_total.nodes_visited) / nq,
          static_cast<double>(bf_total.objects_examined) / nq, bf_us / nq);
      add("range-expand",
          static_cast<double>(re_total.nodes_visited) / nq,
          static_cast<double>(re_total.objects_examined) / nq, re_us / nq);
      add("grid-file (cells)",
          static_cast<double>(grid_total.cells_examined) / nq,
          static_cast<double>(grid_total.objects_examined) / nq,
          grid_us / nq);
      add("kd-tree (in-memory nodes)",
          static_cast<double>(kd_total.nodes_visited) / nq,
          static_cast<double>(kd_total.nodes_visited) / nq, kd_us / nq);
      add("linear-scan",
          static_cast<double>(LinearScanPageCost<2>(n, kPageSize)),
          static_cast<double>(scan_objects) / nq, scan_us / nq);
    }
  }
  PrintTableAndCsv(table);
}

}  // namespace
}  // namespace bench
}  // namespace spatial

int main() {
  spatial::bench::Run();
  return 0;
}
