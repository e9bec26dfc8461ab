#ifndef SPATIAL_CORE_QUERY_STATS_H_
#define SPATIAL_CORE_QUERY_STATS_H_

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace spatial {

// Per-query instrumentation. `nodes_visited` equals the number of R-tree
// pages fetched by the query — the headline metric of the SIGMOD'95
// evaluation. The prune counters attribute discarded branches to the
// paper's three pruning strategies.
//
// A new counter goes here and in kQueryStatFields below, and nowhere else.
struct QueryStats {
  uint64_t nodes_visited = 0;
  uint64_t leaf_nodes_visited = 0;
  uint64_t internal_nodes_visited = 0;

  uint64_t abl_entries_generated = 0;  // child entries considered
  uint64_t pruned_s1 = 0;              // MINDIST > min sibling MINMAXDIST
  uint64_t estimate_updates_s2 = 0;    // MINMAXDIST lowered the NN estimate
  uint64_t pruned_s3 = 0;              // MINDIST > k-th nearest (or estimate)
  uint64_t pruned_leaf = 0;            // leaf entries skipped before Offer

  uint64_t objects_examined = 0;
  uint64_t distance_computations = 0;

  uint64_t heap_pushes = 0;  // best-first / incremental queue traffic
  uint64_t heap_pops = 0;

  void Reset() { *this = QueryStats(); }

  inline void Add(const QueryStats& other);
};

// The QueryStats schema: one row per counter, in the order of the wire
// codec (net/wire.cc) and of the trace JSON (obs/slow_query_log.h). Every
// consumer loops over this table: QueryStats::Add, the scrape-safe mirror
// (obs/query_metrics.h), the per-kind metric families
// (spatial_query_<key>_total, service/query_service.cc), the JSON writer
// and the wire codec.
struct QueryStatField {
  const char* key;   // JSON key, and the metric name's stem
  const char* help;  // metric help text
  uint64_t QueryStats::*member;
};

inline constexpr QueryStatField kQueryStatFields[] = {
    {"nodes_visited", "R-tree pages fetched by queries",
     &QueryStats::nodes_visited},
    {"leaf_nodes_visited", "Leaf pages fetched",
     &QueryStats::leaf_nodes_visited},
    {"internal_nodes_visited", "Internal pages fetched",
     &QueryStats::internal_nodes_visited},
    {"abl_entries_generated", "Active branch list entries considered",
     &QueryStats::abl_entries_generated},
    {"pruned_s1",
     "Branches pruned by strategy 1 (MINDIST > sibling MINMAXDIST)",
     &QueryStats::pruned_s1},
    {"estimate_updates_s2",
     "NN estimate updates from strategy 2 (MINMAXDIST)",
     &QueryStats::estimate_updates_s2},
    {"pruned_s3", "Branches pruned by strategy 3 (MINDIST > k-th nearest)",
     &QueryStats::pruned_s3},
    {"pruned_leaf", "Leaf entries skipped before distance evaluation",
     &QueryStats::pruned_leaf},
    {"objects_examined", "Objects distance-tested",
     &QueryStats::objects_examined},
    {"distance_computations", "Distance kernel evaluations",
     &QueryStats::distance_computations},
    {"heap_pushes", "Best-first / incremental heap pushes",
     &QueryStats::heap_pushes},
    {"heap_pops", "Best-first / incremental heap pops",
     &QueryStats::heap_pops},
};

inline constexpr size_t kNumQueryStatFields = std::size(kQueryStatFields);

namespace internal {
constexpr bool QueryStatFieldsDistinct() {
  for (size_t i = 0; i < kNumQueryStatFields; ++i) {
    for (size_t j = i + 1; j < kNumQueryStatFields; ++j) {
      if (kQueryStatFields[i].member == kQueryStatFields[j].member) {
        return false;
      }
    }
  }
  return true;
}
}  // namespace internal

// Distinct rows, as many as the struct has counters: the table covers
// every field exactly once.
static_assert(sizeof(QueryStats) == kNumQueryStatFields * sizeof(uint64_t) &&
                  internal::QueryStatFieldsDistinct(),
              "kQueryStatFields must list every QueryStats counter once");

inline void QueryStats::Add(const QueryStats& other) {
  for (const QueryStatField& f : kQueryStatFields) {
    this->*f.member += other.*f.member;
  }
}

}  // namespace spatial

#endif  // SPATIAL_CORE_QUERY_STATS_H_
