#ifndef SPATIAL_OBS_SLOW_QUERY_LOG_H_
#define SPATIAL_OBS_SLOW_QUERY_LOG_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "core/query_stats.h"
#include "obs/trace.h"

namespace spatial {
namespace obs {

// JSON building blocks shared by every trace dump (this log's DumpJson
// and the router's DistTraceLog in obs/dist_trace.h), so the schema of a
// stats block or a per-level array is identical wherever it appears. The
// stats block's keys and order are kQueryStatFields'.
void AppendJsonU64(std::string* out, const char* key, uint64_t v,
                   bool trailing_comma = true);
void AppendQueryStatsJson(std::string* out, const QueryStats& s);
// `[n0,n1,...]` trimmed to the highest non-zero level (leaf level always
// present).
void AppendLevelsJson(std::string* out,
                      const uint32_t (&nodes_per_level)[kTraceMaxLevels]);

// One captured query: fixed-size POD so recording never allocates.
struct QueryTraceRecord {
  uint64_t seq = 0;       // capture order, assigned by the log
  uint16_t worker = 0;
  uint32_t k = 0;
  char kind_name[16] = {};  // e.g. "knn", "batch_knn" (service fills this)
  uint64_t latency_ns = 0;
  uint64_t queue_wait_ns = 0;
  bool traced = false;      // nodes_per_level valid (query was sampled)
  QueryStats stats;
  uint32_t nodes_per_level[kTraceMaxLevels] = {};

  void SetKindName(const char* name) {
    std::strncpy(kind_name, name, sizeof(kind_name) - 1);
    kind_name[sizeof(kind_name) - 1] = '\0';
  }
};

// The element writer of SlowQueryLog::DumpJson: one record as a JSON
// object (docs/OBSERVABILITY.md has the schema).
void AppendQueryTraceJson(std::string* out, const QueryTraceRecord& r);

// Ring-buffer capture of interesting records, two populations:
//
//   * slow:    every record whose `*kRouteNs` is at or above
//     `slow_threshold_ns` — newest-wins ring, so a burst of slow requests
//     keeps the most recent ones.
//   * sampled: the records below the threshold — reservoir sampled
//     (algorithm R, seeded with kSeed), so the retained set is a uniform
//     sample of everything ever offered, not just the most recent.
//
// Record() takes a mutex, which is fine: it runs at most once per request
// and only for sampled-or-slow requests (rare by construction). All
// storage is preallocated in the constructor; the steady state never
// allocates. DumpJson() is for operators (CLI `metrics` command,
// serve-bench --metrics-dump, the kDumpSlowLog admin frame) and allocates
// freely; `kAppendJson` writes one element.
//
// Two logs instantiate it: the service's SlowQueryLog below and the
// router's DistTraceLog (obs/dist_trace.h).
template <class R, uint64_t R::*kRouteNs, uint64_t kSeed,
          void (*kAppendJson)(std::string*, const R&)>
class RetentionLog {
 public:
  struct Options {
    size_t slow_capacity = 64;
    size_t sampled_capacity = 64;
    uint64_t slow_threshold_ns = 10'000'000;  // 10 ms
  };

  explicit RetentionLog(const Options& options) : options_(options) {
    slow_.reserve(options_.slow_capacity);
    sampled_.reserve(options_.sampled_capacity);
  }
  RetentionLog(const RetentionLog&) = delete;
  RetentionLog& operator=(const RetentionLog&) = delete;

  // Routes by `*kRouteNs`: >= threshold goes to the slow ring, else to the
  // sampled reservoir. Never allocates.
  void Record(const R& record) {
    std::lock_guard<std::mutex> lock(mu_);
    R r = record;
    r.seq = seq_++;
    if (r.*kRouteNs >= options_.slow_threshold_ns &&
        options_.slow_capacity > 0) {
      if (slow_.size() < options_.slow_capacity) {
        slow_.push_back(r);  // within reserved capacity: no allocation
      } else {
        slow_[slow_next_] = r;
        slow_next_ = (slow_next_ + 1) % options_.slow_capacity;
      }
      return;
    }
    if (options_.sampled_capacity == 0) return;
    ++sampled_seen_;
    if (sampled_.size() < options_.sampled_capacity) {
      sampled_.push_back(r);
      return;
    }
    // Reservoir (algorithm R): replace a uniformly random slot with
    // probability capacity / seen.
    const uint64_t slot = NextRandom(&rng_) % sampled_seen_;
    if (slot < options_.sampled_capacity) {
      sampled_[static_cast<size_t>(slot)] = r;
    }
  }

  uint64_t slow_threshold_ns() const { return options_.slow_threshold_ns; }

  // Offered to Record(), both populations.
  uint64_t total_recorded() const {
    std::lock_guard<std::mutex> lock(mu_);
    return seq_;
  }
  // Currently retained slow entries.
  size_t slow_captured() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slow_.size();
  }
  // Currently retained sampled entries.
  size_t sampled_captured() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sampled_.size();
  }

  // Stable plain-value copies for inspection/testing.
  std::vector<R> SlowEntries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return slow_;
  }
  std::vector<R> SampledEntries() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sampled_;
  }

  // {"slow_threshold_ns":..., "total_recorded":..., "slow":[...],
  // "sampled":[...]}.
  std::string DumpJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out;
    out.push_back('{');
    AppendJsonU64(&out, "slow_threshold_ns", options_.slow_threshold_ns);
    AppendJsonU64(&out, "total_recorded", seq_);
    out.append("\"slow\":[");
    for (size_t i = 0; i < slow_.size(); ++i) {
      if (i != 0) out.push_back(',');
      kAppendJson(&out, slow_[i]);
    }
    out.append("],\"sampled\":[");
    for (size_t i = 0; i < sampled_.size(); ++i) {
      if (i != 0) out.push_back(',');
      kAppendJson(&out, sampled_[i]);
    }
    out.append("]}");
    return out;
  }

 private:
  const Options options_;
  mutable std::mutex mu_;
  std::vector<R> slow_;  // ring, capacity slow_capacity
  size_t slow_next_ = 0;
  std::vector<R> sampled_;  // reservoir
  uint64_t sampled_seen_ = 0;
  uint64_t seq_ = 0;
  uint64_t rng_ = kSeed;
};

// The service's slow-query log: single-service records, routed by the
// worker's latency.
using SlowQueryLog =
    RetentionLog<QueryTraceRecord, &QueryTraceRecord::latency_ns,
                 0x9E3779B97F4A7C15ULL, &AppendQueryTraceJson>;

}  // namespace obs
}  // namespace spatial

#endif  // SPATIAL_OBS_SLOW_QUERY_LOG_H_
