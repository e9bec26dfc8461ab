#ifndef SPATIAL_BENCH_E2E_LADDER_H_
#define SPATIAL_BENCH_E2E_LADDER_H_

// The traced run's layer ladder: the workload's own requests, one caller,
// timed at each public entry point from the SIMD kernels up to the RPC
// client. A layer's self time is its rung's median minus the median of the
// rung below (README "Reading spans.json").

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace spatial {
namespace e2e {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// In-memory spans: one per timed call, parented to a root span per ladder
// request. Written out once, when the run ends.
class SpanLog {
 public:
  uint32_t NewId() { return ++last_id_; }
  void Record(uint32_t id, const char* name, uint32_t parent,
              uint64_t request, int64_t start_ns, int64_t end_ns);
  // Throws Fatal when the file cannot be written.
  void WriteJson(const std::string& path, const std::string& workload,
                 uint64_t seed) const;

 private:
  struct Span {
    uint32_t id;
    uint32_t parent;
    uint64_t request;
    const char* name;  // string literal
    int64_t start_ns;
    int64_t end_ns;
  };
  uint32_t last_id_ = 0;
  std::vector<Span> spans_;
};

struct LadderTargets {
  const Inputs* inputs;
  const std::vector<Resp>* expected;  // per pool request
  Reference* reference;               // one tree, one-shard service
  ShardRouter<2>* router;             // the 4-shard deployment
  uint16_t port;                      // its RPC server
  WriteStream* writes;
};

// Runs every read rung on each pool request in turn for `read_seconds`,
// then the write rung (inserts and deletes through the router, then one
// checkpoint) for `write_seconds`. Appends per-layer metrics and
// kind-specific diagnostics; returns the number of calls made.
uint64_t RunLadder(const LadderTargets& targets, double read_seconds,
                   double write_seconds, SpanLog* spans, Metrics* per_layer,
                   Metrics* diagnostics);

}  // namespace e2e
}  // namespace spatial

#endif  // SPATIAL_BENCH_E2E_LADDER_H_
