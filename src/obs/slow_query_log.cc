#include "obs/slow_query_log.h"

#include <cinttypes>
#include <cstdio>

namespace spatial {
namespace obs {

void AppendJsonU64(std::string* out, const char* key, uint64_t v,
                   bool trailing_comma) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64 "%s", key, v,
                trailing_comma ? "," : "");
  out->append(buf);
}

void AppendQueryStatsJson(std::string* out, const QueryStats& s) {
  out->push_back('{');
  for (size_t i = 0; i < kNumQueryStatFields; ++i) {
    const QueryStatField& f = kQueryStatFields[i];
    AppendJsonU64(out, f.key, s.*f.member,
                  /*trailing_comma=*/i + 1 < kNumQueryStatFields);
  }
  out->push_back('}');
}

void AppendLevelsJson(std::string* out,
                      const uint32_t (&nodes_per_level)[kTraceMaxLevels]) {
  // Emit levels 0..top where top is the highest non-zero level (leaf
  // level always emitted so the array is never empty).
  int top = 0;
  for (int i = 0; i < kTraceMaxLevels; ++i) {
    if (nodes_per_level[i] != 0) top = i;
  }
  out->push_back('[');
  char buf[32];
  for (int i = 0; i <= top; ++i) {
    std::snprintf(buf, sizeof(buf), "%s%u", i == 0 ? "" : ",",
                  nodes_per_level[i]);
    out->append(buf);
  }
  out->push_back(']');
}

void AppendQueryTraceJson(std::string* out, const QueryTraceRecord& r) {
  out->push_back('{');
  AppendJsonU64(out, "seq", r.seq);
  AppendJsonU64(out, "worker", r.worker);
  out->append("\"kind\":\"");
  out->append(r.kind_name);
  out->append("\",");
  AppendJsonU64(out, "k", r.k);
  AppendJsonU64(out, "latency_ns", r.latency_ns);
  AppendJsonU64(out, "queue_wait_ns", r.queue_wait_ns);
  out->append(r.traced ? "\"traced\":true," : "\"traced\":false,");
  out->append("\"stats\":");
  AppendQueryStatsJson(out, r.stats);
  out->append(",\"nodes_per_level\":");
  AppendLevelsJson(out, r.nodes_per_level);
  out->push_back('}');
}

}  // namespace obs
}  // namespace spatial
