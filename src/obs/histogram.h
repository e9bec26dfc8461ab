#ifndef SPATIAL_OBS_HISTOGRAM_H_
#define SPATIAL_OBS_HISTOGRAM_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>

namespace spatial {
namespace obs {

// The shared fixed-bucket histogram used everywhere a distribution is
// tracked: per-worker query latency, queue wait, WAL fsync latency and
// group-commit batch size, physical-read latency. One implementation, one
// bucket layout, one exposition path (previously the service kept its own
// copy in src/service/latency_histogram.h — deleted in favour of this).
//
// Two pieces:
//
//   * PowerHistogram   — the live instrument. Record() is two relaxed
//     atomic increments; single-writer in practice (each worker owns its
//     histograms) but correct under concurrent writers too. Readers may
//     Snapshot() from any thread at any time.
//   * HistogramSnapshot — a plain-value copy used for aggregation across
//     shards (operator+=) and percentile extraction.
//
// Buckets are powers of two of the recorded unit (bucket b covers
// [2^(b-1), 2^b)), so percentiles carry at most a 2x quantization error —
// plenty for p50/p95/p99 reporting, and the fixed layout keeps Record()
// branch-free. For nanosecond latencies 64 buckets span past 292 years;
// for batch sizes they span any practical count.
inline constexpr int kHistogramBuckets = 64;

struct HistogramSnapshot {
  uint64_t counts[kHistogramBuckets] = {};
  uint64_t total_count = 0;
  uint64_t total = 0;   // sum of recorded values
  uint64_t max = 0;

  HistogramSnapshot& operator+=(const HistogramSnapshot& other) {
    for (int i = 0; i < kHistogramBuckets; ++i) counts[i] += other.counts[i];
    total_count += other.total_count;
    total += other.total;
    if (other.max > max) max = other.max;
    return *this;
  }

  // Upper bound of the bucket containing the p-th percentile observation
  // (p in [0, 1]); 0 when empty.
  uint64_t Percentile(double p) const {
    if (total_count == 0) return 0;
    if (p < 0.0) p = 0.0;
    if (p > 1.0) p = 1.0;
    // Nearest rank: ceil(p * N), clamped to [1, N]. The product is shrunk
    // by a few ulps first because p itself is rounded (0.07 is stored a
    // hair above 7/100), so p * N can land just above the integer it
    // stands for, and a plain ceil would skip to the next rank.
    const double scaled = p * static_cast<double>(total_count) *
                          (1.0 - 4 * std::numeric_limits<double>::epsilon());
    uint64_t rank = static_cast<uint64_t>(std::ceil(scaled));
    rank = std::clamp<uint64_t>(rank, 1, total_count);
    uint64_t seen = 0;
    for (int b = 0; b < kHistogramBuckets; ++b) {
      seen += counts[b];
      if (seen >= rank) {
        // Upper bound of bucket b (which covers [2^(b-1), 2^b)); the
        // overflow bucket reports the true maximum instead.
        return b >= kHistogramBuckets - 1 ? max : (uint64_t{1} << b) - 1;
      }
    }
    return max;
  }

  double Mean() const {
    return total_count == 0
               ? 0.0
               : static_cast<double>(total) / static_cast<double>(total_count);
  }

  // Upper bound (inclusive) of bucket b, for exposition: 2^b - 1.
  static uint64_t BucketUpperBound(int b) {
    return b >= kHistogramBuckets - 1 ? ~uint64_t{0}
                                      : (uint64_t{1} << b) - 1;
  }
};

class PowerHistogram {
 public:
  PowerHistogram() = default;
  PowerHistogram(const PowerHistogram&) = delete;
  PowerHistogram& operator=(const PowerHistogram&) = delete;

  // Lock-free; typically called by the owning worker only, but correct
  // from any thread.
  void Record(uint64_t value) {
    const int bucket = Bucket(value);
    counts_[bucket].fetch_add(1, std::memory_order_relaxed);
    total_.fetch_add(value, std::memory_order_relaxed);
    // Monotonic max; CAS keeps the class correct under multiple writers.
    uint64_t prev = max_.load(std::memory_order_relaxed);
    while (value > prev &&
           !max_.compare_exchange_weak(prev, value,
                                       std::memory_order_relaxed)) {
    }
  }

  // Safe from any thread at any time (relaxed reads: the snapshot is a
  // consistent-enough view for monitoring, exact once writers are idle).
  HistogramSnapshot Snapshot() const {
    HistogramSnapshot s;
    for (int i = 0; i < kHistogramBuckets; ++i) {
      s.counts[i] = counts_[i].load(std::memory_order_relaxed);
      s.total_count += s.counts[i];
    }
    s.total = total_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    return s;
  }

  void Reset() {
    for (int i = 0; i < kHistogramBuckets; ++i) {
      counts_[i].store(0, std::memory_order_relaxed);
    }
    total_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

  // Index of the highest set bit + 1 (0 maps to bucket 0): bucket b holds
  // values in [2^(b-1), 2^b).
  static int Bucket(uint64_t value) {
    int b = 0;
    while (value != 0 && b < kHistogramBuckets - 1) {
      value >>= 1;
      ++b;
    }
    return b;
  }

 private:
  std::atomic<uint64_t> counts_[kHistogramBuckets] = {};
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> max_{0};
};

}  // namespace obs

// The service layer predates src/obs/ and used these spellings; they are
// the same types (satellite: one histogram implementation repo-wide).
inline constexpr int kLatencyBuckets = obs::kHistogramBuckets;
using LatencySnapshot = obs::HistogramSnapshot;
using LatencyHistogram = obs::PowerHistogram;

}  // namespace spatial

#endif  // SPATIAL_OBS_HISTOGRAM_H_
