#include "shard/shard_router.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <utility>
#include <vector>

#include "core/reverse_knn.h"
#include "core/skyline.h"
#include "geom/metrics.h"

namespace spatial {

namespace {

// The deterministic merge order: ascending squared distance, object id
// breaking ties. Shard answers arrive in shard order, so equal inputs
// always merge identically.
bool NeighborLess(const Neighbor& a, const Neighbor& b) {
  if (a.dist_sq != b.dist_sq) return a.dist_sq < b.dist_sq;
  return a.id < b.id;
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// Each router thread's sampling state: a cheap xorshift, lazily seeded
// from its own slot address, so threads diverge without any shared state.
uint64_t* RouterRng() {
  thread_local uint64_t tls_rng = 0;
  if (tls_rng == 0) {
    tls_rng = 0x9E3779B97F4A7C15ULL ^ reinterpret_cast<uint64_t>(&tls_rng);
  }
  return &tls_rng;
}

}  // namespace

template <int D>
ShardRouter<D>::ShardRouter(ShardSet<D>* shards, const Options& options)
    : shards_(shards),
      options_(options),
      trace_log_(obs::DistTraceLog::Options{options.slow_log_capacity,
                                            options.sampled_log_capacity,
                                            options.slow_threshold_ns}) {
  for (uint32_t s = 0; s < shards_->num_shards(); ++s) {
    all_shards_.emplace_back(0.0, s);
  }
  RegisterMetrics();
}

template <int D>
void ShardRouter<D>::RegisterMetrics() {
  failed_ = metrics_.AddCounter("spatial_router_requests_failed_total",
                                "Router requests that returned an error");
  rknn_candidates_ = metrics_.AddCounter(
      "spatial_router_rknn_candidates_total",
      "Reverse-kNN candidates surviving the global sector re-selection");
  rknn_verify_rounds_ = metrics_.AddCounter(
      "spatial_router_rknn_verify_rounds_total",
      "Cross-shard kNN rounds issued to verify reverse-kNN candidates");
  traces_assembled_ = metrics_.AddCounter(
      "spatial_router_traces_assembled_total",
      "Sampled cross-shard traces assembled from per-shard trace records");
  merge_ns_ = metrics_.AddHistogram(
      "spatial_router_merge_ns",
      "Scatter-gather wall time per round trip (submit to merged answer)");

  // Requests and pruned shard visits by kind: one family each, one sample
  // per kind labelled kind="..." (label values keep the hyphenated kind
  // names — hyphens are legal in label values, unlike metric names). The
  // cells are relaxed atomics written from any connection thread; the
  // collector reads them live at scrape time.
  metrics_.AddCollector([this](obs::ExpositionWriter& writer) {
    auto by_kind = [&writer](const char* name, const char* help,
                             const obs::StatCounter* cells) {
      writer.Family(name, help, obs::MetricType::kCounter);
      for (int k = 0; k < kNumQueryKinds; ++k) {
        writer.Sample(name,
                      std::string("kind=\"") +
                          QueryKindName(static_cast<QueryKind>(k)) + "\"",
                      cells[k].value());
      }
    };
    by_kind("spatial_router_requests_total", "Router requests by kind",
            requests_by_kind_);
    by_kind("spatial_router_shards_pruned_total",
            "Shard visits skipped by the extent tests (window miss or S3)",
            shards_pruned_by_kind_);
    writer.Family(
        "spatial_router_traces_recorded_total",
        "Scatter round trips offered to the router trace log (sampled or "
        "slow)",
        obs::MetricType::kCounter);
    writer.Sample("spatial_router_traces_recorded_total", "",
                  trace_log_.total_recorded());
    writer.Family("spatial_router_trace_log_entries",
                  "Trace-log entries currently retained, by population",
                  obs::MetricType::kGauge);
    writer.Sample("spatial_router_trace_log_entries", "population=\"slow\"",
                  static_cast<uint64_t>(trace_log_.slow_captured()));
    writer.Sample("spatial_router_trace_log_entries",
                  "population=\"sampled\"",
                  static_cast<uint64_t>(trace_log_.sampled_captured()));
  });

  // Per-shard families, labelled shard="i". Reading Snapshot() is safe
  // while workers run (relaxed single-writer counters).
  metrics_.AddCollector([this](obs::ExpositionWriter& writer) {
    writer.Family("spatial_shard_queries_total",
                  "Queries executed per shard", obs::MetricType::kCounter);
    for (uint32_t s = 0; s < shards_->num_shards(); ++s) {
      const ServiceStats stats = shards_->shard(s).Snapshot();
      writer.Sample("spatial_shard_queries_total",
                    "shard=\"" + std::to_string(s) + "\",outcome=\"ok\"",
                    stats.queries_ok);
      writer.Sample("spatial_shard_queries_total",
                    "shard=\"" + std::to_string(s) + "\",outcome=\"failed\"",
                    stats.queries_failed);
    }
    writer.Family("spatial_shard_query_latency_ns",
                  "Per-shard query latency (worker wall time)",
                  obs::MetricType::kHistogram);
    for (uint32_t s = 0; s < shards_->num_shards(); ++s) {
      const ServiceStats stats = shards_->shard(s).Snapshot();
      writer.Histogram("spatial_shard_query_latency_ns",
                       "shard=\"" + std::to_string(s) + "\"", stats.latency);
    }
    writer.Family("spatial_shard_objects", "Objects initially loaded",
                  obs::MetricType::kGauge);
    for (uint32_t s = 0; s < shards_->num_shards(); ++s) {
      writer.Sample("spatial_shard_objects",
                    "shard=\"" + std::to_string(s) + "\"",
                    shards_->shard_size(s));
    }
  });
}

template <int D>
QueryResponse<D> ShardRouter<D>::Execute(const QueryRequest<D>& request) {
  requests_by_kind_[static_cast<int>(request.kind)].FetchAdd(1);
  // Root-of-trace sampling, decided once per request: it is traced when
  // the caller propagated a sampled context (wire v3) or when the router's
  // own draw fires, and every round trip it runs — a reverse kNN's
  // verification rounds too — carries the one decision. The unsampled
  // path pays one draw here and nothing per shard.
  uint64_t* rng = RouterRng();
  const bool external = request.trace_sampled && request.trace_id != 0;
  const bool sampled =
      external || obs::SampleDraw(rng, options_.trace_sample_per_million);
  const uint64_t trace_id =
      sampled ? (external ? request.trace_id : (obs::NextRandom(rng) | 1)) : 0;
  QueryResponse<D> response = ScatterQuery(request, trace_id);
  if (response.ok() && request.kind == QueryKind::kReverseKnn &&
      !request.rknn_candidates_only) {
    VerifyReverseKnn(request, trace_id, &response);
  }
  if (!response.ok()) failed_->Inc();
  return response;
}

template <int D>
QueryResponse<D> ShardRouter<D>::ScatterQuery(const QueryRequest<D>& request,
                                              uint64_t trace_id) {
  const auto start = std::chrono::steady_clock::now();
  const uint32_t n = shards_->num_shards();
  // The per-shard completion clocks below run only for sampled requests.
  const bool sampled = trace_id != 0;
  const uint64_t root_span_id =
      sampled ? (obs::NextRandom(RouterRng()) | 1) : 0;

  QueryRequest<D> scattered = request;
  // A reverse kNN's round trip is its candidate round: every shard
  // generates (but does not verify) its local sector candidates. A local
  // filter only ever drops objects that its own shard proves cannot be
  // reverse k-NN — more objects globally can only strengthen that proof —
  // so the union still contains every answer.
  if (request.kind == QueryKind::kReverseKnn) {
    scattered.rknn_candidates_only = true;
  }
  if (sampled) {
    // Every scattered copy carries the sampled context, so each shard
    // force-samples and returns its QueryTraceRecord in the response.
    scattered.trace_id = trace_id;
    scattered.parent_span_id = root_span_id;
    scattered.trace_sampled = true;
  }

  // Runs `scattered` on `count` shards at once and gathers their answers
  // in plan order. Every round of every kind goes through here. The other
  // shards are submitted first; the first shard then runs through Execute,
  // on this thread when one of its contexts is idle, so a one-shard round
  // crosses no thread at all.
  std::vector<ShardAnswer> answers;
  answers.reserve(n);
  std::vector<std::future<QueryResponse<D>>> futures;
  futures.reserve(n);
  auto run_round = [&](const Branch* plan, size_t count, uint32_t round) {
    futures.clear();
    for (size_t i = 1; i < count; ++i) {
      futures.push_back(shards_->shard(plan[i].second).Submit(scattered));
    }
    for (size_t i = 0; i < count; ++i) {
      answers.push_back(ShardAnswer{
          plan[i].second, round, 0,
          i == 0 ? shards_->shard(plan[0].second).Execute(scattered)
                 : futures[i - 1].get()});
      if (sampled) answers.back().completed_ns = ElapsedNs(start);
    }
  };

  // The plan. Kinds with a window, a query point and a k, or an insert
  // MBR take the root-node rule over the extents; every other kind runs
  // on all shards in one round.
  const QueryKind kind = request.kind;
  const bool ordered = kind == QueryKind::kKnn || kind == QueryKind::kTopK ||
                       kind == QueryKind::kApproxKnn ||
                       kind == QueryKind::kConstrainedKnn;
  const bool windowed =
      kind == QueryKind::kConstrainedKnn || kind == QueryKind::kRange;
  if (!ordered && !windowed && kind != QueryKind::kInsert) {
    run_round(all_shards_.data(), n, 0);
  } else {
    // Window miss: a shard whose extent is empty or misses the window
    // holds no object that meets it. The rest are keyed by MINDIST from
    // the query point (or the insert MBR) to the whole extent and sorted,
    // ties to the lower index.
    const std::vector<Rect<D>> extents = shards_->extents();
    std::vector<Branch> branches;
    branches.reserve(n);
    for (uint32_t s = 0; s < n; ++s) {
      const Rect<D>& extent = extents[s];
      if (extent.IsEmpty()) continue;
      if (windowed && !extent.Intersects(request.window)) continue;
      // kRange keeps index order, and so does an invalid insert MBR, which
      // the shard rejects.
      double key = 0.0;
      if (ordered) {
        key = MinDistSq<D>(request.query, extent);
      } else if (kind == QueryKind::kInsert && request.window.IsValid()) {
        key = MinDistSq<D>(extent, request.window);
      }
      branches.emplace_back(key, s);
    }
    std::sort(branches.begin(), branches.end());
    // No shard qualifies: shard 0 still validates the request and answers.
    if (branches.empty()) branches.push_back(all_shards_[0]);

    if (kind == QueryKind::kRange) {
      run_round(branches.data(), branches.size(), 0);
    } else {
      run_round(branches.data(), 1, 0);  // the nearest runs alone
      const QueryResponse<D>& first = answers[0].response;
      if (kind == QueryKind::kInsert) {
        // The extent grows once the shard has acked, so a rejected insert
        // leaves it alone, and before the router returns, so every read
        // issued after the ack prunes against it.
        if (first.ok()) {
          shards_->GrowExtent(branches[0].second, request.window);
        }
      } else if (first.ok()) {
        // S3 on extents: a shard whose extent lies strictly beyond the
        // first shard's k-th distance (or max_distance, which top-k does
        // not take) holds no object the merge would keep. At equality the
        // shard still runs: it may hold an object tied with the k-th whose
        // lower id wins the merge. The shards that pass are a prefix of
        // the sorted rest.
        const bool top_k = kind == QueryKind::kTopK;
        const uint32_t k = top_k ? request.top_k : request.knn.k;
        const double max_distance =
            top_k ? std::numeric_limits<double>::infinity()
                  : request.knn.max_distance;
        double limit_sq = max_distance * max_distance;
        if (!first.neighbors.empty() && first.neighbors.size() >= k) {
          limit_sq = std::min(limit_sq, first.neighbors.back().dist_sq);
        }
        size_t end = 1;
        while (end < branches.size() && branches[end].first <= limit_sq) {
          ++end;
        }
        if (end > 1) {
          run_round(branches.data() + 1, end - 1, 1);
          // Spans, status and merge see the shards in index order.
          std::sort(answers.begin(), answers.end(),
                    [](const ShardAnswer& x, const ShardAnswer& y) {
                      return x.shard < y.shard;
                    });
        }
      }
    }
    if (kind != QueryKind::kInsert) {
      shards_pruned_by_kind_[static_cast<int>(kind)].FetchAdd(
          n - answers.size());
    }
  }
  const uint64_t scatter_ns = ElapsedNs(start);

  // The fold: the first error in shard order, summed stats and `affected`,
  // the largest `lsn`. Shards within a round run concurrently, so each
  // round costs its slowest shard; a second round follows the first.
  QueryResponse<D> merged;
  uint64_t round_ns[2] = {0, 0};
  for (const ShardAnswer& a : answers) {
    if (!a.response.status.ok() && merged.status.ok()) {
      merged.status = a.response.status;
    }
    merged.stats.Add(a.response.stats);
    merged.affected += a.response.affected;
    merged.lsn = std::max(merged.lsn, a.response.lsn);
    round_ns[a.round] = std::max(round_ns[a.round], a.response.latency_ns);
  }
  merged.latency_ns = round_ns[0] + round_ns[1];
  if (merged.status.ok()) MergeAnswers(request, answers, &merged);

  const uint64_t total_ns = ElapsedNs(start);
  merge_ns_->Record(total_ns);
  if (sampled || total_ns >= trace_log_.slow_threshold_ns()) {
    RecordScatterTrace(request, sampled, trace_id, root_span_id, answers,
                       scatter_ns, total_ns, merged.stats);
  }
  return merged;
}

// The merge step, by kind, over answers that all succeeded. The write
// kinds have no case: the fold already summed `affected` and kept the
// largest `lsn`.
template <int D>
void ShardRouter<D>::MergeAnswers(const QueryRequest<D>& request,
                                  const std::vector<ShardAnswer>& answers,
                                  QueryResponse<D>* out) {
  QueryResponse<D>& merged = *out;
  switch (request.kind) {
    case QueryKind::kKnn:
    case QueryKind::kConstrainedKnn:
    case QueryKind::kTopK:
    case QueryKind::kApproxKnn: {
      const uint32_t k = request.kind == QueryKind::kTopK ? request.top_k
                                                          : request.knn.k;
      for (const ShardAnswer& a : answers) {
        merged.neighbors.insert(merged.neighbors.end(),
                                a.response.neighbors.begin(),
                                a.response.neighbors.end());
      }
      std::sort(merged.neighbors.begin(), merged.neighbors.end(),
                NeighborLess);
      if (merged.neighbors.size() > k) merged.neighbors.resize(k);
      break;
    }
    case QueryKind::kRange: {
      // A single tree reports range hits in traversal order, which is a
      // tree-shape artifact; the router normalizes to ascending object id
      // so the merged answer is a pure function of the dataset.
      for (const ShardAnswer& a : answers) {
        merged.entries.insert(merged.entries.end(),
                              a.response.entries.begin(),
                              a.response.entries.end());
      }
      std::sort(merged.entries.begin(), merged.entries.end(),
                [](const Entry<D>& x, const Entry<D>& y) {
                  return x.id < y.id;
                });
      break;
    }
    case QueryKind::kBatchKnn: {
      const uint32_t k = request.knn.k;
      const size_t num_queries = request.batch_queries.size();
      std::vector<Neighbor> scratch;
      merged.batch_offsets.reserve(num_queries + 1);
      merged.batch_offsets.push_back(0);
      for (size_t q = 0; q < num_queries; ++q) {
        scratch.clear();
        for (const ShardAnswer& a : answers) {
          const QueryResponse<D>& r = a.response;
          const uint32_t lo = r.batch_offsets[q];
          const uint32_t hi = r.batch_offsets[q + 1];
          scratch.insert(scratch.end(), r.neighbors.begin() + lo,
                         r.neighbors.begin() + hi);
        }
        std::sort(scratch.begin(), scratch.end(), NeighborLess);
        if (scratch.size() > k) scratch.resize(k);
        merged.neighbors.insert(merged.neighbors.end(), scratch.begin(),
                                scratch.end());
        merged.batch_offsets.push_back(
            static_cast<uint32_t>(merged.neighbors.size()));
      }
      break;
    }
    case QueryKind::kNnSkyline: {
      // The global skyline is a subset of the union of shard skylines: a
      // global dominator of object o shares o's shard (where it already
      // eliminated o) or is itself undominated there and reaches the
      // union — either way o does not survive. Distance vectors are
      // recomputed with the canonical scalar expression (core/skyline.h),
      // bit-identical to the kernels the shards browsed with, so the
      // merged answer matches a single whole-dataset tree byte for byte.
      std::vector<Entry<D>> pool;
      for (const ShardAnswer& a : answers) {
        pool.insert(pool.end(), a.response.entries.begin(),
                    a.response.entries.end());
      }
      const size_t m = request.batch_queries.size();
      const Point<D>* sources = request.batch_queries.data();
      std::vector<double> dists(pool.size() * m);
      std::vector<double> sums(pool.size());
      for (size_t i = 0; i < pool.size(); ++i) {
        SkylineDistVector<D>(sources, m, pool[i].mbr, &dists[i * m]);
        double sum = 0.0;
        for (size_t j = 0; j < m; ++j) sum += dists[i * m + j];
        sums[i] = sum;
      }
      // Ascending (sum, id) is both the output order and a topological
      // order for dominance (a dominator's sum is strictly smaller), so
      // testing each entry against the already-kept prefix is exact.
      std::vector<size_t> order(pool.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        if (sums[x] != sums[y]) return sums[x] < sums[y];
        return pool[x].id < pool[y].id;
      });
      std::vector<size_t> kept;
      for (size_t idx : order) {
        bool dominated = false;
        for (size_t member : kept) {
          if (SkylineDominates(&dists[member * m], &dists[idx * m], m)) {
            dominated = true;
            break;
          }
        }
        if (!dominated) kept.push_back(idx);
      }
      merged.entries.reserve(kept.size());
      for (size_t idx : kept) merged.entries.push_back(pool[idx]);
      break;
    }
    case QueryKind::kReverseKnn: {
      // Re-run the sector selection globally. A shard's local filter may
      // keep objects that closer same-sector objects in *other* shards
      // eliminate, so the union is re-fed — in the ascending (dist, id)
      // order the filter requires — through a fresh filter. Distances are
      // recomputed with the scalar MINDIST, bit-identical to the kernel
      // keys the shards browsed with. The survivors, with geometry, are
      // the candidate round's answer. Shards answer kInvalidArgument
      // unless D == 2, so no other instantiation gets here.
      if constexpr (D == 2) {
        struct Candidate {
          double dist_sq;
          Entry<2> entry;
        };
        std::vector<Candidate> pool;
        for (const ShardAnswer& a : answers) {
          for (const Entry<2>& e : a.response.entries) {
            pool.push_back(Candidate{MinDistSq(request.query, e.mbr), e});
          }
        }
        std::sort(pool.begin(), pool.end(),
                  [](const Candidate& x, const Candidate& y) {
                    if (x.dist_sq != y.dist_sq) return x.dist_sq < y.dist_sq;
                    return x.entry.id < y.entry.id;
                  });
        ReverseKnnSectorFilter filter(request.query, request.knn.k);
        for (const Candidate& c : pool) {
          if (filter.Closed(c.dist_sq)) break;
          if (filter.Offer(c.entry.mbr.Center(), c.dist_sq)) {
            merged.entries.push_back(c.entry);
          }
        }
        rknn_candidates_->Add(merged.entries.size());
      }
      break;
    }
    default:
      break;
  }
}

// A reverse kNN's verification rounds: each candidate the candidate round
// selected is checked with an exact cross-shard (k+1)-NN at its location —
// the single-tree rule (core/reverse_knn.h), but the neighbor list now
// spans every shard. Each check is a kKnn round trip of its own; they run
// in sequence, so their latencies add onto the candidate round's.
template <int D>
void ShardRouter<D>::VerifyReverseKnn(const QueryRequest<D>& request,
                                      uint64_t trace_id,
                                      QueryResponse<D>* response) {
  std::vector<Entry<D>> candidates;
  candidates.swap(response->entries);
  for (const Entry<D>& c : candidates) {
    const double dist_sq = MinDistSq<D>(request.query, c.mbr);
    if (dist_sq == 0.0) {
      // Coincides with the query: unconditionally a reverse k-NN.
      response->neighbors.push_back(Neighbor{c.id, 0.0});
      continue;
    }
    const QueryResponse<D> around = ScatterQuery(
        QueryRequest<D>::Knn(c.mbr.Center(), request.knn.k + 1), trace_id);
    rknn_verify_rounds_->Inc();
    if (!around.ok()) {
      response->status = around.status;
      return;
    }
    response->stats.Add(around.stats);
    response->latency_ns += around.latency_ns;
    if (ReverseKnnQualifies(around.neighbors, c.id, dist_sq, request.knn.k)) {
      response->neighbors.push_back(Neighbor{c.id, dist_sq});
    }
  }
  std::sort(response->neighbors.begin(), response->neighbors.end(),
            NeighborLess);
}

// Assembles the root spans, one ShardSpan per visited shard, the
// slowest-shard queue wait, and the straggler shard into a
// RouterTraceRecord, then offers it to the trace log (slow ring or sampled
// reservoir — the log routes by total_ns). For unsampled slow captures
// the completion clocks are zero and the per-shard detail degrades to
// what every answer carries anyway (execute time + merged stats).
template <int D>
void ShardRouter<D>::RecordScatterTrace(
    const QueryRequest<D>& request, bool sampled, uint64_t trace_id,
    uint64_t root_span_id, const std::vector<ShardAnswer>& answers,
    uint64_t scatter_ns, uint64_t total_ns, const QueryStats& merged_stats) {
  obs::RouterTraceRecord rec;
  rec.trace_id = trace_id;
  rec.root_span_id = root_span_id;
  rec.SetKindName(QueryKindName(request.kind));
  rec.k = request.kind == QueryKind::kTopK ? request.top_k : request.knn.k;
  rec.traced = sampled;
  rec.scatter_ns = scatter_ns;
  rec.merge_ns = total_ns - scatter_ns;
  rec.total_ns = total_ns;
  rec.num_shards = static_cast<uint32_t>(answers.size());
  rec.merged_stats = merged_stats;

  uint64_t worst = 0;
  for (uint32_t i = 0; i < rec.captured_shards(); ++i) {
    obs::ShardSpan& span = rec.shards[i];
    const QueryResponse<D>& a = answers[i].response;
    span.shard = answers[i].shard;
    span.execute_ns = a.latency_ns;
    span.stats = a.stats;
    span.rpc_ns = answers[i].completed_ns;
    if (a.has_trace) {
      span.traced = true;
      span.worker = a.trace.worker;
      span.queue_wait_ns = a.trace.queue_wait_ns;
      std::memcpy(span.nodes_per_level, a.trace.nodes_per_level,
                  sizeof(span.nodes_per_level));
      rec.queue_ns = std::max(rec.queue_ns, span.queue_wait_ns);
    }
    // Straggler = largest router-observed round trip; without one (slow
    // capture of an unsampled request) fall back to the shard's own
    // queue + execute accounting.
    const uint64_t cost =
        span.rpc_ns != 0 ? span.rpc_ns : span.queue_wait_ns + span.execute_ns;
    if (cost > worst) {
      worst = cost;
      rec.straggler = span.shard;
    }
  }
  if (sampled) traces_assembled_->Inc();
  trace_log_.Record(rec);
}

template class ShardRouter<2>;
template class ShardRouter<3>;

}  // namespace spatial
