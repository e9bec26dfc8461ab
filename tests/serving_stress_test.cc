// Concurrent read/write stress over the serving stack: one submitter
// drives inserts/deletes (with periodic checkpoints) at a fixed rate while
// four query threads hammer kNN and range queries through the worker pool.
// Every query must succeed against SOME consistent snapshot (no dangling
// page ids, sorted results), and the final tree must validate and match
// the reference model of all acknowledged writes.
//
// Designed to run under ThreadSanitizer (tools/tsan_check.sh) — it crosses
// every serving-mode synchronization point: write queue, group commit,
// snapshot publish/pin, reclaim_gen invalidation, and concurrent preads.
// `--smoke` shortens the run for tier-1 ctest.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "db/serving_db.h"
#include "rtree/validator.h"
#include "service/query_service.h"
#include "wal/wal_writer.h"

namespace spatial {
namespace {

bool g_smoke = false;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void CleanupDb(const std::string& path) {
  std::remove(path.c_str());
  for (uint64_t s = 1; s <= 256; ++s) {
    std::remove(WalWriter::SegmentPath(path, s).c_str());
  }
}

TEST(ServingStressTest, ReadersSeeConsistentSnapshotsUnderWriteLoad) {
  const std::string path = TempPath("serving_stress.sdb");
  CleanupDb(path);

  const int kWrites = g_smoke ? 300 : 3000;
  const int kQueriesPerThread = g_smoke ? 400 : 4000;
  const int kQueryThreads = 4;
  const int kCheckpointEvery = 64;

  QueryService<2>::Options options;
  options.num_workers = kQueryThreads;
  options.frames_per_worker = 32;
  ServingOptions serving;
  serving.wal_segment_bytes = 64 * 1024;  // exercise rotation checkpoints
  auto service = QueryService<2>::OpenServing(path, serving, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  std::atomic<uint64_t> queries_ok{0};
  std::atomic<uint64_t> query_failures{0};
  std::atomic<uint64_t> malformed_results{0};

  // The single write submitter. All writes are acked in submission order,
  // so the reference model is just "replay the script".
  std::vector<Entry<2>> reference;
  std::thread writer([&] {
    Rng rng(2026);
    std::vector<std::future<QueryResponse<2>>> pending;
    std::vector<Entry<2>> live;
    uint64_t next_id = 1;
    for (int i = 0; i < kWrites; ++i) {
      const bool do_delete = !live.empty() && i % 5 == 4;
      if (do_delete) {
        const size_t victim = rng.NextBounded(live.size());
        pending.push_back((*service)->Submit(
            QueryRequest<2>::Delete(live[victim].mbr, live[victim].id)));
        live.erase(live.begin() + victim);
      } else {
        Rect<2> r;
        r.lo[0] = rng.Uniform(0.0, 1.0);
        r.lo[1] = rng.Uniform(0.0, 1.0);
        r.hi[0] = r.lo[0] + 0.005;
        r.hi[1] = r.lo[1] + 0.005;
        pending.push_back(
            (*service)->Submit(QueryRequest<2>::Insert(r, next_id)));
        live.push_back(Entry<2>{r, next_id});
        ++next_id;
      }
      if (i % kCheckpointEvery == kCheckpointEvery - 1) {
        pending.push_back(
            (*service)->Submit(QueryRequest<2>::Checkpoint()));
      }
      // Fixed pacing: ~10k submits/s, so queries overlap many epochs.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    for (auto& f : pending) {
      const QueryResponse<2> resp = f.get();
      EXPECT_TRUE(resp.ok()) << resp.status.ToString();
    }
    reference = std::move(live);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < kQueryThreads; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(777 + t);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const Point<2> q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
        QueryResponse<2> resp;
        if (i % 3 == 0) {
          Rect<2> window;
          window.lo[0] = q[0];
          window.lo[1] = q[1];
          window.hi[0] = q[0] + 0.1;
          window.hi[1] = q[1] + 0.1;
          resp = (*service)->Execute(QueryRequest<2>::Range(window));
        } else {
          resp = (*service)->Execute(QueryRequest<2>::Knn(q, 8));
        }
        // A query against a pinned snapshot must never fail — a dangling
        // page id or torn traversal would surface here as an error.
        if (!resp.ok()) {
          ++query_failures;
          continue;
        }
        ++queries_ok;
        bool sorted = true;
        for (size_t j = 1; j < resp.neighbors.size(); ++j) {
          sorted &= resp.neighbors[j - 1].dist_sq <= resp.neighbors[j].dist_sq;
        }
        if (!sorted || resp.neighbors.size() > 8) ++malformed_results;
      }
    });
  }

  writer.join();
  for (auto& r : readers) r.join();

  EXPECT_EQ(query_failures.load(), 0u);
  EXPECT_EQ(malformed_results.load(), 0u);
  EXPECT_EQ(queries_ok.load(),
            static_cast<uint64_t>(kQueryThreads) * kQueriesPerThread);

  const ServiceStats stats = (*service)->Snapshot();
  // The readers call Execute, so the race covered is the inline one:
  // reads on the caller's thread across snapshot pins and reclaim_gen
  // pool invalidation.
  EXPECT_GT(stats.inline_runs, 0u);
  EXPECT_EQ(stats.writes_failed, 0u);
  EXPECT_EQ(stats.writes_ok, static_cast<uint64_t>(kWrites));
  EXPECT_GE(stats.checkpoints, static_cast<uint64_t>(
                                   kWrites / kCheckpointEvery));

  // Final state: every acked write, nothing else, in a valid tree.
  ServingDb<2>* sdb = (*service)->serving_db();
  ASSERT_NE(sdb, nullptr);
  ASSERT_EQ(sdb->writer_tree().size(), reference.size());
  auto report = ValidateTree<2>(sdb->writer_tree(), true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->leaf_entries, reference.size());

  Rect<2> everything;
  everything.lo[0] = everything.lo[1] = -1e9;
  everything.hi[0] = everything.hi[1] = 1e9;
  std::vector<Entry<2>> found;
  ASSERT_TRUE(sdb->writer_tree().Search(everything, &found).ok());
  std::vector<uint64_t> got_ids, want_ids;
  for (const auto& e : found) got_ids.push_back(e.id);
  for (const auto& e : reference) want_ids.push_back(e.id);
  std::sort(got_ids.begin(), got_ids.end());
  std::sort(want_ids.begin(), want_ids.end());
  EXPECT_EQ(got_ids, want_ids);

  (*service)->Shutdown();
  CleanupDb(path);
}

}  // namespace
}  // namespace spatial

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") spatial::g_smoke = true;
  }
  return RUN_ALL_TESTS();
}
