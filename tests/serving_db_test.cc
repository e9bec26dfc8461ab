// ServingDb lifecycle: durable writes, read-your-writes, crash recovery
// via WAL replay, checkpoint segment truncation, snapshot publication,
// and the serving mode of QueryService (writes alongside queries).

#include "db/serving_db.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "rtree/validator.h"
#include "service/query_service.h"
#include "storage/fault_injector.h"
#include "tests/test_util.h"
#include "wal/wal_writer.h"

namespace spatial {
namespace {

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void CleanupDb(const std::string& path) {
  std::remove(path.c_str());
  for (uint64_t s = 1; s <= 64; ++s) {
    std::remove(WalWriter::SegmentPath(path, s).c_str());
  }
}

Rect<2> UnitBox(double x, double y) {
  Rect<2> r;
  r.lo[0] = x;
  r.lo[1] = y;
  r.hi[0] = x + 0.01;
  r.hi[1] = y + 0.01;
  return r;
}

Rect<2> Everything() {
  Rect<2> r;
  r.lo[0] = r.lo[1] = -1e9;
  r.hi[0] = r.hi[1] = 1e9;
  return r;
}

std::vector<uint64_t> AllIds(RTree<2>& tree) {
  std::vector<Entry<2>> entries;
  EXPECT_TRUE(tree.Search(Everything(), &entries).ok());
  std::vector<uint64_t> ids;
  ids.reserve(entries.size());
  for (const auto& e : entries) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

using WriteOp2 = ServingDb<2>::WriteOp;
using WriteResult2 = ServingDb<2>::WriteResult;

TEST(ServingDbTest, CreateApplyReadYourWrites) {
  const std::string path = TempPath("serving_basic.sdb");
  CleanupDb(path);
  auto sdb = ServingDb<2>::Open(path, ServingOptions{});
  ASSERT_TRUE(sdb.ok()) << sdb.status().ToString();
  EXPECT_TRUE((*sdb)->recovery_info().created);
  EXPECT_EQ((*sdb)->last_lsn(), 0u);

  Rng rng(11);
  std::vector<WriteOp2> ops;
  for (uint64_t id = 1; id <= 40; ++id) {
    ops.push_back(WriteOp2::Insert(
        UnitBox(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)), id));
  }
  std::vector<WriteResult2> results;
  ASSERT_TRUE((*sdb)->ApplyBatch(ops, &results).ok());
  ASSERT_EQ(results.size(), 40u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].lsn, i + 1);
    EXPECT_TRUE(results[i].applied);
  }
  EXPECT_EQ((*sdb)->last_lsn(), 40u);
  EXPECT_EQ((*sdb)->writer_tree().size(), 40u);

  // Read-your-writes through the writer's own tree handle.
  EXPECT_EQ(AllIds((*sdb)->writer_tree()).size(), 40u);
  auto report = ValidateTree<2>((*sdb)->writer_tree(), true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->leaf_entries, 40u);

  // Snapshot publication tracks the write.
  const TreeSnapshot snap = (*sdb)->CurrentSnapshot();
  EXPECT_EQ(snap.size, 40u);
  EXPECT_EQ(snap.lsn, 40u);
  EXPECT_EQ(snap.epoch, (*sdb)->epoch());

  ASSERT_TRUE((*sdb)->Close().ok());
  CleanupDb(path);
}

TEST(ServingDbTest, DeleteReportsWhetherItApplied) {
  const std::string path = TempPath("serving_delete.sdb");
  CleanupDb(path);
  auto sdb = ServingDb<2>::Open(path, ServingOptions{});
  ASSERT_TRUE(sdb.ok());

  std::vector<WriteResult2> results;
  ASSERT_TRUE((*sdb)
                  ->ApplyBatch({WriteOp2::Insert(UnitBox(0.1, 0.1), 1),
                                WriteOp2::Insert(UnitBox(0.2, 0.2), 2)},
                               &results)
                  .ok());
  ASSERT_TRUE((*sdb)
                  ->ApplyBatch({WriteOp2::Delete(UnitBox(0.1, 0.1), 1),
                                WriteOp2::Delete(UnitBox(0.9, 0.9), 77)},
                               &results)
                  .ok());
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].applied);    // exact match removed
  EXPECT_FALSE(results[1].applied);   // no such entry: durable no-op
  EXPECT_EQ((*sdb)->writer_tree().size(), 1u);

  // Inserts with an empty MBR are rejected before anything is logged.
  EXPECT_TRUE((*sdb)
                  ->ApplyBatch({WriteOp2::Insert(Rect<2>::Empty(), 9)}, nullptr)
                  .IsInvalidArgument());
  EXPECT_EQ((*sdb)->last_lsn(), 4u);

  ASSERT_TRUE((*sdb)->Close().ok());
  CleanupDb(path);
}

TEST(ServingDbTest, InvalidDeleteMbrIsRejectedBeforeTheLog) {
  // A delete the tree would reject must not reach the WAL: after the
  // commit its failure would kill the db, and replay would fail every
  // reopen on it.
  const std::string path = TempPath("serving_bad_delete.sdb");
  CleanupDb(path);
  {
    auto sdb = ServingDb<2>::Open(path, ServingOptions{});
    ASSERT_TRUE(sdb.ok());
    ASSERT_TRUE(
        (*sdb)->ApplyBatch({WriteOp2::Insert(UnitBox(0.2, 0.2), 1)}, nullptr)
            .ok());
    EXPECT_TRUE((*sdb)
                    ->ApplyBatch({WriteOp2::Delete(Rect<2>::Empty(), 7)},
                                 nullptr)
                    .IsInvalidArgument());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_TRUE(
        (*sdb)
            ->ApplyBatch({WriteOp2::Delete(Rect<2>::FromPoint({{nan, 0.5}}),
                                           1)},
                         nullptr)
            .IsInvalidArgument());
    EXPECT_FALSE((*sdb)->dead());
    EXPECT_EQ((*sdb)->last_lsn(), 1u);
    ASSERT_TRUE(
        (*sdb)->ApplyBatch({WriteOp2::Insert(UnitBox(0.4, 0.4), 2)}, nullptr)
            .ok());
    (*sdb)->Abandon();  // crash: the reopen replays the log
  }
  auto sdb = ServingDb<2>::Open(path, ServingOptions{});
  ASSERT_TRUE(sdb.ok()) << sdb.status().ToString();
  EXPECT_EQ(AllIds((*sdb)->writer_tree()), (std::vector<uint64_t>{1, 2}));
  ASSERT_TRUE((*sdb)->Close().ok());
  CleanupDb(path);
}

TEST(ServingDbTest, ReopenAfterCloseFindsCheckpointedState) {
  const std::string path = TempPath("serving_reopen.sdb");
  CleanupDb(path);
  std::vector<uint64_t> expected_ids;
  {
    auto sdb = ServingDb<2>::Open(path, ServingOptions{});
    ASSERT_TRUE(sdb.ok());
    Rng rng(5);
    std::vector<WriteOp2> ops;
    for (uint64_t id = 100; id < 130; ++id) {
      ops.push_back(WriteOp2::Insert(
          UnitBox(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)), id));
      expected_ids.push_back(id);
    }
    ASSERT_TRUE((*sdb)->ApplyBatch(ops, nullptr).ok());
    ASSERT_TRUE((*sdb)->Close().ok());
  }
  auto sdb = ServingDb<2>::Open(path, ServingOptions{});
  ASSERT_TRUE(sdb.ok()) << sdb.status().ToString();
  EXPECT_FALSE((*sdb)->recovery_info().created);
  // Close checkpointed, so nothing needed replay.
  EXPECT_EQ((*sdb)->recovery_info().replayed_records, 0u);
  EXPECT_EQ((*sdb)->recovery_info().checkpoint_lsn, 30u);
  EXPECT_EQ((*sdb)->last_lsn(), 30u);
  EXPECT_EQ(AllIds((*sdb)->writer_tree()), expected_ids);
  ASSERT_TRUE((*sdb)->Close().ok());
  CleanupDb(path);
}

TEST(ServingDbTest, ReopenAfterCrashReplaysWalTail) {
  const std::string path = TempPath("serving_crash.sdb");
  CleanupDb(path);
  {
    auto sdb = ServingDb<2>::Open(path, ServingOptions{});
    ASSERT_TRUE(sdb.ok());
    std::vector<WriteOp2> ops;
    for (uint64_t id = 1; id <= 25; ++id) {
      ops.push_back(WriteOp2::Insert(UnitBox(0.03 * id, 0.03 * id), id));
    }
    ASSERT_TRUE((*sdb)->ApplyBatch(ops, nullptr).ok());
    ASSERT_TRUE(
        (*sdb)->ApplyBatch({WriteOp2::Delete(UnitBox(0.03, 0.03), 1)}, nullptr)
            .ok());
    // Crash: no checkpoint, no flush — the acked state exists only in the
    // base file's old root plus the WAL tail.
    (*sdb)->Abandon();
  }
  auto sdb = ServingDb<2>::Open(path, ServingOptions{});
  ASSERT_TRUE(sdb.ok()) << sdb.status().ToString();
  EXPECT_EQ((*sdb)->recovery_info().replayed_records, 26u);
  EXPECT_EQ((*sdb)->recovery_info().recovered_lsn, 26u);
  EXPECT_EQ((*sdb)->writer_tree().size(), 24u);
  std::vector<uint64_t> want;
  for (uint64_t id = 2; id <= 25; ++id) want.push_back(id);
  EXPECT_EQ(AllIds((*sdb)->writer_tree()), want);
  auto report = ValidateTree<2>((*sdb)->writer_tree(), true);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE((*sdb)->Close().ok());
  CleanupDb(path);
}

TEST(ServingDbTest, CheckpointTruncatesWalSegments) {
  const std::string path = TempPath("serving_ckpt.sdb");
  CleanupDb(path);
  auto sdb = ServingDb<2>::Open(path, ServingOptions{});
  ASSERT_TRUE(sdb.ok());
  ASSERT_TRUE(
      (*sdb)->ApplyBatch({WriteOp2::Insert(UnitBox(0.5, 0.5), 1)}, nullptr)
          .ok());
  const uint64_t before = (*sdb)->checkpoints();
  ASSERT_TRUE((*sdb)->Checkpoint().ok());
  EXPECT_EQ((*sdb)->checkpoints(), before + 1);

  // Every segment below the current one is gone; the current one exists.
  const uint64_t seq = (*sdb)->db().wal_seq();
  ASSERT_GE(seq, 2u);
  for (uint64_t s = 1; s < seq; ++s) {
    EXPECT_EQ(std::fopen(WalWriter::SegmentPath(path, s).c_str(), "rb"),
              nullptr)
        << "segment " << s << " should have been truncated";
  }
  std::FILE* cur = std::fopen(WalWriter::SegmentPath(path, seq).c_str(), "rb");
  EXPECT_NE(cur, nullptr);
  if (cur != nullptr) std::fclose(cur);
  ASSERT_TRUE((*sdb)->Close().ok());
  CleanupDb(path);
}

TEST(ServingDbTest, DiesOnInjectedCommitFailureButRecovers) {
  const std::string path = TempPath("serving_dead.sdb");
  CleanupDb(path);
  FaultInjector injector;
  ServingOptions options;
  options.injector = &injector;
  uint64_t acked_lsn = 0;
  {
    auto sdb = ServingDb<2>::Open(path, options);
    ASSERT_TRUE(sdb.ok()) << sdb.status().ToString();
    std::vector<WriteResult2> results;
    ASSERT_TRUE(
        (*sdb)
            ->ApplyBatch({WriteOp2::Insert(UnitBox(0.2, 0.2), 1)}, &results)
            .ok());
    acked_lsn = results.back().lsn;

    // The next durable op (the WAL batch write) fails: the batch is not
    // acked and the db is dead.
    injector.Arm(1);
    EXPECT_FALSE(
        (*sdb)
            ->ApplyBatch({WriteOp2::Insert(UnitBox(0.4, 0.4), 2)}, nullptr)
            .ok());
    EXPECT_TRUE((*sdb)->dead());
    injector.Arm(0);  // "disk" works again; the db stays dead regardless
    EXPECT_TRUE(
        (*sdb)
            ->ApplyBatch({WriteOp2::Insert(UnitBox(0.6, 0.6), 3)}, nullptr)
            .IsInternal());
    EXPECT_TRUE((*sdb)->Checkpoint().IsInternal());
    EXPECT_TRUE((*sdb)->Close().IsInternal());
  }
  // Reopen recovers every acknowledged write.
  auto sdb = ServingDb<2>::Open(path, ServingOptions{});
  ASSERT_TRUE(sdb.ok()) << sdb.status().ToString();
  EXPECT_GE((*sdb)->recovery_info().recovered_lsn, acked_lsn);
  EXPECT_EQ((*sdb)->writer_tree().size(), 1u);
  ASSERT_TRUE((*sdb)->Close().ok());
  CleanupDb(path);
}

TEST(ServingDbTest, PinnedSnapshotDefersReclamation) {
  const std::string path = TempPath("serving_pin.sdb");
  CleanupDb(path);
  auto sdb = ServingDb<2>::Open(path, ServingOptions{});
  ASSERT_TRUE(sdb.ok());

  auto slot = (*sdb)->RegisterReader();
  ASSERT_TRUE(slot.ok());
  const TreeSnapshot pinned = (*sdb)->PinSnapshot(*slot);

  // COW writes retire pages the pinned snapshot can still reach; a
  // checkpoint while pinned must not recycle any of them (every retiree
  // is tagged with an epoch >= the pin).
  for (uint64_t id = 1; id <= 20; ++id) {
    ASSERT_TRUE(
        (*sdb)
            ->ApplyBatch({WriteOp2::Insert(UnitBox(0.04 * id, 0.1), id)},
                         nullptr)
            .ok());
  }
  const uint64_t gen_before = (*sdb)->reclaim_gen();
  ASSERT_TRUE((*sdb)->Checkpoint().ok());
  EXPECT_EQ((*sdb)->reclaim_gen(), gen_before);  // nothing freed while pinned
  EXPECT_EQ(pinned.size, 0u);                    // the old version, intact

  (*sdb)->UnpinSnapshot(*slot);
  (*sdb)->ReleaseReader(*slot);
  ASSERT_TRUE((*sdb)->Checkpoint().ok());
  EXPECT_GT((*sdb)->reclaim_gen(), gen_before);  // retirees now reclaimed
  ASSERT_TRUE((*sdb)->Close().ok());
  CleanupDb(path);
}

TEST(ServingServiceTest, WritesAndQueriesEndToEnd) {
  const std::string path = TempPath("serving_service.sdb");
  CleanupDb(path);
  QueryService<2>::Options options;
  options.num_workers = 3;
  auto service = QueryService<2>::OpenServing(path, ServingOptions{}, options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE((*service)->serving());

  Rng rng(23);
  std::vector<Entry<2>> reference;
  std::vector<std::future<QueryResponse<2>>> pending;
  for (uint64_t id = 1; id <= 200; ++id) {
    const Rect<2> box =
        UnitBox(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0));
    reference.push_back(Entry<2>{box, id});
    pending.push_back((*service)->Submit(QueryRequest<2>::Insert(box, id)));
  }
  uint64_t max_lsn = 0;
  for (auto& f : pending) {
    QueryResponse<2> resp = f.get();
    ASSERT_TRUE(resp.ok()) << resp.status.ToString();
    EXPECT_EQ(resp.affected, 1u);
    max_lsn = std::max(max_lsn, resp.lsn);
  }
  EXPECT_EQ(max_lsn, 200u);

  // Queries see the acknowledged writes.
  for (int i = 0; i < 20; ++i) {
    const Point2 q{{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
    QueryResponse<2> got = (*service)->Execute(QueryRequest<2>::Knn(q, 5));
    ASSERT_TRUE(got.ok()) << got.status.ToString();
    ExpectKnnMatchesBruteForce(reference, q, 5, got.neighbors);
  }

  // Deletes and checkpoints flow through the same write path.
  QueryResponse<2> del =
      (*service)->Execute(QueryRequest<2>::Delete(reference[0].mbr, 1));
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del.affected, 1u);
  QueryResponse<2> ckpt = (*service)->Execute(QueryRequest<2>::Checkpoint());
  ASSERT_TRUE(ckpt.ok()) << ckpt.status.ToString();

  const ServiceStats stats = (*service)->Snapshot();
  EXPECT_EQ(stats.writes_ok, 201u);
  EXPECT_EQ(stats.writes_failed, 0u);
  EXPECT_GE(stats.checkpoints, 1u);

  (*service)->Shutdown();

  // The served data survived: reopen and check.
  auto sdb = ServingDb<2>::Open(path, ServingOptions{});
  ASSERT_TRUE(sdb.ok()) << sdb.status().ToString();
  EXPECT_EQ((*sdb)->writer_tree().size(), 199u);
  ASSERT_TRUE((*sdb)->Close().ok());
  CleanupDb(path);
}

TEST(ServingServiceTest, WritesRejectedOnReadOnlyService) {
  const std::string path = TempPath("serving_readonly.sdb");
  CleanupDb(path);
  {
    auto sdb = ServingDb<2>::Open(path, ServingOptions{});
    ASSERT_TRUE(sdb.ok());
    ASSERT_TRUE(
        (*sdb)->ApplyBatch({WriteOp2::Insert(UnitBox(0.5, 0.5), 1)}, nullptr)
            .ok());
    ASSERT_TRUE((*sdb)->Close().ok());
  }
  auto service =
      QueryService<2>::Open(path, ServingOptions{}.page_size,
                            QueryService<2>::Options{});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_FALSE((*service)->serving());
  QueryResponse<2> resp =
      (*service)->Execute(QueryRequest<2>::Insert(UnitBox(0.1, 0.1), 2));
  EXPECT_TRUE(resp.status.IsInvalidArgument()) << resp.status.ToString();
  CleanupDb(path);
}

}  // namespace
}  // namespace spatial
