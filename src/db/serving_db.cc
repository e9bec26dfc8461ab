#include "db/serving_db.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "common/macros.h"
#include "storage/faulty_disk.h"
#include "storage/file_disk_manager.h"
#include "wal/wal_reader.h"

namespace spatial {
namespace {

bool FileExists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fclose(f);
  return true;
}

}  // namespace

template <int D>
Result<std::unique_ptr<ServingDb<D>>> ServingDb<D>::Open(
    const std::string& path, const ServingOptions& options) {
  static_assert(D <= kWalMaxDim, "WAL records hold at most kWalMaxDim axes");
  SPATIAL_RETURN_IF_ERROR(options.tree.Validate());
  if (options.max_reader_slots == 0) {
    return Status::InvalidArgument("serving: need at least one reader slot");
  }

  bool created = false;
  if (!FileExists(path)) {
    if (!options.create_if_missing) {
      return Status::NotFound("no database at " + path);
    }
    // Creation happens outside fault injection: the crash matrix models
    // crashes of a *running* database, and a half-created empty file has
    // nothing to recover anyway.
    typename SpatialDb<D>::Options db_options;
    db_options.page_size = options.page_size;
    db_options.buffer_pages = options.buffer_pages;
    db_options.tree = options.tree;
    SPATIAL_ASSIGN_OR_RETURN(SpatialDb<D> fresh,
                             SpatialDb<D>::CreateOnFile(path, db_options));
    SPATIAL_RETURN_IF_ERROR(fresh.Close());
    created = true;
  }

  SPATIAL_ASSIGN_OR_RETURN(FileDiskManager file_disk,
                           FileDiskManager::Open(path, options.page_size));
  std::unique_ptr<Disk> disk =
      std::make_unique<FileDiskManager>(std::move(file_disk));
  if (options.injector != nullptr) {
    disk = std::make_unique<FaultyDiskManager>(std::move(disk),
                                               options.injector);
  }
  SPATIAL_ASSIGN_OR_RETURN(
      SpatialDb<D> db,
      SpatialDb<D>::OpenOnDisk(std::move(disk), options.page_size,
                               options.buffer_pages));

  std::unique_ptr<ServingDb<D>> sdb(new ServingDb<D>(path, options));
  sdb->db_ = std::make_unique<SpatialDb<D>>(std::move(db));
  sdb->epoch_ = sdb->db_->epoch();
  sdb->last_lsn_ = sdb->db_->checkpoint_lsn();
  sdb->recovery_info_.checkpoint_lsn = sdb->db_->checkpoint_lsn();
  sdb->recovery_info_.created = created;

  // COW goes on BEFORE replay: recovery mutations must never overwrite a
  // page the durable checkpoint root can reach, or a crash *during*
  // recovery would corrupt the one good copy of the tree.
  sdb->db_->tree().SetCowPolicy(&sdb->version_table_);
  sdb->version_table_.BeginEpoch(sdb->epoch_);

  SPATIAL_RETURN_IF_ERROR(sdb->Replay(sdb->db_->wal_seq()));

  // First publication: readers may pin as soon as Open returns.
  sdb->epoch_ += 1;
  sdb->PublishCurrent();
  sdb->version_table_.BeginEpoch(sdb->epoch_);

  // Fold the replayed tail into the base file right away; recovery work is
  // not redone if the process dies again before the first natural
  // checkpoint.
  SPATIAL_RETURN_IF_ERROR(sdb->Checkpoint());
  return sdb;
}

template <int D>
Status ServingDb<D>::Replay(uint64_t start_seq) {
  SPATIAL_ASSIGN_OR_RETURN(WalReplayIterator it,
                           WalReplayIterator::Open(path_, start_seq));
  WalRecord rec;
  while (true) {
    SPATIAL_ASSIGN_OR_RETURN(const bool more, it.Next(&rec));
    if (!more) break;
    if (rec.type == WalRecordType::kCheckpoint) continue;
    if (rec.lsn <= recovery_info_.checkpoint_lsn) continue;  // already folded
    if (rec.dim != D) {
      return Status::Corruption(
          "wal record is " + std::to_string(rec.dim) + "-dimensional in a " +
          std::to_string(D) + "-D database");
    }
    Rect<D> mbr;
    for (int d = 0; d < D; ++d) {
      mbr.lo[d] = rec.lo[d];
      mbr.hi[d] = rec.hi[d];
    }
    if (rec.type == WalRecordType::kInsert) {
      SPATIAL_RETURN_IF_ERROR(db_->tree().Insert(mbr, rec.object_id));
    } else {
      // A delete whose target is already gone replays as a no-op; the
      // outcome bit was only ever reported to the original caller.
      SPATIAL_ASSIGN_OR_RETURN(const bool removed,
                               db_->tree().Delete(mbr, rec.object_id));
      (void)removed;
    }
    recovery_info_.replayed_records += 1;
    if (rec.lsn > last_lsn_) last_lsn_ = rec.lsn;
  }
  recovery_info_.recovered_lsn = last_lsn_;
  recovery_info_.tail_torn = it.tail_torn();

  // Repair a torn tail BEFORE any later segment can exist; otherwise the
  // discarded ragged record would read as mid-log corruption next time.
  if (it.tail_torn()) {
    SPATIAL_RETURN_IF_ERROR(WalWriter::TruncateSegment(
        path_, it.torn_seq(), it.torn_keep_bytes()));
  }
  WalOptions wal_options;
  wal_options.segment_bytes = options_.wal_segment_bytes;
  SPATIAL_ASSIGN_OR_RETURN(
      WalWriter wal, WalWriter::Open(path_, it.next_seq(), wal_options,
                                     options_.injector));
  wal_.emplace(std::move(wal));
  wal_->set_metrics(&wal_metrics_);
  return Status::OK();
}

template <int D>
void ServingDb<D>::PublishCurrent() {
  TreeSnapshot snap;
  snap.root_page = db_->tree().root_page();
  snap.root_level = static_cast<uint16_t>(db_->tree().height() - 1);
  snap.size = db_->tree().size();
  snap.epoch = epoch_;
  snap.lsn = last_lsn_;
  snap.reclaim_gen = reclaim_gen_;
  snapshots_.Publish(snap);
}

template <int D>
Status ServingDb<D>::ApplyBatch(const std::vector<WriteOp>& ops,
                                std::vector<WriteResult>* results) {
  if (results != nullptr) results->clear();
  if (closed_) return Status::InvalidArgument("serving db is closed");
  if (dead_) {
    return Status::Internal(
        "serving db died after a durable failure; reopen to recover");
  }
  if (!wal_.has_value()) {
    return Status::Internal("serving db has no wal (open never finished)");
  }
  if (ops.empty()) return Status::OK();
  // Every op's MBR is checked before anything is logged: an op the tree
  // would reject after the commit would kill the db, and replay would
  // reject it again on every reopen.
  for (const WriteOp& op : ops) {
    if (!op.mbr.IsValid()) {
      return Status::InvalidArgument(op.is_insert
                                         ? "insert with an invalid MBR"
                                         : "delete with an invalid MBR");
    }
  }

  // 1. Log every op, then make the whole batch durable with ONE write and
  //    ONE fsync (group commit). Nothing is acknowledged unless this
  //    lands; a torn tail is discarded by replay's CRC check.
  const uint64_t first_lsn = last_lsn_ + 1;
  for (size_t i = 0; i < ops.size(); ++i) {
    WalRecord rec;
    rec.type = ops[i].is_insert ? WalRecordType::kInsert
                                : WalRecordType::kDelete;
    rec.dim = D;
    rec.lsn = first_lsn + i;
    rec.object_id = ops[i].id;
    rec.epoch = epoch_ + 1;
    for (int d = 0; d < D; ++d) {
      rec.lo[d] = ops[i].mbr.lo[d];
      rec.hi[d] = ops[i].mbr.hi[d];
    }
    if (Status st = wal_->Append(rec); !st.ok()) return Die(std::move(st));
  }
  if (Status st = wal_->Commit(); !st.ok()) return Die(std::move(st));

  // 2. Apply against the writer's tree under COW: no page a published
  //    snapshot can reach is edited in place. A failure here is fatal but
  //    loses nothing — the ops are in the log and replay on reopen.
  std::vector<WriteResult> local(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    local[i].lsn = first_lsn + i;
    if (ops[i].is_insert) {
      if (Status st = db_->tree().Insert(ops[i].mbr, ops[i].id); !st.ok()) {
        return Die(std::move(st));
      }
      local[i].applied = true;
    } else {
      Result<bool> removed = db_->tree().Delete(ops[i].mbr, ops[i].id);
      if (!removed.ok()) return Die(removed.status());
      local[i].applied = *removed;
    }
  }

  // 3. Push the new pages to the file so reader pools (which read the same
  //    file through their own pread fds) can see them. No fsync here —
  //    durability came from the WAL; this write is for visibility, and the
  //    kernel page cache makes it coherent with concurrent preads.
  if (Status st = db_->pool().FlushAll(); !st.ok()) return Die(std::move(st));

  // 4. Publish: the batch becomes the current snapshot, the pages it
  //    allocated become reachable (fresh set resets), and the caller is
  //    acknowledged.
  last_lsn_ = first_lsn + ops.size() - 1;
  epoch_ += 1;
  PublishCurrent();
  version_table_.BeginEpoch(epoch_);
  retired_pages_.Store(version_table_.retired_count());
  if (results != nullptr) *results = std::move(local);

  // 5. Housekeeping after the ack: a full segment triggers a checkpoint.
  //    Its failure cannot retract the acknowledgment (the batch is already
  //    durable); it marks the db dead and the *next* write reports it.
  if (wal_->ShouldRotate()) (void)Checkpoint();
  return Status::OK();
}

template <int D>
Status ServingDb<D>::Checkpoint() {
  if (closed_) return Status::InvalidArgument("serving db is closed");
  if (dead_) {
    return Status::Internal(
        "serving db died after a durable failure; reopen to recover");
  }
  if (!wal_.has_value()) {
    return Status::Internal("serving db has no wal (open never finished)");
  }

  // (a) Every page the tree references must be durable before the
  //     superblock may point at it.
  if (Status st = db_->pool().FlushAll(); !st.ok()) return Die(std::move(st));
  {
    const auto sync_start = std::chrono::steady_clock::now();
    if (Status st = db_->disk().Sync(); !st.ok()) return Die(std::move(st));
    checkpoint_sync_ns_.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - sync_start)
            .count()));
  }

  // (b) Start a fresh segment; a marker record ties it to this checkpoint
  //     (replay skips it — state comes from the superblock).
  Result<uint64_t> rotated = wal_->Rotate();
  if (!rotated.ok()) return Die(rotated.status());
  const uint64_t new_seq = *rotated;
  WalRecord marker;
  marker.type = WalRecordType::kCheckpoint;
  marker.dim = 0;
  marker.lsn = last_lsn_;
  marker.epoch = epoch_;
  if (Status st = wal_->Append(marker); !st.ok()) return Die(std::move(st));
  if (Status st = wal_->Commit(); !st.ok()) return Die(std::move(st));

  // (c) The atomic commit point: one sector-sized superblock write flips
  //     the durable state to (root, epoch, lsn, wal_seq) at once. Crash
  //     before it → recover from the old superblock + old segments (still
  //     present); crash after → the new state is complete.
  db_->StampDurability(epoch_, last_lsn_, new_seq);
  if (Status st = db_->Flush(); !st.ok()) return Die(std::move(st));

  // (d) Old segments can no longer be named by any superblock.
  wal_->DeleteSegmentsBelow(new_seq);

  // (e) Reclaim retired pages: the durable root no longer references them
  //     (it was just rewritten), so only a pinned snapshot can — the
  //     horizon excludes those. Readers notice recycled ids through
  //     reclaim_gen and drop their cached images.
  Status free_status = Status::OK();
  const uint64_t freed = version_table_.ReclaimUpTo(
      snapshots_.MinPinnedEpoch(), [&](PageId id) {
        if (!free_status.ok()) return;
        Status st = db_->pool().FreePage(id);
        if (!st.ok()) free_status = std::move(st);
      });
  if (!free_status.ok()) return Die(std::move(free_status));
  reclaimed_pages_total_ += freed;
  retired_pages_.Store(version_table_.retired_count());
  if (freed > 0) {
    ++reclaim_gen_;
    PublishCurrent();
  }
  ++checkpoints_;
  return Status::OK();
}

template <int D>
Status ServingDb<D>::Close() {
  if (closed_) return Status::OK();
  if (dead_) {
    closed_ = true;
    db_->Abandon();
    return Status::Internal(
        "serving db died after a durable failure; in-memory state "
        "discarded (the WAL preserves every acknowledged write)");
  }
  const Status checkpointed = Checkpoint();
  closed_ = true;
  if (!checkpointed.ok()) {
    db_->Abandon();
    return checkpointed;
  }
  return db_->Close();
}

template <int D>
void ServingDb<D>::Abandon() {
  closed_ = true;
  dead_ = true;
  if (db_ != nullptr) db_->Abandon();
}

template <int D>
ServingDb<D>::~ServingDb() {
  if (db_ == nullptr || closed_) return;
  if (dead_) {
    db_->Abandon();
    return;
  }
  const Status st = Close();
  if (!st.ok()) {
    std::fprintf(stderr, "ServingDb: close in destructor failed: %s\n",
                 st.ToString().c_str());
  }
}

template <int D>
Result<std::unique_ptr<ServingDb<D>>> SpatialDb<D>::OpenForServing(
    const std::string& path, const ServingOptions& options) {
  return ServingDb<D>::Open(path, options);
}

template class ServingDb<2>;
template class ServingDb<3>;

template Result<std::unique_ptr<ServingDb<2>>> SpatialDb<2>::OpenForServing(
    const std::string&, const ServingOptions&);
template Result<std::unique_ptr<ServingDb<3>>> SpatialDb<3>::OpenForServing(
    const std::string&, const ServingOptions&);

}  // namespace spatial
