#include "src/storage/store.h"

#include <algorithm>
#include <utility>

#include "src/common/exec_context.h"
#include "src/common/failpoint.h"
#include "src/common/file_util.h"
#include "src/obs/metrics.h"
#include "src/storage/snapshot.h"

namespace lrpdb {
namespace storage {
namespace {

constexpr std::string_view kSnapshotPrefix = "snapshot-";
constexpr std::string_view kWalPrefix = "wal-";

// Files named by both prefixes, parsed out of one directory listing.
struct DirLayout {
  std::vector<uint64_t> snapshot_seqs;  // ascending
  std::vector<uint64_t> segment_seqs;   // ascending
  std::vector<std::string> temp_files;  // leftover "*.tmp.*" from crashes
};

[[nodiscard]] StatusOr<DirLayout> ReadLayout(const std::string& dir) {
  LRPDB_ASSIGN_OR_RETURN(std::vector<std::string> names, ListDir(dir));
  DirLayout layout;
  for (const std::string& name : names) {
    uint64_t seq = 0;
    if (ParseSeqFileName(name, kSnapshotPrefix, &seq)) {
      layout.snapshot_seqs.push_back(seq);
    } else if (ParseSeqFileName(name, kWalPrefix, &seq)) {
      layout.segment_seqs.push_back(seq);
    } else if (name.find(".tmp.") != std::string::npos) {
      layout.temp_files.push_back(name);
    }
    // Anything else in the directory is left alone.
  }
  // ListDir sorts lexicographically; zero-padded hex of equal width makes
  // that numeric order already, but sort defensively.
  std::sort(layout.snapshot_seqs.begin(), layout.snapshot_seqs.end());
  std::sort(layout.segment_seqs.begin(), layout.segment_seqs.end());
  return layout;
}

}  // namespace

std::string SeqFileName(std::string_view prefix, uint64_t seq) {
  char digits[17];
  for (int i = 15; i >= 0; --i) {
    digits[i] = "0123456789abcdef"[seq & 0xf];
    seq >>= 4;
  }
  digits[16] = '\0';
  return std::string(prefix) + digits;
}

bool ParseSeqFileName(std::string_view name, std::string_view prefix,
                      uint64_t* seq) {
  if (name.size() != prefix.size() + 16) return false;
  if (name.substr(0, prefix.size()) != prefix) return false;
  uint64_t value = 0;
  for (size_t i = prefix.size(); i < name.size(); ++i) {
    char c = name[i];
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else {
      return false;
    }
    value = (value << 4) | static_cast<uint64_t>(digit);
  }
  *seq = value;
  return true;
}

[[nodiscard]] StatusOr<PersistentStore> PersistentStore::Open(const std::string& dir,
                                                Database* db,
                                                const StoreOptions& options) {
  LRPDB_FAILPOINT("storage.store.open");
  if (db->interner().size() != 0 || !db->RelationNames().empty()) {
    return InvalidArgumentError(
        "PersistentStore::Open requires a fresh database");
  }
  LRPDB_RETURN_IF_ERROR(CreateDir(dir));
  LRPDB_ASSIGN_OR_RETURN(DirLayout layout, ReadLayout(dir));

  PersistentStore store;
  store.dir_ = dir;
  store.db_ = db;
  store.options_ = options;

  // Newest loadable snapshot wins; corrupt ones are skipped with a metric
  // and recovery falls back to older ones, then to the empty database.
  for (auto it = layout.snapshot_seqs.rbegin();
       it != layout.snapshot_seqs.rend(); ++it) {
    Database image;
    std::string path = dir + "/" + SeqFileName(kSnapshotPrefix, *it);
    StatusOr<uint64_t> covered = ReadSnapshotFile(path, &image);
    if (!covered.ok()) {
      ++store.recovery_.corrupt_snapshots_skipped;
      LRPDB_COUNTER_INC("store.snapshot.corrupt_skipped");
      continue;
    }
    if (*covered != *it) {
      // The file's own header disagrees with its name: treat as corrupt.
      ++store.recovery_.corrupt_snapshots_skipped;
      LRPDB_COUNTER_INC("store.snapshot.corrupt_skipped");
      continue;
    }
    *db = std::move(image);
    store.snapshot_seq_ = *covered;
    store.recovery_.loaded_snapshot = true;
    store.recovery_.snapshot_seq = *covered;
    break;
  }

  // Replay every record past the snapshot, in segment order. `expected`
  // enforces the global monotone, gap-free sequence.
  uint64_t expected = store.snapshot_seq_ + 1;
  WalScanResult last_scan;
  ExecContext* exec = ExecContext::Current();
  for (size_t i = 0; i < layout.segment_seqs.size(); ++i) {
    bool is_last = i + 1 == layout.segment_seqs.size();
    std::string path =
        dir + "/" + SeqFileName(kWalPrefix, layout.segment_seqs[i]);
    LRPDB_ASSIGN_OR_RETURN(WalScanResult scan, ScanWalSegment(path));
    if (!scan.header_valid || scan.torn_tail) {
      // Only the segment being written when the crash hit may be torn; a
      // torn interior segment means acknowledged records are gone.
      if (!is_last) {
        return ParseError("WAL segment '" + path +
                          "' is torn but is not the final segment");
      }
    }
    if (scan.header_valid && scan.start_seq != layout.segment_seqs[i]) {
      return ParseError("WAL segment '" + path + "' claims start_seq " +
                        std::to_string(scan.start_seq) +
                        ", disagreeing with its name");
    }
    for (const WalRecord& record : scan.records) {
      LRPDB_RETURN_IF_ERROR(PollExec(exec));
      if (record.seq <= store.snapshot_seq_) continue;  // in the snapshot
      if (record.seq != expected) {
        return ParseError(
            "WAL segment '" + path + "': record seq " +
            std::to_string(record.seq) +
            (record.seq < expected ? " duplicates an applied record"
                                   : " leaves a gap (expected " +
                                         std::to_string(expected) + ")"));
      }
      if (record.type != kRecordFactBatch &&
          record.type != kRecordRetractBatch) {
        return ParseError("WAL segment '" + path +
                          "': unknown record type " +
                          std::to_string(record.type) + " at seq " +
                          std::to_string(record.seq));
      }
      LRPDB_ASSIGN_OR_RETURN(FactBatch batch,
                             DecodeFactBatch(record.payload));
      if (record.type == kRecordFactBatch) {
        LRPDB_RETURN_IF_ERROR(ValidateFactBatch(batch, *db));
        LRPDB_RETURN_IF_ERROR(ApplyFactBatch(batch, db));
      } else {
        LRPDB_RETURN_IF_ERROR(ValidateRetractBatch(batch, *db));
        LRPDB_RETURN_IF_ERROR(ApplyRetractBatch(batch, db));
      }
      ++expected;
      ++store.recovery_.replayed_records;
      LRPDB_COUNTER_INC("store.wal.replayed_records");
    }
    if (is_last) last_scan = std::move(scan);
  }

  if (layout.segment_seqs.empty()) {
    store.active_segment_start_ = expected;
    std::string path = dir + "/" + SeqFileName(kWalPrefix, expected);
    LRPDB_ASSIGN_OR_RETURN(store.writer_,
                           WalWriter::Open(path, expected, options.sync));
    if (options.sync) LRPDB_RETURN_IF_ERROR(SyncDir(dir));
  } else {
    uint64_t start = layout.segment_seqs.back();
    std::string path = dir + "/" + SeqFileName(kWalPrefix, start);
    if (!last_scan.header_valid) {
      // Torn during segment creation: nothing usable, rewrite from scratch.
      // The header's start_seq must match the name, so the replay cursor
      // must sit exactly there.
      if (start != expected) {
        return ParseError("WAL segment '" + path +
                          "' has a torn header and its name does not match "
                          "the replay cursor " +
                          std::to_string(expected));
      }
      LRPDB_ASSIGN_OR_RETURN(uint64_t file_size, FileSize(path));
      store.recovery_.truncated_tail_bytes += file_size;
      LRPDB_RETURN_IF_ERROR(TruncateFile(path, 0, options.sync));
      LRPDB_COUNTER_INC("store.wal.truncated_tails");
    } else {
      if (last_scan.start_seq + last_scan.records.size() != expected) {
        // The snapshot acknowledges records the WAL no longer holds (or
        // vice versa) — possible only through file tampering or loss.
        return ParseError("WAL segment '" + path + "' ends at seq " +
                          std::to_string(last_scan.start_seq +
                                         last_scan.records.size() - 1) +
                          " but the replay cursor is " +
                          std::to_string(expected));
      }
      if (last_scan.torn_tail) {
        LRPDB_ASSIGN_OR_RETURN(uint64_t file_size, FileSize(path));
        store.recovery_.truncated_tail_bytes +=
            file_size - last_scan.valid_bytes;
        LRPDB_RETURN_IF_ERROR(
            TruncateFile(path, last_scan.valid_bytes, options.sync));
        LRPDB_COUNTER_INC("store.wal.truncated_tails");
      }
    }
    store.active_segment_start_ = start;
    LRPDB_ASSIGN_OR_RETURN(store.writer_,
                           WalWriter::Open(path, expected, options.sync));
  }
  store.recovery_.next_seq = expected;
  LRPDB_GAUGE_SET("store.wal.next_seq", static_cast<int64_t>(expected));
  return store;
}

[[nodiscard]] Status PersistentStore::AppendBatch(const FactBatch& batch) {
  LRPDB_FAILPOINT("storage.store.append_batch");
  if (db_ == nullptr || !writer_.is_open()) {
    return InternalError("AppendBatch on a closed store");
  }
  // Validate against the live database *before* the batch becomes durable,
  // so the WAL never holds a record that deterministically fails to apply.
  LRPDB_RETURN_IF_ERROR(ValidateFactBatch(batch, *db_));
  std::string payload = EncodeFactBatch(batch);
  LRPDB_RETURN_IF_ERROR(writer_.Append(kRecordFactBatch, payload));
  // Durable from here: apply to the in-memory database. Replay runs the
  // identical code path, so recovered and live state agree exactly.
  return ApplyFactBatch(batch, db_);
}

[[nodiscard]] Status PersistentStore::AppendRetractBatch(const FactBatch& batch) {
  LRPDB_FAILPOINT("storage.store.append_retract_batch");
  if (db_ == nullptr || !writer_.is_open()) {
    return InternalError("AppendRetractBatch on a closed store");
  }
  LRPDB_RETURN_IF_ERROR(ValidateRetractBatch(batch, *db_));
  std::string payload = EncodeFactBatch(batch);
  LRPDB_RETURN_IF_ERROR(writer_.Append(kRecordRetractBatch, payload));
  // Durable from here; replay runs the identical apply, so recovered and
  // live state hold exactly the same live entries.
  return ApplyRetractBatch(batch, db_);
}

[[nodiscard]] Status PersistentStore::WriteSnapshot() {
  LRPDB_FAILPOINT("storage.store.write_snapshot");
  if (db_ == nullptr || !writer_.is_open()) {
    return InternalError("WriteSnapshot on a closed store");
  }
  uint64_t covered = writer_.next_seq() - 1;
  std::string path = dir_ + "/" + SeqFileName(kSnapshotPrefix, covered);
  LRPDB_RETURN_IF_ERROR(WriteSnapshotFile(path, covered, *db_, options_.sync));
  snapshot_seq_ = covered;
  if (active_segment_start_ != covered + 1) {
    // Roll the WAL: subsequent appends go to a fresh segment so Compact can
    // drop the old one. A crash before the roll completes is benign —
    // recovery skips the old segment's covered records.
    LRPDB_RETURN_IF_ERROR(writer_.Close());
    std::string segment =
        dir_ + "/" + SeqFileName(kWalPrefix, covered + 1);
    LRPDB_ASSIGN_OR_RETURN(writer_,
                           WalWriter::Open(segment, covered + 1,
                                           options_.sync));
    active_segment_start_ = covered + 1;
    if (options_.sync) LRPDB_RETURN_IF_ERROR(SyncDir(dir_));
  }
  return OkStatus();
}

[[nodiscard]] Status PersistentStore::Compact() {
  LRPDB_FAILPOINT("storage.store.compact");
  LRPDB_ASSIGN_OR_RETURN(DirLayout layout, ReadLayout(dir_));
  int64_t deleted = 0;
  for (const std::string& name : layout.temp_files) {
    // Leftover atomic-write temporaries from a crashed snapshot publish;
    // never read by recovery, safe to drop.
    LRPDB_RETURN_IF_ERROR(RemoveFile(dir_ + "/" + name));
    ++deleted;
  }
  for (uint64_t seq : layout.snapshot_seqs) {
    if (seq < snapshot_seq_) {
      LRPDB_RETURN_IF_ERROR(
          RemoveFile(dir_ + "/" + SeqFileName(kSnapshotPrefix, seq)));
      ++deleted;
      LRPDB_COUNTER_INC("store.snapshot.deleted");
    }
  }
  // A segment is superseded when its entire range [start, next_start) is
  // covered by the newest snapshot. The active (last) segment never is.
  for (size_t i = 0; i + 1 < layout.segment_seqs.size(); ++i) {
    if (layout.segment_seqs[i + 1] <= snapshot_seq_ + 1) {
      LRPDB_RETURN_IF_ERROR(RemoveFile(
          dir_ + "/" + SeqFileName(kWalPrefix, layout.segment_seqs[i])));
      ++deleted;
      LRPDB_COUNTER_INC("store.wal.segments_deleted");
    }
  }
  if (deleted > 0 && options_.sync) {
    LRPDB_RETURN_IF_ERROR(SyncDir(dir_));
  }
  LRPDB_COUNTER_ADD("store.compact.files_deleted", deleted);
  return OkStatus();
}

[[nodiscard]] Status PersistentStore::Close() {
  if (!writer_.is_open()) return OkStatus();
  return writer_.Close();
}

}  // namespace storage
}  // namespace lrpdb
