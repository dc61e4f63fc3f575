// Checksummed, versioned snapshot files (DESIGN.md §12).
//
// A snapshot is one atomically-renamed file holding a full database image:
//
//   "LRPSNAP1" | u32 version | u64 covered_seq | u64 payload_len
//   | u32 crc(head) | payload (database image, codec.h) | u32 crc(payload)
//
// covered_seq is the sequence number of the last WAL record whose effects
// the image includes; recovery replays only records with larger numbers.
// Because snapshots are published by rename(2) after an fsync, a reader
// never sees a torn snapshot — any checksum or framing violation here is
// corruption and surfaces as a Status (recovery then falls back to an
// older snapshot).
#ifndef LRPDB_STORAGE_SNAPSHOT_H_
#define LRPDB_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <string>

#include "src/common/statusor.h"
#include "src/gdb/database.h"

namespace lrpdb {
namespace storage {

// Version history:
//   1 — initial format.
//   2 — database image gained a per-relation tombstone section (dead entry
//       ids after the generation ranges; codec.cc) for incremental
//       retraction. Older images lack the section, so v1 files are
//       rejected rather than misparsed.
//   3 — images hold live entries only: the tombstone section and the
//       per-relation index-flag byte are gone, and the generation bounds
//       count live entries. Entry ids do not survive a restart. v2 files
//       are rejected rather than misparsed.
inline constexpr uint32_t kSnapshotFormatVersion = 3;

// Serializes `db` and durably publishes it at `path` (write temp, fsync,
// rename, fsync directory — skipping the fsyncs when !sync).
[[nodiscard]] Status WriteSnapshotFile(const std::string& path,
                                       uint64_t covered_seq,
                                       const Database& db, bool sync);

// Loads a snapshot into `db` (which must be freshly constructed) and
// returns its covered_seq. Every framing, checksum, version, and decode
// violation is a descriptive non-OK Status.
[[nodiscard]] StatusOr<uint64_t> ReadSnapshotFile(const std::string& path,
                                                  Database* db);

}  // namespace storage
}  // namespace lrpdb

#endif  // LRPDB_STORAGE_SNAPSHOT_H_
