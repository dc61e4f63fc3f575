#include "src/storage/wal.h"

#include <utility>

#include "src/common/crc32c.h"
#include "src/common/exec_context.h"
#include "src/common/failpoint.h"
#include "src/obs/metrics.h"
#include "src/storage/codec.h"

namespace lrpdb {
namespace storage {
namespace {

constexpr char kWalMagic[8] = {'L', 'R', 'P', 'W', 'A', 'L', '0', '1'};
// Far beyond any real batch; a CRC-valid head claiming more is corruption.
constexpr uint32_t kMaxRecordPayload = 1u << 30;

std::string EncodeSegmentHeader(uint64_t start_seq) {
  std::string head;
  head.append(kWalMagic, sizeof(kWalMagic));
  PutU32(&head, kWalFormatVersion);
  PutU64(&head, start_seq);
  PutU32(&head, MaskCrc32c(Crc32c(head)));
  return head;
}

}  // namespace

[[nodiscard]] StatusOr<WalScanResult> ScanWalSegment(const std::string& path) {
  LRPDB_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  WalScanResult result;
  if (data.size() < kWalHeaderSize) {
    // A writer died while creating the segment: the header write itself was
    // torn. Nothing valid here, but nothing corrupt either.
    result.torn_tail = !data.empty();
    return result;
  }
  std::string_view head(data.data(), kWalHeaderSize);
  if (head.substr(0, sizeof(kWalMagic)) !=
      std::string_view(kWalMagic, sizeof(kWalMagic))) {
    return ParseError("WAL segment '" + path + "': bad magic");
  }
  ByteReader header_reader(head.substr(sizeof(kWalMagic)));
  LRPDB_ASSIGN_OR_RETURN(uint32_t version, header_reader.U32("WAL version"));
  LRPDB_ASSIGN_OR_RETURN(uint64_t start_seq,
                         header_reader.U64("WAL start_seq"));
  LRPDB_ASSIGN_OR_RETURN(uint32_t stored_crc,
                         header_reader.U32("WAL header crc"));
  if (UnmaskCrc32c(stored_crc) != Crc32c(head.substr(0, 20))) {
    return ParseError("WAL segment '" + path + "': header checksum mismatch");
  }
  if (version > kWalFormatVersion) {
    return ParseError("WAL segment '" + path + "': format version " +
                      std::to_string(version) + " is newer than supported " +
                      std::to_string(kWalFormatVersion));
  }
  result.header_valid = true;
  result.start_seq = start_seq;
  result.valid_bytes = kWalHeaderSize;

  size_t pos = kWalHeaderSize;
  uint64_t expected_seq = start_seq;
  ExecContext* exec = ExecContext::Current();
  while (true) {
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    size_t remaining = data.size() - pos;
    if (remaining == 0) break;
    if (remaining < kWalRecordHeadSize) {
      // Only a prefix of the record head was written: torn tail.
      result.torn_tail = true;
      break;
    }
    std::string_view frame(data.data() + pos, remaining);
    ByteReader reader(frame);
    LRPDB_ASSIGN_OR_RETURN(uint32_t payload_len,
                           reader.U32("record payload length"));
    LRPDB_ASSIGN_OR_RETURN(uint64_t seq, reader.U64("record seq"));
    LRPDB_ASSIGN_OR_RETURN(uint8_t type, reader.U8("record type"));
    LRPDB_ASSIGN_OR_RETURN(uint32_t head_crc, reader.U32("record head crc"));
    // The head is fully present, so if its CRC fails this is corruption,
    // not a torn write (a single-write record tears only by losing a
    // suffix, and the CRC bytes are the head's suffix).
    if (UnmaskCrc32c(head_crc) != Crc32c(frame.substr(0, 13))) {
      return ParseError("WAL segment '" + path +
                        "': record head checksum mismatch at offset " +
                        std::to_string(pos));
    }
    if (payload_len > kMaxRecordPayload) {
      return ParseError("WAL segment '" + path +
                        "': record payload length " +
                        std::to_string(payload_len) + " exceeds limit");
    }
    uint64_t full = kWalRecordHeadSize + static_cast<uint64_t>(payload_len) + 4;
    if (remaining < full) {
      // Valid head promising more bytes than exist: the payload/trailer
      // write was cut short. Torn tail.
      result.torn_tail = true;
      break;
    }
    std::string_view payload = frame.substr(kWalRecordHeadSize, payload_len);
    ByteReader trailer(frame.substr(kWalRecordHeadSize + payload_len, 4));
    LRPDB_ASSIGN_OR_RETURN(uint32_t payload_crc,
                           trailer.U32("record payload crc"));
    if (UnmaskCrc32c(payload_crc) != Crc32c(payload)) {
      return ParseError("WAL segment '" + path +
                        "': record payload checksum mismatch at offset " +
                        std::to_string(pos) + " (seq " + std::to_string(seq) +
                        ")");
    }
    if (seq != expected_seq) {
      return ParseError("WAL segment '" + path + "': sequence number " +
                        std::to_string(seq) + " at offset " +
                        std::to_string(pos) + ", expected " +
                        std::to_string(expected_seq));
    }
    WalRecord record;
    record.seq = seq;
    record.type = type;
    record.payload = std::string(payload);
    result.records.push_back(std::move(record));
    ++expected_seq;
    pos += full;
    result.valid_bytes = pos;
    LRPDB_COUNTER_INC("store.wal.records_scanned");
  }
  return result;
}

[[nodiscard]] StatusOr<WalWriter> WalWriter::Open(const std::string& path,
                                    uint64_t next_seq, bool sync) {
  LRPDB_FAILPOINT("storage.wal.open");
  LRPDB_ASSIGN_OR_RETURN(AppendableFile file, AppendableFile::Open(path));
  WalWriter writer;
  writer.file_ = std::move(file);
  writer.next_seq_ = next_seq;
  writer.sync_ = sync;
  if (writer.file_.size() == 0) {
    LRPDB_RETURN_IF_ERROR(writer.file_.Append(EncodeSegmentHeader(next_seq)));
    if (sync) LRPDB_RETURN_IF_ERROR(writer.file_.Sync());
    LRPDB_COUNTER_INC("store.wal.segments_created");
  }
  return writer;
}

[[nodiscard]] Status WalWriter::Append(uint8_t type, std::string_view payload) {
  LRPDB_FAILPOINT("storage.wal.append");
  std::string frame;
  frame.reserve(kWalRecordHeadSize + payload.size() + 4);
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU64(&frame, next_seq_);
  PutU8(&frame, type);
  PutU32(&frame, MaskCrc32c(Crc32c(std::string_view(frame.data(), 13))));
  frame.append(payload.data(), payload.size());
  PutU32(&frame, MaskCrc32c(Crc32c(payload)));
  // One write(2): a crash mid-call leaves a record *prefix*, which recovery
  // classifies as a torn tail, never as corruption.
  LRPDB_RETURN_IF_ERROR(file_.Append(frame));
  if (sync_) LRPDB_RETURN_IF_ERROR(file_.Sync());
  ++next_seq_;
  LRPDB_COUNTER_INC("store.wal.appends");
  LRPDB_COUNTER_ADD("store.wal.appended_bytes",
                    static_cast<int64_t>(frame.size()));
  return OkStatus();
}

[[nodiscard]] Status WalWriter::Close() { return file_.Close(); }

}  // namespace storage
}  // namespace lrpdb
