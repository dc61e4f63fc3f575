// Byte-level encoding for the on-disk format (DESIGN.md §12).
//
// Two payload kinds share these primitives:
//
//  * A *database image* — the full engine state (interner dictionary,
//    per-relation schemas, every live TupleStore entry with its DBM, the
//    delta generation ranges) — carried by snapshot files. Data constants
//    are stored as raw interner ids because the image includes the
//    interner. Tombstoned entries are not written, so entry ids do not
//    survive a save and restore; no persisted record names one.
//
//  * A *fact batch* — declarations plus generalized facts — carried by WAL
//    records. Batches are self-contained: data constants travel as strings
//    and are re-interned on replay, so a WAL segment is meaningful against
//    any snapshot it follows.
//
// Encoding is fixed-width little-endian throughout (u8/u32/u64/i64,
// length-prefixed strings). Decoding is paranoid: every read is
// bounds-checked through ByteReader, counts are never trusted for
// pre-allocation, arities are capped, lrps must arrive canonical, and data
// ids must resolve inside the decoded interner — any violation is a
// descriptive Status, never UB or a crash.
#ifndef LRPDB_STORAGE_CODEC_H_
#define LRPDB_STORAGE_CODEC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/statusor.h"
#include "src/gdb/database.h"
#include "src/gdb/generalized_tuple.h"
#include "src/gdb/schema.h"

namespace lrpdb {
namespace storage {

// --- Little-endian append helpers ---

inline void PutU8(std::string* dst, uint8_t v) {
  dst->push_back(static_cast<char>(v));
}
inline void PutU32(std::string* dst, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    dst->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
inline void PutU64(std::string* dst, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    dst->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
inline void PutI64(std::string* dst, int64_t v) {
  PutU64(dst, static_cast<uint64_t>(v));
}
// u32 byte length followed by the bytes.
inline void PutString(std::string* dst, std::string_view s) {
  PutU32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s.data(), s.size());
}

// Bounds-checked cursor over an untrusted byte buffer. Every accessor
// returns ParseError (with the requesting context) instead of reading past
// the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  [[nodiscard]] StatusOr<uint8_t> U8(std::string_view what);
  [[nodiscard]] StatusOr<uint32_t> U32(std::string_view what);
  [[nodiscard]] StatusOr<uint64_t> U64(std::string_view what);
  [[nodiscard]] StatusOr<int64_t> I64(std::string_view what);
  // Length-prefixed string (u32 length + bytes), length checked against the
  // remaining buffer before any allocation.
  [[nodiscard]] StatusOr<std::string_view> String(std::string_view what);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  [[nodiscard]] Status Need(size_t n, std::string_view what);

  std::string_view data_;
  size_t pos_ = 0;
};

// --- Database image (snapshot payload) ---

// Serializes the full database: interner names in id order, then relations
// in name order (the map's iteration order), each with schema, live
// entries in id order, and generation ranges, each bound written as the
// number of live entries below it. A store with tombstones encodes to the
// same bytes as the same store after EraseEntries of its dead entries.
std::string EncodeDatabaseImage(const Database& db);

// Rebuilds `db` (which must be freshly constructed: empty interner, no
// relations) from an image. On success the database equals the encoded
// one with its dead entries erased: interner ids, live entry order,
// signature and posting indexes (rebuilt by re-appending in order),
// generation ranges.
[[nodiscard]] Status DecodeDatabaseImage(std::string_view payload,
                                         Database* db);

// --- Fact batch (WAL record payload) ---

// A self-contained generalized fact: data constants by name.
struct BatchFact {
  std::string relation;
  std::vector<Lrp> lrps;
  std::vector<std::string> data;
  // Over lrps.size() temporal variables, same convention as
  // GeneralizedTuple.
  Dbm constraint{0};
};

// One durable unit: declarations (idempotent against identical existing
// schemas) followed by facts.
struct FactBatch {
  std::vector<PredicateDecl> decls;
  std::vector<BatchFact> facts;
};

std::string EncodeFactBatch(const FactBatch& batch);
[[nodiscard]] StatusOr<FactBatch> DecodeFactBatch(std::string_view payload);

// Checks that applying `batch` to `db` cannot fail halfway: every decl is
// either new or schema-identical, every fact's relation is declared (by the
// database or the batch), and every fact matches its relation's arities.
// Called *before* a batch is made durable, so the WAL never holds a record
// that deterministically fails to apply.
[[nodiscard]] Status ValidateFactBatch(const FactBatch& batch,
                                       const Database& db);

// Applies a validated batch through the live-ingestion path
// (Declare/AddTuple): replay reproduces exactly the state a live append
// produced.
[[nodiscard]] Status ApplyFactBatch(const FactBatch& batch, Database* db);

// --- Retract batch (WAL record payload, kRecordRetractBatch) ---
//
// A retraction reuses the FactBatch encoding with the declaration section
// required empty: the facts are exact value matches to tombstone, not
// entries to insert.

// Checks that `batch` is a well-formed retraction against `db`: no decls,
// every relation declared, every fact matching its relation's arities.
// Whether each fact matches a live entry is deliberately not checked — a
// miss is a observable no-op (eval.inc.retract_misses), not a failure, so
// replay of a valid record can never fail halfway.
[[nodiscard]] Status ValidateRetractBatch(const FactBatch& batch,
                                          const Database& db);

// Tombstones every live entry whose lrps, data, and constraint equal a
// fact of the batch (misses are skipped). Records match by value, never by
// entry id, so replay over a snapshot reproduces exactly the live set a
// live retract produced.
[[nodiscard]] Status ApplyRetractBatch(const FactBatch& batch, Database* db);

}  // namespace storage
}  // namespace lrpdb

#endif  // LRPDB_STORAGE_CODEC_H_
