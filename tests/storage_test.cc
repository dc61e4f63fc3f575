// Unit and corruption-fixture suite for the persistence layer (DESIGN.md
// §12): CRC32C vectors, file-util primitives, the WAL/snapshot framing
// codecs, and full PersistentStore recovery cycles. The fixtures enforce
// the load-bearing contract verbatim from the format docs: a torn tail is
// truncated silently, while a flipped byte (header, body, or checksum
// trailer), a duplicate or gapped sequence number, an unknown record type,
// or a future format version each yield a descriptive non-OK Status —
// never a crash, never silent acceptance.
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/crc32c.h"
#include "src/common/failpoint.h"
#include "src/common/file_util.h"
#include "src/constraints/dbm.h"
#include "src/gdb/database.h"
#include "src/storage/codec.h"
#include "src/storage/snapshot.h"
#include "src/storage/store.h"
#include "src/storage/wal.h"

namespace lrpdb {
namespace storage {
namespace {

using failpoint::Arm;
using failpoint::DisarmAll;
using failpoint::Mode;
using failpoint::RegisteredNames;

// --- Temp-dir plumbing ----------------------------------------------------

void RemoveTree(const std::string& dir) {
  auto entries = ListDir(dir);
  if (entries.ok()) {
    for (const std::string& name : *entries) {
      Status s = RemoveFile(dir + "/" + name);
      (void)s;
    }
  }
  ::rmdir(dir.c_str());
}

// A fresh empty directory path unique to this process and call.
std::string TestDir() {
  static int counter = 0;
  std::string dir = ::testing::TempDir() + "lrpdb_storage_test_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(counter++);
  RemoveTree(dir);
  return dir;
}

// --- Fixture-building helpers ---------------------------------------------

// One self-contained batch: declares r(time, data) and adds the single
// ground fact r(id, "c<id>") (lrp Z pinned to id by the DBM).
FactBatch MakeBatch(uint64_t id) {
  FactBatch batch;
  batch.decls.push_back(PredicateDecl{"r", RelationSchema{1, 1}});
  BatchFact fact;
  fact.relation = std::string("r");
  fact.lrps = {Lrp()};
  fact.data = {std::string("c").append(std::to_string(id))};
  Dbm dbm(1);
  dbm.AddUpperBound(1, static_cast<int64_t>(id));
  dbm.AddLowerBound(1, static_cast<int64_t>(id));
  fact.constraint = dbm;
  batch.facts.push_back(std::move(fact));
  return batch;
}

// Raw WAL framing, mirroring wal.cc byte-for-byte so fixtures can write
// frames the writer would refuse to (duplicate seqs, future versions,
// unknown types with valid checksums).
std::string RawWalHeader(uint64_t start_seq,
                         uint32_t version = kWalFormatVersion) {
  std::string head = "LRPWAL01";
  PutU32(&head, version);
  PutU64(&head, start_seq);
  PutU32(&head, MaskCrc32c(Crc32c(head)));
  return head;
}

std::string RawWalRecord(uint64_t seq, uint8_t type,
                         std::string_view payload) {
  std::string frame;
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU64(&frame, seq);
  PutU8(&frame, type);
  PutU32(&frame, MaskCrc32c(Crc32c(std::string_view(frame.data(), 13))));
  frame.append(payload.data(), payload.size());
  PutU32(&frame, MaskCrc32c(Crc32c(payload)));
  return frame;
}

std::string ReadAll(const std::string& path) {
  auto data = ReadFileToString(path);
  EXPECT_TRUE(data.ok()) << data.status();
  return data.ok() ? *data : std::string();
}

void WriteAll(const std::string& path, std::string_view contents) {
  Status s = WriteFileAtomic(path, contents, /*sync=*/false);
  ASSERT_TRUE(s.ok()) << s;
}

void FlipByte(const std::string& path, size_t offset) {
  std::string data = ReadAll(path);
  ASSERT_LT(offset, data.size());
  data[offset] = static_cast<char>(data[offset] ^ 0xff);
  WriteAll(path, data);
}

// --- CRC32C ---------------------------------------------------------------

TEST(Crc32cTest, StandardCheckVector) {
  // The CRC-32C check value: crc of the ASCII digits "123456789".
  EXPECT_EQ(Crc32c(std::string_view("123456789")), 0xE3069283u);
}

TEST(Crc32cTest, EmptyIsZero) {
  EXPECT_EQ(Crc32c(std::string_view("")), 0u);
}

TEST(Crc32cTest, IncrementalMatchesOneShot) {
  const std::string data =
      "the quick brown fox jumps over the lazy dog 0123456789";
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t partial = Crc32c(data.data(), split);
    uint32_t full = Crc32c(data.data() + split, data.size() - split, partial);
    EXPECT_EQ(full, Crc32c(std::string_view(data))) << "split=" << split;
  }
}

TEST(Crc32cTest, MaskRoundTripsAndDiffers) {
  for (uint32_t crc : {0u, 1u, 0xE3069283u, 0xffffffffu, 0x12345678u}) {
    uint32_t masked = MaskCrc32c(crc);
    EXPECT_EQ(UnmaskCrc32c(masked), crc);
    EXPECT_NE(masked, crc);
  }
}

TEST(Crc32cTest, SensitiveToEveryByte) {
  std::string data = "abcdefgh";
  uint32_t reference = Crc32c(std::string_view(data));
  for (size_t i = 0; i < data.size(); ++i) {
    std::string mutated = data;
    mutated[i] ^= 0x01;
    EXPECT_NE(Crc32c(std::string_view(mutated)), reference) << "byte " << i;
  }
}

// --- file_util ------------------------------------------------------------

TEST(FileUtilTest, AtomicWriteReadRoundTrip) {
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  std::string path = dir + "/f";
  WriteAll(path, "hello");
  EXPECT_EQ(ReadAll(path), "hello");
  // Overwrite is atomic too: new contents fully replace the old.
  WriteAll(path, "a longer replacement payload");
  EXPECT_EQ(ReadAll(path), "a longer replacement payload");
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 28u);
  RemoveTree(dir);
}

TEST(FileUtilTest, ReadMissingIsNotFound) {
  auto data = ReadFileToString(TestDir() + "/nope");
  ASSERT_FALSE(data.ok());
  EXPECT_EQ(data.status().code(), StatusCode::kNotFound);
}

TEST(FileUtilTest, ListDirIsSorted) {
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  for (const char* name : {"zeta", "alpha", "mid"}) {
    WriteAll(dir + "/" + name, "x");
  }
  auto entries = ListDir(dir);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(*entries,
            (std::vector<std::string>{"alpha", "mid", "zeta"}));
  RemoveTree(dir);
}

TEST(FileUtilTest, AppendableFileAppendsAndTruncates) {
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  std::string path = dir + "/log";
  {
    auto file = AppendableFile::Open(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->Append("abc").ok());
    ASSERT_TRUE(file->Append("defg").ok());
    EXPECT_EQ(file->size(), 7u);
    ASSERT_TRUE(file->Close().ok());
  }
  {
    // Reopen picks up the existing size and keeps appending.
    auto file = AppendableFile::Open(path);
    ASSERT_TRUE(file.ok());
    EXPECT_EQ(file->size(), 7u);
    ASSERT_TRUE(file->Append("h").ok());
    ASSERT_TRUE(file->Close().ok());
  }
  EXPECT_EQ(ReadAll(path), "abcdefgh");
  ASSERT_TRUE(TruncateFile(path, 3, /*sync=*/false).ok());
  EXPECT_EQ(ReadAll(path), "abc");
  RemoveTree(dir);
}

// --- codec: database image ------------------------------------------------

// A database exercising every image feature: several interned constants,
// two relations, multi-column tuples with non-trivial DBMs, periodic lrps,
// and a non-default generation range.
Database MakeRichDatabase() {
  Database db;
  EXPECT_TRUE(db.Declare("meet", RelationSchema{2, 1}).ok());
  EXPECT_TRUE(db.Declare("tick", RelationSchema{1, 0}).ok());
  DataValue a = db.Constant("alpha");
  DataValue b = db.Constant("beta");
  {
    Dbm dbm(2);
    dbm.AddDifferenceUpperBound(2, 1, 5);   // T2 - T1 <= 5
    dbm.AddDifferenceUpperBound(1, 2, -2);  // T2 - T1 >= 2
    dbm.AddLowerBound(1, 0);
    GeneralizedTuple t({Lrp(24, 8), Lrp(24, 10)}, {a}, dbm);
    EXPECT_TRUE(db.AddTuple("meet", std::move(t)).ok());
  }
  {
    Dbm dbm(2);
    dbm.AddUpperBound(1, 100);
    GeneralizedTuple t({Lrp(36, 0), Lrp(1, 0)}, {b}, dbm);
    EXPECT_TRUE(db.AddTuple("meet", std::move(t)).ok());
  }
  {
    GeneralizedTuple t = GeneralizedTuple::Unconstrained({Lrp(7, 3)}, {});
    EXPECT_TRUE(db.AddTuple("tick", std::move(t)).ok());
  }
  return db;
}

TEST(CodecTest, ImageRoundTripEmptyDatabase) {
  Database db;
  std::string payload = EncodeDatabaseImage(db);
  Database out;
  ASSERT_TRUE(DecodeDatabaseImage(payload, &out).ok());
  EXPECT_EQ(out.ToString(), db.ToString());
  EXPECT_EQ(out.interner().size(), 0u);
  EXPECT_TRUE(out.RelationNames().empty());
}

TEST(CodecTest, ImageRoundTripIsExact) {
  Database db = MakeRichDatabase();
  std::string payload = EncodeDatabaseImage(db);
  Database out;
  ASSERT_TRUE(DecodeDatabaseImage(payload, &out).ok());
  // Same textual dump (relations, stored order, constraints, names)...
  EXPECT_EQ(out.ToString(), db.ToString());
  // ...same interner ids (not just the same name set)...
  ASSERT_EQ(out.interner().size(), db.interner().size());
  for (size_t id = 0; id < db.interner().size(); ++id) {
    EXPECT_EQ(out.interner().NameOf(static_cast<SymbolId>(id)),
              db.interner().NameOf(static_cast<SymbolId>(id)));
  }
  // ...and internally consistent rebuilt indexes.
  for (const std::string& name : out.RelationNames()) {
    auto relation = out.Relation(name);
    ASSERT_TRUE(relation.ok());
    Status s = (*relation)->CheckConsistency();
    EXPECT_TRUE(s.ok()) << name << ": " << s;
  }
  // Re-encoding the decoded image is byte-identical (a fixed point).
  EXPECT_EQ(EncodeDatabaseImage(out), payload);
}

// Rows keep each DBM's bounds exactly as appended, unclosed, and the codec
// encodes them as is: a relation built through Insert (m = 2, bounds whose
// closure would tighten them) snapshots to the same bytes and dumps to the
// same text as its restore, even after an exact retraction compared its
// bucket.
TEST(CodecTest, InsertedAndRestoredRowsEncodeIdentically) {
  Database db;
  ASSERT_TRUE(db.Declare("span", RelationSchema{2, 1}).ok());
  const DataValue a = db.Constant("alpha");
  TupleStore& store = **db.MutableRelation("span");
  for (int64_t offset : {8, 9, 10}) {
    Dbm dbm(2);
    dbm.AddDifferenceUpperBound(2, 1, 5);   // T2 - T1 <= 5
    dbm.AddDifferenceUpperBound(1, 2, -2);  // T2 - T1 >= 2
    dbm.AddLowerBound(1, 0);                // implies T2 >= 2, not stored
    dbm.AddUpperBound(2, 100 + offset);
    auto inserted = store.Insert(
        GeneralizedTuple({Lrp(24, offset), Lrp(12, offset + 2)}, {a}, dbm));
    ASSERT_TRUE(inserted.ok()) << inserted.status();
    ASSERT_TRUE(inserted->inserted);
  }
  Dbm other(2);
  other.AddLowerBound(1, 50);
  EXPECT_TRUE(
      store
          .TombstoneExact(GeneralizedTuple(
              {Lrp(24, 8), Lrp(12, 10)}, {a}, other))
          .empty());
  EXPECT_TRUE(store.tuple(0).bound(0, 2).is_infinite());  // Still unclosed.
  const std::string payload = EncodeDatabaseImage(db);

  Database restored;
  ASSERT_TRUE(DecodeDatabaseImage(payload, &restored).ok());
  EXPECT_EQ(EncodeDatabaseImage(restored), payload);
  EXPECT_EQ(restored.ToString(), db.ToString());
  const TupleStore& back = **restored.Relation("span");
  ASSERT_EQ(back.size(), 3u);
  EXPECT_TRUE(back.tuple(0).bound(0, 2).is_infinite());
  EXPECT_TRUE(back.CheckConsistency().ok()) << back.CheckConsistency();
}

TEST(CodecTest, ImageRelationHeaderHasNoIndexFlag) {
  Database db = MakeRichDatabase();
  (*db.MutableRelation("meet"))->Tombstone(0);
  const std::string payload = EncodeDatabaseImage(db);
  // The first relation ("meet" sorts first) starts after the interner
  // (count, then length-prefixed names) and the relation count. Its
  // length-prefixed name and two arity words are followed directly by the
  // u64 live entry count: v3 images carry no index-flag byte.
  size_t offset = 4;
  for (size_t id = 0; id < db.interner().size(); ++id) {
    offset += 4 + db.interner().NameOf(static_cast<SymbolId>(id)).size();
  }
  offset += 4 + 4 + std::string("meet").size() + 4 + 4;
  ASSERT_LE(offset + 8, payload.size());
  uint64_t count = 0;
  for (int i = 0; i < 8; ++i) {
    count |= uint64_t{static_cast<uint8_t>(payload[offset + i])} << (8 * i);
  }
  EXPECT_EQ(count, 1u);  // Two entries, one of them tombstoned.
}

// --- Format pin -------------------------------------------------------------

// Lowercase hex of `bytes`, two digits per byte.
std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (char c : bytes) {
    const auto byte = static_cast<uint8_t>(c);
    hex.push_back(kDigits[byte >> 4]);
    hex.push_back(kDigits[byte & 0xf]);
  }
  return hex;
}

std::string Unhex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

// One relation per temporal arity m = 0, 1, 2, with finite and infinite
// bounds in both directions through T0 and between variables.
Database MakeFormatPinDatabase() {
  Database db;
  EXPECT_TRUE(db.Declare("flag", RelationSchema{0, 1}).ok());
  EXPECT_TRUE(db.Declare("tick", RelationSchema{1, 0}).ok());
  EXPECT_TRUE(db.Declare("span", RelationSchema{2, 1}).ok());
  const DataValue on = db.Constant("on");
  EXPECT_TRUE(db.AddTuple("flag", GeneralizedTuple({}, {on}, Dbm(0))).ok());
  Dbm tick(1);
  tick.AddLowerBound(1, 5);
  tick.AddUpperBound(1, 40);
  EXPECT_TRUE(db.AddTuple("tick", GeneralizedTuple({Lrp(7, 3)}, {}, tick))
                  .ok());
  Dbm span(2);
  span.AddDifferenceUpperBound(2, 1, 5);   // T2 - T1 <= 5
  span.AddDifferenceUpperBound(1, 2, -2);  // T2 - T1 >= 2
  span.AddLowerBound(1, -3);
  EXPECT_TRUE(
      db.AddTuple("span", GeneralizedTuple({Lrp(24, 8), Lrp(12, 10)}, {on},
                                           span))
          .ok());
  return db;
}

// The same three facts as one WAL batch.
FactBatch MakeFormatPinBatch() {
  FactBatch batch;
  batch.decls.push_back(PredicateDecl{"flag", RelationSchema{0, 1}});
  batch.decls.push_back(PredicateDecl{"tick", RelationSchema{1, 0}});
  batch.decls.push_back(PredicateDecl{"span", RelationSchema{2, 1}});
  const Database db = MakeFormatPinDatabase();
  for (const char* name : {"flag", "tick", "span"}) {
    const TupleView row = (*db.Relation(name))->tuple(0);
    BatchFact fact;
    fact.relation = name;
    fact.lrps.assign(row.lrps().begin(), row.lrps().end());
    for (DataValue v : row.data()) fact.data.push_back(db.interner().NameOf(v));
    fact.constraint = Dbm(row.constraint());
    batch.facts.push_back(std::move(fact));
  }
  return batch;
}

// Snapshot and WAL payloads of relations with m = 0, 1 and 2 are pinned
// byte for byte: however a DBM is laid out in memory, each one is written
// as its (m+1)^2 bounds, row-major, diagonal zeros included. The constants
// decode back to the same database and batch.
TEST(CodecTest, FormatPinnedForEveryTemporalArity) {
  constexpr std::string_view kImage =
      "01000000020000006f6e0300000004000000666c616700000000010000000100"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000040000007370616e02000000010000000100000000000000180000000000"
      "000008000000000000000c000000000000000a00000000000000000000000000"
      "00000000000003000000000000000100000000000000ffffffffffffff7f0000"
      "000000000000feffffffffffffffffffffffffffff7f05000000000000000000"
      "00000000000000000000000000000000000000000000040000007469636b0100"
      "0000000000000100000000000000070000000000000003000000000000000000"
      "000000000000fbffffffffffffff280000000000000000000000000000000000"
      "0000000000000000000000000000";
  constexpr std::string_view kBatch =
      "0300000004000000666c61670000000001000000040000007469636b01000000"
      "00000000040000007370616e02000000010000000300000004000000666c6167"
      "0000000001000000020000006f6e0000000000000000040000007469636b0100"
      "000007000000000000000300000000000000000000000000000000000000fbff"
      "ffffffffffff28000000000000000000000000000000040000007370616e0200"
      "0000180000000000000008000000000000000c000000000000000a0000000000"
      "000001000000020000006f6e0000000000000000030000000000000001000000"
      "00000000ffffffffffffff7f0000000000000000feffffffffffffffffffffff"
      "ffffff7f05000000000000000000000000000000";
  const Database db = MakeFormatPinDatabase();
  EXPECT_EQ(Hex(EncodeDatabaseImage(db)), kImage);
  Database decoded;
  ASSERT_TRUE(DecodeDatabaseImage(Unhex(kImage), &decoded).ok());
  EXPECT_EQ(decoded.ToString(), db.ToString());
  EXPECT_EQ(Hex(EncodeDatabaseImage(decoded)), kImage);

  EXPECT_EQ(Hex(EncodeFactBatch(MakeFormatPinBatch())), kBatch);
  auto batch = DecodeFactBatch(Unhex(kBatch));
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(Hex(EncodeFactBatch(*batch)), kBatch);
  Database applied;
  ASSERT_TRUE(ApplyFactBatch(*batch, &applied).ok());
  EXPECT_EQ(applied.ToString(), db.ToString());
}

TEST(CodecTest, ImageRejectsEveryTruncation) {
  std::string payload = EncodeDatabaseImage(MakeRichDatabase());
  for (size_t len = 0; len < payload.size(); ++len) {
    Database out;
    Status s = DecodeDatabaseImage(std::string_view(payload).substr(0, len),
                                   &out);
    EXPECT_FALSE(s.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(CodecTest, ImageRejectsTrailingGarbage) {
  std::string payload = EncodeDatabaseImage(MakeRichDatabase());
  payload.push_back('\0');
  Database out;
  Status s = DecodeDatabaseImage(payload, &out);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
}

TEST(CodecTest, ImageMutationNeverCrashes) {
  // Byte-flip fuzz: a mutated image must either decode (a benign flip in,
  // say, a constant's name bytes) or fail with a clean Status — never
  // crash, never read out of bounds (ASan-checked in CI).
  std::string payload = EncodeDatabaseImage(MakeRichDatabase());
  for (size_t i = 0; i < payload.size(); ++i) {
    std::string mutated = payload;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
    Database out;
    Status s = DecodeDatabaseImage(mutated, &out);
    (void)s;  // OK or error both acceptable; surviving is the assertion.
  }
}

// --- codec: fact batches --------------------------------------------------

TEST(CodecTest, FactBatchRoundTrip) {
  FactBatch batch = MakeBatch(7);
  batch.decls.push_back(PredicateDecl{"s", RelationSchema{2, 0}});
  std::string payload = EncodeFactBatch(batch);
  auto decoded = DecodeFactBatch(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->decls.size(), 2u);
  EXPECT_EQ(decoded->decls[0].name, "r");
  EXPECT_EQ(decoded->decls[1].schema.temporal_arity, 2);
  ASSERT_EQ(decoded->facts.size(), 1u);
  EXPECT_EQ(decoded->facts[0].relation, "r");
  EXPECT_EQ(decoded->facts[0].data, (std::vector<std::string>{"c7"}));
  // Applying reproduces the ground fact.
  Database db;
  ASSERT_TRUE(ValidateFactBatch(*decoded, db).ok());
  ASSERT_TRUE(ApplyFactBatch(*decoded, &db).ok());
  auto relation = db.Relation("r");
  ASSERT_TRUE(relation.ok());
  DataValue c7 = db.interner().Find("c7");
  ASSERT_GE(c7, 0);
  EXPECT_TRUE((*relation)->ContainsGround({7}, {c7}));
  EXPECT_FALSE((*relation)->ContainsGround({8}, {c7}));
}

TEST(CodecTest, ValidateRejectsUndeclaredRelation) {
  FactBatch batch = MakeBatch(1);
  batch.decls.clear();
  Database db;
  Status s = ValidateFactBatch(batch, db);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("r"), std::string::npos);
}

TEST(CodecTest, ValidateRejectsSchemaConflict) {
  Database db;
  ASSERT_TRUE(db.Declare("r", RelationSchema{2, 2}).ok());
  Status s = ValidateFactBatch(MakeBatch(1), db);
  EXPECT_FALSE(s.ok());
}

TEST(CodecTest, ValidateRejectsArityMismatch) {
  FactBatch batch = MakeBatch(1);
  batch.facts[0].data.push_back("extra");
  Database db;
  EXPECT_FALSE(ValidateFactBatch(batch, db).ok());
}

TEST(CodecTest, ValidateRejectsDbmVariableMismatch) {
  FactBatch batch = MakeBatch(1);
  batch.facts[0].constraint = Dbm(3);
  Database db;
  EXPECT_FALSE(ValidateFactBatch(batch, db).ok());
}

// --- codec: retract batches (incremental retraction, DESIGN.md §13) ------

TEST(CodecTest, RetractBatchTombstonesExactMatchesAndSkipsMisses) {
  Database db;
  ASSERT_TRUE(ApplyFactBatch(MakeBatch(1), &db).ok());
  ASSERT_TRUE(ApplyFactBatch(MakeBatch(2), &db).ok());
  auto relation = db.Relation("r");
  ASSERT_TRUE(relation.ok());
  ASSERT_EQ((*relation)->live_size(), 2u);

  // Retracting fact 1 tombstones exactly its entry (decls stay empty).
  FactBatch retract = MakeBatch(1);
  retract.decls.clear();
  ASSERT_TRUE(ValidateRetractBatch(retract, db).ok());
  ASSERT_TRUE(ApplyRetractBatch(retract, &db).ok());
  EXPECT_EQ((*relation)->size(), 2u);       // ids are stable
  EXPECT_EQ((*relation)->live_size(), 1u);  // fact 1 is dead
  EXPECT_FALSE((*relation)->is_live(0));
  EXPECT_TRUE((*relation)->is_live(1));

  // A miss (never-stored fact) is skipped, not an error: replay must never
  // fail halfway through a WAL.
  FactBatch miss = MakeBatch(99);
  miss.decls.clear();
  ASSERT_TRUE(ApplyRetractBatch(miss, &db).ok());
  EXPECT_EQ((*relation)->live_size(), 1u);
  // The miss still interned its data constant, exactly like the live
  // retraction path, so replay reproduces the interner bit-for-bit.
  EXPECT_GE(db.interner().Find("c99"), 0);
}

TEST(CodecTest, ValidateRetractRejectsDeclsAndUndeclaredAndArity) {
  Database db;
  ASSERT_TRUE(ApplyFactBatch(MakeBatch(1), &db).ok());
  // Retract batches never declare.
  FactBatch with_decls = MakeBatch(1);
  EXPECT_FALSE(ValidateRetractBatch(with_decls, db).ok());
  // Undeclared target relation.
  FactBatch undeclared = MakeBatch(1);
  undeclared.decls.clear();
  undeclared.facts[0].relation = "ghost";
  EXPECT_FALSE(ValidateRetractBatch(undeclared, db).ok());
  // Data arity mismatch.
  FactBatch arity = MakeBatch(1);
  arity.decls.clear();
  arity.facts[0].data.push_back("extra");
  EXPECT_FALSE(ValidateRetractBatch(arity, db).ok());
  // DBM variable-count mismatch.
  FactBatch dbm = MakeBatch(1);
  dbm.decls.clear();
  dbm.facts[0].constraint = Dbm(3);
  EXPECT_FALSE(ValidateRetractBatch(dbm, db).ok());
}

TEST(CodecTest, ImageHoldsLiveEntriesOnly) {
  // A v3 image carries live entries only: a store with a tombstone encodes
  // to the same bytes as the same store after EraseEntries of the dead
  // entry, generation bounds included, and decodes with no dead slot.
  Database db = MakeRichDatabase();
  ASSERT_TRUE(ApplyFactBatch(MakeBatch(5), &db).ok());
  auto meet = db.MutableRelation("meet");
  ASSERT_TRUE(meet.ok());
  (*meet)->AdvanceGeneration();  // Delta = {0, 1}.
  const std::string survivor = (*meet)->tuple(1).ToString();
  (*meet)->Tombstone(0);
  const std::string payload = EncodeDatabaseImage(db);

  Database out;
  ASSERT_TRUE(DecodeDatabaseImage(payload, &out).ok());
  auto decoded = out.Relation("meet");
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ((*decoded)->size(), 1u);
  EXPECT_EQ((*decoded)->live_size(), 1u);
  EXPECT_EQ((*decoded)->tuple(0).ToString(), survivor);
  EXPECT_EQ((*decoded)->delta_lo(), 0u);
  EXPECT_EQ((*decoded)->delta_hi(), 1u);
  auto r = out.Relation("r");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->live_size(), 1u);
  for (const std::string& name : out.RelationNames()) {
    auto relation = out.Relation(name);
    ASSERT_TRUE(relation.ok());
    Status s = (*relation)->CheckConsistency();
    EXPECT_TRUE(s.ok()) << name << ": " << s;
  }
  EXPECT_EQ(EncodeDatabaseImage(out), payload);

  (*meet)->EraseEntries({0});
  EXPECT_EQ(EncodeDatabaseImage(db), payload);
}

TEST(CodecTest, BatchTruncationAlwaysRejected) {
  std::string payload = EncodeFactBatch(MakeBatch(42));
  for (size_t len = 0; len < payload.size(); ++len) {
    auto decoded =
        DecodeFactBatch(std::string_view(payload).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
  }
}

// --- WAL ------------------------------------------------------------------

TEST(WalTest, AppendScanRoundTrip) {
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  std::string path = dir + "/wal";
  {
    auto writer = WalWriter::Open(path, /*next_seq=*/5, /*sync=*/false);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(kRecordFactBatch, "one").ok());
    ASSERT_TRUE(writer->Append(kRecordFactBatch, "two").ok());
    ASSERT_TRUE(writer->Append(kRecordFactBatch, "").ok());
    EXPECT_EQ(writer->next_seq(), 8u);
    ASSERT_TRUE(writer->Close().ok());
  }
  auto scan = ScanWalSegment(path);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_TRUE(scan->header_valid);
  EXPECT_EQ(scan->start_seq, 5u);
  EXPECT_FALSE(scan->torn_tail);
  ASSERT_EQ(scan->records.size(), 3u);
  EXPECT_EQ(scan->records[0].seq, 5u);
  EXPECT_EQ(scan->records[0].payload, "one");
  EXPECT_EQ(scan->records[2].seq, 7u);
  EXPECT_EQ(scan->records[2].payload, "");
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(scan->valid_bytes, *size);
  RemoveTree(dir);
}

TEST(WalTest, EveryTornPrefixRecoversCleanly) {
  // Chop a 3-record segment at every possible byte length: scanning must
  // never error (a pure prefix is always a legal crash state), and must
  // return exactly the records that fit completely.
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  std::string path = dir + "/wal";
  std::string full = RawWalHeader(1);
  std::vector<size_t> record_ends;
  for (uint64_t seq = 1; seq <= 3; ++seq) {
    full += RawWalRecord(seq, kRecordFactBatch,
                         "payload-" + std::to_string(seq));
    record_ends.push_back(full.size());
  }
  for (size_t len = 0; len <= full.size(); ++len) {
    WriteAll(path, std::string_view(full).substr(0, len));
    auto scan = ScanWalSegment(path);
    ASSERT_TRUE(scan.ok()) << "len=" << len << ": " << scan.status();
    size_t complete = 0;
    for (size_t end : record_ends) complete += end <= len ? 1 : 0;
    EXPECT_EQ(scan->records.size(), complete) << "len=" << len;
    if (len < kWalHeaderSize) {
      EXPECT_FALSE(scan->header_valid) << "len=" << len;
    } else {
      EXPECT_TRUE(scan->header_valid) << "len=" << len;
      size_t expected_valid =
          complete == 0 ? kWalHeaderSize : record_ends[complete - 1];
      EXPECT_EQ(scan->valid_bytes, expected_valid) << "len=" << len;
    }
    bool on_boundary = len == 0 || len == kWalHeaderSize ||
                       (len >= kWalHeaderSize && complete > 0 &&
                        record_ends[complete - 1] == len);
    EXPECT_EQ(scan->torn_tail, !on_boundary) << "len=" << len;
  }
  RemoveTree(dir);
}

TEST(WalTest, FlippedPayloadByteIsCorruption) {
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  std::string path = dir + "/wal";
  WriteAll(path, RawWalHeader(1) +
                     RawWalRecord(1, kRecordFactBatch, "payload"));
  FlipByte(path, kWalHeaderSize + kWalRecordHeadSize + 2);  // inside payload
  auto scan = ScanWalSegment(path);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kParseError);
  EXPECT_NE(scan.status().ToString().find("payload checksum"),
            std::string::npos);
  RemoveTree(dir);
}

TEST(WalTest, FlippedRecordHeadByteIsCorruption) {
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  std::string path = dir + "/wal";
  WriteAll(path, RawWalHeader(1) +
                     RawWalRecord(1, kRecordFactBatch, "payload"));
  FlipByte(path, kWalHeaderSize + 4);  // inside the record's seq field
  auto scan = ScanWalSegment(path);
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.status().ToString().find("head checksum"),
            std::string::npos);
  RemoveTree(dir);
}

TEST(WalTest, FlippedChecksumByteIsCorruption) {
  // Flipping the stored CRC itself (the trailer) must be caught exactly
  // like flipping the data it covers.
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  std::string path = dir + "/wal";
  std::string contents =
      RawWalHeader(1) + RawWalRecord(1, kRecordFactBatch, "payload");
  WriteAll(path, contents);
  FlipByte(path, contents.size() - 1);  // last byte of the payload CRC
  auto scan = ScanWalSegment(path);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kParseError);
  RemoveTree(dir);
}

TEST(WalTest, FlippedSegmentHeaderByteIsCorruption) {
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  std::string path = dir + "/wal";
  WriteAll(path, RawWalHeader(1));
  FlipByte(path, 10);  // inside the version field
  auto scan = ScanWalSegment(path);
  ASSERT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kParseError);
  RemoveTree(dir);
}

TEST(WalTest, DuplicateSequenceNumberIsCorruption) {
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  std::string path = dir + "/wal";
  WriteAll(path, RawWalHeader(1) + RawWalRecord(1, kRecordFactBatch, "a") +
                     RawWalRecord(1, kRecordFactBatch, "b"));
  auto scan = ScanWalSegment(path);
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.status().ToString().find("sequence number"),
            std::string::npos);
  RemoveTree(dir);
}

TEST(WalTest, SequenceGapIsCorruption) {
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  std::string path = dir + "/wal";
  WriteAll(path, RawWalHeader(1) + RawWalRecord(1, kRecordFactBatch, "a") +
                     RawWalRecord(3, kRecordFactBatch, "b"));
  auto scan = ScanWalSegment(path);
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.status().ToString().find("expected 2"), std::string::npos);
  RemoveTree(dir);
}

TEST(WalTest, FutureFormatVersionIsRejected) {
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  std::string path = dir + "/wal";
  WriteAll(path, RawWalHeader(1, kWalFormatVersion + 1));
  auto scan = ScanWalSegment(path);
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.status().ToString().find("newer than supported"),
            std::string::npos);
  RemoveTree(dir);
}

TEST(WalTest, BadMagicIsCorruption) {
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  std::string path = dir + "/wal";
  std::string head = RawWalHeader(1);
  head[0] = 'X';
  WriteAll(path, head);
  auto scan = ScanWalSegment(path);
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.status().ToString().find("bad magic"), std::string::npos);
  RemoveTree(dir);
}

// --- Snapshot files -------------------------------------------------------

TEST(SnapshotTest, RoundTripIsExact) {
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  std::string path = dir + "/snap";
  Database db = MakeRichDatabase();
  ASSERT_TRUE(WriteSnapshotFile(path, /*covered_seq=*/41, db, false).ok());
  Database out;
  auto covered = ReadSnapshotFile(path, &out);
  ASSERT_TRUE(covered.ok()) << covered.status();
  EXPECT_EQ(*covered, 41u);
  EXPECT_EQ(out.ToString(), db.ToString());
  RemoveTree(dir);
}

TEST(SnapshotTest, EveryFlippedByteIsDetected) {
  // The whole file is covered: magic and head by the head CRC, payload by
  // the trailer CRC, and each CRC by itself. No single byte flip —
  // header, body, or checksum — may load.
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  std::string path = dir + "/snap";
  Database db = MakeRichDatabase();
  ASSERT_TRUE(WriteSnapshotFile(path, 7, db, false).ok());
  std::string pristine = ReadAll(path);
  for (size_t i = 0; i < pristine.size(); ++i) {
    std::string mutated = pristine;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xff);
    WriteAll(path, mutated);
    Database out;
    auto covered = ReadSnapshotFile(path, &out);
    EXPECT_FALSE(covered.ok()) << "flip at byte " << i << " loaded";
  }
  RemoveTree(dir);
}

TEST(SnapshotTest, EveryTruncationIsDetected) {
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  std::string path = dir + "/snap";
  ASSERT_TRUE(WriteSnapshotFile(path, 1, MakeRichDatabase(), false).ok());
  std::string pristine = ReadAll(path);
  for (size_t len = 0; len < pristine.size(); ++len) {
    WriteAll(path, std::string_view(pristine).substr(0, len));
    Database out;
    auto covered = ReadSnapshotFile(path, &out);
    EXPECT_FALSE(covered.ok()) << "prefix of " << len << " bytes loaded";
  }
  RemoveTree(dir);
}

TEST(SnapshotTest, OtherFormatVersionsAreRejected) {
  // Newer AND older versions both refuse cleanly: the image payload is not
  // self-describing (v2 added the per-relation tombstone sections), so a
  // version mismatch in either direction must never be misparsed.
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  std::string path = dir + "/snap";
  ASSERT_TRUE(WriteSnapshotFile(path, 1, Database(), false).ok());
  for (int delta : {+1, -1}) {
    // Patch the version field (bytes 8..11) and re-seal the head CRC so
    // only the version check can object.
    std::string data = ReadAll(path);
    data[8] = static_cast<char>(kSnapshotFormatVersion + delta);
    std::string head(data.data(), 28);
    uint32_t crc = MaskCrc32c(Crc32c(head));
    for (int i = 0; i < 4; ++i) {
      data[28 + i] = static_cast<char>((crc >> (8 * i)) & 0xff);
    }
    std::string patched = dir + "/snap_patched";
    WriteAll(patched, data);
    Database out;
    auto covered = ReadSnapshotFile(patched, &out);
    ASSERT_FALSE(covered.ok()) << "version delta " << delta << " loaded";
    EXPECT_NE(covered.status().ToString().find("is not the supported"),
              std::string::npos)
        << covered.status();
  }
  RemoveTree(dir);
}

// --- PersistentStore ------------------------------------------------------

constexpr StoreOptions kNoSync{/*sync=*/false};

TEST(StoreTest, SeqFileNameRoundTrips) {
  EXPECT_EQ(SeqFileName("wal-", 0x1b), "wal-000000000000001b");
  uint64_t seq = 0;
  EXPECT_TRUE(ParseSeqFileName("wal-000000000000001b", "wal-", &seq));
  EXPECT_EQ(seq, 0x1bu);
  EXPECT_FALSE(ParseSeqFileName("wal-xyz", "wal-", &seq));
  EXPECT_FALSE(ParseSeqFileName("wal-000000000000001b.tmp.7", "wal-", &seq));
  EXPECT_FALSE(ParseSeqFileName("snapshot-000000000000001b", "wal-", &seq));
}

TEST(StoreTest, AppendCloseReopenReplays) {
  std::string dir = TestDir();
  Database live;
  {
    auto store = PersistentStore::Open(dir, &live, kNoSync);
    ASSERT_TRUE(store.ok()) << store.status();
    EXPECT_FALSE(store->recovery_info().loaded_snapshot);
    EXPECT_EQ(store->next_seq(), 1u);
    for (uint64_t id = 1; id <= 3; ++id) {
      ASSERT_TRUE(store->AppendBatch(MakeBatch(id)).ok());
    }
    EXPECT_EQ(store->next_seq(), 4u);
    ASSERT_TRUE(store->Close().ok());
  }
  Database recovered;
  auto store = PersistentStore::Open(dir, &recovered, kNoSync);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->recovery_info().replayed_records, 3u);
  EXPECT_EQ(store->next_seq(), 4u);
  EXPECT_EQ(recovered.ToString(), live.ToString());
  ASSERT_TRUE(store->Close().ok());
  RemoveTree(dir);
}

TEST(StoreTest, SnapshotReplayAndCompaction) {
  std::string dir = TestDir();
  Database live;
  {
    auto store = PersistentStore::Open(dir, &live, kNoSync);
    ASSERT_TRUE(store.ok());
    for (uint64_t id = 1; id <= 2; ++id) {
      ASSERT_TRUE(store->AppendBatch(MakeBatch(id)).ok());
    }
    ASSERT_TRUE(store->WriteSnapshot().ok());
    EXPECT_EQ(store->snapshot_seq(), 2u);
    ASSERT_TRUE(store->AppendBatch(MakeBatch(3)).ok());
    ASSERT_TRUE(store->Compact().ok());
    ASSERT_TRUE(store->Close().ok());
  }
  // Compaction dropped the pre-snapshot segment but kept the live one.
  {
    auto entries = ListDir(dir);
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(*entries, (std::vector<std::string>{
                            SeqFileName("snapshot-", 2),
                            SeqFileName("wal-", 3)}));
  }
  Database recovered;
  auto store = PersistentStore::Open(dir, &recovered, kNoSync);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_TRUE(store->recovery_info().loaded_snapshot);
  EXPECT_EQ(store->recovery_info().snapshot_seq, 2u);
  EXPECT_EQ(store->recovery_info().replayed_records, 1u);
  EXPECT_EQ(recovered.ToString(), live.ToString());
  // The store keeps working after recovery.
  ASSERT_TRUE(store->AppendBatch(MakeBatch(4)).ok());
  ASSERT_TRUE(store->WriteSnapshot().ok());
  ASSERT_TRUE(store->Compact().ok());
  ASSERT_TRUE(store->Close().ok());
  RemoveTree(dir);
}

TEST(StoreTest, TornTailIsTruncatedAndAppendContinues) {
  std::string dir = TestDir();
  Database live;
  {
    auto store = PersistentStore::Open(dir, &live, kNoSync);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->AppendBatch(MakeBatch(1)).ok());
    ASSERT_TRUE(store->AppendBatch(MakeBatch(2)).ok());
    ASSERT_TRUE(store->Close().ok());
  }
  // Simulate a writer killed mid-append: a record prefix at the tail.
  std::string segment = dir + "/" + SeqFileName("wal-", 1);
  std::string torn = RawWalRecord(3, kRecordFactBatch, "half-written");
  {
    auto file = AppendableFile::Open(segment);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(
        file->Append(std::string_view(torn).substr(0, torn.size() - 5))
            .ok());
    ASSERT_TRUE(file->Close().ok());
  }
  Database recovered;
  auto store = PersistentStore::Open(dir, &recovered, kNoSync);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->recovery_info().replayed_records, 2u);
  EXPECT_EQ(store->recovery_info().truncated_tail_bytes, torn.size() - 5);
  EXPECT_EQ(store->next_seq(), 3u);
  EXPECT_EQ(recovered.ToString(), live.ToString());
  // The truncated segment accepts the re-issued batch; a third open sees
  // all three.
  ASSERT_TRUE(store->AppendBatch(MakeBatch(3)).ok());
  ASSERT_TRUE(store->Close().ok());
  Database third;
  auto store3 = PersistentStore::Open(dir, &third, kNoSync);
  ASSERT_TRUE(store3.ok());
  EXPECT_EQ(store3->recovery_info().replayed_records, 3u);
  ASSERT_TRUE(store3->Close().ok());
  RemoveTree(dir);
}

TEST(StoreTest, DuplicateSeqInSegmentFailsOpen) {
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  std::string payload = EncodeFactBatch(MakeBatch(1));
  WriteAll(dir + "/" + SeqFileName("wal-", 1),
           RawWalHeader(1) + RawWalRecord(1, kRecordFactBatch, payload) +
               RawWalRecord(1, kRecordFactBatch, payload));
  Database db;
  auto store = PersistentStore::Open(dir, &db, kNoSync);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kParseError);
  RemoveTree(dir);
}

TEST(StoreTest, UnknownRecordTypeFailsOpen) {
  // A CRC-valid record with an unknown type cannot be a torn write; it is
  // a future format or corruption, and replay must refuse rather than skip.
  std::string dir = TestDir();
  ASSERT_TRUE(CreateDir(dir).ok());
  WriteAll(dir + "/" + SeqFileName("wal-", 1),
           RawWalHeader(1) + RawWalRecord(1, /*type=*/99, "mystery"));
  Database db;
  auto store = PersistentStore::Open(dir, &db, kNoSync);
  ASSERT_FALSE(store.ok());
  EXPECT_NE(store.status().ToString().find("type"), std::string::npos);
  RemoveTree(dir);
}

TEST(StoreTest, CorruptNewestSnapshotFallsBackToOlder) {
  std::string dir = TestDir();
  Database live;
  {
    auto store = PersistentStore::Open(dir, &live, kNoSync);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->AppendBatch(MakeBatch(1)).ok());
    ASSERT_TRUE(store->WriteSnapshot().ok());  // snapshot-1
    ASSERT_TRUE(store->AppendBatch(MakeBatch(2)).ok());
    ASSERT_TRUE(store->WriteSnapshot().ok());  // snapshot-2
    ASSERT_TRUE(store->AppendBatch(MakeBatch(3)).ok());
    ASSERT_TRUE(store->Close().ok());
  }
  FlipByte(dir + "/" + SeqFileName("snapshot-", 2), 40);
  Database recovered;
  auto store = PersistentStore::Open(dir, &recovered, kNoSync);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ(store->recovery_info().corrupt_snapshots_skipped, 1u);
  EXPECT_EQ(store->recovery_info().snapshot_seq, 1u);
  // Replays seq 2 and 3 from the surviving segments.
  EXPECT_EQ(store->recovery_info().replayed_records, 2u);
  EXPECT_EQ(recovered.ToString(), live.ToString());
  ASSERT_TRUE(store->Close().ok());
  RemoveTree(dir);
}

TEST(StoreTest, AllSnapshotsCorruptFallsBackToFullWalReplay) {
  std::string dir = TestDir();
  Database live;
  {
    auto store = PersistentStore::Open(dir, &live, kNoSync);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->AppendBatch(MakeBatch(1)).ok());
    ASSERT_TRUE(store->AppendBatch(MakeBatch(2)).ok());
    ASSERT_TRUE(store->WriteSnapshot().ok());
    ASSERT_TRUE(store->AppendBatch(MakeBatch(3)).ok());
    ASSERT_TRUE(store->Close().ok());
  }
  // Without compaction the WAL still starts at seq 1, so losing the only
  // snapshot costs nothing.
  FlipByte(dir + "/" + SeqFileName("snapshot-", 2), 40);
  Database recovered;
  auto store = PersistentStore::Open(dir, &recovered, kNoSync);
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_FALSE(store->recovery_info().loaded_snapshot);
  EXPECT_EQ(store->recovery_info().corrupt_snapshots_skipped, 1u);
  EXPECT_EQ(store->recovery_info().replayed_records, 3u);
  EXPECT_EQ(recovered.ToString(), live.ToString());
  ASSERT_TRUE(store->Close().ok());
  RemoveTree(dir);
}

TEST(StoreTest, CompactionGapAfterSnapshotLossIsCorruptionNotSilence) {
  // The nasty case: the only snapshot is corrupt AND compaction already
  // deleted the covered segments. The data is genuinely unrecoverable —
  // recovery must say so, never return a silently partial database.
  std::string dir = TestDir();
  {
    Database live;
    auto store = PersistentStore::Open(dir, &live, kNoSync);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->AppendBatch(MakeBatch(1)).ok());
    ASSERT_TRUE(store->WriteSnapshot().ok());
    ASSERT_TRUE(store->AppendBatch(MakeBatch(2)).ok());
    ASSERT_TRUE(store->Compact().ok());  // drops wal-1
    ASSERT_TRUE(store->Close().ok());
  }
  FlipByte(dir + "/" + SeqFileName("snapshot-", 1), 40);
  Database recovered;
  auto store = PersistentStore::Open(dir, &recovered, kNoSync);
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kParseError);
  RemoveTree(dir);
}

TEST(StoreTest, LeftoverTempFilesAreCompactedAway) {
  std::string dir = TestDir();
  Database live;
  auto store = PersistentStore::Open(dir, &live, kNoSync);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->AppendBatch(MakeBatch(1)).ok());
  // A writer killed mid-WriteFileAtomic leaves a temp file behind.
  WriteAll(dir + "/" + SeqFileName("snapshot-", 9) + ".tmp.123", "partial");
  ASSERT_TRUE(store->WriteSnapshot().ok());
  ASSERT_TRUE(store->Compact().ok());
  auto entries = ListDir(dir);
  ASSERT_TRUE(entries.ok());
  for (const std::string& name : *entries) {
    EXPECT_EQ(name.find(".tmp."), std::string::npos) << name;
  }
  ASSERT_TRUE(store->Close().ok());
  RemoveTree(dir);
}

// --- Failpoint walk -------------------------------------------------------

// One full store lifecycle: open, append, snapshot, append, compact,
// close, reopen (snapshot load + replay), append, close.
Status RunStoreCycle(const std::string& dir) {
  Database db;
  LRPDB_ASSIGN_OR_RETURN(PersistentStore store,
                         PersistentStore::Open(dir, &db, kNoSync));
  LRPDB_RETURN_IF_ERROR(store.AppendBatch(MakeBatch(1)));
  LRPDB_RETURN_IF_ERROR(store.AppendBatch(MakeBatch(2)));
  LRPDB_RETURN_IF_ERROR(store.WriteSnapshot());
  LRPDB_RETURN_IF_ERROR(store.AppendBatch(MakeBatch(3)));
  LRPDB_RETURN_IF_ERROR(store.Compact());
  LRPDB_RETURN_IF_ERROR(store.Close());
  Database reopened;
  LRPDB_ASSIGN_OR_RETURN(PersistentStore again,
                         PersistentStore::Open(dir, &reopened, kNoSync));
  LRPDB_RETURN_IF_ERROR(again.AppendBatch(MakeBatch(4)));
  return again.Close();
}

TEST(StoreFaultTest, EveryStorageFailpointUnwindsCleanly) {
  // Prime: run a full cycle once so every storage failpoint registers,
  // then re-run the cycle with each site armed error-once. The injected
  // error must surface as a Status (or be absorbed where the contract
  // allows, e.g. a skipped corrupt snapshot), and — the crash-safety
  // half — a follow-up recovery of the same directory with faults off
  // must succeed: an aborted operation never wedges the store.
  DisarmAll();
  {
    std::string dir = TestDir();
    ASSERT_TRUE(RunStoreCycle(dir).ok());
    RemoveTree(dir);
  }
  int armed_sites = 0;
  for (const std::string& name : RegisteredNames()) {
    if (name.rfind("storage.", 0) != 0 &&
        name.rfind("tuple_store.restore", 0) != 0) {
      continue;
    }
    SCOPED_TRACE(name);
    ++armed_sites;
    std::string dir = TestDir();
    ASSERT_TRUE(CreateDir(dir).ok());
    Arm(name, Mode::kErrorOnce);
    // The cycle may fail (the injected kInternal, or a downstream
    // kParseError when the fault made recovery skip the only snapshot past
    // a compaction gap) or succeed (the contract absorbs the fault, e.g. a
    // corrupt snapshot skipped in favor of WAL replay). Either way it must
    // unwind as a Status, never crash or leak — and the directory must
    // still recover below.
    Status s = RunStoreCycle(dir);
    DisarmAll();
    Database db;
    auto recovered = PersistentStore::Open(dir, &db, kNoSync);
    ASSERT_TRUE(recovered.ok())
        << "recovery after injected fault failed: " << recovered.status();
    ASSERT_TRUE(recovered->Close().ok());
    RemoveTree(dir);
  }
  // The walk actually covered the layer (open/read/write/sync/rename/
  // remove/truncate/list plus the wal/snapshot/store/restore sites).
  EXPECT_GE(armed_sites, 15);
}

}  // namespace
}  // namespace storage
}  // namespace lrpdb
