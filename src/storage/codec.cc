#include "src/storage/codec.h"

#include <limits>
#include <map>
#include <utility>

#include "src/gdb/generalized_relation.h"
#include "src/gdb/tuple_store.h"

namespace lrpdb {
namespace storage {
namespace {

// Decode-side sanity caps. Legitimate images never approach these; a
// corrupted count that slips past the CRC (or a hand-made hostile file)
// trips a descriptive error instead of an allocation storm.
constexpr uint32_t kMaxArity = 1024;

// On-disk representation of an unconstrained DBM entry. Distinct from
// Bound's internal sentinel so the format does not depend on it; any finite
// value at or beyond kMaxFiniteBound (= Bound's infinity, INT64_MAX/4) is
// rejected as corrupt.
constexpr int64_t kDbmInfinity = std::numeric_limits<int64_t>::max();
constexpr int64_t kMaxFiniteBound = std::numeric_limits<int64_t>::max() / 4;

void EncodeDbm(std::string* dst, const Dbm& dbm) {
  int n = dbm.num_vars();
  for (int i = 0; i <= n; ++i) {
    for (int j = 0; j <= n; ++j) {
      Bound b = dbm.bound(i, j);
      PutI64(dst, b.is_infinite() ? kDbmInfinity : b.value());
    }
  }
}

// Reads a (num_vars+1)^2 raw bound matrix. Diagonal entries must be exactly
// 0 (every stored DBM is satisfiable, so its closure pins them there);
// off-diagonal finite bounds must be below Bound's infinity in magnitude.
[[nodiscard]] StatusOr<Dbm> DecodeDbm(ByteReader* reader, int num_vars,
                                      std::string_view what) {
  Dbm dbm(num_vars);
  for (int i = 0; i <= num_vars; ++i) {
    for (int j = 0; j <= num_vars; ++j) {
      LRPDB_ASSIGN_OR_RETURN(int64_t v, reader->I64(what));
      if (i == j) {
        if (v != 0) {
          // Pure decode-time validation, covered by the mutation fuzz
          // fixtures in storage_test; no resource is held.
          // lint: allow(failpoint-coverage)
          return ParseError(std::string(what) +
                            ": DBM diagonal entry is not zero");
        }
        continue;
      }
      if (v == kDbmInfinity) continue;
      if (v >= kMaxFiniteBound || v <= -kMaxFiniteBound) {
        return ParseError(std::string(what) +
                          ": DBM bound magnitude out of range");
      }
      dbm.AddDifferenceUpperBound(i, j, v);
    }
  }
  return dbm;
}

[[nodiscard]] StatusOr<std::vector<Lrp>> DecodeLrps(ByteReader* reader,
                                                    uint32_t count,
                                                    std::string_view what) {
  std::vector<Lrp> lrps;
  for (uint32_t i = 0; i < count; ++i) {
    LRPDB_ASSIGN_OR_RETURN(int64_t period, reader->I64(what));
    LRPDB_ASSIGN_OR_RETURN(int64_t offset, reader->I64(what));
    // Stored lrps are canonical by construction (Lrp normalizes on build);
    // anything else is corruption, not something to re-canonicalize.
    if (period <= 0 || offset < 0 || offset >= period) {
      // Pure decode-time validation, covered by the mutation fuzz fixtures
      // in storage_test; no resource is held.
      // lint: allow(failpoint-coverage)
      return ParseError(std::string(what) + ": non-canonical lrp (period " +
                        std::to_string(period) + ", offset " +
                        std::to_string(offset) + ")");
    }
    lrps.push_back(Lrp(period, offset));
  }
  return lrps;
}

[[nodiscard]] StatusOr<RelationSchema> DecodeSchema(ByteReader* reader,
                                                    std::string_view what) {
  LRPDB_ASSIGN_OR_RETURN(uint32_t temporal, reader->U32(what));
  LRPDB_ASSIGN_OR_RETURN(uint32_t data, reader->U32(what));
  if (temporal > kMaxArity || data > kMaxArity) {
    // Pure decode-time validation, covered by the mutation fuzz fixtures
    // in storage_test; no resource is held.
    // lint: allow(failpoint-coverage)
    return ParseError(std::string(what) + ": arity out of range");
  }
  RelationSchema schema;
  schema.temporal_arity = static_cast<int>(temporal);
  schema.data_arity = static_cast<int>(data);
  return schema;
}

}  // namespace

// --- ByteReader ---

[[nodiscard]] Status ByteReader::Need(size_t n, std::string_view what) {
  if (remaining() < n) {
    // Pure bounds check over an in-memory buffer: every truncation offset
    // is exercised by ImageRejectsEveryTruncation; no resource is held.
    // lint: allow(failpoint-coverage)
    return ParseError("truncated " + std::string(what) + ": need " +
                      std::to_string(n) + " bytes at offset " +
                      std::to_string(pos_) + ", have " +
                      std::to_string(remaining()));
  }
  return OkStatus();
}

[[nodiscard]] StatusOr<uint8_t> ByteReader::U8(std::string_view what) {
  LRPDB_RETURN_IF_ERROR(Need(1, what));
  return static_cast<uint8_t>(data_[pos_++]);
}

[[nodiscard]] StatusOr<uint32_t> ByteReader::U32(std::string_view what) {
  LRPDB_RETURN_IF_ERROR(Need(4, what));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

[[nodiscard]] StatusOr<uint64_t> ByteReader::U64(std::string_view what) {
  LRPDB_RETURN_IF_ERROR(Need(8, what));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

[[nodiscard]] StatusOr<int64_t> ByteReader::I64(std::string_view what) {
  LRPDB_ASSIGN_OR_RETURN(uint64_t v, U64(what));
  return static_cast<int64_t>(v);
}

[[nodiscard]] StatusOr<std::string_view> ByteReader::String(std::string_view what) {
  LRPDB_ASSIGN_OR_RETURN(uint32_t len, U32(what));
  LRPDB_RETURN_IF_ERROR(Need(len, what));
  std::string_view s = data_.substr(pos_, len);
  pos_ += len;
  return s;
}

// --- Database image ---

std::string EncodeDatabaseImage(const Database& db) {
  std::string out;
  // Interner: names in id order, so re-interning reproduces the ids.
  const Interner& interner = db.interner();
  PutU32(&out, static_cast<uint32_t>(interner.size()));
  for (size_t id = 0; id < interner.size(); ++id) {
    PutString(&out, interner.NameOf(static_cast<SymbolId>(id)));
  }
  // Relations in name order (RelationNames is sorted).
  std::vector<std::string> names = db.RelationNames();
  PutU32(&out, static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    const GeneralizedRelation* relation = db.Relation(name).value();
    const TupleStore& store = relation->store();
    PutString(&out, name);
    PutU32(&out, static_cast<uint32_t>(store.schema().temporal_arity));
    PutU32(&out, static_cast<uint32_t>(store.schema().data_arity));
    PutU8(&out, 1);  // Index flag: always on (see codec.h).
    PutU64(&out, store.size());
    // Dead (retracted) entries keep their slot so entry ids stay stable,
    // but their payload is canonicalized to a schema-shaped placeholder:
    // compacted entries have no payload left to write, and writing the
    // same placeholder for not-yet-compacted tombstones makes the image
    // independent of when CompactTombstones ran.
    const GeneralizedTuple placeholder = GeneralizedTuple::Unconstrained(
        std::vector<Lrp>(static_cast<size_t>(store.schema().temporal_arity),
                         Lrp(1, 0)),
        std::vector<DataValue>(static_cast<size_t>(store.schema().data_arity),
                               0));
    for (size_t i = 0; i < store.size(); ++i) {
      const EntryId id = static_cast<EntryId>(i);
      const GeneralizedTuple& tuple =
          store.is_live(id) ? store.tuple(id) : placeholder;
      for (const Lrp& lrp : tuple.lrps()) {
        PutI64(&out, lrp.period());
        PutI64(&out, lrp.offset());
      }
      for (DataValue d : tuple.data()) {
        PutU32(&out, static_cast<uint32_t>(d));
      }
      EncodeDbm(&out, tuple.constraint());
    }
    PutU64(&out, store.delta_lo());
    PutU64(&out, store.delta_hi());
    // v2: the dead-entry id list, ascending; decode re-tombstones them.
    std::string dead;
    uint32_t dead_count = 0;
    for (size_t i = 0; i < store.size(); ++i) {
      if (!store.is_live(static_cast<EntryId>(i))) {
        PutU64(&dead, i);
        ++dead_count;
      }
    }
    PutU32(&out, dead_count);
    out.append(dead);
  }
  return out;
}

[[nodiscard]] Status DecodeDatabaseImage(std::string_view payload, Database* db) {
  if (db->interner().size() != 0 || !db->RelationNames().empty()) {
    return InvalidArgumentError(
        "DecodeDatabaseImage requires a fresh database");
  }
  ByteReader reader(payload);
  // Interner.
  LRPDB_ASSIGN_OR_RETURN(uint32_t num_symbols, reader.U32("interner count"));
  for (uint32_t i = 0; i < num_symbols; ++i) {
    LRPDB_ASSIGN_OR_RETURN(std::string_view name,
                           reader.String("interner symbol"));
    SymbolId id = db->interner().Intern(name);
    if (id != static_cast<SymbolId>(i)) {
      return ParseError("duplicate interner symbol '" + std::string(name) +
                        "'");
    }
  }
  // Relations.
  LRPDB_ASSIGN_OR_RETURN(uint32_t num_relations,
                         reader.U32("relation count"));
  std::string prev_name;
  for (uint32_t r = 0; r < num_relations; ++r) {
    LRPDB_ASSIGN_OR_RETURN(std::string_view name_view,
                           reader.String("relation name"));
    std::string name(name_view);
    if (r > 0 && name <= prev_name) {
      return ParseError("relation names out of order at '" + name + "'");
    }
    prev_name = name;
    LRPDB_ASSIGN_OR_RETURN(RelationSchema schema,
                           DecodeSchema(&reader, "relation schema"));
    LRPDB_ASSIGN_OR_RETURN(uint8_t index_flag, reader.U8("index flag"));
    if (index_flag > 1) {
      return ParseError("relation '" + name + "': bad index flag");
    }
    LRPDB_RETURN_IF_ERROR(db->Declare(name, schema));
    LRPDB_ASSIGN_OR_RETURN(GeneralizedRelation * relation,
                           db->MutableRelation(name));
    TupleStore& store = relation->mutable_store();
    LRPDB_ASSIGN_OR_RETURN(uint64_t num_entries, reader.U64("entry count"));
    for (uint64_t e = 0; e < num_entries; ++e) {
      LRPDB_ASSIGN_OR_RETURN(
          std::vector<Lrp> lrps,
          DecodeLrps(&reader, static_cast<uint32_t>(schema.temporal_arity),
                     "entry lrp"));
      std::vector<DataValue> data;
      for (int c = 0; c < schema.data_arity; ++c) {
        LRPDB_ASSIGN_OR_RETURN(uint32_t id, reader.U32("entry data value"));
        if (id >= db->interner().size()) {
          return ParseError("relation '" + name +
                            "': data value id out of range");
        }
        data.push_back(static_cast<DataValue>(id));
      }
      LRPDB_ASSIGN_OR_RETURN(
          Dbm dbm, DecodeDbm(&reader, schema.temporal_arity, "entry DBM"));
      LRPDB_RETURN_IF_ERROR(store.RestoreEntry(GeneralizedTuple(
          std::move(lrps), std::move(data), std::move(dbm))));
    }
    LRPDB_ASSIGN_OR_RETURN(uint64_t delta_lo, reader.U64("delta_lo"));
    LRPDB_ASSIGN_OR_RETURN(uint64_t delta_hi, reader.U64("delta_hi"));
    LRPDB_RETURN_IF_ERROR(store.RestoreGenerations(
        static_cast<size_t>(delta_lo), static_cast<size_t>(delta_hi)));
    LRPDB_ASSIGN_OR_RETURN(uint32_t dead_count, reader.U32("tombstone count"));
    uint64_t prev_dead = 0;
    for (uint32_t t = 0; t < dead_count; ++t) {
      LRPDB_ASSIGN_OR_RETURN(uint64_t dead_id, reader.U64("tombstone id"));
      if (dead_id >= num_entries) {
        return ParseError("relation '" + name +
                          "': tombstone id out of range");
      }
      if (t > 0 && dead_id <= prev_dead) {
        return ParseError("relation '" + name +
                          "': tombstone ids out of order");
      }
      prev_dead = dead_id;
      store.Tombstone(static_cast<EntryId>(dead_id));
    }
  }
  if (!reader.AtEnd()) {
    return ParseError("trailing garbage after database image (" +
                      std::to_string(reader.remaining()) + " bytes)");
  }
  return OkStatus();
}

// --- Fact batch ---

std::string EncodeFactBatch(const FactBatch& batch) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(batch.decls.size()));
  for (const PredicateDecl& decl : batch.decls) {
    PutString(&out, decl.name);
    PutU32(&out, static_cast<uint32_t>(decl.schema.temporal_arity));
    PutU32(&out, static_cast<uint32_t>(decl.schema.data_arity));
  }
  PutU32(&out, static_cast<uint32_t>(batch.facts.size()));
  for (const BatchFact& fact : batch.facts) {
    PutString(&out, fact.relation);
    PutU32(&out, static_cast<uint32_t>(fact.lrps.size()));
    for (const Lrp& lrp : fact.lrps) {
      PutI64(&out, lrp.period());
      PutI64(&out, lrp.offset());
    }
    PutU32(&out, static_cast<uint32_t>(fact.data.size()));
    for (const std::string& d : fact.data) PutString(&out, d);
    EncodeDbm(&out, fact.constraint);
  }
  return out;
}

[[nodiscard]] StatusOr<FactBatch> DecodeFactBatch(std::string_view payload) {
  ByteReader reader(payload);
  FactBatch batch;
  LRPDB_ASSIGN_OR_RETURN(uint32_t num_decls, reader.U32("decl count"));
  for (uint32_t i = 0; i < num_decls; ++i) {
    PredicateDecl decl;
    LRPDB_ASSIGN_OR_RETURN(std::string_view name, reader.String("decl name"));
    decl.name = std::string(name);
    LRPDB_ASSIGN_OR_RETURN(decl.schema, DecodeSchema(&reader, "decl schema"));
    batch.decls.push_back(std::move(decl));
  }
  LRPDB_ASSIGN_OR_RETURN(uint32_t num_facts, reader.U32("fact count"));
  for (uint32_t i = 0; i < num_facts; ++i) {
    BatchFact fact;
    LRPDB_ASSIGN_OR_RETURN(std::string_view relation,
                           reader.String("fact relation"));
    fact.relation = std::string(relation);
    LRPDB_ASSIGN_OR_RETURN(uint32_t num_lrps, reader.U32("fact lrp count"));
    if (num_lrps > kMaxArity) {
      // Pure decode-time validation, exhaustively covered by the byte-flip
      // and truncation fixtures in storage_test; no resource is held.
      // lint: allow(failpoint-coverage)
      return ParseError("fact lrp count out of range");
    }
    LRPDB_ASSIGN_OR_RETURN(fact.lrps,
                           DecodeLrps(&reader, num_lrps, "fact lrp"));
    LRPDB_ASSIGN_OR_RETURN(uint32_t num_data, reader.U32("fact data count"));
    if (num_data > kMaxArity) {
      return ParseError("fact data count out of range");
    }
    for (uint32_t c = 0; c < num_data; ++c) {
      LRPDB_ASSIGN_OR_RETURN(std::string_view d,
                             reader.String("fact data value"));
      fact.data.emplace_back(d);
    }
    LRPDB_ASSIGN_OR_RETURN(
        fact.constraint,
        DecodeDbm(&reader, static_cast<int>(num_lrps), "fact DBM"));
    batch.facts.push_back(std::move(fact));
  }
  if (!reader.AtEnd()) {
    return ParseError("trailing garbage after fact batch (" +
                      std::to_string(reader.remaining()) + " bytes)");
  }
  return batch;
}

[[nodiscard]] Status ValidateFactBatch(const FactBatch& batch, const Database& db) {
  // Declarations must be new or schema-identical.
  std::map<std::string, RelationSchema, std::less<>> declared;
  for (const PredicateDecl& decl : batch.decls) {
    if (decl.schema.temporal_arity < 0 ||
        decl.schema.temporal_arity > static_cast<int>(kMaxArity) ||
        decl.schema.data_arity < 0 ||
        decl.schema.data_arity > static_cast<int>(kMaxArity)) {
      // Pure validation over an in-memory batch: every rejection branch is
      // exercised directly by storage_test fixtures, no resource is held.
      // lint: allow(failpoint-coverage)
      return InvalidArgumentError("batch decl '" + decl.name +
                                  "': arity out of range");
    }
    if (db.IsDeclared(decl.name)) {
      LRPDB_ASSIGN_OR_RETURN(RelationSchema existing, db.SchemaOf(decl.name));
      if (!(existing == decl.schema)) {
        return InvalidArgumentError(
            "batch decl '" + decl.name +
            "' conflicts with the existing schema of that relation");
      }
    }
    auto [it, inserted] = declared.emplace(decl.name, decl.schema);
    if (!inserted && !(it->second == decl.schema)) {
      return InvalidArgumentError("batch declares '" + decl.name +
                                  "' twice with different schemas");
    }
  }
  for (const BatchFact& fact : batch.facts) {
    RelationSchema schema;
    auto it = declared.find(fact.relation);
    if (it != declared.end()) {
      schema = it->second;
    } else if (db.IsDeclared(fact.relation)) {
      LRPDB_ASSIGN_OR_RETURN(schema, db.SchemaOf(fact.relation));
    } else {
      return InvalidArgumentError("batch fact for undeclared relation '" +
                                  fact.relation + "'");
    }
    if (static_cast<int>(fact.lrps.size()) != schema.temporal_arity ||
        static_cast<int>(fact.data.size()) != schema.data_arity) {
      return InvalidArgumentError("batch fact arity mismatch for '" +
                                  fact.relation + "'");
    }
    if (fact.constraint.num_vars() !=
        static_cast<int>(fact.lrps.size())) {
      return InvalidArgumentError("batch fact DBM arity mismatch for '" +
                                  fact.relation + "'");
    }
  }
  return OkStatus();
}

[[nodiscard]] Status ApplyFactBatch(const FactBatch& batch, Database* db) {
  for (const PredicateDecl& decl : batch.decls) {
    LRPDB_RETURN_IF_ERROR(db->Declare(decl.name, decl.schema));
  }
  for (const BatchFact& fact : batch.facts) {
    std::vector<DataValue> data;
    data.reserve(fact.data.size());
    for (const std::string& d : fact.data) data.push_back(db->Constant(d));
    LRPDB_RETURN_IF_ERROR(db->AddTuple(
        fact.relation,
        GeneralizedTuple(fact.lrps, std::move(data), fact.constraint)));
  }
  return OkStatus();
}

// --- Retract batch ---

[[nodiscard]] Status ValidateRetractBatch(const FactBatch& batch, const Database& db) {
  if (!batch.decls.empty()) {
    // Pure validation over an in-memory batch, exercised directly by
    // storage_test rejection fixtures; no resource is held.
    // lint: allow(failpoint-coverage)
    return InvalidArgumentError("retract batch carries declarations");
  }
  for (const BatchFact& fact : batch.facts) {
    if (!db.IsDeclared(fact.relation)) {
      return InvalidArgumentError("retract batch fact for undeclared "
                                  "relation '" + fact.relation + "'");
    }
    LRPDB_ASSIGN_OR_RETURN(RelationSchema schema, db.SchemaOf(fact.relation));
    if (static_cast<int>(fact.lrps.size()) != schema.temporal_arity ||
        static_cast<int>(fact.data.size()) != schema.data_arity) {
      return InvalidArgumentError("retract batch fact arity mismatch for '" +
                                  fact.relation + "'");
    }
    if (fact.constraint.num_vars() != static_cast<int>(fact.lrps.size())) {
      return InvalidArgumentError("retract batch fact DBM arity mismatch "
                                  "for '" + fact.relation + "'");
    }
  }
  return OkStatus();
}

[[nodiscard]] Status ApplyRetractBatch(const FactBatch& batch, Database* db) {
  for (const BatchFact& fact : batch.facts) {
    // Constant(d) interns unseen names on both the live path and replay,
    // so the interner state stays identical between them even when a
    // retraction names a constant the database never stored (a miss).
    std::vector<DataValue> data;
    data.reserve(fact.data.size());
    for (const std::string& d : fact.data) data.push_back(db->Constant(d));
    LRPDB_ASSIGN_OR_RETURN(GeneralizedRelation * relation,
                           db->MutableRelation(fact.relation));
    // The same routine as IncrementalEvaluator::RetractFacts, so replay
    // reproduces exactly the live/dead partition.
    relation->mutable_store().TombstoneExact(
        GeneralizedTuple(fact.lrps, std::move(data), fact.constraint));
  }
  return OkStatus();
}

}  // namespace storage
}  // namespace lrpdb
