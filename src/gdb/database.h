// A generalized database: named relations plus the symbol interner that
// gives meaning to DataValue ids (paper, Section 2.1).
#ifndef LRPDB_GDB_DATABASE_H_
#define LRPDB_GDB_DATABASE_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/interner.h"
#include "src/common/statusor.h"
#include "src/gdb/generalized_relation.h"
#include "src/gdb/schema.h"

namespace lrpdb {

// Owns the extensional relations of a generalized database. Relation and
// data-constant names are interned through the shared Interner.
class Database {
 public:
  Database() = default;

  // Declares `name` with the given schema. Error if already declared with a
  // different schema.
  [[nodiscard]] Status Declare(std::string_view name, RelationSchema schema);

  // Declare(), then the relation itself, so that a caller adding tuples
  // right away (the parser's .fact path) looks `name` up once. Tuples added
  // through the pointer must match `schema`.
  [[nodiscard]] StatusOr<GeneralizedRelation*> DeclareRelation(
      std::string_view name, RelationSchema schema);

  bool IsDeclared(std::string_view name) const;

  // Adds a generalized tuple to `name` (which must be declared). Tuples
  // whose ground set is empty are silently dropped, matching the semantics
  // of the representation.
  [[nodiscard]] Status AddTuple(std::string_view name, GeneralizedTuple tuple);

  [[nodiscard]] StatusOr<const GeneralizedRelation*> Relation(std::string_view name) const;

  // Mutable access for the snapshot-restore path (src/storage), which
  // rebuilds stores entry-by-entry through TupleStore::RestoreEntry.
  [[nodiscard]] StatusOr<GeneralizedRelation*> MutableRelation(
      std::string_view name);
  [[nodiscard]] StatusOr<RelationSchema> SchemaOf(std::string_view name) const;

  // Names of all declared relations, sorted.
  std::vector<std::string> RelationNames() const;

  // Interner shared by data constants in this database.
  Interner& interner() { return interner_; }
  const Interner& interner() const { return interner_; }

  // Interns a data constant.
  DataValue Constant(std::string_view name) { return interner_.Intern(name); }

  std::string ToString() const;

 private:
  Interner interner_;
  std::map<std::string, GeneralizedRelation, std::less<>> relations_;
};

}  // namespace lrpdb

#endif  // LRPDB_GDB_DATABASE_H_
