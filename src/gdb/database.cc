#include "src/gdb/database.h"

namespace lrpdb {

Database::~Database() = default;
Database::Database(Database&&) noexcept = default;
Database& Database::operator=(Database&&) noexcept = default;

[[nodiscard]] Status Database::Declare(std::string_view name, RelationSchema schema) {
  return DeclareRelation(name, schema).status();
}

[[nodiscard]] StatusOr<GeneralizedRelation*> Database::DeclareRelation(
    std::string_view name, RelationSchema schema) {
  auto it = relations_.find(name);
  if (it != relations_.end()) {
    if (it->second.schema() == schema) return &it->second;
    // Pure-validation error on the parser's declaration path: the fault
    // battery CHECKs that parsing succeeds, so a failpoint here would abort
    // it; the redeclaration error is covered directly by gdb_test.
    // lint: allow(failpoint-coverage)
    return InvalidArgumentError("relation '" + std::string(name) +
                                "' already declared with a different schema");
  }
  return &relations_.emplace(std::string(name), GeneralizedRelation(schema))
              .first->second;
}

bool Database::IsDeclared(std::string_view name) const {
  return relations_.find(name) != relations_.end();
}

[[nodiscard]] Status Database::AddTuple(std::string_view name, GeneralizedTuple tuple) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    // Pure-validation error on the parser's fact path (see Declare above);
    // covered directly by gdb_test.
    // lint: allow(failpoint-coverage)
    return NotFoundError("relation '" + std::string(name) + "' not declared");
  }
  if (tuple.temporal_arity() != it->second.schema().temporal_arity ||
      tuple.data_arity() != it->second.schema().data_arity) {
    return InvalidArgumentError("tuple arity does not match schema of '" +
                                std::string(name) + "'");
  }
  it->second.InsertUnlessEmpty(tuple);
  return OkStatus();
}

[[nodiscard]] StatusOr<const GeneralizedRelation*> Database::Relation(
    std::string_view name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    // Pure lookup-miss validation; callers iterating RelationNames() rely
    // on this being infallible for known names, so no fault injection here.
    // lint: allow(failpoint-coverage)
    return NotFoundError("relation '" + std::string(name) + "' not declared");
  }
  return &it->second;
}

[[nodiscard]] StatusOr<GeneralizedRelation*> Database::MutableRelation(
    std::string_view name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    // Same infallible-for-known-names contract as Relation() above.
    // lint: allow(failpoint-coverage)
    return NotFoundError("relation '" + std::string(name) + "' not declared");
  }
  return &it->second;
}

[[nodiscard]] StatusOr<RelationSchema> Database::SchemaOf(std::string_view name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    // Same infallible-for-known-names contract as Relation() above.
    // lint: allow(failpoint-coverage)
    return NotFoundError("relation '" + std::string(name) + "' not declared");
  }
  return it->second.schema();
}

std::vector<std::string> Database::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, unused] : relations_) names.push_back(name);
  return names;
}

std::string Database::ToString() const {
  std::string s;
  for (const auto& [name, relation] : relations_) {
    s += name;
    s += ":\n";
    s += relation.ToString(&interner_);
  }
  return s;
}

}  // namespace lrpdb
