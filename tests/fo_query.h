// Test helper: answers a first-order query (src/fo/fo.h) over relations a
// test built by hand, named as the query names them.
#ifndef LRPDB_TESTS_FO_QUERY_H_
#define LRPDB_TESTS_FO_QUERY_H_

#include <map>
#include <string>
#include <string_view>

#include "src/fo/fo.h"

namespace lrpdb {

// Parses `source` against the schemas of `relations` and evaluates it over
// them. `db` interns the query's data constants and adds its own relations
// and constants to the active domain; an empty Database serves when the
// test has none.
inline StatusOr<FoResult> AnswerFo(
    std::string_view source,
    const std::map<std::string, GeneralizedRelation>& relations,
    Database* db) {
  std::map<std::string, RelationSchema> schemas;
  for (const auto& [name, relation] : relations) {
    schemas.emplace(name, relation.schema());
  }
  LRPDB_ASSIGN_OR_RETURN(FoQuery query, ParseFoQuery(source, db, &schemas));
  FoOptions options;
  options.extra_relations = &relations;
  return EvaluateFoQuery(query, *db, options);
}

}  // namespace lrpdb

#endif  // LRPDB_TESTS_FO_QUERY_H_
