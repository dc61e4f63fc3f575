// Parser for the lrpdb surface syntax.
//
// The syntax mirrors the paper's examples (Sections 2.1 and 4.1):
//
//   // Declarations: temporal columns first, then data columns.
//   .decl course(time, time, data)
//   .decl problems(time, time, data)
//
//   // Generalized facts (extensional database). Column constraints use
//   // T1..Tm; lrps are written 168n+8 (coefficient glued to 'n').
//   .fact course(168n+8, 168n+10, "database") with T2 = T1 + 2, T1 >= 0.
//
//   // Deductive rules. Temporal terms are variables with +/- integer
//   // offsets or integer constants; data terms follow the Prolog
//   // convention (Capitalized = variable, lowercase or "quoted" =
//   // constant).
//   problems(t1 + 2, t2 + 2, N) :- course(t1, t2, N).
//   problems(t1 + 48, t2 + 48, N) :- problems(t1, t2, N).
//
//   // Queries.
//   ?- problems(t1, t2, "database").
//
// Facts populate the Database; declarations and rules populate the Program;
// queries are returned for the caller to run with QueryAtom().
#ifndef LRPDB_PARSER_PARSER_H_
#define LRPDB_PARSER_PARSER_H_

#include <string_view>
#include <vector>

#include "src/ast/ast.h"
#include "src/common/statusor.h"
#include "src/gdb/database.h"

namespace lrpdb {

struct ParsedUnit {
  Program program;
  std::vector<PredicateAtom> queries;

  explicit ParsedUnit(Interner* data_interner) : program(data_interner) {}
};

// Parses `source`, adding extensional facts to `db` (whose interner the
// returned Program shares); every declared predicate that no clause
// defines is declared in `db`, with or without facts. `db` must outlive
// the returned unit.
[[nodiscard]] StatusOr<ParsedUnit> Parse(std::string_view source, Database* db);

}  // namespace lrpdb

#endif  // LRPDB_PARSER_PARSER_H_
