// Serialization of generalized relations back into the surface syntax.
//
// A computed closed form (the answer of the paper's bottom-up evaluation)
// is itself a generalized database; exporting it as `.decl`/`.fact` text
// realizes the "convert once and for all" workflow of Section 1: evaluate
// the recursive definition once, save the explicit form, and reload it as
// a plain extensional database later. Output round-trips through Parse()
// to the same ground sets.
#ifndef LRPDB_GDB_SERIALIZE_H_
#define LRPDB_GDB_SERIALIZE_H_

#include <string>

#include "src/gdb/database.h"
#include "src/gdb/tuple_store.h"

namespace lrpdb {

// ".decl name(time, ..., data, ...)\n" for the relation's schema.
std::string SerializeDeclaration(const std::string& name,
                                 const RelationSchema& schema);

// One ".fact name(...) with ..." line per stored tuple. Constraints are
// emitted from the transitive reduction of the closed DBM: equalities as
// "Ti = Tj + c", other bounds as inequalities, bounds implied by
// transitivity or already encoded by pinned lrps omitted.
std::string SerializeRelationAsFacts(const std::string& name,
                                     const GeneralizedRelation& relation,
                                     const Interner& interner);

// The whole database: declarations then facts, relations in name order.
std::string SerializeDatabase(const Database& db);

}  // namespace lrpdb

#endif  // LRPDB_GDB_SERIALIZE_H_
