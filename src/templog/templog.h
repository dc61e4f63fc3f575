// Templog: temporal logic programming (paper, Section 2.3).
//
// Templog extends logic programming with the temporal operators O (next),
// [] (always) and <> (eventually), over time isomorphic to the naturals:
//   * O may appear anywhere in clauses,
//   * [] only in clause heads or outside entire clauses,
//   * <> only in clause bodies.
// The paper recalls (via [Bau89]) that Templog is equivalent to its fragment
// TL1 -- O-only clauses universally closed by an outer [] -- which is
// exactly the Chomicki-Imielinski language of Section 2.2. This module
// implements that reduction: Templog programs are translated to Datalog1S
// programs (one temporal argument, successor only), introducing auxiliary
// predicates for []-heads and <>-bodies:
//
//   [](A <- B)          ~>  a(t+kA, ...) <- b(t+kB, ...)
//   A <- B  (no box)    ~>  the instance at t = 0 only
//   []A in a head       ~>  trigger tr(t) <- body; tr(t+1) <- tr(t);
//                           a(t) <- tr(t)        ("from now on")
//   <>B in a body       ~>  ev_b(t) <- b(t); ev_b(t) <- ev_b(t+1)
//                           ("at some future instant"), body atom ~> ev_b(t)
//
// Example 2.3's program translates to Example 2.2's program, which the
// tests verify by model equality.
#ifndef LRPDB_TEMPLOG_TEMPLOG_H_
#define LRPDB_TEMPLOG_TEMPLOG_H_

#include <memory>
#include <string>
#include <vector>

#include "src/ast/ast.h"
#include "src/common/statusor.h"
#include "src/gdb/database.h"

namespace lrpdb {

// An atom with stacked next-operators: O^k p(args). Argument strings follow
// the data-term convention (Capitalized = variable, otherwise constant).
struct TemplogAtom {
  int next_count = 0;
  std::string predicate;
  std::vector<std::string> args;
  // quoted[i]: args[i] was a string literal, so it is a constant whatever
  // its case.
  std::vector<bool> quoted;
};

// A body literal: an atom, optionally under <> (eventually). The next
// operators outside the <> add to the reference instant; O^j <> O^k A means
// "at some instant >= now + j, A holds k steps later", which collapses to
// <> O^(j+k)... only relative to j; we keep both counts.
struct TemplogBodyLiteral {
  bool eventually = false;
  TemplogAtom atom;
};

// [always] [box] O^k head <- body. `always` is the outer []; `box_head` is
// a [] applied to the head atom itself.
struct TemplogClause {
  bool always = false;
  bool box_head = false;
  TemplogAtom head;
  std::vector<TemplogBodyLiteral> body;
};

struct TemplogProgram {
  std::vector<TemplogClause> clauses;
};

// Parses the Templog surface syntax, e.g.:
//
//   next^5 train_leaves(liege, brussels).
//   always next^40 train_leaves(X, Y) :- train_leaves(X, Y).
//   always box alarm(X) :- eventually failure(X).
//
// Operators: `next^k` / `next` (k=1), `always` (outer box, before the
// head), `box` (head box), `eventually` (body diamond).
[[nodiscard]] StatusOr<TemplogProgram> ParseTemplog(std::string_view source);

// Translates to a Datalog1S program over `db`'s interner. Every Templog
// predicate becomes a predicate with one temporal and N data parameters;
// auxiliary predicates get reserved names ("__ev_p", "__box<i>_p").
[[nodiscard]] StatusOr<Program> TranslateToDatalog1S(const TemplogProgram& templog,
                                       Database* db);

}  // namespace lrpdb

#endif  // LRPDB_TEMPLOG_TEMPLOG_H_
