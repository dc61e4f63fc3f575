#include "src/templog/templog.h"

#include <climits>
#include <map>
#include <set>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/parser/lexer.h"

namespace lrpdb {
namespace {

class TemplogParser : private TokenStream {
 public:
  TemplogParser(std::string_view source, TemplogProgram* program)
      : TokenStream(source), program_(program) {}

  [[nodiscard]] Status Run() { return Finish(ParseClauses()); }

 private:
  [[nodiscard]] Status ParseClauses() {
    while (!AtEnd()) {
      LRPDB_RETURN_IF_ERROR(ParseClause(&program_->clauses.emplace_back()));
    }
    return OkStatus();
  }

  // next^k | next, zero or more times: the sum of their counts, which must
  // fit in an int.
  [[nodiscard]] Status ParseNexts(int* count) {
    *count = 0;
    while (MatchWord("next")) {
      const bool power = Match(TokenKind::kCaret);
      if (power && Peek().kind != TokenKind::kNumber) {
        return Error("expected number after ^");
      }
      const int64_t step = power ? Peek().number : 1;
      if (step > INT_MAX - *count) return Error("next count overflows int");
      *count += static_cast<int>(step);
      if (power) Advance();
    }
    return OkStatus();
  }

  [[nodiscard]] Status ParseAtom(TemplogAtom* atom) {
    LRPDB_RETURN_IF_ERROR(ParseNexts(&atom->next_count));
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected predicate name");
    }
    atom->predicate = Advance().text;
    if (Match(TokenKind::kLeftParen)) {
      if (!Match(TokenKind::kRightParen)) {
        while (true) {
          if (Peek().kind != TokenKind::kIdentifier &&
              Peek().kind != TokenKind::kString) {
            return Error("expected argument");
          }
          atom->quoted.push_back(Peek().kind == TokenKind::kString);
          atom->args.emplace_back(Advance().text);
          if (Match(TokenKind::kRightParen)) break;
          if (!Match(TokenKind::kComma)) return Error("expected ',' or ')'");
        }
      }
    }
    return OkStatus();
  }

  [[nodiscard]] Status ParseClause(TemplogClause* clause) {
    clause->always = MatchWord("always");
    clause->box_head = MatchWord("box");
    LRPDB_RETURN_IF_ERROR(ParseAtom(&clause->head));
    if (Match(TokenKind::kImplies)) {
      while (true) {
        TemplogBodyLiteral literal;
        literal.eventually = MatchWord("eventually");
        LRPDB_RETURN_IF_ERROR(ParseAtom(&literal.atom));
        clause->body.push_back(std::move(literal));
        if (!Match(TokenKind::kComma)) break;
      }
    }
    return Expect(TokenKind::kPeriod, "'.'");
  }

  TemplogProgram* program_;
};

// Collects predicate arities; errors on inconsistency.
[[nodiscard]] Status CollectArity(const TemplogAtom& atom, std::map<std::string, int>* out) {
  int arity = static_cast<int>(atom.args.size());
  auto [it, inserted] = out->emplace(atom.predicate, arity);
  if (!inserted && it->second != arity) {
    return InvalidArgumentError("predicate '" + atom.predicate +
                                "' used with inconsistent arities");
  }
  return OkStatus();
}

// Builds the Datalog1S temporal term for an atom in a clause: the clause
// variable t plus the atom's next-count, or the constant next-count when the
// clause is not universally closed.
TemporalTerm AtomTime(bool always, SymbolId t_var, int next_count) {
  if (always) return TemporalTerm::Variable(t_var, next_count);
  return TemporalTerm::Constant(next_count);
}

std::vector<DataTerm> AtomData(Program* program, Database* db,
                               const TemplogAtom& atom) {
  std::vector<DataTerm> terms;
  terms.reserve(atom.args.size());
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const std::string& arg = atom.args[i];
    if (!atom.quoted[i] && IsDataVariableName(arg)) {
      terms.push_back(DataTerm::Variable(program->variables().Intern(arg)));
    } else {
      terms.push_back(DataTerm::Constant(db->Constant(arg)));
    }
  }
  return terms;
}

}  // namespace

[[nodiscard]] StatusOr<TemplogProgram> ParseTemplog(std::string_view source) {
  TemplogProgram program;
  TemplogParser parser(source, &program);
  LRPDB_RETURN_IF_ERROR(parser.Run());
  return program;
}

[[nodiscard]] StatusOr<Program> TranslateToDatalog1S(const TemplogProgram& templog,
                                       Database* db) {
  LRPDB_TRACE_SPAN(span, "templog.translate");
  LRPDB_COUNTER_ADD("templog.clauses_translated",
                    static_cast<int64_t>(templog.clauses.size()));
  Program program(&db->interner());
  std::map<std::string, int> arities;
  std::set<std::string> needs_eventually;
  for (const TemplogClause& clause : templog.clauses) {
    LRPDB_RETURN_IF_ERROR(CollectArity(clause.head, &arities));
    for (const TemplogBodyLiteral& literal : clause.body) {
      LRPDB_RETURN_IF_ERROR(CollectArity(literal.atom, &arities));
      if (literal.eventually) needs_eventually.insert(literal.atom.predicate);
    }
  }
  for (const auto& [name, arity] : arities) {
    LRPDB_RETURN_IF_ERROR(program.Declare(name, {1, arity}));
  }
  SymbolId t_var = program.variables().Intern("t");

  // Eventually auxiliaries: __ev_p(t, V...) <- p(t, V...);
  //                         __ev_p(t, V...) <- __ev_p(t+1, V...).
  for (const std::string& name : needs_eventually) {
    LRPDB_COUNTER_INC("templog.eventually_aux_predicates");
    int arity = arities.at(name);
    std::string ev = "__ev_" + name;
    LRPDB_RETURN_IF_ERROR(program.Declare(ev, {1, arity}));
    std::vector<DataTerm> vars;
    for (int i = 0; i < arity; ++i) {
      vars.push_back(DataTerm::Variable(
          program.variables().Intern(
              std::string("V").append(std::to_string(i + 1)))));
    }
    SymbolId ev_id = program.predicates().Intern(ev);
    SymbolId p_id = program.predicates().Intern(name);
    Clause base;
    base.head = {.predicate = ev_id,
                 .temporal_args = {TemporalTerm::Variable(t_var)},
                 .data_args = vars};
    base.body.emplace_back(
        PredicateAtom{.predicate = p_id,
                      .temporal_args = {TemporalTerm::Variable(t_var)},
                      .data_args = vars});
    LRPDB_RETURN_IF_ERROR(program.AddClause(std::move(base)));
    Clause step;
    step.head = {.predicate = ev_id,
                 .temporal_args = {TemporalTerm::Variable(t_var)},
                 .data_args = vars};
    step.body.emplace_back(
        PredicateAtom{.predicate = ev_id,
                      .temporal_args = {TemporalTerm::Variable(t_var, 1)},
                      .data_args = vars});
    LRPDB_RETURN_IF_ERROR(program.AddClause(std::move(step)));
  }

  int box_counter = 0;
  for (const TemplogClause& templog_clause : templog.clauses) {
    // Body literals are shared by both translation shapes.
    auto make_body = [&](Program* p) {
      std::vector<BodyAtom> body;
      for (const TemplogBodyLiteral& literal : templog_clause.body) {
        std::string name = literal.eventually
                               ? "__ev_" + literal.atom.predicate
                               : literal.atom.predicate;
        body.emplace_back(PredicateAtom{
            .predicate = p->predicates().Intern(name),
            .temporal_args = {AtomTime(templog_clause.always, t_var,
                                       literal.atom.next_count)},
            .data_args = AtomData(p, db, literal.atom)});
      }
      return body;
    };

    if (!templog_clause.box_head) {
      Clause clause;
      clause.head = {
          .predicate =
              program.predicates().Intern(templog_clause.head.predicate),
          .temporal_args = {AtomTime(templog_clause.always, t_var,
                                     templog_clause.head.next_count)},
          .data_args = AtomData(&program, db, templog_clause.head)};
      clause.body = make_body(&program);
      LRPDB_RETURN_IF_ERROR(program.AddClause(std::move(clause)));
      continue;
    }

    // Box head: trigger predicate carrying the head's data arguments.
    LRPDB_COUNTER_INC("templog.box_expansions");
    const TemplogAtom& head = templog_clause.head;
    std::string trigger =
        "__box" + std::to_string(box_counter++) + "_" + head.predicate;
    LRPDB_RETURN_IF_ERROR(
        program.Declare(trigger, {1, static_cast<int>(head.args.size())}));
    SymbolId trigger_id = program.predicates().Intern(trigger);
    SymbolId head_id = program.predicates().Intern(head.predicate);
    std::vector<DataTerm> head_data = AtomData(&program, db, head);

    // trigger(t + k, args) <- body(t).
    Clause arm;
    arm.head = {.predicate = trigger_id,
                .temporal_args = {AtomTime(templog_clause.always, t_var,
                                           head.next_count)},
                .data_args = head_data};
    arm.body = make_body(&program);
    LRPDB_RETURN_IF_ERROR(program.AddClause(std::move(arm)));

    // trigger(t + 1, V...) <- trigger(t, V...); head(t, V...) <- trigger(t).
    std::vector<DataTerm> vars;
    for (size_t i = 0; i < head.args.size(); ++i) {
      vars.push_back(DataTerm::Variable(
          program.variables().Intern(
              std::string("V").append(std::to_string(i + 1)))));
    }
    Clause persist;
    persist.head = {.predicate = trigger_id,
                    .temporal_args = {TemporalTerm::Variable(t_var, 1)},
                    .data_args = vars};
    persist.body.emplace_back(
        PredicateAtom{.predicate = trigger_id,
                      .temporal_args = {TemporalTerm::Variable(t_var)},
                      .data_args = vars});
    LRPDB_RETURN_IF_ERROR(program.AddClause(std::move(persist)));
    Clause project;
    project.head = {.predicate = head_id,
                    .temporal_args = {TemporalTerm::Variable(t_var)},
                    .data_args = vars};
    project.body.emplace_back(
        PredicateAtom{.predicate = trigger_id,
                      .temporal_args = {TemporalTerm::Variable(t_var)},
                      .data_args = vars});
    LRPDB_RETURN_IF_ERROR(program.AddClause(std::move(project)));
  }
  LRPDB_COUNTER_ADD("templog.datalog1s_clauses_emitted",
                    static_cast<int64_t>(program.clauses().size()));
  span.AddArg("input_clauses", static_cast<int64_t>(templog.clauses.size()));
  span.AddArg("output_clauses", static_cast<int64_t>(program.clauses().size()));
  return program;
}

}  // namespace lrpdb
