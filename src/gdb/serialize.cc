#include "src/gdb/serialize.h"

#include <optional>
#include <string>
#include <vector>

namespace lrpdb {
namespace {

// "T3" for column index 2.
std::string ColumnName(int dbm_index) {
  return std::string("T").append(std::to_string(dbm_index));
}

// "Tj + c" / "Tj - c" / "Tj" / plain integer for the zero variable.
std::string SideWithOffset(int dbm_index, int64_t offset) {
  if (dbm_index == 0) return std::to_string(offset);
  std::string s = ColumnName(dbm_index);
  if (offset > 0) s += " + " + std::to_string(offset);
  if (offset < 0) s += " - " + std::to_string(-offset);
  return s;
}

// Emits the constraints of `tuple` as a comma-separated list (empty when
// unconstrained).
std::string SerializeConstraints(const TupleView& tuple) {
  Dbm closed = tuple.constraint();
  closed.Close();
  int m = closed.num_vars();
  if (!closed.IsSatisfiable()) {
    // An unsatisfiable stored tuple denotes the empty set; pin it to an
    // impossible window so the round trip stays empty.
    return "T1 < 0, T1 > 0";
  }
  // Greedy reduction: a bound is dropped only when the bounds still kept
  // imply it. (Naive per-bound transitivity checks on the closed matrix
  // would drop *all* members of a mutually-implying cycle, e.g. both
  // directions of an equality chain.)
  struct RawBound {
    int i;
    int j;
    int64_t c;
  };
  std::vector<RawBound> bounds;
  for (int i = 0; i <= m; ++i) {
    for (int j = 0; j <= m; ++j) {
      if (i == j) continue;
      Bound b = closed.bound(i, j);
      if (!b.is_infinite()) bounds.push_back({i, j, b.value()});
    }
  }
  std::vector<bool> removed(bounds.size(), false);
  for (size_t idx = 0; idx < bounds.size(); ++idx) {
    Dbm without(m);
    for (size_t k = 0; k < bounds.size(); ++k) {
      if (k == idx || removed[k]) continue;
      without.AddDifferenceUpperBound(bounds[k].i, bounds[k].j, bounds[k].c);
    }
    without.Close();
    Bound remaining = without.bound(bounds[idx].i, bounds[idx].j);
    if (!remaining.is_infinite() && remaining.value() <= bounds[idx].c) {
      removed[idx] = true;
    }
  }
  std::vector<std::string> parts;
  std::vector<std::vector<bool>> emitted(m + 1, std::vector<bool>(m + 1));
  auto kept = [&](int i, int j) -> std::optional<int64_t> {
    for (size_t k = 0; k < bounds.size(); ++k) {
      if (!removed[k] && bounds[k].i == i && bounds[k].j == j) {
        return bounds[k].c;
      }
    }
    return std::nullopt;
  };
  for (const RawBound& raw : bounds) {
    if (emitted[raw.i][raw.j]) continue;
    std::optional<int64_t> forward = kept(raw.i, raw.j);
    if (!forward.has_value()) continue;
    int i = raw.i;
    int j = raw.j;
    int64_t c = *forward;
    emitted[i][j] = true;
    std::optional<int64_t> reverse = kept(j, i);
    if (reverse.has_value() && *reverse == -c) {
      // Equality: xi == xj + c. Emit once in a canonical direction.
      emitted[j][i] = true;
      if (i == 0) {
        parts.push_back(ColumnName(j) + " = " + std::to_string(-c));
      } else if (j == 0) {
        parts.push_back(ColumnName(i) + " = " + std::to_string(c));
      } else {
        parts.push_back(ColumnName(i) + " = " + SideWithOffset(j, c));
      }
      continue;
    }
    // xi - xj <= c  ==  xi <= xj + c; with i == 0 it is a lower bound.
    if (i == 0) {
      parts.push_back(ColumnName(j) + " >= " + std::to_string(-c));
    } else {
      parts.push_back(ColumnName(i) + " <= " + SideWithOffset(j, c));
    }
  }
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ", ";
    out += parts[i];
  }
  return out;
}

}  // namespace

std::string SerializeDeclaration(const std::string& name,
                                 const RelationSchema& schema) {
  std::string s = ".decl " + name + "(";
  for (int i = 0; i < schema.temporal_arity; ++i) {
    if (i > 0) s += ", ";
    s += "time";
  }
  for (int i = 0; i < schema.data_arity; ++i) {
    if (i > 0 || schema.temporal_arity > 0) s += ", ";
    s += "data";
  }
  s += ")\n";
  return s;
}

std::string SerializeRelationAsFacts(const std::string& name,
                                     const GeneralizedRelation& relation,
                                     const Interner& interner) {
  std::string out;
  for (EntryId id : relation.live_ids()) {
    const TupleView tuple = relation.tuple(id);
    std::string line = ".fact " + name + "(";
    for (int c = 0; c < tuple.temporal_arity(); ++c) {
      if (c > 0) line += ", ";
      line += tuple.lrp(c).ToString();
    }
    for (int c = 0; c < tuple.data_arity(); ++c) {
      if (c > 0 || tuple.temporal_arity() > 0) line += ", ";
      line += "\"" + interner.NameOf(tuple.data()[c]) + "\"";
    }
    line += ")";
    std::string constraints = SerializeConstraints(tuple);
    if (!constraints.empty()) line += " with " + constraints;
    line += ".\n";
    out += line;
  }
  return out;
}

std::string SerializeDatabase(const Database& db) {
  std::string out;
  for (const std::string& name : db.RelationNames()) {
    auto relation = db.Relation(name);
    out += SerializeDeclaration(name, (*relation)->schema());
  }
  for (const std::string& name : db.RelationNames()) {
    auto relation = db.Relation(name);
    out += SerializeRelationAsFacts(name, **relation, db.interner());
  }
  return out;
}

}  // namespace lrpdb
