#include "src/gdb/algebra.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "src/common/exec_context.h"
#include "src/common/failpoint.h"
#include "src/gdb/batch.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace lrpdb {
namespace {

// Copies every bound of `src` (over m variables) into `dst`, mapping source
// variable v (1-based) to var_map[v-1] (1-based in dst). The zero variable
// maps to the zero variable.
void EmbedDbm(const Dbm& src, const std::vector<int>& var_map, Dbm* dst) {
  auto mapped = [&](int v) { return v == 0 ? 0 : var_map[v - 1]; };
  for (int i = 0; i <= src.num_vars(); ++i) {
    for (int j = 0; j <= src.num_vars(); ++j) {
      if (i == j) continue;
      Bound b = src.bound(i, j);
      if (b.is_infinite()) continue;
      dst->AddDifferenceUpperBound(mapped(i), mapped(j), b.value());
    }
  }
}

// Pairwise tuple intersection (same schema); nullopt when visibly empty.
std::optional<GeneralizedTuple> IntersectTuples(const GeneralizedTuple& a,
                                                const GeneralizedTuple& b) {
  if (a.data() != b.data()) return std::nullopt;
  std::vector<Lrp> lrps;
  lrps.reserve(a.lrps().size());
  for (int i = 0; i < a.temporal_arity(); ++i) {
    std::optional<Lrp> merged = Lrp::Intersect(a.lrp(i), b.lrp(i));
    if (!merged.has_value()) return std::nullopt;
    lrps.push_back(*merged);
  }
  Dbm constraint = a.constraint();
  constraint.And(b.constraint());
  if (!constraint.IsSatisfiable()) return std::nullopt;
  return GeneralizedTuple(std::move(lrps), a.data(), std::move(constraint));
}

}  // namespace

[[nodiscard]] StatusOr<GeneralizedRelation> Intersect(const GeneralizedRelation& a,
                                        const GeneralizedRelation& b,
                                        const NormalizeLimits& limits) {
  if (!(a.schema() == b.schema())) {
    return InvalidArgumentError("gdb.intersect: schema mismatch");
  }
  LRPDB_OPERATOR_SCOPE(op, "gdb.intersect", a.size() + b.size());
  LRPDB_FAILPOINT("algebra.intersect");
  GeneralizedRelation out(a.schema());
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      LRPDB_RETURN_IF_ERROR(PollExec(limits.exec));
      std::optional<GeneralizedTuple> t = IntersectTuples(a.tuple(i),
                                                          b.tuple(j));
      if (!t.has_value()) continue;
      LRPDB_RETURN_IF_ERROR(out.InsertIfNew(*std::move(t), limits).status());
    }
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<GeneralizedRelation> Union(const GeneralizedRelation& a,
                                    const GeneralizedRelation& b,
                                    const NormalizeLimits& limits) {
  if (!(a.schema() == b.schema())) {
    return InvalidArgumentError("gdb.union: schema mismatch");
  }
  LRPDB_OPERATOR_SCOPE(op, "gdb.union", a.size() + b.size());
  LRPDB_FAILPOINT("algebra.union");
  GeneralizedRelation out(a.schema());
  for (size_t i = 0; i < a.size(); ++i) {
    LRPDB_RETURN_IF_ERROR(PollExec(limits.exec));
    LRPDB_RETURN_IF_ERROR(out.InsertIfNew(a.tuple(i), limits).status());
  }
  for (size_t i = 0; i < b.size(); ++i) {
    LRPDB_RETURN_IF_ERROR(PollExec(limits.exec));
    LRPDB_RETURN_IF_ERROR(out.InsertIfNew(b.tuple(i), limits).status());
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<GeneralizedRelation> Difference(const GeneralizedRelation& a,
                                         const GeneralizedRelation& b,
                                         const NormalizeLimits& limits) {
  if (!(a.schema() == b.schema())) {
    return InvalidArgumentError("gdb.difference: schema mismatch");
  }
  LRPDB_OPERATOR_SCOPE(op, "gdb.difference", a.size() + b.size());
  LRPDB_FAILPOINT("algebra.difference");
  GeneralizedRelation out(a.schema());
  for (size_t i = 0; i < a.size(); ++i) {
    LRPDB_RETURN_IF_ERROR(PollExec(limits.exec));
    // Subtract only b-tuples with matching data constants.
    std::vector<NormalizedTuple> subtrahend;
    for (size_t j = 0; j < b.size(); ++j) {
      if (b.tuple(j).data() != a.tuple(i).data()) continue;
      LRPDB_ASSIGN_OR_RETURN(const std::vector<NormalizedTuple>* b_pieces,
                             b.pieces(j, limits));
      subtrahend.insert(subtrahend.end(), b_pieces->begin(), b_pieces->end());
    }
    LRPDB_ASSIGN_OR_RETURN(const std::vector<NormalizedTuple>* a_pieces,
                           a.pieces(i, limits));
    LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> remainder,
                           SubtractPieces(*a_pieces, subtrahend, limits));
    std::vector<GeneralizedTuple> tuples;
    tuples.reserve(remainder.size());
    for (const NormalizedTuple& piece : remainder) {
      tuples.push_back(piece.ToGeneralizedTuple());
    }
    LRPDB_ASSIGN_OR_RETURN(tuples, CoalesceTuples(std::move(tuples), limits));
    for (GeneralizedTuple& t : tuples) {
      LRPDB_RETURN_IF_ERROR(out.InsertIfNew(std::move(t), limits).status());
    }
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<GeneralizedRelation> CartesianProduct(const GeneralizedRelation& a,
                                               const GeneralizedRelation& b,
                                               const NormalizeLimits& limits) {
  LRPDB_OPERATOR_SCOPE(op, "gdb.product", a.size() + b.size());
  LRPDB_FAILPOINT("algebra.product");
  RelationSchema schema{
      a.schema().temporal_arity + b.schema().temporal_arity,
      a.schema().data_arity + b.schema().data_arity};
  GeneralizedRelation out(schema);
  for (size_t i = 0; i < a.size(); ++i) {
    for (size_t j = 0; j < b.size(); ++j) {
      LRPDB_RETURN_IF_ERROR(PollExec(limits.exec));
      const GeneralizedTuple& ta = a.tuple(i);
      const GeneralizedTuple& tb = b.tuple(j);
      std::vector<Lrp> lrps = ta.lrps();
      lrps.insert(lrps.end(), tb.lrps().begin(), tb.lrps().end());
      std::vector<DataValue> data = ta.data();
      data.insert(data.end(), tb.data().begin(), tb.data().end());
      Dbm constraint(schema.temporal_arity);
      std::vector<int> a_map(ta.temporal_arity());
      for (int v = 0; v < ta.temporal_arity(); ++v) a_map[v] = v + 1;
      std::vector<int> b_map(tb.temporal_arity());
      for (int v = 0; v < tb.temporal_arity(); ++v) {
        b_map[v] = ta.temporal_arity() + v + 1;
      }
      EmbedDbm(ta.constraint(), a_map, &constraint);
      EmbedDbm(tb.constraint(), b_map, &constraint);
      LRPDB_RETURN_IF_ERROR(
          out.InsertUnlessEmpty(GeneralizedTuple(std::move(lrps),
                                                 std::move(data),
                                                 std::move(constraint)),
                                limits)
              .status());
    }
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<GeneralizedRelation> JoinOnEqualities(
    const GeneralizedRelation& a, const GeneralizedRelation& b,
    const std::vector<TemporalEquality>& temporal_eqs,
    const std::vector<std::pair<int, int>>& data_eqs,
    const NormalizeLimits& limits) {
  LRPDB_OPERATOR_SCOPE(op, "gdb.join", a.size() + b.size());
  LRPDB_TRACE_SPAN(span, "gdb.join");
  LRPDB_FAILPOINT("algebra.join");
  LRPDB_ASSIGN_OR_RETURN(GeneralizedRelation product,
                         CartesianProduct(a, b, limits));
  // Build the join condition as a DBM over the product's temporal columns.
  Dbm condition(product.schema().temporal_arity);
  for (const TemporalEquality& eq : temporal_eqs) {
    if (eq.left_column < 0 || eq.left_column >= a.schema().temporal_arity ||
        eq.right_column < 0 ||
        eq.right_column >= b.schema().temporal_arity) {
      return InvalidArgumentError("gdb.join: equality column out of range");
    }
    condition.AddDifferenceEquality(
        eq.left_column + 1,
        a.schema().temporal_arity + eq.right_column + 1, eq.offset);
  }
  GeneralizedRelation out(product.schema());
  for (size_t i = 0; i < product.size(); ++i) {
    LRPDB_RETURN_IF_ERROR(PollExec(limits.exec));
    const GeneralizedTuple& t = product.tuple(i);
    bool data_ok = true;
    for (const auto& [da, db] : data_eqs) {
      if (t.data()[da] != t.data()[a.schema().data_arity + db]) {
        data_ok = false;
        break;
      }
    }
    if (!data_ok) continue;
    GeneralizedTuple joined = t;
    joined.mutable_constraint().And(condition);
    LRPDB_RETURN_IF_ERROR(
        out.InsertUnlessEmpty(std::move(joined), limits).status());
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<GeneralizedRelation> SelectConstraint(const GeneralizedRelation& r,
                                               const Dbm& constraint,
                                               const NormalizeLimits& limits) {
  if (constraint.num_vars() != r.schema().temporal_arity) {
    return InvalidArgumentError(
        "gdb.select: constraint arity does not match schema");
  }
  LRPDB_OPERATOR_SCOPE(op, "gdb.select", r.size());
  LRPDB_FAILPOINT("algebra.select");
  GeneralizedRelation out(r.schema());
  // Batch form: one conjoin pass refines the mask and produces the closed
  // conjunctions; only satisfiable rows reach the output store.
  TupleBlock block;
  block.FillFromRange(r.store(), 0, r.size());
  SelectionMask mask;
  mask.Reset(block.rows());
  std::vector<Dbm> conjoined;
  BatchConstraintConjoin(block, constraint, &mask, &conjoined);
  Status failed = OkStatus();
  mask.ForEachSet([&](size_t row) {
    if (!failed.ok()) return;
    failed = [&]() -> Status {
      LRPDB_RETURN_IF_ERROR(PollExec(limits.exec));
      const GeneralizedTuple& t = block.tuple(row);
      return out
          .InsertUnlessEmpty(GeneralizedTuple(t.lrps(), t.data(),
                                              std::move(conjoined[row])),
                             limits)
          .status();
    }();
  });
  LRPDB_RETURN_IF_ERROR(failed);
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<GeneralizedRelation> Project(const GeneralizedRelation& r,
                                      const std::vector<int>& temporal_columns,
                                      const std::vector<int>& data_columns,
                                      const NormalizeLimits& limits) {
  LRPDB_OPERATOR_SCOPE(op, "gdb.project", r.size());
  LRPDB_TRACE_SPAN(span, "gdb.project");
  LRPDB_FAILPOINT("algebra.project");
  RelationSchema schema{static_cast<int>(temporal_columns.size()),
                        static_cast<int>(data_columns.size())};
  GeneralizedRelation out(schema);
  int m = r.schema().temporal_arity;
  std::vector<bool> kept(m, false);
  for (int c : temporal_columns) {
    if (c < 0 || c >= m) {
      return InvalidArgumentError("gdb.project: temporal column out of range");
    }
    kept[c] = true;
  }
  for (size_t i = 0; i < r.size(); ++i) {
    LRPDB_RETURN_IF_ERROR(PollExec(limits.exec));
    const GeneralizedTuple& tuple = r.tuple(i);
    std::vector<DataValue> data;
    data.reserve(data_columns.size());
    for (int c : data_columns) data.push_back(tuple.data()[c]);

    // Columns to drop that carry congruence information (period > 1) AND
    // interact with other columns. A periodic dropped column with no
    // difference bounds to other columns contributes only its own
    // non-emptiness: either it admits a value (drop it freely) or the whole
    // tuple is empty.
    Dbm closed = tuple.constraint();
    closed.Close();
    if (!closed.IsSatisfiable()) continue;
    bool tuple_empty = false;
    std::vector<int> periodic_dropped;
    for (int c = 0; c < m && !tuple_empty; ++c) {
      if (kept[c] || tuple.lrp(c).period() == 1) continue;
      // The column is genuinely linked to another column only when some
      // closed bound is tighter than what its absolute bounds already imply
      // (closure routes every pair through the zero variable, so equality
      // with that path means "no direct relation").
      bool linked = false;
      for (int other = 1; other <= m && !linked; ++other) {
        if (other == c + 1) continue;
        Bound via_zero_fwd = closed.bound(c + 1, 0) + closed.bound(0, other);
        Bound via_zero_bwd = closed.bound(other, 0) + closed.bound(0, c + 1);
        linked = closed.bound(c + 1, other) < via_zero_fwd ||
                 closed.bound(other, c + 1) < via_zero_bwd;
      }
      if (linked) {
        periodic_dropped.push_back(c);
        continue;
      }
      // Only absolute bounds (via the zero variable) constrain this column:
      // it can be dropped iff its lrp meets [lo, hi].
      Bound upper = closed.bound(c + 1, 0);
      Bound lower = closed.bound(0, c + 1);
      int64_t lo = lower.is_infinite() ? INT64_MIN / 2 : -lower.value();
      int64_t hi = upper.is_infinite() ? INT64_MAX / 2 : upper.value();
      tuple_empty = tuple.lrp(c).NextAtLeast(lo) > hi;
    }
    if (tuple_empty) continue;
    if (periodic_dropped.empty()) {
      // Exact fast path: a dropped column whose lrp is all of Z has no
      // congruence information, so integer DBM projection is exact.
      std::vector<int> dbm_keep;
      std::vector<Lrp> lrps;
      dbm_keep.reserve(temporal_columns.size());
      for (int c : temporal_columns) {
        dbm_keep.push_back(c + 1);
        lrps.push_back(tuple.lrp(c));
      }
      LRPDB_RETURN_IF_ERROR(
          out.InsertUnlessEmpty(
                 GeneralizedTuple(std::move(lrps), data,
                                  tuple.constraint().Project(dbm_keep)),
                 limits)
              .status());
      continue;
    }
    // General path: first drop the trivial (period-1) columns exactly via
    // DBM projection, then split the smaller tuple into residue pieces and
    // project those. Intermediate column order: kept columns (final order),
    // then the periodic dropped ones.
    std::vector<int> intermediate = temporal_columns;
    intermediate.insert(intermediate.end(), periodic_dropped.begin(),
                        periodic_dropped.end());
    std::vector<int> dbm_keep;
    std::vector<Lrp> lrps;
    dbm_keep.reserve(intermediate.size());
    for (int c : intermediate) {
      dbm_keep.push_back(c + 1);
      lrps.push_back(tuple.lrp(c));
    }
    GeneralizedTuple reduced(std::move(lrps), tuple.data(),
                             tuple.constraint().Project(dbm_keep));
    LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> pieces,
                           NormalizedTuple::Normalize(reduced, limits));
    std::vector<int> final_keep(temporal_columns.size());
    for (size_t k = 0; k < temporal_columns.size(); ++k) {
      final_keep[k] = static_cast<int>(k);
    }
    // Residue-exact projection yields one piece per residue class; coalesce
    // classes with identical constraints back into coarse tuples before
    // storing (the pieces of one source tuple are pairwise disjoint, so no
    // containment checking is needed on insert).
    std::vector<GeneralizedTuple> projected_tuples;
    for (const NormalizedTuple& piece : pieces) {
      NormalizedTuple projected = piece.ProjectTemporal(final_keep);
      GeneralizedTuple t = projected.ToGeneralizedTuple();
      projected_tuples.emplace_back(t.lrps(), data, t.constraint());
    }
    LRPDB_ASSIGN_OR_RETURN(projected_tuples,
                           CoalesceTuples(std::move(projected_tuples),
                                          limits));
    for (GeneralizedTuple& t : projected_tuples) {
      LRPDB_RETURN_IF_ERROR(
          out.InsertUnlessEmpty(std::move(t), limits).status());
    }
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<GeneralizedRelation> SelectDataEquals(
    const GeneralizedRelation& r, int column, DataValue value) {
  LRPDB_FAILPOINT("algebra.select_data");
  if (column < 0 || column >= r.schema().data_arity) {
    return InvalidArgumentError("gdb.select_data: column out of range");
  }
  LRPDB_OPERATOR_SCOPE(op, "gdb.select_data", r.size());
  GeneralizedRelation out(r.schema());
  const TupleStore& store = r.store();
  // Exactly the posting's entries match (ascending, so output order is
  // entry order); tombstoned entries were pruned from it.
  const std::vector<EntryId>* posting = store.PostingFor(column, value);
  if (posting == nullptr) {
    op.set_output(0);
    return out;
  }
  for (EntryId id : *posting) {
    LRPDB_RETURN_IF_ERROR(out.InsertUnlessEmpty(store.tuple(id)).status());
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<GeneralizedRelation> SelectDataColumnsEqual(
    const GeneralizedRelation& r, int i, int j) {
  LRPDB_FAILPOINT("algebra.select_data_eq");
  if (i < 0 || i >= r.schema().data_arity || j < 0 ||
      j >= r.schema().data_arity) {
    return InvalidArgumentError("gdb.select_data_eq: column out of range");
  }
  LRPDB_OPERATOR_SCOPE(op, "gdb.select_data_eq", r.size());
  GeneralizedRelation out(r.schema());
  TupleBlock block;
  block.FillFromRange(r.store(), 0, r.size());
  SelectionMask mask;
  mask.Reset(block.rows());
  BatchSelectDataColumnsEqual(block, i, j, &mask);
  Status failed = OkStatus();
  mask.ForEachSet([&](size_t row) {
    if (!failed.ok()) return;
    failed = out.InsertUnlessEmpty(block.tuple(row)).status();
  });
  LRPDB_RETURN_IF_ERROR(failed);
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<GeneralizedRelation> ShiftColumn(const GeneralizedRelation& r,
                                          int column, int64_t c,
                                          const NormalizeLimits& limits) {
  LRPDB_OPERATOR_SCOPE(op, "gdb.shift", r.size());
  LRPDB_FAILPOINT("algebra.shift");
  GeneralizedRelation out(r.schema());
  for (size_t i = 0; i < r.size(); ++i) {
    LRPDB_RETURN_IF_ERROR(PollExec(limits.exec));
    LRPDB_RETURN_IF_ERROR(
        out.InsertUnlessEmpty(r.tuple(i).WithColumnShifted(column, c), limits)
            .status());
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<GeneralizedRelation> Complement(
    const GeneralizedRelation& r,
    const std::vector<std::vector<DataValue>>& data_universe,
    const NormalizeLimits& limits) {
  LRPDB_OPERATOR_SCOPE(op, "gdb.complement",
                       r.size() + data_universe.size());
  LRPDB_TRACE_SPAN(span, "gdb.complement");
  LRPDB_FAILPOINT("algebra.complement");
  GeneralizedRelation out(r.schema());
  int m = r.schema().temporal_arity;
  for (const std::vector<DataValue>& data : data_universe) {
    LRPDB_RETURN_IF_ERROR(PollExec(limits.exec));
    if (static_cast<int>(data.size()) != r.schema().data_arity) {
      return InvalidArgumentError(
          "gdb.complement: universe row arity does not match schema");
    }
    // Universe piece for this data row: all time vectors.
    std::vector<Lrp> all(m, Lrp());
    GeneralizedTuple universe =
        GeneralizedTuple::Unconstrained(std::move(all), data);
    LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> universe_pieces,
                           NormalizedTuple::Normalize(universe, limits));
    std::vector<NormalizedTuple> subtrahend;
    for (size_t i = 0; i < r.size(); ++i) {
      if (r.tuple(i).data() != data) continue;
      LRPDB_ASSIGN_OR_RETURN(const std::vector<NormalizedTuple>* pieces,
                             r.pieces(i, limits));
      subtrahend.insert(subtrahend.end(), pieces->begin(), pieces->end());
    }
    LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> remainder,
                           SubtractPieces(universe_pieces, subtrahend, limits));
    std::vector<GeneralizedTuple> tuples;
    tuples.reserve(remainder.size());
    for (const NormalizedTuple& piece : remainder) {
      tuples.push_back(piece.ToGeneralizedTuple());
    }
    LRPDB_ASSIGN_OR_RETURN(tuples, CoalesceTuples(std::move(tuples), limits));
    for (GeneralizedTuple& t : tuples) {
      LRPDB_RETURN_IF_ERROR(
          out.InsertUnlessEmpty(std::move(t), limits).status());
    }
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

namespace {

// Serialized grouping key for CoalesceTuples: everything about the tuple
// except column j's lrp offset.
std::string CoalesceKey(const GeneralizedTuple& tuple, int j) {
  std::string key;
  for (int c = 0; c < tuple.temporal_arity(); ++c) {
    key += std::to_string(tuple.lrp(c).period());
    key += ':';
    key += c == j ? "_" : std::to_string(tuple.lrp(c).offset());
    key += ';';
  }
  for (DataValue d : tuple.data()) {
    key += std::to_string(d);
    key += ',';
  }
  return key;
}

// Entrywise-loosest DBM of a set (the tightest common relaxation): take the
// entrywise max over the members' closed matrices.
Dbm LoosestDbm(const std::vector<const GeneralizedTuple*>& tuples) {
  Dbm result(tuples.front()->constraint().num_vars());
  for (int i = 0; i <= result.num_vars(); ++i) {
    for (int k = 0; k <= result.num_vars(); ++k) {
      if (i == k) continue;
      Bound max_bound = Bound::Finite(INT64_MIN / 4);
      bool infinite = false;
      for (const GeneralizedTuple* t : tuples) {
        Dbm closed = t->constraint();
        closed.Close();
        Bound b = closed.bound(i, k);
        if (b.is_infinite()) {
          infinite = true;
          break;
        }
        if (max_bound < b) max_bound = b;
      }
      if (!infinite) {
        result.AddDifferenceUpperBound(i, k, max_bound.value());
      }
    }
  }
  return result;
}

// Attempts to merge `group` (same everything except column j's offset,
// same lrp period p in that column) into tuples with a coarser period p'.
// Appends results (merged or original) to `out`; returns true if anything
// merged.
[[nodiscard]] StatusOr<bool> TryCoalesceColumn(const std::vector<GeneralizedTuple>& group,
                                 int j, std::vector<GeneralizedTuple>* out,
                                 const NormalizeLimits& limits) {
  int64_t p = group.front().lrp(j).period();
  // Require pairwise distinct offsets in column j; duplicates mean the
  // tuples differ only in constraints and cannot tile a coarser class.
  {
    std::set<int64_t> offsets;
    for (const GeneralizedTuple& t : group) {
      if (!offsets.insert(t.lrp(j).offset()).second) {
        for (const GeneralizedTuple& out_t : group) out->push_back(out_t);
        return false;
      }
    }
  }
  // Try coarser periods from coarsest (1) upward in divisor order.
  std::vector<int64_t> divisors;
  for (int64_t d = 1; d < p; ++d) {
    if (p % d == 0) divisors.push_back(d);
  }
  for (int64_t coarse : divisors) {
    // Partition offsets by value mod coarse.
    std::map<int64_t, std::vector<const GeneralizedTuple*>> classes;
    for (const GeneralizedTuple& t : group) {
      classes[FloorMod(t.lrp(j).offset(), coarse)].push_back(&t);
    }
    std::vector<GeneralizedTuple> merged;
    std::vector<const GeneralizedTuple*> leftover;
    bool any = false;
    for (auto& [residue, members] : classes) {
      if (static_cast<int64_t>(members.size()) != p / coarse) {
        leftover.insert(leftover.end(), members.begin(), members.end());
        continue;
      }
      // Candidate: column j coarsened, constraint = loosest common DBM.
      std::vector<Lrp> lrps = members.front()->lrps();
      lrps[j] = Lrp(coarse, residue);
      GeneralizedTuple candidate(std::move(lrps), members.front()->data(),
                                 LoosestDbm(members));
      // Verify exactness: candidate ground set == union of members.
      LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> cand_pieces,
                             NormalizedTuple::Normalize(candidate, limits));
      std::vector<NormalizedTuple> member_pieces;
      for (const GeneralizedTuple* t : members) {
        LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> pieces,
                               NormalizedTuple::Normalize(*t, limits));
        member_pieces.insert(member_pieces.end(), pieces.begin(),
                             pieces.end());
      }
      LRPDB_ASSIGN_OR_RETURN(
          bool forward, PiecesContainedIn(cand_pieces, member_pieces, limits));
      // candidate >= union holds by construction (loosest DBM, covering
      // offsets), so one direction decides equality.
      if (forward) {
        merged.push_back(std::move(candidate));
        any = true;
      } else {
        leftover.insert(leftover.end(), members.begin(), members.end());
      }
    }
    if (any) {
      out->insert(out->end(), merged.begin(), merged.end());
      for (const GeneralizedTuple* t : leftover) out->push_back(*t);
      return true;
    }
  }
  for (const GeneralizedTuple& t : group) out->push_back(t);
  return false;
}

}  // namespace

[[nodiscard]] StatusOr<std::vector<GeneralizedTuple>> CoalesceTuples(
    std::vector<GeneralizedTuple> tuples, const NormalizeLimits& limits) {
  if (tuples.empty() || !limits.coalesce_outputs) return tuples;
  LRPDB_OPERATOR_SCOPE(op, "gdb.coalesce", tuples.size());
  LRPDB_FAILPOINT("algebra.coalesce");
  int m = tuples.front().temporal_arity();
  bool changed = true;
  while (changed) {
    changed = false;
    for (int j = 0; j < m; ++j) {
      std::map<std::string, std::vector<GeneralizedTuple>> groups;
      for (GeneralizedTuple& t : tuples) {
        groups[CoalesceKey(t, j)].push_back(std::move(t));
      }
      std::vector<GeneralizedTuple> next;
      for (auto& [key, group] : groups) {
        LRPDB_RETURN_IF_ERROR(PollExec(limits.exec));
        if (group.size() < 2 || group.front().lrp(j).period() == 1) {
          next.insert(next.end(), group.begin(), group.end());
          continue;
        }
        LRPDB_ASSIGN_OR_RETURN(bool merged,
                               TryCoalesceColumn(group, j, &next, limits));
        changed = changed || merged;
      }
      tuples = std::move(next);
    }
  }
  op.set_output(static_cast<int64_t>(tuples.size()));
  return tuples;
}

[[nodiscard]] StatusOr<bool> SameGroundSet(const GeneralizedRelation& a,
                             const GeneralizedRelation& b,
                             const NormalizeLimits& limits) {
  if (!(a.schema() == b.schema())) {
    return InvalidArgumentError("gdb.same_ground_set: schema mismatch");
  }
  LRPDB_OPERATOR_SCOPE(op, "gdb.same_ground_set", a.size() + b.size());
  LRPDB_FAILPOINT("algebra.same_ground_set");
  // Compare per data vector: pieces grouped by data inside SubtractPieces
  // already, so a direct two-way containment suffices.
  LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> pa, a.AllPieces(limits));
  LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> pb, b.AllPieces(limits));
  LRPDB_ASSIGN_OR_RETURN(bool ab, PiecesContainedIn(pa, pb, limits));
  if (!ab) return false;
  return PiecesContainedIn(pb, pa, limits);
}

}  // namespace lrpdb
