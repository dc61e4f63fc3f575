#include "src/gdb/algebra.h"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <unordered_map>

#include "src/common/exec_context.h"
#include "src/common/failpoint.h"
#include "src/gdb/normalized_tuple.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace lrpdb {
namespace {

// Copies every bound of `src` (over m variables) into `dst`, mapping source
// variable v (1-based) to var_map[v-1] (1-based in dst). The zero variable
// maps to the zero variable.
void EmbedDbm(DbmView src, const std::vector<int>& var_map, Dbm* dst) {
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
std::optional<GeneralizedTuple> IntersectTuples(TupleView a, TupleView b) {
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
  return GeneralizedTuple(std::move(lrps), a.data().ToVector(),
                          std::move(constraint));
}

}  // namespace

[[nodiscard]] StatusOr<GeneralizedRelation> Intersect(const GeneralizedRelation& a,
                                        const GeneralizedRelation& b) {
  if (!(a.schema() == b.schema())) {
    return InvalidArgumentError("gdb.intersect: schema mismatch");
  }
  LRPDB_OPERATOR_SCOPE(op, "gdb.intersect", a.size() + b.size());
  LRPDB_FAILPOINT("algebra.intersect");
  ExecContext* exec = ExecContext::Current();
  GeneralizedRelation out(a.schema());
  for (EntryId i : a.live_ids()) {
    for (EntryId j : b.live_ids()) {
      LRPDB_RETURN_IF_ERROR(PollExec(exec));
      std::optional<GeneralizedTuple> t = IntersectTuples(a.tuple(i),
                                                          b.tuple(j));
      if (!t.has_value()) continue;
      LRPDB_RETURN_IF_ERROR(out.Insert(*t).status());
    }
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<GeneralizedRelation> Union(const GeneralizedRelation& a,
                                    const GeneralizedRelation& b) {
  if (!(a.schema() == b.schema())) {
    return InvalidArgumentError("gdb.union: schema mismatch");
  }
  LRPDB_OPERATOR_SCOPE(op, "gdb.union", a.size() + b.size());
  LRPDB_FAILPOINT("algebra.union");
  ExecContext* exec = ExecContext::Current();
  GeneralizedRelation out(a.schema());
  for (EntryId i : a.live_ids()) {
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    LRPDB_RETURN_IF_ERROR(out.Insert(a.tuple(i)).status());
  }
  for (EntryId i : b.live_ids()) {
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    LRPDB_RETURN_IF_ERROR(out.Insert(b.tuple(i)).status());
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<GeneralizedRelation> Difference(const GeneralizedRelation& a,
                                         const GeneralizedRelation& b) {
  if (!(a.schema() == b.schema())) {
    return InvalidArgumentError("gdb.difference: schema mismatch");
  }
  LRPDB_OPERATOR_SCOPE(op, "gdb.difference", a.size() + b.size());
  LRPDB_FAILPOINT("algebra.difference");
  ExecContext* exec = ExecContext::Current();
  // An a-tuple loses only the b-tuples with its data constants: b's pieces,
  // normalized once, grouped by data vector in entry order.
  std::map<std::vector<DataValue>, std::vector<NormalizedTuple>> subtrahends;
  for (EntryId j : b.live_ids()) {
    LRPDB_RETURN_IF_ERROR(AppendNormalized(
        b.tuple(j), &subtrahends[b.tuple(j).data().ToVector()]));
  }
  const std::vector<NormalizedTuple> none;
  GeneralizedRelation out(a.schema());
  for (EntryId i : a.live_ids()) {
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    const auto group = subtrahends.find(a.tuple(i).data().ToVector());
    LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> a_pieces,
                           NormalizedTuple::Normalize(a.tuple(i)));
    LRPDB_ASSIGN_OR_RETURN(
        std::vector<NormalizedTuple> remainder,
        SubtractPieces(a_pieces,
                       group == subtrahends.end() ? none : group->second));
    std::vector<GeneralizedTuple> tuples;
    tuples.reserve(remainder.size());
    for (const NormalizedTuple& piece : remainder) {
      tuples.push_back(piece.ToGeneralizedTuple());
    }
    LRPDB_ASSIGN_OR_RETURN(tuples, CoalesceTuples(std::move(tuples)));
    for (const GeneralizedTuple& t : tuples) {
      LRPDB_RETURN_IF_ERROR(out.Insert(t).status());
    }
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<GeneralizedRelation> CartesianProduct(const GeneralizedRelation& a,
                                               const GeneralizedRelation& b) {
  LRPDB_OPERATOR_SCOPE(op, "gdb.product", a.size() + b.size());
  LRPDB_FAILPOINT("algebra.product");
  ExecContext* exec = ExecContext::Current();
  RelationSchema schema{
      a.schema().temporal_arity + b.schema().temporal_arity,
      a.schema().data_arity + b.schema().data_arity};
  GeneralizedRelation out(schema);
  for (EntryId i : a.live_ids()) {
    for (EntryId j : b.live_ids()) {
      LRPDB_RETURN_IF_ERROR(PollExec(exec));
      const TupleView ta = a.tuple(i);
      const TupleView tb = b.tuple(j);
      std::vector<Lrp> lrps = ta.lrps().ToVector();
      lrps.insert(lrps.end(), tb.lrps().begin(), tb.lrps().end());
      std::vector<DataValue> data = ta.data().ToVector();
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
      out.InsertUnlessEmpty(GeneralizedTuple(
          std::move(lrps), std::move(data), std::move(constraint)));
    }
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<GeneralizedRelation> JoinOnEqualities(
    const GeneralizedRelation& a, const GeneralizedRelation& b,
    const std::vector<TemporalEquality>& temporal_eqs,
    const std::vector<std::pair<int, int>>& data_eqs) {
  LRPDB_OPERATOR_SCOPE(op, "gdb.join", a.size() + b.size());
  LRPDB_TRACE_SPAN(span, "gdb.join");
  LRPDB_FAILPOINT("algebra.join");
  ExecContext* exec = ExecContext::Current();
  LRPDB_ASSIGN_OR_RETURN(GeneralizedRelation product,
                         CartesianProduct(a, b));
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
  for (EntryId i : product.live_ids()) {
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    const TupleView t = product.tuple(i);
    bool data_ok = true;
    for (const auto& [da, db] : data_eqs) {
      if (t.data()[da] != t.data()[a.schema().data_arity + db]) {
        data_ok = false;
        break;
      }
    }
    if (!data_ok) continue;
    GeneralizedTuple joined = t.ToTuple();
    joined.mutable_constraint().And(condition);
    out.InsertUnlessEmpty(joined);
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<GeneralizedRelation> SelectConstraint(const GeneralizedRelation& r,
                                               const Dbm& constraint) {
  if (constraint.num_vars() != r.schema().temporal_arity) {
    return InvalidArgumentError(
        "gdb.select: constraint arity does not match schema");
  }
  LRPDB_OPERATOR_SCOPE(op, "gdb.select", r.size());
  LRPDB_FAILPOINT("algebra.select");
  ExecContext* exec = ExecContext::Current();
  GeneralizedRelation out(r.schema());
  for (EntryId i : r.live_ids()) {
    const TupleView t = r.tuple(i);
    Dbm conjoined = t.constraint();
    conjoined.And(constraint);
    if (!conjoined.IsSatisfiable()) continue;
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    out.InsertUnlessEmpty(GeneralizedTuple(
        t.lrps().ToVector(), t.data().ToVector(), std::move(conjoined)));
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<GeneralizedRelation> Project(const GeneralizedRelation& r,
                                      const std::vector<int>& temporal_columns,
                                      const std::vector<int>& data_positions) {
  LRPDB_OPERATOR_SCOPE(op, "gdb.project", r.size());
  LRPDB_TRACE_SPAN(span, "gdb.project");
  LRPDB_FAILPOINT("algebra.project");
  ExecContext* exec = ExecContext::Current();
  RelationSchema schema{static_cast<int>(temporal_columns.size()),
                        static_cast<int>(data_positions.size())};
  GeneralizedRelation out(schema);
  int m = r.schema().temporal_arity;
  std::vector<bool> kept(m, false);
  for (int c : temporal_columns) {
    if (c < 0 || c >= m) {
      return InvalidArgumentError("gdb.project: temporal column out of range");
    }
    kept[c] = true;
  }
  for (EntryId i : r.live_ids()) {
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    const TupleView tuple = r.tuple(i);
    std::vector<DataValue> data;
    data.reserve(data_positions.size());
    for (int c : data_positions) data.push_back(tuple.data()[c]);

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
      out.InsertUnlessEmpty(
          GeneralizedTuple(std::move(lrps), data, closed.Project(dbm_keep)));
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
    GeneralizedTuple reduced(std::move(lrps), tuple.data().ToVector(),
                             closed.Project(dbm_keep));
    LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> pieces,
                           NormalizedTuple::Normalize(reduced));
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
                           CoalesceTuples(std::move(projected_tuples)));
    for (const GeneralizedTuple& t : projected_tuples) {
      out.InsertUnlessEmpty(t);
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
  // Exactly the posting's entries match (ascending, so output order is
  // entry order); tombstoned entries were pruned from it.
  for (EntryId id : r.PostingFor(column, value)) {
    out.InsertUnlessEmpty(r.tuple(id));
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
  for (EntryId id : r.live_ids()) {
    const TupleView t = r.tuple(id);
    if (t.data()[i] != t.data()[j]) continue;
    out.InsertUnlessEmpty(t);
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<GeneralizedRelation> ShiftColumn(const GeneralizedRelation& r,
                                          int column, int64_t c) {
  LRPDB_OPERATOR_SCOPE(op, "gdb.shift", r.size());
  LRPDB_FAILPOINT("algebra.shift");
  ExecContext* exec = ExecContext::Current();
  GeneralizedRelation out(r.schema());
  for (EntryId i : r.live_ids()) {
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    out.InsertUnlessEmpty(r.tuple(i).ToTuple().WithColumnShifted(column, c));
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

[[nodiscard]] StatusOr<std::vector<std::vector<DataValue>>> DataUniverse(
    const std::vector<DataValue>& domain, int arity) {
  LRPDB_FAILPOINT("algebra.data_universe");
  constexpr int64_t kMaxRows = 65536;
  std::vector<std::vector<DataValue>> rows;
  if (arity == 0) {
    rows.push_back({});
    return rows;
  }
  int64_t count = 1;
  for (int i = 0; i < arity; ++i) {
    count *= static_cast<int64_t>(domain.size());
    if (count > kMaxRows) {
      return ResourceExhaustedError(
          "data universe for negation exceeds the row budget");
    }
  }
  std::vector<size_t> index(arity, 0);
  if (domain.empty()) return rows;
  ExecContext* exec = ExecContext::Current();
  while (true) {
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    std::vector<DataValue> row(arity);
    for (int i = 0; i < arity; ++i) row[i] = domain[index[i]];
    rows.push_back(std::move(row));
    int pos = arity;
    bool done = false;
    while (pos > 0) {
      --pos;
      if (++index[pos] < domain.size()) break;
      index[pos] = 0;
      done = pos == 0;
    }
    if (done) break;
  }
  return rows;
}

[[nodiscard]] StatusOr<GeneralizedRelation> Complement(
    const GeneralizedRelation& r,
    const std::vector<std::vector<DataValue>>& data_universe) {
  LRPDB_OPERATOR_SCOPE(op, "gdb.complement",
                       r.size() + data_universe.size());
  LRPDB_TRACE_SPAN(span, "gdb.complement");
  LRPDB_FAILPOINT("algebra.complement");
  ExecContext* exec = ExecContext::Current();
  GeneralizedRelation out(r.schema());
  int m = r.schema().temporal_arity;
  for (const std::vector<DataValue>& data : data_universe) {
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    if (static_cast<int>(data.size()) != r.schema().data_arity) {
      return InvalidArgumentError(
          "gdb.complement: universe row arity does not match schema");
    }
    // Universe piece for this data row: all time vectors.
    std::vector<Lrp> all(m, Lrp());
    GeneralizedTuple universe =
        GeneralizedTuple::Unconstrained(std::move(all), data);
    LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> universe_pieces,
                           NormalizedTuple::Normalize(universe));
    std::vector<NormalizedTuple> subtrahend;
    for (EntryId i : r.live_ids()) {
      if (r.tuple(i).data() != data) continue;
      LRPDB_RETURN_IF_ERROR(AppendNormalized(r.tuple(i), &subtrahend));
    }
    LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> remainder,
                           SubtractPieces(universe_pieces, subtrahend));
    std::vector<GeneralizedTuple> tuples;
    tuples.reserve(remainder.size());
    for (const NormalizedTuple& piece : remainder) {
      tuples.push_back(piece.ToGeneralizedTuple());
    }
    LRPDB_ASSIGN_OR_RETURN(tuples, CoalesceTuples(std::move(tuples)));
    for (const GeneralizedTuple& t : tuples) {
      out.InsertUnlessEmpty(t);
    }
  }
  op.set_output(static_cast<int64_t>(out.size()));
  return out;
}

namespace {

// Hashes and compares tuples on everything CoalesceTuples groups by in column
// j: every column's period, every offset outside column j, and the data.
struct MaskedColumnKey {
  int j = 0;
  size_t operator()(const TupleView& t) const {
    size_t h = 0;
    for (int c = 0; c < t.temporal_arity(); ++c) {
      h = HashCombine(h, static_cast<size_t>(t.lrp(c).period()));
      if (c != j) h = HashCombine(h, static_cast<size_t>(t.lrp(c).offset()));
    }
    for (DataValue d : t.data()) h = HashCombine(h, static_cast<size_t>(d));
    return h;
  }
  bool operator()(const TupleView& a, const TupleView& b) const {
    if (a.data() != b.data()) return false;
    for (int c = 0; c < a.temporal_arity(); ++c) {
      if (a.lrp(c).period() != b.lrp(c).period()) return false;
      if (c != j && a.lrp(c).offset() != b.lrp(c).offset()) return false;
    }
    return true;
  }
};

// Entrywise-loosest DBM of a set (the tightest common relaxation): the
// entrywise max over the members' closed matrices.
Dbm LoosestDbm(const std::vector<const Dbm*>& closed) {
  Dbm result(closed.front()->num_vars());
  for (int i = 0; i <= result.num_vars(); ++i) {
    for (int k = 0; k <= result.num_vars(); ++k) {
      if (i == k) continue;
      Bound max_bound = Bound::Finite(INT64_MIN / 4);
      bool infinite = false;
      for (const Dbm* dbm : closed) {
        Bound b = dbm->bound(i, k);
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

// One merged residue class: the coarser tuple and the group positions of
// the members it replaces.
struct ClassMerge {
  GeneralizedTuple tuple;
  std::vector<size_t> members;
};

// Attempts to merge `group` (equal except for column j's offset, with the
// same period p > 1 there) into tuples with a coarser period p/k in column
// j. A class of period p/k needs k members, so only k up to the group size
// can fill one; the coarser periods are tried coarsest first, and the first
// that merges any class wins. Appends one ClassMerge per merged class.
[[nodiscard]] Status TryCoalesceColumn(
    const std::vector<TupleView>& group, int j,
    std::vector<ClassMerge>* merges) {
  const int64_t p = group.front().lrp(j).period();
  const size_t n = group.size();
  // Require pairwise distinct offsets in column j; duplicates mean the
  // tuples differ only in constraints and cannot tile a coarser class.
  {
    std::vector<int64_t> offsets;
    offsets.reserve(n);
    for (const TupleView& t : group) offsets.push_back(t.lrp(j).offset());
    std::sort(offsets.begin(), offsets.end());
    if (std::adjacent_find(offsets.begin(), offsets.end()) != offsets.end()) {
      return OkStatus();
    }
  }
  // Each member's closed DBM and residue pieces, computed on first use and
  // shared by every class and divisor the member is tried in.
  std::vector<std::optional<Dbm>> closed(n);
  std::vector<std::optional<std::vector<NormalizedTuple>>> pieces(n);
  // (residue, member) pairs, sorted so each class is one run.
  std::vector<std::pair<int64_t, size_t>> classes(n);
  const size_t merges_before = merges->size();
  ExecContext* exec = ExecContext::Current();
  for (int64_t k = std::min(static_cast<int64_t>(n), p); k >= 2; --k) {
    if (p % k != 0) continue;
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    const int64_t coarse = p / k;
    for (size_t i = 0; i < n; ++i) {
      classes[i] = {FloorMod(group[i].lrp(j).offset(), coarse), i};
    }
    std::sort(classes.begin(), classes.end());
    for (size_t lo = 0; lo < n;) {
      size_t hi = lo + 1;
      while (hi < n && classes[hi].first == classes[lo].first) ++hi;
      // Offsets are distinct residues mod p, so a class holds at most k.
      if (static_cast<int64_t>(hi - lo) != k) {
        lo = hi;
        continue;
      }
      std::vector<size_t> members;
      std::vector<const Dbm*> member_dbms;
      std::vector<NormalizedTuple> member_pieces;
      for (size_t c = lo; c < hi; ++c) {
        const size_t i = classes[c].second;
        if (!closed[i].has_value()) {
          closed[i] = Dbm(group[i].constraint());
          closed[i]->Close();
        }
        if (!pieces[i].has_value()) {
          LRPDB_ASSIGN_OR_RETURN(pieces[i],
                                 NormalizedTuple::Normalize(group[i]));
        }
        members.push_back(i);
        member_dbms.push_back(&*closed[i]);
        member_pieces.insert(member_pieces.end(), pieces[i]->begin(),
                             pieces[i]->end());
      }
      // Candidate: column j coarsened, constraint = loosest common DBM.
      const TupleView first = group[members.front()];
      std::vector<Lrp> lrps = first.lrps().ToVector();
      lrps[j] = Lrp(coarse, classes[lo].first);
      GeneralizedTuple candidate(std::move(lrps), first.data().ToVector(),
                                 LoosestDbm(member_dbms));
      LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> cand_pieces,
                             NormalizedTuple::Normalize(candidate));
      // candidate >= union holds by construction (loosest DBM, covering
      // offsets), so one direction decides equality.
      LRPDB_ASSIGN_OR_RETURN(
          bool exact, PiecesContainedIn(cand_pieces, member_pieces));
      if (exact) {
        merges->push_back(ClassMerge{std::move(candidate), std::move(members)});
      }
      lo = hi;
    }
    if (merges->size() > merges_before) return OkStatus();
  }
  return OkStatus();
}

}  // namespace

[[nodiscard]] StatusOr<std::vector<GeneralizedTuple>> CoalesceTuples(
    std::vector<GeneralizedTuple> tuples) {
  if (tuples.empty()) return tuples;
  LRPDB_OPERATOR_SCOPE(op, "gdb.coalesce", tuples.size());
  LRPDB_FAILPOINT("algebra.coalesce");
  ExecContext* exec = ExecContext::Current();
  // The working set: inputs and the tuples earlier passes merged, the
  // latter owned by `pool` (a deque, so the views of its items survive growth).
  struct Item {
    TupleView tuple;
    size_t source;  // Input position, or pool index when `pooled`.
    bool pooled;
  };
  std::vector<Item> items;
  items.reserve(tuples.size());
  for (size_t i = 0; i < tuples.size(); ++i) {
    items.push_back(Item{tuples[i].view(), i, false});
  }
  std::deque<GeneralizedTuple> pool;
  std::vector<bool> consumed(tuples.size(), false);
  const int m = tuples.front().temporal_arity();
  constexpr uint32_t kNoGroup = UINT32_MAX;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int j = 0; j < m; ++j) {
      // Groups in first-seen order. A tuple with period 1 in column j has
      // nothing coarser to merge into, and a group of one has no partner:
      // neither is gathered.
      MaskedColumnKey key{j};
      std::unordered_map<TupleView, uint32_t, MaskedColumnKey, MaskedColumnKey>
          group_of(items.size(), key, key);
      std::vector<uint32_t> item_group(items.size(), kNoGroup);
      std::vector<uint32_t> group_size;
      for (size_t i = 0; i < items.size(); ++i) {
        const TupleView& t = items[i].tuple;
        if (t.lrp(j).period() == 1) continue;
        auto [it, inserted] = group_of.try_emplace(
            t, static_cast<uint32_t>(group_size.size()));
        if (inserted) group_size.push_back(0);
        ++group_size[it->second];
        item_group[i] = it->second;
      }
      std::vector<std::vector<size_t>> members(group_size.size());
      for (size_t i = 0; i < items.size(); ++i) {
        const uint32_t g = item_group[i];
        if (g != kNoGroup && group_size[g] >= 2) members[g].push_back(i);
      }
      std::vector<bool> folded;
      std::vector<TupleView> group;
      std::vector<ClassMerge> merges;
      std::vector<Item> added;
      for (const std::vector<size_t>& member_items : members) {
        if (member_items.empty()) continue;
        LRPDB_RETURN_IF_ERROR(PollExec(exec));
        group.clear();
        for (size_t i : member_items) group.push_back(items[i].tuple);
        merges.clear();
        LRPDB_RETURN_IF_ERROR(TryCoalesceColumn(group, j, &merges));
        if (merges.empty()) continue;
        if (folded.empty()) folded.assign(items.size(), false);
        for (ClassMerge& merge : merges) {
          for (size_t member : merge.members) {
            const Item& item = items[member_items[member]];
            folded[member_items[member]] = true;
            if (!item.pooled) consumed[item.source] = true;
          }
          pool.push_back(std::move(merge.tuple));
          added.push_back(Item{pool.back().view(), pool.size() - 1, true});
        }
      }
      if (added.empty()) continue;
      changed = true;
      // Survivors keep their order; this pass's merges follow them.
      size_t kept = 0;
      for (size_t i = 0; i < items.size(); ++i) {
        if (!folded[i]) items[kept++] = items[i];
      }
      items.erase(items.begin() + static_cast<std::ptrdiff_t>(kept),
                  items.end());
      items.insert(items.end(), added.begin(), added.end());
    }
  }
  // The views die here: the unconsumed inputs move down in input order,
  // and the final merged tuples follow them.
  size_t kept = 0;
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (consumed[i]) continue;
    if (kept != i) tuples[kept] = std::move(tuples[i]);
    ++kept;
  }
  tuples.erase(tuples.begin() + static_cast<std::ptrdiff_t>(kept),
               tuples.end());
  for (const Item& item : items) {
    if (item.pooled) tuples.push_back(std::move(pool[item.source]));
  }
  op.set_output(static_cast<int64_t>(tuples.size()));
  return tuples;
}

[[nodiscard]] StatusOr<bool> SameGroundSet(const GeneralizedRelation& a,
                             const GeneralizedRelation& b) {
  if (!(a.schema() == b.schema())) {
    return InvalidArgumentError("gdb.same_ground_set: schema mismatch");
  }
  LRPDB_OPERATOR_SCOPE(op, "gdb.same_ground_set", a.size() + b.size());
  LRPDB_FAILPOINT("algebra.same_ground_set");
  // Compare per data vector: pieces grouped by data inside SubtractPieces
  // already, so a direct two-way containment suffices.
  std::vector<NormalizedTuple> pa;
  for (EntryId i : a.live_ids()) {
    LRPDB_RETURN_IF_ERROR(AppendNormalized(a.tuple(i), &pa));
  }
  std::vector<NormalizedTuple> pb;
  for (EntryId i : b.live_ids()) {
    LRPDB_RETURN_IF_ERROR(AppendNormalized(b.tuple(i), &pb));
  }
  LRPDB_ASSIGN_OR_RETURN(bool ab, PiecesContainedIn(pa, pb));
  if (!ab) return false;
  return PiecesContainedIn(pb, pa);
}

}  // namespace lrpdb
