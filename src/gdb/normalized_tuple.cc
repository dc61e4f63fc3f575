#include "src/gdb/normalized_tuple.h"

#include <algorithm>
#include <iterator>
#include <map>

#include "src/common/exec_context.h"
#include "src/common/failpoint.h"
#include "src/common/math_util.h"

namespace lrpdb {
namespace {

// Tightest t-space DBM describing the quotient DBM within the residue class:
// ni - nj <= b  iff  ti - tj <= L*b + ri - rj.
Dbm TSpaceOf(const Dbm& quotient, int64_t period,
             const std::vector<int64_t>& residues) {
  int m = quotient.num_vars();
  quotient.IsSatisfiable();  // Forces closure for tightest bounds.
  Dbm t(m);
  auto residue_of = [&](int var) -> int64_t {
    return var == 0 ? 0 : residues[var - 1];
  };
  for (int i = 0; i <= m; ++i) {
    for (int j = 0; j <= m; ++j) {
      if (i == j) continue;
      Bound b = quotient.bound(i, j);
      if (b.is_infinite()) continue;
      t.AddDifferenceUpperBound(
          i, j, period * b.value() + residue_of(i) - residue_of(j));
    }
  }
  return t;
}

// Collects each visited piece, with data constants `data`, into `out`.
auto CollectInto(const std::vector<DataValue>& data,
                 std::vector<NormalizedTuple>* out) {
  return [&data, out](const PieceEnumerator::Piece& piece) {
    out->emplace_back(
        piece.period,
        std::vector<int64_t>(piece.residues.begin(), piece.residues.end()),
        data, piece.quotient);
  };
}

}  // namespace

[[nodiscard]] Status PieceEnumerator::Enumerate(ColumnSpan<Lrp> lrps,
                                                const Dbm& constraint,
                                                VisitFn visit, void* context) {
  LRPDB_FAILPOINT("normalize.tuple");
  int64_t period = 1;
  for (const Lrp& lrp : lrps) {
    int64_t next = Lcm(period, lrp.period());
    if (next > kMaxCommonPeriod) {
      return ResourceExhaustedError("common period exceeds limit during "
                                    "normalization");
    }
    period = next;
  }
  // Column i takes the residues of its lrp modulo L: offset, offset +
  // period, ... below L.
  columns_.resize(lrps.size());
  for (size_t i = 0; i < lrps.size(); ++i) {
    columns_[i] = {lrps[i].offset(), lrps[i].period(),
                   period / lrps[i].period()};
  }
  return Walk(constraint, period, visit, context);
}

// Anchored columns have their residue derived during the walk instead of
// multiplying the odometer, and only the free columns count against
// kMaxResiduePieces. This is exact: a residue combination violating
// ti = tj + c makes the two floored quotient bounds sum to -1 -- an
// immediate negative cycle -- so every skipped combination would have
// produced an unsatisfiable quotient anyway. Within a combination, ti - tj
// <= c holds iff ni - nj <= floor((c - ri + rj) / L).
[[nodiscard]] Status PieceEnumerator::Walk(const Dbm& t_dbm, int64_t period,
                                           VisitFn visit, void* context) {
  LRPDB_FAILPOINT("normalize.enumerate_pieces");
  const int m = static_cast<int>(columns_.size());
  closed_ = t_dbm;
  if (!closed_.IsSatisfiable()) return OkStatus();
  // Per column, the first tight equality against the zero variable or an
  // earlier column (DBM index 0 is the zero variable, j the column j-1).
  anchors_.assign(m, Anchor{});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j <= i; ++j) {
      Bound up = closed_.bound(i + 1, j);
      Bound down = closed_.bound(j, i + 1);
      if (up.is_infinite() || down.is_infinite() ||
          up.value() != -down.value()) {
        continue;
      }
      anchors_[i] = Anchor{true, j - 1, up.value()};
      break;
    }
  }
  int64_t total_pieces = 1;
  for (int i = 0; i < m; ++i) {
    if (anchors_[i].anchored) continue;
    total_pieces *= columns_[i].count;
    if (total_pieces > kMaxResiduePieces) {
      return ResourceExhaustedError("residue combination count exceeds limit "
                                    "during normalization");
    }
  }
  residues_.assign(m, 0);
  index_.assign(m, 0);
  auto residue_of = [&](int var) -> int64_t {
    return var == 0 ? 0 : residues_[var - 1];
  };
  ExecContext* exec = ExecContext::Current();
  while (true) {
    // CRT enumeration is the engine's densest loop (up to kMaxResiduePieces
    // iterations per tuple); poll so a deadline lands mid-normalization.
    LRPDB_RETURN_IF_ERROR(PollExec(exec));
    bool feasible = true;
    for (int i = 0; i < m; ++i) {
      const ResidueColumn& column = columns_[i];
      if (!anchors_[i].anchored) {
        residues_[i] = column.base + index_[i] * column.step;
        continue;
      }
      int64_t base =
          anchors_[i].column < 0 ? 0 : residues_[anchors_[i].column];
      residues_[i] = FloorMod(base + anchors_[i].offset, period);
      if (FloorMod(residues_[i] - column.base, column.step) != 0) {
        feasible = false;
        break;
      }
    }
    if (feasible) {
      quotient_.Reset(m);
      for (int i = 0; i <= m; ++i) {
        for (int j = 0; j <= m; ++j) {
          if (i == j) continue;
          Bound b = t_dbm.bound(i, j);
          if (b.is_infinite()) continue;
          quotient_.AddDifferenceUpperBound(
              i, j,
              FloorDiv(b.value() - residue_of(i) + residue_of(j), period));
        }
      }
      if (quotient_.IsSatisfiable()) {
        visit(context, Piece{period, residues_, quotient_});
      }
    }
    // Odometer increment over the free columns.
    int pos = m - 1;
    while (pos >= 0) {
      if (!anchors_[pos].anchored && ++index_[pos] < columns_[pos].count) {
        break;
      }
      index_[pos] = 0;
      --pos;
    }
    if (pos < 0 || m == 0) break;
  }
  return OkStatus();
}

NormalizedTuple::NormalizedTuple(int64_t common_period,
                                 std::vector<int64_t> residues,
                                 std::vector<DataValue> data, Dbm quotient)
    : common_period_(common_period),
      residues_(std::move(residues)),
      data_(std::move(data)),
      quotient_(std::move(quotient)) {
  LRPDB_CHECK_GT(common_period_, 0);
  LRPDB_CHECK_EQ(quotient_.num_vars(), static_cast<int>(residues_.size()));
  for (int64_t r : residues_) LRPDB_CHECK(r >= 0 && r < common_period_);
}

[[nodiscard]] StatusOr<std::vector<NormalizedTuple>> NormalizedTuple::Normalize(
    const GeneralizedTuple& tuple) {
  return Normalize(tuple.lrps(), tuple.data(), tuple.constraint());
}

[[nodiscard]] StatusOr<std::vector<NormalizedTuple>> NormalizedTuple::Normalize(
    TupleView tuple) {
  return Normalize(tuple.lrps(), tuple.data(), Dbm(tuple.constraint()));
}

[[nodiscard]] StatusOr<std::vector<NormalizedTuple>> NormalizedTuple::Normalize(
    ColumnSpan<Lrp> lrps, ColumnSpan<DataValue> data, const Dbm& constraint) {
  const std::vector<DataValue> data_values = data.ToVector();
  std::vector<NormalizedTuple> pieces;
  PieceEnumerator enumerator;
  LRPDB_RETURN_IF_ERROR(enumerator.ForEachPiece(
      lrps, constraint, CollectInto(data_values, &pieces)));
  return pieces;
}

[[nodiscard]] StatusOr<std::vector<NormalizedTuple>> NormalizedTuple::AlignTo(
    int64_t target) const {
  LRPDB_FAILPOINT("normalize.align");
  if (target <= 0 || target % common_period_ != 0) {
    return InvalidArgumentError(
        "AlignTo: target period must be a positive multiple of the common "
        "period");
  }
  if (target == common_period_) {
    return std::vector<NormalizedTuple>{*this};
  }
  // Re-express in t-space (exact) and renormalize at `target`: each column's
  // residue class mod common_period_ splits into target / common_period_
  // classes mod target.
  PieceEnumerator enumerator;
  enumerator.columns_.resize(residues_.size());
  for (size_t i = 0; i < residues_.size(); ++i) {
    enumerator.columns_[i] = {residues_[i], common_period_,
                              target / common_period_};
  }
  std::vector<NormalizedTuple> pieces;
  auto collect = CollectInto(data_, &pieces);
  LRPDB_RETURN_IF_ERROR(
      enumerator.Walk(TSpaceOf(quotient_, common_period_, residues_), target,
                      &PieceEnumerator::Call<decltype(collect)&>, &collect));
  return pieces;
}

bool NormalizedTuple::ContainsGround(const std::vector<int64_t>& times,
                                     const std::vector<DataValue>& data) const {
  if (data != data_ ||
      times.size() != residues_.size()) {
    return false;
  }
  std::vector<int64_t> quotients(times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    if (FloorMod(times[i], common_period_) != residues_[i]) return false;
    quotients[i] = FloorDiv(times[i] - residues_[i], common_period_);
  }
  return quotient_.ContainsPoint(quotients);
}

bool NormalizedTuple::ContainedIn(const NormalizedTuple& other) const {
  LRPDB_CHECK(SameClassAs(other));
  return quotient_.Implies(other.quotient_);
}

GeneralizedTuple NormalizedTuple::ToGeneralizedTuple() const {
  std::vector<Lrp> lrps;
  lrps.reserve(residues_.size());
  for (int64_t r : residues_) lrps.emplace_back(common_period_, r);
  return GeneralizedTuple(std::move(lrps), data_,
                          TSpaceOf(quotient_, common_period_, residues_));
}

NormalizedTuple NormalizedTuple::ProjectTemporal(
    const std::vector<int>& keep) const {
  std::vector<int64_t> residues;
  std::vector<int> dbm_keep;
  residues.reserve(keep.size());
  dbm_keep.reserve(keep.size());
  for (int col : keep) {
    LRPDB_CHECK(col >= 0 && col < temporal_arity());
    residues.push_back(residues_[col]);
    dbm_keep.push_back(col + 1);
  }
  return NormalizedTuple(common_period_, std::move(residues), data_,
                         quotient_.Project(dbm_keep));
}

std::string NormalizedTuple::ToString() const {
  std::string s = "L=" + std::to_string(common_period_) + " r=(";
  for (size_t i = 0; i < residues_.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(residues_[i]);
  }
  s += ") d=(";
  for (size_t i = 0; i < data_.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(data_[i]);
  }
  s += ") q: " + quotient_.ToString();
  return s;
}

namespace {

// Key grouping directly comparable pieces.
struct ClassKey {
  std::vector<int64_t> residues;
  std::vector<DataValue> data;
  friend bool operator<(const ClassKey& a, const ClassKey& b) {
    if (a.residues != b.residues) return a.residues < b.residues;
    return a.data < b.data;
  }
};

// Aligns every piece of `pieces` to `target`, appending into `out`.
[[nodiscard]] Status AlignAll(const std::vector<NormalizedTuple>& pieces, int64_t target,
                std::vector<NormalizedTuple>* out) {
  for (const NormalizedTuple& p : pieces) {
    LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> aligned,
                           p.AlignTo(target));
    out->insert(out->end(), aligned.begin(), aligned.end());
  }
  return OkStatus();
}

[[nodiscard]] StatusOr<int64_t> CommonPeriodOf(const std::vector<NormalizedTuple>& a,
                                 const std::vector<NormalizedTuple>& b) {
  LRPDB_FAILPOINT("normalize.common_period");
  int64_t period = 1;
  for (const auto* v : {&a, &b}) {
    for (const NormalizedTuple& p : *v) {
      period = Lcm(period, p.common_period());
      if (period > kMaxCommonPeriod) {
        return ResourceExhaustedError("common period exceeds limit");
      }
    }
  }
  return period;
}

}  // namespace

[[nodiscard]] StatusOr<std::vector<NormalizedTuple>> SubtractPieces(
    const std::vector<NormalizedTuple>& a,
    const std::vector<NormalizedTuple>& b) {
  if (a.empty()) return std::vector<NormalizedTuple>{};
  LRPDB_ASSIGN_OR_RETURN(int64_t period, CommonPeriodOf(a, b));
  std::vector<NormalizedTuple> a_aligned;
  std::vector<NormalizedTuple> b_aligned;
  LRPDB_RETURN_IF_ERROR(AlignAll(a, period, &a_aligned));
  LRPDB_RETURN_IF_ERROR(AlignAll(b, period, &b_aligned));

  std::map<ClassKey, std::vector<const NormalizedTuple*>> b_by_class;
  for (const NormalizedTuple& p : b_aligned) {
    b_by_class[{p.residues(), p.data()}].push_back(&p);
  }
  std::vector<NormalizedTuple> result;
  for (const NormalizedTuple& piece : a_aligned) {
    auto it = b_by_class.find({piece.residues(), piece.data()});
    if (it == b_by_class.end()) {
      result.push_back(piece);
      continue;
    }
    std::vector<Dbm> remainder{piece.quotient()};
    for (const NormalizedTuple* bp : it->second) {
      std::vector<Dbm> next;
      for (const Dbm& r : remainder) {
        std::vector<Dbm> sub = r.Subtract(bp->quotient());
        next.insert(next.end(), sub.begin(), sub.end());
      }
      remainder = std::move(next);
      if (remainder.empty()) break;
    }
    for (Dbm& r : remainder) {
      result.emplace_back(period, piece.residues(), piece.data(),
                          std::move(r));
    }
  }
  return result;
}

[[nodiscard]] Status AppendNormalized(TupleView tuple,
                                      std::vector<NormalizedTuple>* out) {
  LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> pieces,
                         NormalizedTuple::Normalize(tuple));
  out->insert(out->end(), std::make_move_iterator(pieces.begin()),
              std::make_move_iterator(pieces.end()));
  return OkStatus();
}

[[nodiscard]] StatusOr<bool> PiecesContainedIn(const std::vector<NormalizedTuple>& a,
                                 const std::vector<NormalizedTuple>& b) {
  LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> diff,
                         SubtractPieces(a, b));
  return diff.empty();
}

[[nodiscard]] StatusOr<bool> GroundSetEmpty(const GeneralizedTuple& tuple) {
  LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> pieces,
                         NormalizedTuple::Normalize(tuple));
  return pieces.empty();
}

}  // namespace lrpdb
