#include "src/gdb/tuple_store.h"

#include <algorithm>
#include <iterator>

#include "src/common/exec_context.h"
#include "src/common/failpoint.h"
#include "src/obs/metrics.h"

namespace lrpdb {
namespace {

// The size of the C heap block behind an allocation of `n` bytes: glibc
// adds an 8-byte header, rounds to 16 and never hands out less than 32.
int64_t HeapBytes(size_t n) {
  if (n == 0) return 0;
  const size_t block = (n + 8 + 15) & ~size_t{15};
  return std::max<int64_t>(32, static_cast<int64_t>(block));
}

// One posting-map node: the next pointer and the (value, list) pair.
constexpr size_t kPostingNodeBytes =
    sizeof(void*) + sizeof(std::pair<const DataValue, std::vector<EntryId>>);

// What a block's HeapBytes grew by when it went from `before` to `after`
// bytes.
int64_t Growth(size_t before, size_t after) {
  return before == after ? 0 : HeapBytes(after) - HeapBytes(before);
}

// Appends `id` to `list`, adding any growth of its block to `*bytes`.
void PushTracked(std::vector<EntryId>* list, EntryId id, int64_t* bytes) {
  const size_t before = list->capacity();
  list->push_back(id);
  *bytes +=
      Growth(before * sizeof(EntryId), list->capacity() * sizeof(EntryId));
}

// Appends `n` values to `arena`, adding any growth of its block to
// `*bytes`.
template <typename T>
void AppendTracked(FlatArena<T>* arena, const T* src, size_t n,
                   int64_t* bytes) {
  const size_t before = arena->allocated_bytes();
  arena->Append(src, n);
  *bytes += Growth(before, arena->allocated_bytes());
}

// The bytes footprint() charges for one posting map's bucket array: a map
// with one bucket keeps it inline.
int64_t BucketArrayBytes(size_t bucket_count) {
  return bucket_count > 1 ? HeapBytes(bucket_count * sizeof(void*)) : 0;
}

// The signature hash runs over the key words in arena order (period and
// offset per lrp, then the data values), so a probe hashes a candidate's
// columns and a rehash hashes the stored key to the same value.
uint64_t MixKeyWord(uint64_t h, int64_t word) {
  return HashCombine(h, static_cast<size_t>(word));
}

// Finalizer (MurmurHash3 fmix64): the table takes the low bits for the
// slot and the high bits for the tag, so every bit must be mixed.
uint64_t FinishKeyHash(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

// Rewrites an ascending id list through a monotone remap, dropping erased
// ids.
void RewriteIds(const std::vector<EntryId>& remap, std::vector<EntryId>* list) {
  size_t out = 0;
  for (EntryId id : *list) {
    if (remap[id] != kErasedEntry) (*list)[out++] = remap[id];
  }
  list->resize(out);
}

}  // namespace

TupleStore::TupleStore(RelationSchema schema)
    : schema_(schema), data_index_(schema.data_arity) {}

TupleStore::TupleStore(TupleStore&& other) noexcept
    : schema_(other.schema_),
      lrps_(std::move(other.lrps_)),
      data_(std::move(other.data_)),
      bounds_(std::move(other.bounds_)),
      live_(std::move(other.live_)),
      tombstones_(other.tombstones_),
      piece_ranges_(std::move(other.piece_ranges_)),
      piece_classes_(std::move(other.piece_classes_)),
      piece_bounds_(std::move(other.piece_bounds_)),
      signature_keys_(std::move(other.signature_keys_)),
      buckets_(std::move(other.buckets_)),
      spills_(std::move(other.spills_)),
      slots_(std::move(other.slots_)),
      data_index_(std::move(other.data_index_)),
      posting_bytes_(other.posting_bytes_),
      spill_bytes_(other.spill_bytes_),
      delta_lo_(other.delta_lo_),
      delta_hi_(other.delta_hi_) {
  approx_bytes_.store(other.approx_bytes_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
}

TupleStore& TupleStore::operator=(TupleStore&& other) noexcept {
  if (this == &other) return *this;
  schema_ = other.schema_;
  lrps_ = std::move(other.lrps_);
  data_ = std::move(other.data_);
  bounds_ = std::move(other.bounds_);
  live_ = std::move(other.live_);
  tombstones_ = other.tombstones_;
  piece_ranges_ = std::move(other.piece_ranges_);
  piece_classes_ = std::move(other.piece_classes_);
  piece_bounds_ = std::move(other.piece_bounds_);
  signature_keys_ = std::move(other.signature_keys_);
  buckets_ = std::move(other.buckets_);
  spills_ = std::move(other.spills_);
  slots_ = std::move(other.slots_);
  data_index_ = std::move(other.data_index_);
  posting_bytes_ = other.posting_bytes_;
  spill_bytes_ = other.spill_bytes_;
  delta_lo_ = other.delta_lo_;
  delta_hi_ = other.delta_hi_;
  approx_bytes_.store(other.approx_bytes_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  return *this;
}

// --- Signature table ---

uint64_t TupleStore::HashSignature(ColumnSpan<Lrp> lrps,
                                   ColumnSpan<DataValue> data) {
  uint64_t h = 0;
  for (const Lrp& l : lrps) {
    h = MixKeyWord(h, l.period());
    h = MixKeyWord(h, l.offset());
  }
  for (DataValue d : data) h = MixKeyWord(h, d);
  return FinishKeyHash(h);
}

bool TupleStore::KeyEquals(SignatureId id, ColumnSpan<Lrp> lrps,
                           ColumnSpan<DataValue> data) const {
  const int64_t* key = signature_keys_.data() + size_t{id} * KeyStride();
  for (const Lrp& l : lrps) {
    if (key[0] != l.period() || key[1] != l.offset()) return false;
    key += 2;
  }
  for (DataValue d : data) {
    if (*key++ != d) return false;
  }
  return true;
}

SignatureId TupleStore::FindSignature(ColumnSpan<Lrp> lrps,
                                      ColumnSpan<DataValue> data,
                                      uint64_t hash) const {
  if (slots_.empty()) return kNoSignature;
  const size_t mask = slots_.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(hash >> 32);
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const Slot& slot = slots_[i];
    if (slot.id == kNoSignature) return kNoSignature;
    if (slot.tag == tag && KeyEquals(slot.id, lrps, data)) return slot.id;
  }
}

SignatureId TupleStore::InternSignature(ColumnSpan<Lrp> lrps,
                                        ColumnSpan<DataValue> data,
                                        uint64_t hash, bool* created,
                                        int64_t* grown) {
  SignatureId found = FindSignature(lrps, data, hash);
  *created = found == kNoSignature;
  if (!*created) return found;
  if ((buckets_.size() + 1) * 4 > slots_.size() * 3) {
    const size_t before = slots_.capacity() * sizeof(Slot);
    GrowTable();
    *grown += Growth(before, slots_.capacity() * sizeof(Slot));
  }
  const SignatureId id = static_cast<SignatureId>(buckets_.size());
  for (const Lrp& l : lrps) {
    const int64_t words[2] = {l.period(), l.offset()};
    AppendTracked(&signature_keys_, words, 2, grown);
  }
  for (DataValue d : data) {
    const int64_t word = d;
    AppendTracked(&signature_keys_, &word, 1, grown);
  }
  const Bucket empty;
  AppendTracked(&buckets_, &empty, 1, grown);
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i].id != kNoSignature) i = (i + 1) & mask;
  slots_[i] = Slot{static_cast<uint32_t>(hash >> 32), id};
  return id;
}

void TupleStore::GrowTable() {
  std::vector<Slot> grown(slots_.empty() ? 8 : slots_.size() * 2);
  const size_t mask = grown.size() - 1;
  for (SignatureId id = 0; id < buckets_.size(); ++id) {
    const int64_t* key = signature_keys_.data() + size_t{id} * KeyStride();
    uint64_t hash = 0;
    for (int w = 0; w < KeyStride(); ++w) hash = MixKeyWord(hash, key[w]);
    hash = FinishKeyHash(hash);
    size_t i = hash & mask;
    while (grown[i].id != kNoSignature) i = (i + 1) & mask;
    grown[i] = Slot{static_cast<uint32_t>(hash >> 32), id};
  }
  slots_ = std::move(grown);
}

std::span<const EntryId> TupleStore::BucketEntries(SignatureId id) const {
  const Bucket& bucket = buckets_[id];
  if (bucket.spill != kNoSpill) return spills_[bucket.spill];
  if (bucket.single == kNoEntry) return {};
  return std::span<const EntryId>(&bucket.single, 1);
}

void TupleStore::AddToBucket(SignatureId id, EntryId entry, int64_t* grown) {
  Bucket& bucket = buckets_[id];
  if (bucket.spill == kNoSpill && bucket.single == kNoEntry) {
    bucket.single = entry;
    return;
  }
  if (bucket.spill == kNoSpill) {
    bucket.spill = static_cast<uint32_t>(spills_.size());
    const size_t before = spills_.capacity() * sizeof(spills_[0]);
    spills_.emplace_back();
    *grown += Growth(before, spills_.capacity() * sizeof(spills_[0]));
    PushTracked(&spills_.back(), bucket.single, &spill_bytes_);
    bucket.single = kNoEntry;
  }
  PushTracked(&spills_[bucket.spill], entry, &spill_bytes_);
}

std::vector<EntryId> TupleStore::EntriesWithSignature(
    const FreeExtension& signature) const {
  SignatureId id = FindSignature(signature.lrps, signature.data,
                                 HashSignature(signature.lrps, signature.data));
  if (id == kNoSignature) return {};
  std::span<const EntryId> entries = BucketEntries(id);
  return std::vector<EntryId>(entries.begin(), entries.end());
}

// --- Pieces ---

TupleStore::PieceRange TupleStore::StorePieces(
    const std::vector<NormalizedTuple>& pieces) const {
  PieceRange range;
  range.first =
      static_cast<uint32_t>(piece_classes_.size() / PieceClassStride());
  range.count = static_cast<uint32_t>(pieces.size());
  int64_t grown = 0;
  for (const NormalizedTuple& piece : pieces) {
    const int64_t period = piece.common_period();
    AppendTracked(&piece_classes_, &period, 1, &grown);
    AppendTracked(&piece_classes_, piece.residues().data(),
                  piece.residues().size(), &grown);
    AppendTracked(&piece_bounds_, piece.quotient().view().bounds(),
                  BoundsStride(), &grown);
  }
  AddBytes(grown);
  return range;
}

[[nodiscard]] Status TupleStore::AppendPieces(
    EntryId id, std::vector<NormalizedTuple>* out) const {
  LRPDB_FAILPOINT("tuple_store.pieces");
  PieceRange& range = piece_ranges_[id];
  if (range.count == kUnfilled) {
    LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> pieces,
                           NormalizedTuple::Normalize(tuple(id)));
    range = StorePieces(pieces);
    out->insert(out->end(), std::make_move_iterator(pieces.begin()),
                std::make_move_iterator(pieces.end()));
    return OkStatus();
  }
  const int m = schema_.temporal_arity;
  const std::vector<DataValue> data = tuple(id).data().ToVector();
  for (uint32_t p = range.first; p < range.first + range.count; ++p) {
    const int64_t* cls = piece_classes_.data() + size_t{p} * PieceClassStride();
    out->emplace_back(
        cls[0], std::vector<int64_t>(cls + 1, cls + 1 + m), data,
        Dbm(DbmView(m, piece_bounds_.data() + size_t{p} * BoundsStride())));
  }
  return OkStatus();
}

// --- Appends ---

[[nodiscard]] StatusOr<InsertOutcome> TupleStore::Insert(
    TupleView tuple, StoreStats* stats) {
  LRPDB_FAILPOINT("tuple_store.insert");
  if (tuple.temporal_arity() != schema_.temporal_arity ||
      tuple.data_arity() != schema_.data_arity) {
    return InvalidArgumentError("tuple arity does not match store schema");
  }
  ExecContext* exec = ExecContext::Current();
  LRPDB_RETURN_IF_ERROR(PollExec(exec));
  // The candidate's DBM, closed once in the store's scratch DBM: for its
  // normalization and for the single-entry containment test below. The
  // row is appended with its bounds as given, never closed.
  candidate_closure_.Assign(tuple.constraint());
  candidate_closure_.Close();
  LRPDB_ASSIGN_OR_RETURN(
      std::vector<NormalizedTuple> candidate,
      NormalizedTuple::Normalize(tuple.lrps(), tuple.data(),
                                 candidate_closure_));
  // Counts into the caller's stats, or nowhere.
  StoreStats uncounted;
  StoreStats& counts = stats != nullptr ? *stats : uncounted;
  if (candidate.empty()) {  // Empty ground set.
    ++counts.empty_dropped;
    return InsertOutcome{};
  }
  // The budget is charged what this insert grew the store by: the appended
  // row and index entries, and any bucket pieces filled lazily for the
  // containment test below.
  const int64_t bytes_before = approx_bytes();
  auto charge_growth = [&] {
    if (exec == nullptr) return;
    exec->ChargeBytes(std::max<int64_t>(approx_bytes() - bytes_before, 0));
    LRPDB_GAUGE_SET("exec.budget_bytes", exec->bytes_charged());
  };
  // Same-signature entries: one bucket probe.
  ++counts.signature_probes;
  const uint64_t hash = HashSignature(tuple.lrps(), tuple.data());
  const SignatureId signature =
      FindSignature(tuple.lrps(), tuple.data(), hash);
  const std::span<const EntryId> bucket =
      signature == kNoSignature ? std::span<const EntryId>()
                                : BucketEntries(signature);
  if (!bucket.empty()) {
    // Every bucket entry has the candidate's lrps and data, so a candidate
    // whose closed DBM implies one entry's DBM is contained in that entry,
    // exactly. That settles most subsumptions without touching a piece;
    // the rest take the exact test over the bucket's union. Each entry
    // compared is (m+1)^2 bound comparisons, charged like closure work.
    int64_t compared = 0;
    const bool implied =
        std::any_of(bucket.begin(), bucket.end(), [&](EntryId id) {
          ++compared;
          return candidate_closure_.Implies(this->tuple(id).constraint());
        });
    if (exec != nullptr) exec->ChargeSteps(compared * BoundsStride());
    // Owned copies of the bucket's pieces, for the containment call only;
    // the entries' piece ranges fill here on first use. Filling touches
    // the piece arenas, never the bucket the span points into.
    std::vector<NormalizedTuple> existing;
    if (!implied) {
      for (EntryId id : bucket) {
        LRPDB_RETURN_IF_ERROR(AppendPieces(id, &existing));
      }
    }
    ++counts.subsumption_checks;
    counts.subsumption_candidates += static_cast<int64_t>(bucket.size());
    bool contained = implied;
    if (!implied) {
      LRPDB_ASSIGN_OR_RETURN(contained, PiecesContainedIn(candidate, existing));
    }
    if (contained) {
      ++counts.subsumed;
      charge_growth();
      InsertOutcome outcome;
      outcome.absorbers.assign(bucket.begin(), bucket.end());
      return outcome;
    }
  }
  // Appended unnormalized: its pieces fill on first use, which most
  // entries never see.
  InsertOutcome outcome;
  outcome.inserted = true;
  outcome.id = static_cast<EntryId>(size());
  outcome.new_signature = Append(tuple, hash);
  ++counts.inserts;
  if (exec != nullptr) exec->ChargeTuples(1);
  charge_growth();
  return outcome;
}

bool TupleStore::InsertUnlessEmpty(ColumnSpan<Lrp> lrps,
                                   ColumnSpan<DataValue> data,
                                   const Dbm& constraint) {
  const int m = schema_.temporal_arity;
  const int k = schema_.data_arity;
  LRPDB_CHECK_EQ(lrps.size(), static_cast<size_t>(m));
  LRPDB_CHECK_EQ(data.size(), static_cast<size_t>(k));
  LRPDB_CHECK_EQ(constraint.num_vars(), m);
  if (!constraint.IsSatisfiable()) return false;  // Closes `constraint`.
  Append(TupleView(lrps.data(), m, data.data(), k, constraint.view().bounds()),
         HashSignature(lrps, data));
  return true;
}

[[nodiscard]] Status TupleStore::RestoreEntry(const GeneralizedTuple& tuple) {
  LRPDB_FAILPOINT("tuple_store.restore_entry");
  if (tuple.temporal_arity() != schema_.temporal_arity ||
      tuple.data_arity() != schema_.data_arity) {
    return InvalidArgumentError("restored tuple arity does not match schema");
  }
  // No filtering and no stats: the snapshot records what Append() stored,
  // so replaying it through Append() reproduces every index exactly.
  Append(tuple.view(), HashSignature(tuple.lrps(), tuple.data()));
  return OkStatus();
}

[[nodiscard]] Status TupleStore::RestoreGenerations(size_t lo, size_t hi) {
  LRPDB_FAILPOINT("tuple_store.restore_generations");
  if (lo > hi || hi > size()) {
    return InvalidArgumentError(
        "restored generation ranges out of order: lo " + std::to_string(lo) +
        ", hi " + std::to_string(hi) + ", size " + std::to_string(size()));
  }
  delta_lo_ = lo;
  delta_hi_ = hi;
  return OkStatus();
}

bool TupleStore::Append(TupleView tuple, uint64_t hash) {
  const EntryId id = static_cast<EntryId>(size());
  // approx_bytes() follows each block's growth (footprint()'s terms), so
  // an append costs no walk over the store's structures.
  int64_t grown = -(posting_bytes_ + spill_bytes_);
  bool created = false;
  const SignatureId signature =
      InternSignature(tuple.lrps(), tuple.data(), hash, &created, &grown);
  AppendTracked(&lrps_, tuple.lrps().data(), tuple.lrps().size(), &grown);
  AppendTracked(&data_, tuple.data().data(), tuple.data().size(), &grown);
  AppendTracked(&bounds_, tuple.constraint().bounds(), BoundsStride(),
                &grown);
  AppendTracked(&live_, &kLive, 1, &grown);
  const PieceRange unfilled;
  AppendTracked(&piece_ranges_, &unfilled, 1, &grown);
  AddToBucket(signature, id, &grown);
  for (int c = 0; c < schema_.data_arity; ++c) {
    auto& index = data_index_[c];
    const size_t buckets_before = index.bucket_count();
    auto [it, added] = index.try_emplace(tuple.data()[c]);
    if (added) posting_bytes_ += HeapBytes(kPostingNodeBytes);
    PushTracked(&it->second, id, &posting_bytes_);
    grown += BucketArrayBytes(index.bucket_count()) -
             BucketArrayBytes(buckets_before);
  }
  grown += posting_bytes_ + spill_bytes_;
  AddBytes(grown);
  return created;
}

TupleStore::Footprint TupleStore::footprint() const {
  Footprint f;
  f.rows = HeapBytes(lrps_.allocated_bytes()) +
           HeapBytes(data_.allocated_bytes()) +
           HeapBytes(bounds_.allocated_bytes()) +
           HeapBytes(live_.allocated_bytes()) +
           HeapBytes(piece_ranges_.allocated_bytes());
  f.pieces = HeapBytes(piece_classes_.allocated_bytes()) +
             HeapBytes(piece_bounds_.allocated_bytes());
  f.signatures = HeapBytes(signature_keys_.allocated_bytes()) +
                 HeapBytes(buckets_.allocated_bytes()) +
                 HeapBytes(spills_.capacity() * sizeof(spills_[0])) +
                 spill_bytes_ + HeapBytes(slots_.capacity() * sizeof(Slot));
  f.postings = posting_bytes_;
  for (const auto& index : data_index_) {
    f.postings += BucketArrayBytes(index.bucket_count());
  }
  return f;
}

// --- Removal ---

void TupleStore::Tombstone(EntryId id) {
  LRPDB_CHECK(id < size());
  if (!is_live(id)) return;  // Already tombstoned.
  live_[id] = kDead;
  ++tombstones_;
  // Prune the signature bucket. The bucket itself is kept even when it
  // empties: SignatureId allocation is ordinal, and the key stays interned.
  const TupleView row = tuple(id);
  Bucket& bucket = buckets_[FindSignature(
      row.lrps(), row.data(), HashSignature(row.lrps(), row.data()))];
  if (bucket.spill != kNoSpill) {
    auto& ids = spills_[bucket.spill];
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
  } else if (bucket.single == id) {
    bucket.single = kNoEntry;
  }
  // Prune every posting list; empty postings are erased so "value has no
  // entries" probes keep short-circuiting.
  for (int c = 0; c < schema_.data_arity; ++c) {
    auto posting = data_index_[c].find(row.data()[c]);
    if (posting == data_index_[c].end()) continue;
    auto& ids = posting->second;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) {
      posting_bytes_ -= HeapBytes(kPostingNodeBytes) +
                        HeapBytes(ids.capacity() * sizeof(EntryId));
      data_index_[c].erase(posting);
    }
  }
  UpdateBytes();
  LRPDB_COUNTER_INC("store.tombstones");
}

std::vector<EntryId> TupleStore::TombstoneExact(const GeneralizedTuple& tuple) {
  // Only the tuple's signature bucket can hold an exact match (its lrps and
  // data are the key), and a bucket lists its ids in ascending order.
  // Matches are collected before any is tombstoned, because Tombstone()
  // unlinks ids from the bucket.
  std::vector<EntryId> matched;
  const SignatureId signature = FindSignature(
      tuple.lrps(), tuple.data(), HashSignature(tuple.lrps(), tuple.data()));
  if (signature == kNoSignature) return matched;
  for (EntryId id : BucketEntries(signature)) {
    if (Dbm(this->tuple(id).constraint()) == tuple.constraint()) {
      matched.push_back(id);
    }
  }
  for (EntryId id : matched) Tombstone(id);
  return matched;
}

std::vector<EntryId> TupleStore::EraseEntries(
    const std::vector<EntryId>& ids) {
  const size_t m = schema_.temporal_arity;
  const size_t k = schema_.data_arity;
  const size_t b = BoundsStride();
  // remap[old id] = new id, or kErasedEntry. Monotone, so every rewritten
  // id list below stays ascending, and each survivor's row only ever moves
  // down over erased ones.
  std::vector<EntryId> remap(size());
  size_t next = 0;
  EntryId kept = 0;
  for (size_t id = 0; id < remap.size(); ++id) {
    if (next < ids.size() && ids[next] == id) {
      ++next;
      remap[id] = kErasedEntry;
      if (!is_live(static_cast<EntryId>(id))) --tombstones_;
      continue;
    }
    remap[id] = kept;
    if (kept != id) {
      lrps_.MoveDown(kept * m, id * m, m);
      data_.MoveDown(kept * k, id * k, k);
      bounds_.MoveDown(kept * b, id * b, b);
      live_[kept] = live_[id];
      piece_ranges_[kept] = piece_ranges_[id];
    }
    ++kept;
  }
  LRPDB_CHECK_EQ(next, ids.size()) << "EraseEntries ids not ascending";
  lrps_.Truncate(kept * m);
  data_.Truncate(kept * k);
  bounds_.Truncate(kept * b);
  live_.Truncate(kept);
  piece_ranges_.Truncate(kept);
  // Pieces: a lazily filled range sits wherever the arena ended at its
  // fill, so the survivors' ranges are slid down in arena order.
  std::vector<EntryId> filled;
  for (EntryId id = 0; id < kept; ++id) {
    if (piece_ranges_[id].count != kUnfilled) filled.push_back(id);
  }
  std::sort(filled.begin(), filled.end(), [this](EntryId x, EntryId y) {
    return piece_ranges_[x].first < piece_ranges_[y].first;
  });
  const size_t cs = PieceClassStride();
  size_t pieces = 0;
  for (EntryId id : filled) {
    PieceRange& range = piece_ranges_[id];
    piece_classes_.MoveDown(pieces * cs, range.first * cs, range.count * cs);
    piece_bounds_.MoveDown(pieces * b, range.first * b, range.count * b);
    range.first = static_cast<uint32_t>(pieces);
    pieces += range.count;
  }
  piece_classes_.Truncate(pieces * cs);
  piece_bounds_.Truncate(pieces * b);
  lrps_.ShrinkToFit();
  data_.ShrinkToFit();
  bounds_.ShrinkToFit();
  live_.ShrinkToFit();
  piece_ranges_.ShrinkToFit();
  piece_classes_.ShrinkToFit();
  piece_bounds_.ShrinkToFit();
  // Buckets (an emptied one is kept) and postings.
  for (size_t s = 0; s < buckets_.size(); ++s) {
    Bucket& bucket = buckets_[s];
    if (bucket.spill != kNoSpill) {
      RewriteIds(remap, &spills_[bucket.spill]);
    } else if (bucket.single != kNoEntry) {
      bucket.single = remap[bucket.single];  // kErasedEntry == kNoEntry.
    }
  }
  for (int c = 0; c < schema_.data_arity; ++c) {
    auto& index = data_index_[c];
    for (auto it = index.begin(); it != index.end();) {
      RewriteIds(remap, &it->second);
      if (!it->second.empty()) {
        ++it;
        continue;
      }
      posting_bytes_ -= HeapBytes(kPostingNodeBytes) +
                        HeapBytes(it->second.capacity() * sizeof(EntryId));
      it = index.erase(it);
    }
  }
  // Generation bounds count the survivors below them.
  auto shrink = [&remap](size_t bound) {
    size_t survivors = 0;
    for (size_t id = 0; id < bound; ++id) {
      survivors += remap[id] != kErasedEntry;
    }
    return survivors;
  };
  delta_lo_ = shrink(delta_lo_);
  delta_hi_ = shrink(delta_hi_);
  UpdateBytes();
  return remap;
}

// --- Checks and dumps ---

[[nodiscard]] Status TupleStore::CheckConsistency() const {
  LRPDB_FAILPOINT("tuple_store.check_consistency");
  const size_t n = size();
  if (delta_lo_ > delta_hi_ || delta_hi_ > n) {
    return InternalError("generation ranges out of order");
  }
  if (data_index_.size() != static_cast<size_t>(schema_.data_arity)) {
    return InternalError("data index arity mismatch");
  }
  if (lrps_.size() != n * schema_.temporal_arity ||
      data_.size() != n * schema_.data_arity ||
      bounds_.size() != n * BoundsStride() || piece_ranges_.size() != n) {
    return InternalError("row arena length mismatch");
  }
  size_t dead = 0;
  for (size_t id = 0; id < n; ++id) {
    if (live_[id] != kLive) ++dead;
  }
  if (dead != tombstones_) {
    return InternalError("tombstone count disagrees with liveness vector");
  }
  const size_t num_pieces = piece_classes_.size() / PieceClassStride();
  if (piece_bounds_.size() != num_pieces * BoundsStride()) {
    return InternalError("piece arena length mismatch");
  }
  for (size_t id = 0; id < n; ++id) {
    const PieceRange& range = piece_ranges_[id];
    if (range.count != kUnfilled &&
        size_t{range.first} + range.count > num_pieces) {
      return InternalError("piece range out of bounds");
    }
  }
  const size_t live_entries = n - tombstones_;
  // Signature buckets partition the *live* entries and match their keys,
  // visited in ascending SignatureId order, so when several corruptions
  // exist the one reported is the same on every run and at any table size.
  if (signature_keys_.size() != buckets_.size() * KeyStride()) {
    return InternalError("signature key arena length mismatch");
  }
  size_t bucketed = 0;
  for (SignatureId s = 0; s < buckets_.size(); ++s) {
    const std::span<const EntryId> entries = BucketEntries(s);
    for (size_t i = 0; i < entries.size(); ++i) {
      const EntryId id = entries[i];
      if (id >= n) return InternalError("bucket id out of range");
      if (i > 0 && entries[i - 1] >= id) {
        return InternalError("bucket ids not ascending");
      }
      if (!is_live(id)) {
        return InternalError("tombstoned entry still bucketed");
      }
      const TupleView row = tuple(id);
      if (!KeyEquals(s, row.lrps(), row.data())) {
        return InternalError("entry filed under a foreign signature");
      }
      ++bucketed;
    }
  }
  if (bucketed != live_entries) {
    return InternalError("signature buckets do not partition the live entries");
  }
  // The table finds every interned key under its own id.
  size_t filed = 0;
  for (const Slot& slot : slots_) filed += slot.id != kNoSignature;
  if (filed != buckets_.size()) {
    return InternalError("signature table size mismatch");
  }
  for (SignatureId s = 0; s < buckets_.size(); ++s) {
    const int m = schema_.temporal_arity;
    const int64_t* key = signature_keys_.data() + size_t{s} * KeyStride();
    std::vector<Lrp> lrps;
    std::vector<DataValue> data;
    for (int c = 0; c < m; ++c) lrps.emplace_back(key[2 * c], key[2 * c + 1]);
    for (int c = 0; c < schema_.data_arity; ++c) {
      data.push_back(static_cast<DataValue>(key[2 * m + c]));
    }
    if (FindSignature(lrps, data, HashSignature(lrps, data)) != s) {
      return InternalError("signature table does not find an interned key");
    }
  }
  // Postings: sorted, value-correct, and complete per column. Same
  // discipline: postings are validated in ascending DataValue order.
  for (int c = 0; c < schema_.data_arity; ++c) {
    using PostingItem = std::pair<const DataValue, std::vector<EntryId>>;
    std::vector<const PostingItem*> postings;
    postings.reserve(data_index_[c].size());
    // lint: allow(det) -- order-insensitive collection; sorted by value below.
    for (const auto& item : data_index_[c]) postings.push_back(&item);
    std::sort(postings.begin(), postings.end(),
              [](const PostingItem* a, const PostingItem* b) {
                return a->first < b->first;
              });
    size_t posted = 0;
    for (const PostingItem* item : postings) {
      const auto& [value, posting] = *item;
      if (!std::is_sorted(posting.begin(), posting.end())) {
        return InternalError("posting list not sorted");
      }
      for (EntryId id : posting) {
        if (id >= n) return InternalError("posting id out of range");
        if (!is_live(id)) {
          return InternalError("tombstoned entry still posted");
        }
        if (tuple(id).data()[c] != value) {
          return InternalError("posting value mismatch");
        }
        ++posted;
      }
    }
    if (posted != live_entries) {
      return InternalError("postings do not cover all live entries");
    }
  }
  // Last, so a corrupted index reports its own inconsistency first.
  if (approx_bytes() != footprint().total()) {
    return InternalError("approx_bytes disagrees with the footprint");
  }
  return OkStatus();
}

std::string TupleStore::ToString(const Interner* interner) const {
  std::string s;
  for (EntryId id : live_ids()) {
    s += tuple(id).ToString(interner);
    s += "\n";
  }
  return s;
}

}  // namespace lrpdb
