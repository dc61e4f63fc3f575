#include "src/gdb/tuple_store.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/common/exec_context.h"
#include "src/common/failpoint.h"
#include "src/gdb/normalized_tuple.h"
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

template <typename T>
int64_t HeapBytes(const FlatArena<T>& arena) {
  return HeapBytes(arena.allocated_bytes());
}

template <typename T>
int64_t HeapBytes(const std::vector<T>& table) {
  return HeapBytes(table.capacity() * sizeof(T));
}

// The signature hash runs over the key words in order (period and offset
// per lrp, then the data values).
uint64_t MixKeyWord(uint64_t h, int64_t word) {
  return HashCombine(h, static_cast<size_t>(word));
}

// Finalizer (MurmurHash3 fmix64): the tables take the low bits for the
// slot and the signature table the high bits for its tag, so every bit
// must be mixed.
uint64_t FinishKeyHash(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

// The smallest power-of-two table, at least 8 slots, that holds `count`
// keys at most 3/4 full; 0 for none.
size_t TableSlotsFor(size_t count) {
  if (count == 0) return 0;
  size_t slots = 8;
  while (count * 4 > slots * 3) slots *= 2;
  return slots;
}

}  // namespace

TupleStore::TupleStore(RelationSchema schema)
    : schema_(schema), postings_(schema.data_arity) {
  free_blocks_.fill(kNoBlock);
}

TupleStore::TupleStore(TupleStore&& other) noexcept
    : schema_(other.schema_),
      lrps_(std::move(other.lrps_)),
      data_(std::move(other.data_)),
      bounds_(std::move(other.bounds_)),
      live_(std::move(other.live_)),
      tombstones_(other.tombstones_),
      signatures_(std::move(other.signatures_)),
      slots_(std::move(other.slots_)),
      erased_ids_(std::move(other.erased_ids_)),
      erased_lrps_(std::move(other.erased_lrps_)),
      erased_data_(std::move(other.erased_data_)),
      postings_(std::move(other.postings_)),
      id_pool_(std::move(other.id_pool_)),
      free_blocks_(other.free_blocks_),
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
  signatures_ = std::move(other.signatures_);
  slots_ = std::move(other.slots_);
  erased_ids_ = std::move(other.erased_ids_);
  erased_lrps_ = std::move(other.erased_lrps_);
  erased_data_ = std::move(other.erased_data_);
  postings_ = std::move(other.postings_);
  id_pool_ = std::move(other.id_pool_);
  free_blocks_ = other.free_blocks_;
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

TupleStore::Key TupleStore::SignatureKey(SignatureId id) const {
  const size_t m = schema_.temporal_arity;
  const size_t k = schema_.data_arity;
  const uint32_t representative = signatures_[id].representative;
  if ((representative & kErasedKey) == 0) {
    const TupleView row = tuple(representative);
    return Key{row.lrps(), row.data()};
  }
  const size_t i = representative & ~kErasedKey;
  return Key{ColumnSpan<Lrp>(erased_lrps_.data() + i * m, m),
             ColumnSpan<DataValue>(
                 k == 0 ? nullptr : erased_data_.data() + i * k, k)};
}

bool TupleStore::KeyEquals(SignatureId id, ColumnSpan<Lrp> lrps,
                           ColumnSpan<DataValue> data) const {
  const Key key = SignatureKey(id);
  return key.lrps == lrps && key.data == data;
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

SignatureId TupleStore::CreateSignature(EntryId entry, uint64_t hash) {
  if ((signatures_.size() + 1) * 4 > slots_.size() * 3) GrowTable();
  const SignatureId id = static_cast<SignatureId>(signatures_.size());
  signatures_.push_back(SignatureRecord{entry, IdList{}});
  const size_t mask = slots_.size() - 1;
  size_t i = hash & mask;
  while (slots_[i].id != kNoSignature) i = (i + 1) & mask;
  slots_[i] = Slot{static_cast<uint32_t>(hash >> 32), id};
  return id;
}

void TupleStore::GrowTable() {
  std::vector<Slot> grown(slots_.empty() ? 8 : slots_.size() * 2);
  const size_t mask = grown.size() - 1;
  for (SignatureId id = 0; id < signatures_.size(); ++id) {
    const Key key = SignatureKey(id);
    const uint64_t hash = HashSignature(key.lrps, key.data);
    size_t i = hash & mask;
    while (grown[i].id != kNoSignature) i = (i + 1) & mask;
    grown[i] = Slot{static_cast<uint32_t>(hash >> 32), id};
  }
  slots_ = std::move(grown);
}

void TupleStore::AddToBucket(SignatureId id, EntryId entry) {
  SignatureRecord& signature = signatures_[id];
  PushId(&signature.entries, entry);
  if ((signature.representative & kErasedKey) == 0) return;
  // The signature has a row again: it reads its key from there, and its
  // erased key leaves the side arenas (the last one moves into its place).
  const size_t m = schema_.temporal_arity;
  const size_t k = schema_.data_arity;
  const size_t i = signature.representative & ~kErasedKey;
  const size_t last = erased_ids_.size() - 1;
  signature.representative = entry;
  if (i != last) {
    erased_ids_[i] = erased_ids_[last];
    erased_lrps_.MoveDown(i * m, last * m, m);
    erased_data_.MoveDown(i * k, last * k, k);
    signatures_[erased_ids_[i]].representative =
        kErasedKey | static_cast<uint32_t>(i);
  }
  erased_ids_.Truncate(last);
  erased_lrps_.Truncate(last * m);
  erased_data_.Truncate(last * k);
}

std::vector<EntryId> TupleStore::EntriesWithSignature(
    const FreeExtension& signature) const {
  SignatureId id = FindSignature(signature.lrps, signature.data,
                                 HashSignature(signature.lrps, signature.data));
  if (id == kNoSignature) return {};
  std::span<const EntryId> entries = Ids(signatures_[id].entries);
  return std::vector<EntryId>(entries.begin(), entries.end());
}

// --- Id lists ---

uint32_t TupleStore::AllocateBlock(int log2) {
  uint32_t& head = free_blocks_[log2];
  if (head != kNoBlock) {
    const uint32_t block = head;
    head = id_pool_[block];
    return block;
  }
  const size_t block = id_pool_.size();
  id_pool_.Extend(size_t{1} << log2);
  LRPDB_CHECK_LT(id_pool_.size(), size_t{kNoBlock}) << "id pool full";
  return static_cast<uint32_t>(block);
}

void TupleStore::FreeBlock(uint32_t offset, int log2) {
  id_pool_[offset] = free_blocks_[log2];
  free_blocks_[log2] = offset;
}

void TupleStore::PushId(IdList* list, EntryId id) {
  if (list->size == 0) {
    *list = IdList{id, 1};
    return;
  }
  if (list->size == 1) {
    const uint32_t block = AllocateBlock(1);
    id_pool_[block] = list->ref;
    id_pool_[block + 1] = id;
    *list = IdList{block, 2};
    return;
  }
  if (std::has_single_bit(list->size)) {  // The block is full: double it.
    const int log2 = std::countr_zero(list->size);
    const uint32_t block = AllocateBlock(log2 + 1);
    std::memcpy(id_pool_.data() + block, id_pool_.data() + list->ref,
                list->size * sizeof(EntryId));
    FreeBlock(list->ref, log2);
    list->ref = block;
  }
  id_pool_[list->ref + list->size++] = id;
}

void TupleStore::RemoveId(IdList* list, EntryId id) {
  if (list->size <= 1) {
    if (list->size == 1 && list->ref == id) list->size = 0;
    return;
  }
  EntryId* ids = id_pool_.data() + list->ref;
  EntryId* end = ids + list->size;
  EntryId* it = std::lower_bound(ids, end, id);
  if (it == end || *it != id) return;
  std::memmove(it, it + 1, (end - it - 1) * sizeof(EntryId));
  --list->size;
  if (list->size == 1) {
    const EntryId only = ids[0];
    FreeBlock(list->ref, 1);
    *list = IdList{only, 1};
  } else if (std::has_single_bit(list->size)) {
    // The rest fits in the block's lower half; the upper half is free.
    FreeBlock(list->ref + list->size, std::countr_zero(list->size));
  }
}

// --- Posting tables ---

size_t TupleStore::ProbePosting(const PostingTable& table, DataValue value) {
  const size_t mask = table.slots.size() - 1;
  for (size_t i = FinishKeyHash(static_cast<uint32_t>(value)) & mask;;
       i = (i + 1) & mask) {
    const Posting& slot = table.slots[i];
    if (slot.entries.size == 0 || slot.value == value) return i;
  }
}

void TupleStore::AddPosting(int column, EntryId id) {
  const DataValue value = data_[size_t{id} * schema_.data_arity + column];
  PostingTable& table = postings_[column];
  size_t i = table.slots.empty() ? 0 : ProbePosting(table, value);
  if (table.slots.empty() || table.slots[i].entries.size == 0) {
    if ((table.count + 1) * 4 > table.slots.size() * 3) {
      RefilePostings(&table, std::max<size_t>(8, 2 * table.slots.size()));
      i = ProbePosting(table, value);
    }
    table.slots[i].value = value;
    ++table.count;
  }
  PushId(&table.slots[i].entries, id);
}

void TupleStore::RemovePosting(int column, EntryId id) {
  const DataValue value = data_[size_t{id} * schema_.data_arity + column];
  PostingTable& table = postings_[column];
  if (table.slots.empty()) return;
  size_t hole = ProbePosting(table, value);
  IdList& entries = table.slots[hole].entries;
  if (entries.size == 0) return;
  RemoveId(&entries, id);
  if (entries.size > 0) return;
  // The posting emptied: drop it, so a probe for the value finds nothing,
  // and shift the rest of its probe run back over the hole.
  --table.count;
  const size_t mask = table.slots.size() - 1;
  for (size_t j = (hole + 1) & mask; table.slots[j].entries.size != 0;
       j = (j + 1) & mask) {
    const size_t home =
        FinishKeyHash(static_cast<uint32_t>(table.slots[j].value)) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      table.slots[hole] = table.slots[j];
      hole = j;
    }
  }
  table.slots[hole] = Posting{};
}

void TupleStore::RefilePostings(PostingTable* table, size_t slots) {
  std::vector<Posting> old = std::move(table->slots);
  table->slots = std::vector<Posting>(slots);
  table->count = 0;
  for (const Posting& posting : old) {
    if (posting.entries.size == 0) continue;
    table->slots[ProbePosting(*table, posting.value)] = posting;
    ++table->count;
  }
}

// --- Appends ---

[[nodiscard]] StatusOr<InsertOutcome> TupleStore::Insert(
    TupleView tuple, StoreStats* stats, Row row) {
  LRPDB_FAILPOINT("tuple_store.insert");
  if (tuple.temporal_arity() != schema_.temporal_arity ||
      tuple.data_arity() != schema_.data_arity) {
    return InvalidArgumentError("tuple arity does not match store schema");
  }
  ExecContext* exec = ExecContext::Current();
  LRPDB_RETURN_IF_ERROR(PollExec(exec));
  // Counts into the caller's stats, or nowhere.
  StoreStats uncounted;
  StoreStats& counts = stats != nullptr ? *stats : uncounted;
  // The candidate's closed DBM, in the store's scratch DBM: for the
  // single-entry containment test below and for normalization. The row is
  // appended with its bounds as given, never closed. `candidate` holds the
  // candidate's residue pieces once computed: up front for an unchecked
  // row, only for the union test for a piece.
  std::vector<NormalizedTuple> candidate;
  if (row != Row::kUnchecked) {
    candidate_closure_.Assign(tuple.constraint(), /*closed=*/true);
  } else {
    candidate_closure_.Assign(tuple.constraint());
    candidate_closure_.Close();
    LRPDB_ASSIGN_OR_RETURN(candidate, NormalizedTuple::Normalize(
                                          tuple.lrps(), tuple.data(),
                                          candidate_closure_));
    if (candidate.empty()) {  // Empty ground set.
      ++counts.empty_dropped;
      return InsertOutcome{};
    }
  }
  // The budget is charged what this insert grew the store by: the appended
  // row and index entries. A subsumed candidate grows nothing but still
  // republishes the budget gauge.
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
                                : Ids(signatures_[signature].entries);
  if (!bucket.empty()) {
    // Every bucket entry has the candidate's lrps and data, so a candidate
    // whose closed DBM implies one entry's DBM is contained in that entry,
    // exactly. That settles most subsumptions without normalizing the
    // bucket; the rest take the exact test over the bucket's union. Each
    // entry compared is m(m+1) bound comparisons, charged like closure
    // work.
    int64_t compared = 0;
    const bool implied =
        std::any_of(bucket.begin(), bucket.end(), [&](EntryId id) {
          ++compared;
          return candidate_closure_.Implies(this->tuple(id).constraint());
        });
    if (exec != nullptr) {
      exec->ChargeSteps(compared * static_cast<int64_t>(BoundsStride()));
    }
    // The union test's pieces: the candidate's (a piece's are computed only
    // now) and the bucket's.
    const bool union_test = !implied && row != Row::kAnswerPiece;
    std::vector<NormalizedTuple> existing;
    if (union_test) {
      if (candidate.empty()) {
        LRPDB_ASSIGN_OR_RETURN(candidate, NormalizedTuple::Normalize(
                                              tuple.lrps(), tuple.data(),
                                              candidate_closure_));
      }
      for (EntryId id : bucket) {
        LRPDB_RETURN_IF_ERROR(AppendNormalized(this->tuple(id), &existing));
      }
    }
    ++counts.subsumption_checks;
    counts.subsumption_candidates += static_cast<int64_t>(bucket.size());
    bool contained = implied;
    if (union_test) {
      LRPDB_ASSIGN_OR_RETURN(contained, PiecesContainedIn(candidate, existing));
    }
    if (contained) {
      ++counts.subsumed;
      charge_growth();
      return InsertOutcome();
    }
  }
  // Appended unnormalized: no pieces are kept.
  InsertOutcome outcome;
  outcome.inserted = true;
  outcome.id = static_cast<EntryId>(size());
  outcome.new_signature = signature == kNoSignature;
  Append(tuple, hash, signature);
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
  const uint64_t hash = HashSignature(lrps, data);
  Append(TupleView(lrps.data(), m, data.data(), k, constraint.view().bounds()),
         hash, FindSignature(lrps, data, hash));
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
  const uint64_t hash = HashSignature(tuple.lrps(), tuple.data());
  Append(tuple.view(), hash, FindSignature(tuple.lrps(), tuple.data(), hash));
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

void TupleStore::Append(TupleView tuple, uint64_t hash,
                        SignatureId signature) {
  const EntryId id = static_cast<EntryId>(size());
  LRPDB_CHECK_LT(id, kErasedKey) << "entry ids exhausted";
  lrps_.Append(tuple.lrps().data(), tuple.lrps().size());
  data_.Append(tuple.data().data(), tuple.data().size());
  bounds_.Append(tuple.constraint().bounds(), BoundsStride());
  live_.push_back(kLive);
  // The row is in place, so a new signature takes it as representative.
  if (signature == kNoSignature) signature = CreateSignature(id, hash);
  AddToBucket(signature, id);
  for (int c = 0; c < schema_.data_arity; ++c) AddPosting(c, id);
  UpdateBytes();
}

TupleStore::Footprint TupleStore::footprint() const {
  Footprint f;
  f.rows = HeapBytes(lrps_) + HeapBytes(data_) + HeapBytes(bounds_) +
           HeapBytes(live_);
  f.signatures = HeapBytes(signatures_) + HeapBytes(slots_) +
                 HeapBytes(erased_ids_) + HeapBytes(erased_lrps_) +
                 HeapBytes(erased_data_);
  for (const PostingTable& table : postings_) {
    f.postings += HeapBytes(table.slots);
  }
  f.id_lists = HeapBytes(id_pool_);
  return f;
}

// --- Removal ---

void TupleStore::Tombstone(EntryId id) {
  LRPDB_CHECK(id < size());
  if (!is_live(id)) return;  // Already tombstoned.
  live_[id] = kDead;
  ++tombstones_;
  // Unlink it from its signature bucket. The signature itself is kept even
  // when its bucket empties: SignatureId allocation is ordinal, and the
  // dead row still carries the key.
  const TupleView row = tuple(id);
  RemoveId(&signatures_[FindSignature(row.lrps(), row.data(),
                                      HashSignature(row.lrps(), row.data()))]
                .entries,
           id);
  // Unlink it from every posting; an emptied posting leaves its table, so
  // a probe for the value finds nothing.
  for (int c = 0; c < schema_.data_arity; ++c) RemovePosting(c, id);
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
  for (EntryId id : Ids(signatures_[signature].entries)) {
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
    remap[id] = kept++;
  }
  LRPDB_CHECK_EQ(next, ids.size()) << "EraseEntries ids not ascending";
  // Representatives, while every row is still in place: a signature whose
  // row is erased moves to its first surviving live entry, or, with none,
  // copies its key to the erased-key arenas.
  for (SignatureId s = 0; s < signatures_.size(); ++s) {
    SignatureRecord& signature = signatures_[s];
    if ((signature.representative & kErasedKey) != 0) continue;
    if (remap[signature.representative] != kErasedEntry) {
      signature.representative = remap[signature.representative];
      continue;
    }
    const std::span<const EntryId> entries = Ids(signature.entries);
    const auto survivor = std::find_if(
        entries.begin(), entries.end(),
        [&remap](EntryId id) { return remap[id] != kErasedEntry; });
    if (survivor != entries.end()) {
      signature.representative = remap[*survivor];
      continue;
    }
    const TupleView row = tuple(signature.representative);
    signature.representative =
        kErasedKey | static_cast<uint32_t>(erased_ids_.size());
    erased_ids_.push_back(s);
    erased_lrps_.Append(row.lrps().data(), m);
    erased_data_.Append(row.data().data(), k);
  }
  for (size_t id = 0; id < remap.size(); ++id) {
    const size_t to = remap[id];
    if (to == kErasedEntry || to == id) continue;
    lrps_.MoveDown(to * m, id * m, m);
    data_.MoveDown(to * k, id * k, k);
    bounds_.MoveDown(to * b, id * b, b);
    live_[to] = live_[id];
  }
  lrps_.Truncate(kept * m);
  data_.Truncate(kept * k);
  bounds_.Truncate(kept * b);
  live_.Truncate(kept);
  // Id lists: each is rewritten through the remap in place, then the
  // blocks still needed slide down in pool order, each into the smallest
  // block that holds it, leaving no free block.
  std::vector<IdList*> blocked;
  auto rewrite_inline = [&](IdList* list) {
    if (list->size >= 2) {
      blocked.push_back(list);
    } else if (list->size == 1) {
      list->ref = remap[list->ref];
      list->size = list->ref != kErasedEntry;
    }
  };
  for (SignatureId s = 0; s < signatures_.size(); ++s) {
    rewrite_inline(&signatures_[s].entries);
  }
  for (PostingTable& table : postings_) {
    for (Posting& posting : table.slots) rewrite_inline(&posting.entries);
  }
  std::sort(blocked.begin(), blocked.end(),
            [](const IdList* x, const IdList* y) { return x->ref < y->ref; });
  uint32_t pool = 0;
  for (IdList* list : blocked) {
    EntryId* ids = id_pool_.data() + list->ref;
    uint32_t out = 0;
    for (uint32_t i = 0; i < list->size; ++i) {
      if (remap[ids[i]] != kErasedEntry) ids[out++] = remap[ids[i]];
    }
    if (out <= 1) {
      *list = IdList{out == 1 ? ids[0] : 0, out};
      continue;
    }
    id_pool_.MoveDown(pool, list->ref, out);
    *list = IdList{pool, out};
    pool += std::bit_ceil(out);
  }
  id_pool_.Truncate(pool);
  free_blocks_.fill(kNoBlock);
  for (PostingTable& table : postings_) {
    size_t count = 0;
    for (const Posting& posting : table.slots) {
      count += posting.entries.size > 0;
    }
    RefilePostings(&table, TableSlotsFor(count));
  }
  lrps_.ShrinkToFit();
  data_.ShrinkToFit();
  bounds_.ShrinkToFit();
  live_.ShrinkToFit();
  id_pool_.ShrinkToFit();
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
  if (postings_.size() != static_cast<size_t>(schema_.data_arity)) {
    return InternalError("data index arity mismatch");
  }
  if (lrps_.size() != n * schema_.temporal_arity ||
      data_.size() != n * schema_.data_arity ||
      bounds_.size() != n * BoundsStride()) {
    return InternalError("row arena length mismatch");
  }
  size_t dead = 0;
  for (size_t id = 0; id < n; ++id) {
    if (live_[id] != kLive) ++dead;
  }
  if (dead != tombstones_) {
    return InternalError("tombstone count disagrees with liveness vector");
  }
  // A list past one id has its whole block inside the pool.
  auto outside_pool = [this](const IdList& list) {
    return list.size >= 2 &&
           size_t{list.ref} + std::bit_ceil(list.size) > id_pool_.size();
  };
  const size_t live_entries = n - tombstones_;
  // Per signature, in ascending SignatureId order, so when several
  // corruptions exist the one reported is the same on every run and at any
  // table size: the representative carries the key the table files the
  // signature under, and the bucket lists live entries with that key.
  const size_t num_erased = erased_ids_.size();
  if (erased_lrps_.size() != num_erased * schema_.temporal_arity ||
      erased_data_.size() != num_erased * schema_.data_arity) {
    return InternalError("erased key arena length mismatch");
  }
  size_t bucketed = 0;
  size_t erased_keys = 0;
  for (SignatureId s = 0; s < signatures_.size(); ++s) {
    const SignatureRecord& signature = signatures_[s];
    const uint32_t representative = signature.representative;
    if ((representative & kErasedKey) != 0) {
      const size_t i = representative & ~kErasedKey;
      if (i >= num_erased || erased_ids_[i] != s) {
        return InternalError("erased key filed under a foreign signature");
      }
      ++erased_keys;
    } else if (representative >= n) {
      return InternalError("signature representative out of range");
    }
    const Key key = SignatureKey(s);
    if (FindSignature(key.lrps, key.data,
                      HashSignature(key.lrps, key.data)) != s) {
      return InternalError(
          "signature representative does not carry its key");
    }
    if (outside_pool(signature.entries)) {
      return InternalError("id list block outside the pool");
    }
    const std::span<const EntryId> entries = Ids(signature.entries);
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
  if (erased_keys != num_erased) {
    return InternalError("erased key arena holds a live signature's key");
  }
  if (bucketed != live_entries) {
    return InternalError("signature buckets do not partition the live entries");
  }
  size_t filed = 0;
  for (const Slot& slot : slots_) filed += slot.id != kNoSignature;
  if (filed != signatures_.size()) {
    return InternalError("signature table size mismatch");
  }
  // Postings: sorted, value-correct, and complete per column. Same
  // discipline: postings are validated in ascending DataValue order.
  for (int c = 0; c < schema_.data_arity; ++c) {
    const PostingTable& table = postings_[c];
    std::vector<const Posting*> postings;
    for (const Posting& posting : table.slots) {
      if (posting.entries.size > 0) postings.push_back(&posting);
    }
    if (postings.size() != table.count) {
      return InternalError("posting table count mismatch");
    }
    std::sort(postings.begin(), postings.end(),
              [](const Posting* a, const Posting* b) {
                return a->value < b->value;
              });
    size_t posted = 0;
    for (const Posting* posting : postings) {
      const std::span<const EntryId> ids = Ids(posting->entries);
      if (PostingFor(c, posting->value).data() != ids.data()) {
        return InternalError("posting table does not find a value");
      }
      if (outside_pool(posting->entries)) {
        return InternalError("id list block outside the pool");
      }
      if (!std::is_sorted(ids.begin(), ids.end())) {
        return InternalError("posting list not sorted");
      }
      for (EntryId id : ids) {
        if (id >= n) return InternalError("posting id out of range");
        if (!is_live(id)) {
          return InternalError("tombstoned entry still posted");
        }
        if (tuple(id).data()[c] != posting->value) {
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

bool TupleStore::ContainsGround(
    const std::vector<int64_t>& times,
    const std::vector<DataValue>& data) const {
  for (EntryId id : live_ids()) {
    if (tuple(id).ContainsGround(times, data)) {
      return true;
    }
  }
  return false;
}

std::vector<GroundTuple> TupleStore::EnumerateGround(
    int64_t lo, int64_t hi) const {
  // Column-by-column enumeration guided by the closed constraint instead of
  // a cross product of per-column candidates with a per-point containment
  // check: closing the DBM once per tuple makes every pairwise bound tight,
  // so at depth i the feasible values are exactly the lrp points inside the
  // interval implied by the window, the absolute bounds, and the already
  // fixed columns. Every emitted point satisfies the constraint by
  // construction, and every satisfying point survives the propagation
  // (closure yields the tightest implied bounds), so the output set is
  // identical to the old per-point filter at a fraction of the cost.
  std::vector<GroundTuple> out;
  int m = schema().temporal_arity;
  for (EntryId id : live_ids()) {
    const TupleView t = tuple(id);
    Dbm closed = t.constraint();
    closed.Close();
    if (!closed.IsSatisfiable()) continue;
    std::vector<int64_t> times(m, 0);
    auto emit = [&](auto&& self, int i) -> void {
      if (i == m) {
        out.push_back({times, t.data().ToVector()});
        return;
      }
      int64_t lower = lo;
      int64_t upper = hi - 1;
      // Absolute bounds through the zero variable, then difference bounds
      // against every fixed column (DBM variables are 1-based).
      Bound up = closed.bound(i + 1, 0);
      if (!up.is_infinite()) upper = std::min(upper, up.value());
      Bound down = closed.bound(0, i + 1);
      if (!down.is_infinite()) lower = std::max(lower, -down.value());
      for (int j = 0; j < i; ++j) {
        Bound diff_up = closed.bound(i + 1, j + 1);  // xi - xj <= c
        if (!diff_up.is_infinite()) {
          upper = std::min(upper, times[j] + diff_up.value());
        }
        Bound diff_down = closed.bound(j + 1, i + 1);  // xj - xi <= c
        if (!diff_down.is_infinite()) {
          lower = std::max(lower, times[j] - diff_down.value());
        }
      }
      for (int64_t v = t.lrp(i).NextAtLeast(lower); v <= upper;
           v += t.lrp(i).period()) {
        times[i] = v;
        self(self, i + 1);
      }
    };
    emit(emit, 0);
  }
  // Distinct generalized tuples can ground to the same point; match the old
  // std::set semantics (sorted, deduplicated).
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace lrpdb
