#include "src/gdb/tuple_store.h"

#include <algorithm>
#include <iterator>

#include "src/common/exec_context.h"
#include "src/common/failpoint.h"
#include "src/obs/metrics.h"

namespace lrpdb {

TupleStore::TupleStore(RelationSchema schema)
    : schema_(schema),
      data_index_(schema.data_arity) {}

TupleStore::TupleStore(TupleStore&& other) noexcept
    : schema_(std::move(other.schema_)),
      entries_(std::move(other.entries_)),
      signature_index_(std::move(other.signature_index_)),
      data_index_(std::move(other.data_index_)),
      delta_lo_(other.delta_lo_),
      delta_hi_(other.delta_hi_),
      live_(std::move(other.live_)),
      tombstones_(other.tombstones_) {
  approx_bytes_.store(other.approx_bytes_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  std::lock_guard<std::mutex> pieces_lock(other.pieces_mu_);
  pieces_cache_ = std::move(other.pieces_cache_);
}

TupleStore& TupleStore::operator=(TupleStore&& other) noexcept {
  if (this == &other) return *this;
  schema_ = std::move(other.schema_);
  entries_ = std::move(other.entries_);
  signature_index_ = std::move(other.signature_index_);
  data_index_ = std::move(other.data_index_);
  delta_lo_ = other.delta_lo_;
  delta_hi_ = other.delta_hi_;
  live_ = std::move(other.live_);
  tombstones_ = other.tombstones_;
  approx_bytes_.store(other.approx_bytes_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
  // Cross-instance acquisition is safe here: move-assignment requires the
  // caller to own both stores exclusively, so no mirrored-order call exists.
  std::lock_guard<std::mutex> other_pieces(other.pieces_mu_);
  // lint: allow(lock-order) -- see exclusivity note above.
  std::lock_guard<std::mutex> self_pieces(pieces_mu_);
  pieces_cache_ = std::move(other.pieces_cache_);
  return *this;
}

const std::vector<EntryId>& TupleStore::EntriesWithSignature(
    const FreeExtension& signature) const {
  static const std::vector<EntryId> kNone;
  auto it = signature_index_.find(signature);
  return it == signature_index_.end() ? kNone : it->second.entries;
}

[[nodiscard]] StatusOr<const std::vector<NormalizedTuple>*> TupleStore::pieces(
    EntryId id, const NormalizeLimits& limits) const {
  LRPDB_FAILPOINT("tuple_store.pieces");
  std::lock_guard<std::mutex> lock(pieces_mu_);
  PiecesCache& cache = pieces_cache_[id];
  if (!cache.normalized) {
    LRPDB_ASSIGN_OR_RETURN(cache.pieces,
                           NormalizedTuple::Normalize(entries_[id].tuple,
                                                      limits));
    cache.normalized = true;
  }
  // Safe to hand out past the unlock: the slot is never rewritten and deque
  // growth does not move it.
  return &cache.pieces;
}

[[nodiscard]] StatusOr<InsertOutcome> TupleStore::Insert(GeneralizedTuple tuple,
                                           const NormalizeLimits& limits,
                                           StoreStats* stats) {
  LRPDB_FAILPOINT("tuple_store.insert");
  if (tuple.temporal_arity() != schema_.temporal_arity ||
      tuple.data_arity() != schema_.data_arity) {
    return InvalidArgumentError("tuple arity does not match store schema");
  }
  LRPDB_RETURN_IF_ERROR(PollExec(limits.exec));
  LRPDB_ASSIGN_OR_RETURN(std::vector<NormalizedTuple> candidate,
                         NormalizedTuple::Normalize(tuple, limits));
  // Counts into the caller's stats, or nowhere.
  StoreStats uncounted;
  StoreStats& counts = stats != nullptr ? *stats : uncounted;
  if (candidate.empty()) {  // Empty ground set.
    ++counts.empty_dropped;
    return InsertOutcome{};
  }
  // Same-signature entries: one bucket probe.
  ++counts.signature_probes;
  std::vector<EntryId> bucket_entries;
  auto it = signature_index_.find(tuple.free_extension());
  if (it != signature_index_.end()) bucket_entries = it->second.entries;
  if (!bucket_entries.empty()) {
    std::vector<NormalizedTuple> existing;
    for (EntryId id : bucket_entries) {
      LRPDB_ASSIGN_OR_RETURN(const std::vector<NormalizedTuple>* cached,
                             pieces(id, limits));
      existing.insert(existing.end(), cached->begin(), cached->end());
    }
    ++counts.subsumption_checks;
    counts.subsumption_candidates +=
        static_cast<int64_t>(bucket_entries.size());
    LRPDB_ASSIGN_OR_RETURN(bool contained,
                           PiecesContainedIn(candidate, existing, limits));
    if (contained) {
      ++counts.subsumed;
      InsertOutcome outcome;
      outcome.absorbers = std::move(bucket_entries);
      return outcome;
    }
  }
  if (limits.exec != nullptr) {
    // Budget accounting charges what the store retains: the entry plus its
    // normalized pieces (the dominant allocation on CRT-heavy workloads).
    limits.exec->ChargeTuples(1);
    limits.exec->ChargeBytes(tuple.ApproxBytes() +
                             static_cast<int64_t>(candidate.size()) *
                                 (schema_.temporal_arity + 2) * 8);
    LRPDB_GAUGE_SET("exec.budget_bytes", limits.exec->bytes_charged());
  }
  InsertOutcome outcome;
  outcome.inserted = true;
  outcome.id = static_cast<EntryId>(entries_.size());
  outcome.new_signature = Append(std::move(tuple), std::move(candidate), true);
  ++counts.inserts;
  return outcome;
}

bool TupleStore::InsertUnlessEmpty(GeneralizedTuple tuple) {
  LRPDB_CHECK_EQ(tuple.temporal_arity(), schema_.temporal_arity);
  LRPDB_CHECK_EQ(tuple.data_arity(), schema_.data_arity);
  if (!tuple.ConstraintSatisfiable()) return false;
  Append(std::move(tuple), {}, false);
  return true;
}

[[nodiscard]] Status TupleStore::RestoreEntry(GeneralizedTuple tuple) {
  LRPDB_FAILPOINT("tuple_store.restore_entry");
  if (tuple.temporal_arity() != schema_.temporal_arity ||
      tuple.data_arity() != schema_.data_arity) {
    return InvalidArgumentError("restored tuple arity does not match schema");
  }
  // No filtering and no stats: the snapshot records what Append() stored,
  // so replaying it through Append() reproduces every index exactly.
  Append(std::move(tuple), {}, false);
  return OkStatus();
}

[[nodiscard]] Status TupleStore::RestoreGenerations(size_t lo, size_t hi) {
  LRPDB_FAILPOINT("tuple_store.restore_generations");
  if (lo > hi || hi > entries_.size()) {
    return InvalidArgumentError(
        "restored generation ranges out of order: lo " + std::to_string(lo) +
        ", hi " + std::to_string(hi) + ", size " +
        std::to_string(entries_.size()));
  }
  delta_lo_ = lo;
  delta_hi_ = hi;
  return OkStatus();
}

bool TupleStore::Append(GeneralizedTuple tuple,
                        std::vector<NormalizedTuple> pieces, bool normalized) {
  // Same estimate Insert charges to the ExecContext byte budget: the entry
  // plus its normalized pieces.
  approx_bytes_.fetch_add(
      tuple.ApproxBytes() + static_cast<int64_t>(pieces.size()) *
                                (schema_.temporal_arity + 2) * 8,
      std::memory_order_relaxed);
  EntryId id = static_cast<EntryId>(entries_.size());
  auto [it, created] = signature_index_.try_emplace(tuple.free_extension());
  if (created) {
    it->second.id = static_cast<SignatureId>(signature_index_.size() - 1);
  }
  it->second.entries.push_back(id);
  for (int c = 0; c < schema_.data_arity; ++c) {
    data_index_[c][tuple.data()[c]].push_back(id);
  }
  entries_.push_back(Entry{std::move(tuple), it->second.id});
  live_.push_back(kLive);
  {
    std::lock_guard<std::mutex> lock(pieces_mu_);
    pieces_cache_.push_back(PiecesCache{std::move(pieces), normalized});
  }
  return created;
}

void TupleStore::Tombstone(EntryId id) {
  LRPDB_CHECK(id < entries_.size());
  if (!is_live(id)) return;  // Already tombstoned.
  live_[id] = kDead;
  ++tombstones_;
  const GeneralizedTuple& tuple = entries_[id].tuple;
  // Prune the signature bucket. The bucket itself is kept even when it
  // empties: SignatureId allocation is ordinal in signature_index_, so
  // erasing the key would shift ids of signatures interned later.
  auto bucket = signature_index_.find(tuple.free_extension());
  if (bucket != signature_index_.end()) {
    auto& ids = bucket->second.entries;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
  }
  // Prune every posting list; empty postings are erased so "value has no
  // entries" probes keep short-circuiting.
  for (int c = 0; c < schema_.data_arity; ++c) {
    auto posting = data_index_[c].find(tuple.data()[c]);
    if (posting == data_index_[c].end()) continue;
    auto& ids = posting->second;
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
    if (ids.empty()) data_index_[c].erase(posting);
  }
  LRPDB_COUNTER_INC("store.tombstones");
}

std::vector<EntryId> TupleStore::TombstoneExact(const GeneralizedTuple& tuple) {
  // Only the tuple's signature bucket can hold an exact match, and a
  // bucket lists its ids in append order. Matches are collected before any
  // is tombstoned, because Tombstone() unlinks ids from the bucket.
  std::vector<EntryId> matched;
  for (EntryId id : EntriesWithSignature(tuple.free_extension())) {
    const GeneralizedTuple& stored = entries_[id].tuple;
    if (stored.lrps() == tuple.lrps() && stored.data() == tuple.data() &&
        stored.constraint() == tuple.constraint()) {
      matched.push_back(id);
    }
  }
  for (EntryId id : matched) Tombstone(id);
  return matched;
}

std::vector<EntryId> TupleStore::EraseEntries(
    const std::vector<EntryId>& ids) {
  // remap[old id] = new id, or kErasedEntry. Monotone, so every rewritten
  // id list below stays ascending.
  std::vector<EntryId> remap(entries_.size());
  size_t next = 0;
  EntryId kept = 0;
  int64_t released = 0;
  {
    std::lock_guard<std::mutex> lock(pieces_mu_);
    for (size_t id = 0; id < entries_.size(); ++id) {
      if (next < ids.size() && ids[next] == id) {
        ++next;
        remap[id] = kErasedEntry;
        released += entries_[id].tuple.ApproxBytes() +
                    static_cast<int64_t>(pieces_cache_[id].pieces.size()) *
                        (schema_.temporal_arity + 2) * 8;
        if (!is_live(static_cast<EntryId>(id))) --tombstones_;
        continue;
      }
      remap[id] = kept;
      if (kept != id) {
        entries_[kept] = std::move(entries_[id]);
        pieces_cache_[kept] = std::move(pieces_cache_[id]);
        live_[kept] = live_[id];
      }
      ++kept;
    }
    LRPDB_CHECK_EQ(next, ids.size()) << "EraseEntries ids not ascending";
    entries_.erase(entries_.begin() + kept, entries_.end());
    pieces_cache_.erase(pieces_cache_.begin() + kept, pieces_cache_.end());
  }
  live_.resize(kept);
  auto rewrite = [&remap](std::vector<EntryId>* list) {
    size_t out = 0;
    for (EntryId id : *list) {
      if (remap[id] != kErasedEntry) (*list)[out++] = remap[id];
    }
    list->resize(out);
  };
  // lint: allow(det) -- each bucket is rewritten independently of the others.
  for (auto& [unused, bucket] : signature_index_) rewrite(&bucket.entries);
  for (int c = 0; c < schema_.data_arity; ++c) {
    auto& index = data_index_[c];
    for (auto it = index.begin(); it != index.end();) {
      rewrite(&it->second);
      it = it->second.empty() ? index.erase(it) : std::next(it);
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
  approx_bytes_.fetch_sub(released, std::memory_order_relaxed);
  return remap;
}

[[nodiscard]] Status TupleStore::CheckConsistency() const {
  LRPDB_FAILPOINT("tuple_store.check_consistency");
  if (delta_lo_ > delta_hi_ || delta_hi_ > entries_.size()) {
    return InternalError("generation ranges out of order");
  }
  if (data_index_.size() != static_cast<size_t>(schema_.data_arity)) {
    return InternalError("data index arity mismatch");
  }
  if (live_.size() != entries_.size()) {
    return InternalError("liveness vector length mismatch");
  }
  size_t dead = 0;
  for (size_t id = 0; id < live_.size(); ++id) {
    if (live_[id] != kLive) ++dead;
  }
  if (dead != tombstones_) {
    return InternalError("tombstone count disagrees with liveness vector");
  }
  const size_t live_entries = entries_.size() - tombstones_;
  // Signature buckets partition the *live* entries and match their keys. The
  // buckets are visited in ascending SignatureId order (not hash order), so
  // when several corruptions exist the one reported is the same on every
  // run and at any load factor.
  using SignatureItem = std::pair<const FreeExtension, SignatureBucket>;
  std::vector<const SignatureItem*> buckets;
  buckets.reserve(signature_index_.size());
  // lint: allow(det) -- order-insensitive collection; sorted by id below.
  for (const auto& item : signature_index_) buckets.push_back(&item);
  std::sort(buckets.begin(), buckets.end(),
            [](const SignatureItem* a, const SignatureItem* b) {
              return a->second.id < b->second.id;
            });
  size_t bucketed = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const auto& [fe, bucket] = *buckets[i];
    if (i > 0 && buckets[i - 1]->second.id == bucket.id) {
      return InternalError("duplicate signature id");
    }
    for (EntryId id : bucket.entries) {
      if (id >= entries_.size()) return InternalError("bucket id out of range");
      if (!is_live(id)) {
        return InternalError("tombstoned entry still bucketed");
      }
      const Entry& entry = entries_[id];
      if (!(entry.tuple.free_extension() == fe)) {
        return InternalError("entry filed under a foreign signature");
      }
      if (entry.signature != bucket.id) {
        return InternalError("entry signature id mismatch");
      }
      ++bucketed;
    }
  }
  if (bucketed != live_entries) {
    return InternalError("signature buckets do not partition the live entries");
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
        if (id >= entries_.size()) {
          return InternalError("posting id out of range");
        }
        if (!is_live(id)) {
          return InternalError("tombstoned entry still posted");
        }
        if (entries_[id].tuple.data()[c] != value) {
          return InternalError("posting value mismatch");
        }
        ++posted;
      }
    }
    if (posted != live_entries) {
      return InternalError("postings do not cover all live entries");
    }
  }
  return OkStatus();
}

std::string TupleStore::ToString(const Interner* interner) const {
  std::string s;
  for (EntryId id : live_ids()) {
    s += entries_[id].tuple.ToString(interner);
    s += "\n";
  }
  return s;
}

}  // namespace lrpdb
