// Signature-indexed, delta-aware tuple storage.
//
// Theorem 4.2's termination argument is phrased in terms of *signatures*:
// the (data constants, lrp vector) key of a generalized tuple -- its free
// extension, with the lrp vector residue-normalized (Lrp canonicalizes to
// period > 0, offset in [0, period)). The store below organizes a
// generalized relation around exactly that key:
//
//  * Signature index. Tuples live in a dense append-only entry array; a
//    hash index maps each free extension to the list of entries carrying
//    it. InsertIfNew-style subsumption only ever compares a candidate
//    against the entries of its own signature bucket -- an O(1) probe
//    followed by DBM work proportional to the bucket, never to the whole
//    relation. Free-extension safety (a round adding no *new* signature)
//    is read off the interning outcome of the probe itself.
//
//  * Per-column data value indexes. For every data column, a posting-list
//    index DataValue -> entry ids lets join sides prune candidates by any
//    data argument already bound (a constant in the atom or a variable
//    bound by an earlier atom) instead of scanning the relation.
//
//  * Delta generations. Entries are append-only, so the semi-naive
//    current / delta / new split is three index ranges, not three copied
//    relations: [0, delta_lo) is "current", [delta_lo, delta_hi) is the
//    delta of the last completed round, and [delta_hi, size) is what the
//    running round has appended. AdvanceGeneration() promotes the ranges.
//
// The same generation protocol, over ground facts, backs the windowed
// ground evaluator and (through it) the Datalog1S horizon-doubling loop:
// see GroundFactStore at the bottom.
#ifndef LRPDB_GDB_TUPLE_STORE_H_
#define LRPDB_GDB_TUPLE_STORE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/statusor.h"
#include "src/common/thread_annotations.h"
#include "src/gdb/generalized_tuple.h"
#include "src/gdb/normalized_tuple.h"
#include "src/gdb/schema.h"

namespace lrpdb {

// Dense index of an entry within one TupleStore.
using EntryId = uint32_t;
// The remap value of an id that TupleStore::EraseEntries removed.
inline constexpr EntryId kErasedEntry = UINT32_MAX;
// Dense id of an interned free-extension signature within one TupleStore.
using SignatureId = uint32_t;

// Storage-engine counters. A plain struct owned by the caller: the store
// keeps no copy of its own, and counts only into the one passed to Insert.
// The evaluator gives each apply task its own and each round one for its
// inserts, folds them into RoundStats::store, and publishes every finished
// round to the metrics registry once.
struct StoreStats {
  // InsertIfNew path.
  int64_t signature_probes = 0;       // Signature-bucket lookups.
  int64_t subsumption_checks = 0;     // Candidate-vs-bucket containment tests.
  int64_t subsumption_candidates = 0; // Same-signature entries compared.
  int64_t inserts = 0;                // Entries appended.
  int64_t subsumed = 0;               // Candidates dropped as contained.
  int64_t empty_dropped = 0;          // Candidates with empty ground sets.
  // Join probe path.
  int64_t index_probes = 0;           // Candidate probes issued.
  int64_t tuples_scanned = 0;         // Entries yielded to the unifier.
  int64_t tuples_pruned = 0;          // Entries skipped by index/delta filter.

  // One join probe: `scanned` entries of the probed posting slice or entry
  // range walked by the join loop, `pruned` the rest of the atom's range.
  // The join kernel (ApplyClauseBatch in src/core/clause_plan.cc) calls
  // this once per probe it runs.
  void CountProbe(int64_t scanned, int64_t pruned) {
    ++index_probes;
    tuples_scanned += scanned;
    tuples_pruned += pruned;
  }

  void Accumulate(const StoreStats& other) {
    signature_probes += other.signature_probes;
    subsumption_checks += other.subsumption_checks;
    subsumption_candidates += other.subsumption_candidates;
    inserts += other.inserts;
    subsumed += other.subsumed;
    empty_dropped += other.empty_dropped;
    index_probes += other.index_probes;
    tuples_scanned += other.tuples_scanned;
    tuples_pruned += other.tuples_pruned;
  }
};

// Result of an exact insert: whether the tuple was stored and whether its
// signature was interned for the first time (the Theorem 4.2 signal).
struct InsertOutcome {
  bool inserted = false;
  bool new_signature = false;
  // Entry id the tuple was appended at; meaningful only when `inserted`.
  EntryId id = 0;
  // When the candidate was dropped as contained: the same-signature entries
  // whose union subsumed it. Why-provenance attaches the dropped
  // candidate's origin to these so derivations stay resolvable across
  // subsumption. Empty when inserted or when the candidate normalized to
  // the empty ground set.
  std::vector<EntryId> absorbers;
};

// An indexed set of generalized tuples of one schema.
//
// Thread-safety contract: mutations (Insert, InsertUnlessEmpty,
// AdvanceGeneration, EraseEntries) require exclusive access. Between
// mutations, any number of threads may issue const operations concurrently
// — PostingFor, pieces(), CheckConsistency, ToString — the one piece of
// const-path mutable state, the lazy residue-piece cache, is guarded by the
// store's one internal mutex, annotated below for Clang's -Wthread-safety
// and exercised from 8 threads under TSan in tests/tuple_store_test.cc.
// Exception to the "between mutations" rule: approx_bytes() is safe to call
// concurrently *with* a mutation (a monitoring thread sampling memory while
// an evaluation inserts) — it is a single atomic and never touches the
// entry array.
class TupleStore {
 public:
  // A data-column equality requirement for a join probe: the entry's data
  // column `column` must equal `value`.
  struct DataRequirement {
    int column = 0;
    DataValue value = 0;
  };

  explicit TupleStore(RelationSchema schema);

  // Movable (relations hand stores around by value); moving counts as a
  // mutation, so it requires exclusive access to both operands. The mutex
  // itself stays put — the destination keeps its own.
  TupleStore(TupleStore&& other) noexcept;
  TupleStore& operator=(TupleStore&& other) noexcept;
  TupleStore(const TupleStore&) = delete;
  TupleStore& operator=(const TupleStore&) = delete;

  const RelationSchema& schema() const { return schema_; }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const GeneralizedTuple& tuple(EntryId id) const {
    return entries_[id].tuple;
  }
  // The signature the entry was interned under.
  SignatureId signature_of(EntryId id) const { return entries_[id].signature; }
  size_t num_signatures() const { return signature_index_.size(); }
  // The live entries interned under `signature`, ascending; empty when
  // there are none. One hash probe, whatever the store's size.
  const std::vector<EntryId>& EntriesWithSignature(
      const FreeExtension& signature) const;
  // Approximate retained bytes: every appended entry plus its normalized
  // pieces, using the same estimate Insert charges to the ExecContext byte
  // budget. A single atomic, so a monitoring thread may sample it while
  // another thread inserts — no torn reads, no lock.
  int64_t approx_bytes() const {
    return approx_bytes_.load(std::memory_order_relaxed);
  }

  // The posting list for `value` in data column `column` (ascending entry
  // ids), or nullptr when no entry carries that value. The join kernel
  // (src/core/clause_plan.h) walks the smallest applicable posting,
  // clipped to the atom's entry range with a binary search.
  const std::vector<EntryId>* PostingFor(int column, DataValue value) const {
    const auto& index = data_index_[column];
    auto it = index.find(value);
    return it == index.end() ? nullptr : &it->second;
  }

  // The residue pieces of entry `id`, computed on first use and cached.
  // The returned pointer stays valid until the next mutation; the pointee
  // is immutable once returned, so concurrent callers may share it.
  [[nodiscard]] StatusOr<const std::vector<NormalizedTuple>*> pieces(
      EntryId id, const NormalizeLimits& limits = NormalizeLimits()) const
      LRPDB_LOCKS_EXCLUDED(pieces_mu_);

  // Exact insert: drops the tuple if its ground set is empty or contained
  // in the union of the stored tuples with the same signature (free
  // extension) -- the comparison constraint safety (paper, Section 4.3)
  // prescribes. The same-signature entries come from one bucket probe.
  // `stats`, when non-null, receives the insert-path counters; without it
  // nothing is counted.
  [[nodiscard]] StatusOr<InsertOutcome> Insert(GeneralizedTuple tuple,
                                 const NormalizeLimits& limits =
                                     NormalizeLimits(),
                                 StoreStats* stats = nullptr);

  // Inserts after a cheap DBM satisfiability check only; tuples empty
  // purely through lrp-residue conflicts may be stored (harmless
  // redundancy). Counts nothing. Returns false iff dropped.
  bool InsertUnlessEmpty(GeneralizedTuple tuple);

  // --- Snapshot restore (src/storage) ---

  // Appends `tuple` exactly as stored on disk: no emptiness or subsumption
  // filtering, no stats, every index maintained. Snapshot load replays the
  // original entry sequence through this, so entry ids, signature interning
  // order, and postings come back identical to the snapshotted store.
  // Requires exclusive access, like every mutation.
  [[nodiscard]] Status RestoreEntry(GeneralizedTuple tuple);

  // Restores the generation ranges saved with the entries. Must be called
  // after the final RestoreEntry; validates 0 <= lo <= hi <= size().
  [[nodiscard]] Status RestoreGenerations(size_t lo, size_t hi);

  // --- Delta generations ---

  // Promotes generations: the entries appended since the previous call
  // become the delta; the previous delta joins "current".
  void AdvanceGeneration() {
    delta_lo_ = delta_hi_;
    delta_hi_ = entries_.size();
  }
  size_t delta_lo() const { return delta_lo_; }
  size_t delta_hi() const { return delta_hi_; }
  size_t delta_size() const { return delta_hi_ - delta_lo_; }

  // --- Tombstones (incremental retraction; DESIGN.md §13) ---
  //
  // A retracted entry is tombstoned in place, so retraction stays
  // O(affected) and entry ids held by provenance stay valid until the next
  // EraseEntries. Tombstone() removes the entry from its signature bucket
  // and every posting list, so the indexed probe paths never see it again;
  // whole-store scans go through live_ids(). The slot keeps its payload
  // until EraseEntries reclaims it.

  // Marks entry `id` dead. Idempotent; requires exclusive access, like
  // every mutation.
  void Tombstone(EntryId id);

  // Tombstones every live entry whose lrps, data and constraint DBM all
  // equal `tuple`'s, and returns their ids, ascending. A fact absorbed at
  // insert time has no entry of its own and matches nothing. The live
  // retraction path (IncrementalEvaluator::RetractFacts) and WAL replay
  // (storage::ApplyRetractBatch) both retract through this, so replay
  // reproduces the live/dead partition exactly. Requires exclusive access.
  std::vector<EntryId> TombstoneExact(const GeneralizedTuple& tuple);

  // True iff the entry has not been tombstoned. Valid for any id < size().
  bool is_live(EntryId id) const { return live_[id] == kLive; }
  // False iff every entry is live (nothing for compaction to erase).
  bool has_tombstones() const { return tombstones_ > 0; }
  size_t live_size() const { return entries_.size() - tombstones_; }

  // The live entry ids in ascending order, skipping tombstoned slots:
  // `for (EntryId id : store.live_ids())`. Every whole-relation scan
  // outside the store walks the store through this. Invalidated by any
  // mutation.
  class LiveIds {
   public:
    class iterator {
     public:
      iterator(const std::vector<uint8_t>* live, size_t id)
          : live_(live), id_(id) {
        Skip();
      }
      EntryId operator*() const { return static_cast<EntryId>(id_); }
      iterator& operator++() {
        ++id_;
        Skip();
        return *this;
      }
      friend bool operator!=(const iterator& a, const iterator& b) {
        return a.id_ != b.id_;
      }

     private:
      void Skip() {
        while (id_ < live_->size() && (*live_)[id_] != kLive) ++id_;
      }
      const std::vector<uint8_t>* live_;
      size_t id_;
    };
    explicit LiveIds(const std::vector<uint8_t>* live) : live_(live) {}
    iterator begin() const { return iterator(live_, 0); }
    iterator end() const { return iterator(live_, live_->size()); }

   private:
    const std::vector<uint8_t>* live_;
  };
  LiveIds live_ids() const { return LiveIds(&live_); }

  // --- Renumbering removal (result compaction, retraction compaction) ---

  // Removes the entries `ids` (ascending, distinct) and renumbers the rest
  // densely in their order. The survivors keep their tuples, cached pieces
  // and signature interning; the buckets, postings, liveness and
  // generation ranges are rewritten in place, so no second copy of the
  // store is ever alive. Returns the remap: remap[old id] is the new id,
  // or kErasedEntry. The remap is monotone, so whoever addresses the store
  // by id (the provenance log, ProvenanceLog::Renumber) rewrites its ids
  // through it; every id not rewritten is invalidated. Like Tombstone(), a
  // bucket emptied here is kept (SignatureId allocation is ordinal).
  // Requires exclusive access.
  std::vector<EntryId> EraseEntries(const std::vector<EntryId>& ids)
      LRPDB_LOCKS_EXCLUDED(pieces_mu_);

  // Verifies every index invariant (signature buckets partition the
  // entries, postings are sorted and complete, generation ranges are
  // well-formed). Intended for tests.
  [[nodiscard]] Status CheckConsistency() const;

  std::string ToString(const Interner* interner = nullptr) const;

 private:
  // Corrupts index internals from tests to verify that CheckConsistency
  // reports the same first inconsistency on every run (dense-ID/sorted
  // iteration order, never hash order).
  friend class TupleStoreTestPeer;

  // Immutable once appended; safe to read without a lock between mutations.
  struct Entry {
    GeneralizedTuple tuple;
    SignatureId signature = 0;
  };

  // Lazily computed residue pieces of one entry (filled at most once, under
  // pieces_mu_; immutable afterwards). Kept in a deque parallel to entries_
  // so slot references survive appends.
  struct PiecesCache {
    std::vector<NormalizedTuple> pieces;
    bool normalized = false;
  };

  struct SignatureBucket {
    SignatureId id = 0;
    std::vector<EntryId> entries;
  };

  // Appends `tuple` (with optional pre-normalized pieces) and indexes it.
  // Returns the outcome's new_signature flag.
  bool Append(GeneralizedTuple tuple, std::vector<NormalizedTuple> pieces,
              bool normalized) LRPDB_LOCKS_EXCLUDED(pieces_mu_);

  RelationSchema schema_;
  std::vector<Entry> entries_;
  std::unordered_map<FreeExtension, SignatureBucket, FreeExtensionHash>
      signature_index_;
  // data_index_[column][value] = ascending entry ids with that value.
  std::vector<std::unordered_map<DataValue, std::vector<EntryId>>> data_index_;
  size_t delta_lo_ = 0;
  size_t delta_hi_ = 0;

  // Liveness codes for live_.
  static constexpr uint8_t kDead = 0;
  static constexpr uint8_t kLive = 1;
  // live_[id]: one code per entry, maintained by Append/Tombstone.
  std::vector<uint8_t> live_;
  size_t tombstones_ = 0;

  // Serializes concurrent const readers against the fill-on-first-use
  // residue cache. Writers (Append) also hold it while growing the deque.
  mutable std::mutex pieces_mu_;
  mutable std::deque<PiecesCache> pieces_cache_ LRPDB_GUARDED_BY(pieces_mu_);

  // Retained-bytes estimate, advanced by Append. Atomic so approx_bytes()
  // stays safe and lock-free for readers concurrent with an insert.
  std::atomic<int64_t> approx_bytes_{0};
};

// --- Ground-fact storage (shared delta-generation machinery) ---

// A fully instantiated tuple: time values plus data constants.
struct GroundTuple {
  std::vector<int64_t> times;
  std::vector<DataValue> data;

  friend bool operator==(const GroundTuple& a, const GroundTuple& b) {
    return a.times == b.times && a.data == b.data;
  }
  friend bool operator<(const GroundTuple& a, const GroundTuple& b) {
    if (a.times != b.times) return a.times < b.times;
    return a.data < b.data;
  }
};

struct GroundTupleHash {
  size_t operator()(const GroundTuple& t) const {
    size_t h = 0;
    for (int64_t v : t.times) h = HashCombine(h, static_cast<size_t>(v));
    for (DataValue d : t.data) h = HashCombine(h, static_cast<size_t>(d));
    return h;
  }
};

// Append-only deduplicated set of ground facts with the same generation
// protocol as TupleStore. Backs the windowed ground evaluator's semi-naive
// loop (and Datalog1S's horizon doubling through it) without per-round
// delta-set copies. Move-only: insertion order is kept as pointers into the
// node-based hash set, which survive moves but not copies.
class GroundFactStore {
 public:
  GroundFactStore() = default;
  GroundFactStore(GroundFactStore&&) = default;
  GroundFactStore& operator=(GroundFactStore&&) = default;
  GroundFactStore(const GroundFactStore&) = delete;
  GroundFactStore& operator=(const GroundFactStore&) = delete;

  // Returns false when the fact was already present.
  bool Insert(GroundTuple fact) {
    auto [it, inserted] = set_.insert(std::move(fact));
    if (inserted) order_.push_back(&*it);
    return inserted;
  }

  bool Contains(const GroundTuple& fact) const { return set_.count(fact) > 0; }
  // std::set-compatible membership spelling, so existing call sites read on.
  size_t count(const GroundTuple& fact) const { return set_.count(fact); }

  size_t size() const { return order_.size(); }
  bool empty() const { return order_.empty(); }
  const GroundTuple& fact(size_t i) const { return *order_[i]; }

  void AdvanceGeneration() {
    delta_lo_ = delta_hi_;
    delta_hi_ = order_.size();
  }
  size_t delta_lo() const { return delta_lo_; }
  size_t delta_hi() const { return delta_hi_; }
  size_t delta_size() const { return delta_hi_ - delta_lo_; }

  // Iteration in insertion order.
  class const_iterator {
   public:
    explicit const_iterator(const GroundTuple* const* p) : p_(p) {}
    const GroundTuple& operator*() const { return **p_; }
    const GroundTuple* operator->() const { return *p_; }
    const_iterator& operator++() {
      ++p_;
      return *this;
    }
    friend bool operator==(const_iterator a, const_iterator b) {
      return a.p_ == b.p_;
    }
    friend bool operator!=(const_iterator a, const_iterator b) {
      return a.p_ != b.p_;
    }

   private:
    const GroundTuple* const* p_;
  };
  const_iterator begin() const { return const_iterator(order_.data()); }
  const_iterator end() const {
    return const_iterator(order_.data() + order_.size());
  }

 private:
  // Node-based, so the element pointers in order_ survive rehashes and
  // moves.
  std::unordered_set<GroundTuple, GroundTupleHash> set_;
  std::vector<const GroundTuple*> order_;
  size_t delta_lo_ = 0;
  size_t delta_hi_ = 0;
};

}  // namespace lrpdb

#endif  // LRPDB_GDB_TUPLE_STORE_H_
