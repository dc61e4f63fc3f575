// Signature-indexed, delta-aware tuple storage in flat arenas.
//
// Theorem 4.2's termination argument is phrased in terms of *signatures*:
// the (data constants, lrp vector) key of a generalized tuple -- its free
// extension, with the lrp vector residue-normalized (Lrp canonicalizes to
// period > 0, offset in [0, period)). The store below organizes a
// generalized relation around exactly that key:
//
//  * Rows. A relation's arity is fixed, so entry `id` is a fixed-stride
//    slice of three per-store arenas: m lrps, k data values and the
//    (m+1)^2 DBM bounds, kept exactly as they were appended (the snapshot
//    codec encodes them as is). There is no per-entry heap object:
//    tuple(id) is a borrowed TupleView over the slices, and an owned
//    GeneralizedTuple exists only where an API boundary asks for one.
//
//  * No residue pieces. Every entry is appended unnormalized, and the
//    store keeps none of its residue pieces (normalized_tuple.h): a
//    containment test that needs them, because no single entry of the
//    bucket settles it, normalizes the bucket's rows and drops the pieces
//    when it returns.
//
//  * Signature table. Free extensions are interned in a flat open-
//    addressing table of SignatureIds (ordinal, so a signature's id never
//    changes). A signature stores no key of its own: it names a
//    representative row, an entry of that signature still in the arenas,
//    and the key is that row's lrps and data, compared in place against a
//    candidate's view; a tuple's hash is computed once. Only a signature
//    whose rows were all erased keeps its key in a side arena. Each
//    signature's bucket lists its live entries. Insert's subsumption
//    test compares a candidate only against its own bucket -- an
//    O(1) probe followed by DBM work proportional to the bucket, never to
//    the whole relation. Free-extension safety (a round adding no *new*
//    signature) is read off the probe itself.
//
//  * Per-column data value indexes. For every data column, a flat open-
//    addressing table maps a DataValue to the entry ids carrying it, so
//    join sides prune candidates by any data argument already bound (a
//    constant in the atom or a variable bound by an earlier atom) instead
//    of scanning the relation.
//
//  * Id lists. A bucket or a posting is an ascending list of entry ids:
//    held inline while it has one id, and past that in a power-of-two
//    block of one pooled id arena, with a free list per block size, so the
//    block a grown list leaves is reused by the next list of that size.
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
#include <array>
#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/statusor.h"
#include "src/gdb/flat_arena.h"
#include "src/gdb/generalized_tuple.h"
#include "src/gdb/schema.h"

namespace lrpdb {

// Dense index of an entry within one TupleStore.
using EntryId = uint32_t;
// The remap value of an id that TupleStore::EraseEntries removed.
inline constexpr EntryId kErasedEntry = UINT32_MAX;
// Dense id of an interned free-extension signature within one TupleStore.
using SignatureId = uint32_t;

struct GroundTuple;

// Storage-engine counters. A plain struct owned by the caller: the store
// keeps no copy of its own, and counts only into the one passed to Insert.
// The evaluator gives each apply task its own and each round one for its
// inserts, folds them into RoundStats::store, and publishes every finished
// round to the metrics registry once.
struct StoreStats {
  // Insert path.
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
  // whose union subsumed it, borrowed from the signature's bucket (valid
  // until the store's next mutation). Why-provenance attaches the dropped
  // candidate's origin to these so derivations stay resolvable across
  // subsumption. Empty when inserted or when the candidate normalized to
  // the empty ground set.
  std::span<const EntryId> absorbers;
};

// An indexed set of generalized tuples of one schema: a generalized
// relation (paper, Section 2.1). The represented ground set is the union of
// the members' ground sets.
//
// Thread-safety contract: one writer at a time. A const operation writes
// nothing, so const operations may share the store with each other, but
// not with a mutation. The one exception is approx_bytes(), which another
// thread may call concurrently *with* a mutation (a monitoring thread
// sampling memory while an evaluation inserts) — it is a single atomic and
// never touches an arena.
class TupleStore {
 public:
  // A data-column equality requirement for a join probe: the entry's data
  // column `column` must equal `value`.
  struct DataRequirement {
    int column = 0;
    DataValue value = 0;
  };

  explicit TupleStore(RelationSchema schema);

  // Movable (relations hand stores around by value).
  TupleStore(TupleStore&& other) noexcept;
  TupleStore& operator=(TupleStore&& other) noexcept;
  TupleStore(const TupleStore&) = delete;
  TupleStore& operator=(const TupleStore&) = delete;

  const RelationSchema& schema() const { return schema_; }
  size_t size() const { return live_.size(); }
  bool empty() const { return live_.empty(); }
  // Entry `id`'s row, borrowed from the arenas: invalidated by any
  // mutation of the store.
  TupleView tuple(EntryId id) const {
    const int m = schema_.temporal_arity;
    const int k = schema_.data_arity;
    return TupleView(lrps_.data() + size_t{id} * m, m,
                     k == 0 ? nullptr : data_.data() + size_t{id} * k, k,
                     bounds_.data() + size_t{id} * BoundsStride());
  }
  size_t num_signatures() const { return signatures_.size(); }
  // The live entries interned under `signature`, ascending (a copy); empty
  // when there are none. One hash probe, whatever the store's size.
  std::vector<EntryId> EntriesWithSignature(
      const FreeExtension& signature) const;
  // Retained bytes: footprint().total(), the allocated size of every arena
  // and table, each rounded the way the C heap rounds a block. Changes only
  // with a mutation: grows as an append grows them and shrinks when
  // EraseEntries releases memory; Insert charges its growth to the
  // ExecContext byte budget. A single atomic, so a monitoring thread may
  // sample it while another thread inserts — no torn reads, no lock.
  int64_t approx_bytes() const {
    return approx_bytes_.load(std::memory_order_relaxed);
  }

  // approx_bytes() by structure. Reads the arenas, so not concurrently
  // with a mutation, like every other accessor.
  struct Footprint {
    int64_t rows = 0;        // Lrps, data, bounds, liveness.
    int64_t signatures = 0;  // Signature records, slot table, erased keys.
    int64_t postings = 0;    // Per-column posting tables.
    int64_t id_lists = 0;    // The id pool: bucket and posting lists past
                             // one id, and their free blocks.
    int64_t total() const { return rows + signatures + postings + id_lists; }
  };
  Footprint footprint() const;

  // The live entries carrying `value` in data column `column`, ascending;
  // empty when none does. One table probe. The join kernel
  // (src/core/clause_plan.h) walks the smallest applicable posting,
  // clipped to the atom's entry range with a binary search. Invalidated by
  // any mutation of the store.
  std::span<const EntryId> PostingFor(int column, DataValue value) const {
    const PostingTable& table = postings_[column];
    if (table.slots.empty()) return {};
    return Ids(table.slots[ProbePosting(table, value)].entries);
  }

  // What a caller of Insert vouches for about its row.
  enum class Row {
    // Nothing. Insert closes the row's bounds and normalizes it before the
    // bucket probe: an empty ground set is dropped there and counted as
    // empty_dropped. IncrementalEvaluator::AddFacts and the algebra insert
    // this way.
    kUnchecked,
    // A residue piece: its ground set is non-empty and its bounds are the
    // closure of a satisfiable DBM. The head projection (ApplyClauseBatch,
    // src/core/clause_plan.h) emits only such rows, so the evaluators,
    // QueryAtom and FO queries insert this way. Insert takes the bounds as
    // closed, drops nothing as empty, and normalizes the row only if it has
    // to run the union test.
    kClosedPiece,
    // A kClosedPiece row of a one-shot answer (ApplyClauseOnce), whose
    // caller accepts redundant rows: Insert drops it only when one
    // same-signature entry contains it and skips the union test, so a
    // piece that only several entries cover together is kept. The ground
    // set is the same; no row is normalized.
    kAnswerPiece,
  };

  // Exact insert: drops the tuple if its ground set is empty or contained
  // in the union of the stored tuples with the same signature (free
  // extension) -- the comparison constraint safety (paper, Section 4.3)
  // prescribes. The same-signature entries come from one bucket probe.
  // Containment across different free extensions is deliberately not
  // checked: it would require aligning unrelated periods to their lcm,
  // which explodes for coprime periods, and a tuple kept redundantly is
  // subsumed on its next re-derivation anyway.
  // A candidate whose closed DBM implies one entry's DBM is contained in
  // it, and no residue piece is computed; otherwise the candidate's and
  // the bucket's pieces are computed for the exact union test (skipped for
  // Row::kAnswerPiece) and dropped when it returns. With Row::kUnchecked the candidate's pieces are
  // computed first, to decide emptiness (see Row). A kept tuple is
  // appended as given (its bounds as they came, no pieces kept); the view
  // may point anywhere but into this store. `stats`, when non-null,
  // receives the insert-path counters; without it nothing is counted.
  // Polls ExecContext::Current() and charges it the inserted tuple and the
  // bytes the store grew by.
  [[nodiscard]] StatusOr<InsertOutcome> Insert(TupleView tuple,
                                               StoreStats* stats = nullptr,
                                               Row row = Row::kUnchecked);
  [[nodiscard]] StatusOr<InsertOutcome> Insert(const GeneralizedTuple& tuple,
                                               StoreStats* stats = nullptr) {
    return Insert(tuple.view(), stats);
  }

  // Inserts after a cheap DBM satisfiability check only; tuples empty
  // purely through lrp-residue conflicts may be stored (harmless
  // redundancy). Closes `constraint` and appends the row straight from the
  // given columns and the closed bounds, so a caller parsing many tuples
  // fills the same scratch buffers for each. Counts nothing. Returns false
  // iff dropped.
  bool InsertUnlessEmpty(ColumnSpan<Lrp> lrps, ColumnSpan<DataValue> data,
                         const Dbm& constraint);
  bool InsertUnlessEmpty(const GeneralizedTuple& tuple) {
    return InsertUnlessEmpty(tuple.lrps(), tuple.data(), tuple.constraint());
  }

  // --- Snapshot restore (src/storage) ---

  // Appends `tuple` exactly as stored on disk: no emptiness or subsumption
  // filtering, no stats, every index maintained. Snapshot load replays the
  // original entry sequence through this, so entry ids, signature interning
  // order, and postings come back identical to the snapshotted store.
  // Requires exclusive access, like every mutation.
  [[nodiscard]] Status RestoreEntry(const GeneralizedTuple& tuple);

  // Restores the generation ranges saved with the entries. Must be called
  // after the final RestoreEntry; validates 0 <= lo <= hi <= size().
  [[nodiscard]] Status RestoreGenerations(size_t lo, size_t hi);

  // --- Delta generations ---

  // Promotes generations: the entries appended since the previous call
  // become the delta; the previous delta joins "current".
  void AdvanceGeneration() {
    delta_lo_ = delta_hi_;
    delta_hi_ = size();
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
  // whole-store scans go through live_ids(). The slot keeps its row until
  // EraseEntries reclaims it.

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
  size_t live_size() const { return size() - tombstones_; }

  // The live entry ids in ascending order, skipping tombstoned slots:
  // `for (EntryId id : store.live_ids())`. Every whole-relation scan
  // outside the store walks the store through this. Invalidated by any
  // mutation.
  class LiveIds {
   public:
    class iterator {
     public:
      iterator(const uint8_t* live, size_t size, size_t id)
          : live_(live), size_(size), id_(id) {
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
        while (id_ < size_ && live_[id_] != kLive) ++id_;
      }
      const uint8_t* live_;
      size_t size_;
      size_t id_;
    };
    LiveIds(const uint8_t* live, size_t size) : live_(live), size_(size) {}
    iterator begin() const { return iterator(live_, size_, 0); }
    iterator end() const { return iterator(live_, size_, size_); }

   private:
    const uint8_t* live_;
    size_t size_;
  };
  LiveIds live_ids() const { return LiveIds(live_.data(), live_.size()); }

  // --- Renumbering removal (retraction compaction) ---

  // Removes the entries `ids` (ascending, distinct) and renumbers the rest
  // densely in their order. The survivors keep their rows and signature
  // interning; every arena, the id pool included, is compacted in place and
  // then shrunk to fit, and the buckets, liveness and generation ranges are
  // rewritten in place, so no second copy of the rows is ever alive (the
  // posting tables are refiled to fit the survivors). A signature whose
  // representative row is erased moves it to a surviving bucket entry, or,
  // with none left, copies its key to the erased-key arenas. Returns the remap: remap[old id] is the
  // new id, or kErasedEntry. The remap is monotone, so whoever addresses
  // the store by id (the provenance log, ProvenanceLog::Renumber) rewrites
  // its ids through it; every id not rewritten is invalidated. Like
  // Tombstone(), a bucket emptied here is kept (SignatureId allocation is
  // ordinal).
  std::vector<EntryId> EraseEntries(const std::vector<EntryId>& ids);

  // Verifies every index invariant (every signature's representative row
  // carries its key, signature buckets partition the live entries, the
  // table finds every key, postings are sorted and complete, id lists lie
  // in the pool, generation ranges are well-formed). Intended for tests.
  [[nodiscard]] Status CheckConsistency() const;

  // --- The ground set (the union of the live entries' ground sets) ---

  // True iff some live entry's ground set holds the point (times, data).
  bool ContainsGround(const std::vector<int64_t>& times,
                      const std::vector<DataValue>& data) const;

  // All ground tuples whose time values all lie in [lo, hi), sorted and
  // deduplicated. Intended for tests and the ground baseline; cost is
  // O(window^arity) per stored tuple.
  std::vector<GroundTuple> EnumerateGround(int64_t lo, int64_t hi) const;

  std::string ToString(const Interner* interner = nullptr) const;

  // The store itself. Exists only for perfbench, whose sources still spell
  // store() on a relation.
  const TupleStore& store() const { return *this; }

 private:
  // Corrupts index internals from tests to verify that CheckConsistency
  // reports the same first inconsistency on every run (dense-ID/sorted
  // iteration order, never hash order).
  friend class TupleStoreTestPeer;

  static constexpr SignatureId kNoSignature = UINT32_MAX;
  static constexpr uint32_t kNoBlock = UINT32_MAX;
  // A representative with this bit set is an index into the erased-key
  // arenas, not an entry id; entry ids stay below it.
  static constexpr uint32_t kErasedKey = uint32_t{1} << 31;

  // An ascending list of entry ids: empty, one id held inline in `ref`, or
  // `size` ids at offset `ref` of id_pool_, in a block of bit_ceil(size)
  // slots.
  struct IdList {
    uint32_t ref = 0;
    uint32_t size = 0;
  };

  // An interned signature: the row its key is read from (an entry of this
  // signature, live or tombstoned, or kErasedKey | i for the i-th erased
  // key) and its live entries.
  struct SignatureRecord {
    uint32_t representative = 0;
    IdList entries;
  };

  // One open-addressing slot: the upper half of the key hash (a cheap
  // pre-check) and the signature id, kNoSignature when empty.
  struct Slot {
    uint32_t tag = 0;
    SignatureId id = kNoSignature;
  };

  // One data column's posting table: open addressing with linear probing,
  // a power of two at most 3/4 full. A slot is a value and its live
  // entries; an empty list marks a free slot.
  struct Posting {
    DataValue value = 0;
    IdList entries;
  };
  struct PostingTable {
    std::vector<Posting> slots;
    size_t count = 0;
  };

  // A signature's key, borrowed from its representative row or from the
  // erased-key arenas.
  struct Key {
    ColumnSpan<Lrp> lrps;
    ColumnSpan<DataValue> data;
  };

  // Arena strides, in elements.
  int BoundsStride() const {
    return (schema_.temporal_arity + 1) * (schema_.temporal_arity + 1);
  }

  // The signature hash of a free extension, computed once per tuple.
  static uint64_t HashSignature(ColumnSpan<Lrp> lrps,
                                ColumnSpan<DataValue> data);
  Key SignatureKey(SignatureId id) const;
  bool KeyEquals(SignatureId id, ColumnSpan<Lrp> lrps,
                 ColumnSpan<DataValue> data) const;
  // The signature with this key, or kNoSignature.
  SignatureId FindSignature(ColumnSpan<Lrp> lrps, ColumnSpan<DataValue> data,
                            uint64_t hash) const;
  // Interns the key of row `entry` (already appended), which no signature
  // has yet, with that row as representative.
  SignatureId CreateSignature(EntryId entry, uint64_t hash);
  // Doubles the slot table and re-files every signature.
  void GrowTable();
  void AddToBucket(SignatureId id, EntryId entry);

  // --- Id lists ---
  // The ids of `list`, which must not be a temporary: a one-id list's span
  // points at its `ref`.
  std::span<const EntryId> Ids(const IdList& list) const {
    if (list.size <= 1) return {&list.ref, list.size};
    return {id_pool_.data() + list.ref, list.size};
  }
  // A free block of 2^log2 slots: a reused one, or new at the pool's end.
  uint32_t AllocateBlock(int log2);
  void FreeBlock(uint32_t offset, int log2);
  // Appends `id`, which must exceed every id in the list.
  void PushId(IdList* list, EntryId id);
  // Removes `id` if the list holds it, halving the block when the rest
  // fits in half of it.
  void RemoveId(IdList* list, EntryId id);

  // --- Posting tables ---
  // The slot holding `value`, or the free slot where it would go. The
  // table must have slots.
  static size_t ProbePosting(const PostingTable& table, DataValue value);
  void AddPosting(int column, EntryId id);
  void RemovePosting(int column, EntryId id);
  // Re-files the non-empty postings into a table of `slots` slots.
  static void RefilePostings(PostingTable* table, size_t slots);

  // Appends `tuple` as given and indexes it under `signature`:
  // FindSignature's result for the tuple's key and `hash`, so kNoSignature
  // creates the signature. Each caller probes exactly once.
  void Append(TupleView tuple, uint64_t hash, SignatureId signature);

  // Republishes footprint().total() as approx_bytes_ (the writer is the
  // only thread that changes it).
  void UpdateBytes() {
    approx_bytes_.store(footprint().total(), std::memory_order_relaxed);
  }

  RelationSchema schema_;

  // Rows, indexed by EntryId with fixed strides.
  FlatArena<Lrp> lrps_;        // m per entry.
  FlatArena<DataValue> data_;  // k per entry.
  FlatArena<Bound> bounds_;    // (m+1)^2 per entry, as appended.
  // Liveness codes for live_.
  static constexpr uint8_t kDead = 0;
  static constexpr uint8_t kLive = 1;
  // live_[id]: one code per entry, maintained by Append/Tombstone. Its
  // size is the entry count.
  FlatArena<uint8_t> live_;
  size_t tombstones_ = 0;

  // Signature table: records indexed by SignatureId, and a power-of-two
  // open-addressing table over them, at most 3/4 full; linear probing.
  FlatArena<SignatureRecord> signatures_;
  std::vector<Slot> slots_;
  // Erased keys: the i-th is signature erased_ids_[i]'s, m lrps and k data
  // values.
  FlatArena<SignatureId> erased_ids_;
  FlatArena<Lrp> erased_lrps_;
  FlatArena<DataValue> erased_data_;

  // postings_[column]: DataValue -> ascending live entry ids.
  std::vector<PostingTable> postings_;

  // The blocks of every bucket and posting list past one id, and
  // free_blocks_[log2]: the first free block of 2^log2 slots, whose first
  // slot links the next (kNoBlock ends a list).
  FlatArena<EntryId> id_pool_;
  std::array<uint32_t, 32> free_blocks_;

  size_t delta_lo_ = 0;
  size_t delta_hi_ = 0;

  // Insert's copy of the candidate's DBM for the single-entry containment
  // test, kept so the copy reuses one block instead of allocating per
  // candidate.
  Dbm candidate_closure_{0};

  // footprint().total(), republished after every change to an allocation.
  // Atomic so approx_bytes() stays safe and lock-free for readers
  // concurrent with an insert.
  std::atomic<int64_t> approx_bytes_{0};
};

// The paper's name for the set of generalized tuples of one schema.
using GeneralizedRelation = TupleStore;

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
