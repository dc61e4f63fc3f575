// String interning: maps symbol names (predicate names, data constants,
// variable names) to dense int32 ids so the rest of the engine compares and
// hashes integers instead of strings.
#ifndef LRPDB_COMMON_INTERNER_H_
#define LRPDB_COMMON_INTERNER_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/logging.h"

namespace lrpdb {

// Dense id assigned by an Interner. Ids are only meaningful relative to the
// interner that produced them.
using SymbolId = int32_t;

// Bidirectional string <-> id map. Not thread-safe.
//
// The names live in `names_`, indexed by id; the lookup side is a flat
// open-addressing table of (hash tag, id) slots over them, like the
// TupleStore signature table. A probe hashes the name once and compares
// bytes only on a tag match, so a hit costs one hash, usually one slot and
// one comparison, and never allocates (tests/interner_test.cc pins that).
class Interner {
 public:
  Interner() = default;
  Interner(const Interner&) = default;
  Interner& operator=(const Interner&) = default;

  // Returns the id for `name`, creating one if needed. Only a genuinely new
  // name copies its bytes.
  SymbolId Intern(std::string_view name) {
    const uint64_t hash = Hash(name);
    if (!slots_.empty()) {
      const size_t slot = Probe(name, hash);
      if (slots_[slot].id != kEmpty) return slots_[slot].id;
    }
    const SymbolId id = static_cast<SymbolId>(names_.size());
    names_.emplace_back(name);
    if (names_.size() * 4 > slots_.size() * 3) {
      Grow();  // Re-files every name, the new one included.
    } else {
      slots_[Probe(name, hash)] = Slot{Tag(hash), id};
    }
    return id;
  }

  // Returns the id for `name` or -1 if it was never interned.
  SymbolId Find(std::string_view name) const {
    if (slots_.empty()) return -1;
    const SymbolId id = slots_[Probe(name, Hash(name))].id;
    return id == kEmpty ? -1 : id;
  }

  const std::string& NameOf(SymbolId id) const {
    LRPDB_CHECK_GE(id, 0);
    LRPDB_CHECK_LT(static_cast<size_t>(id), names_.size());
    return names_[id];
  }

  size_t size() const { return names_.size(); }

 private:
  static constexpr SymbolId kEmpty = -1;

  // The upper half of the name hash (a cheap pre-check) and the id,
  // kEmpty when the slot is free.
  struct Slot {
    uint32_t tag = 0;
    SymbolId id = kEmpty;
  };

  // Eight bytes at a time, then the MurmurHash3 finalizer: the table takes
  // the low bits for the slot and the high bits for the tag, so every bit
  // must be mixed. Inline, as most names are a few bytes long.
  static uint64_t Hash(std::string_view name) {
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ name.size();
    const char* p = name.data();
    size_t n = name.size();
    for (; n >= 8; p += 8, n -= 8) {
      uint64_t word;
      std::memcpy(&word, p, 8);
      h = (h ^ word) * 0xff51afd7ed558ccdULL;
      h ^= h >> 32;
    }
    uint64_t tail = 0;
    while (n > 0) tail = (tail << 8) | static_cast<unsigned char>(p[--n]);
    h ^= tail;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return h;
  }
  static uint32_t Tag(uint64_t hash) {
    return static_cast<uint32_t>(hash >> 32);
  }

  // The slot holding `name`, or the free slot where it would go. The table
  // is a power of two at most 3/4 full, so linear probing ends.
  size_t Probe(std::string_view name, uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    const uint32_t tag = Tag(hash);
    for (size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.id == kEmpty) return i;
      if (slot.tag == tag && names_[slot.id] == name) return i;
    }
  }

  // Doubles the table (at least 16 slots) and re-files every name.
  void Grow() {
    std::vector<Slot> grown(slots_.empty() ? 16 : slots_.size() * 2);
    const size_t mask = grown.size() - 1;
    for (SymbolId id = 0; id < static_cast<SymbolId>(names_.size()); ++id) {
      const uint64_t hash = Hash(names_[id]);
      size_t i = hash & mask;
      while (grown[i].id != kEmpty) i = (i + 1) & mask;
      grown[i] = Slot{Tag(hash), id};
    }
    slots_ = std::move(grown);
  }

  std::vector<std::string> names_;
  std::vector<Slot> slots_;
};

}  // namespace lrpdb

#endif  // LRPDB_COMMON_INTERNER_H_
