// A flat, growable array of trivially copyable values on the C heap, the
// storage under every TupleStore arena (tuple_store.h).
//
// Unlike std::vector it can give memory back in place: ShrinkToFit()
// reallocs the block down to its size, which glibc does without copying,
// so compaction (TupleStore::EraseEntries) releases what it erased with no
// second copy alive. Growth is geometric (x1.5) from empty; nothing is
// pre-sized. allocated_bytes() is the exact size of the block asked of the
// allocator, the basis of TupleStore::approx_bytes().
#ifndef LRPDB_GDB_FLAT_ARENA_H_
#define LRPDB_GDB_FLAT_ARENA_H_

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>

#include "src/common/logging.h"

namespace lrpdb {

template <typename T>
class FlatArena {
  static_assert(std::is_trivially_copyable_v<T>,
                "FlatArena moves its elements with memcpy/realloc");

 public:
  FlatArena() = default;
  FlatArena(FlatArena&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        capacity_(std::exchange(other.capacity_, 0)) {}
  FlatArena& operator=(FlatArena&& other) noexcept {
    if (this != &other) {
      std::free(data_);
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
      capacity_ = std::exchange(other.capacity_, 0);
    }
    return *this;
  }
  FlatArena(const FlatArena&) = delete;
  FlatArena& operator=(const FlatArena&) = delete;
  ~FlatArena() { std::free(data_); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  size_t allocated_bytes() const { return capacity_ * sizeof(T); }

  void push_back(const T& value) { Append(&value, 1); }

  // Appends `n` values copied from `src`, which must not point into this
  // arena.
  void Append(const T* src, size_t n) {
    Reserve(size_ + n);
    if (n > 0) {
      std::memcpy(static_cast<void*>(data_ + size_), src, n * sizeof(T));
    }
    size_ += n;
  }

  // Appends `n` values left for the caller to write; returns the first.
  T* Extend(size_t n) {
    Reserve(size_ + n);
    size_ += n;
    return data_ + (size_ - n);
  }

  // Copies `n` values from position `from` down to position `to` <= from.
  void MoveDown(size_t to, size_t from, size_t n) {
    if (to != from && n > 0) {
      std::memmove(static_cast<void*>(data_ + to), data_ + from,
                   n * sizeof(T));
    }
  }

  // Drops every value at position >= n (n <= size()); keeps the block.
  void Truncate(size_t n) { size_ = n; }

  // Reallocates the block down to size() values, in place.
  void ShrinkToFit() { Reallocate(size_); }

 private:
  void Reserve(size_t needed) {
    if (needed <= capacity_) return;
    size_t grown = capacity_ + capacity_ / 2;
    Reallocate(grown > needed ? grown : needed);
  }

  void Reallocate(size_t capacity) {
    if (capacity == capacity_) return;
    if (capacity == 0) {
      std::free(data_);
      data_ = nullptr;
      capacity_ = 0;
      return;
    }
    void* grown = std::realloc(static_cast<void*>(data_), capacity * sizeof(T));
    LRPDB_CHECK(grown != nullptr) << "out of memory";
    data_ = static_cast<T*>(grown);
    capacity_ = capacity;
  }

  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

}  // namespace lrpdb

#endif  // LRPDB_GDB_FLAT_ARENA_H_
