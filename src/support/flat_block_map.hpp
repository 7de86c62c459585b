// Open-addressed hash table specialized for the dependence tracker's
// per-stripe chunk tables: 64-bit chunk-index keys, linear probing, and —
// the property the probe loop relies on — keys are NEVER erased
// individually.  A chunk that has been observed once keeps its slot (and
// its Value's internal buffer capacity) for the tracker's lifetime;
// completing a task merely resets fields inside the Value.  Only clear()
// forgets keys, so probing needs no tombstones and a miss stops at the
// first empty slot.
//
// get_or_insert() may grow the table and therefore invalidates every
// previously returned Value*/Value& of this map; callers must not hold a
// reference across an insertion.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

namespace sigrt::support {

template <typename Value>
class FlatBlockMap {
 public:
  /// Reserved: no valid chunk index is all-ones (it would require the last
  /// addressable byte of the address space).
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  FlatBlockMap() = default;
  FlatBlockMap(const FlatBlockMap&) = delete;
  FlatBlockMap& operator=(const FlatBlockMap&) = delete;

  [[nodiscard]] Value* find(std::uint64_t key) noexcept {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = index_of(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmptyKey) return nullptr;
    }
  }

  /// Finds `key` or default-constructs a Value for it; `inserted` reports
  /// which.  Amortized O(1); a growth step reallocates and moves values.
  Value& get_or_insert(std::uint64_t key, bool& inserted) {
    assert(key != kEmptyKey && "chunk index collides with the empty sentinel");
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    for (std::size_t i = index_of(key);; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == key) {
        inserted = false;
        return s.value;
      }
      if (s.key == kEmptyKey) {
        s.key = key;
        ++size_;
        inserted = true;
        return s.value;
      }
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Forgets every key and destroys every value (table capacity is kept).
  void clear() {
    for (Slot& s : slots_) {
      if (s.key != kEmptyKey) {
        s.key = kEmptyKey;
        s.value = Value{};
      }
    }
    size_ = 0;
  }

 private:
  struct Slot {
    std::uint64_t key = kEmptyKey;
    Value value{};
  };

  [[nodiscard]] std::size_t index_of(std::uint64_t key) const noexcept {
    // splitmix64 finalizer: chunk indices are sequential per array, so the
    // low bits need thorough mixing before masking.
    std::uint64_t h = key;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    return static_cast<std::size_t>(h) & mask_;
  }

  void grow() {
    const std::size_t cap = slots_.empty() ? kInitialCapacity : slots_.size() * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.clear();
    slots_.resize(cap);
    mask_ = cap - 1;
    for (Slot& s : old) {
      if (s.key == kEmptyKey) continue;
      for (std::size_t i = index_of(s.key);; i = (i + 1) & mask_) {
        if (slots_[i].key == kEmptyKey) {
          slots_[i].key = s.key;
          slots_[i].value = std::move(s.value);
          break;
        }
      }
    }
  }

  static constexpr std::size_t kInitialCapacity = 64;  // power of two

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace sigrt::support
