// Open-addressed hash map from 64-bit keys, for bookkeeping that runs on
// every datagram (RTP reassembly, the at-most-once memory, ARQ state). A
// std::map there pays a node allocation per insert and a pointer chase
// per level; this table keeps its entries in one flat slot array,
// allocates only when it grows, and erases without tombstones.
//
// Iteration order is unspecified. Walks whose order is observable (NACK
// send order, flush order, eviction tie-breaks) sort the keys first:
// sorted_keys() yields them ascending, which is the order a std::map
// keyed the same way would visit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace collabqos {

/// Linear probing over a power-of-two array kept at most half full, with
/// Fibonacci hashing of the key and backward-shift deletion. Each slot
/// holds its key, occupancy and value together, so a probe of a table
/// with small values touches one cache line. `Value` must be
/// default-constructible and movable; an erased slot is reset to
/// `Value{}`, so values holding buffers release them at erase.
template <typename Value>
class FlatMap {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] Value* find(std::uint64_t key) noexcept {
    const std::size_t slot = locate(key);
    return slot == kNone ? nullptr : &slots_[slot].value;
  }
  [[nodiscard]] const Value* find(std::uint64_t key) const noexcept {
    const std::size_t slot = locate(key);
    return slot == kNone ? nullptr : &slots_[slot].value;
  }
  [[nodiscard]] bool contains(std::uint64_t key) const noexcept {
    return locate(key) != kNone;
  }

  /// The value under `key`, default-constructed when absent; `second`
  /// says whether it was inserted. Growing invalidates pointers into the
  /// table.
  std::pair<Value*, bool> try_emplace(std::uint64_t key) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    std::size_t i = home(key);
    for (; slots_[i].used; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return {&slots_[i].value, false};
    }
    slots_[i].used = true;
    slots_[i].key = key;
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Removes `key`; false when it was absent.
  bool erase(std::uint64_t key) {
    const std::size_t slot = locate(key);
    if (slot == kNone) return false;
    erase_slot(slot);
    return true;
  }

  /// Calls `fn(key, value)` for every entry, in unspecified order. `fn`
  /// must not insert or erase.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.used) fn(slot.key, slot.value);
    }
  }

  /// Replaces `out` with every key, ascending.
  void sorted_keys(std::vector<std::uint64_t>& out) const {
    out.clear();
    out.reserve(size_);
    for (const Slot& slot : slots_) {
      if (slot.used) out.push_back(slot.key);
    }
    std::sort(out.begin(), out.end());
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    bool used = false;
    Value value{};
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinCapacity = 8;

  [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  [[nodiscard]] std::size_t locate(std::uint64_t key) const noexcept {
    if (size_ == 0) return kNone;
    for (std::size_t i = home(key); slots_[i].used; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return i;
    }
    return kNone;
  }

  void erase_slot(std::size_t hole) {
    // Pull back every later entry of the probe run that may live in the
    // hole: one whose home lies cyclically at or before the hole.
    for (std::size_t next = (hole + 1) & mask_; slots_[next].used;
         next = (next + 1) & mask_) {
      const std::size_t want = home(slots_[next].key);
      if (((next - want) & mask_) >= ((next - hole) & mask_)) {
        slots_[hole].key = slots_[next].key;
        slots_[hole].value = std::move(slots_[next].value);
        hole = next;
      }
    }
    slots_[hole].used = false;
    slots_[hole].value = Value{};
    --size_;
  }

  void grow() {
    const std::size_t capacity = std::max(kMinCapacity, slots_.size() * 2);
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64;
    for (std::size_t c = capacity; c > 1; c >>= 1) --shift_;
    for (Slot& slot : old) {
      if (!slot.used) continue;
      std::size_t i = home(slot.key);
      while (slots_[i].used) i = (i + 1) & mask_;
      slots_[i].used = true;
      slots_[i].key = slot.key;
      slots_[i].value = std::move(slot.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace collabqos
