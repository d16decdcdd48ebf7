// Receiver-side selector decode cache. Steady-state streams re-send the
// same selector with every message (paper §3: the selector rides on each
// message, not on a subscription); decoding and compiling it per message
// dominates the receive path. The cache fingerprints the selector's wire
// bytes in place — no allocation, no decode — and on a hit returns the
// previously compiled Selector, skipping the reader past the bytes.
#pragma once

#include <cstdint>
#include <list>
#include <span>
#include <vector>

#include "collabqos/pubsub/selector.hpp"
#include "collabqos/serde/wire.hpp"
#include "collabqos/telemetry/counter_set.hpp"
#include "collabqos/util/flat_table.hpp"
#include "collabqos/util/result.hpp"

namespace collabqos::pubsub {

/// The cache's counters, declared once (telemetry/counter_set.hpp;
/// registry families "pubsub.selector_cache.*").
#define COLLABQOS_SELECTOR_CACHE_COUNTERS(X)                                   \
  X(hits, "pubsub.selector_cache.hits")                                        \
  X(misses, "pubsub.selector_cache.misses")                                    \
  X(collisions, "pubsub.selector_cache.collisions") /* same hash, new bytes */ \
  X(evictions, "pubsub.selector_cache.evictions")

/// Bounded LRU map from selector-encoding fingerprint to compiled
/// Selector. Fingerprints can collide; every hit is confirmed by a byte
/// compare against the stored encoding, so a collision degrades to a
/// fresh decode (counted in stats), never a wrong selector.
class SelectorCache {
 public:
  /// Fingerprint function over the selector's encoded bytes. Injectable
  /// so tests can force collisions with a constant hash.
  using HashFn = std::uint64_t (*)(std::span<const std::uint8_t>);

  /// Point-in-time view of the cache's counters.
  struct Stats {
    COLLABQOS_COUNTER_FIELDS(COLLABQOS_SELECTOR_CACHE_COUNTERS)
  };

  static constexpr std::size_t kDefaultCapacity = 128;

  /// `capacity` is at least 1.
  explicit SelectorCache(std::size_t capacity = kDefaultCapacity,
                         HashFn hash = &fingerprint);

  /// Decode the selector at the reader's cursor. On a cache hit the
  /// reader skips the encoded bytes without decoding them; on a miss it
  /// decodes normally and the result is cached. Identical in observable
  /// effect to Selector::decode(r): a fault latches in `r`.
  [[nodiscard]] Selector decode(serde::Reader& r);

  /// FNV-1a (64-bit) — the default HashFn.
  static std::uint64_t fingerprint(std::span<const std::uint8_t> bytes);

  [[nodiscard]] Stats stats() const noexcept { return stats_.view(); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Entry {
    std::uint64_t key;
    std::vector<std::uint8_t> bytes;  ///< exact encoding: collision guard
    Selector selector;
  };

  /// Registry-backed counters; Stats is the cheap view.
  COLLABQOS_COUNTER_SET(Counters, Stats, COLLABQOS_SELECTOR_CACHE_COUNTERS);

  std::size_t capacity_;
  HashFn hash_;
  std::list<Entry> lru_;  ///< front = most recently used
  FlatMap<std::list<Entry>::iterator> entries_;  ///< fingerprint -> entry
  Counters stats_;
};

}  // namespace collabqos::pubsub
