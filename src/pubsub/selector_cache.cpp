#include "collabqos/pubsub/selector_cache.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace collabqos::pubsub {

SelectorCache::SelectorCache(std::size_t capacity, HashFn hash)
    : capacity_(capacity), hash_(hash) {
  assert(capacity >= 1);  // a miss evicts lru_.back() once full
  stats_.attach(telemetry::MetricsRegistry::global());
}

std::uint64_t SelectorCache::fingerprint(std::span<const std::uint8_t> bytes) {
  // FNV-1a over 8-byte lanes with an extra shift-xor to diffuse across
  // lane boundaries; tail bytes go through classic byte-wise FNV. One
  // multiply per 8 bytes keeps the fingerprint cheap on the per-message
  // path, and collisions only cost a fallback decode, never correctness.
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = 14695981039346656037ull;
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t lane;
    std::memcpy(&lane, bytes.data() + i, sizeof(lane));
    h = (h ^ lane) * kPrime;
    h ^= h >> 29;
  }
  for (; i < bytes.size(); ++i) h = (h ^ bytes[i]) * kPrime;
  return h;
}

Selector SelectorCache::decode(serde::Reader& r) {
  // Find the selector's byte span without decoding it. If the structural
  // scan rejects the input, defer to the real decoder for the error.
  const auto span = r.remaining_span();
  const auto length = encoded_selector_length(span);
  if (!length) return Selector::decode(r);
  const auto bytes = span.subspan(0, length.value());
  const std::uint64_t key = hash_(bytes);

  if (std::list<Entry>::iterator* slot = entries_.find(key)) {
    const std::list<Entry>::iterator it = *slot;
    Entry& entry = *it;
    if (entry.bytes.size() == bytes.size() &&
        std::equal(entry.bytes.begin(), entry.bytes.end(), bytes.begin())) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it);
      r.skip(bytes.size());
      return entry.selector;
    }
    // Same fingerprint, different encoding: decode fresh and let the new
    // selector take over the slot (newest wins).
    ++stats_.collisions;
    Selector selector = Selector::decode(r);
    if (!r.ok()) return selector;
    entry.bytes.assign(bytes.begin(), bytes.end());
    entry.selector = selector;
    lru_.splice(lru_.begin(), lru_, it);
    return selector;
  }

  ++stats_.misses;
  Selector selector = Selector::decode(r);
  if (!r.ok()) return selector;
  if (entries_.size() >= capacity_) {
    ++stats_.evictions;
    entries_.erase(lru_.back().key);
    lru_.pop_back();
  }
  lru_.push_front(Entry{key, {bytes.begin(), bytes.end()}, selector});
  *entries_.try_emplace(key).first = lru_.begin();
  return selector;
}

}  // namespace collabqos::pubsub
