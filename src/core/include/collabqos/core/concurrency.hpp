// Concurrency control (paper §2): "the process of arbitration and
// consistency maintenance when multiple clients concurrently manipulate
// the same set of shared objects."
//
// The substrate is peer-to-peer (no central arbitrator), so consistency
// comes from a deterministic total order: every operation carries a
// Lamport timestamp and the originating peer id; replicas keep a
// per-object operation log ordered by (timestamp, peer) and materialise
// state by folding the log. Identical op sets yield identical state at
// every replica regardless of arrival interleaving, and "no information
// is lost" when two clients act simultaneously — both operations persist,
// deterministically ordered.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "collabqos/serde/chain.hpp"
#include "collabqos/serde/wire.hpp"
#include "collabqos/util/result.hpp"

namespace collabqos::core {

/// Lamport logical clock.
class LamportClock {
 public:
  /// Advance for a local event; returns the new timestamp.
  std::uint64_t tick() noexcept { return ++time_; }
  /// Merge a remote timestamp (receive rule).
  void observe(std::uint64_t remote) noexcept {
    if (remote > time_) time_ = remote;
    ++time_;
  }
  [[nodiscard]] std::uint64_t now() const noexcept { return time_; }

 private:
  std::uint64_t time_ = 0;
};

/// One shared-object operation.
struct Operation {
  std::string object_id;
  std::uint64_t lamport = 0;
  std::uint64_t peer = 0;
  std::string kind;       ///< application-defined ("stroke", "bid", ...)
  serde::Bytes payload;

  /// Total order key.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> order_key()
      const noexcept {
    return {lamport, peer};
  }

  [[nodiscard]] serde::Bytes encode() const;
  [[nodiscard]] static Result<Operation> decode(
      std::span<const std::uint8_t> bytes);
  /// Decode from a zero-copy payload view (gathers only if fragmented).
  [[nodiscard]] static Result<Operation> decode(const serde::ByteChain& bytes);
};

/// Per-object totally ordered, deduplicated operation log.
class ObjectLog {
 public:
  /// Insert an operation; false when (lamport, peer) was already seen.
  bool insert(Operation operation);

  [[nodiscard]] std::size_t size() const noexcept { return ordered_.size(); }

  /// Operations in total order.
  [[nodiscard]] std::vector<const Operation*> ordered() const;

  /// Fold the ordered log into a state value.
  template <typename State, typename Fold>
  [[nodiscard]] State materialize(State initial, Fold&& fold) const {
    for (const auto& [key, operation] : ordered_) {
      fold(initial, operation);
    }
    return initial;
  }

  /// Deterministic digest of the ordered (lamport, peer, payload) stream.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  std::map<std::pair<std::uint64_t, std::uint64_t>, Operation> ordered_;
};

/// The per-client concurrency controller: stamps local operations,
/// merges remote ones, exposes per-object logs.
class ConcurrencyController {
 public:
  explicit ConcurrencyController(std::uint64_t peer_id) noexcept
      : peer_id_(peer_id) {}

  /// Create a locally originated operation (stamps clock, peer).
  [[nodiscard]] Operation originate(std::string object_id, std::string kind,
                                    serde::Bytes payload);

  /// Merge any operation (local echo or remote); false on duplicate.
  bool integrate(Operation operation);

  [[nodiscard]] const ObjectLog* log(std::string_view object_id) const;
  [[nodiscard]] LamportClock& clock() noexcept { return clock_; }

  /// Digest across all objects (replica-convergence checks).
  [[nodiscard]] std::uint64_t digest() const;

 private:
  std::uint64_t peer_id_;
  LamportClock clock_;
  std::map<std::string, ObjectLog, std::less<>> logs_;
};

}  // namespace collabqos::core
