// Thin RTP/RTCP-style layer over the unreliable datagram substrate
// (paper §5.1: "a thin layer based on the RTP-RTCP scheme is built on top
// of the communication substrate to provide limited in-order delivery
// assurance").
//
// Deviation from RFC 3550, documented: our packets carry explicit
// (fragment_index, fragment_count) fields rather than only a marker bit,
// because the progressive image codec wants to decode *whatever subset of
// fragments arrived* — each fragment is independently meaningful. Loss,
// reordering and duplication handling plus the RFC 3550 jitter estimator
// are otherwise faithful. Packets additionally carry a CRC-32C
// (util/crc32c.hpp) over header fields and payload (real RTP leans on
// UDP/IP checksums we do not model): decode rejects corrupted packets so a
// bit-flipped payload can never reach reassembly, counting them in the
// "rtp.corrupt_detected" telemetry family.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "collabqos/serde/chain.hpp"
#include "collabqos/serde/wire.hpp"
#include "collabqos/sim/time.hpp"
#include "collabqos/telemetry/counter_set.hpp"
#include "collabqos/util/flat_table.hpp"
#include "collabqos/util/result.hpp"
#include "collabqos/util/stats.hpp"

namespace collabqos::net {

/// One RTP-style packet (a fragment of an application object). The
/// payload is a SharedBytes *view*: on the send side a slice of the
/// object's single encode buffer, on the receive side a slice of the
/// arriving datagram — nothing on the nominal path copies it.
struct RtpPacket {
  std::uint32_t ssrc = 0;          ///< sender stream identifier
  std::uint16_t sequence = 0;      ///< per-stream, wraps at 2^16
  std::uint32_t timestamp = 0;     ///< media timestamp / object id
  std::uint8_t payload_type = 0;   ///< application media type tag
  std::uint16_t fragment_index = 0;
  std::uint16_t fragment_count = 1;
  serde::SharedBytes payload;

  /// Zero-copy wire form: a freshly written ~24-byte header slice
  /// chained with the payload view. What the datagram layer transmits.
  [[nodiscard]] serde::ByteChain wire() const;
  /// Zero-copy decode: header fields are read across the chain's slices
  /// and the payload comes out as a view of the input's storage.
  [[nodiscard]] static Result<RtpPacket> decode(const serde::ByteChain& bytes);
};

/// Fragments application objects into RTP packets.
class RtpPacketizer {
 public:
  RtpPacketizer(std::uint32_t ssrc, std::size_t mtu_payload) noexcept;

  /// Zero-copy fragmentation: split one encode buffer into packets whose
  /// payloads are slices of `object` — no fragment materialises bytes.
  /// `timestamp` identifies the object (monotonically increasing).
  [[nodiscard]] std::vector<RtpPacket> packetize_views(
      const serde::SharedBytes& object, std::uint8_t payload_type,
      std::uint32_t timestamp);

  /// Packets an object of `object_bytes` splits into (one when empty).
  /// packetize_views requires at most kMaxFragments; callers that take
  /// objects from outside check this first.
  [[nodiscard]] std::size_t fragments_for(
      std::size_t object_bytes) const noexcept {
    return object_bytes == 0 ? 1
                             : (object_bytes + mtu_payload_ - 1) / mtu_payload_;
  }
  /// The 16-bit fragment fields' limit on packets per object.
  static constexpr std::size_t kMaxFragments = UINT16_MAX;

  [[nodiscard]] std::uint16_t next_sequence() const noexcept {
    return sequence_;
  }
  [[nodiscard]] std::uint32_t ssrc() const noexcept { return ssrc_; }

 private:
  std::uint32_t ssrc_;
  std::size_t mtu_payload_;
  std::uint16_t sequence_ = 0;
};

/// A reassembled (possibly partial) application object.
struct RtpObject {
  std::uint32_t ssrc = 0;
  std::uint32_t timestamp = 0;
  std::uint8_t payload_type = 0;
  std::uint16_t fragments_received = 0;
  std::uint16_t fragment_count = 0;
  bool complete = false;
  /// Virtual time the first fragment of this object arrived (receiver-side
  /// metadata; the telemetry layer spans reassembly from it).
  sim::TimePoint first_fragment_at{};
  /// Fragment payload views in index order; missing ones are empty.
  std::vector<serde::SharedBytes> fragments;

  /// Zero-copy reassembly: the received fragments in order (gaps
  /// skipped) as a chain of views. When every fragment is an in-order
  /// slice of one sender-side encode, the chain coalesces back to a
  /// single contiguous slice.
  [[nodiscard]] serde::ByteChain payload_chain() const;
};

/// RFC 3550-shaped receiver statistics for one source.
struct ReceiverReport {
  std::uint32_t ssrc = 0;
  std::uint32_t packets_received = 0;
  std::uint32_t packets_expected = 0;
  std::int64_t cumulative_lost = 0;
  double fraction_lost = 0.0;        ///< over the last report interval
  double interarrival_jitter_us = 0.0;
  std::uint16_t highest_sequence = 0;
};

/// The receiver's counters, declared once (telemetry/counter_set.hpp).
#define COLLABQOS_RTP_RECEIVER_COUNTERS(X)                                     \
  X(evicted, "rtp.reassembly.evicted") /* pending objects budget-flushed */

/// Point-in-time view of one receiver's counters.
struct RtpReceiverStats {
  COLLABQOS_COUNTER_FIELDS(COLLABQOS_RTP_RECEIVER_COUNTERS)
};

/// Per-source reassembly and statistics. Objects are delivered to the
/// callback when complete, or flushed partial after `flush_after` of
/// inactivity (limited in-order assurance, not full reliability).
///
/// A one-fragment object goes straight from the packet to the callback
/// without entering the pending table. Every sweep over pending objects
/// (summaries, flushes, budget evictions) walks them in ascending
/// (ssrc, timestamp) order. DESIGN.md §14 describes the tables.
class RtpReceiver {
 public:
  using ObjectHandler = std::function<void(const RtpObject&)>;

  struct Options {
    sim::Duration flush_after = sim::Duration::millis(200);
    /// Budget for payload bytes held across all pending (incomplete)
    /// objects; 0 = unbounded. Past it the stalest pending objects are
    /// force-flushed (delivered partial, like a flush_stale hit) until
    /// back under budget, so sustained loss cannot grow reassembly
    /// memory without bound. Evictions count in the
    /// "rtp.reassembly.evicted" telemetry family; the live footprint is
    /// the "rtp.reassembly.pending_bytes" gauge. Size the budget above
    /// the largest single object or it will be flushed the same way.
    std::size_t pending_byte_budget = 0;
  };

  explicit RtpReceiver(Options options);
  explicit RtpReceiver(sim::Duration flush_after = sim::Duration::millis(200))
      : RtpReceiver(Options{flush_after, 0}) {}

  void on_object(ObjectHandler handler) { handler_ = std::move(handler); }

  /// Feed one raw datagram payload; returns malformed for undecodable
  /// bytes, ok otherwise (duplicates and stale packets are absorbed).
  /// Zero-copy: the stored fragment is a view of the datagram's storage.
  Status ingest(const serde::ByteChain& bytes, sim::TimePoint now);
  /// Feed an already-decoded packet (callers that need the header for
  /// source bookkeeping decode once and pass it through).
  Status ingest(RtpPacket packet, sim::TimePoint now);

  /// Flush objects idle since before `now - flush_after` (call from a
  /// periodic timer). Returns the number of partial objects delivered.
  std::size_t flush_stale(sim::TimePoint now);

  /// An incomplete object awaiting fragments (ARQ feedback material).
  struct PendingSummary {
    std::uint32_t ssrc = 0;
    std::uint32_t timestamp = 0;
    sim::Duration age{};  ///< since the last fragment arrived
    std::vector<std::uint16_t> missing;
  };
  /// Snapshot of every pending object (the NACK scheduler walks this).
  [[nodiscard]] std::vector<PendingSummary> pending_summaries(
      sim::TimePoint now) const;

  /// Refresh an object's idle clock (a NACK was sent on its behalf, so
  /// give the retransmissions time before flushing partial).
  void touch(std::uint32_t ssrc, std::uint32_t timestamp,
             sim::TimePoint now);

  /// Whether the object is currently awaiting fragments.
  [[nodiscard]] bool is_pending(std::uint32_t ssrc,
                                std::uint32_t timestamp) const {
    return pending_.contains(object_key(ssrc, timestamp));
  }

  /// (ssrc, timestamp) packed into one table key. Ascending key order is
  /// ssrc first, then timestamp.
  [[nodiscard]] static constexpr std::uint64_t object_key(
      std::uint32_t ssrc, std::uint32_t timestamp) noexcept {
    return (std::uint64_t{ssrc} << 32) | timestamp;
  }

  /// Receiver report for one source since the last call (interval stats
  /// reset; cumulative stats persist).
  [[nodiscard]] Result<ReceiverReport> report(std::uint32_t ssrc);

  [[nodiscard]] std::size_t pending_objects() const noexcept {
    return pending_.size();
  }
  /// Payload bytes currently held by pending objects.
  [[nodiscard]] std::size_t pending_bytes() const noexcept {
    return pending_bytes_;
  }
  [[nodiscard]] RtpReceiverStats stats() const noexcept {
    return counters_.view();
  }

 private:
  struct SourceState {
    bool seen = false;
    std::uint16_t base_sequence = 0;
    std::uint32_t highest_extended = 0;   ///< extended seq (with cycles)
    std::uint32_t packets_received = 0;
    std::uint32_t interval_received = 0;
    std::uint32_t interval_expected_base = 0;
    double jitter_us = 0.0;
    sim::TimePoint last_arrival{};
    std::uint32_t last_rtp_timestamp = 0;
    bool have_arrival = false;
  };
  struct PendingObject {
    RtpObject object;
    std::vector<bool> received;  ///< distinguishes missing from empty
    sim::TimePoint last_update{};
    std::size_t stored_bytes = 0;  ///< payload bytes held (budget share)
  };

  /// Registry-backed reassembly counters; RtpReceiverStats is the view.
  COLLABQOS_COUNTER_SET(Counters, RtpReceiverStats,
                        COLLABQOS_RTP_RECEIVER_COUNTERS);

  void update_stats(SourceState& state, const RtpPacket& packet,
                    sim::TimePoint now);
  /// Hands a one-fragment object to the callback without a pending entry.
  void deliver_single(RtpPacket& packet, sim::TimePoint now);
  void deliver(PendingObject& pending);
  /// Moves the pending object under `key` out of the table, then delivers
  /// it partial (flush or budget eviction); false when it is not pending.
  bool flush(std::uint64_t key);
  void remember_completed(std::uint64_t key);
  void forget_bytes(const PendingObject& pending) noexcept;
  void enforce_budget();

  ObjectHandler handler_;
  Options options_;
  std::size_t pending_bytes_ = 0;
  Counters counters_;
  /// Live reassembly footprint ("rtp.reassembly.pending_bytes").
  telemetry::Gauge pending_bytes_gauge_;
  telemetry::Registration pending_bytes_registration_;
  FlatMap<SourceState> sources_;          ///< keyed by ssrc
  FlatMap<PendingObject> pending_;        ///< keyed by object_key()
  /// At-most-once delivery: the last kCompletedMemory completed objects
  /// absorb late duplicate fragments instead of re-opening. The ring holds
  /// their keys oldest-first from `completed_next_`; the set answers
  /// membership.
  FlatMap<std::uint8_t> completed_;  ///< membership only; values unused
  std::vector<std::uint64_t> completed_ring_;
  std::size_t completed_next_ = 0;
  static constexpr std::size_t kCompletedMemory = 4096;
  /// Reused by the single-fragment bypass; while a callback runs on it
  /// (`single_busy_`), a re-entrant ingest delivers through a fresh one.
  RtpObject single_;
  bool single_busy_ = false;
  std::vector<std::uint64_t> sweep_keys_;  ///< flush_stale's scratch
};

}  // namespace collabqos::net
