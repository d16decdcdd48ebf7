// The sender's retransmit buffer: the last `capacity` RTP fragments a
// peer sent, found by (timestamp, fragment index) when a NACK asks for
// one again. A ring of packets with an open-addressed index beside it:
// remembering a fragment, on every send, allocates nothing once the ring
// has filled, where a tree keyed by the pair allocated a node per send.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "collabqos/net/rtp.hpp"
#include "collabqos/util/flat_table.hpp"

namespace collabqos::pubsub {

class RetransmitBuffer {
 public:
  /// Holds at most `capacity` packets; 0 holds none.
  explicit RetransmitBuffer(std::size_t capacity) : capacity_(capacity) {}

  /// Keeps `packet` unless one with its (timestamp, fragment index) is
  /// held already, in which case the first copy stays. When full, the
  /// packet remembered longest ago makes room.
  void remember(const net::RtpPacket& packet) {
    if (capacity_ == 0) return;
    const std::uint64_t key = key_of(packet.timestamp, packet.fragment_index);
    if (index_.contains(key)) return;
    std::size_t slot = ring_.size();
    if (slot < capacity_) {
      ring_.push_back(packet);
    } else {
      slot = oldest_;
      oldest_ = (oldest_ + 1) % capacity_;
      net::RtpPacket& evicted = ring_[slot];
      index_.erase(key_of(evicted.timestamp, evicted.fragment_index));
      evicted = packet;
    }
    *index_.try_emplace(key).first = slot;
  }

  /// The fragment, or null when it was never sent or has been evicted.
  [[nodiscard]] const net::RtpPacket* find(std::uint32_t timestamp,
                                           std::uint16_t fragment) const {
    const std::size_t* slot = index_.find(key_of(timestamp, fragment));
    return slot == nullptr ? nullptr : &ring_[*slot];
  }

  [[nodiscard]] std::size_t size() const noexcept { return ring_.size(); }

 private:
  static std::uint64_t key_of(std::uint32_t timestamp,
                              std::uint16_t fragment) noexcept {
    return std::uint64_t{timestamp} << 16 | fragment;
  }

  std::size_t capacity_;
  std::vector<net::RtpPacket> ring_;  ///< in send order until it wraps
  std::size_t oldest_ = 0;            ///< the next slot to reuse once full
  FlatMap<std::size_t> index_;        ///< packed key -> ring slot
};

}  // namespace collabqos::pubsub
