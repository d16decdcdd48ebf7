// The RTP receiver's reassembly semantics on ordered containers: pending
// objects in a std::map, the at-most-once memory as a std::set plus a
// std::deque of completion order, every walk in key order. This is how
// net::RtpReceiver kept its state before its flat tables; it stays here
// only as the reference model the randomized tests compare against.
//
// One deliberate difference from that older code: a packet whose
// fragment index is out of range is refused before a pending entry is
// created (the old code left an empty entry behind).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "collabqos/net/rtp.hpp"

namespace collabqos::net::reference {

class Receiver {
 public:
  using ObjectHandler = std::function<void(const RtpObject&)>;

  explicit Receiver(RtpReceiver::Options options) : options_(options) {}

  void on_object(ObjectHandler handler) { handler_ = std::move(handler); }

  Status ingest(RtpPacket packet, sim::TimePoint now) {
    update_stats(sources_[packet.ssrc], packet, now);
    const Key key{packet.ssrc, packet.timestamp};
    if (completed_.contains(key)) return {};
    const auto found = pending_.find(key);
    if (found != pending_.end() &&
        found->second.object.fragment_count != packet.fragment_count) {
      return Status(Errc::malformed, "fragment count mismatch within object");
    }
    if (packet.fragment_index >= packet.fragment_count) {
      return Status(Errc::malformed, "fragment index out of range");
    }
    auto [it, inserted] = pending_.try_emplace(key);
    Pending& pending = it->second;
    if (inserted) {
      pending.object.ssrc = packet.ssrc;
      pending.object.timestamp = packet.timestamp;
      pending.object.payload_type = packet.payload_type;
      pending.object.fragment_count = packet.fragment_count;
      pending.object.fragments.resize(packet.fragment_count);
      pending.received.assign(packet.fragment_count, false);
      pending.object.first_fragment_at = now;
    }
    if (pending.received[packet.fragment_index]) return {};
    pending.received[packet.fragment_index] = true;
    const std::size_t bytes = packet.payload.size();
    pending.object.fragments[packet.fragment_index] = std::move(packet.payload);
    ++pending.object.fragments_received;
    pending.stored_bytes += bytes;
    pending_bytes_ += bytes;
    pending.last_update = now;
    if (pending.object.fragments_received == pending.object.fragment_count) {
      pending.object.complete = true;
      pending_bytes_ -= pending.stored_bytes;
      deliver(pending);
      remember_completed(key);
      pending_.erase(it);
    } else {
      enforce_budget();
    }
    return {};
  }

  std::size_t flush_stale(sim::TimePoint now) {
    std::size_t flushed = 0;
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (now - it->second.last_update >= options_.flush_after) {
        pending_bytes_ -= it->second.stored_bytes;
        deliver(it->second);
        it = pending_.erase(it);
        ++flushed;
      } else {
        ++it;
      }
    }
    return flushed;
  }

  [[nodiscard]] std::vector<RtpReceiver::PendingSummary> pending_summaries(
      sim::TimePoint now) const {
    std::vector<RtpReceiver::PendingSummary> out;
    for (const auto& [key, pending] : pending_) {
      RtpReceiver::PendingSummary summary;
      summary.ssrc = key.ssrc;
      summary.timestamp = key.timestamp;
      summary.age = now - pending.last_update;
      for (std::size_t i = 0; i < pending.received.size(); ++i) {
        if (!pending.received[i]) {
          summary.missing.push_back(static_cast<std::uint16_t>(i));
        }
      }
      out.push_back(std::move(summary));
    }
    return out;
  }

  void touch(std::uint32_t ssrc, std::uint32_t timestamp,
             sim::TimePoint now) {
    const auto it = pending_.find(Key{ssrc, timestamp});
    if (it != pending_.end()) it->second.last_update = now;
  }

  [[nodiscard]] bool is_pending(std::uint32_t ssrc,
                                std::uint32_t timestamp) const {
    return pending_.contains(Key{ssrc, timestamp});
  }
  [[nodiscard]] std::size_t pending_objects() const { return pending_.size(); }
  [[nodiscard]] std::size_t pending_bytes() const { return pending_bytes_; }
  [[nodiscard]] std::uint64_t evicted() const { return evicted_; }

  [[nodiscard]] Result<ReceiverReport> report(std::uint32_t ssrc) {
    const auto it = sources_.find(ssrc);
    if (it == sources_.end()) {
      return Error{Errc::no_such_object, "unknown ssrc"};
    }
    Source& s = it->second;
    ReceiverReport rr;
    rr.ssrc = ssrc;
    rr.packets_received = s.packets_received;
    const std::uint32_t expected = s.highest_extended - s.base_sequence + 1;
    rr.packets_expected = expected;
    rr.cumulative_lost = static_cast<std::int64_t>(expected) -
                         static_cast<std::int64_t>(s.packets_received);
    const std::uint32_t interval_expected =
        s.highest_extended - s.interval_expected_base + 1;
    const std::int64_t interval_lost =
        static_cast<std::int64_t>(interval_expected) -
        static_cast<std::int64_t>(s.interval_received);
    rr.fraction_lost =
        interval_expected > 0
            ? std::max(0.0, static_cast<double>(interval_lost) /
                                static_cast<double>(interval_expected))
            : 0.0;
    rr.interarrival_jitter_us = s.jitter_us;
    rr.highest_sequence =
        static_cast<std::uint16_t>(s.highest_extended & 0xffff);
    s.interval_received = 0;
    s.interval_expected_base = s.highest_extended + 1;
    return rr;
  }

  static constexpr std::size_t kCompletedMemory = 4096;

 private:
  struct Key {
    std::uint32_t ssrc;
    std::uint32_t timestamp;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  struct Pending {
    RtpObject object;
    std::vector<bool> received;
    sim::TimePoint last_update{};
    std::size_t stored_bytes = 0;
  };
  struct Source {
    bool seen = false;
    std::uint16_t base_sequence = 0;
    std::uint32_t highest_extended = 0;
    std::uint32_t packets_received = 0;
    std::uint32_t interval_received = 0;
    std::uint32_t interval_expected_base = 0;
    double jitter_us = 0.0;
    sim::TimePoint last_arrival{};
    std::uint32_t last_rtp_timestamp = 0;
    bool have_arrival = false;
  };

  void deliver(const Pending& pending) {
    if (handler_) handler_(pending.object);
  }

  void enforce_budget() {
    if (options_.pending_byte_budget == 0) return;
    while (pending_bytes_ > options_.pending_byte_budget &&
           !pending_.empty()) {
      auto victim = pending_.begin();
      for (auto it = std::next(pending_.begin()); it != pending_.end(); ++it) {
        if (it->second.last_update < victim->second.last_update) victim = it;
      }
      pending_bytes_ -= victim->second.stored_bytes;
      deliver(victim->second);
      ++evicted_;
      pending_.erase(victim);
    }
  }

  void remember_completed(const Key& key) {
    if (completed_.insert(key).second) {
      completed_order_.push_back(key);
      if (completed_order_.size() > kCompletedMemory) {
        completed_.erase(completed_order_.front());
        completed_order_.pop_front();
      }
    }
  }

  static void update_stats(Source& s, const RtpPacket& packet,
                           sim::TimePoint now) {
    if (!s.seen) {
      s.seen = true;
      s.base_sequence = packet.sequence;
      s.highest_extended = packet.sequence;
      s.interval_expected_base = packet.sequence;
    } else {
      const int distance = static_cast<std::int16_t>(static_cast<std::uint16_t>(
          packet.sequence -
          static_cast<std::uint16_t>(s.highest_extended & 0xffff)));
      if (distance > 0) {
        s.highest_extended += static_cast<std::uint32_t>(distance);
      }
    }
    ++s.packets_received;
    ++s.interval_received;
    if (s.have_arrival) {
      const double arrival_delta_us =
          static_cast<double>((now - s.last_arrival).as_micros());
      const double media_delta_us =
          (static_cast<double>(packet.timestamp) -
           static_cast<double>(s.last_rtp_timestamp)) *
          1000.0;
      const double d = std::fabs(arrival_delta_us - media_delta_us);
      s.jitter_us += (d - s.jitter_us) / 16.0;
    }
    s.have_arrival = true;
    s.last_arrival = now;
    s.last_rtp_timestamp = packet.timestamp;
  }

  RtpReceiver::Options options_;
  ObjectHandler handler_;
  std::map<std::uint32_t, Source> sources_;
  std::map<Key, Pending> pending_;
  std::set<Key> completed_;
  std::deque<Key> completed_order_;
  std::size_t pending_bytes_ = 0;
  std::uint64_t evicted_ = 0;
};

}  // namespace collabqos::net::reference
