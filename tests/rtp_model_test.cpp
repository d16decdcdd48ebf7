// Randomized model tests for the RTP receiver's tables: seeded sessions of
// loss, reordering, duplication, byte-budget evictions, late duplicates
// after completion and wrap-around of the at-most-once memory, replayed
// into net::RtpReceiver and into the ordered-container reference model
// (tests/support/reference_receiver.hpp). Every ingest verdict, delivered
// object, flush count, pending summary (order included), byte count and
// receiver report must agree.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "collabqos/net/rtp.hpp"
#include "collabqos/util/rng.hpp"
#include "support/reference_receiver.hpp"

namespace collabqos::net {
namespace {

std::string describe(const RtpObject& o) {
  std::string out = std::to_string(o.ssrc) + "/" + std::to_string(o.timestamp) +
                    " pt" + std::to_string(o.payload_type) + " " +
                    std::to_string(o.fragments_received) + "of" +
                    std::to_string(o.fragment_count) +
                    (o.complete ? " complete" : " partial") + " t" +
                    std::to_string(o.first_fragment_at.as_micros()) + " [";
  for (const serde::SharedBytes& f : o.fragments) {
    out += std::to_string(f.size()) + ":";
    for (const std::uint8_t b : f) out += std::to_string(b) + ".";
    out += " ";
  }
  return out + "]";
}

std::string verdict(const Status& s) {
  return s.ok() ? "ok" : std::string(to_string(s.code()));
}

std::string describe(const std::vector<RtpReceiver::PendingSummary>& all) {
  std::string out;
  for (const auto& s : all) {
    out += std::to_string(s.ssrc) + "/" + std::to_string(s.timestamp) + " age" +
           std::to_string(s.age.as_micros()) + " missing";
    for (const std::uint16_t i : s.missing) {
      out += ' ';
      out += std::to_string(i);
    }
    out += "; ";
  }
  return out;
}

std::string describe(const Result<ReceiverReport>& r) {
  if (!r) return std::string(to_string(r.code()));
  const ReceiverReport& rr = r.value();
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, "%u %u %u %lld %.17g %.17g %u",
                rr.ssrc, rr.packets_received, rr.packets_expected,
                static_cast<long long>(rr.cumulative_lost), rr.fraction_lost,
                rr.interarrival_jitter_us, rr.highest_sequence);
  return buffer;
}

/// The receiver under test and the reference model, fed identically.
class Twin {
 public:
  explicit Twin(RtpReceiver::Options options)
      : real_(options), model_(options) {
    real_.on_object(
        [this](const RtpObject& o) { real_log_.push_back(describe(o)); });
    model_.on_object(
        [this](const RtpObject& o) { model_log_.push_back(describe(o)); });
  }

  void ingest(const RtpPacket& packet, sim::TimePoint now) {
    const std::string a = verdict(real_.ingest(packet, now));
    const std::string b = verdict(model_.ingest(packet, now));
    ASSERT_EQ(a, b) << "ingest of " << packet.ssrc << "/" << packet.timestamp
                    << " #" << packet.fragment_index << "/"
                    << packet.fragment_count;
  }

  void flush_stale(sim::TimePoint now) {
    ASSERT_EQ(real_.flush_stale(now), model_.flush_stale(now));
  }

  void touch(std::uint32_t ssrc, std::uint32_t timestamp,
             sim::TimePoint now) {
    real_.touch(ssrc, timestamp, now);
    model_.touch(ssrc, timestamp, now);
  }

  void report(std::uint32_t ssrc) {
    ASSERT_EQ(describe(real_.report(ssrc)), describe(model_.report(ssrc)));
  }

  void check(sim::TimePoint now, bool summaries) {
    ASSERT_EQ(real_log_, model_log_);
    ASSERT_EQ(real_.pending_objects(), model_.pending_objects());
    ASSERT_EQ(real_.pending_bytes(), model_.pending_bytes());
    ASSERT_EQ(real_.stats().evicted, model_.evicted());
    if (summaries) {
      ASSERT_EQ(describe(real_.pending_summaries(now)),
                describe(model_.pending_summaries(now)));
    }
  }

  [[nodiscard]] bool is_pending(std::uint32_t ssrc, std::uint32_t ts) {
    const bool pending = real_.is_pending(ssrc, ts);
    EXPECT_EQ(pending, model_.is_pending(ssrc, ts));
    return pending;
  }

  [[nodiscard]] std::size_t delivered() const { return real_log_.size(); }
  [[nodiscard]] std::size_t pending_objects() const {
    return real_.pending_objects();
  }

 private:
  RtpReceiver real_;
  reference::Receiver model_;
  std::vector<std::string> real_log_;
  std::vector<std::string> model_log_;
};

/// One sender's stream: its packetizer and every object it sent.
struct Source {
  explicit Source(std::uint32_t id) : ssrc(id) {}
  std::uint32_t ssrc;
  std::uint16_t sequence = 0;
  std::uint32_t next_timestamp = 1;
  std::vector<std::vector<RtpPacket>> sent;
};

std::vector<RtpPacket> make_object(Source& source, Rng& rng,
                                   int max_fragments) {
  const auto count =
      static_cast<std::uint16_t>(rng.uniform_int(1, max_fragments));
  const std::uint32_t timestamp = source.next_timestamp++;
  std::vector<RtpPacket> packets;
  for (std::uint16_t i = 0; i < count; ++i) {
    RtpPacket p;
    p.ssrc = source.ssrc;
    p.sequence = source.sequence++;
    p.timestamp = timestamp;
    p.payload_type = 96;
    p.fragment_index = i;
    p.fragment_count = count;
    serde::Bytes payload(static_cast<std::size_t>(rng.uniform_int(0, 40)));
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    p.payload = std::move(payload);
    packets.push_back(std::move(p));
  }
  return packets;
}

void run_session(std::uint64_t seed) {
  Rng rng(seed);
  RtpReceiver::Options options;
  options.flush_after = sim::Duration::millis(50);
  const std::size_t budgets[] = {0, 64, 160};
  options.pending_byte_budget =
      budgets[static_cast<std::size_t>(rng.uniform_int(0, 2))];
  Twin twin(options);
  // 0xFFFFFFFF sorts last: key order is ssrc first, then timestamp.
  std::vector<Source> sources = {Source(0xFFFFFFFFu), Source(1), Source(7),
                                 Source(2)};
  std::vector<RtpPacket> wire;  // in flight, delivered in a shuffled order
  sim::TimePoint now = sim::TimePoint::from_micros(1000);
  const int max_fragments = static_cast<int>(rng.uniform_int(1, 6));

  for (int step = 0; step < 6000; ++step) {
    // A third of the steps share the previous instant, so pending objects
    // tie on their last update and evictions fall back to the key order.
    if (!rng.chance(0.35)) {
      now = now + sim::Duration::micros(rng.uniform_int(1, 3000));
    }
    const double action = rng.uniform();
    if (action < 0.35 || wire.empty()) {
      // A new object: each fragment may be lost or duplicated.
      Source& source = sources[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sources.size()) - 1))];
      source.sent.push_back(make_object(source, rng, max_fragments));
      for (const RtpPacket& p : source.sent.back()) {
        if (rng.chance(0.12)) continue;
        wire.push_back(p);
        if (rng.chance(0.08)) wire.push_back(p);
      }
    } else if (action < 0.85) {
      // Deliver one in-flight packet, reordering within a window of 4.
      const auto window = std::min<std::int64_t>(
          3, static_cast<std::int64_t>(wire.size()) - 1);
      const auto pick = static_cast<std::size_t>(rng.uniform_int(0, window));
      const RtpPacket packet = wire[pick];
      wire.erase(wire.begin() + static_cast<std::ptrdiff_t>(pick));
      ASSERT_NO_FATAL_FAILURE(twin.ingest(packet, now));
    } else if (action < 0.90) {
      // A late copy of any fragment ever sent: absorbed if the object is
      // remembered, otherwise it re-opens the object.
      Source& source = sources[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sources.size()) - 1))];
      if (!source.sent.empty()) {
        const auto& object =
            source.sent[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(source.sent.size()) - 1))];
        ASSERT_NO_FATAL_FAILURE(twin.ingest(
            object[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<std::int64_t>(object.size()) - 1))],
            now));
      }
    } else if (action < 0.94) {
      now = now + sim::Duration::micros(rng.uniform_int(0, 60000));
      ASSERT_NO_FATAL_FAILURE(twin.flush_stale(now));
    } else if (action < 0.96) {
      Source& source = sources[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sources.size()) - 1))];
      if (!source.sent.empty()) {
        twin.touch(source.ssrc, source.sent.back().front().timestamp, now);
      }
    } else if (action < 0.97) {
      ASSERT_NO_FATAL_FAILURE(twin.report(
          sources[static_cast<std::size_t>(rng.uniform_int(0, 3))].ssrc));
    } else if (action < 0.985) {
      // Hand-built packets the wire decoder would refuse: an index past
      // the count, or a count that disagrees with a pending object's.
      Source& source = sources[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(sources.size()) - 1))];
      RtpPacket bad;
      bad.ssrc = source.ssrc;
      bad.sequence = source.sequence++;
      bad.timestamp = source.sent.empty()
                          ? 999999
                          : source.sent.back().front().timestamp;
      bad.fragment_count = static_cast<std::uint16_t>(rng.uniform_int(0, 3));
      bad.fragment_index = static_cast<std::uint16_t>(
          rng.chance(0.5) ? bad.fragment_count
                          : rng.uniform_int(0, bad.fragment_count + 2));
      bad.payload = serde::Bytes{1, 2, 3};
      ASSERT_NO_FATAL_FAILURE(twin.ingest(bad, now));
    } else {
      ASSERT_NO_FATAL_FAILURE(twin.check(now, true));
    }
    ASSERT_NO_FATAL_FAILURE(twin.check(now, step % 16 == 0));
  }
  for (const Source& source : sources) {
    for (const auto& object : source.sent) {
      (void)twin.is_pending(source.ssrc, object.front().timestamp);
    }
    ASSERT_NO_FATAL_FAILURE(twin.report(source.ssrc));
  }
  now = now + sim::Duration::seconds(1);
  ASSERT_NO_FATAL_FAILURE(twin.flush_stale(now));
  ASSERT_NO_FATAL_FAILURE(twin.check(now, true));
  EXPECT_EQ(twin.pending_objects(), 0u);
  EXPECT_GT(twin.delivered(), 0u);
}

TEST(RtpReceiverModel, RandomSessionsMatchTheReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ASSERT_NO_FATAL_FAILURE(run_session(seed));
  }
}

TEST(RtpReceiverModel, CompletedMemoryForgetsTheOldestBeyond4096) {
  Twin twin(RtpReceiver::Options{});
  Source source(42);
  Rng rng(3);
  sim::TimePoint now = sim::TimePoint::from_micros(1);
  constexpr std::size_t kObjects = 5000;
  for (std::size_t i = 0; i < kObjects; ++i) {
    source.sent.push_back(make_object(source, rng, i % 7 == 0 ? 3 : 1));
    for (const RtpPacket& p : source.sent.back()) {
      ASSERT_NO_FATAL_FAILURE(twin.ingest(p, now));
    }
    now = now + sim::Duration::micros(100);
  }
  ASSERT_NO_FATAL_FAILURE(twin.check(now, true));
  ASSERT_EQ(twin.delivered(), kObjects);
  // Late copies of every object's first fragment, newest first: the
  // newest 4096 are remembered and absorbed; the 904 oldest were
  // forgotten, so one-fragment objects complete again and the others
  // re-open.
  std::size_t forgotten_single = 0;
  std::size_t forgotten_multi = 0;
  for (std::size_t i = source.sent.size(); i-- > 0;) {
    const auto& object = source.sent[i];
    ASSERT_NO_FATAL_FAILURE(twin.ingest(object.front(), now));
    if (i < kObjects - 4096) {
      ++(object.size() == 1 ? forgotten_single : forgotten_multi);
    }
  }
  ASSERT_NO_FATAL_FAILURE(twin.check(now, true));
  EXPECT_EQ(twin.delivered(), kObjects + forgotten_single);
  EXPECT_EQ(twin.pending_objects(), forgotten_multi);
  EXPECT_GT(forgotten_multi, 0u);
  now = now + sim::Duration::seconds(1);
  ASSERT_NO_FATAL_FAILURE(twin.flush_stale(now));
  ASSERT_NO_FATAL_FAILURE(twin.check(now, true));
  EXPECT_EQ(twin.delivered(), kObjects + forgotten_single + forgotten_multi);
}

TEST(RtpReceiverModel, OutOfRangeFragmentIndexLeavesNoPendingEntry) {
  RtpReceiver receiver;
  int delivered = 0;
  receiver.on_object([&](const RtpObject&) { ++delivered; });
  for (const auto& [index, count] :
       {std::pair<std::uint16_t, std::uint16_t>{3, 3}, {9, 2}, {0, 0}}) {
    RtpPacket bad;
    bad.ssrc = 5;
    bad.timestamp = 77;
    bad.fragment_index = index;
    bad.fragment_count = count;
    bad.payload = serde::Bytes{1, 2};
    const Status status = receiver.ingest(bad, sim::TimePoint{});
    EXPECT_EQ(status.code(), Errc::malformed);
    EXPECT_FALSE(receiver.is_pending(5, 77));
    EXPECT_EQ(receiver.pending_objects(), 0u);
    EXPECT_EQ(receiver.pending_bytes(), 0u);
    EXPECT_TRUE(receiver.pending_summaries(sim::TimePoint{}).empty());
  }
  // The object itself still reassembles normally afterwards.
  for (std::uint16_t i = 0; i < 2; ++i) {
    RtpPacket good;
    good.ssrc = 5;
    good.timestamp = 77;
    good.fragment_index = i;
    good.fragment_count = 2;
    good.payload = serde::Bytes{static_cast<std::uint8_t>(i)};
    EXPECT_TRUE(receiver.ingest(good, sim::TimePoint{}).ok());
  }
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(receiver.pending_objects(), 0u);
}

TEST(RtpReceiverModel, CallbackMayIngestAnotherOneFragmentObject) {
  // The bypass reuses one object; a callback that feeds the receiver
  // again must still see each object whole.
  RtpReceiver receiver;
  std::vector<std::string> seen;
  const auto packet = [](std::uint32_t timestamp, std::uint8_t byte) {
    RtpPacket p;
    p.ssrc = 9;
    p.sequence = static_cast<std::uint16_t>(timestamp);
    p.timestamp = timestamp;
    p.payload = serde::Bytes{byte, byte};
    return p;
  };
  receiver.on_object([&](const RtpObject& o) {
    const std::string before = describe(o);
    if (o.timestamp == 1) {
      EXPECT_TRUE(receiver.ingest(packet(2, 0xBB), sim::TimePoint{}).ok());
    }
    EXPECT_EQ(describe(o), before);
    seen.push_back(before);
  });
  ASSERT_TRUE(receiver.ingest(packet(1, 0xAA), sim::TimePoint{}).ok());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], "9/2 pt0 1of1 complete t0 [2:187.187. ]");
  EXPECT_EQ(seen[1], "9/1 pt0 1of1 complete t0 [2:170.170. ]");
  // Both are remembered: late copies are absorbed.
  ASSERT_TRUE(receiver.ingest(packet(1, 0xAA), sim::TimePoint{}).ok());
  ASSERT_TRUE(receiver.ingest(packet(2, 0xBB), sim::TimePoint{}).ok());
  EXPECT_EQ(seen.size(), 2u);
}

}  // namespace
}  // namespace collabqos::net
