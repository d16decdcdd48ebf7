// Randomized property sweeps over the framework's core invariants
// (DESIGN.md §5). Each TEST_P seed drives an independent generator, so
// the suite covers a broad input space while staying deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "collabqos/core/concurrency.hpp"
#include "collabqos/core/inference.hpp"
#include "collabqos/media/codec.hpp"
#include "collabqos/media/quality.hpp"
#include "collabqos/net/rtp.hpp"
#include "collabqos/pubsub/selector.hpp"
#include "collabqos/util/rng.hpp"
#include "collabqos/wireless/channel.hpp"

namespace collabqos {
namespace {

class Seeded : public ::testing::TestWithParam<std::uint64_t> {};

// ------------------------------------------------------ selector algebra

pubsub::AttributeValue random_literal(Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0:
      return pubsub::AttributeValue(rng.uniform_int(-5, 5));
    case 1:
      return pubsub::AttributeValue(rng.chance(0.5));
    default:
      return pubsub::AttributeValue(
          std::string(1, static_cast<char>('x' + rng.uniform_int(0, 2))));
  }
}

pubsub::Selector parsed(const std::string& text) {
  auto selector = pubsub::Selector::parse(text);
  EXPECT_TRUE(selector.ok()) << text;
  return selector.ok() ? std::move(selector).take()
                       : pubsub::Selector::always();
}

pubsub::Selector random_selector(Rng& rng, int depth = 0) {
  using pubsub::Selector;
  const char* keys[] = {"a", "b.c", "d", "e.f.g"};
  const int kind = static_cast<int>(
      rng.uniform_int(0, depth > 3 ? 3 : 6));  // cap recursion at leaves
  switch (kind) {
    case 0: {
      const char* key = keys[rng.uniform_int(0, 3)];
      return Selector::equals(key, random_literal(rng));
    }
    case 1:
      return parsed(std::string("exists ") + keys[rng.uniform_int(0, 3)]);
    case 2: {
      // membership over a small mixed-type candidate list
      std::string text = keys[rng.uniform_int(0, 3)];
      text += " in (";
      const int count = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i < count; ++i) {
        if (i != 0) text += ", ";
        text += random_literal(rng).to_literal();
      }
      return parsed(text + ")");
    }
    case 3: {
      // ordering comparison via the text grammar; literals of any type,
      // so ordering-vs-non-numeric folds get exercised too
      const char* ops[] = {"<", "<=", ">", ">=", "!="};
      return parsed(std::string(keys[rng.uniform_int(0, 3)]) + " " +
                    ops[rng.uniform_int(0, 4)] + " " +
                    random_literal(rng).to_literal());
    }
    case 4:
      return random_selector(rng, depth + 1)
          .and_with(random_selector(rng, depth + 1));
    case 5: {
      const Selector lhs = random_selector(rng, depth + 1);
      const Selector rhs = random_selector(rng, depth + 1);
      std::string text = "(";
      text += lhs.to_string();
      text += ") or (";
      text += rhs.to_string();
      return parsed(text + ")");
    }
    default:
      return random_selector(rng, depth + 1).negate();
  }
}

pubsub::AttributeSet random_attributes(Rng& rng) {
  pubsub::AttributeSet attrs;
  const char* keys[] = {"a", "b.c", "d", "e.f.g"};
  for (const char* key : keys) {
    if (!rng.chance(0.7)) continue;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        attrs.set(key, rng.uniform_int(-5, 5));
        break;
      case 1:
        attrs.set(key, rng.chance(0.5));
        break;
      default:
        attrs.set(key,
                  std::string(1, static_cast<char>('x' + rng.uniform_int(0, 2))));
        break;
    }
  }
  return attrs;
}

TEST_P(Seeded, SelectorPrintParseRoundTripPreservesSemantics) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const pubsub::Selector original = random_selector(rng);
    auto reparsed = pubsub::Selector::parse(original.to_string());
    ASSERT_TRUE(reparsed.ok()) << original.to_string();
    for (int probe = 0; probe < 20; ++probe) {
      const pubsub::AttributeSet attrs = random_attributes(rng);
      EXPECT_EQ(original.matches(attrs), reparsed.value().matches(attrs))
          << original.to_string();
    }
  }
}

TEST_P(Seeded, SelectorWireRoundTripPreservesSemantics) {
  Rng rng(GetParam() ^ 0xABCD);
  for (int trial = 0; trial < 40; ++trial) {
    const pubsub::Selector original = random_selector(rng);
    serde::Writer w;
    original.encode(w);
    serde::Reader r(w.bytes());
    const auto decoded = pubsub::Selector::decode(r);
    ASSERT_TRUE(r.ok());
    for (int probe = 0; probe < 10; ++probe) {
      const pubsub::AttributeSet attrs = random_attributes(rng);
      EXPECT_EQ(original.matches(attrs), decoded.matches(attrs));
    }
  }
}

TEST_P(Seeded, CompiledProgramAgreesWithAstInterpreter) {
  // parse → print → re-parse → compile must preserve match results: the
  // compiled bytecode (matches) and the reference AST walk (interpret)
  // of both the original and the reparsed selector all agree, for every
  // randomized attribute set.
  Rng rng(GetParam() ^ 0x99AB);
  for (int trial = 0; trial < 40; ++trial) {
    const pubsub::Selector original = random_selector(rng);
    auto reparsed = pubsub::Selector::parse(original.to_string());
    ASSERT_TRUE(reparsed.ok()) << original.to_string();
    for (int probe = 0; probe < 20; ++probe) {
      const pubsub::AttributeSet attrs = random_attributes(rng);
      const bool reference = original.interpret(attrs);
      EXPECT_EQ(original.matches(attrs), reference) << original.to_string();
      EXPECT_EQ(reparsed.value().matches(attrs), reference)
          << original.to_string();
      EXPECT_EQ(reparsed.value().interpret(attrs), reference)
          << original.to_string();
    }
  }
}

TEST(SelectorSemantics, TypeMismatchIsFalseInCompiledAndInterpretedPaths) {
  // Two-valued semantics: a comparison on a missing or type-mismatched
  // attribute is FALSE, so its negation is TRUE — in both evaluators.
  const auto s = pubsub::Selector::parse("not (x == 3)").take();
  pubsub::AttributeSet absent;
  pubsub::AttributeSet mismatched;
  mismatched.set("x", "three");
  pubsub::AttributeSet matching;
  matching.set("x", 3);
  EXPECT_TRUE(s.matches(absent));
  EXPECT_TRUE(s.interpret(absent));
  EXPECT_TRUE(s.matches(mismatched));
  EXPECT_TRUE(s.interpret(mismatched));
  EXPECT_FALSE(s.matches(matching));
  EXPECT_FALSE(s.interpret(matching));
  // Ordering against a non-numeric literal is constant-false (the
  // compiler folds it; the interpreter evaluates it) even when the
  // attribute is a string that would compare lexicographically.
  const auto folded = pubsub::Selector::parse("not (x < 'zzz')").take();
  EXPECT_TRUE(folded.matches(mismatched));
  EXPECT_TRUE(folded.interpret(mismatched));
  EXPECT_TRUE(folded.matches(matching));
  EXPECT_TRUE(folded.interpret(matching));
}

TEST_P(Seeded, SelectorNegationInvolutes) {
  Rng rng(GetParam() ^ 0x1111);
  for (int trial = 0; trial < 30; ++trial) {
    const pubsub::Selector s = random_selector(rng);
    const pubsub::Selector double_negated = s.negate().negate();
    const pubsub::AttributeSet attrs = random_attributes(rng);
    EXPECT_EQ(s.matches(attrs), double_negated.matches(attrs));
  }
}

// ------------------------------------------------------------ codec fuzz

media::Image random_image(Rng& rng) {
  const int width = static_cast<int>(rng.uniform_int(1, 96));
  const int height = static_cast<int>(rng.uniform_int(1, 96));
  const int channels = rng.chance(0.3) ? 3 : 1;
  media::Image image(width, height, channels);
  // Mixture of flat regions, gradients and noise (varied entropy).
  const int mode = static_cast<int>(rng.uniform_int(0, 2));
  for (int y = 0; y < height; ++y) {
    for (int x = 0; x < width; ++x) {
      for (int c = 0; c < channels; ++c) {
        std::uint8_t value = 0;
        switch (mode) {
          case 0:
            value = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
            break;
          case 1:
            value = static_cast<std::uint8_t>((x * 3 + y * 2 + c * 40) % 256);
            break;
          default:
            value = static_cast<std::uint8_t>(
                (x / 8 + y / 8) % 2 == 0 ? 30 : 220);
            break;
        }
        image.set(x, y, c, value);
      }
    }
  }
  return image;
}

TEST_P(Seeded, CodecLosslessOnRandomImages) {
  Rng rng(GetParam() ^ 0x22);
  for (int trial = 0; trial < 6; ++trial) {
    const media::Image image = random_image(rng);
    media::CodecParams params;
    params.levels = static_cast<int>(rng.uniform_int(0, 6));
    params.max_packets = static_cast<int>(rng.uniform_int(1, 24));
    const media::EncodedImage encoded =
        media::encode_progressive(image, params);
    auto decoded =
        media::decode_progressive(encoded, encoded.packets.size());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value().pixels(), image.pixels())
        << image.width() << "x" << image.height() << "x"
        << image.channels() << " levels=" << params.levels
        << " cap=" << params.max_packets;
  }
}

TEST_P(Seeded, CodecMseShrinksOverTwoPlaneStrides) {
  // A single refinement pass can transiently *raise* MSE when a
  // coefficient's remaining bits are all zero (the mid-rise estimate
  // overshoots an exactly-representable value), but the reconstruction
  // error BOUND halves per plane, so over a two-plane lag the error is
  // guaranteed not to grow — and the final prefix is exact.
  Rng rng(GetParam() ^ 0x33);
  const media::Image image = random_image(rng);
  const media::EncodedImage encoded = media::encode_progressive(image);
  std::vector<double> mse;
  for (std::size_t k = 0; k <= encoded.packets.size(); k += 2) {
    mse.push_back(media::mean_squared_error(
        image, media::decode_progressive(encoded, k).take()));
  }
  for (std::size_t i = 2; i < mse.size(); ++i) {
    EXPECT_LE(mse[i], mse[i - 2] + 1e-9) << "stride " << i;
  }
  EXPECT_DOUBLE_EQ(mse.back(), 0.0);
}

// --------------------------------------------------------------- RTP fuzz

TEST_P(Seeded, RtpSurvivesArbitraryLossReorderDuplication) {
  Rng rng(GetParam() ^ 0x44);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t size = static_cast<std::size_t>(
        rng.uniform_int(0, 5000));
    serde::Bytes object(size);
    for (auto& byte : object) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    net::RtpPacketizer packetizer(7, 256);
    auto packets = packetizer.packetize_views(object, 96, 1);
    // Random subset, duplicated and shuffled.
    std::vector<net::RtpPacket> delivery;
    for (const auto& packet : packets) {
      const int copies = static_cast<int>(rng.uniform_int(0, 2));
      for (int c = 0; c < copies; ++c) delivery.push_back(packet);
    }
    for (std::size_t i = delivery.size(); i > 1; --i) {
      std::swap(delivery[i - 1],
                delivery[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
    net::RtpReceiver receiver;
    std::vector<net::RtpObject> out;
    receiver.on_object(
        [&out](const net::RtpObject& o) { out.push_back(o); });
    for (const auto& packet : delivery) {
      ASSERT_TRUE(receiver.ingest(packet.wire(), {}).ok());
    }
    (void)receiver.flush_stale(sim::TimePoint::from_micros(10'000'000));
    // Duplicates arriving after completion can re-open the object and
    // flush as spurious partials, so multiple deliveries are legal —
    // but at most ONE complete one, and it must be byte-exact. Partials
    // never fabricate data.
    int complete_count = 0;
    for (const net::RtpObject& delivered : out) {
      if (delivered.complete) {
        ++complete_count;
        EXPECT_EQ(delivered.payload_chain(), object);
      } else {
        EXPECT_LE(delivered.payload_chain().size(), object.size());
      }
    }
    EXPECT_LE(complete_count, 1);
  }
}

// The zero-copy pipeline (packetize_views -> wire() -> chain ingest ->
// payload_chain) must agree with a reference model computed from the
// original bytes, under any payload size, MTU and loss pattern:
//  * fragment i is object[i*mtu, min((i+1)*mtu, n));
//  * a partially delivered object reports missing exactly the indices
//    never delivered;
//  * its output is the delivered fragments concatenated in index order;
//  * it is complete exactly when every fragment arrived.
// (The name dates from when a copying twin of the pipeline was the
// oracle.)
TEST_P(Seeded, ZeroCopyPipelineMatchesLegacyCopyPath) {
  Rng rng(GetParam() ^ 0x66);
  const std::size_t mtus[] = {64, 256, 1400};
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t size =
        static_cast<std::size_t>(rng.uniform_int(0, 6000));
    const std::size_t mtu = mtus[rng.uniform_int(0, 2)];
    const double loss = rng.chance(0.5) ? 0.0 : 0.3;
    serde::Bytes object(size);
    for (auto& byte : object) {
      byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    net::RtpPacketizer tx(7, mtu);
    const auto packets =
        tx.packetize_views(serde::SharedBytes(object), 96, 1);
    const std::size_t count = size == 0 ? 1 : (size + mtu - 1) / mtu;
    ASSERT_EQ(packets.size(), count);

    net::RtpReceiver rx;
    std::vector<net::RtpObject> out;
    rx.on_object([&out](const net::RtpObject& o) { out.push_back(o); });
    std::vector<std::uint16_t> missing;  // model: never delivered
    serde::Bytes delivered;              // model: delivered, in order
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t begin = i * mtu;
      const std::size_t end = std::min(begin + mtu, size);
      const serde::Bytes fragment(
          object.begin() + static_cast<std::ptrdiff_t>(begin),
          object.begin() + static_cast<std::ptrdiff_t>(end));
      EXPECT_EQ(packets[i].payload, serde::SharedBytes(fragment));
      if (rng.chance(loss)) {
        missing.push_back(static_cast<std::uint16_t>(i));
        continue;
      }
      delivered.insert(delivered.end(), fragment.begin(), fragment.end());
      ASSERT_TRUE(rx.ingest(packets[i].wire(), {}).ok());
    }
    const bool none_arrived = missing.size() == count;
    const bool partial = !missing.empty() && !none_arrived;

    // Partial-delivery bookkeeping: exactly the undelivered indices.
    const auto pending = rx.pending_summaries({});
    ASSERT_EQ(pending.size(), partial ? 1u : 0u);
    if (partial) {
      EXPECT_EQ(pending[0].ssrc, 7u);
      EXPECT_EQ(pending[0].timestamp, 1u);
      EXPECT_EQ(pending[0].missing, missing);
    }

    const auto flush_at = sim::TimePoint::from_micros(10'000'000);
    EXPECT_EQ(rx.flush_stale(flush_at), partial ? 1u : 0u);
    ASSERT_EQ(out.size(), none_arrived ? 0u : 1u);
    if (none_arrived) continue;
    EXPECT_EQ(out[0].complete, missing.empty());
    EXPECT_EQ(out[0].fragments_received, count - missing.size());
    // Byte-identical delivery, complete or partial.
    EXPECT_EQ(out[0].payload_chain(), delivered);
    if (out[0].complete) {
      EXPECT_EQ(out[0].payload_chain(), object);
      // Every fragment is an in-order slice of one buffer, so the chain
      // coalesces back to a single contiguous view.
      EXPECT_LE(out[0].payload_chain().slices().size(), 1u);
    }
  }
}

// ------------------------------------------------------ concurrency fuzz

TEST_P(Seeded, ReplicasConvergeUnderRandomInterleavings) {
  Rng rng(GetParam() ^ 0x55);
  // Writers produce causal chains (each observes a random prior op).
  std::vector<core::Operation> ops;
  std::vector<std::unique_ptr<core::ConcurrencyController>> writers;
  for (int w = 0; w < 4; ++w) {
    writers.push_back(std::make_unique<core::ConcurrencyController>(
        static_cast<std::uint64_t>(w + 1)));
  }
  for (int i = 0; i < 60; ++i) {
    auto& writer = *writers[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    if (!ops.empty() && rng.chance(0.5)) {
      writer.integrate(
          ops[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(ops.size()) - 1))]);
    }
    const char* objects[] = {"board", "chat", "doc"};
    ops.push_back(writer.originate(objects[rng.uniform_int(0, 2)], "op",
                                   {static_cast<std::uint8_t>(i)}));
  }
  core::ConcurrencyController reference(100);
  for (const auto& op : ops) reference.integrate(op);
  for (int replica = 0; replica < 5; ++replica) {
    std::vector<core::Operation> shuffled = ops;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1],
                shuffled[static_cast<std::size_t>(
                    rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
    core::ConcurrencyController other(200 + static_cast<std::uint64_t>(replica));
    for (const auto& op : shuffled) other.integrate(op);
    EXPECT_EQ(other.digest(), reference.digest());
  }
}

// --------------------------------------------------------- wireless fuzz

TEST_P(Seeded, RemovingAnyInterfererNeverHurtsAnyone) {
  Rng rng(GetParam() ^ 0x66);
  wireless::ChannelParams params;
  params.noise_kappa_db = rng.uniform(40.0, 90.0);
  wireless::Channel channel(params);
  const int stations = static_cast<int>(rng.uniform_int(3, 8));
  for (int s = 0; s < stations; ++s) {
    channel.upsert(wireless::make_station(static_cast<std::uint32_t>(s + 1)),
                   {{rng.uniform(5.0, 300.0), rng.uniform(-100.0, 100.0)},
                    rng.uniform(10.0, 500.0),
                    true});
  }
  const auto victim = wireless::make_station(1);
  const double before = channel.sir(victim).value();
  const auto removed = wireless::make_station(
      static_cast<std::uint32_t>(rng.uniform_int(2, stations)));
  channel.remove(removed);
  EXPECT_GE(channel.sir(victim).value(), before);
}

TEST_P(Seeded, PowerControlNeverDiverges) {
  Rng rng(GetParam() ^ 0x77);
  wireless::ChannelParams params;
  params.noise_kappa_db = 60.0;
  wireless::Channel channel(params);
  const int stations = static_cast<int>(rng.uniform_int(2, 6));
  for (int s = 0; s < stations; ++s) {
    channel.upsert(wireless::make_station(static_cast<std::uint32_t>(s + 1)),
                   {{rng.uniform(10.0, 150.0), 0.0},
                    rng.uniform(10.0, 500.0),
                    true});
  }
  wireless::PowerControlParams control;
  control.target_sir_db = rng.uniform(-5.0, 10.0);
  control.min_power_mw = 0.001;
  control.max_iterations = 200;
  (void)wireless::run_power_control(channel, control);
  // Whether or not the target is feasible, every power must respect the
  // bounds and every SIR must be finite.
  for (const auto id : channel.stations()) {
    const double power = channel.transmitter(id).value().tx_power_mw;
    EXPECT_GE(power, control.min_power_mw - 1e-12);
    EXPECT_LE(power, control.max_power_mw + 1e-12);
    EXPECT_TRUE(std::isfinite(channel.sir_db(id).value()));
  }
}

// --------------------------------------------------------- inference fuzz

TEST_P(Seeded, InferenceIsMonotoneInEveryLoadDimension) {
  Rng rng(GetParam() ^ 0x88);
  const core::InferenceEngine engine(core::QoSContract{},
                                     core::PolicyDatabase::with_defaults());
  for (int trial = 0; trial < 50; ++trial) {
    pubsub::AttributeSet state;
    state.set("cpu.load", rng.uniform(0.0, 100.0));
    state.set("page.faults", rng.uniform(0.0, 120.0));
    const int packets = engine.decide(state).packets;

    pubsub::AttributeSet worse = state;
    const bool bump_cpu = rng.chance(0.5);
    if (bump_cpu) {
      worse.set("cpu.load",
                state.find("cpu.load")->as_number().value() + 10.0);
    } else {
      worse.set("page.faults",
                state.find("page.faults")->as_number().value() + 15.0);
    }
    EXPECT_LE(engine.decide(worse).packets, packets);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, Seeded,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

}  // namespace
}  // namespace collabqos
