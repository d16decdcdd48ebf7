#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "collabqos/util/crc32c.hpp"
#include "collabqos/util/decibel.hpp"
#include "collabqos/util/hash.hpp"
#include "collabqos/util/result.hpp"
#include "collabqos/util/rng.hpp"
#include "collabqos/util/stats.hpp"
#include "collabqos/util/string_util.hpp"

namespace collabqos {
namespace {

// ------------------------------------------------------------------ Rng

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all 7 values hit in 1000 draws
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceFrequencyNearP) {
  Rng rng(13);
  int hits = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kTrials, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  constexpr int kSamples = 50000;
  double sum = 0.0;
  double sum_of_squares = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double sample = rng.normal(10.0, 2.0);
    sum += sample;
    sum_of_squares += sample * sample;
  }
  const double mean = sum / kSamples;
  const double variance =
      (sum_of_squares - kSamples * mean * mean) / (kSamples - 1);
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(variance), 2.0, 0.05);
}

// ---------------------------------------------------------------- stats

TEST(SampleSet, EmptySetQuantilesAreZeroNotUb) {
  const SampleSet empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(empty.quantile(1.0), 0.0);
  EXPECT_EQ(empty.count(), 0u);
}

TEST(SampleSet, SingleSampleIsEveryQuantile) {
  SampleSet set;
  set.add(7.25);
  EXPECT_DOUBLE_EQ(set.quantile(0.0), 7.25);
  EXPECT_DOUBLE_EQ(set.quantile(0.5), 7.25);
  EXPECT_DOUBLE_EQ(set.quantile(1.0), 7.25);
}

TEST(SampleSet, ExactQuantiles) {
  SampleSet set;
  for (int i = 1; i <= 100; ++i) set.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(set.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(set.quantile(1.0), 100.0);
  EXPECT_NEAR(set.quantile(0.5), 50.5, 1e-12);
  EXPECT_NEAR(set.quantile(0.25), 25.75, 1e-12);
}

TEST(SampleSet, QuantileAfterInterleavedAdds) {
  SampleSet set;
  set.add(3.0);
  set.add(1.0);
  EXPECT_DOUBLE_EQ(set.quantile(0.5), 2.0);
  set.add(2.0);  // resort required
  EXPECT_DOUBLE_EQ(set.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(set.quantile(1.0), 3.0);
}

TEST(Ewma, ConvergesToConstantInput) {
  Ewma ewma(0.25);
  for (int i = 0; i < 100; ++i) ewma.add(8.0);
  EXPECT_NEAR(ewma.value(), 8.0, 1e-9);
}

TEST(Ewma, FirstSampleSeeds) {
  Ewma ewma(0.1);
  EXPECT_FALSE(ewma.seeded());
  ewma.add(5.0);
  EXPECT_TRUE(ewma.seeded());
  EXPECT_DOUBLE_EQ(ewma.value(), 5.0);
}

// ------------------------------------------------------------- decibels

TEST(Decibel, RoundTrip) {
  for (const double db : {-30.0, -3.0, 0.0, 3.0, 10.0, 40.0}) {
    EXPECT_NEAR(to_db(from_db(db)), db, 1e-9);
  }
}

TEST(Decibel, KnownValues) {
  EXPECT_NEAR(from_db(10.0), 10.0, 1e-9);
  EXPECT_NEAR(from_db(3.0), 2.0, 0.01);
  EXPECT_NEAR(to_db(100.0), 20.0, 1e-9);
}

// --------------------------------------------------------------- string

TEST(StringUtil, SplitPreservesEmptyFields) {
  const auto fields = split("a..b.", '.');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(StringUtil, TrimBothEnds) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtil, ParseU64Accepts) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_u64("123"), 123u);
}

TEST(StringUtil, ParseU64Rejects) {
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("12a").has_value());
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());  // overflow
}

TEST(StringUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(parse_double("-2e3").value(), -2000.0);
  EXPECT_FALSE(parse_double("3.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_FALSE(parse_double("-inf").has_value());
  EXPECT_FALSE(parse_double("1e999").has_value());  // overflows to inf
}

// --------------------------------------------------------------- result

TEST(Result, ValueAndError) {
  Result<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);
  EXPECT_EQ(ok.code(), Errc::ok);

  Result<int> bad(Errc::timeout, "slow");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), Errc::timeout);
  EXPECT_EQ(bad.error().message, "slow");
  EXPECT_EQ(bad.value_or(-1), -1);
}

TEST(Result, TakeMoves) {
  Result<std::string> r(std::string("payload"));
  const std::string taken = std::move(r).take();
  EXPECT_EQ(taken, "payload");
}

TEST(Status, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), Errc::ok);
}

TEST(Status, ErrorCarriesCode) {
  Status status(Errc::access_denied, "nope");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), Errc::access_denied);
}

TEST(Errc, NamesAreStable) {
  EXPECT_EQ(to_string(Errc::ok), "ok");
  EXPECT_EQ(to_string(Errc::timeout), "timeout");
  EXPECT_EQ(to_string(Errc::no_such_object), "no_such_object");
  EXPECT_EQ(to_string(Errc::malformed), "malformed");
}

// --------------------------------------------------------------- CRC-32C

std::uint32_t crc32c(std::span<const std::uint8_t> bytes) {
  Crc32c crc;
  crc.update(bytes);
  return crc.value();
}

std::uint32_t crc32c_portable(std::span<const std::uint8_t> bytes) {
  return ~crc32c_extend_portable(~std::uint32_t{0}, bytes);
}

std::vector<std::uint8_t> random_bytes(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(size);
  for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng());
  return bytes;
}

TEST(Fnv1a, StandardVectors) {
  const auto digest = [](std::string_view text) {
    Fnv1a hash;
    hash.update(text);
    return hash.value();
  };
  EXPECT_EQ(digest(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(digest("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(digest("foobar"), 0x85944171f73967e8ULL);
  const std::string foobar = "foobar";
  EXPECT_EQ(fnv1a(std::span<const std::uint8_t>(
                reinterpret_cast<const std::uint8_t*>(foobar.data()),
                foobar.size())),
            0x85944171f73967e8ULL);
}

TEST(Crc32c, Rfc3720KnownAnswers) {
  std::vector<std::uint8_t> ascending(32), descending(32);
  for (std::size_t i = 0; i < 32; ++i) {
    ascending[i] = static_cast<std::uint8_t>(i);
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  const std::string digits = "123456789";
  const std::vector<std::pair<std::vector<std::uint8_t>, std::uint32_t>>
      vectors = {
          {std::vector<std::uint8_t>(32, 0x00), 0x8A9136AA},
          {std::vector<std::uint8_t>(32, 0xFF), 0x62A8AB43},
          {ascending, 0x46DD794E},
          {descending, 0x113FDB5C},
          {std::vector<std::uint8_t>(digits.begin(), digits.end()),
           0xE3069283},
      };
  for (const auto& [bytes, expected] : vectors) {
    EXPECT_EQ(crc32c(bytes), expected);
    EXPECT_EQ(crc32c_portable(bytes), expected);
  }
  EXPECT_EQ(crc32c({}), 0u);
}

TEST(Crc32c, SplitFeedMatchesWholeBuffer) {
  const auto bytes = random_bytes(100, 3);
  const std::span<const std::uint8_t> all(bytes);
  const std::uint32_t whole = crc32c(all);
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    Crc32c crc;
    crc.update(all.first(split));
    crc.update(all.subspan(split));
    EXPECT_EQ(crc.value(), whole) << "split at " << split;
    const std::uint32_t head =
        crc32c_extend_portable(~std::uint32_t{0}, all.first(split));
    EXPECT_EQ(~crc32c_extend_portable(head, all.subspan(split)), whole)
        << "portable split at " << split;
  }
}

TEST(Crc32c, HardwarePathMatchesTable) {
  if (!crc32c_hardware_available()) {
    GTEST_SKIP() << "CPU has no SSE4.2 crc32 instruction";
  }
  constexpr std::size_t kMaxLength = 4096;
  const auto bytes = random_bytes(kMaxLength + 8, 11);
  const std::span<const std::uint8_t> all(bytes);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      const auto chunk = all.subspan(offset, length);
      const std::uint32_t seed = static_cast<std::uint32_t>(
          mix64(offset * (kMaxLength + 1) + length));
      ASSERT_EQ(crc32c_extend_hardware(seed, chunk),
                crc32c_extend_portable(seed, chunk))
          << "offset " << offset << " length " << length;
    }
  }
}

}  // namespace
}  // namespace collabqos
