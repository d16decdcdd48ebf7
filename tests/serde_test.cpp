#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "collabqos/serde/chain.hpp"
#include "collabqos/serde/wire.hpp"
#include "collabqos/util/rng.hpp"

namespace collabqos::serde {
namespace {

TEST(Wire, ScalarsRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(3.141592653589793);
  w.boolean(true);
  w.boolean(false);

  Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_TRUE(r.exhausted());
}

TEST(Wire, VarintBoundaries) {
  const std::uint64_t cases[] = {0,   1,    127,  128,   16383, 16384,
                                 1u << 21, UINT32_MAX, UINT64_MAX};
  for (const std::uint64_t value : cases) {
    Writer w;
    w.varint(value);
    Reader r(w.bytes());
    EXPECT_EQ(r.varint(), value) << value;
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(Wire, VarintSizes) {
  Writer small;
  small.varint(127);
  EXPECT_EQ(small.size(), 1u);
  Writer medium;
  medium.varint(128);
  EXPECT_EQ(medium.size(), 2u);
  Writer large;
  large.varint(UINT64_MAX);
  EXPECT_EQ(large.size(), 10u);
}

TEST(Wire, SignedVarintRoundTrip) {
  const std::int64_t cases[] = {0,
                                -1,
                                1,
                                -64,
                                64,
                                INT64_MIN,
                                INT64_MAX};
  for (const std::int64_t value : cases) {
    Writer w;
    w.svarint(value);
    Reader r(w.bytes());
    EXPECT_EQ(r.svarint(), value) << value;
  }
}

TEST(Wire, ZigZagKeepsSmallMagnitudesShort) {
  Writer w;
  w.svarint(-1);
  EXPECT_EQ(w.size(), 1u);  // -1 encodes to 1
}

TEST(Wire, StringsAndBlobs) {
  Writer w;
  w.string("");
  w.string("hello world");
  const Bytes blob = {0x00, 0xFF, 0x10};
  w.blob(blob);

  Reader r(w.bytes());
  EXPECT_EQ(r.string().value(), "");
  EXPECT_EQ(r.string().value(), "hello world");
  EXPECT_EQ(r.blob(), blob);
}

TEST(Wire, TruncatedReadsFail) {
  Writer w;
  w.u32(1234);
  const Bytes& full = w.bytes();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    Reader r(std::span(full.data(), cut));
    EXPECT_EQ(r.u32(), 0u) << "cut=" << cut;
    EXPECT_FALSE(r.ok()) << "cut=" << cut;
    EXPECT_EQ(r.error().code, Errc::malformed);
  }
}

TEST(Wire, TruncatedStringFails) {
  Writer w;
  w.string("abcdef");
  Bytes bytes = w.bytes();
  bytes.resize(bytes.size() - 2);
  Reader r(bytes);
  EXPECT_FALSE(r.string().ok());
}

TEST(Wire, MalformedVarintOverflow) {
  // 10 bytes of continuation followed by a large final byte overflows.
  Bytes bytes(10, 0xFF);
  Reader r(bytes);
  (void)r.varint();
  EXPECT_FALSE(r.ok());
}

TEST(Wire, BadBooleanRejected) {
  const Bytes bytes = {2};
  Reader r(bytes);
  (void)r.boolean();
  EXPECT_FALSE(r.ok());
}

TEST(Wire, SpecialDoublesSurvive) {
  Writer w;
  w.f64(std::numeric_limits<double>::infinity());
  w.f64(-0.0);
  w.f64(std::numeric_limits<double>::denorm_min());
  Reader r(w.bytes());
  EXPECT_TRUE(std::isinf(r.f64()));
  const double negzero = r.f64();
  EXPECT_EQ(negzero, 0.0);
  EXPECT_TRUE(std::signbit(negzero));
  EXPECT_EQ(r.f64(), std::numeric_limits<double>::denorm_min());
}

class WireFuzzRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzzRoundTrip, RandomSequencesRoundTrip) {
  Rng rng(GetParam());
  // Build a random sequence of typed writes, then read it back.
  Writer w;
  std::vector<int> kinds;
  std::vector<std::uint64_t> unsigneds;
  std::vector<std::int64_t> signeds;
  std::vector<std::string> strings;
  for (int i = 0; i < 200; ++i) {
    const int kind = static_cast<int>(rng.uniform_int(0, 2));
    kinds.push_back(kind);
    switch (kind) {
      case 0: {
        const auto v = rng();
        unsigneds.push_back(v);
        w.varint(v);
        break;
      }
      case 1: {
        const auto v = static_cast<std::int64_t>(rng());
        signeds.push_back(v);
        w.svarint(v);
        break;
      }
      default: {
        std::string s;
        const int len = static_cast<int>(rng.uniform_int(0, 32));
        for (int j = 0; j < len; ++j) {
          s += static_cast<char>(rng.uniform_int(0, 255));
        }
        strings.push_back(s);
        w.string(s);
        break;
      }
    }
  }
  Reader r(w.bytes());
  std::size_t iu = 0, is = 0, istr = 0;
  for (const int kind : kinds) {
    switch (kind) {
      case 0:
        EXPECT_EQ(r.varint(), unsigneds[iu++]);
        break;
      case 1:
        EXPECT_EQ(r.svarint(), signeds[is++]);
        break;
      default:
        EXPECT_EQ(r.string().value(), strings[istr++]);
        break;
    }
  }
  EXPECT_TRUE(r.exhausted());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzzRoundTrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------------------------ SharedBytes

Bytes iota_bytes(std::size_t n, std::uint8_t start = 0) {
  Bytes out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint8_t>(start + i);
  }
  return out;
}

// Regression: operator[] on an empty buffer used to dereference the null
// data pointer; out-of-range access now reads 0 by definition.
TEST(SharedBytes, EmptyAndOutOfRangeIndexReadZero) {
  const SharedBytes empty;
  EXPECT_EQ(empty[0], 0);
  EXPECT_EQ(empty[12345], 0);
  const SharedBytes two(Bytes{7, 9});
  EXPECT_EQ(two[1], 9);
  EXPECT_EQ(two[2], 0);
}

TEST(SharedBytes, SliceSharesStorage) {
  const SharedBytes whole(iota_bytes(100));
  const SharedBytes mid = whole.slice(10, 20);
  ASSERT_EQ(mid.size(), 20u);
  EXPECT_TRUE(mid.shares_storage(whole));
  EXPECT_EQ(mid.data(), whole.data() + 10);
  EXPECT_EQ(mid[0], 10);
  // Slices of slices compose; clamping never reads past the end.
  const SharedBytes tail = mid.slice(15);
  EXPECT_EQ(tail.size(), 5u);
  EXPECT_EQ(tail[0], 25);
  EXPECT_EQ(whole.slice(95, 10).size(), 5u);
  EXPECT_EQ(whole.slice(200, 10).size(), 0u);
}

TEST(SharedBytes, EqualityShortCircuitsSameStorage) {
  const SharedBytes a(iota_bytes(4096));
  const SharedBytes b = a;  // shared storage, same view
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, SharedBytes(iota_bytes(4096)));  // same content, new storage
  EXPECT_FALSE(a == a.slice(0, 4095));          // same storage, other view
  Bytes other = iota_bytes(4096);
  other[4095] ^= 0xFF;
  EXPECT_FALSE(a == SharedBytes(std::move(other)));
  EXPECT_EQ(SharedBytes(), SharedBytes(Bytes{}));  // both empty, null data
}

// --------------------------------------------------------------- ByteChain

TEST(ByteChain, AdjacentSlicesOfOneBufferCoalesce) {
  const SharedBytes whole(iota_bytes(100));
  ByteChain chain;
  chain.append(whole.slice(0, 40));
  chain.append(whole.slice(40, 35));
  chain.append(whole.slice(75));
  ASSERT_EQ(chain.size(), 100u);
  // In-order views of one buffer collapse to a single contiguous slice.
  EXPECT_EQ(chain.slices().size(), 1u);
  ASSERT_TRUE(chain.contiguous().has_value());
  EXPECT_EQ(chain, whole.span());
}

TEST(ByteChain, DistinctBuffersDoNotCoalesce) {
  ByteChain chain;
  chain.append(SharedBytes(iota_bytes(10)));
  chain.append(SharedBytes(iota_bytes(10, 10)));
  chain.append(SharedBytes{});  // empty slices are never stored
  EXPECT_EQ(chain.slices().size(), 2u);
  EXPECT_FALSE(chain.contiguous().has_value());
  EXPECT_EQ(chain.size(), 20u);
  EXPECT_EQ(chain, iota_bytes(20));
  EXPECT_EQ(chain[15], 15);
  EXPECT_EQ(chain[20], 0);  // out of range reads 0, like SharedBytes
}

TEST(ByteChain, SliceAndGatherAcrossBoundaries) {
  ByteChain chain;
  chain.append(SharedBytes(iota_bytes(16)));
  chain.append(SharedBytes(iota_bytes(16, 16)));
  chain.append(SharedBytes(iota_bytes(16, 32)));
  const ByteChain mid = chain.slice(8, 32);
  EXPECT_EQ(mid.size(), 32u);
  const Bytes expect = iota_bytes(32, 8);
  EXPECT_EQ(mid, expect);
  EXPECT_EQ(mid.gather(), expect);
  // Flatten reports exactly the bytes it had to materialise.
  std::size_t copied = 123;
  const SharedBytes flat = mid.flatten(&copied);
  EXPECT_EQ(copied, 32u);
  EXPECT_EQ(flat, SharedBytes(expect));
  std::size_t copied_single = 123;
  (void)ByteChain(SharedBytes(iota_bytes(8))).flatten(&copied_single);
  EXPECT_EQ(copied_single, 0u);
}

// ------------------------------------------------------- Reader over chains

TEST(ReaderOverChain, ReadsValuesStraddlingSliceBoundaries) {
  Writer w;
  w.u32(0xDEADBEEF);
  w.varint(300);
  w.string("hello chain");
  w.u64(0x0123456789ABCDEFULL);
  const Bytes wire = std::move(w).take();
  // Re-chain the wire bytes in 3-byte shards from distinct buffers so
  // every multi-byte value straddles at least one boundary.
  ByteChain chain;
  for (std::size_t i = 0; i < wire.size(); i += 3) {
    const std::size_t n = std::min<std::size_t>(3, wire.size() - i);
    chain.append(SharedBytes(Bytes(wire.begin() + static_cast<std::ptrdiff_t>(i),
                                   wire.begin() +
                                       static_cast<std::ptrdiff_t>(i + n))));
  }
  ASSERT_GT(chain.slices().size(), 1u);
  Reader r(chain);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.varint(), 300u);
  EXPECT_EQ(r.string().value(), "hello chain");
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(r.ok());
  (void)r.u8();
  EXPECT_FALSE(r.ok());  // truncated reads still fail cleanly
}

TEST(ReaderOverChain, ViewBlobIsZeroCopy) {
  Writer w;
  w.u8(0x42);
  w.blob(iota_bytes(64));
  const SharedBytes wire(std::move(w).take());
  ByteChain chain(wire);
  Reader r(chain);
  EXPECT_EQ(r.u8(), 0x42);
  const ByteChain view = r.view_blob();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(view.size(), 64u);
  EXPECT_EQ(view, iota_bytes(64));
  // The view is slices of the wire buffer, not a copy.
  ASSERT_EQ(view.slices().size(), 1u);
  EXPECT_TRUE(view.slices()[0].shares_storage(wire));
  EXPECT_TRUE(r.exhausted());
}

TEST(ReaderOverChain, StringViewAcrossSlicesIsGathered) {
  Writer w;
  w.string("split across two buffers");
  w.u8(7);
  const Bytes wire = std::move(w).take();
  ByteChain chain;
  chain.append(SharedBytes(Bytes(wire.begin(), wire.begin() + 9)));
  chain.append(SharedBytes(Bytes(wire.begin() + 9, wire.end())));
  Reader r(chain);
  EXPECT_EQ(r.view_string(), "split across two buffers");
  EXPECT_EQ(r.u8(), 7);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.exhausted());
}

// ------------------------------------------------------------ error latch

TEST(ReaderLatch, ReadsAfterAFailureReturnZeroAndDoNotAdvance) {
  Writer w;
  w.u8(5);
  w.u16(0xBEEF);
  const Bytes wire = std::move(w).take();
  Reader r(wire);
  EXPECT_EQ(r.u8(), 5);
  EXPECT_EQ(r.u32(), 0u);  // only two bytes left
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.offset(), 1u);
  EXPECT_EQ(r.remaining(), 0u);
  // The two bytes a u16 would fit stay unread: the reader has stopped.
  EXPECT_EQ(r.u16(), 0u);
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.varint(), 0u);
  EXPECT_EQ(r.svarint(), 0);
  EXPECT_EQ(r.f64(), 0.0);
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.view_string(), "");
  EXPECT_TRUE(r.blob().empty());
  EXPECT_TRUE(r.view_blob().empty());
  r.skip(0);
  EXPECT_EQ(r.offset(), 1u);
  EXPECT_TRUE(r.exhausted());
  // string() alone answers with the latched error.
  const Result<std::string> text = r.string();
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.code(), Errc::malformed);
}

TEST(ReaderLatch, FirstErrorWins) {
  const Bytes wire = {2, 1};
  Reader r(wire);
  EXPECT_FALSE(r.boolean());  // 2 is not a boolean
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::malformed);
  const std::string first = r.error().message;
  r.fail(Errc::out_of_range, "a later fault");
  (void)r.u64();  // and a later truncation
  EXPECT_EQ(r.error().code, Errc::malformed);
  EXPECT_EQ(r.error().message, first);
  EXPECT_EQ(r.offset(), 0u);

  // A decoder's own fault latches the same way and outranks what follows.
  Reader s(wire);
  (void)s.u8();
  s.fail(Errc::out_of_range, "value out of range");
  (void)s.u64();
  EXPECT_EQ(s.error().code, Errc::out_of_range);
  EXPECT_EQ(s.offset(), 1u);
}

TEST(ReaderLatch, OffsetReportsWhereTheFailureHappened) {
  Writer w;
  w.u32(1);
  w.varint(UINT64_MAX);
  w.string("abc");
  Bytes wire = std::move(w).take();
  const std::size_t string_at = 4 + 10;
  wire.resize(string_at + 2);  // the string's length says 3, two remain
  for (const bool chained : {false, true}) {
    ByteChain chain;
    chain.append(SharedBytes(Bytes(wire.begin(), wire.begin() + 7)));
    chain.append(SharedBytes(Bytes(wire.begin() + 7, wire.end())));
    Reader r = chained ? Reader(chain) : Reader(wire);
    EXPECT_EQ(r.u32(), 1u);
    EXPECT_EQ(r.varint(), UINT64_MAX);
    EXPECT_EQ(r.offset(), string_at);
    EXPECT_EQ(r.view_string(), "");
    ASSERT_FALSE(r.ok()) << chained;
    EXPECT_EQ(r.offset(), string_at) << chained;
  }
  // An over-long varint fails where it starts.
  const Bytes endless(11, 0x80);
  Reader v(endless);
  EXPECT_EQ(v.varint(), 0u);
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.offset(), 0u);
}

TEST(ReaderLatch, HostileLengthsAllocateNothing) {
  Writer w;
  w.varint(UINT64_MAX / 2);  // a blob "length" far beyond the input
  const Bytes wire = std::move(w).take();
  Reader r(wire);
  EXPECT_TRUE(r.blob().empty());
  EXPECT_FALSE(r.ok());
  Reader s(wire);
  EXPECT_TRUE(s.view_blob().empty());
  EXPECT_FALSE(s.ok());
  Reader t(wire);
  t.skip(static_cast<std::size_t>(t.varint()));
  EXPECT_FALSE(t.ok());
}

}  // namespace
}  // namespace collabqos::serde
