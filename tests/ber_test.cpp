// ASN.1 BER codec: known byte vectors (so the wire format provably
// matches what a real SNMP dissector expects), minimal-length rules,
// and malformed-input rejection.
#include <gtest/gtest.h>

#include <utility>

#include "collabqos/snmp/ber.hpp"
#include "collabqos/snmp/pdu.hpp"

namespace collabqos::snmp {
namespace {

using serde::Bytes;

Bytes encoded(const ber::Encoder& e) {
  return Bytes(e.bytes().begin(), e.bytes().end());
}

Bytes encode_integer(std::int64_t v) {
  ber::Encoder e;
  e.integer(v);
  return encoded(e);
}

Bytes encode_unsigned(std::uint8_t tag, std::uint64_t v) {
  ber::Encoder e;
  e.unsigned_integer(tag, v);
  return encoded(e);
}

TEST(Ber, IntegerMinimalEncodings) {
  EXPECT_EQ(encode_integer(0), (Bytes{0x02, 0x01, 0x00}));
  EXPECT_EQ(encode_integer(127), (Bytes{0x02, 0x01, 0x7F}));
  EXPECT_EQ(encode_integer(128), (Bytes{0x02, 0x02, 0x00, 0x80}));
  EXPECT_EQ(encode_integer(256), (Bytes{0x02, 0x02, 0x01, 0x00}));
  EXPECT_EQ(encode_integer(-1), (Bytes{0x02, 0x01, 0xFF}));
  EXPECT_EQ(encode_integer(-128), (Bytes{0x02, 0x01, 0x80}));
  EXPECT_EQ(encode_integer(-129), (Bytes{0x02, 0x02, 0xFF, 0x7F}));
}

TEST(Ber, IntegerRoundTripExtremes) {
  const std::int64_t extremes[] = {INT64_MIN,     INT64_MIN + 1,
                                   -1000000007LL, 0,
                                   42,            INT64_MAX};
  for (const std::int64_t v : extremes) {
    const Bytes bytes = encode_integer(v);
    serde::Reader r(bytes);
    const ber::Header tlv = ber::expect(r, ber::tags::kInteger, bytes.size());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(ber::read_integer(r, tlv.length), v);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(Ber, UnsignedSignProtection) {
  // 255 needs a 0x00 prefix so it is not read as negative.
  EXPECT_EQ(encode_unsigned(ber::tags::kGauge32, 255),
            (Bytes{0x42, 0x02, 0x00, 0xFF}));
  EXPECT_EQ(encode_unsigned(ber::tags::kGauge32, 0),
            (Bytes{0x42, 0x01, 0x00}));
  EXPECT_EQ(encode_unsigned(ber::tags::kCounter64, UINT64_MAX),
            (Bytes{0x46, 0x09, 0x00, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                   0xFF, 0xFF}));
}

TEST(Ber, UnsignedRoundTrip) {
  const std::uint64_t cases[] = {0,     127,        128,
                                 65535, 4294967295, UINT64_MAX};
  for (const std::uint64_t v : cases) {
    const Bytes bytes = encode_unsigned(ber::tags::kCounter64, v);
    serde::Reader r(bytes);
    const ber::Header tlv =
        ber::expect(r, ber::tags::kCounter64, bytes.size());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(ber::read_unsigned(r, tlv.length), v);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.exhausted());
  }
}

TEST(Ber, OidKnownVector) {
  // The classic example: 1.3.6.1.2.1.1.1.0 -> 2B 06 01 02 01 01 01 00.
  ber::Encoder e;
  ASSERT_TRUE(e.oid(Oid{1, 3, 6, 1, 2, 1, 1, 1, 0}));
  EXPECT_EQ(encoded(e), (Bytes{0x06, 0x08, 0x2B, 0x06, 0x01, 0x02, 0x01,
                               0x01, 0x01, 0x00}));
}

TEST(Ber, OidMultiByteArc) {
  // enterprise arc 26510 = 0x81 0xCF 0x0E in base-128.
  ber::Encoder e;
  ASSERT_TRUE(e.oid(Oid{1, 3, 6, 1, 4, 1, 26510}));
  const Bytes bytes = encoded(e);
  EXPECT_EQ(bytes, (Bytes{0x06, 0x08, 0x2B, 0x06, 0x01, 0x04, 0x01, 0x81,
                          0xCF, 0x0E}));
  serde::Reader r(bytes);
  const ber::Header tlv = ber::expect(r, ber::tags::kOid, bytes.size());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ber::read_oid(r, tlv.length), (Oid{1, 3, 6, 1, 4, 1, 26510}));
  EXPECT_TRUE(r.ok());
}

TEST(Ber, OidRejectsUnencodableRoots) {
  ber::Encoder e;
  EXPECT_FALSE(e.oid(Oid{9, 9}));   // arcs[0] > 2
  EXPECT_FALSE(e.oid(Oid{1}));      // fewer than 2 arcs
  EXPECT_FALSE(e.oid(Oid{1, 40}));  // arcs[1] > 39
  EXPECT_EQ(e.size(), 0u);          // and nothing was written
}

TEST(Ber, OidFirstSubidentifierIsBase128) {
  // X.690 8.19.4: 40*a+b is a subidentifier like any other, so it takes
  // more than one octet from 128 on. The first vector is X.690's own.
  const std::pair<Oid, Bytes> vectors[] = {
      {Oid{2, 100, 3}, Bytes{0x06, 0x03, 0x81, 0x34, 0x03}},
      {Oid{2, 999, 1}, Bytes{0x06, 0x03, 0x88, 0x37, 0x01}},
      {Oid{2, 47}, Bytes{0x06, 0x01, 0x7F}},
      {Oid{2, 48}, Bytes{0x06, 0x02, 0x81, 0x00}},
      // The largest 2.x: 40*2+x is 2^32-1.
      {Oid{2, UINT32_MAX - 80},
       Bytes{0x06, 0x05, 0x8F, 0xFF, 0xFF, 0xFF, 0x7F}},
  };
  for (const auto& [oid, bytes] : vectors) {
    SCOPED_TRACE(oid.to_string());
    ber::Encoder e;
    ASSERT_TRUE(e.oid(oid));
    EXPECT_EQ(encoded(e), bytes);
    serde::Reader r(bytes);
    const ber::Header tlv = ber::expect(r, ber::tags::kOid, bytes.size());
    EXPECT_EQ(ber::read_oid(r, tlv.length), oid);
    EXPECT_TRUE(r.ok());
  }
  // One past the largest has no encoding, and nothing is written.
  ber::Encoder e;
  EXPECT_FALSE(e.oid(Oid{2, UINT32_MAX - 79}));
  EXPECT_EQ(e.size(), 0u);
  // A first subidentifier past 32 bits, led by 0x80, or cut short is
  // malformed.
  for (const Bytes& content : {Bytes{0x90, 0x80, 0x80, 0x80, 0x00},
                               Bytes{0x80, 0x01}, Bytes{0x81}}) {
    serde::Reader r(content);
    (void)ber::read_oid(r, content.size());
    EXPECT_FALSE(r.ok());
  }
}

TEST(Ber, NonMinimalSubidentifierIsRejected) {
  // X.690 8.19.2: a subidentifier never starts with the octet 0x80, so
  // 2B 80 01 (arc 1 after a padding octet) is not a second encoding of
  // 1.3.1, whose one encoding is 2B 01.
  const Bytes padded = {0x2B, 0x80, 0x01};
  serde::Reader r(padded);
  (void)ber::read_oid(r, padded.size());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::malformed);
  // Inside a subidentifier, 0x80 is an ordinary continuation octet:
  // 81 80 00 is arc 2^14.
  const Bytes inner = {0x2B, 0x81, 0x80, 0x00};
  serde::Reader ok(inner);
  EXPECT_EQ(ber::read_oid(ok, inner.size()), (Oid{1, 3, 16384}));
  EXPECT_TRUE(ok.ok());
}

TEST(Ber, LongFormLength) {
  ber::Encoder e;
  e.octet_string(std::string(200, '\xAA'));
  const Bytes bytes = encoded(e);
  ASSERT_GE(bytes.size(), 3u);
  EXPECT_EQ(bytes[0], 0x04);
  EXPECT_EQ(bytes[1], 0x81);  // long form, 1 length octet
  EXPECT_EQ(bytes[2], 200);
  serde::Reader r(bytes);
  const ber::Header tlv = ber::read_header(r, bytes.size());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(tlv.length, 200u);
  EXPECT_EQ(tlv.end, bytes.size());
}

TEST(Ber, TwoByteLongFormLength) {
  // A SEQUENCE around 1000 content octets: one OCTET STRING TLV of 996
  // octets plus its tag and three length octets.
  ber::Encoder e;
  e.octet_string(std::string(996, '\x11'));
  ASSERT_EQ(e.size(), 1000u);
  e.wrap(ber::tags::kSequence, 0);
  const Bytes bytes = encoded(e);
  EXPECT_EQ(bytes[1], 0x82);
  EXPECT_EQ(bytes[2], 0x03);
  EXPECT_EQ(bytes[3], 0xE8);
}

TEST(Ber, MalformedInputsRejected) {
  const auto header_fails = [](const Bytes& bytes) {
    serde::Reader r(bytes);
    (void)ber::read_header(r, bytes.size());
    return !r.ok() && r.error().code == Errc::malformed;
  };
  // Truncated length.
  EXPECT_TRUE(header_fails({0x02}));
  // Indefinite length (0x80) unsupported.
  EXPECT_TRUE(header_fails({0x30, 0x80, 0x00, 0x00}));
  // Content longer than input.
  EXPECT_TRUE(header_fails({0x04, 0x05, 0x01}));
  // Oversized integer content.
  {
    const Bytes content(9, 0x01);
    serde::Reader r(content);
    (void)ber::read_integer(r, content.size());
    EXPECT_FALSE(r.ok());
  }
  // Truncated multi-byte OID arc.
  {
    const Bytes content = {0x2B, 0x81};
    serde::Reader r(content);
    (void)ber::read_oid(r, content.size());
    EXPECT_FALSE(r.ok());
  }
}

TEST(Ber, LengthNearTwoToTheSixtyFourIsRejected) {
  // An 8-octet length that wraps `offset + length` past zero. A decoder
  // that adds before it compares accepts it with a content span past the
  // end of the input.
  const Bytes tlv = {0x04, 0x88, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                     0xFF, 0xFF, 0xF8, 'a',  'b',  'c'};
  serde::Reader r(tlv);
  (void)ber::read_header(r, tlv.size());
  EXPECT_FALSE(r.ok());

  // The same length on the community string of a whole message.
  Bytes message = {0x30, 0x00, 0x02, 0x01, 0x01};
  message.insert(message.end(), tlv.begin(), tlv.end());
  message.insert(message.end(), 5, 0x00);
  message[1] = static_cast<std::uint8_t>(message.size() - 2);
  const auto decoded = Pdu::decode(message);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code(), Errc::malformed);
}

TEST(Ber, TlvMustEndInsideItsParent) {
  // A 3-byte OCTET STRING inside a SEQUENCE that claims only 2 content
  // bytes: the input holds the string, its parent does not.
  const Bytes bytes = {0x30, 0x02, 0x04, 0x03, 'a', 'b', 'c'};
  serde::Reader r(bytes);
  const ber::Header sequence =
      ber::expect(r, ber::tags::kSequence, bytes.size());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(sequence.end, 4u);
  (void)ber::read_header(r, sequence.end);
  EXPECT_FALSE(r.ok());
}

TEST(Ber, WholeMessageKnownVector) {
  // GET sysDescr.0, community "public", request-id 0x1234: the exact
  // bytes a textbook SNMPv2c encoder produces.
  Pdu pdu;
  pdu.type = PduType::get;
  pdu.community = "public";
  pdu.request_id = 0x1234;
  pdu.bindings.resize(1);
  pdu.bindings[0].oid = Oid{1, 3, 6, 1, 2, 1, 1, 1, 0};

  const Bytes expected = {
      0x30, 0x27,                                      // message SEQUENCE
      0x02, 0x01, 0x01,                                // version = 1 (v2c)
      0x04, 0x06, 'p',  'u',  'b',  'l',  'i',  'c',   // community
      0xA0, 0x1A,                                      // GetRequest-PDU
      0x02, 0x02, 0x12, 0x34,                          // request-id
      0x02, 0x01, 0x00,                                // error-status
      0x02, 0x01, 0x00,                                // error-index
      0x30, 0x0E,                                      // varbind list
      0x30, 0x0C,                                      // varbind
      0x06, 0x08, 0x2B, 0x06, 0x01, 0x02, 0x01, 0x01, 0x01, 0x00,
      0x05, 0x00,                                      // NULL value
  };
  EXPECT_EQ(pdu.encode(), expected);

  auto decoded = Pdu::decode(expected);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, PduType::get);
  EXPECT_EQ(decoded.value().community, "public");
  EXPECT_EQ(decoded.value().request_id, 0x1234u);
  ASSERT_EQ(decoded.value().bindings.size(), 1u);
  EXPECT_EQ(decoded.value().bindings[0].oid,
            (Oid{1, 3, 6, 1, 2, 1, 1, 1, 0}));
  EXPECT_EQ(decoded.value().bindings[0].value.type(), ValueType::null);
}

/// An SNMPv2c message with one varbind and the given PDU tag and header
/// INTEGERs (request id, error status or non-repeaters, error index or
/// max-repetitions).
Bytes message_with(std::uint8_t pdu_tag, std::int64_t request_id,
                   std::int64_t status, std::int64_t index) {
  // Built from the tail, innermost TLV first.
  ber::Encoder e;
  e.null();
  EXPECT_TRUE(e.oid(Oid{1, 3, 6, 1, 2, 1, 1, 1, 0}));
  e.wrap(ber::tags::kSequence, 0);  // varbind
  e.wrap(ber::tags::kSequence, 0);  // varbind list
  e.integer(index);
  e.integer(status);
  e.integer(request_id);
  e.wrap(pdu_tag, 0);
  e.octet_string("public");
  e.integer(1);  // SNMPv2c
  e.wrap(ber::tags::kSequence, 0);
  return encoded(e);
}

TEST(Ber, HeaderIntegersOutsideTheirFieldsAreRejected) {
  // Request id and error index (GETBULK: max-repetitions) are 32-bit
  // unsigned fields; GETBULK non-repeaters travels in the one-byte error
  // status. A wire INTEGER outside the field is malformed, not narrowed.
  constexpr std::int64_t k32 = std::int64_t{1} << 32;
  const auto verdict = [](const Bytes& bytes) { return Pdu::decode(bytes).code(); };
  const auto get = ber::tags::kGetRequest;
  const auto bulk = ber::tags::kGetBulkRequest;
  EXPECT_EQ(verdict(message_with(get, k32 - 1, 0, 0)), Errc::ok);
  EXPECT_EQ(verdict(message_with(get, -1, 0, 0)), Errc::malformed);
  EXPECT_EQ(verdict(message_with(get, k32, 0, 0)), Errc::malformed);
  EXPECT_EQ(verdict(message_with(get, 7, 0, k32)), Errc::malformed);
  EXPECT_EQ(verdict(message_with(bulk, 7, 255, k32 - 1)), Errc::ok);
  EXPECT_EQ(verdict(message_with(bulk, 7, -1, 16)), Errc::malformed);
  EXPECT_EQ(verdict(message_with(bulk, 7, 256, 16)), Errc::malformed);
  EXPECT_EQ(verdict(message_with(bulk, 7, 0, k32)), Errc::malformed);
  const auto decoded = Pdu::decode(message_with(bulk, k32 - 1, 255, k32 - 1));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().request_id, 0xFFFFFFFFu);
  EXPECT_EQ(static_cast<int>(decoded.value().error_status), 255);
  EXPECT_EQ(decoded.value().error_index, 0xFFFFFFFFu);
}

TEST(Ber, WrongVersionRejected) {
  // Hand-build a v1 (version 0) message, from the tail.
  ber::Encoder e;
  e.header(ber::tags::kSequence, 0);  // empty varbind list
  e.integer(0);
  e.integer(0);
  e.integer(1);
  e.wrap(ber::tags::kGetRequest, 0);
  e.octet_string("public");
  e.integer(0);  // version 0 = SNMPv1
  e.wrap(ber::tags::kSequence, 0);
  auto decoded = Pdu::decode(encoded(e));
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code(), Errc::unsupported);
}

}  // namespace
}  // namespace collabqos::snmp
