// ASN.1 BER (Basic Encoding Rules) — the subset SNMP uses on the wire:
// definite-length TLVs, INTEGER, OCTET STRING, NULL, OBJECT IDENTIFIER,
// SEQUENCE, the SMI application types (Counter32/Gauge32/TimeTicks/
// Counter64) and context-class PDU tags. Pdu::encode/decode sit on top
// of this, so the simulated datagrams carry genuine SNMPv2c messages a
// real dissector would parse. Encoding builds each message from its tail
// in one reused buffer; decoding reads through the one wire reader,
// serde::Reader.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "collabqos/serde/wire.hpp"
#include "collabqos/snmp/oid.hpp"
#include "collabqos/util/result.hpp"

namespace collabqos::snmp::ber {

/// Universal / application / context tags used by SNMP.
namespace tags {
inline constexpr std::uint8_t kInteger = 0x02;
inline constexpr std::uint8_t kOctetString = 0x04;
inline constexpr std::uint8_t kNull = 0x05;
inline constexpr std::uint8_t kOid = 0x06;
inline constexpr std::uint8_t kSequence = 0x30;
// SMI application class.
inline constexpr std::uint8_t kCounter32 = 0x41;
inline constexpr std::uint8_t kGauge32 = 0x42;
inline constexpr std::uint8_t kTimeTicks = 0x43;
inline constexpr std::uint8_t kCounter64 = 0x46;
// Context-class constructed PDU tags (SNMPv2c).
inline constexpr std::uint8_t kGetRequest = 0xA0;
inline constexpr std::uint8_t kGetNextRequest = 0xA1;
inline constexpr std::uint8_t kResponse = 0xA2;
inline constexpr std::uint8_t kSetRequest = 0xA3;
inline constexpr std::uint8_t kGetBulkRequest = 0xA5;
inline constexpr std::uint8_t kTrapV2 = 0xA7;
}  // namespace tags

/// Builds BER from the tail (net-snmp's reverse build). Each call
/// prepends one TLV, so a constructed TLV is closed after its content,
/// when its length is known: a message is encoded in one pass with no
/// temporaries. clear() keeps the buffer, so an encoder reused across
/// messages stops allocating once it has grown to the largest.
class Encoder {
 public:
  Encoder() = default;
  Encoder(const Encoder&) = delete;
  Encoder& operator=(const Encoder&) = delete;

  void clear() noexcept { size_ = 0; }
  /// Octets written so far; a mark for wrap().
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// The encoding, first octet first.
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return {buffer_.get() + capacity_ - size_, size_};
  }

  /// Prepends a tag and a definite length (short form below 128).
  void header(std::uint8_t tag, std::size_t length);
  /// Closes a constructed TLV around everything written since `mark`.
  void wrap(std::uint8_t tag, std::size_t mark) {
    header(tag, size_ - mark);
  }

  /// INTEGER with minimal two's-complement content octets.
  void integer(std::int64_t value);
  /// Unsigned value under an application tag (Counter32/Gauge32/...):
  /// minimal unsigned content with a leading 0x00 when the high bit is set.
  void unsigned_integer(std::uint8_t tag, std::uint64_t value);
  void octet_string(std::string_view value);
  void null() { header(tags::kNull, 0); }
  /// X.690 OID content: first two arcs fold into 40*a+b, every
  /// subidentifier base-128. Writes nothing and returns false unless the
  /// OID has at least 2 arcs, arcs[0] <= 2, arcs[1] <= 39 when arcs[0] < 2,
  /// and 40*a+b fits 32 bits.
  [[nodiscard]] bool oid(const Oid& oid);
  /// The OID 0.0.<arcs>: how a PDU carries an OID X.690 cannot (toy
  /// OIDs with fewer than two arcs, or a bad root). Always encodable.
  void padded_oid(const Oid& oid);

 private:
  /// Room for `n` more octets in front of the current ones.
  std::uint8_t* prepend(std::size_t n) {
    if (capacity_ - size_ < n) grow(n);
    size_ += n;
    return buffer_.get() + capacity_ - size_;
  }
  void grow(std::size_t n);
  /// One base-128 subidentifier.
  void subidentifier(std::uint32_t value);
  /// Base-128 arcs and the folded head, then the OID header.
  void oid_content(std::uint32_t head, std::span<const std::uint32_t> arcs);

  std::unique_ptr<std::uint8_t[]> buffer_;
  std::size_t capacity_ = 0;  ///< content sits at the buffer's tail
  std::size_t size_ = 0;
};

// Reading. A read takes the reader over the whole message and the offset
// `end` where the constructed TLV enclosing it (or the input) ends: a TLV
// must lie wholly before `end`, so a SEQUENCE or PDU bounds what is read
// inside it. A fault latches Errc::malformed in the reader; later reads
// return zero or empty, so a decoder checks r.ok() once per record.
// Content is viewed in place, so the reader must be over a span.

/// A TLV header: its tag, its content length, and the input offset where
/// its content ends (the `end` for TLVs nested inside it). All zero once
/// the reader has failed.
struct Header {
  std::uint8_t tag = 0;
  std::size_t length = 0;
  std::size_t end = 0;
};

/// The next TLV header. Faults on a missing or unsupported length form
/// (indefinite, or more than 8 length octets) and on a TLV that does not
/// end by `end`.
[[nodiscard]] Header read_header(serde::Reader& r, std::size_t end);
/// read_header(), and a fault unless the tag is `tag`.
[[nodiscard]] Header expect(serde::Reader& r, std::uint8_t tag,
                            std::size_t end);

// Content readers: each consumes the `length` content octets of the
// header just read.

/// INTEGER content: two's complement, 1 to 8 octets.
[[nodiscard]] std::int64_t read_integer(serde::Reader& r, std::size_t length);
/// Unsigned application-type content: up to 8 value octets, plus an
/// optional leading 0x00.
[[nodiscard]] std::uint64_t read_unsigned(serde::Reader& r,
                                          std::size_t length);
/// OCTET STRING content, as a view of the input.
[[nodiscard]] std::string_view read_octets(serde::Reader& r,
                                           std::size_t length);
/// OID content: faults when empty, on a subidentifier past 32 bits, one of
/// more than 6 octets or led by 0x80, or a truncated last one. The first
/// subidentifier unfolds to two arcs (X.690 8.19.4).
[[nodiscard]] Oid read_oid(serde::Reader& r, std::size_t length);

}  // namespace collabqos::snmp::ber
