// Binary wire format: little-endian fixed-width scalars, LEB128 varints,
// length-prefixed strings/blobs. Every protocol object in the framework
// (semantic messages, RTP payloads, media packets) serialises through
// Writer and decodes through Reader. SNMP messages keep their ASN.1 BER
// form (snmp/ber.hpp) but are written into a Writer and read through a
// Reader too, so fuzz and property tests cover one reader.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <forward_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "collabqos/util/result.hpp"

namespace collabqos::serde {

using Bytes = std::vector<std::uint8_t>;

class ByteChain;

/// An immutable, reference-counted byte buffer view. One encode can fan
/// out to many receivers (multicast delivery, roster pushes, retransmit
/// queues) while every copy shares the same underlying storage — the
/// per-receiver cost is a pointer bump, not a buffer duplication.
///
/// A SharedBytes may view a sub-range of its storage: slice() produces
/// views that keep the whole backing buffer alive but expose only
/// [offset, offset+len). The zero-copy pipeline (DESIGN.md §11) passes
/// such views across layer boundaries instead of re-copying payloads.
class SharedBytes {
 public:
  SharedBytes() = default;
  /// Implicit on purpose: call sites that just encoded a buffer hand it
  /// over by value and the wrapper takes ownership without copying.
  SharedBytes(Bytes bytes)
      : data_(std::make_shared<const Bytes>(std::move(bytes))),
        size_(data_->size()) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return data_ ? data_->data() + offset_ : nullptr;
  }
  /// Bounds-safe element access: out-of-range (including any index on an
  /// empty or default-constructed buffer) reads as 0 rather than
  /// dereferencing null storage.
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const noexcept {
    return i < size_ ? data()[i] : 0;
  }
  [[nodiscard]] auto begin() const noexcept { return data(); }
  [[nodiscard]] auto end() const noexcept { return data() + size(); }
  [[nodiscard]] std::span<const std::uint8_t> span() const noexcept {
    return {data(), size()};
  }
  operator std::span<const std::uint8_t>() const noexcept { return span(); }

  /// Zero-copy sub-view sharing this buffer's storage. The range is
  /// clamped to the buffer: slice(off > size) is empty, len runs to the
  /// end when it overshoots (std::string_view::substr semantics).
  [[nodiscard]] SharedBytes slice(
      std::size_t offset,
      std::size_t len = static_cast<std::size_t>(-1)) const noexcept {
    const std::size_t begin = offset < size_ ? offset : size_;
    const std::size_t count = len < size_ - begin ? len : size_ - begin;
    return SharedBytes(data_, offset_ + begin, count);
  }

  /// Whether two views are backed by the same allocation (regardless of
  /// the ranges they expose).
  [[nodiscard]] bool shares_storage(const SharedBytes& other) const noexcept {
    return data_ != nullptr && data_ == other.data_;
  }

  /// Content equality (also matches plain Bytes via span conversion).
  friend bool operator==(const SharedBytes& a,
                         std::span<const std::uint8_t> b) noexcept {
    return a.size() == b.size() &&
           std::equal(b.begin(), b.end(), a.begin());
  }
  /// View equality: same storage + same range short-circuits the byte
  /// compare (multicast fan-out compares views of one encode constantly).
  friend bool operator==(const SharedBytes& a,
                         const SharedBytes& b) noexcept {
    if (a.shares_storage(b) && a.offset_ == b.offset_ &&
        a.size_ == b.size_) {
      return true;
    }
    return a == b.span();
  }

 private:
  friend class ByteChain;
  SharedBytes(std::shared_ptr<const Bytes> data, std::size_t offset,
              std::size_t size) noexcept
      : data_(std::move(data)), offset_(offset), size_(size) {}

  std::shared_ptr<const Bytes> data_;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

/// Append-only encoder.
class Writer {
 public:
  Writer() = default;
  explicit Writer(std::size_t reserve) { buffer_.reserve(reserve); }

  /// Capacity hint: callers that can bound the encoded size up front
  /// (fragmentation-sized message encodes) avoid growth reallocations.
  void reserve(std::size_t capacity) { buffer_.reserve(capacity); }

  void u8(std::uint8_t v) { buffer_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// LEB128 unsigned varint (1..10 bytes).
  void varint(std::uint64_t v);
  /// Zig-zag + varint for signed values.
  void svarint(std::int64_t v);
  void f64(double v);
  void boolean(bool v);
  /// varint length + raw bytes.
  void string(std::string_view v);
  void blob(std::span<const std::uint8_t> v);
  /// As blob(), gathering a (possibly non-contiguous) chain of slices.
  void blob(const ByteChain& v);

  [[nodiscard]] const Bytes& bytes() const noexcept { return buffer_; }
  [[nodiscard]] Bytes take() && noexcept { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

 private:
  Bytes buffer_;
};

/// The one wire decoder: bounds-checked reads over a borrowed byte span
/// or a ByteChain (DESIGN.md §11).
///
/// Reads return their value directly. The first failure — a truncated
/// read, a malformed varint or boolean, or a fault a decoder reports
/// through fail() — latches an Error and the offset where it happened.
/// From then on every read returns zero or empty and does not advance,
/// and remaining() is 0, so a decoder reads a whole record and checks
/// ok() once. A later fault never replaces the first one.
///
/// While a value lies inside the current slice a read is one bounds check
/// and a load; only a value that crosses a slice boundary takes the
/// out-of-line path. The reader borrows its input: the span, or the
/// chain and its slice list, must outlive it.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) noexcept
      : cur_(data.data()),
        end_(data.data() + data.size()),
        begin_(data.data()),
        size_(data.size()) {}
  explicit Reader(const ByteChain& chain) noexcept;

  [[nodiscard]] std::uint8_t u8() noexcept {
    if (cur_ != end_) [[likely]] return *cur_++;
    std::uint8_t v = 0;
    (void)read_slow(&v, 1);
    return v;
  }
  [[nodiscard]] std::uint16_t u16() noexcept {
    return static_cast<std::uint16_t>(fixed<2>());
  }
  [[nodiscard]] std::uint32_t u32() noexcept {
    return static_cast<std::uint32_t>(fixed<4>());
  }
  [[nodiscard]] std::uint64_t u64() noexcept { return fixed<8>(); }
  /// LEB128 unsigned varint (at most 10 bytes).
  [[nodiscard]] std::uint64_t varint() noexcept {
    if (cur_ != end_ && *cur_ < 0x80) [[likely]] return *cur_++;
    return varint_slow();
  }
  [[nodiscard]] std::int64_t svarint() noexcept {
    const std::uint64_t u = varint();
    return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }
  [[nodiscard]] double f64() noexcept { return std::bit_cast<double>(u64()); }
  /// One byte, 0 or 1; any other value is a fault.
  [[nodiscard]] bool boolean() noexcept;
  /// A length-prefixed string, owned. The latched error once the reader
  /// has failed.
  [[nodiscard]] Result<std::string> string();
  /// A length-prefixed string as a view of the input's bytes. A string
  /// that crosses a slice boundary is gathered into storage the reader
  /// owns, so a view stays valid while both the input and the reader do.
  [[nodiscard]] std::string_view view_string();
  /// A length-prefixed blob, copied out.
  [[nodiscard]] Bytes blob();
  /// A length-prefixed blob as slices sharing the chain's storage (a
  /// copy on a span reader, which has no storage to share).
  [[nodiscard]] ByteChain view_blob();

  /// Advance past `n` raw bytes without materialising them.
  void skip(std::size_t n) noexcept {
    if (n <= static_cast<std::size_t>(end_ - cur_)) [[likely]] {
      cur_ += n;
      return;
    }
    (void)read_slow(nullptr, n);
  }

  /// Latch a decoder's own fault at the current offset, unless an earlier
  /// failure is already latched (the first fault always wins).
  void fail(Errc code, std::string_view message);

  [[nodiscard]] bool ok() const noexcept { return error_.code == Errc::ok; }
  /// The latched error; meaningful only when !ok().
  [[nodiscard]] const Error& error() const noexcept { return error_; }

  /// Bytes consumed, or after a failure the offset where it happened.
  [[nodiscard]] std::size_t offset() const noexcept {
    return ok() ? consumed_ + static_cast<std::size_t>(cur_ - begin_)
                : failed_at_;
  }
  /// Bytes left to read; 0 once the reader has failed.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return ok() ? size_ - offset() : 0;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }
  /// The unread bytes of the current slice: all of them on a span reader
  /// or a single-slice chain, none once the reader has failed.
  [[nodiscard]] std::span<const std::uint8_t> remaining_span()
      const noexcept {
    return {cur_, end_};
  }

 private:
  /// Little-endian fixed-width read of N bytes.
  template <std::size_t N>
  [[nodiscard]] std::uint64_t fixed() noexcept {
    std::uint8_t raw[N];
    if (static_cast<std::size_t>(end_ - cur_) >= N) [[likely]] {
      std::memcpy(raw, cur_, N);
      cur_ += N;
    } else if (!read_slow(raw, N)) {
      return 0;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < N; ++i) {
      v |= static_cast<std::uint64_t>(raw[i]) << (8 * i);
    }
    return v;
  }

  /// Copy `n` bytes across slice boundaries to `out` (or skip them when
  /// `out` is null), or latch a truncation.
  bool read_slow(std::uint8_t* out, std::size_t n) noexcept;
  std::uint64_t varint_slow() noexcept;
  /// A varint length, or 0 after latching a truncation when the input
  /// holds fewer bytes than it claims.
  std::size_t length_prefix() noexcept;
  /// Make the next slice current; false at the end of the input.
  bool next_slice() noexcept;
  /// Latch `code` at `offset` unless a failure is already latched.
  void fail_at(std::size_t offset, Errc code, std::string_view message);

  const std::uint8_t* cur_;    ///< cursor in the current slice
  const std::uint8_t* end_;    ///< end of the current slice
  const std::uint8_t* begin_;  ///< start of the current slice
  /// The current slice and the chain's last one (null on a span reader).
  const SharedBytes* slice_ = nullptr;
  const SharedBytes* last_ = nullptr;
  std::size_t consumed_ = 0;  ///< bytes in the slices before the current
  std::size_t size_ = 0;      ///< bytes in the whole input
  std::size_t failed_at_ = 0;
  Error error_{Errc::ok, {}};
  /// Strings gathered across slice boundaries, for view_string().
  std::forward_list<std::string> spilled_;
};

}  // namespace collabqos::serde
