// Binary wire format: little-endian fixed-width scalars, LEB128 varints,
// length-prefixed strings/blobs. Every protocol object in the framework
// (semantic messages, SNMP PDUs, RTP payloads, media packets) serialises
// through these two classes so fuzz/property tests cover one codec.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "collabqos/util/result.hpp"

namespace collabqos::serde {

using Bytes = std::vector<std::uint8_t>;

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
  void blob(const class ByteChain& v);

  [[nodiscard]] const Bytes& bytes() const noexcept { return buffer_; }
  [[nodiscard]] Bytes take() && noexcept { return std::move(buffer_); }
  [[nodiscard]] std::size_t size() const noexcept { return buffer_.size(); }

 private:
  Bytes buffer_;
};

/// Bounds-checked decoder over a borrowed byte span. All reads return a
/// Result so truncated/corrupt input is an error, never UB.
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) noexcept
      : data_(data) {}

  [[nodiscard]] Result<std::uint8_t> u8();
  [[nodiscard]] Result<std::uint16_t> u16();
  [[nodiscard]] Result<std::uint32_t> u32();
  [[nodiscard]] Result<std::uint64_t> u64();
  [[nodiscard]] Result<std::uint64_t> varint();
  [[nodiscard]] Result<std::int64_t> svarint();
  [[nodiscard]] Result<double> f64();
  [[nodiscard]] Result<bool> boolean();
  [[nodiscard]] Result<std::string> string();
  [[nodiscard]] Result<Bytes> blob();
  /// As string(), but a view of the input's bytes: valid while the
  /// buffer the reader borrows is.
  [[nodiscard]] Result<std::string_view> view_string();

  /// Advance past `n` raw bytes without materialising them.
  Status skip(std::size_t n);
  /// Advance past one length-prefixed string/blob without allocating.
  Status skip_string();

  [[nodiscard]] std::size_t offset() const noexcept { return offset_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - offset_;
  }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }
  /// Borrowed view of the not-yet-consumed suffix.
  [[nodiscard]] std::span<const std::uint8_t> remaining_span()
      const noexcept {
    return data_.subspan(offset_);
  }

 private:
  [[nodiscard]] Status need(std::size_t n) const noexcept;

  std::span<const std::uint8_t> data_;
  std::size_t offset_ = 0;
};

}  // namespace collabqos::serde
