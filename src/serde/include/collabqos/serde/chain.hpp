// Non-contiguous byte buffers for the zero-copy payload pipeline
// (DESIGN.md §11). A ByteChain is an ordered list of SharedBytes slices
// presented as one logical byte sequence; serde::Reader decodes wire
// data across the slice boundaries. Together they let fragmentation,
// reassembly and message decode pass *views* of one encode buffer
// through the whole delivery path instead of re-materialising the
// payload at every layer.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "collabqos/serde/wire.hpp"

namespace collabqos::serde {

/// An immutable sequence of SharedBytes slices viewed as one byte
/// string. Appending a slice that continues the previous one inside the
/// same backing buffer coalesces in place, so a chain reassembled from
/// in-order fragments of a single encode collapses back to one
/// contiguous slice and downstream decode takes the contiguous fast
/// path. Empty slices are never stored.
///
/// Up to two slices live inline — a datagram's [header][payload] pair and
/// every single view — so copying or slicing such a chain allocates
/// nothing; longer chains keep their slices on the heap.
class ByteChain {
 public:
  ByteChain() = default;
  ByteChain(const ByteChain&) = default;
  ByteChain& operator=(const ByteChain&) = default;
  /// Moves leave `other` empty.
  ByteChain(ByteChain&& other) noexcept
      : inline_(std::move(other.inline_)),
        spilled_(std::move(other.spilled_)),
        count_(std::exchange(other.count_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  ByteChain& operator=(ByteChain&& other) noexcept {
    if (this != &other) {
      inline_ = std::move(other.inline_);
      spilled_ = std::move(other.spilled_);
      count_ = std::exchange(other.count_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  /// Explicit: several APIs overload on both ByteChain and
  /// span-convertible buffer types, so a silent Bytes/SharedBytes ->
  /// ByteChain conversion would make those call sites ambiguous.
  explicit ByteChain(SharedBytes slice) { append(std::move(slice)); }
  explicit ByteChain(Bytes bytes) : ByteChain(SharedBytes(std::move(bytes))) {}
  /// Implicit: literal payloads (`message.payload = {1, 2, 3}`) have no
  /// competing overload to collide with.
  ByteChain(std::initializer_list<std::uint8_t> bytes)
      : ByteChain(Bytes(bytes)) {}

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  /// Append a slice (shares storage; coalesces adjacent views).
  void append(SharedBytes slice);
  void clear() noexcept {
    inline_ = {};
    spilled_.clear();
    count_ = 0;
    size_ = 0;
  }

  [[nodiscard]] std::span<const SharedBytes> slices() const noexcept {
    return {slice_data(), count_};
  }

  /// Element access across slices: O(#slices); out-of-range reads 0
  /// (same defined semantics as SharedBytes::operator[]).
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const noexcept;

  /// When the whole chain is a single slice (or empty), its contiguous
  /// span — the decode fast path. nullopt when genuinely fragmented.
  [[nodiscard]] std::optional<std::span<const std::uint8_t>> contiguous()
      const noexcept {
    if (count_ == 0) return std::span<const std::uint8_t>{};
    if (count_ == 1) return inline_.front().span();
    return std::nullopt;
  }

  /// Materialise into one freshly allocated buffer (THE copy the rest of
  /// the pipeline avoids). Callers on instrumented paths charge the
  /// returned size to pipeline.bytes_copied.* (telemetry/pipeline.hpp).
  [[nodiscard]] Bytes gather() const;

  /// Contiguous view of the chain: zero-copy when it is empty or a
  /// single slice, otherwise a gather. `copied`, when non-null, receives
  /// the number of bytes the call had to materialise (0 on the zero-copy
  /// path) so callers can charge copy accounting.
  [[nodiscard]] SharedBytes flatten(std::size_t* copied = nullptr) const;

  /// Forward iterator over the chain's bytes (test/equality support; the
  /// hot paths use slices() or contiguous()).
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = std::uint8_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const std::uint8_t*;
    using reference = const std::uint8_t&;

    const_iterator() = default;
    reference operator*() const noexcept {
      return slices_[slice_].data()[pos_];
    }
    const_iterator& operator++() noexcept {
      if (++pos_ == slices_[slice_].size()) {
        ++slice_;
        pos_ = 0;
      }
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator copy = *this;
      ++*this;
      return copy;
    }
    friend bool operator==(const const_iterator& a,
                           const const_iterator& b) noexcept {
      return a.slice_ == b.slice_ && a.pos_ == b.pos_;
    }

   private:
    friend class ByteChain;
    const_iterator(const SharedBytes* slices, std::size_t slice) noexcept
        : slices_(slices), slice_(slice) {}
    const SharedBytes* slices_ = nullptr;
    std::size_t slice_ = 0;
    std::size_t pos_ = 0;
  };

  [[nodiscard]] const_iterator begin() const noexcept {
    return const_iterator(slice_data(), 0);
  }
  [[nodiscard]] const_iterator end() const noexcept {
    return const_iterator(slice_data(), count_);
  }

  /// Content equality, slice layout ignored.
  friend bool operator==(const ByteChain& a, const ByteChain& b) noexcept;
  friend bool operator==(const ByteChain& a,
                         std::span<const std::uint8_t> b) noexcept;

 private:
  static constexpr std::size_t kInlineSlices = 2;

  [[nodiscard]] const SharedBytes* slice_data() const noexcept {
    return count_ > kInlineSlices ? spilled_.data() : inline_.data();
  }
  [[nodiscard]] SharedBytes& last() noexcept {
    return count_ > kInlineSlices ? spilled_.back() : inline_[count_ - 1];
  }
  void push(SharedBytes slice);

  /// The slices while there are at most kInlineSlices of them.
  std::array<SharedBytes, kInlineSlices> inline_{};
  /// Every slice once there are more (inline_ is then left empty).
  std::vector<SharedBytes> spilled_;
  std::size_t count_ = 0;  ///< slices held
  std::size_t size_ = 0;   ///< bytes across them
};

}  // namespace collabqos::serde
