// A short array of trivially copyable elements held inside the object:
// up to N elements live inline, a longer array moves to the heap. SNMP
// OIDs and octet values are almost always short, so copying, decoding
// and comparing them never touches the allocator; a hostile or unusual
// long one still works.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

namespace collabqos {

template <typename T, std::size_t N>
class InlineArray {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  constexpr InlineArray() noexcept = default;
  constexpr InlineArray(const T* data, std::size_t size) { assign(data, size); }
  constexpr InlineArray(const InlineArray& other) {
    assign(other.data(), other.size_);
  }
  constexpr InlineArray(InlineArray&& other) noexcept { steal(other); }
  constexpr InlineArray& operator=(const InlineArray& other) {
    if (this != &other) assign(other.data(), other.size_);
    return *this;
  }
  constexpr InlineArray& operator=(InlineArray&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }
  constexpr ~InlineArray() { release(); }

  [[nodiscard]] constexpr const T* data() const noexcept {
    return heap_ != nullptr ? heap_ : inline_;
  }
  [[nodiscard]] constexpr std::size_t size() const noexcept { return size_; }
  [[nodiscard]] constexpr std::span<const T> span() const noexcept {
    return {data(), size_};
  }

  constexpr void push_back(T value) {
    if (size_ == capacity_) grow(size_ + 1);
    mutable_data()[size_++] = value;
  }

  /// Replaces the contents; `data` must not point into this array.
  constexpr void assign(const T* data, std::size_t size) {
    if (size > capacity_) {
      release();
      grow(size);
    }
    std::copy_n(data, size, mutable_data());
    size_ = static_cast<std::uint32_t>(size);
  }

  friend constexpr bool operator==(const InlineArray& a,
                                   const InlineArray& b) noexcept {
    return a.size_ == b.size_ && std::equal(a.data(), a.data() + a.size_,
                                            b.data());
  }

 private:
  [[nodiscard]] constexpr T* mutable_data() noexcept {
    return heap_ != nullptr ? heap_ : inline_;
  }

  constexpr void grow(std::size_t at_least) {
    const std::size_t capacity =
        std::max<std::size_t>(at_least, 2 * std::size_t{capacity_});
    T* heap = new T[capacity];
    std::copy_n(data(), size_, heap);
    delete[] heap_;
    heap_ = heap;
    capacity_ = static_cast<std::uint32_t>(capacity);
  }

  constexpr void release() noexcept {
    delete[] heap_;
    heap_ = nullptr;
    size_ = 0;
    capacity_ = N;
  }

  /// Takes `other`'s contents (its heap block, or a copy of its inline
  /// elements) and leaves it empty. `this` must hold no heap block.
  constexpr void steal(InlineArray& other) noexcept {
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      other.heap_ = nullptr;
      other.capacity_ = N;
    } else {
      std::copy_n(other.inline_, other.size_, inline_);
    }
    size_ = other.size_;
    other.size_ = 0;
  }

  T* heap_ = nullptr;
  std::uint32_t size_ = 0;
  std::uint32_t capacity_ = N;
  T inline_[N] = {};
};

}  // namespace collabqos
