// Per-thread working memory of the progressive codec and the sketcher.
// Not part of the library's interface.
//
// Every image-sized temporary of encode_progressive,
// decode_progressive_prefix and extract_sketch comes from one scratch per
// thread. It grows to the largest call the thread has made and is then
// reused, so that a warm call allocates little beyond its output. Per-call
// buffers cost more than their malloc: once a call frees its ~0.9 MiB,
// glibc trims the heap, and the next call page-faults the same amount in
// again (DESIGN.md §13).
//
// The scratch carries no state between calls. A call gets storage of
// unspecified contents and zeroes what it reads before it writes it, so
// every stream and image is what fresh buffers would give. A call larger
// than kScratchKeptSamples frees the scratch as it returns, so that a large
// or hostile header cannot pin hundreds of MiB on a thread.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace collabqos::media::detail {

/// Samples (pixels times channels) of the largest call whose scratch is
/// kept for the next: a 512 x 512 colour image, the largest the figure
/// benches code. Its scratch is about 9 MiB.
inline constexpr std::size_t kScratchKeptSamples = std::size_t{512} * 512 * 3;

/// A buffer of trivial values that only grows.
template <class T>
class ScratchBuffer {
 public:
  /// At least `count` values of unspecified contents.
  T* get(std::size_t count) {
    if (count > capacity_) {
      data_.reset();  // free the smaller buffer before taking the larger
      data_ = std::make_unique_for_overwrite<T[]>(count);
      capacity_ = count;
    }
    return data_.get();
  }
  /// `count` zero values.
  T* zeroed(std::size_t count) {
    T* data = get(count);
    std::fill_n(data, count, T{});
    return data;
  }
 private:
  std::unique_ptr<T[]> data_;
  std::size_t capacity_ = 0;
};

/// The buffers. A call uses each for one purpose at a time.
struct Scratch {
  /// Channel planes of the wavelet transform. Also the codes of a
  /// significance pass once the planes are consumed (encode) or before
  /// they are filled (decode), and the sketcher's squared gradients.
  ScratchBuffer<std::int32_t> samples;
  ScratchBuffer<std::int32_t> haar_plane;  ///< the Haar levels' scratch
  ScratchBuffer<std::uint32_t> magnitudes;
  ScratchBuffer<std::uint8_t> signs;
  ScratchBuffer<std::uint8_t> rows;  ///< encoder's significance rows
  ScratchBuffer<std::uint64_t> significant;
  ScratchBuffer<std::uint64_t> newly;
};

/// The calling thread's scratch for one call over `samples` samples. The
/// scratch is freed when a lease above kScratchKeptSamples ends.
class ScratchLease {
 public:
  explicit ScratchLease(std::size_t samples) noexcept
      : scratch_(thread_scratch()), release_(samples > kScratchKeptSamples) {}
  ~ScratchLease() {
    if (release_) scratch_ = Scratch{};
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

  Scratch& operator*() const noexcept { return scratch_; }
  Scratch* operator->() const noexcept { return &scratch_; }

 private:
  static Scratch& thread_scratch() noexcept {
    thread_local Scratch scratch;
    return scratch;
  }

  Scratch& scratch_;
  bool release_;
};

}  // namespace collabqos::media::detail
