// The shared whiteboard (paper §4.1). Strokes are concurrency-controlled
// operations; the canvas materialises from the per-object log in total
// order, so concurrent strokes from different clients never lose
// information ("if two users select information ... concurrency control
// ... ensures that no information is lost").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "collabqos/core/client.hpp"

namespace collabqos::app {

struct Stroke {
  double x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  std::uint32_t color = 0xFF000000;
  double width = 1.0;
  std::uint64_t author = 0;

  [[nodiscard]] serde::Bytes encode() const;
  [[nodiscard]] static Result<Stroke> decode(
      std::span<const std::uint8_t> bytes);
};

class Whiteboard {
 public:
  Whiteboard(core::CollaborationClient& client,
             std::string board = "whiteboard.main");

  Status draw(Stroke stroke);

  /// Canvas contents in draw order.
  [[nodiscard]] std::vector<Stroke> strokes() const;

  [[nodiscard]] const std::string& board() const noexcept { return board_; }

 private:
  core::CollaborationClient& client_;
  std::string board_;
};

}  // namespace collabqos::app
