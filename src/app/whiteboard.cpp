#include "collabqos/app/whiteboard.hpp"

namespace collabqos::app {

serde::Bytes Stroke::encode() const {
  serde::Writer w(48);
  w.f64(x0);
  w.f64(y0);
  w.f64(x1);
  w.f64(y1);
  w.u32(color);
  w.f64(width);
  return std::move(w).take();
}

Result<Stroke> Stroke::decode(std::span<const std::uint8_t> bytes) {
  serde::Reader r(bytes);
  Stroke stroke;
  stroke.x0 = r.f64();
  stroke.y0 = r.f64();
  stroke.x1 = r.f64();
  stroke.y1 = r.f64();
  stroke.color = r.u32();
  stroke.width = r.f64();
  if (!r.ok()) return r.error();
  return stroke;
}

Whiteboard::Whiteboard(core::CollaborationClient& client, std::string board)
    : client_(client), board_(std::move(board)) {}

Status Whiteboard::draw(Stroke stroke) {
  return client_.publish_operation(board_, "wb.stroke", stroke.encode());
}

std::vector<Stroke> Whiteboard::strokes() const {
  std::vector<Stroke> canvas;
  const core::ObjectLog* log = client_.concurrency().log(board_);
  if (log == nullptr) return canvas;
  for (const core::Operation* op : log->ordered()) {
    if (op->kind != "wb.stroke") continue;
    auto stroke = Stroke::decode(op->payload);
    if (!stroke) continue;
    stroke.value().author = op->peer;
    canvas.push_back(std::move(stroke).take());
  }
  return canvas;
}

}  // namespace collabqos::app
