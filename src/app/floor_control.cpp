#include "collabqos/app/floor_control.hpp"

#include <algorithm>

namespace collabqos::app {

namespace {
constexpr std::string_view kRequest = "floor.request";
constexpr std::string_view kRelease = "floor.release";

serde::Bytes encode_peer(std::uint64_t peer) {
  serde::Writer w(10);
  w.varint(peer);
  return std::move(w).take();
}
}  // namespace

FloorControl::FloorControl(core::CollaborationClient& client,
                           std::string resource)
    : client_(client),
      resource_(std::move(resource)),
      object_id_("floor/" + resource_) {}

Status FloorControl::request() {
  // Idempotence: a request while already outstanding would double-queue.
  const auto waiting = outstanding();
  if (std::find(waiting.begin(), waiting.end(), client_.id()) !=
      waiting.end()) {
    return {};
  }
  return client_.publish_operation(object_id_, std::string(kRequest),
                                   encode_peer(client_.id()));
}

Status FloorControl::release() {
  const auto waiting = outstanding();
  if (std::find(waiting.begin(), waiting.end(), client_.id()) ==
      waiting.end()) {
    return Status(Errc::no_such_object, "not holding or queued");
  }
  return client_.publish_operation(object_id_, std::string(kRelease),
                                   encode_peer(client_.id()));
}

Status FloorControl::revoke(std::uint64_t peer) {
  const auto waiting = outstanding();
  if (std::find(waiting.begin(), waiting.end(), peer) == waiting.end()) {
    return Status(Errc::no_such_object, "peer is not holding or queued");
  }
  return client_.publish_operation(object_id_, std::string(kRelease),
                                   encode_peer(peer));
}

std::vector<std::uint64_t> FloorControl::outstanding() const {
  std::vector<std::uint64_t> waiting;
  const core::ObjectLog* log = client_.concurrency().log(object_id_);
  if (log == nullptr) return waiting;
  for (const core::Operation* op : log->ordered()) {
    serde::Reader r(op->payload);
    const std::uint64_t subject = r.varint();
    if (!r.ok()) continue;  // corrupt entries cannot deadlock the floor
    if (op->kind == kRequest) {
      if (std::find(waiting.begin(), waiting.end(), subject) ==
          waiting.end()) {
        waiting.push_back(subject);
      }
    } else if (op->kind == kRelease) {
      const auto it = std::find(waiting.begin(), waiting.end(), subject);
      if (it != waiting.end()) waiting.erase(it);
    }
  }
  return waiting;
}

std::optional<std::uint64_t> FloorControl::holder() const {
  const auto waiting = outstanding();
  if (waiting.empty()) return std::nullopt;
  return waiting.front();
}

std::vector<std::uint64_t> FloorControl::queue() const {
  auto waiting = outstanding();
  if (!waiting.empty()) waiting.erase(waiting.begin());
  return waiting;
}

}  // namespace collabqos::app
