#include "collabqos/app/chat.hpp"

namespace collabqos::app {

ChatArea::ChatArea(core::CollaborationClient& client, std::string room)
    : client_(client), room_(std::move(room)) {}

Status ChatArea::post(std::string text, pubsub::Selector audience) {
  (void)audience;  // chat rides the operation channel; ops reach all peers
  serde::Writer w(text.size() + 8);
  w.string(text);
  return client_.publish_operation(room_, "chat.post", std::move(w).take());
}

std::vector<ChatMessage> ChatArea::transcript() const {
  std::vector<ChatMessage> messages;
  const core::ObjectLog* log = client_.concurrency().log(room_);
  if (log == nullptr) return messages;
  for (const core::Operation* op : log->ordered()) {
    if (op->kind != "chat.post") continue;
    serde::Reader r(op->payload);
    const std::string_view text = r.view_string();
    if (!r.ok()) continue;  // skip corrupt entries rather than fail the UI
    messages.push_back(ChatMessage{op->peer, op->lamport, std::string(text)});
  }
  return messages;
}

}  // namespace collabqos::app
