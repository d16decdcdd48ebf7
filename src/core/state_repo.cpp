#include "collabqos/core/state_repo.hpp"

#include "collabqos/telemetry/pipeline.hpp"

namespace collabqos::core {

serde::Bytes StateEntry::encode() const {
  serde::Writer w(state.size() + 64);
  w.string(object_id);
  w.string(object_type);
  w.varint(version);
  w.varint(editor);
  w.blob(state);
  return std::move(w).take();
}

Result<StateEntry> StateEntry::decode(std::span<const std::uint8_t> bytes) {
  serde::Reader r(bytes);
  StateEntry entry;
  entry.object_id = r.view_string();
  entry.object_type = r.view_string();
  entry.version = r.varint();
  entry.editor = r.varint();
  entry.state = r.blob();
  if (!r.ok()) return r.error();
  return entry;
}

Result<StateEntry> StateEntry::decode(const serde::ByteChain& bytes) {
  const serde::SharedBytes flat = telemetry::flatten_counted(
      bytes, telemetry::PipelineCounters::global().gather);
  return decode(flat);
}

bool StateRepository::apply(StateEntry entry) {
  auto it = entries_.find(entry.object_id);
  if (it != entries_.end()) {
    const StateEntry& existing = it->second;
    // Total order on (version, editor): higher version wins; the editor
    // id breaks exact ties deterministically at every replica.
    if (entry.version < existing.version ||
        (entry.version == existing.version &&
         entry.editor <= existing.editor)) {
      return false;
    }
    it->second = entry;
  } else {
    it = entries_.emplace(entry.object_id, entry).first;
  }
  if (handler_) handler_(it->second);
  return true;
}

const StateEntry* StateRepository::find(std::string_view object_id) const {
  const auto it = entries_.find(object_id);
  return it == entries_.end() ? nullptr : &it->second;
}

bool StateRepository::erase(const std::string& object_id) {
  return entries_.erase(object_id) > 0;
}

std::vector<const StateEntry*> StateRepository::by_type(
    std::string_view object_type) const {
  std::vector<const StateEntry*> out;
  for (const auto& [id, entry] : entries_) {
    if (entry.object_type == object_type) out.push_back(&entry);
  }
  return out;
}

std::uint64_t StateRepository::digest() const {
  // FNV-1a over the canonical entry order.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const std::uint8_t byte) {
    hash = (hash ^ byte) * 0x100000001b3ULL;
  };
  for (const auto& [id, entry] : entries_) {
    for (const char c : id) mix(static_cast<std::uint8_t>(c));
    for (int shift = 0; shift < 64; shift += 8) {
      mix(static_cast<std::uint8_t>(entry.version >> shift));
    }
    for (const std::uint8_t byte : entry.state) mix(byte);
  }
  return hash;
}

}  // namespace collabqos::core
