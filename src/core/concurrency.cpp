#include "collabqos/core/concurrency.hpp"

#include "collabqos/telemetry/pipeline.hpp"

namespace collabqos::core {

serde::Bytes Operation::encode() const {
  serde::Writer w(payload.size() + 64);
  w.string(object_id);
  w.varint(lamport);
  w.varint(peer);
  w.string(kind);
  w.blob(payload);
  return std::move(w).take();
}

Result<Operation> Operation::decode(std::span<const std::uint8_t> bytes) {
  serde::Reader r(bytes);
  Operation op;
  op.object_id = r.view_string();
  op.lamport = r.varint();
  op.peer = r.varint();
  op.kind = r.view_string();
  op.payload = r.blob();
  if (!r.ok()) return r.error();
  return op;
}

Result<Operation> Operation::decode(const serde::ByteChain& bytes) {
  const serde::SharedBytes flat = telemetry::flatten_counted(
      bytes, telemetry::PipelineCounters::global().gather);
  return decode(flat);
}

bool ObjectLog::insert(Operation operation) {
  return ordered_.emplace(operation.order_key(), std::move(operation)).second;
}

std::vector<const Operation*> ObjectLog::ordered() const {
  std::vector<const Operation*> out;
  out.reserve(ordered_.size());
  for (const auto& [key, operation] : ordered_) out.push_back(&operation);
  return out;
}

std::uint64_t ObjectLog::digest() const {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const std::uint8_t byte) {
    hash = (hash ^ byte) * 0x100000001b3ULL;
  };
  for (const auto& [key, operation] : ordered_) {
    for (int shift = 0; shift < 64; shift += 8) {
      mix(static_cast<std::uint8_t>(operation.lamport >> shift));
      mix(static_cast<std::uint8_t>(operation.peer >> shift));
    }
    for (const std::uint8_t byte : operation.payload) mix(byte);
  }
  return hash;
}

Operation ConcurrencyController::originate(std::string object_id,
                                           std::string kind,
                                           serde::Bytes payload) {
  Operation op;
  op.object_id = std::move(object_id);
  op.lamport = clock_.tick();
  op.peer = peer_id_;
  op.kind = std::move(kind);
  op.payload = std::move(payload);
  return op;
}

bool ConcurrencyController::integrate(Operation operation) {
  if (operation.peer != peer_id_) clock_.observe(operation.lamport);
  return logs_[operation.object_id].insert(std::move(operation));
}

const ObjectLog* ConcurrencyController::log(
    std::string_view object_id) const {
  const auto it = logs_.find(object_id);
  return it == logs_.end() ? nullptr : &it->second;
}

std::uint64_t ConcurrencyController::digest() const {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& [object_id, log] : logs_) {
    const std::uint64_t sub = log.digest();
    for (int shift = 0; shift < 64; shift += 8) {
      hash = (hash ^ static_cast<std::uint8_t>(sub >> shift)) *
             0x100000001b3ULL;
    }
  }
  return hash;
}

}  // namespace collabqos::core
