#include "collabqos/core/decision_audit.hpp"

#include <cstdio>

#include "collabqos/telemetry/trace.hpp"

namespace collabqos::core {

namespace {

void append_string_array(std::string& out,
                         const std::vector<std::string>& items) {
  out += '[';
  bool first = true;
  for (const std::string& item : items) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += telemetry::json_escape(item);
    out += '"';
  }
  out += ']';
}

}  // namespace

DecisionAuditLog& DecisionAuditLog::global() {
  static DecisionAuditLog log;
  return log;
}

void DecisionAuditLog::set_capacity(std::size_t capacity) {
  std::scoped_lock lock(mutex_);
  capacity_ = capacity;
  while (records_.size() > capacity_) {
    records_.pop_front();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void DecisionAuditLog::record(DecisionRecord record) {
  std::scoped_lock lock(mutex_);
  if (records_.size() >= capacity_) {
    records_.pop_front();
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  records_.push_back(std::move(record));
}

std::size_t DecisionAuditLog::size() const {
  std::scoped_lock lock(mutex_);
  return records_.size();
}

std::vector<DecisionRecord> DecisionAuditLog::drain() {
  std::scoped_lock lock(mutex_);
  std::vector<DecisionRecord> out(std::make_move_iterator(records_.begin()),
                                  std::make_move_iterator(records_.end()));
  records_.clear();
  return out;
}

void DecisionAuditLog::clear() {
  std::scoped_lock lock(mutex_);
  records_.clear();
}

std::string DecisionAuditLog::to_jsonl(const DecisionRecord& record) {
  std::string out;
  out.reserve(256);
  out += "{\"t_us\":";
  out += std::to_string(record.time.as_micros());
  out += ",\"client\":\"";
  out += telemetry::json_escape(record.client);
  out += "\",\"inputs\":{";
  bool first = true;
  for (const auto& entry : record.inputs) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += telemetry::json_escape(entry.name());
    out += "\":\"";
    out += telemetry::json_escape(entry.value.to_literal());
    out += '"';
  }
  out += "},\"contract\":{\"min_packets\":";
  out += std::to_string(record.contract_min_packets);
  out += ",\"max_packets\":";
  out += std::to_string(record.contract_max_packets);
  out += "},\"decision\":{\"packets\":";
  out += std::to_string(record.decision.packets);
  out += ",\"modality\":\"";
  out += telemetry::json_escape(media::to_string(record.decision.modality));
  out += "\",\"resolution_fraction\":";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f",
                record.decision.resolution_fraction);
  out += buf;
  out += ",\"contract_satisfiable\":";
  out += record.decision.contract_satisfiable ? "true" : "false";
  out += ",\"matched_rules\":";
  append_string_array(out, record.decision.matched_rules);
  out += ",\"violated_constraints\":";
  append_string_array(out, record.decision.violated_constraints);
  out += "}}";
  return out;
}

}  // namespace collabqos::core
