#include "collabqos/telemetry/trace.hpp"

#include <cstdio>

namespace collabqos::telemetry {

namespace {

void append_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  append_escaped(out, text);
  return out;
}

const std::string* Span::tag(std::string_view key) const noexcept {
  for (const auto& [k, v] : tags) {
    if (k == key) return &v;
  }
  return nullptr;
}

Tracer::Tracer()
    : dropped_registration_(MetricsRegistry::global().attach(
          "tracer.spans_dropped", dropped_)) {}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_capacity(std::size_t capacity) {
  std::scoped_lock lock(mutex_);
  capacity_ = capacity > 0 ? capacity : 1;
  while (spans_.size() > capacity_) {
    spans_.pop_front();
    ++dropped_;
  }
}

void Tracer::record(Span span) {
  std::scoped_lock lock(mutex_);
  if (spans_.size() >= capacity_) {
    spans_.pop_front();
    ++dropped_;
  }
  spans_.push_back(std::move(span));
}

std::size_t Tracer::size() const {
  std::scoped_lock lock(mutex_);
  return spans_.size();
}

std::vector<Span> Tracer::drain() {
  std::scoped_lock lock(mutex_);
  std::vector<Span> out(std::make_move_iterator(spans_.begin()),
                        std::make_move_iterator(spans_.end()));
  spans_.clear();
  return out;
}

void Tracer::clear() {
  std::scoped_lock lock(mutex_);
  spans_.clear();
  dropped_.reset();
}

}  // namespace collabqos::telemetry
