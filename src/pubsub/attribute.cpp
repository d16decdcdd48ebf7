#include "collabqos/pubsub/attribute.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace collabqos::pubsub {

std::optional<double> AttributeValue::as_number() const noexcept {
  if (const auto* v = std::get_if<std::int64_t>(&data_)) {
    return static_cast<double>(*v);
  }
  if (const double* v = std::get_if<double>(&data_)) return *v;
  return std::nullopt;
}

std::optional<std::string_view> AttributeValue::as_string() const noexcept {
  if (const auto* v = std::get_if<std::string>(&data_)) return *v;
  return std::nullopt;
}

bool AttributeValue::equals(const AttributeValue& other) const noexcept {
  if (data_.index() == other.data_.index()) return data_ == other.data_;
  // int/double coercion only.
  const auto a = as_number();
  const auto b = other.as_number();
  if (a && b && is_number() && other.is_number()) return *a == *b;
  return false;
}

std::string AttributeValue::to_literal() const {
  if (const bool* v = std::get_if<bool>(&data_)) return *v ? "true" : "false";
  if (const auto* v = std::get_if<std::int64_t>(&data_)) {
    return std::to_string(*v);
  }
  if (const double* v = std::get_if<double>(&data_)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", *v);
    // Ensure it re-parses as a real, not an integer.
    std::string out = buf;
    if (out.find_first_of(".eE") == std::string::npos) out += ".0";
    return out;
  }
  std::string out = "'";
  for (const char c : std::get<std::string>(data_)) {
    if (c == '\'' || c == '\\') out += '\\';
    out += c;
  }
  out += '\'';
  return out;
}

namespace {
enum class ValueTag : std::uint8_t { boolean = 0, integer, real, text };
}

void AttributeValue::encode(serde::Writer& w) const {
  if (const bool* v = std::get_if<bool>(&data_)) {
    w.u8(static_cast<std::uint8_t>(ValueTag::boolean));
    w.boolean(*v);
  } else if (const auto* i = std::get_if<std::int64_t>(&data_)) {
    w.u8(static_cast<std::uint8_t>(ValueTag::integer));
    w.svarint(*i);
  } else if (const double* d = std::get_if<double>(&data_)) {
    w.u8(static_cast<std::uint8_t>(ValueTag::real));
    w.f64(*d);
  } else {
    w.u8(static_cast<std::uint8_t>(ValueTag::text));
    w.string(std::get<std::string>(data_));
  }
}

AttributeValue AttributeValue::decode(serde::Reader& r) {
  switch (static_cast<ValueTag>(r.u8())) {
    case ValueTag::boolean:
      return AttributeValue(r.boolean());
    case ValueTag::integer:
      return AttributeValue(r.svarint());
    case ValueTag::real:
      return AttributeValue(r.f64());
    case ValueTag::text:
      return AttributeValue(std::string(r.view_string()));
  }
  r.fail(Errc::malformed, "unknown attribute value tag");
  return AttributeValue();
}

namespace {
// lower_bound by interned id over the sorted entry vector.
auto entry_bound(std::vector<AttributeSet::Entry>& values, Symbol key) {
  return std::lower_bound(
      values.begin(), values.end(), key,
      [](const AttributeSet::Entry& e, Symbol k) { return e.key < k; });
}
auto entry_bound(const std::vector<AttributeSet::Entry>& values,
                 Symbol key) {
  return std::lower_bound(
      values.begin(), values.end(), key,
      [](const AttributeSet::Entry& e, Symbol k) { return e.key < k; });
}
}  // namespace

void AttributeSet::set(std::string_view key, AttributeValue value) {
  set(Symbol::intern(key), std::move(value));
}

void AttributeSet::set(Symbol key, AttributeValue value) {
  const auto it = entry_bound(values_, key);
  if (it != values_.end() && it->key == key) {
    it->value = std::move(value);
  } else {
    values_.insert(it, Entry{key, std::move(value)});
  }
}

bool AttributeSet::erase(Symbol key) {
  const auto it = entry_bound(values_, key);
  if (it == values_.end() || !(it->key == key)) return false;
  values_.erase(it);
  return true;
}

bool AttributeSet::erase(std::string_view key) {
  const auto symbol = Symbol::lookup(key);
  return symbol.has_value() && erase(*symbol);
}

const AttributeValue* AttributeSet::find(Symbol key) const {
  const auto it = entry_bound(values_, key);
  return it != values_.end() && it->key == key ? &it->value : nullptr;
}

const AttributeValue* AttributeSet::find(std::string_view key) const {
  const auto symbol = Symbol::lookup(key);
  return symbol ? find(*symbol) : nullptr;
}

void AttributeSet::merge(const AttributeSet& overlay) {
  for (const Entry& entry : overlay.values_) {
    set(entry.key, entry.value);
  }
}

void AttributeSet::encode(serde::Writer& w) const {
  // The wire format carries names in lexicographic order (the order the
  // pre-interning std::map emitted), independent of process-local
  // interning history — so fingerprints of the same logical set agree
  // across senders.
  w.varint(values_.size());
  std::vector<const Entry*> order;
  order.reserve(values_.size());
  for (const Entry& entry : values_) order.push_back(&entry);
  std::sort(order.begin(), order.end(),
            [](const Entry* a, const Entry* b) { return a->name() < b->name(); });
  for (const Entry* entry : order) {
    w.string(entry->name());
    entry->value.encode(w);
  }
}

AttributeSet AttributeSet::decode(serde::Reader& r) {
  const std::uint64_t count = r.varint();
  AttributeSet set;
  if (count > 4096) {
    r.fail(Errc::malformed, "attribute set too large");
    return set;
  }
  // An entry takes at least three bytes (name length, value tag, value),
  // so the input present bounds the reservation.
  set.values_.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(count, r.remaining() / 3)));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::string_view key = r.view_string();  // interned, never copied
    AttributeValue value = AttributeValue::decode(r);
    if (!r.ok()) break;
    set.set(key, std::move(value));
  }
  return set;
}

}  // namespace collabqos::pubsub
