// Attribute sets: the vocabulary of the semantic messaging substrate.
// Profiles (client interests/capabilities/state) and message content
// descriptors are both attribute sets; selectors are propositional
// expressions over them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "collabqos/pubsub/symbol.hpp"
#include "collabqos/serde/wire.hpp"
#include "collabqos/util/result.hpp"

namespace collabqos::pubsub {

/// A typed attribute value: boolean, integer, real or string.
class AttributeValue {
 public:
  AttributeValue() : data_(false) {}
  AttributeValue(bool v) : data_(v) {}
  AttributeValue(std::int64_t v) : data_(v) {}
  AttributeValue(int v) : data_(static_cast<std::int64_t>(v)) {}
  AttributeValue(double v) : data_(v) {}
  AttributeValue(std::string v) : data_(std::move(v)) {}
  AttributeValue(const char* v) : data_(std::string(v)) {}

  [[nodiscard]] bool is_number() const noexcept {
    return std::holds_alternative<std::int64_t>(data_) ||
           std::holds_alternative<double>(data_);
  }

  /// Numeric view (ints widen to double); nullopt for bool/string.
  [[nodiscard]] std::optional<double> as_number() const noexcept;
  [[nodiscard]] std::optional<std::string_view> as_string() const noexcept;

  /// Equality comparison with type coercion between int and double only.
  [[nodiscard]] bool equals(const AttributeValue& other) const noexcept;

  /// Render as a selector literal ("true", "42", "3.5", "'text'").
  [[nodiscard]] std::string to_literal() const;

  void encode(serde::Writer& w) const;
  /// Reads one value; a fault latches in `r` (check r.ok()).
  [[nodiscard]] static AttributeValue decode(serde::Reader& r);

  friend bool operator==(const AttributeValue& a,
                         const AttributeValue& b) noexcept {
    return a.equals(b);
  }

 private:
  std::variant<bool, std::int64_t, double, std::string> data_;
};

/// Attribute map. Keys are dotted identifiers ("capability.video.color",
/// "interest.topic"), interned process-wide; storage is a flat vector
/// sorted by interned id, so the selector VM resolves an attribute with
/// one cache-friendly binary search and zero string compares.
class AttributeSet {
 public:
  struct Entry {
    Symbol key;
    AttributeValue value;

    [[nodiscard]] const std::string& name() const { return key.name(); }
    friend bool operator==(const Entry& a, const Entry& b) noexcept {
      return a.key == b.key && a.value == b.value;
    }
  };

  /// Interns `key`, then as set(Symbol, value). Out of line: inlined, its
  /// move of `value` into the Symbol overload made GCC 12 under
  /// -fsanitize report -Wmaybe-uninitialized at every caller.
  void set(std::string_view key, AttributeValue value);
  void set(Symbol key, AttributeValue value);
  bool erase(std::string_view key);
  bool erase(Symbol key);

  /// By-id lookup: the compiled-selector hot path.
  [[nodiscard]] const AttributeValue* find(Symbol key) const;
  /// By-name lookup. A name no component of this process has ever
  /// interned cannot be present, so this never grows the symbol table.
  [[nodiscard]] const AttributeValue* find(std::string_view key) const;
  [[nodiscard]] bool contains(Symbol key) const {
    return find(key) != nullptr;
  }
  [[nodiscard]] bool contains(std::string_view key) const {
    return find(key) != nullptr;
  }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }

  [[nodiscard]] auto begin() const noexcept { return values_.begin(); }
  [[nodiscard]] auto end() const noexcept { return values_.end(); }

  /// Merge `overlay` over this set (overlay wins on key conflicts).
  void merge(const AttributeSet& overlay);

  void encode(serde::Writer& w) const;
  /// Reads one set; a fault latches in `r` (check r.ok()).
  [[nodiscard]] static AttributeSet decode(serde::Reader& r);

  friend bool operator==(const AttributeSet& a,
                         const AttributeSet& b) noexcept {
    return a.values_ == b.values_;
  }

 private:
  std::vector<Entry> values_;  ///< sorted by key id
};

}  // namespace collabqos::pubsub
