// Process-wide interning of attribute names. The semantic substrate
// resolves the same dotted identifiers ("capability.video.color",
// "battery.fraction") on every message, for every receiver; interning
// turns those repeated string compares into integer compares and lets
// compiled selector programs address profile attributes by id.
//
// The table is append-only: ids are dense, never recycled, and a
// Symbol stays valid for the life of the process. The attribute
// vocabulary of a collaboration session is small and stable, so the
// table stays a few hundred entries in practice.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace collabqos::pubsub {

/// An interned attribute name. Trivially copyable; compares by id.
/// Default-constructed symbols name the empty string.
class Symbol {
 public:
  Symbol() = default;

  /// Intern `name`, creating an id on first sight. Thread-safe.
  [[nodiscard]] static Symbol intern(std::string_view name);

  /// Look up without creating: nullopt means no attribute set or
  /// selector in this process has ever mentioned `name`.
  [[nodiscard]] static std::optional<Symbol> lookup(std::string_view name);

  /// The interned spelling. The reference is stable forever.
  [[nodiscard]] const std::string& name() const;

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }

  friend bool operator==(Symbol a, Symbol b) noexcept {
    return a.id_ == b.id_;
  }
  friend auto operator<=>(Symbol a, Symbol b) noexcept {
    return a.id_ <=> b.id_;
  }

 private:
  explicit Symbol(std::uint32_t id) noexcept : id_(id) {}
  std::uint32_t id_ = 0;
};

}  // namespace collabqos::pubsub
