// Management information base: an ordered tree of managed objects with
// per-object access control and provider callbacks (the "instrumentation
// routines" of the paper's §5.5).
#pragma once

#include <functional>
#include <map>
#include <string>

#include "collabqos/snmp/oid.hpp"
#include "collabqos/snmp/value.hpp"
#include "collabqos/util/result.hpp"

namespace collabqos::snmp {

enum class Access : std::uint8_t { read_only, read_write };

/// Produces the current value on each read (live instrumentation).
using Provider = std::function<Value()>;
/// Applies a SET; returns bad_value-style errors through Status.
using Mutator = std::function<Status(const Value&)>;

class Mib {
 public:
  /// Register a static scalar value.
  void add_scalar(const Oid& oid, Value value, Access access = Access::read_only);
  /// Register a live (provider-backed) scalar.
  void add_provider(const Oid& oid, Provider provider,
                    Access access = Access::read_only, Mutator mutator = {});

  [[nodiscard]] Result<Value> get(const Oid& oid) const;
  /// Lexicographic successor strictly after `oid` (GETNEXT semantics).
  [[nodiscard]] Result<std::pair<Oid, Value>> get_next(const Oid& oid) const;
  Status set(const Oid& oid, const Value& value);

  [[nodiscard]] bool contains(const Oid& oid) const {
    return objects_.contains(oid);
  }
  [[nodiscard]] std::size_t size() const noexcept { return objects_.size(); }

 private:
  struct Object {
    Access access = Access::read_only;
    Value static_value;
    Provider provider;   ///< when set, overrides static_value on reads
    Mutator mutator;     ///< when set, handles SET for read_write objects
  };
  std::map<Oid, Object> objects_;
};

}  // namespace collabqos::snmp
