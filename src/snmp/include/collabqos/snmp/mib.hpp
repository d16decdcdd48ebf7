// Management information base: an ordered table of managed objects with
// per-object access control and provider callbacks (the "instrumentation
// routines" of the paper's §5.5).
//
// The table is compiled as objects register: one array kept sorted by
// OID, so GET and GETNEXT are binary searches and a GETBULK walk steps
// through consecutive entries. Agents register their objects at setup,
// in OID order or close to it, so a registration is usually an append.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

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
  /// Register a static scalar value. Registering an OID again replaces
  /// its object.
  void add_scalar(const Oid& oid, Value value, Access access = Access::read_only);
  /// Register a live (provider-backed) scalar.
  void add_provider(const Oid& oid, Provider provider,
                    Access access = Access::read_only, Mutator mutator = {});

  [[nodiscard]] Result<Value> get(const Oid& oid) const;
  Status set(const Oid& oid, const Value& value);

  [[nodiscard]] bool contains(const Oid& oid) const {
    return find(oid) != size();
  }
  [[nodiscard]] std::size_t size() const noexcept { return objects_.size(); }

  // Positional access, in OID order: what the agent answers from. GETNEXT
  // of `oid` is the object at upper_bound(oid).
  /// Position of `oid`, or size() when it is not registered.
  [[nodiscard]] std::size_t find(const Oid& oid) const;
  /// Position of the first object strictly after `oid` (size() if none).
  [[nodiscard]] std::size_t upper_bound(const Oid& oid) const;
  [[nodiscard]] const Oid& oid_at(std::size_t i) const {
    return objects_[i].oid;
  }
  /// The object's current value (its provider's, when it has one).
  [[nodiscard]] Value value_at(std::size_t i) const {
    const Object& object = objects_[i];
    return object.provider ? object.provider() : object.static_value;
  }

 private:
  struct Object {
    Oid oid;
    Access access = Access::read_only;
    Value static_value;
    Provider provider;   ///< when set, overrides static_value on reads
    Mutator mutator;     ///< when set, handles SET for read_write objects
  };
  void insert(Object object);

  std::vector<Object> objects_;  ///< sorted by oid, unique
};

}  // namespace collabqos::snmp
