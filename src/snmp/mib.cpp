#include "collabqos/snmp/mib.hpp"

namespace collabqos::snmp {

void Mib::add_scalar(const Oid& oid, Value value, Access access) {
  Object object;
  object.access = access;
  object.static_value = std::move(value);
  objects_[oid] = std::move(object);
}

void Mib::add_provider(const Oid& oid, Provider provider, Access access,
                       Mutator mutator) {
  Object object;
  object.access = access;
  object.provider = std::move(provider);
  object.mutator = std::move(mutator);
  objects_[oid] = std::move(object);
}

Result<Value> Mib::get(const Oid& oid) const {
  const auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Error{Errc::no_such_object, oid.to_string()};
  }
  return it->second.provider ? it->second.provider()
                             : it->second.static_value;
}

Result<std::pair<Oid, Value>> Mib::get_next(const Oid& oid) const {
  const auto it = objects_.upper_bound(oid);
  if (it == objects_.end()) {
    return Error{Errc::no_such_object, "end of MIB view"};
  }
  const Value value =
      it->second.provider ? it->second.provider() : it->second.static_value;
  return std::pair{it->first, value};
}

Status Mib::set(const Oid& oid, const Value& value) {
  const auto it = objects_.find(oid);
  if (it == objects_.end()) {
    return Status(Errc::no_such_object, oid.to_string());
  }
  Object& object = it->second;
  if (object.access != Access::read_write) {
    return Status(Errc::access_denied, "object is read-only");
  }
  if (object.mutator) return object.mutator(value);
  if (object.provider) {
    return Status(Errc::access_denied, "provider object has no mutator");
  }
  object.static_value = value;
  return {};
}

}  // namespace collabqos::snmp
