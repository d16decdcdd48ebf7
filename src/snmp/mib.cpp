#include "collabqos/snmp/mib.hpp"

#include <algorithm>

namespace collabqos::snmp {

void Mib::add_scalar(const Oid& oid, Value value, Access access) {
  insert(Object{oid, access, std::move(value), {}, {}});
}

void Mib::add_provider(const Oid& oid, Provider provider, Access access,
                       Mutator mutator) {
  insert(Object{oid, access, Value{}, std::move(provider),
                std::move(mutator)});
}

void Mib::insert(Object object) {
  if (objects_.empty() || objects_.back().oid < object.oid) {
    objects_.push_back(std::move(object));
    return;
  }
  const auto it = std::lower_bound(
      objects_.begin(), objects_.end(), object.oid,
      [](const Object& o, const Oid& oid) { return o.oid < oid; });
  if (it != objects_.end() && it->oid == object.oid) {
    *it = std::move(object);
  } else {
    objects_.insert(it, std::move(object));
  }
}

std::size_t Mib::find(const Oid& oid) const {
  const auto it = std::lower_bound(
      objects_.begin(), objects_.end(), oid,
      [](const Object& o, const Oid& key) { return o.oid < key; });
  return it != objects_.end() && it->oid == oid
             ? static_cast<std::size_t>(it - objects_.begin())
             : objects_.size();
}

std::size_t Mib::upper_bound(const Oid& oid) const {
  const auto it = std::upper_bound(
      objects_.begin(), objects_.end(), oid,
      [](const Oid& key, const Object& o) { return key < o.oid; });
  return static_cast<std::size_t>(it - objects_.begin());
}

Result<Value> Mib::get(const Oid& oid) const {
  const std::size_t i = find(oid);
  if (i == size()) return Error{Errc::no_such_object, oid.to_string()};
  return value_at(i);
}

Status Mib::set(const Oid& oid, const Value& value) {
  const std::size_t i = find(oid);
  if (i == size()) return Status(Errc::no_such_object, oid.to_string());
  Object& object = objects_[i];
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
