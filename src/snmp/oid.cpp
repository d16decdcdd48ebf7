#include "collabqos/snmp/oid.hpp"

namespace collabqos::snmp {

Oid Oid::concat(const Oid& suffix) const {
  Oid out = *this;
  for (const std::uint32_t arc : suffix.arcs()) out.push_back(arc);
  return out;
}

std::string Oid::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < size(); ++i) {
    if (i != 0) out += '.';
    out += std::to_string((*this)[i]);
  }
  return out;
}

}  // namespace collabqos::snmp
