#include "collabqos/pubsub/profile.hpp"

namespace collabqos::pubsub {

void TransformCapability::encode(serde::Writer& w) const {
  w.string(attribute);
  from.encode(w);
  to.encode(w);
}

TransformCapability TransformCapability::decode(serde::Reader& r) {
  TransformCapability capability;
  capability.attribute = r.view_string();
  capability.from = AttributeValue::decode(r);
  capability.to = AttributeValue::decode(r);
  return capability;
}

void Profile::set(std::string key, AttributeValue value) {
  attributes_.set(std::move(key), std::move(value));
  ++version_;
}

bool Profile::erase(const std::string& key) {
  const bool erased = attributes_.erase(key);
  if (erased) ++version_;
  return erased;
}

void Profile::set_interest(Selector interest) {
  interest_ = std::move(interest);
  ++version_;
}

void Profile::clear_interest() {
  interest_.reset();
  ++version_;
}

void Profile::add_capability(TransformCapability capability) {
  capabilities_.push_back(std::move(capability));
  ++version_;
}

void Profile::clear_capabilities() {
  capabilities_.clear();
  ++version_;
}

void Profile::encode(serde::Writer& w) const {
  attributes_.encode(w);
  w.boolean(interest_.has_value());
  if (interest_) interest_->encode(w);
  w.varint(capabilities_.size());
  for (const TransformCapability& capability : capabilities_) {
    capability.encode(w);
  }
  w.varint(version_);
}

Profile Profile::decode(serde::Reader& r) {
  Profile profile;
  profile.attributes_ = AttributeSet::decode(r);
  if (r.boolean()) profile.interest_ = Selector::decode(r);
  const std::uint64_t count = r.varint();
  if (count > 256) r.fail(Errc::malformed, "too many capabilities");
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    profile.capabilities_.push_back(TransformCapability::decode(r));
  }
  profile.version_ = r.varint();
  return profile;
}

}  // namespace collabqos::pubsub
