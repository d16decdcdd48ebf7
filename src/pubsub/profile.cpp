#include "collabqos/pubsub/profile.hpp"

namespace collabqos::pubsub {

void Profile::set(std::string key, AttributeValue value) {
  attributes_.set(std::move(key), std::move(value));
}

void Profile::set_interest(Selector interest) {
  interest_ = std::move(interest);
}

void Profile::add_capability(TransformCapability capability) {
  capabilities_.push_back(std::move(capability));
}

}  // namespace collabqos::pubsub
