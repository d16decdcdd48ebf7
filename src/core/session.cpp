#include "collabqos/core/session.hpp"

namespace collabqos::core {

Result<SessionInfo> SessionDirectory::create(
    std::string name, pubsub::AttributeSet objective,
    pubsub::AttributeSet result_space,
    std::optional<std::size_t> member_limit) {
  if (sessions_.contains(name)) {
    return Error{Errc::conflict, "session name taken: " + name};
  }
  SessionInfo info;
  info.name = name;
  info.objective = std::move(objective);
  info.result_space = std::move(result_space);
  info.group = net::make_group(next_group_++);
  info.member_limit = member_limit;
  auto [it, inserted] = sessions_.emplace(std::move(name), std::move(info));
  return it->second;
}

std::vector<SessionInfo> SessionDirectory::discover(
    const pubsub::Selector& filter) const {
  std::vector<SessionInfo> matches;
  for (const auto& [name, info] : sessions_) {
    if (filter.matches(info.objective)) matches.push_back(info);
  }
  return matches;
}

Status SessionDirectory::join(std::string_view name) {
  const auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    return Status(Errc::no_such_object, "unknown session");
  }
  SessionInfo& info = it->second;
  if (info.member_limit && info.member_count >= *info.member_limit) {
    return Status(Errc::resource_limit, "session is full");
  }
  ++info.member_count;
  return {};
}

}  // namespace collabqos::core
