// Group formation (paper §2): "Clients with similar objectives form a
// collaborating group. ... Based on the final objective and required
// results a member joins the appropriate collaborating session. If an
// application can support multiple groups with different objectives,
// filter mechanisms can be implemented to form smaller groups among
// members with closer interests."
//
// The directory maps objective descriptions (attribute sets) to
// multicast session groups. Discovery is semantic: clients search with a
// selector over objective attributes, mirroring peer-discovery in the
// paper's p2p framing.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "collabqos/net/address.hpp"
#include "collabqos/pubsub/attribute.hpp"
#include "collabqos/pubsub/selector.hpp"
#include "collabqos/util/result.hpp"

namespace collabqos::core {

struct SessionInfo {
  std::string name;
  pubsub::AttributeSet objective;   ///< "domain"="crisis", "topic"=..., ...
  pubsub::AttributeSet result_space; ///< expected outcomes ("share.images")
  net::GroupId group{};
  net::Port port = 5004;
  std::size_t member_count = 0;
  std::optional<std::size_t> member_limit;  ///< admission cap (paper §6.3.3)
};

class SessionDirectory {
 public:
  /// Create (publish) a session; name must be unique.
  Result<SessionInfo> create(std::string name,
                             pubsub::AttributeSet objective,
                             pubsub::AttributeSet result_space,
                             std::optional<std::size_t> member_limit = {});

  /// Find sessions whose objective matches `filter`.
  [[nodiscard]] std::vector<SessionInfo> discover(
      const pubsub::Selector& filter) const;

  /// Membership accounting against the session's member limit.
  Status join(std::string_view name);

  [[nodiscard]] std::size_t size() const noexcept { return sessions_.size(); }

 private:
  std::map<std::string, SessionInfo, std::less<>> sessions_;
  std::uint32_t next_group_ = 0xE0000001;  // 224.0.0.1 homage
};

}  // namespace collabqos::core
