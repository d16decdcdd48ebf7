// Well-known event-type tags on the session bus.
#pragma once

#include <string_view>

namespace collabqos::core::events {

inline constexpr std::string_view kMedia = "media.share";
inline constexpr std::string_view kOperation = "object.op";
/// SLO alert transitions from the observatory's alert engine
/// (observatory/alerts.hpp); content carries kind=alert, severity,
/// rule, metric, host.
inline constexpr std::string_view kAlert = "observatory.alert";

}  // namespace collabqos::core::events
