// Declare-once counters (DESIGN.md §9.1). A component names each of its
// counters exactly once, in an X-macro list of `X(field, "family")`
// entries (one per line, each line continued with a backslash):
//
//   #define COLLABQOS_PEER_COUNTERS(X)
//     X(published, "pubsub.peer.published")
//     X(nacks_sent, "pubsub.peer.nacks_sent") /* repair requests */
//
// and expands that one list into both halves of the counter plumbing:
//  * COLLABQOS_COUNTER_FIELDS(LIST): the plain `std::uint64_t` fields of
//    the component's public `*Stats` view;
//  * COLLABQOS_COUNTER_SET(Name, View, LIST): a struct `Name` holding
//    one telemetry::Counter per entry (so `++stats_.published` stays one
//    relaxed Counter::add), an `attach(registry)` that registers them in
//    list order, and a `view()` that reads them all into a `View`.
// Comments inside a list must be /* block */ comments: a `//` comment
// would swallow the line continuation.
#pragma once

#include <cstdint>
#include <vector>

#include "collabqos/telemetry/metrics.hpp"

#define COLLABQOS_DETAIL_COUNTER_FIELD(field, family) std::uint64_t field = 0;
#define COLLABQOS_DETAIL_COUNTER_MEMBER(field, family)                         \
  ::collabqos::telemetry::Counter field;
#define COLLABQOS_DETAIL_COUNTER_ATTACH(field, family)                         \
  handles_.push_back(registry.attach(family, field));
#define COLLABQOS_DETAIL_COUNTER_READ(field, family) out.field = field.value();

/// The `*Stats` view fields of a counter list.
#define COLLABQOS_COUNTER_FIELDS(LIST) LIST(COLLABQOS_DETAIL_COUNTER_FIELD)

/// A registry-backed counter set with one Counter member per list entry.
#define COLLABQOS_COUNTER_SET(Name, View, LIST)                                \
  struct Name {                                                                \
    LIST(COLLABQOS_DETAIL_COUNTER_MEMBER)                                      \
    void attach(::collabqos::telemetry::MetricsRegistry& registry) {           \
      LIST(COLLABQOS_DETAIL_COUNTER_ATTACH)                                    \
    }                                                                          \
    [[nodiscard]] View view() const noexcept {                                 \
      View out;                                                                \
      LIST(COLLABQOS_DETAIL_COUNTER_READ)                                      \
      return out;                                                              \
    }                                                                          \
                                                                               \
   private:                                                                    \
    std::vector<::collabqos::telemetry::Registration> handles_;                \
  }
