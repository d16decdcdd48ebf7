// A subtree walk one GETNEXT at a time, over the manager's public
// get_next: the oracle of Manager::bulk_walk. The library walked this way
// before GETBULK; no program needs it now, so it lives with the tests.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "collabqos/snmp/manager.hpp"

namespace collabqos::snmp::reference {

namespace detail {

struct GetNextWalk {
  Manager& manager;
  net::NodeId agent;
  std::string community;
  Oid root;
  std::vector<VarBind> collected;
  Manager::WalkCallback callback;
};

/// Asks for the successor of `cursor`. Each request's callback holds the
/// walk, so it lives exactly as long as a step is in flight.
inline void step(std::shared_ptr<GetNextWalk> walk, const Oid& cursor) {
  Manager& manager = walk->manager;
  manager.get_next(
      walk->agent, walk->community, {cursor},
      [walk](Result<Pdu> result) {
        if (!result) return walk->callback(result.error());
        const Pdu& pdu = result.value();
        // Done at noSuchName or at the first OID past the subtree.
        if (pdu.error_status == ErrorStatus::no_such_name ||
            pdu.bindings.empty() ||
            !walk->root.is_prefix_of(pdu.bindings.front().oid)) {
          return walk->callback(std::move(walk->collected));
        }
        if (pdu.error_status != ErrorStatus::no_error) {
          return walk->callback(
              Error{Errc::internal, std::string(to_string(pdu.error_status))});
        }
        walk->collected.push_back(pdu.bindings.front());
        step(walk, pdu.bindings.front().oid);
      });
}

}  // namespace detail

/// Walks the subtree under `root` of the agent at `agent`; calls
/// `callback` once with every varbind under `root` (in lexicographic
/// order) or the first error.
inline void getnext_walk(Manager& manager, net::NodeId agent,
                         const std::string& community, const Oid& root,
                         Manager::WalkCallback callback) {
  detail::step(std::make_shared<detail::GetNextWalk>(detail::GetNextWalk{
                   manager, agent, community, root, {}, std::move(callback)}),
               root);
}

}  // namespace collabqos::snmp::reference
