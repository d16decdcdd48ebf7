// SNMP manager: the framework's "manager component that runs on the
// management station" (paper §5.5). Asynchronous request/response with
// request-id correlation, per-request timeout and bounded retries —
// everything the inference engine needs to poll network elements.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "collabqos/net/network.hpp"
#include "collabqos/snmp/pdu.hpp"
#include "collabqos/telemetry/counter_set.hpp"
#include "collabqos/util/flat_table.hpp"

namespace collabqos::snmp {

/// The manager's counters, declared once (telemetry/counter_set.hpp).
#define COLLABQOS_MANAGER_COUNTERS(X)                                          \
  X(requests, "snmp.manager.requests")                                         \
  X(responses, "snmp.manager.responses")                                       \
  X(timeouts, "snmp.manager.timeouts")                                         \
  X(retries, "snmp.manager.retries")                                           \
  X(traps_received, "snmp.manager.traps_received")

/// Point-in-time view (registry families "snmp.manager.*").
struct ManagerStats {
  COLLABQOS_COUNTER_FIELDS(COLLABQOS_MANAGER_COUNTERS)
};

class Manager {
 public:
  using Callback = std::function<void(Result<Pdu>)>;
  using WalkCallback = std::function<void(Result<std::vector<VarBind>>)>;

  /// A request gives up after kRetries further attempts, each sent when
  /// the previous one saw no response within kTimeout.
  static constexpr sim::Duration kTimeout = sim::Duration::millis(500);
  static constexpr int kRetries = 2;

  Manager(net::Network& network, net::NodeId node);

  /// GET one or more OIDs from the agent at `agent` (node:161).
  void get(net::NodeId agent, const std::string& community,
           std::vector<Oid> oids, Callback callback);

  /// GETNEXT (one step of a walk).
  void get_next(net::NodeId agent, const std::string& community,
                std::vector<Oid> oids, Callback callback);

  /// SET varbinds.
  void set(net::NodeId agent, const std::string& community,
           std::vector<VarBind> bindings, Callback callback);

  /// GETBULK: up to `max_repetitions` successors of each OID in one
  /// round trip (v2c-style bulk retrieval; cheaper than walking).
  void get_bulk(net::NodeId agent, const std::string& community,
                std::vector<Oid> oids, std::uint32_t max_repetitions,
                Callback callback);

  /// Walk an entire subtree over GETBULK, ~max_repetitions objects per
  /// round trip; calls `callback` once with every varbind under `root`
  /// (in lexicographic order) or the first error.
  void bulk_walk(net::NodeId agent, const std::string& community,
                 const Oid& root, std::uint32_t max_repetitions,
                 WalkCallback callback);

  [[nodiscard]] ManagerStats stats() const noexcept { return stats_.view(); }

  /// Receive unsolicited traps. Opens the trap sink (node:162) on first
  /// use; fails with Errc::conflict if another listener holds the port.
  using TrapHandler = std::function<void(net::NodeId agent, const Pdu&)>;
  Status listen_for_traps(TrapHandler handler);

 private:
  /// Registry-backed counters; ManagerStats is the cheap view.
  COLLABQOS_COUNTER_SET(Counters, ManagerStats, COLLABQOS_MANAGER_COUNTERS);

  /// A request awaiting its response. It keeps the encoded message, so
  /// a retry resends the same buffer.
  struct Outstanding {
    serde::SharedBytes wire;
    net::Address agent;
    Callback callback;
    int attempts_left = 0;
    sim::EventId timeout_event = 0;
  };
  /// A walk in progress. Each step's request callback carries only the
  /// walk's id, so a step allocates no closure.
  struct Walk {
    net::NodeId agent{};
    std::string community;
    Oid root;
    std::uint32_t max_repetitions = 0;
    std::vector<VarBind> collected;
    WalkCallback callback;
  };

  /// Sends `request_` (type, community and bindings filled in by the
  /// caller) under a fresh request id.
  void send_request(net::NodeId agent, Callback callback);
  void transmit(std::uint32_t request_id);
  void on_datagram(const net::Datagram& datagram);
  void on_timeout(std::uint32_t request_id);
  void walk_step(std::uint64_t walk_id, const Oid& cursor);
  void on_walk_response(std::uint64_t walk_id, Result<Pdu> result);
  /// Fill `request_` for an OID-list request (NULL values, no error).
  void prepare(PduType type, const std::string& community,
               std::span<const Oid> oids);

  net::Network& network_;
  std::unique_ptr<net::Endpoint> endpoint_;
  std::unique_ptr<net::Endpoint> trap_endpoint_;
  TrapHandler trap_handler_;
  FlatMap<Outstanding> outstanding_;  ///< by request id
  std::uint32_t next_request_id_ = 1;
  FlatMap<Walk> walks_;  ///< by walk id
  std::uint64_t next_walk_id_ = 1;
  /// Scratch for building each request before it is encoded.
  Pdu request_;
  Counters stats_;
};

}  // namespace collabqos::snmp
