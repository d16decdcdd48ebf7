#include <gtest/gtest.h>

#include <memory>

#include "collabqos/snmp/agent.hpp"
#include "collabqos/snmp/host_mib.hpp"
#include "collabqos/snmp/manager.hpp"
#include "support/reference_walk.hpp"

namespace collabqos::snmp {
namespace {

// ------------------------------------------------------------------- Oid

TEST(Oid, LexicographicOrder) {
  EXPECT_LT((Oid{1, 3}), (Oid{1, 3, 0}));       // prefix sorts first
  EXPECT_LT((Oid{1, 3, 0}), (Oid{1, 3, 1}));
  EXPECT_LT((Oid{1, 3, 9}), (Oid{1, 4}));
}

TEST(Oid, PrefixRelation) {
  const Oid root{1, 3, 6};
  EXPECT_TRUE(root.is_prefix_of(root));
  EXPECT_TRUE(root.is_prefix_of(Oid{1, 3, 6, 1, 4}));
  EXPECT_FALSE(root.is_prefix_of(Oid{1, 3}));
  EXPECT_FALSE(root.is_prefix_of(Oid{1, 3, 7}));
}

TEST(Oid, ChildAndConcat) {
  const Oid base{1, 3};
  EXPECT_EQ(base.concat(Oid{6}), (Oid{1, 3, 6}));
  EXPECT_EQ(base.concat(Oid{6, 1}), (Oid{1, 3, 6, 1}));
  EXPECT_EQ(base.to_string(), "1.3");
}

TEST(Value, TypedAccessors) {
  EXPECT_EQ(Value::integer(-5).as_integer().value(), -5);
  EXPECT_EQ(Value::gauge(42).as_unsigned().value(), 42u);
  EXPECT_EQ(Value::counter(7).as_unsigned().value(), 7u);
  EXPECT_EQ(Value::octets("hi").as_octets().value(), "hi");
  EXPECT_EQ(Value::object_id(Oid{1, 3}).as_object_id().value(), (Oid{1, 3}));
  EXPECT_FALSE(Value::integer(1).as_octets().ok());
  EXPECT_FALSE(Value::octets("x").as_number().ok());
}

TEST(Value, NumberView) {
  EXPECT_DOUBLE_EQ(Value::integer(-3).as_number().value(), -3.0);
  EXPECT_DOUBLE_EQ(Value::gauge(10).as_number().value(), 10.0);
  EXPECT_DOUBLE_EQ(Value::timeticks(100).as_number().value(), 100.0);
}

// ------------------------------------------------------------------- PDU

TEST(Pdu, CodecRoundTrip) {
  Pdu pdu;
  pdu.type = PduType::get_next;
  pdu.community = "private";
  pdu.request_id = 777;
  pdu.error_status = ErrorStatus::bad_value;
  pdu.error_index = 2;
  pdu.bindings.push_back({oids::sys_name(), Value::octets("ws1")});
  pdu.bindings.push_back({oids::tassl_cpu_load(), Value::gauge(55)});

  auto decoded = Pdu::decode(pdu.encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, pdu.type);
  EXPECT_EQ(decoded.value().community, pdu.community);
  EXPECT_EQ(decoded.value().request_id, pdu.request_id);
  EXPECT_EQ(decoded.value().error_status, pdu.error_status);
  EXPECT_EQ(decoded.value().error_index, pdu.error_index);
  ASSERT_EQ(decoded.value().bindings.size(), 2u);
  EXPECT_EQ(decoded.value().bindings[0], pdu.bindings[0]);
  EXPECT_EQ(decoded.value().bindings[1], pdu.bindings[1]);
}

TEST(Pdu, RejectsTruncation) {
  Pdu pdu;
  pdu.bindings.push_back({oids::sys_name(), Value::octets("x")});
  serde::Bytes bytes = pdu.encode();
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(
        Pdu::decode(std::span(bytes.data(), cut)).ok());
  }
}

TEST(Pdu, RejectsTrailingBytes) {
  Pdu pdu;
  serde::Bytes bytes = pdu.encode();
  bytes.push_back(0x00);
  EXPECT_FALSE(Pdu::decode(bytes).ok());
}

// ------------------------------------------------------------------- Mib

TEST(Mib, GetScalarAndMissing) {
  Mib mib;
  mib.add_scalar(Oid{1, 1}, Value::integer(5));
  EXPECT_EQ(mib.get(Oid{1, 1}).value(), Value::integer(5));
  auto missing = mib.get(Oid{1, 2});
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), Errc::no_such_object);
}

TEST(Mib, ProviderIsLive) {
  Mib mib;
  int calls = 0;
  mib.add_provider(Oid{1, 1}, [&calls] {
    return Value::integer(++calls);
  });
  EXPECT_EQ(mib.get(Oid{1, 1}).value(), Value::integer(1));
  EXPECT_EQ(mib.get(Oid{1, 1}).value(), Value::integer(2));
}

TEST(Mib, GetNextWalksLexicographically) {
  Mib mib;
  mib.add_scalar(Oid{1, 3, 6, 2}, Value::integer(2));
  mib.add_scalar(Oid{1, 3, 6, 1, 5}, Value::integer(1));
  mib.add_scalar(Oid{1, 4}, Value::integer(3));

  // GETNEXT answers the object at upper_bound, as the agent does.
  const std::size_t first = mib.upper_bound(Oid{0});
  ASSERT_LT(first, mib.size());
  EXPECT_EQ(mib.oid_at(first), (Oid{1, 3, 6, 1, 5}));
  EXPECT_EQ(mib.value_at(first), Value::integer(1));
  const std::size_t second = mib.upper_bound(mib.oid_at(first));
  ASSERT_LT(second, mib.size());
  EXPECT_EQ(mib.oid_at(second), (Oid{1, 3, 6, 2}));
  const std::size_t third = mib.upper_bound(mib.oid_at(second));
  ASSERT_LT(third, mib.size());
  EXPECT_EQ(mib.oid_at(third), (Oid{1, 4}));
  EXPECT_EQ(mib.upper_bound(mib.oid_at(third)), mib.size());  // end of MIB
}

TEST(Mib, SetRespectsAccess) {
  Mib mib;
  mib.add_scalar(Oid{1, 1}, Value::integer(5), Access::read_only);
  mib.add_scalar(Oid{1, 2}, Value::integer(6), Access::read_write);
  EXPECT_EQ(mib.set(Oid{1, 1}, Value::integer(9)).code(),
            Errc::access_denied);
  EXPECT_TRUE(mib.set(Oid{1, 2}, Value::integer(9)).ok());
  EXPECT_EQ(mib.get(Oid{1, 2}).value(), Value::integer(9));
  EXPECT_EQ(mib.set(Oid{9, 9}, Value::integer(1)).code(),
            Errc::no_such_object);
}

TEST(Mib, MutatorValidates) {
  Mib mib;
  int stored = 0;
  mib.add_provider(
      Oid{1, 1}, [&stored] { return Value::integer(stored); },
      Access::read_write, [&stored](const Value& value) -> Status {
        auto number = value.as_integer();
        if (!number || number.value() < 0) {
          return Status(Errc::out_of_range, "must be non-negative");
        }
        stored = static_cast<int>(number.value());
        return {};
      });
  EXPECT_TRUE(mib.set(Oid{1, 1}, Value::integer(7)).ok());
  EXPECT_EQ(stored, 7);
  EXPECT_FALSE(mib.set(Oid{1, 1}, Value::integer(-1)).ok());
}

// --------------------------------------------------- agent/manager in sim

class SnmpStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    host_node_ = network_.add_node("host");
    mgmt_node_ = network_.add_node("mgmt");
    agent_ = std::make_unique<Agent>(network_, host_node_, "public",
                                     "secret");
    manager_ = std::make_unique<Manager>(network_, mgmt_node_);
    host_ = std::make_unique<sim::Host>(sim_, "host");
    install_host_instrumentation(*agent_, *host_, sim_);
    install_interface_instrumentation(*agent_, network_, host_node_);
  }

  sim::Simulator sim_;
  net::Network network_{sim_, 5};
  net::NodeId host_node_{};
  net::NodeId mgmt_node_{};
  std::unique_ptr<Agent> agent_;
  std::unique_ptr<Manager> manager_;
  std::unique_ptr<sim::Host> host_;
};

TEST_F(SnmpStackTest, GetReturnsLiveMetrics) {
  host_->set_cpu_process(std::make_unique<sim::ConstantProcess>(62.0));
  Result<Pdu> response = Error{Errc::internal, "not called"};
  manager_->get(host_node_, "public", {oids::tassl_cpu_load()},
                [&](Result<Pdu> r) { response = std::move(r); });
  sim_.run_all();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().error_status, ErrorStatus::no_error);
  ASSERT_EQ(response.value().bindings.size(), 1u);
  EXPECT_DOUBLE_EQ(
      response.value().bindings[0].value.as_number().value(), 62.0);
}

TEST_F(SnmpStackTest, MultiOidGet) {
  host_->set_cpu_process(std::make_unique<sim::ConstantProcess>(10.0));
  host_->set_page_fault_process(std::make_unique<sim::ConstantProcess>(77.0));
  Result<Pdu> response = Error{Errc::internal, ""};
  manager_->get(host_node_, "public",
                {oids::tassl_cpu_load(), oids::tassl_page_faults()},
                [&](Result<Pdu> r) { response = std::move(r); });
  sim_.run_all();
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response.value().bindings.size(), 2u);
  EXPECT_DOUBLE_EQ(response.value().bindings[1].value.as_number().value(),
                   77.0);
}

TEST_F(SnmpStackTest, WrongCommunityDenied) {
  Result<Pdu> response = Error{Errc::internal, ""};
  manager_->get(host_node_, "wrong", {oids::tassl_cpu_load()},
                [&](Result<Pdu> r) { response = std::move(r); });
  sim_.run_all();
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.code(), Errc::access_denied);
  EXPECT_GE(agent_->stats().auth_failures, 1u);
}

TEST_F(SnmpStackTest, MissingOidReportsNoSuchName) {
  Result<Pdu> response = Error{Errc::internal, ""};
  manager_->get(host_node_, "public", {Oid{9, 9, 9}},
                [&](Result<Pdu> r) { response = std::move(r); });
  sim_.run_all();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().error_status, ErrorStatus::no_such_name);
  EXPECT_EQ(response.value().error_index, 1u);
}

TEST_F(SnmpStackTest, TimeoutAfterRetriesWhenAgentUnreachable) {
  // Point at a node with no agent.
  const net::NodeId empty = network_.add_node("empty");
  Result<Pdu> response = Error{Errc::internal, ""};
  manager_->get(empty, "public", {oids::tassl_cpu_load()},
                [&](Result<Pdu> r) { response = std::move(r); });
  sim_.run_all();
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.code(), Errc::timeout);
  EXPECT_EQ(manager_->stats().retries, 2u);
  EXPECT_EQ(manager_->stats().timeouts, 1u);
}

TEST_F(SnmpStackTest, RetriesSurviveLossyLink) {
  net::LinkParams lossy;
  lossy.loss_probability = 0.45;
  ASSERT_TRUE(network_.set_link_params(host_node_, lossy).ok());
  int successes = 0;
  constexpr int kPolls = 40;
  for (int i = 0; i < kPolls; ++i) {
    manager_->get(host_node_, "public", {oids::tassl_cpu_load()},
                  [&](Result<Pdu> r) {
                    if (r.ok()) ++successes;
                  });
  }
  sim_.run_all();
  // With 2 retries the per-poll success probability is high even at
  // ~30% round-trip survival.
  EXPECT_GT(successes, kPolls / 2);
  EXPECT_GT(manager_->stats().retries, 0u);
}

TEST_F(SnmpStackTest, WalkVisitsWholeExtensionSubtree) {
  Result<std::vector<VarBind>> walked = Error{Errc::internal, ""};
  reference::getnext_walk(*manager_, host_node_, "public", oids::tassl_root(),
                          [&](Result<std::vector<VarBind>> r) {
                            walked = std::move(r);
                          });
  sim_.run_all();
  ASSERT_TRUE(walked.ok());
  ASSERT_EQ(walked.value().size(), 5u);  // cpu, pf, mem, ifutil, bandwidth
  // Lexicographic order.
  for (std::size_t i = 1; i < walked.value().size(); ++i) {
    EXPECT_LT(walked.value()[i - 1].oid, walked.value()[i].oid);
  }
  EXPECT_EQ(walked.value()[0].oid, oids::tassl_cpu_load());
}

TEST_F(SnmpStackTest, SetRequiresWriteCommunity) {
  agent_->mib().add_scalar(Oid{1, 9}, Value::integer(1),
                           Access::read_write);
  Result<Pdu> denied = Error{Errc::internal, ""};
  manager_->set(host_node_, "public", {{Oid{1, 9}, Value::integer(5)}},
                [&](Result<Pdu> r) { denied = std::move(r); });
  sim_.run_all();
  EXPECT_FALSE(denied.ok());

  Result<Pdu> allowed = Error{Errc::internal, ""};
  manager_->set(host_node_, "secret", {{Oid{1, 9}, Value::integer(5)}},
                [&](Result<Pdu> r) { allowed = std::move(r); });
  sim_.run_all();
  ASSERT_TRUE(allowed.ok());
  EXPECT_EQ(allowed.value().error_status, ErrorStatus::no_error);
  EXPECT_EQ(agent_->mib().get(Oid{1, 9}).value(), Value::integer(5));
}

TEST_F(SnmpStackTest, SetReadOnlyReportsReadOnly) {
  Result<Pdu> response = Error{Errc::internal, ""};
  manager_->set(host_node_, "secret",
                {{oids::sys_name(), Value::octets("evil")}},
                [&](Result<Pdu> r) { response = std::move(r); });
  sim_.run_all();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().error_status, ErrorStatus::read_only);
}

TEST_F(SnmpStackTest, UptimeTicksAdvanceWithSimTime) {
  Result<Pdu> early = Error{Errc::internal, ""};
  manager_->get(host_node_, "public", {oids::sys_uptime()},
                [&](Result<Pdu> r) { early = std::move(r); });
  sim_.run_all();
  sim_.run_until(sim_.now() + sim::Duration::seconds(10.0));
  Result<Pdu> late = Error{Errc::internal, ""};
  manager_->get(host_node_, "public", {oids::sys_uptime()},
                [&](Result<Pdu> r) { late = std::move(r); });
  sim_.run_all();
  ASSERT_TRUE(early.ok());
  ASSERT_TRUE(late.ok());
  const double t0 = early.value().bindings[0].value.as_number().value();
  const double t1 = late.value().bindings[0].value.as_number().value();
  EXPECT_GE(t1 - t0, 999.0);  // ~10s in hundredths
}

TEST_F(SnmpStackTest, BandwidthReflectsLinkConfig) {
  net::LinkParams fast;
  fast.bandwidth_bps = 10e6;
  ASSERT_TRUE(network_.set_link_params(host_node_, fast).ok());
  Result<Pdu> response = Error{Errc::internal, ""};
  manager_->get(host_node_, "public", {oids::tassl_bandwidth()},
                [&](Result<Pdu> r) { response = std::move(r); });
  sim_.run_all();
  ASSERT_TRUE(response.ok());
  EXPECT_DOUBLE_EQ(response.value().bindings[0].value.as_number().value(),
                   10000.0);  // kbit/s
}

TEST_F(SnmpStackTest, GetBulkRetrievesSubtreeInOneRoundTrip) {
  Result<Pdu> response = Error{Errc::internal, ""};
  manager_->get_bulk(host_node_, "public", {oids::tassl_root()}, 10,
                     [&](Result<Pdu> r) { response = std::move(r); });
  sim_.run_all();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().error_status, ErrorStatus::no_error);
  // The extension subtree has 5 objects; bulk stops at the MIB end.
  // (sysUptime etc. live under 1.3.6.1.2.1, before the private arc, so
  // only the 5 extension scalars follow the tassl root.)
  ASSERT_EQ(response.value().bindings.size(), 5u);
  for (std::size_t i = 1; i < response.value().bindings.size(); ++i) {
    EXPECT_LT(response.value().bindings[i - 1].oid,
              response.value().bindings[i].oid);
  }
}

TEST_F(SnmpStackTest, GetBulkRepetitionCap) {
  Result<Pdu> response = Error{Errc::internal, ""};
  manager_->get_bulk(host_node_, "public", {Oid{1}}, 3,
                     [&](Result<Pdu> r) { response = std::move(r); });
  sim_.run_all();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.value().bindings.size(), 3u);
}

TEST_F(SnmpStackTest, GetBulkRequiresReadAccess) {
  Result<Pdu> response = Error{Errc::internal, ""};
  manager_->get_bulk(host_node_, "nope", {Oid{1}}, 3,
                     [&](Result<Pdu> r) { response = std::move(r); });
  sim_.run_all();
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.code(), Errc::access_denied);
}

TEST_F(SnmpStackTest, BulkWalkMatchesPlainWalk) {
  // Widen the extension subtree past one batch at every repetition count.
  for (std::uint32_t i = 0; i < 70; ++i) {
    agent_->mib().add_scalar(oids::tassl_root().concat({9, i, 0}),
                             Value::gauge(i));
  }
  // mib-2 lies inside the MIB; the extension subtree ends it.
  for (const Oid& root : {Oid{1, 3, 6, 1, 2, 1}, oids::tassl_root()}) {
    Result<std::vector<VarBind>> plain = Error{Errc::internal, ""};
    reference::getnext_walk(*manager_, host_node_, "public", root,
                            [&](Result<std::vector<VarBind>> r) {
                              plain = std::move(r);
                            });
    sim_.run_all();
    ASSERT_TRUE(plain.ok());
    ASSERT_FALSE(plain.value().empty());
    for (const std::uint32_t repetitions : {3u, 40u, 64u}) {
      SCOPED_TRACE(root.to_string() + " at max-repetitions " +
                   std::to_string(repetitions));
      Result<std::vector<VarBind>> bulk = Error{Errc::internal, ""};
      manager_->bulk_walk(host_node_, "public", root, repetitions,
                          [&](Result<std::vector<VarBind>> r) {
                            bulk = std::move(r);
                          });
      sim_.run_all();
      ASSERT_TRUE(bulk.ok());
      ASSERT_EQ(bulk.value().size(), plain.value().size());
      for (std::size_t i = 0; i < plain.value().size(); ++i) {
        EXPECT_EQ(bulk.value()[i].oid, plain.value()[i].oid);
      }
    }
  }
}

TEST_F(SnmpStackTest, BulkWalkUsesFewerRoundTrips) {
  // Populate a wide subtree so the round-trip difference is visible.
  for (std::uint32_t i = 0; i < 40; ++i) {
    agent_->mib().add_scalar(oids::tassl_root().concat({9, i, 0}),
                             Value::gauge(i));
  }
  const std::uint64_t before_walk = manager_->stats().requests;
  Result<std::vector<VarBind>> plain = Error{Errc::internal, ""};
  reference::getnext_walk(
      *manager_, host_node_, "public", oids::tassl_root(),
      [&](Result<std::vector<VarBind>> r) { plain = std::move(r); });
  sim_.run_all();
  const std::uint64_t walk_requests =
      manager_->stats().requests - before_walk;

  const std::uint64_t before_bulk = manager_->stats().requests;
  Result<std::vector<VarBind>> bulk = Error{Errc::internal, ""};
  manager_->bulk_walk(host_node_, "public", oids::tassl_root(), 20,
                      [&](Result<std::vector<VarBind>> r) {
                        bulk = std::move(r);
                      });
  sim_.run_all();
  const std::uint64_t bulk_requests =
      manager_->stats().requests - before_bulk;

  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(bulk.ok());
  EXPECT_EQ(bulk.value().size(), plain.value().size());
  EXPECT_LT(bulk_requests * 4, walk_requests);  // >= 4x fewer round trips
}

class PageFaultLadderProbe
    : public SnmpStackTest,
      public ::testing::WithParamInterface<double> {};

TEST_P(PageFaultLadderProbe, AgentReportsConfiguredPageFaults) {
  host_->set_page_fault_process(
      std::make_unique<sim::ConstantProcess>(GetParam()));
  Result<Pdu> response = Error{Errc::internal, ""};
  manager_->get(host_node_, "public", {oids::tassl_page_faults()},
                [&](Result<Pdu> r) { response = std::move(r); });
  sim_.run_all();
  ASSERT_TRUE(response.ok());
  EXPECT_DOUBLE_EQ(response.value().bindings[0].value.as_number().value(),
                   GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sweep, PageFaultLadderProbe,
                         ::testing::Values(30.0, 44.0, 58.0, 72.0, 86.0,
                                           100.0));

}  // namespace
}  // namespace collabqos::snmp
