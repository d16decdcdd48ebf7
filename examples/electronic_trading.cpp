// Electronic trading — group formation, semantic filtering and
// concurrency control (the paper's bidding/auction illustration: "a
// person interested in purchasing modems would find computer peripherals
// group to be of coarse granularity").
//
// A directory hosts a coarse "peripherals" auction and a fine-grained
// "modems" auction. Bidders discover sessions semantically, subscribe
// with interest expressions over lot attributes, and place concurrent
// bids; the concurrency controller gives every replica the same
// deterministic bid ledger so the auctioneer's close is unambiguous.
#include <cstdio>
#include <memory>

#include "collabqos/core/client.hpp"

using namespace collabqos;

namespace {

struct Trader {
  std::unique_ptr<core::CollaborationClient> client;
};

Trader make_trader(net::Network& network, const core::SessionInfo& session,
                   const char* name, std::uint64_t id) {
  core::ClientConfig config;
  config.name = name;
  core::InferenceEngine engine(core::QoSContract{},
                               core::PolicyDatabase::with_defaults());
  Trader trader;
  // No SNMP manager: the trading floor runs open loop, without host
  // adaptation.
  trader.client = std::make_unique<core::CollaborationClient>(
      network, network.add_node(name), session, id, nullptr,
      std::move(engine), config);
  return trader;
}

serde::Bytes encode_bid(std::uint32_t cents) {
  serde::Writer w;
  w.u32(cents);
  return std::move(w).take();
}

}  // namespace

int main() {
  sim::Simulator simulator;
  net::Network network(simulator, 42);
  core::SessionDirectory directory;

  // Group formation: one coarse and one precise objective.
  pubsub::AttributeSet peripherals;
  peripherals.set("domain", "trading");
  peripherals.set("category", "computer-peripherals");
  pubsub::AttributeSet modems;
  modems.set("domain", "trading");
  modems.set("category", "computer-peripherals");
  modems.set("item", "modems");
  (void)directory.create("peripherals-hall", peripherals, {});
  const core::SessionInfo modem_session =
      directory.create("modem-auction", modems, {}, /*member_limit=*/8)
          .take();

  // A modem buyer filters precisely instead of joining the coarse hall.
  const auto matches = directory.discover(
      pubsub::Selector::parse("category == 'computer-peripherals' and "
                              "item == 'modems'")
          .take());
  std::printf("precise discovery returned %zu session(s): %s\n\n",
              matches.size(), matches.front().name.c_str());

  Trader auctioneer = make_trader(network, modem_session, "auctioneer", 1);
  Trader buyer_a = make_trader(network, modem_session, "buyer-a", 2);
  Trader buyer_b = make_trader(network, modem_session, "buyer-b", 3);
  (void)directory.join("modem-auction");
  (void)directory.join("modem-auction");
  (void)directory.join("modem-auction");

  // Buyer B only cares about modem and router lots under $120. Note the
  // `not exists` guard: a comparison on an absent attribute is false
  // (two-valued semantics), so non-lot traffic must be admitted
  // explicitly.
  buyer_b.client->profile().set_interest(
      pubsub::Selector::parse(
          "not exists event or "
          "(event == 'lot.open' and lot.kind in ('modem', 'router') and "
          "lot.reserve.cents <= 12000)")
          .take());

  int a_saw_lots = 0, b_saw_lots = 0;
  buyer_a.client->on_media([&](const pubsub::SemanticMessage&,
                               const media::MediaObject&,
                               const core::MediaAdaptationReport&) {
    ++a_saw_lots;
  });
  buyer_b.client->on_media([&](const pubsub::SemanticMessage&,
                               const media::MediaObject&,
                               const core::MediaAdaptationReport&) {
    ++b_saw_lots;
  });

  const auto run = [&](double seconds) {
    simulator.run_until(simulator.now() + sim::Duration::seconds(seconds));
  };

  // Lot 1: a $200-reserve modem lot — B's price filter drops it.
  pubsub::AttributeSet lot1;
  lot1.set("event", "lot.open");
  lot1.set("lot.kind", "modem");
  lot1.set("lot.reserve.cents", 20000);
  (void)auctioneer.client->share_media(
      media::MediaObject(media::TextMedia{"lot 1: rack of ISDN modems"}),
      pubsub::Selector::always(), lot1, "lot-1");
  // Lot 2: a $90-reserve modem lot — both see it.
  pubsub::AttributeSet lot2;
  lot2.set("event", "lot.open");
  lot2.set("lot.kind", "modem");
  lot2.set("lot.reserve.cents", 9000);
  (void)auctioneer.client->share_media(
      media::MediaObject(media::TextMedia{"lot 2: box of 56k modems"}),
      pubsub::Selector::always(), lot2, "lot-2");
  run(2.0);
  std::printf("lot announcements seen: buyer-a=%d buyer-b=%d "
              "(B filtered the $200 lot)\n\n",
              a_saw_lots, b_saw_lots);

  // Concurrent bidding on lot 2: both bids fire before either delivery.
  (void)buyer_a.client->publish_operation("lot-2", "bid", encode_bid(9100));
  (void)buyer_b.client->publish_operation("lot-2", "bid", encode_bid(9100));
  run(2.0);
  (void)buyer_a.client->publish_operation("lot-2", "bid", encode_bid(9550));
  run(2.0);

  // Every replica folds the same ledger.
  const auto ledger_at = [](const Trader& trader) {
    const core::ObjectLog* log = trader.client->concurrency().log("lot-2");
    std::vector<std::pair<std::uint64_t, std::uint32_t>> bids;
    if (log == nullptr) return bids;
    for (const core::Operation* op : log->ordered()) {
      serde::Reader r(op->payload);
      bids.emplace_back(op->peer, r.u32());  // 0 when truncated
    }
    return bids;
  };
  const auto at_auctioneer = ledger_at(auctioneer);
  std::printf("bid ledger (identical at every replica):\n");
  for (const auto& [peer, cents] : at_auctioneer) {
    std::printf("  peer %llu bid $%.2f\n",
                static_cast<unsigned long long>(peer), cents / 100.0);
  }
  const bool converged = at_auctioneer == ledger_at(buyer_a) &&
                         at_auctioneer == ledger_at(buyer_b);
  std::printf("\nreplicas converged: %s\n", converged ? "yes" : "NO");
  std::printf(
      "the simultaneous $91.00 bids were both preserved and ordered\n"
      "deterministically (lower peer id first) — no information lost.\n");
  return converged ? 0 : 1;
}
