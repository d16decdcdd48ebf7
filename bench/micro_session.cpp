// End-to-end session throughput micro-benchmarks: events per second
// through the full stack (semantic matching + RTP + simulated network)
// and the cost of a complete image share/adapt/display cycle.
#include <benchmark/benchmark.h>

#include <memory>

#include "collabqos/app/chat.hpp"
#include "collabqos/app/image_viewer.hpp"
#include "collabqos/core/client.hpp"

namespace {

using namespace collabqos;

struct Fixture {
  sim::Simulator sim;
  net::Network network{sim, 99};
  core::SessionDirectory directory;
  core::SessionInfo session;
  std::vector<std::unique_ptr<core::CollaborationClient>> clients;

  explicit Fixture(int n_clients) {
    session = directory.create("bench", {}, {}).take();
    for (int i = 0; i < n_clients; ++i) {
      core::ClientConfig config;
      config.name = "c";
      config.name += std::to_string(i);
      config.rtcp_interval = {};  // no timers: pure event cost
      core::InferenceEngine engine(core::QoSContract{},
                                   core::PolicyDatabase::with_defaults());
      clients.push_back(std::make_unique<core::CollaborationClient>(
          network, network.add_node(config.name), session,
          static_cast<std::uint64_t>(i + 1), nullptr, std::move(engine),
          config));
    }
  }

  void drain() { sim.run_all(); }
};

void BM_ChatEventEndToEnd(benchmark::State& state) {
  Fixture fixture(static_cast<int>(state.range(0)));
  app::ChatArea chat(*fixture.clients[0]);
  std::int64_t events = 0;
  for (auto _ : state) {
    (void)chat.post("status ping");
    fixture.drain();
    ++events;
  }
  // Each post reaches n-1 receivers.
  state.SetItemsProcessed(events * (state.range(0) - 1));
}
BENCHMARK(BM_ChatEventEndToEnd)->Arg(2)->Arg(8)->Arg(24);

void BM_ImageShareAdaptDisplay(benchmark::State& state) {
  Fixture fixture(2);
  app::ImageViewer sender(*fixture.clients[0]);
  app::ImageViewer receiver(*fixture.clients[1]);
  const media::Image image = render_scene(media::make_crisis_scene(
      static_cast<int>(state.range(0)), static_cast<int>(state.range(0)),
      1));
  int shared = 0;
  for (auto _ : state) {
    (void)sender.share(image, "img" + std::to_string(shared++), "bench");
    fixture.drain();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(image.raw_bytes()));
}
BENCHMARK(BM_ImageShareAdaptDisplay)->Arg(64)->Arg(128)->Arg(256);

void BM_OperationFanout(benchmark::State& state) {
  Fixture fixture(static_cast<int>(state.range(0)));
  std::int64_t ops = 0;
  for (auto _ : state) {
    (void)fixture.clients[0]->publish_operation("board", "stroke",
                                                {1, 2, 3, 4, 5, 6, 7, 8});
    fixture.drain();
    ++ops;
  }
  state.SetItemsProcessed(ops * (state.range(0) - 1));
}
BENCHMARK(BM_OperationFanout)->Arg(4)->Arg(16);

}  // namespace

BENCHMARK_MAIN();
