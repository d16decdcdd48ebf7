// Figure 9 — "Performance of 2 wireless clients with varying power".
//
// Paper: client A's transmit power is increased in steps at fixed
// distances for A and B; overall SIR at the base station improves when
// devices can adjust power (power control & game theory), but "varying
// the distance is more effective than a variation in power".
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "bench_report.hpp"
#include "collabqos/wireless/channel.hpp"

using namespace collabqos;
using wireless::make_station;

int main(int argc, char** argv) {
  bench::ObserveMode mode(argc, argv, "fig9_power");
  bench::FigReport report_out("fig9_power");
  constexpr wireless::StationId kA = make_station(1);
  constexpr wireless::StationId kB = make_station(2);

  wireless::ChannelParams params;
  params.noise_kappa_db = 62.0;  // operating point straddles the grades
  wireless::Channel channel(params);
  channel.upsert(kA, {{90.0, 0.0}, 25.0});
  channel.upsert(kB, {{70.0, 0.0}, 100.0});

  std::printf(
      "Figure 9: two wireless clients, client A's tx power stepped up\n"
      "(paper: overall SIR at the BS improves, but less effectively than\n"
      " the distance variation of Figure 8)\n");
  for (int i = 0; i < 78; ++i) std::putchar('-');
  std::putchar('\n');
  std::printf("%6s %12s %10s %10s %14s\n", "step", "pwr-A mW", "SIR-A dB",
              "SIR-B dB", "net SIR dB");

  const double steps[] = {25.0, 50.0, 100.0, 200.0, 400.0, 800.0};
  double first_net = 0.0, last_net = 0.0;
  for (int step = 0; step < 6; ++step) {
    (void)channel.set_power(kA, steps[step]);
    const double sir_a = channel.sir_db(kA).value();
    const double sir_b = channel.sir_db(kB).value();
    // "Net SIR" aggregate at the BS: total carried signal over total
    // interference+noise, in dB.
    const double sum_linear =
        channel.sir(kA).value() + channel.sir(kB).value();
    const double net = 10.0 * std::log10(sum_linear);
    if (step == 0) first_net = net;
    last_net = net;
    std::printf("%6d %12.0f %10.2f %10.2f %14.2f\n", step, steps[step],
                sir_a, sir_b, net);
    report_out.add_row()
        .set("step", step)
        .set("power_a_mw", steps[step])
        .set("sir_a_db", sir_a)
        .set("sir_b_db", sir_b)
        .set("net_sir_db", net);
  }
  for (int i = 0; i < 78; ++i) std::putchar('-');
  std::putchar('\n');
  std::printf(
      "shape check: SIR-A climbs with its power while SIR-B degrades;\n"
      "net SIR moves %+.2f dB across a 32x power sweep — a weaker lever\n"
      "than the distance variation of Figure 8.\n",
      last_net - first_net);
  report_out.note("net_sir_delta_db", last_net - first_net);
  collabqos::bench::print_metrics_snapshot();
  return report_out.write() ? 0 : 1;
}
