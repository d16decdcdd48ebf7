#include <gtest/gtest.h>

#include <cmath>

#include "collabqos/util/decibel.hpp"
#include "collabqos/wireless/basestation.hpp"
#include "collabqos/wireless/channel.hpp"

namespace collabqos::wireless {
namespace {

constexpr StationId kA = make_station(1);
constexpr StationId kB = make_station(2);
constexpr StationId kC = make_station(3);

ChannelParams quiet_channel() {
  ChannelParams params;
  params.noise_kappa_db = 120.0;  // negligible noise floor
  return params;
}

TEST(Channel, PathGainFollowsPowerLaw) {
  Channel channel;
  channel.upsert(kA, {{100.0, 0.0}, 100.0, true});
  channel.upsert(kB, {{50.0, 0.0}, 100.0, true});
  const double ga = channel.path_gain(kA).value();
  const double gb = channel.path_gain(kB).value();
  // alpha = 4: halving distance raises gain by 16x.
  EXPECT_NEAR(gb / ga, 16.0, 1e-9);
}

TEST(Channel, MinDistanceClampsSingularity) {
  Channel channel;
  channel.upsert(kA, {{0.0, 0.0}, 100.0, true});
  EXPECT_TRUE(std::isfinite(channel.path_gain(kA).value()));
  EXPECT_LE(channel.path_gain(kA).value(), 1.0 + 1e-12);
}

TEST(Channel, SingleClientSirIsSnr) {
  ChannelParams params = quiet_channel();
  params.noise_kappa_db = 60.0;  // finite SNR for an exact comparison
  Channel channel(params);
  channel.upsert(kA, {{10.0, 0.0}, 100.0, true});
  const double signal = channel.received_power_mw(kA).value();
  const double expected =
      params.processing_gain * signal / channel.noise_power_mw();
  EXPECT_NEAR(channel.sir(kA).value(), expected, expected * 1e-12);
}

TEST(Channel, Equation1MatchesManualComputation) {
  Channel channel(quiet_channel());
  channel.upsert(kA, {{30.0, 0.0}, 120.0, true});
  channel.upsert(kB, {{0.0, 60.0}, 250.0, true});
  channel.upsert(kC, {{40.0, 40.0}, 90.0, true});
  const double pa = channel.received_power_mw(kA).value();
  const double pb = channel.received_power_mw(kB).value();
  const double pc = channel.received_power_mw(kC).value();
  const double sigma2 = channel.noise_power_mw();
  const double gain = channel.params().processing_gain;
  const double expected_a = gain * pa / (pb + pc + sigma2);
  const double expected_b = gain * pb / (pa + pc + sigma2);
  EXPECT_NEAR(channel.sir(kA).value(), expected_a, expected_a * 1e-12);
  EXPECT_NEAR(channel.sir(kB).value(), expected_b, expected_b * 1e-12);
}

TEST(Channel, RemovingInterfererNeverHurts) {
  Channel channel(quiet_channel());
  channel.upsert(kA, {{30.0, 0.0}, 100.0, true});
  channel.upsert(kB, {{40.0, 0.0}, 100.0, true});
  channel.upsert(kC, {{50.0, 0.0}, 100.0, true});
  const double with_c = channel.sir(kA).value();
  channel.remove(kC);
  const double without_c = channel.sir(kA).value();
  EXPECT_GT(without_c, with_c);
}

TEST(Channel, IdleStationCausesNoInterference) {
  Channel channel(quiet_channel());
  channel.upsert(kA, {{30.0, 0.0}, 100.0, true});
  channel.upsert(kB, {{30.0, 0.0}, 100.0, true});
  const double busy = channel.sir(kA).value();
  ASSERT_TRUE(channel.set_transmitting(kB, false).ok());
  const double idle = channel.sir(kA).value();
  EXPECT_GT(idle, busy * 100.0);
  EXPECT_FALSE(channel.sir(kB).ok());  // non-transmitting has no SIR
}

TEST(Channel, UniformPowerScalingInvariantWhenNoiseNegligible) {
  Channel channel(quiet_channel());
  channel.upsert(kA, {{30.0, 0.0}, 100.0, true});
  channel.upsert(kB, {{60.0, 0.0}, 150.0, true});
  const double before = channel.sir_db(kA).value();
  ASSERT_TRUE(channel.set_power(kA, 200.0).ok());
  ASSERT_TRUE(channel.set_power(kB, 300.0).ok());
  const double after = channel.sir_db(kA).value();
  EXPECT_NEAR(before, after, 0.01);
}

TEST(Channel, UnknownStationErrors) {
  Channel channel;
  EXPECT_FALSE(channel.sir(kA).ok());
  EXPECT_FALSE(channel.path_gain(kA).ok());
  EXPECT_FALSE(channel.set_position(kA, {}).ok());
  EXPECT_FALSE(channel.set_power(kA, 1.0).ok());
  EXPECT_FALSE(channel.remove(kA));
}

TEST(Channel, NegativePowerRejected) {
  Channel channel;
  channel.upsert(kA, {{10.0, 0.0}, 100.0, true});
  EXPECT_EQ(channel.set_power(kA, -1.0).code(), Errc::out_of_range);
}

// ----------------------------------------------------------- power control

TEST(PowerControl, ConvergesForFeasibleTargets) {
  ChannelParams params_with_noise = quiet_channel();
  params_with_noise.noise_kappa_db = 60.0;  // anchors the fixed point
  Channel channel(params_with_noise);
  channel.upsert(kA, {{40.0, 0.0}, 500.0, true});
  channel.upsert(kB, {{80.0, 0.0}, 20.0, true});
  PowerControlParams params;
  params.target_sir_db = 7.0;  // the paper's target; feasible with G_p
  params.max_iterations = 200;
  const PowerControlOutcome outcome = run_power_control(channel, params);
  EXPECT_TRUE(outcome.converged);
  EXPECT_NEAR(channel.sir_db(kA).value(), 7.0, 0.2);
  EXPECT_NEAR(channel.sir_db(kB).value(), 7.0, 0.2);
}

TEST(PowerControl, InfeasibleTargetHitsBoundsWithoutConverging) {
  Channel channel(quiet_channel());
  channel.upsert(kA, {{40.0, 0.0}, 100.0, true});
  channel.upsert(kB, {{40.0, 0.0}, 100.0, true});
  PowerControlParams params;
  // Feasibility for two equal clients requires gamma < G_p (each is the
  // other's interference): 30 dB > 20 dB of processing gain.
  params.target_sir_db = 30.0;
  params.max_iterations = 50;
  const PowerControlOutcome outcome = run_power_control(channel, params);
  EXPECT_FALSE(outcome.converged);
  const double pa = channel.transmitter(kA).value().tx_power_mw;
  const double pb = channel.transmitter(kB).value().tx_power_mw;
  EXPECT_TRUE(pa >= kMaxPowerMw - 1e-6 ||
              pa <= params.min_power_mw + 1e-6 ||
              pb >= kMaxPowerMw - 1e-6);
}

TEST(PowerControl, NearClientEndsUpTransmittingLess) {
  ChannelParams params_with_noise = quiet_channel();
  params_with_noise.noise_kappa_db = 60.0;
  Channel channel(params_with_noise);
  channel.upsert(kA, {{20.0, 0.0}, 100.0, true});   // near
  channel.upsert(kB, {{100.0, 0.0}, 100.0, true});  // far
  PowerControlParams params;
  params.target_sir_db = 7.0;
  params.min_power_mw = 0.01;
  (void)run_power_control(channel, params);
  EXPECT_LT(channel.transmitter(kA).value().tx_power_mw,
            channel.transmitter(kB).value().tx_power_mw);
}

// ----------------------------------------------------- radio resource mgr

RadioManagerParams default_radio() {
  RadioManagerParams params;
  params.power_control_enabled = false;
  return params;
}

TEST(RadioManager, JoinLeaveLifecycle) {
  RadioResourceManager manager(quiet_channel(), default_radio());
  EXPECT_TRUE(manager.join(kA, {50.0, 0.0}, 100.0).ok());
  EXPECT_EQ(manager.join(kA, {50.0, 0.0}, 100.0).code(), Errc::conflict);
  EXPECT_EQ(manager.client_count(), 1u);
  EXPECT_TRUE(manager.leave(kA).ok());
  EXPECT_EQ(manager.leave(kA).code(), Errc::no_such_object);
}

TEST(RadioManager, RejectsNonPositivePower) {
  RadioResourceManager manager(quiet_channel(), default_radio());
  EXPECT_EQ(manager.join(kA, {50.0, 0.0}, 0.0).code(), Errc::out_of_range);
}

TEST(RadioManager, GradeThresholdsAreInclusive) {
  EXPECT_EQ(grade_for_sir(4.0), ModalityGrade::full_image);
  EXPECT_EQ(grade_for_sir(3.99), ModalityGrade::text_sketch);
  EXPECT_EQ(grade_for_sir(0.0), ModalityGrade::text_sketch);
  EXPECT_EQ(grade_for_sir(-0.01), ModalityGrade::text_only);
  EXPECT_EQ(grade_for_sir(-6.0), ModalityGrade::text_only);
  EXPECT_EQ(grade_for_sir(-6.01), ModalityGrade::none);
}

TEST(RadioManager, GradeLadderFollowsSir) {
  RadioManagerParams radio = default_radio();
  ChannelParams channel = quiet_channel();
  channel.noise_kappa_db = 60.0;  // appreciable noise so SNR is finite
  RadioResourceManager manager(channel, radio);
  ASSERT_TRUE(manager.join(kA, {10.0, 0.0}, 100.0).ok());
  // Walk the client out until each threshold crossing flips the grade.
  ASSERT_TRUE(manager.move(kA, {10.0, 0.0}).ok());
  EXPECT_EQ(manager.grade(kA).value(), ModalityGrade::full_image);
  double sir_now = manager.sir_db(kA).value();
  EXPECT_GT(sir_now, 4.0);
  // Find a distance where SIR drops between 0 and 4 dB.
  for (double d = 10.0; d < 2000.0; d *= 1.1) {
    ASSERT_TRUE(manager.move(kA, {d, 0.0}).ok());
    const double sir = manager.sir_db(kA).value();
    const ModalityGrade grade = manager.grade(kA).value();
    if (sir >= 4.0) {
      EXPECT_EQ(grade, ModalityGrade::full_image);
    } else if (sir >= 0.0) {
      EXPECT_EQ(grade, ModalityGrade::text_sketch);
    } else if (sir >= -6.0) {
      EXPECT_EQ(grade, ModalityGrade::text_only);
    } else {
      EXPECT_EQ(grade, ModalityGrade::none);
    }
  }
}

TEST(RadioManager, AssessmentReportsDistanceAndGrade) {
  RadioResourceManager manager(quiet_channel(), default_radio());
  ASSERT_TRUE(manager.join(kA, {30.0, 40.0}, 100.0).ok());
  const auto assessment = manager.assess(kA).value();
  EXPECT_NEAR(assessment.distance_m, 50.0, 1e-9);
  EXPECT_GT(assessment.sir_db, 4.0);
  EXPECT_EQ(assessment.grade, ModalityGrade::full_image);
  EXPECT_GT(assessment.path_gain, 0.0);
}

TEST(RadioManager, BalanceEqualizesSirs) {
  RadioManagerParams radio = default_radio();
  radio.power_control_enabled = true;
  radio.power_control.target_sir_db = 7.0;
  radio.power_control.min_power_mw = 0.01;
  ChannelParams cell = quiet_channel();
  cell.noise_kappa_db = 60.0;  // noise anchors the interior solution
  RadioResourceManager manager(cell, radio);
  ASSERT_TRUE(manager.join(kA, {20.0, 0.0}, 900.0).ok());
  ASSERT_TRUE(manager.join(kB, {90.0, 0.0}, 5.0).ok());
  const PowerControlOutcome outcome = manager.balance();
  EXPECT_TRUE(outcome.converged);
  EXPECT_NEAR(manager.sir_db(kA).value(), manager.sir_db(kB).value(), 0.5);
  // State mirror: client states carry the converged powers.
  EXPECT_NEAR(manager.state(kA).value().tx_power_mw,
              manager.channel().transmitter(kA).value().tx_power_mw, 1e-9);
}

TEST(RadioManager, ConserveBatteryLowersOvershooters) {
  RadioManagerParams radio = default_radio();
  radio.power_control.target_sir_db = 4.0;
  radio.power_control.min_power_mw = 0.01;
  radio.conserve_margin_db = 2.0;
  ChannelParams channel = quiet_channel();
  channel.noise_kappa_db = 45.0;
  RadioResourceManager manager(channel, radio);
  ASSERT_TRUE(manager.join(kA, {10.0, 0.0}, 800.0).ok());
  const double sir_before = manager.sir_db(kA).value();
  ASSERT_GT(sir_before, 6.0);  // overshooting
  const std::size_t adjusted = manager.conserve_battery();
  EXPECT_EQ(adjusted, 1u);
  EXPECT_LT(manager.state(kA).value().tx_power_mw, 800.0);
  EXPECT_NEAR(manager.sir_db(kA).value(), 4.0, 0.5);
}

TEST(RadioManager, BatteryDrainsAndSilencesClient) {
  RadioResourceManager manager(quiet_channel(), default_radio());
  BatteryState battery;
  battery.capacity_mwh = 10.0;
  battery.remaining_mwh = 10.0;
  ASSERT_TRUE(manager.join(kA, {10.0, 0.0}, 100.0, battery).ok());
  EXPECT_NE(manager.grade(kA).value(), ModalityGrade::none);
  // 100 mW for 360 s = 10 mWh: exactly drains the battery.
  manager.advance_time(360.0);
  EXPECT_DOUBLE_EQ(manager.state(kA).value().battery.remaining_mwh, 0.0);
  EXPECT_EQ(manager.grade(kA).value(), ModalityGrade::none);
}

TEST(RadioManager, PartialDrainKeepsFraction) {
  RadioResourceManager manager(quiet_channel(), default_radio());
  BatteryState battery;
  battery.capacity_mwh = 100.0;
  battery.remaining_mwh = 100.0;
  ASSERT_TRUE(manager.join(kA, {10.0, 0.0}, 200.0, battery).ok());
  manager.advance_time(900.0);  // 200mW * 0.25h = 50 mWh
  EXPECT_NEAR(manager.state(kA).value().battery.fraction(), 0.5, 1e-9);
}

TEST(ModalityGrade, NamesAreStable) {
  EXPECT_EQ(to_string(ModalityGrade::none), "none");
  EXPECT_EQ(to_string(ModalityGrade::text_only), "text-only");
  EXPECT_EQ(to_string(ModalityGrade::text_sketch), "text+sketch");
  EXPECT_EQ(to_string(ModalityGrade::full_image), "full-image");
}

// Paper §6.3.3: SIR of existing clients degrades as clients join.
TEST(RadioManager, JoiningClientsDegradeExistingSir) {
  RadioResourceManager manager(quiet_channel(), default_radio());
  ASSERT_TRUE(manager.join(kA, {50.0, 0.0}, 100.0).ok());
  const double alone = manager.sir_db(kA).value();
  ASSERT_TRUE(manager.join(kB, {60.0, 0.0}, 100.0).ok());
  const double with_two = manager.sir_db(kA).value();
  ASSERT_TRUE(manager.join(kC, {70.0, 0.0}, 100.0).ok());
  const double with_three = manager.sir_db(kA).value();
  EXPECT_GT(alone, with_two);
  EXPECT_GT(with_two, with_three);
}

}  // namespace
}  // namespace collabqos::wireless
