/**
 * @file
 * Parameterized invariants of the VSV controller under randomized
 * miss traffic, across the threshold/policy space of Figures 5 and 6.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/random.hh"
#include "power/model.hh"
#include "vsv/controller.hh"

namespace vsv
{
namespace
{

using Params = std::tuple<std::uint32_t /*down thr*/,
                          std::uint32_t /*up thr*/, int /*up policy*/>;

class ControllerPropertyTest : public ::testing::TestWithParam<Params>
{
};

TEST_P(ControllerPropertyTest, InvariantsUnderRandomTraffic)
{
    const auto [down_thr, up_thr, policy] = GetParam();
    VsvConfig config;
    config.enabled = true;
    config.down = {down_thr, 10};
    config.up = {up_thr, 10};
    config.upPolicy = static_cast<UpPolicy>(policy);

    PowerModel power;
    VsvController ctrl(config, power.rail(0));
    Rng rng(down_thr * 131 + up_thr * 17 + policy);

    std::uint32_t outstanding = 0;
    std::uint64_t edges = 0;
    std::uint64_t full_speed_ticks = 0;

    for (Tick now = 0; now < 20000; ++now) {
        // Random demand miss traffic.
        if (rng.chance(0.02)) {
            ++outstanding;
            ctrl.demandL2MissDetected(now, outstanding);
        }
        if (outstanding > 0 && rng.chance(0.015)) {
            --outstanding;
            ctrl.demandL2MissReturned(now, outstanding);
        }

        const bool edge = ctrl.beginTick(now);
        if (edge) {
            ++edges;
            ctrl.observeIssueRate(rng.nextBounded(3) == 0 ? 0 : 4);
        }

        // Invariant: VDD always within the rail bounds.
        ASSERT_GE(power.pipelineVdd(), 1.2 - 1e-9);
        ASSERT_LE(power.pipelineVdd(), 1.8 + 1e-9);

        // Invariant: full speed implies VDDH (never fast clock at
        // low voltage - the paper's functionality-fault rule).
        const bool full_speed = ctrl.state() == VsvState::High ||
                                ctrl.state() == VsvState::DownClockDist;
        if (full_speed) {
            ++full_speed_ticks;
            ASSERT_DOUBLE_EQ(power.pipelineVdd(), 1.8);
        }

        // Invariant: in stable Low, voltage is VDDL.
        if (ctrl.state() == VsvState::Low) {
            ASSERT_DOUBLE_EQ(power.pipelineVdd(), 1.2);
        }
    }

    // Invariant: half-clocked stretches carry edges at half rate.
    // Each down transition may re-phase the divider (one extra edge),
    // so the bound is per-transition, not exact.
    const std::uint64_t downs = ctrl.downTransitions();
    const std::uint64_t ups = ctrl.upTransitions();
    const std::uint64_t half_ticks = 20000 - full_speed_ticks;
    const double expected =
        static_cast<double>(full_speed_ticks) +
        static_cast<double>(half_ticks) / 2.0;
    EXPECT_GE(static_cast<double>(edges), expected - 2.0);
    EXPECT_LE(static_cast<double>(edges),
              expected + static_cast<double>(downs + ups) + 2.0);

    // Invariant: transitions pair up (within one in-flight).
    EXPECT_LE(ups, downs);
    EXPECT_LE(downs - ups, 1u);

    // Invariant: ramp energy = 66 nJ per transition.
    EXPECT_DOUBLE_EQ(power.rampEnergyPj(), 66000.0 * (downs + ups));
}

INSTANTIATE_TEST_SUITE_P(
    ThresholdSpace, ControllerPropertyTest,
    ::testing::Combine(::testing::Values(0u, 1u, 3u, 5u),
                       ::testing::Values(1u, 3u, 5u),
                       ::testing::Values(0, 1, 2)));  // Fsm/FirstR/LastR

TEST(ControllerStressTest, NeverWedgesInLowForever)
{
    // With returns eventually draining, the controller must always
    // come back to High (the single-miss rule guarantees it).
    VsvConfig config;
    config.enabled = true;
    config.down = {0, 10};
    config.upPolicy = UpPolicy::LastR;
    PowerModel power;
    VsvController ctrl(config, power.rail(0));

    ctrl.demandL2MissDetected(0, 3);
    Tick now = 0;
    for (; now < 100; ++now)
        ctrl.beginTick(now);
    ASSERT_EQ(ctrl.state(), VsvState::Low);

    // Returns drain one at a time.
    ctrl.demandL2MissReturned(now, 2);
    ctrl.demandL2MissReturned(now, 1);
    ctrl.demandL2MissReturned(now, 0);
    for (; now < 200; ++now)
        ctrl.beginTick(now);
    EXPECT_EQ(ctrl.state(), VsvState::High);
}

} // namespace
} // namespace vsv
