/**
 * @file
 * Tests of the VSV controller's mode machine against the paper's
 * Figure 2/3 timelines and Section 4 policies.
 */

#include <gtest/gtest.h>

#include <vector>

#include "power/model.hh"
#include "vsv/controller.hh"

namespace vsv
{
namespace
{

VsvConfig
noFsm()
{
    VsvConfig config;
    config.enabled = true;
    config.down = {0, 10};
    config.upPolicy = UpPolicy::FirstR;
    return config;
}

VsvConfig
withFsm()
{
    VsvConfig config;
    config.enabled = true;
    config.down = {3, 10};
    config.upPolicy = UpPolicy::Fsm;
    config.up = {3, 10};
    return config;
}

/** Step helper that tracks the tick cursor. */
struct Stepper
{
    Stepper(const VsvConfig &config)
        : power(), ctrl(config, power.rail(0))
    {
    }

    /** Advance one tick; returns whether the pipeline had an edge. */
    bool
    step(std::uint32_t issued = 0)
    {
        const bool edge = ctrl.beginTick(now);
        if (edge)
            ctrl.observeIssueRate(issued);
        ++now;
        return edge;
    }

    PowerModel power;
    VsvController ctrl;
    Tick now = 0;
};

TEST(VsvControllerTest, DisabledControllerNeverLeavesHigh)
{
    VsvConfig config;
    config.enabled = false;
    Stepper s(config);
    s.ctrl.demandL2MissDetected(0, 1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(s.step(0));
        EXPECT_EQ(s.ctrl.state(), VsvState::High);
        EXPECT_DOUBLE_EQ(s.power.pipelineVdd(), 1.8);
    }
}

TEST(VsvControllerTest, NoFsmDownTimelineMatchesFigure2)
{
    Stepper s(noFsm());
    // Settle a few ticks in High.
    for (int i = 0; i < 5; ++i)
        s.step();

    s.ctrl.demandL2MissDetected(s.now, 1);
    EXPECT_EQ(s.ctrl.state(), VsvState::DownClockDist);

    // 4 ticks of clock distribution: still full speed, still VDDH.
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(s.step());
        EXPECT_DOUBLE_EQ(s.power.pipelineVdd(), 1.8);
    }

    // 12 ticks of ramp at half clock.
    int edges = 0;
    for (int i = 0; i < 12; ++i) {
        if (s.step())
            ++edges;
        EXPECT_EQ(s.ctrl.state(), VsvState::RampDown) << i;
        EXPECT_LT(s.power.pipelineVdd(), 1.8);
    }
    EXPECT_EQ(edges, 6);

    s.step();
    EXPECT_EQ(s.ctrl.state(), VsvState::Low);
    EXPECT_DOUBLE_EQ(s.power.pipelineVdd(), 1.2);
    EXPECT_EQ(s.ctrl.downTransitions(), 1u);
}

TEST(VsvControllerTest, LowModeRunsAtHalfClock)
{
    Stepper s(noFsm());
    s.ctrl.demandL2MissDetected(s.now, 1);
    for (int i = 0; i < 20; ++i)
        s.step();
    ASSERT_EQ(s.ctrl.state(), VsvState::Low);

    int edges = 0;
    for (int i = 0; i < 20; ++i) {
        if (s.step())
            ++edges;
    }
    EXPECT_EQ(edges, 10);
}

TEST(VsvControllerTest, UpTimelineMatchesFigure3)
{
    Stepper s(noFsm());
    s.ctrl.demandL2MissDetected(s.now, 1);
    for (int i = 0; i < 20; ++i)
        s.step();
    ASSERT_EQ(s.ctrl.state(), VsvState::Low);

    // Last outstanding miss returns: up transition starts at once.
    s.ctrl.demandL2MissReturned(s.now, 0);
    EXPECT_EQ(s.ctrl.state(), VsvState::UpClockDist);

    // 2 ticks of control distribution + 12 of ramp, all half clock.
    int edges = 0;
    for (int i = 0; i < 14; ++i) {
        EXPECT_NE(s.ctrl.state(), VsvState::High) << i;
        if (s.step())
            ++edges;
    }
    EXPECT_EQ(edges, 7);

    s.step();
    EXPECT_EQ(s.ctrl.state(), VsvState::High);
    EXPECT_DOUBLE_EQ(s.power.pipelineVdd(), 1.8);
    EXPECT_EQ(s.ctrl.upTransitions(), 1u);
}

TEST(VsvControllerTest, DownFsmRequiresConsecutiveZeroIssue)
{
    Stepper s(withFsm());
    s.ctrl.demandL2MissDetected(s.now, 1);
    EXPECT_EQ(s.ctrl.state(), VsvState::High);  // armed, not fired

    // Two idle cycles, then an issue: streak broken.
    s.step(0);
    s.step(0);
    s.step(4);
    EXPECT_EQ(s.ctrl.state(), VsvState::High);

    // Three idle cycles in a row: fire.
    s.step(0);
    s.step(0);
    s.step(0);
    EXPECT_EQ(s.ctrl.state(), VsvState::DownClockDist);
}

TEST(VsvControllerTest, DownFsmExpiresWhenIlpIsHigh)
{
    Stepper s(withFsm());
    s.ctrl.demandL2MissDetected(s.now, 1);
    for (int i = 0; i < 20; ++i)
        s.step(8);  // issuing every cycle
    EXPECT_EQ(s.ctrl.state(), VsvState::High);
    EXPECT_EQ(s.ctrl.downTransitions(), 0u);
}

TEST(VsvControllerTest, UpFsmFiresOnSustainedIssue)
{
    Stepper s(withFsm());
    s.ctrl.demandL2MissDetected(s.now, 2);
    for (int i = 0; i < 3; ++i)
        s.step(0);  // fire down-FSM
    for (int i = 0; i < 20; ++i)
        s.step(0);
    ASSERT_EQ(s.ctrl.state(), VsvState::Low);

    // A miss returns but another is outstanding: arm the up-FSM.
    s.ctrl.demandL2MissReturned(s.now, 1);
    EXPECT_EQ(s.ctrl.state(), VsvState::Low);

    // Three consecutive issuing half-speed cycles: go up.
    int safety = 0;
    while (s.ctrl.state() == VsvState::Low && safety++ < 20)
        s.step(2);
    EXPECT_EQ(s.ctrl.state(), VsvState::UpClockDist);
}

TEST(VsvControllerTest, UpFsmStaysLowWhenNothingIssues)
{
    Stepper s(withFsm());
    s.ctrl.demandL2MissDetected(s.now, 3);
    for (int i = 0; i < 25; ++i)
        s.step(0);
    ASSERT_EQ(s.ctrl.state(), VsvState::Low);

    s.ctrl.demandL2MissReturned(s.now, 2);
    for (int i = 0; i < 40; ++i)
        s.step(0);
    EXPECT_EQ(s.ctrl.state(), VsvState::Low);
}

TEST(VsvControllerTest, LastReturnAlwaysRaisesEvenUnderLastR)
{
    VsvConfig config = noFsm();
    config.upPolicy = UpPolicy::LastR;
    Stepper s(config);
    s.ctrl.demandL2MissDetected(s.now, 4);
    for (int i = 0; i < 20; ++i)
        s.step();
    ASSERT_EQ(s.ctrl.state(), VsvState::Low);

    // Non-final returns are ignored under Last-R.
    s.ctrl.demandL2MissReturned(s.now, 3);
    EXPECT_EQ(s.ctrl.state(), VsvState::Low);
    s.ctrl.demandL2MissReturned(s.now, 1);
    EXPECT_EQ(s.ctrl.state(), VsvState::Low);
    // The last one raises.
    s.ctrl.demandL2MissReturned(s.now, 0);
    EXPECT_EQ(s.ctrl.state(), VsvState::UpClockDist);
}

TEST(VsvControllerTest, FirstRRaisesOnAnyReturn)
{
    VsvConfig config = noFsm();
    config.upPolicy = UpPolicy::FirstR;
    Stepper s(config);
    s.ctrl.demandL2MissDetected(s.now, 6);
    for (int i = 0; i < 20; ++i)
        s.step();
    ASSERT_EQ(s.ctrl.state(), VsvState::Low);

    s.ctrl.demandL2MissReturned(s.now, 5);
    EXPECT_EQ(s.ctrl.state(), VsvState::UpClockDist);
}

TEST(VsvControllerTest, ReturnDuringDownTransitionReplaysInLow)
{
    Stepper s(noFsm());
    s.ctrl.demandL2MissDetected(s.now, 1);
    s.step();
    ASSERT_EQ(s.ctrl.state(), VsvState::DownClockDist);

    // The miss comes back while we are still ramping down.
    s.ctrl.demandL2MissReturned(s.now, 0);

    // Finish the down transition; on entering Low the pending return
    // immediately starts the up transition.
    int safety = 0;
    while (s.ctrl.state() != VsvState::UpClockDist && safety++ < 40)
        s.step();
    EXPECT_EQ(s.ctrl.state(), VsvState::UpClockDist);
    EXPECT_EQ(s.ctrl.downTransitions(), 1u);
    EXPECT_EQ(s.ctrl.upTransitions(), 1u);
}

TEST(VsvControllerTest, DetectionDuringUpTransitionRearmsInHigh)
{
    Stepper s(noFsm());
    s.ctrl.demandL2MissDetected(s.now, 1);
    for (int i = 0; i < 20; ++i)
        s.step();
    ASSERT_EQ(s.ctrl.state(), VsvState::Low);
    s.ctrl.demandL2MissReturned(s.now, 0);
    ASSERT_EQ(s.ctrl.state(), VsvState::UpClockDist);

    // A new miss is detected while ramping up; with threshold 0 the
    // controller should fall back down right after reaching High.
    s.ctrl.demandL2MissDetected(s.now, 1);
    int safety = 0;
    while (s.ctrl.downTransitions() < 2 && safety++ < 60)
        s.step();
    EXPECT_EQ(s.ctrl.downTransitions(), 2u);
}

TEST(VsvControllerTest, ReplayUnderLastRWaitsForTheLastReturn)
{
    // A non-final return that arrives mid-down-transition is replayed
    // on entering Low; under Last-R it must NOT raise until the last
    // outstanding miss actually returns.
    VsvConfig config = noFsm();
    config.upPolicy = UpPolicy::LastR;
    Stepper s(config);
    s.ctrl.demandL2MissDetected(s.now, 2);
    s.step();
    ASSERT_EQ(s.ctrl.state(), VsvState::DownClockDist);

    // One of the two misses returns while still transitioning down.
    s.ctrl.demandL2MissReturned(s.now, 1);

    // The replay on entering Low sees outstanding > 0 and stays put.
    for (int i = 0; i < 40; ++i)
        s.step(2);
    EXPECT_EQ(s.ctrl.state(), VsvState::Low);
    EXPECT_EQ(s.ctrl.upTransitions(), 0u);

    // The genuine last return raises immediately.
    s.ctrl.demandL2MissReturned(s.now, 0);
    EXPECT_EQ(s.ctrl.state(), VsvState::UpClockDist);
}

TEST(VsvControllerTest, ReplayUnderFsmArmsTheUpMonitor)
{
    // Same replay situation under the FSM policy: entering Low must
    // arm the up-FSM, which then fires after the usual threshold of
    // consecutive issuing half-speed cycles.
    Stepper s(withFsm());
    s.ctrl.demandL2MissDetected(s.now, 2);
    for (int i = 0; i < 3; ++i)
        s.step(0);  // fire the down-FSM
    ASSERT_EQ(s.ctrl.state(), VsvState::DownClockDist);

    s.ctrl.demandL2MissReturned(s.now, 1);

    // Issue on every half-speed cycle: once Low, three qualifying
    // cycles raise the supply even though one miss is outstanding.
    int safety = 0;
    while (s.ctrl.state() != VsvState::UpClockDist && safety++ < 60)
        s.step(2);
    EXPECT_EQ(s.ctrl.state(), VsvState::UpClockDist);
    EXPECT_EQ(s.ctrl.downTransitions(), 1u);
    EXPECT_EQ(s.ctrl.upTransitions(), 1u);
}

TEST(VsvControllerTest, QuarterRateClockDividerSlowsLowMode)
{
    // The low-mode clock rate follows the configured divider rather
    // than a hard-coded half rate.
    VsvConfig config = noFsm();
    config.clockDivider = 4;
    Stepper s(config);
    s.ctrl.demandL2MissDetected(s.now, 1);
    for (int i = 0; i < 30; ++i)
        s.step();
    ASSERT_EQ(s.ctrl.state(), VsvState::Low);

    int edges = 0;
    for (int i = 0; i < 40; ++i) {
        if (s.step())
            ++edges;
    }
    EXPECT_EQ(edges, 10);
}

TEST(VsvControllerTest, RampChargesDualRailEnergy)
{
    Stepper s(noFsm());
    s.ctrl.demandL2MissDetected(s.now, 1);
    for (int i = 0; i < 20; ++i)
        s.step();
    ASSERT_EQ(s.ctrl.state(), VsvState::Low);
    EXPECT_DOUBLE_EQ(s.power.rampEnergyPj(), 66000.0);

    s.ctrl.demandL2MissReturned(s.now, 0);
    for (int i = 0; i < 20; ++i)
        s.step();
    EXPECT_DOUBLE_EQ(s.power.rampEnergyPj(), 2 * 66000.0);
}

TEST(VsvControllerTest, PrefetchMissesDoNotTriggerAnything)
{
    // The hierarchy never calls the listener for prefetch misses, so
    // this is a contract test at the controller level: only the two
    // listener methods can change the mode.
    Stepper s(withFsm());
    for (int i = 0; i < 50; ++i)
        s.step(0);
    EXPECT_EQ(s.ctrl.state(), VsvState::High);
    EXPECT_EQ(s.ctrl.downTransitions(), 0u);
}

TEST(VsvControllerTest, StateTicksAccounting)
{
    Stepper s(noFsm());
    for (int i = 0; i < 10; ++i)
        s.step();
    s.ctrl.demandL2MissDetected(s.now, 1);
    for (int i = 0; i < 30; ++i)
        s.step();

    EXPECT_EQ(s.ctrl.ticksInState(VsvState::High), 10u);
    EXPECT_EQ(s.ctrl.ticksInState(VsvState::DownClockDist), 4u);
    EXPECT_EQ(s.ctrl.ticksInState(VsvState::RampDown), 12u);
    EXPECT_EQ(s.ctrl.ticksInState(VsvState::Low), 14u);
}

} // namespace
} // namespace vsv
