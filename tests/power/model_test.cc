/**
 * @file
 * Tests of the voltage-aware power model.
 */

#include <array>
#include <span>

#include <gtest/gtest.h>

#include "power/model.hh"
#include "snapshot/snapshot.hh"

namespace vsv
{
namespace
{

TEST(PowerStructuresTest, TableIsComplete)
{
    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        const auto s = static_cast<PowerStructure>(i);
        const StructureParams &params = structureParams(s);
        EXPECT_FALSE(params.name.empty());
        EXPECT_GT(params.accessPj, 0.0) << params.name;
        EXPECT_GT(params.maxCyclePj, 0.0) << params.name;
    }
}

TEST(PowerModelTest, AccessEnergyScalesWithVddSquared)
{
    PowerModel pm;
    pm.setPipelineVdd(1.8);
    pm.recordAccess(PowerStructure::IntAlu);
    const double high = pm.structureEnergyPj(PowerStructure::IntAlu);

    PowerModel pm_low;
    pm_low.setPipelineVdd(1.2);
    pm_low.recordAccess(PowerStructure::IntAlu);
    const double low = pm_low.structureEnergyPj(PowerStructure::IntAlu);

    EXPECT_NEAR(low / high, (1.2 * 1.2) / (1.8 * 1.8), 1e-12);
}

TEST(PowerModelTest, FixedDomainIgnoresPipelineVdd)
{
    PowerModel pm;
    pm.setPipelineVdd(1.2);
    pm.recordAccess(PowerStructure::L1DCache);
    const double low_vdd = pm.structureEnergyPj(PowerStructure::L1DCache);

    PowerModel pm2;
    pm2.setPipelineVdd(1.8);
    pm2.recordAccess(PowerStructure::L1DCache);
    EXPECT_DOUBLE_EQ(low_vdd,
                     pm2.structureEnergyPj(PowerStructure::L1DCache));
}

TEST(PowerModelTest, ClockTreeChargesOnlyOnPipelineEdges)
{
    PowerModel pm;
    pm.tick(true);
    const double one_edge = pm.structureEnergyPj(PowerStructure::ClockTree);
    EXPECT_GT(one_edge, 0.0);
    pm.tick(false);
    EXPECT_DOUBLE_EQ(pm.structureEnergyPj(PowerStructure::ClockTree),
                     one_edge);
    pm.tick(true);
    EXPECT_NEAR(pm.structureEnergyPj(PowerStructure::ClockTree),
                2 * one_edge, 1e-9);
}

TEST(PowerModelTest, HalfClockHalvesClockEnergyPerWallTime)
{
    // Two ticks at full speed vs two ticks at half speed (one edge).
    PowerModel full;
    full.tick(true);
    full.tick(true);

    PowerModel half;
    half.tick(true);
    half.tick(false);

    EXPECT_NEAR(half.structureEnergyPj(PowerStructure::ClockTree) /
                    full.structureEnergyPj(PowerStructure::ClockTree),
                0.5, 1e-12);
}

TEST(PowerModelTest, GatingStylesOrderIdlePower)
{
    // For any structure: None >= Simple >= Dcg >= Ideal idle energy.
    double idle[4];
    const GatingStyle styles[] = {GatingStyle::None, GatingStyle::Simple,
                                  GatingStyle::Dcg, GatingStyle::Ideal};
    for (int i = 0; i < 4; ++i) {
        PowerModelConfig config;
        config.gating = styles[i];
        PowerModel pm(config);
        pm.tick(true);
        idle[i] = pm.structureEnergyPj(PowerStructure::IntAlu);
    }
    EXPECT_GT(idle[0], idle[1]);
    EXPECT_GT(idle[1], idle[2]);
    EXPECT_GT(idle[2], idle[3]);
    EXPECT_DOUBLE_EQ(idle[3], 0.0);
    // None burns a full busy cycle.
    EXPECT_DOUBLE_EQ(idle[0],
                     structureParams(PowerStructure::IntAlu).maxCyclePj);
}

TEST(PowerModelTest, DcgCutsGateableIdlePower)
{
    PowerModelConfig gated;
    gated.gating = GatingStyle::Dcg;
    PowerModelConfig ungated;
    ungated.gating = GatingStyle::Simple;

    PowerModel with_dcg(gated), without_dcg(ungated);
    with_dcg.tick(true);
    without_dcg.tick(true);

    // IntAlu is DCG-gateable: idle power should be much lower.
    EXPECT_LT(with_dcg.structureEnergyPj(PowerStructure::IntAlu),
              0.2 * without_dcg.structureEnergyPj(PowerStructure::IntAlu));
    // FetchLogic is not gateable: identical idle power.
    EXPECT_DOUBLE_EQ(
        with_dcg.structureEnergyPj(PowerStructure::FetchLogic),
        without_dcg.structureEnergyPj(PowerStructure::FetchLogic));
}

TEST(PowerModelTest, ActiveStructuresPayAccessNotIdle)
{
    PowerModel pm;
    pm.recordAccess(PowerStructure::FetchLogic, 2);
    const double after_access =
        pm.structureEnergyPj(PowerStructure::FetchLogic);
    pm.tick(true);
    // No idle top-up for an active structure.
    EXPECT_DOUBLE_EQ(pm.structureEnergyPj(PowerStructure::FetchLogic),
                     after_access);
}

TEST(PowerModelTest, L2IdlesOnEveryTickEvenWithoutPipelineEdge)
{
    PowerModel pm;
    pm.tick(false);
    EXPECT_GT(pm.structureEnergyPj(PowerStructure::L2Cache), 0.0);
    // The (half-clocked) L1 does not idle-burn on a no-edge tick.
    EXPECT_DOUBLE_EQ(pm.structureEnergyPj(PowerStructure::L1ICache), 0.0);
}

TEST(PowerModelTest, RampEnergyAccumulates)
{
    PowerModel pm;
    pm.addRampEnergy();
    pm.addRampEnergy();
    EXPECT_DOUBLE_EQ(pm.rampEnergyPj(), 2 * 66000.0);
    EXPECT_GE(pm.totalEnergyPj(), 2 * 66000.0);
}

TEST(PowerModelTest, LevelConverterLatchSelection)
{
    PowerModel pm;
    pm.setLowPowerPath(false);
    pm.recordAccess(PowerStructure::LevelConverters);
    const double regular =
        pm.structureEnergyPj(PowerStructure::LevelConverters);

    PowerModel pm2;
    pm2.setLowPowerPath(true);
    pm2.recordAccess(PowerStructure::LevelConverters);
    const double converting =
        pm2.structureEnergyPj(PowerStructure::LevelConverters);

    // The level-converting set is the more expensive one.
    EXPECT_GT(converting, regular);
}

TEST(PowerModelTest, AveragePowerConversion)
{
    PowerModel pm;
    pm.addRampEnergy();  // 66,000 pJ
    // 66,000 pJ over 66 ns = 1,000 pJ/ns = 1 W.
    EXPECT_NEAR(pm.averagePowerW(66), 1.0, 1e-9);
}

TEST(PowerModelTest, DomainEnergySplit)
{
    PowerModel pm;
    pm.recordAccess(PowerStructure::IntAlu);
    pm.recordAccess(PowerStructure::L2Cache);
    EXPECT_GT(pm.domainEnergyPj(VoltageDomain::Scaled), 0.0);
    EXPECT_GT(pm.domainEnergyPj(VoltageDomain::Fixed), 0.0);
    EXPECT_NEAR(pm.domainEnergyPj(VoltageDomain::Scaled) +
                    pm.domainEnergyPj(VoltageDomain::Fixed),
                pm.totalEnergyPj(), 1e-9);
}

TEST(PowerModelTest, OutOfRangeVddDies)
{
    PowerModel pm;
    EXPECT_DEATH(pm.setPipelineVdd(0.5), "VDD");
    EXPECT_DEATH(pm.setPipelineVdd(2.5), "VDD");
}

TEST(PowerModelTest, AccrueIdleTicksMatchesPerTickIdleLoop)
{
    // One batched call must land on the exact same doubles as the
    // equivalent per-tick loop - the fast-forward's correctness
    // argument depends on it. Leakage enabled to cover that term too.
    PowerModelConfig config;
    config.leakageFraction = 0.05;
    PowerModel batched(config);
    PowerModel stepped(config);
    batched.setPipelineVdd(1.2);
    stepped.setPipelineVdd(1.2);

    batched.accrueIdleTicks(/*edges=*/37, /*no_edges=*/63);
    for (int i = 0; i < 100; ++i)
        stepped.tick(/*pipeline_edge=*/i % 2 == 0 && i < 74);
    // 37 edges + 63 no-edge ticks; order is irrelevant for idle ticks.

    EXPECT_DOUBLE_EQ(batched.totalEnergyPj(), stepped.totalEnergyPj());
    EXPECT_DOUBLE_EQ(batched.leakageEnergyPj(),
                     stepped.leakageEnergyPj());
    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        const auto s = static_cast<PowerStructure>(i);
        EXPECT_DOUBLE_EQ(batched.structureEnergyPj(s),
                         stepped.structureEnergyPj(s))
            << structureParams(s).name;
    }
}

TEST(PowerModelTest, IdleBankFlushesAtVoltageBoundary)
{
    // Idle ticks banked before a VDD change must be charged at the
    // old voltage, matching the per-tick sequence around a ramp.
    PowerModel batched;
    PowerModel stepped;
    batched.setPipelineVdd(1.8);
    stepped.setPipelineVdd(1.8);

    batched.accrueIdleTicks(10, 0);
    for (int i = 0; i < 10; ++i)
        stepped.tick(true);

    batched.setPipelineVdd(1.2);
    stepped.setPipelineVdd(1.2);

    batched.accrueIdleTicks(4, 4);
    for (int i = 0; i < 8; ++i)
        stepped.tick(i % 2 == 0);

    EXPECT_DOUBLE_EQ(batched.totalEnergyPj(), stepped.totalEnergyPj());
    EXPECT_DOUBLE_EQ(batched.domainEnergyPj(VoltageDomain::Scaled),
                     stepped.domainEnergyPj(VoltageDomain::Scaled));
    EXPECT_DOUBLE_EQ(batched.domainEnergyPj(VoltageDomain::Fixed),
                     stepped.domainEnergyPj(VoltageDomain::Fixed));
}

TEST(PowerModelTest, IdleBankFlushesBeforeActiveTick)
{
    // An access-carrying tick after banked idle ticks: both orders of
    // bookkeeping (bank-then-flush vs plain per-tick) must agree.
    PowerModel batched;
    PowerModel stepped;

    batched.accrueIdleTicks(5, 0);
    batched.recordAccess(PowerStructure::IntAlu);
    batched.tick(true);

    for (int i = 0; i < 5; ++i)
        stepped.tick(true);
    stepped.recordAccess(PowerStructure::IntAlu);
    stepped.tick(true);

    EXPECT_DOUBLE_EQ(batched.totalEnergyPj(), stepped.totalEnergyPj());
    EXPECT_DOUBLE_EQ(batched.structureEnergyPj(PowerStructure::IntAlu),
                     stepped.structureEnergyPj(PowerStructure::IntAlu));
}

/**
 * A fixed mix of accesses and ticks, including an idle bank. Idle
 * banking does not fan out, so a lockstep leader passes its followers
 * to bank alongside it, as the lockstep executor does.
 */
void
chargeSequence(PowerModel &pm, std::span<PowerModel> followers = {})
{
    pm.recordAccess(PowerStructure::IntAlu);
    pm.recordAccess(PowerStructure::RuuCam, 3.0);
    pm.recordAccess(PowerStructure::LevelConverters, 2.0);
    pm.recordAccess(PowerStructure::RegFile, 2.0);
    pm.tick(true);
    pm.tick(false);
    pm.accrueIdleTicks(7, 5);
    for (PowerModel &follower : followers)
        follower.accrueIdleTicks(7, 5);
    pm.recordAccess(PowerStructure::LsqCam);
    pm.recordAccess(PowerStructure::PipelineLatches);
    pm.tick(true);
}

void
expectSameEnergy(const PowerModel &a, const PowerModel &b)
{
    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        const auto s = static_cast<PowerStructure>(i);
        EXPECT_EQ(a.structureEnergyPj(s), b.structureEnergyPj(s))
            << structureParams(s).name;
    }
    EXPECT_EQ(a.leakageEnergyPj(), b.leakageEnergyPj());
    EXPECT_EQ(a.totalEnergyPj(), b.totalEnergyPj());
}

TEST(PowerModelTest, RestoreAtMidRampVddChargesBitIdentically)
{
    // Snapshot mid-ramp: the restored model must charge at the saved
    // VDD, not at the VDDH it was constructed with, even though the
    // next setPipelineVdd() pushes an unchanged value.
    PowerModelConfig config;
    config.leakageFraction = 0.05;
    PowerModel live(config);
    live.setLowPowerPath(true);
    live.setPipelineVdd(1.62);
    chargeSequence(live);
    live.setPipelineVdd(1.53);
    live.recordAccess(PowerStructure::FetchLogic);

    SnapshotWriter writer("power");
    live.snapshot(writer);
    const SnapshotBytes bytes = writer.finish();

    PowerModel restored(config);
    SnapshotReader reader(bytes.view());
    restored.restore(reader);
    EXPECT_EQ(restored.pipelineVdd(), 1.53);

    for (PowerModel *pm : {&live, &restored}) {
        pm->setPipelineVdd(1.53);
        pm->tick(true);
        chargeSequence(*pm);
        pm->setPipelineVdd(1.44);
        chargeSequence(*pm);
    }
    expectSameEnergy(live, restored);
}

TEST(PowerModelTest, LockstepFollowersChargeAtTheirOwnVdd)
{
    // A leader fans accesses out to two followers; each follower must
    // land on the doubles of a serial model run at its own VDD.
    PowerModel leader;
    std::array<PowerModel, 2> followers;
    PowerModel &follower_a = followers[0];
    PowerModel &follower_b = followers[1];
    leader.setFanout(followers);

    PowerModel serial_leader;
    PowerModel serial_a;
    PowerModel serial_b;

    const double vdds[][3] = {
        {1.8, 1.2, 1.53}, {1.71, 1.2, 1.8}, {1.53, 1.47, 1.2}};
    for (const auto &v : vdds) {
        leader.setPipelineVdd(v[0]);
        follower_a.setPipelineVdd(v[1]);
        follower_b.setPipelineVdd(v[2]);
        serial_leader.setPipelineVdd(v[0]);
        serial_a.setPipelineVdd(v[1]);
        serial_b.setPipelineVdd(v[2]);

        chargeSequence(leader, followers);
        chargeSequence(serial_leader);
        chargeSequence(serial_a);
        chargeSequence(serial_b);
    }
    leader.setFanout({});

    expectSameEnergy(leader, serial_leader);
    expectSameEnergy(follower_a, serial_a);
    expectSameEnergy(follower_b, serial_b);
}

TEST(PowerModelTest, AccessChargeKeepsItsProductOrder)
{
    // energy += count * per_access * vsq, left to right. Folding
    // per_access * vsq into one constant rounds differently unless
    // count is a power of two.
    const double vsq = (1.53 * 1.53) / (1.8 * 1.8);  // (V*V)/VDDH^2

    PowerModel converters;
    converters.setLowPowerPath(false);
    converters.setPipelineVdd(1.53);
    converters.recordAccess(PowerStructure::LevelConverters, 2.0);
    EXPECT_EQ(converters.structureEnergyPj(PowerStructure::LevelConverters),
              (2.0 * (180.0 * 0.5)) * vsq);

    PowerModel cam;
    cam.setPipelineVdd(1.53);
    cam.recordAccess(PowerStructure::RuuCam, 3.0);
    const double left_to_right = (3.0 * 1800.0) * vsq;
    const double folded = 3.0 * (1800.0 * vsq);
    ASSERT_NE(left_to_right, folded) << "pick a count/VDD that tells";
    EXPECT_EQ(cam.structureEnergyPj(PowerStructure::RuuCam), left_to_right);
}

/**
 * Check `pm`'s per-structure charges at pipeline VDD `vdd` with the
 * latch path `low`, against the uncached products: one access adds
 * (1 * per_access) * vsq, and an access-carrying tick on which the
 * structure idles adds idleBasePj * vsq (default config: DCG gating).
 */
void
expectChargesAt(PowerModel &pm, double vdd, bool low)
{
    const PowerModelConfig &config = pm.config();
    const double vsq = (vdd * vdd) / (config.vddHigh * config.vddHigh);
    for (std::size_t i = 0; i < numPowerStructures; ++i) {
        const auto s = static_cast<PowerStructure>(i);
        const StructureParams &params = structureParams(s);
        const double domain_vsq =
            params.domain == VoltageDomain::Fixed ? 1.0 : vsq;
        double per_access = params.accessPj;
        if (s == PowerStructure::LevelConverters && !low)
            per_access *= config.converterHighModeFactor;
        double idle_base = params.maxCyclePj;
        if (s != PowerStructure::ClockTree) {
            idle_base *= config.idleFraction;
            if (params.dcgGateable)
                idle_base *= 1.0 - config.gatingEfficiency;
        }

        const double before_access = pm.structureEnergyPj(s);
        pm.recordAccess(s, 1);
        EXPECT_EQ(pm.structureEnergyPj(s),
                  before_access + (1 * per_access) * domain_vsq)
            << params.name << " at " << vdd << (low ? " low" : " high");
        pm.tick(true);

        // An active tick that accesses some other structure.
        const double before_idle = pm.structureEnergyPj(s);
        pm.recordAccess(s == PowerStructure::FetchLogic
                            ? PowerStructure::RenameLogic
                            : PowerStructure::FetchLogic);
        pm.tick(true);
        EXPECT_EQ(pm.structureEnergyPj(s),
                  before_idle + idle_base * domain_vsq)
            << params.name << " idle at " << vdd << (low ? " low" : " high");
    }
}

TEST(PowerModelTest, CachedChargesFollowVddLatchPathAndRestore)
{
    // A full 1.8 V -> 1.2 V ramp in 24 steps of 25 mV, flipping the
    // latch path along the way, with a snapshot/restore mid-ramp while
    // the level-converting latches are selected. The restored model is
    // checked before any setter could refresh its charges.
    PowerModel live;
    expectChargesAt(live, 1.8, false);
    bool low = false;
    for (int step = 1; step <= 24; ++step) {
        const double vdd = 1.8 - 0.025 * step;
        if (step % 5 == 1)
            low = !low;
        live.setLowPowerPath(low);
        live.setPipelineVdd(vdd);
        live.setLowPowerPath(low);  // repeated every tick: no change
        expectChargesAt(live, vdd, low);

        if (step == 12) {
            ASSERT_TRUE(low);
            SnapshotWriter writer("power");
            live.snapshot(writer);
            const SnapshotBytes bytes = writer.finish();
            PowerModel restored;
            SnapshotReader reader(bytes.view());
            restored.restore(reader);
            expectChargesAt(restored, vdd, true);
            restored.setPipelineVdd(vdd - 0.0125);
            expectChargesAt(restored, vdd - 0.0125, true);
            restored.setLowPowerPath(false);
            expectChargesAt(restored, vdd - 0.0125, false);
        }
    }
}

} // namespace
} // namespace vsv
