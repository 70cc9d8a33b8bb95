/**
 * @file
 * Tests of the voltage-aware power model.
 */

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

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

/** A fixed mix of accesses and ticks, including an idle bank. */
void
chargeSequence(PowerModel &pm)
{
    pm.recordAccess(PowerStructure::IntAlu);
    pm.recordAccess(PowerStructure::RuuCam, 3.0);
    pm.recordAccess(PowerStructure::LevelConverters, 2.0);
    pm.recordAccess(PowerStructure::RegFile, 2.0);
    pm.tick(true);
    pm.tick(false);
    pm.accrueIdleTicks(7, 5);
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

TEST(PowerModelTest, UncountedLedgerChargesIdentically)
{
    // A ledger that stopped keeping its per-structure access counts
    // charges every access and closes every tick exactly as one that
    // keeps them; only snapshot(), which reads the counts, is gone.
    PowerModelConfig config;
    config.leakageFraction = 0.05;
    PowerModel counted(config);
    PowerModel uncounted(config);
    uncounted.stopCountingAccesses();
    for (PowerModel *pm : {&counted, &uncounted}) {
        for (const double vdd : {1.8, 1.62, 1.53, 1.2, 1.44, 1.8}) {
            pm->setLowPowerPath(vdd < 1.7);
            pm->setPipelineVdd(vdd);
            chargeSequence(*pm);
            pm->recordAccess(PowerStructure::RegFile, 5);
            pm->tick(true);
        }
    }
    expectSameEnergy(counted, uncounted);
    StatRegistry a, b;
    counted.regStats(a, "power");
    uncounted.regStats(b, "power");
    EXPECT_EQ(a.scalarMap(), b.scalarMap());
    SnapshotWriter writer("power");
    counted.snapshot(writer);
    EXPECT_DEATH(uncounted.snapshot(writer), "stopCountingAccesses");
}

/** Bit pattern of a double, so EXPECT_EQ tells -0.0 from 0.0. */
std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

TEST(PowerModelTest, LedgerRailsMatchIndependentModels)
{
    // One seeded call sequence fed to a six-rail ledger and to six
    // one-rail models of the same configs: every rail must land on
    // its model's doubles, read through every getter at random points
    // (each flushing only its own rail), peeked mid-bank, and dumped
    // through the registered scalars at the end.
    std::vector<PowerModelConfig> configs(6);
    configs[0].gating = GatingStyle::None;
    configs[1].gating = GatingStyle::Simple;
    configs[1].leakageFraction = 0.05;
    configs[2].gating = GatingStyle::Dcg;
    configs[2].converterHighModeFactor = 0.75;
    configs[3].gating = GatingStyle::Ideal;
    configs[3].leakageFraction = 0.2;
    configs[4].gating = GatingStyle::Dcg;
    configs[4].leakageFraction = 0.05;
    configs[4].rampEnergyPj = 30000.0;
    configs[5].gating = GatingStyle::Ideal;
    const std::size_t rails = configs.size();

    PowerModel ledger(configs);
    ASSERT_EQ(ledger.railCount(), rails);
    std::vector<std::unique_ptr<PowerModel>> models;
    for (const PowerModelConfig &config : configs)
        models.push_back(std::make_unique<PowerModel>(config));

    // A ramp's per-tick voltages, revisited many times, plus fresh
    // off-grid ones: together more than one rail's charge-row cache.
    std::vector<double> ramp;
    for (int step = 0; step <= 24; ++step)
        ramp.push_back(1.8 - 0.025 * step);

    std::mt19937_64 rng(20031203);
    auto below = [&rng](std::uint64_t n) { return rng() % n; };
    bool open = false;  // accesses recorded since the last tick
    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t op = below(100);
        if (op < 40) {
            static constexpr std::uint32_t counts[] = {1, 1, 1, 2, 2, 3,
                                                       4, 5, 7, 8, 12};
            const auto s =
                static_cast<PowerStructure>(below(numPowerStructures));
            const std::uint32_t count = counts[below(std::size(counts))];
            ledger.recordAccess(s, count);
            for (auto &model : models)
                model->recordAccess(s, count);
            open = true;
        } else if (op < 65) {
            const bool edge = below(3) != 0;
            ledger.tick(edge);
            for (auto &model : models)
                model->tick(edge);
            open = false;
        } else if (op < 70 && !open) {
            const std::uint64_t edges = below(40);
            const std::uint64_t no_edges = below(40);
            ledger.accrueIdleTicks(edges, no_edges);
            for (auto &model : models)
                model->accrueIdleTicks(edges, no_edges);
        } else if (op < 80) {
            // A new supply on some rails only.
            const double vdd =
                below(4) == 0
                    ? 1.2 + 0.6 * static_cast<double>(below(1000)) / 999.0
                    : ramp[below(ramp.size())];
            for (std::size_t r = 0; r < rails; ++r) {
                if (below(2) == 0)
                    continue;
                ledger.setPipelineVdd(vdd, r);
                models[r]->setPipelineVdd(vdd);
            }
        } else if (op < 85) {
            const std::size_t r = below(rails);
            const bool low = below(2) == 0;
            ledger.setLowPowerPath(low, r);
            models[r]->setLowPowerPath(low);
        } else if (op < 87) {
            const std::size_t r = below(rails);
            ledger.addRampEnergy(static_cast<Tick>(step), r);
            models[r]->addRampEnergy(static_cast<Tick>(step));
        } else if (op < 92) {
            const std::size_t r = below(rails);
            ASSERT_EQ(bits(ledger.peekTotalEnergyPj(r)),
                      bits(models[r]->peekTotalEnergyPj()))
                << "rail " << r << " step " << step;
        } else {
            // One getter on one rail: it flushes that rail alone.
            const std::size_t r = below(rails);
            const PowerModel &model = *models[r];
            const auto s =
                static_cast<PowerStructure>(below(numPowerStructures));
            switch (below(6)) {
              case 0:
                ASSERT_EQ(bits(ledger.structureEnergyPj(s, r)),
                          bits(model.structureEnergyPj(s)));
                break;
              case 1:
                ASSERT_EQ(bits(ledger.totalEnergyPj(r)),
                          bits(model.totalEnergyPj()));
                break;
              case 2:
                ASSERT_EQ(bits(ledger.leakageEnergyPj(r)),
                          bits(model.leakageEnergyPj()));
                break;
              case 3:
                ASSERT_EQ(bits(ledger.domainEnergyPj(VoltageDomain::Scaled,
                                                     r)),
                          bits(model.domainEnergyPj(VoltageDomain::Scaled)));
                break;
              case 4:
                ASSERT_EQ(bits(ledger.averagePowerW(1000, r)),
                          bits(model.averagePowerW(1000)));
                break;
              default:
                ASSERT_EQ(bits(ledger.rampEnergyPj(r)),
                          bits(model.rampEnergyPj()));
                ASSERT_EQ(ledger.pipelineVdd(r), model.pipelineVdd());
                break;
            }
        }
    }

    ledger.flushIdle();
    for (std::size_t r = 0; r < rails; ++r) {
        const PowerModel &model = *models[r];
        model.flushIdle();
        StatRegistry from_ledger;
        StatRegistry from_model;
        ledger.regStats(from_ledger, "power", r);
        model.regStats(from_model, "power");
        const std::map<std::string, double> got = from_ledger.scalarMap();
        const std::map<std::string, double> want = from_model.scalarMap();
        ASSERT_EQ(got.size(), want.size());
        for (const auto &[name, value] : want) {
            ASSERT_TRUE(got.contains(name)) << name;
            EXPECT_EQ(bits(got.at(name)), bits(value))
                << "rail " << r << " " << name;
        }
        EXPECT_EQ(bits(ledger.totalEnergyPj(r)),
                  bits(model.totalEnergyPj()));
        EXPECT_GT(model.totalEnergyPj(), 0.0);
    }
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
