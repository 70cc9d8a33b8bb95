/**
 * @file
 * Tests of the Time-Keeping prefetch engine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/random.hh"
#include "power/model.hh"
#include "prefetch/timekeeping.hh"
#include "snapshot/snapshot.hh"
#include "stats/stats.hh"

namespace vsv
{
namespace
{

/** Captures issued prefetch addresses. */
class RecordingIssuer : public PrefetchIssuer
{
  public:
    void
    issueHardwarePrefetch(Addr addr, Tick) override
    {
        issued.push_back(addr);
    }

    std::vector<Addr> issued;
};

CacheConfig
l1dGeom()
{
    return {"l1d", 64 * 1024, 2, 32, 2};
}

class TimekeepingTest : public ::testing::Test
{
  protected:
    TimekeepingTest()
        : power(), tk(TimekeepingConfig{}, l1dGeom(), power)
    {
        tk.setIssuer(&issuer);
    }

    /**
     * Train the (a -> b) successor correlation `times` times (the
     * delta predictor needs confidence 2 before it fires).
     */
    void
    train(Addr a, Addr b, int times, Tick &t)
    {
        for (int i = 0; i < times; ++i) {
            tk.notifyL1DFill(a, invalidAddr, t);
            tk.notifyL1DAccess(a, true, t + 10);
            tk.notifyL1DFill(b, a, t + 20);  // b displaces a: train a->b
            t += 100;
        }
    }

    PowerModel power;
    TimekeepingPrefetcher tk;
    RecordingIssuer issuer;
};

TEST_F(TimekeepingTest, BufferFillProbeConsume)
{
    tk.fillBuffer(0x1000, 0);
    EXPECT_TRUE(tk.probeBuffer(0x1008, 1));   // same 32B block
    // The hit consumed the entry.
    EXPECT_FALSE(tk.probeBuffer(0x1000, 2));
}

TEST_F(TimekeepingTest, BufferMissOnAbsentBlock)
{
    EXPECT_FALSE(tk.probeBuffer(0x2000, 0));
}

TEST_F(TimekeepingTest, BufferFifoReplacement)
{
    TimekeepingConfig config;
    config.bufferEntries = 4;
    TimekeepingPrefetcher small(config, l1dGeom(), power);
    for (Addr i = 0; i < 5; ++i)
        small.fillBuffer(0x1000 + i * 32, i);
    // The oldest entry was replaced.
    EXPECT_FALSE(small.probeBuffer(0x1000, 10));
    EXPECT_TRUE(small.probeBuffer(0x1000 + 4 * 32, 10));
}

TEST_F(TimekeepingTest, LearnsEvictionSuccessorAndPrefetchesOnDeath)
{
    // Two blocks mapping to the same L1 set: set stride for the 64KB
    // 2-way 32B cache is 32KB.
    const Addr a = 0x10000;
    const Addr b = a + 32 * 1024;

    // Train the A -> B correlation to confidence 2.
    Tick t = 0;
    train(a, b, 2, t);

    // A is resident again and goes idle.
    tk.notifyL1DFill(a, invalidAddr, 1000);
    tk.notifyL1DAccess(a, true, 1100);

    // Let A's idle time grow far past its live time (~100) and run
    // decay sweeps until the dead prediction fires.
    for (Tick tt = 1100; tt < 40000; tt += 16)
        tk.tick(tt);

    ASSERT_FALSE(issuer.issued.empty());
    EXPECT_EQ(issuer.issued.front(), b);
}

TEST_F(TimekeepingTest, SingleObservationIsNotConfidentEnough)
{
    const Addr a = 0x10000;
    const Addr b = a + 32 * 1024;
    Tick t = 0;
    train(a, b, 1, t);  // confidence 1 < threshold 2

    tk.notifyL1DFill(a, invalidAddr, 1000);
    tk.notifyL1DAccess(a, true, 1100);
    for (Tick tt = 1100; tt < 40000; tt += 16)
        tk.tick(tt);
    EXPECT_TRUE(issuer.issued.empty());
}

TEST_F(TimekeepingTest, ConflictingDeltasSuppressPrefetching)
{
    // The same signature sees alternating successors: confidence can
    // never reach the firing threshold.
    const Addr a = 0x10000;
    const Addr b = a + 32 * 1024;
    const Addr c = a + 3 * 32 * 1024;
    Tick t = 0;
    for (int i = 0; i < 4; ++i) {
        train(a, b, 1, t);
        train(a, c, 1, t);
    }

    tk.notifyL1DFill(a, invalidAddr, t);
    tk.notifyL1DAccess(a, true, t + 10);
    for (Tick tt = t + 10; tt < t + 40000; tt += 16)
        tk.tick(tt);
    EXPECT_TRUE(issuer.issued.empty());
}

TEST_F(TimekeepingTest, DeltaGeneralizesAcrossAliasedSets)
{
    // Blocks in *different* sets share the predictor entry when their
    // nine tag bits match; a constant stride keeps the delta valid for
    // all of them (the scan-friendly property).
    const Addr set_stride = 32 * 1024;
    const Addr a1 = 0x100000;        // set 0 parity 0
    const Addr a2 = 0x100000 + 64;   // a different (even) set, same tag
    Tick t = 0;
    train(a1, a1 + set_stride, 2, t);

    // a2 was never trained directly, but shares tag bits and parity.
    tk.notifyL1DFill(a2, invalidAddr, t);
    tk.notifyL1DAccess(a2, true, t + 10);
    for (Tick tt = t + 10; tt < t + 40000; tt += 16)
        tk.tick(tt);

    // a1's still-resident frame may fire as well; what matters is
    // that the delta generalized to a2's set.
    ASSERT_FALSE(issuer.issued.empty());
    EXPECT_NE(std::find(issuer.issued.begin(), issuer.issued.end(),
                        a2 + set_stride),
              issuer.issued.end());
}

TEST_F(TimekeepingTest, NoPrefetchWithoutLearnedSuccessor)
{
    const Addr a = 0x30000;
    tk.notifyL1DFill(a, invalidAddr, 0);
    tk.notifyL1DAccess(a, true, 50);
    for (Tick t = 50; t < 40000; t += 16)
        tk.tick(t);
    EXPECT_TRUE(issuer.issued.empty());
    EXPECT_EQ(tk.prefetchesIssued(), 0u);
}

TEST_F(TimekeepingTest, LiveBlockIsNotPredictedDead)
{
    const Addr a = 0x10000;
    const Addr b = a + 32 * 1024;
    Tick t0 = 0;
    train(a, b, 2, t0);
    tk.notifyL1DFill(a, invalidAddr, t0);

    // Keep touching A so idle never exceeds 2x live.
    for (Tick t = t0; t < t0 + 20000; t += 8) {
        tk.notifyL1DAccess(a, true, t);
        tk.tick(t);
    }
    EXPECT_TRUE(issuer.issued.empty());
}

TEST_F(TimekeepingTest, DeadPredictionFiresOnlyOncePerGeneration)
{
    const Addr a = 0x10000;
    const Addr b = a + 32 * 1024;
    Tick t0 = 0;
    train(a, b, 2, t0);
    tk.notifyL1DFill(a, invalidAddr, t0);
    tk.notifyL1DAccess(a, true, t0 + 50);

    for (Tick t = t0 + 50; t < t0 + 100000; t += 16)
        tk.tick(t);
    EXPECT_EQ(issuer.issued.size(), 1u);
}

TEST_F(TimekeepingTest, BufferedBlockIsNotRePrefetched)
{
    const Addr a = 0x10000;
    const Addr b = a + 32 * 1024;
    Tick t0 = 0;
    train(a, b, 2, t0);
    tk.notifyL1DFill(a, invalidAddr, t0);
    tk.notifyL1DAccess(a, true, t0 + 50);

    tk.fillBuffer(b, t0 + 60);  // already buffered
    for (Tick t = t0 + 60; t < t0 + 40000; t += 16)
        tk.tick(t);
    EXPECT_TRUE(issuer.issued.empty());
}

TEST_F(TimekeepingTest, AccessResetsDeadHandling)
{
    const Addr a = 0x10000;
    const Addr b = a + 32 * 1024;
    Tick t0 = 0;
    train(a, b, 2, t0);

    tk.notifyL1DFill(a, invalidAddr, t0);
    tk.notifyL1DAccess(a, true, t0 + 50);
    for (Tick t = t0 + 50; t < t0 + 40000; t += 16)
        tk.tick(t);
    ASSERT_EQ(issuer.issued.size(), 1u);

    // A new access revives the block; a second idle period triggers
    // a second prediction.
    tk.notifyL1DAccess(a, true, t0 + 40000);
    for (Tick t = t0 + 40000; t < t0 + 200000; t += 16)
        tk.tick(t);
    EXPECT_EQ(issuer.issued.size(), 2u);
}

/**
 * Reference model of the engine with the decay sweep in its original
 * brute-force form: every 16 ticks it checks every frame of the next
 * slice of sets. Only what decides issued addresses and the tk.*
 * stats is modelled (no power accounting).
 */
class BruteForceTk
{
  public:
    BruteForceTk(const TimekeepingConfig &config, const CacheConfig &l1d)
        : config(config),
          blockBytes(l1d.blockBytes),
          numSets(static_cast<std::uint32_t>(
              l1d.sizeBytes / (l1d.blockBytes * l1d.assoc))),
          assoc(l1d.assoc),
          frames(static_cast<std::size_t>(numSets) * assoc),
          predictor(config.predictorEntries)
    {
    }

    void
    notifyL1DAccess(Addr addr, bool hit, Tick now)
    {
        if (!hit)
            return;
        if (Frame *frame = findFrame(addr & ~Addr{blockBytes - 1})) {
            frame->lastAccess = now;
            frame->deadHandled = false;
        }
    }

    void
    notifyL1DFill(Addr block_addr, Addr victim_block, Tick now)
    {
        Frame *base = &frames[setOf(block_addr) * assoc];
        if (victim_block != invalidAddr && victim_block != block_addr) {
            const std::int64_t delta =
                (static_cast<std::int64_t>(block_addr) -
                 static_cast<std::int64_t>(victim_block)) /
                static_cast<std::int64_t>(setStride());
            if (delta != 0 && delta <= config.maxDeltaTags &&
                delta >= -config.maxDeltaTags) {
                Entry &entry = predictor[signature(victim_block)];
                if (entry.confidence > 0 && entry.delta == delta) {
                    if (entry.confidence < 3)
                        ++entry.confidence;
                } else if (entry.confidence > 0) {
                    --entry.confidence;
                } else {
                    entry.delta = static_cast<std::int32_t>(delta);
                    entry.confidence = 1;
                }
                ++stats["tk.trainedPairs"];
            }
        }
        Frame *target = nullptr;
        for (std::uint32_t way = 0; way < assoc; ++way) {
            if (base[way].blockAddr == block_addr) {
                target = &base[way];
                break;
            }
            if (base[way].blockAddr == invalidAddr && !target)
                target = &base[way];
        }
        if (!target) {
            target = &base[0];
            for (std::uint32_t way = 1; way < assoc; ++way) {
                if (base[way].lastAccess < target->lastAccess)
                    target = &base[way];
            }
        }
        *target = {block_addr, now, now, false};
    }

    bool
    probeBuffer(Addr addr)
    {
        if (!bufferSet.erase(addr & ~Addr{blockBytes - 1}))
            return false;
        ++stats["tk.bufferHits"];
        return true;
    }

    void
    fillBuffer(Addr block_addr)
    {
        if (bufferSet.count(block_addr))
            return;
        while (bufferSet.size() >= config.bufferEntries) {
            const Addr head = bufferFifo.front();
            bufferFifo.pop_front();
            if (bufferSet.erase(head))
                ++stats["tk.bufferReplacements"];
        }
        bufferFifo.push_back(block_addr);
        bufferSet.insert(block_addr);
        ++stats["tk.bufferInsertions"];
        while (bufferFifo.size() > 4 * config.bufferEntries &&
               !bufferSet.count(bufferFifo.front())) {
            bufferFifo.pop_front();
        }
    }

    void
    tick(Tick now)
    {
        if (now < nextSweepTick)
            return;
        nextSweepTick = now + config.decayResolution;
        const std::uint32_t per_slice =
            std::max<std::uint32_t>(1, numSets / config.sweepSlices);
        for (std::uint32_t i = 0; i < per_slice; ++i) {
            Frame *base = &frames[((sweepCursor + i) % numSets) * assoc];
            for (std::uint32_t way = 0; way < assoc; ++way) {
                Frame &frame = base[way];
                if (frame.blockAddr == invalidAddr || frame.deadHandled)
                    continue;
                const Tick live = std::max<Tick>(
                    frame.lastAccess - frame.fillTime, config.minLiveTime);
                const Tick idle = now - frame.lastAccess;
                if (static_cast<double>(idle) <=
                    config.deadMultiplier * static_cast<double>(live))
                    continue;
                frame.deadHandled = true;
                ++stats["tk.deadPredictions"];
                const Entry &entry = predictor[signature(frame.blockAddr)];
                if (entry.confidence < config.confidenceThreshold) {
                    ++stats["tk.predictorMisses"];
                    continue;
                }
                const std::int64_t next =
                    static_cast<std::int64_t>(frame.blockAddr) +
                    entry.delta * static_cast<std::int64_t>(setStride());
                if (next >= 0 && !bufferSet.count(static_cast<Addr>(next))) {
                    issued.push_back(static_cast<Addr>(next));
                    ++stats["tk.issued"];
                }
            }
        }
        sweepCursor = (sweepCursor + per_slice) % numSets;
    }

    std::vector<Addr> issued;
    std::map<std::string, double> stats{
        {"tk.bufferHits", 0},         {"tk.bufferInsertions", 0},
        {"tk.bufferReplacements", 0}, {"tk.deadPredictions", 0},
        {"tk.issued", 0},             {"tk.predictorMisses", 0},
        {"tk.trainedPairs", 0}};

  private:
    struct Frame
    {
        Addr blockAddr = invalidAddr;
        Tick fillTime = 0;
        Tick lastAccess = 0;
        bool deadHandled = false;
    };
    struct Entry
    {
        std::int32_t delta = 0;
        std::uint8_t confidence = 0;
    };

    std::size_t setOf(Addr block) const
    {
        return (block / blockBytes) & (numSets - 1);
    }
    Addr setStride() const { return Addr{numSets} * blockBytes; }
    std::uint32_t
    signature(Addr block) const
    {
        const Addr tag = block / blockBytes / numSets;
        const std::uint32_t sig =
            ((static_cast<std::uint32_t>(tag) &
              ((1u << config.tagSigBits) - 1))
             << config.indexSigBits) |
            (static_cast<std::uint32_t>(setOf(block)) &
             ((1u << config.indexSigBits) - 1));
        return sig & (config.predictorEntries - 1);
    }
    Frame *
    findFrame(Addr block)
    {
        Frame *base = &frames[setOf(block) * assoc];
        for (std::uint32_t way = 0; way < assoc; ++way) {
            if (base[way].blockAddr == block)
                return &base[way];
        }
        return nullptr;
    }

    TimekeepingConfig config;
    std::uint32_t blockBytes;
    std::uint32_t numSets;
    std::uint32_t assoc;
    std::vector<Frame> frames;
    std::vector<Entry> predictor;
    std::deque<Addr> bufferFifo;
    std::unordered_set<Addr> bufferSet;
    Tick nextSweepTick = 0;
    std::uint32_t sweepCursor = 0;
};

/** The engine under test, with its issued addresses and stats. */
struct EngineUnderTest
{
    EngineUnderTest(const TimekeepingConfig &config, const CacheConfig &l1d)
        : tk(config, l1d, power)
    {
        tk.setIssuer(&issuer);
        tk.regStats(registry, "tk");
    }

    PowerModel power;
    TimekeepingPrefetcher tk;
    RecordingIssuer issuer;
    StatRegistry registry;
};

TEST(TimekeepingDifferentialTest, DecaySweepMatchesBruteForce)
{
    // 32 sets x 2 ways of 32 B, two sets per sweep slice; 256 sets in
    // two slices of 128, whose blocks are whole 64-set screens; and 256
    // sets in three slices of 85, whose blocks mostly straddle them.
    struct Geometry
    {
        std::uint32_t sets;
        std::uint32_t slices;
    };
    for (const Geometry geometry : {Geometry{32, 16}, Geometry{256, 2},
                                     Geometry{256, 3}}) {
        for (const double multiplier : {1.0, 1.5, 2.0, 3.7}) {
            for (const std::uint32_t min_live : {0u, 64u}) {
                const std::uint32_t sets = geometry.sets;
                const CacheConfig l1d{"l1d", sets * 2 * 32, 2, 32, 2};
                SCOPED_TRACE(std::to_string(sets) +
                             " sets, deadMultiplier " +
                             std::to_string(multiplier) + ", minLiveTime " +
                             std::to_string(min_live));
                TimekeepingConfig config;
                config.deadMultiplier = multiplier;
                config.minLiveTime = min_live;
                config.bufferEntries = 8;
                config.sweepSlices = geometry.slices;

                BruteForceTk reference(config, l1d);
                EngineUnderTest engine(config, l1d);
                std::unique_ptr<EngineUnderTest> restored;

                // A toy L1 (two resident blocks per set) supplies
                // plausible victims; addresses walk a few tags per set,
                // mostly in +1-tag streams so deltas gain confidence.
                std::vector<Addr> resident(2 * sets, invalidAddr);
                std::vector<std::uint32_t> next_tag(sets, 0);
                Rng rng(static_cast<std::uint64_t>(multiplier * 10) + min_live +
                        sets);
                std::size_t fed = 0;  // issued addresses already buffered
                Tick now = 0;
                const int steps = 40000;
                for (int step = 0; step < steps; ++step) {
                    if (step == steps / 2) {
                        SnapshotWriter writer("tk-differential");
                        engine.tk.snapshot(writer);
                        const SnapshotBytes bytes = writer.finish();
                        restored =
                            std::make_unique<EngineUnderTest>(config, l1d);
                        // A history of its own first: every set holds a
                        // frame live for 4096 ticks, swept once, so the
                        // engine's wake bounds lie well past `now` when
                        // the snapshot replaces its frames.
                        const Tick last_use = now + 4096;
                        for (std::uint32_t s = 0; s < sets; ++s) {
                            const Addr block = Addr{s} * 32;
                            restored->tk.notifyL1DFill(block, invalidAddr,
                                                       now);
                            restored->tk.notifyL1DAccess(block, true,
                                                         last_use);
                        }
                        for (Tick t = last_use;
                             t <= last_use + Tick{config.decayResolution} *
                                                 geometry.slices;
                             ++t)
                            restored->tk.tick(t);
                        SnapshotReader reader(bytes.view());
                        restored->tk.restore(reader);
                        restored->issuer.issued = engine.issuer.issued;
                    }
                    if (step == 3 * steps / 4) {
                        // Restore a live engine over itself: its set and
                        // screen wake bounds restart from "unknown".
                        SnapshotWriter writer("tk-differential");
                        engine.tk.snapshot(writer);
                        const SnapshotBytes bytes = writer.finish();
                        SnapshotReader reader(bytes.view());
                        engine.tk.restore(reader);
                    }
                    const auto each = [&](auto &&call) {
                        call(engine.tk);
                        if (restored)
                            call(restored->tk);
                    };

                    now += rng.nextBounded(48);
                    const std::uint32_t set =
                        static_cast<std::uint32_t>(rng.nextBounded(sets));
                    const std::uint64_t kind = rng.nextBounded(100);
                    if (kind < 35) {
                        // Fill: usually the set's next streaming tag.
                        const std::uint32_t tag =
                            rng.chance(0.8)
                                ? next_tag[set]++ % 12
                                : static_cast<std::uint32_t>(
                                      rng.nextBounded(12));
                        const Addr block = (Addr{tag} * sets + set) * 32;
                        Addr &slot0 = resident[2 * set];
                        Addr &slot1 = resident[2 * set + 1];
                        Addr victim = invalidAddr;
                        if (block == slot0 || block == slot1) {
                            // Refill of a resident block.
                        } else if (slot0 == invalidAddr) {
                            slot0 = block;
                        } else {
                            victim = slot1;
                            slot1 = slot0;
                            slot0 = block;
                        }
                        reference.notifyL1DFill(block, victim, now);
                        each([&](auto &tk) {
                            tk.notifyL1DFill(block, victim, now);
                        });
                    } else if (kind < 75) {
                        // Hit on a resident block, handled or not.
                        const Addr block =
                            resident[2 * set + rng.nextBounded(2)];
                        if (block != invalidAddr) {
                            const Addr addr = block + rng.nextBounded(32);
                            reference.notifyL1DAccess(addr, true, now);
                            each([&](auto &tk) {
                                tk.notifyL1DAccess(addr, true, now);
                            });
                        }
                    } else if (kind < 80) {
                        const Addr addr = rng.nextBounded(sets * 12 * 32);
                        const bool ref_hit = reference.probeBuffer(addr);
                        EXPECT_EQ(engine.tk.probeBuffer(addr, now), ref_hit);
                        if (restored) {
                            EXPECT_EQ(restored->tk.probeBuffer(addr, now),
                                      ref_hit);
                        }
                    }
                    // Prefetches arrive a little later; buffer them all.
                    while (fed < reference.issued.size() && rng.chance(0.5)) {
                        const Addr block = reference.issued[fed++];
                        reference.fillBuffer(block);
                        each([&](auto &tk) { tk.fillBuffer(block, now); });
                    }
                    reference.tick(now);
                    each([&](auto &tk) { tk.tick(now); });
                }

                EXPECT_GT(reference.stats["tk.issued"], 100.0);
                EXPECT_GT(reference.stats["tk.bufferHits"], 0.0);
                EXPECT_EQ(engine.issuer.issued, reference.issued);
                ASSERT_TRUE(restored);
                EXPECT_EQ(restored->issuer.issued, reference.issued);
                for (const auto &[name, value] : reference.stats) {
                    EXPECT_EQ(engine.registry.scalarMap().at(name), value)
                        << name;
                    EXPECT_EQ(restored->registry.scalarMap().at(name), value)
                        << name;
                }
            }
        }
    }
}

} // namespace
} // namespace vsv
