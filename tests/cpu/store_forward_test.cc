/**
 * @file
 * Exact store-to-load forwarding counts for a Core driven by scripted
 * micro-op streams. The LSQ keeps a counting filter of address-ready
 * stores bucketed by word address; these scripts pin the cases where
 * the filter and the LSQ walk behind it must agree: a same-word store,
 * a same-bucket store to another word, a store whose agen comes late,
 * a store that has already committed, and LSQ rings that wrap.
 */

#include <vector>

#include <gtest/gtest.h>

#include "cpu/core.hh"

namespace vsv
{
namespace
{

constexpr Addr dataBase = 0x10000000;
/** 256 words: the same store-filter bucket, another word. */
constexpr Addr sameBucket = 2048;

MicroOp
op(OpClass cls, Addr addr = 0, std::uint32_t dep = 0)
{
    MicroOp m;
    m.cls = cls;
    m.addr = addr;
    m.depDist1 = dep;
    return m;
}

/**
 * Replays a fixed script, then independent integer ops forever, over a
 * small loop of PCs that storeForwards() preloads into the I-cache.
 */
class ScriptedTrace : public TraceSource
{
  public:
    static constexpr std::size_t codeOps = 64;

    explicit ScriptedTrace(std::vector<MicroOp> script)
        : script(std::move(script))
    {
    }

    MicroOp
    next() override
    {
        MicroOp m = n < script.size() ? script[n] : op(OpClass::IntAlu);
        m.pc = WorkloadRegions::code + 4 * (n % codeOps);
        ++n;
        return m;
    }

    std::size_t size() const { return script.size(); }

  private:
    std::vector<MicroOp> script;
    std::size_t n = 0;
};

/** Run `script` to completion and return cpu.storeForwards. */
double
storeForwards(std::vector<MicroOp> script, std::uint32_t lsq_size = 64)
{
    PowerModel power;
    MemoryHierarchy mem(HierarchyConfig{}, power);
    BranchPredictor predictor;
    ScriptedTrace trace(std::move(script));
    CoreConfig cc;
    cc.lsqSize = lsq_size;
    Core core(cc, trace, mem, predictor, power);

    // A warm I-cache: fetch never stalls, so the script's ops reach
    // the window back to back.
    mem.setWarmupMode(true);
    for (Addr off = 0; off < 4 * ScriptedTrace::codeOps; off += 32)
        mem.warmupInstAccess(WorkloadRegions::code + off, 0);
    mem.setWarmupMode(false);

    // Past the script's end, so every scripted op has committed.
    const std::uint64_t target = trace.size() + 64;
    for (Tick now = 0;
         core.committedInstructions() < target && now < 50'000'000; ++now) {
        mem.service(now);
        core.cycle(now);
    }
    EXPECT_GE(core.committedInstructions(), target);
    StatRegistry registry;
    core.regStats(registry, "cpu");
    return registry.scalarValue("cpu.storeForwards");
}

TEST(StoreForwardTest, AddressReadyStoreToTheSameWordForwards)
{
    EXPECT_EQ(storeForwards({op(OpClass::Store, dataBase),
                             op(OpClass::Load, dataBase)}),
              1.0);
    // Any byte of the 8-byte word.
    EXPECT_EQ(storeForwards({op(OpClass::Store, dataBase + 1),
                             op(OpClass::Load, dataBase + 7)}),
              1.0);
}

TEST(StoreForwardTest, SameBucketOtherWordDoesNotForward)
{
    // The filter bucket is nonzero, so the LSQ walk runs and rejects.
    EXPECT_EQ(storeForwards({op(OpClass::Store, dataBase),
                             op(OpClass::Load, dataBase + sameBucket)}),
              0.0);
    // A same-bucket store in between does not hide the real match.
    EXPECT_EQ(storeForwards({op(OpClass::Store, dataBase),
                             op(OpClass::Store, dataBase + sameBucket),
                             op(OpClass::Load, dataBase)}),
              1.0);
}

TEST(StoreForwardTest, LoadIssuedBeforeTheStoreAgenDoesNotForward)
{
    // The store's address waits on a 20-cycle divide; the load issues
    // at once. A second load, dependent on the store, issues after its
    // agen and forwards.
    EXPECT_EQ(storeForwards({op(OpClass::IntDiv),
                             op(OpClass::Store, dataBase, 1),
                             op(OpClass::Load, dataBase)}),
              0.0);
    EXPECT_EQ(storeForwards({op(OpClass::IntDiv),
                             op(OpClass::Store, dataBase, 1),
                             op(OpClass::Load, dataBase),
                             op(OpClass::Load, dataBase, 2)}),
              1.0);
}

TEST(StoreForwardTest, LoadAfterTheStoreCommitsDoesNotForward)
{
    // The load waits on a divide younger than the store, so the store
    // commits (and leaves the filter) first.
    EXPECT_EQ(storeForwards({op(OpClass::Store, dataBase),
                             op(OpClass::IntDiv),
                             op(OpClass::Load, dataBase, 1)}),
              0.0);
}

TEST(StoreForwardTest, CommitReturnsTheFilterCountToZero)
{
    // Far more stores to one word than a 16-bit filter counter holds:
    // if commit failed to decrement, the counter would wrap to zero at
    // the 65,536th store and that store's load would not forward.
    constexpr int pairs = 70'000;
    std::vector<MicroOp> script;
    script.reserve(2 * pairs);
    for (int i = 0; i < pairs; ++i) {
        script.push_back(op(OpClass::Store, dataBase));
        script.push_back(op(OpClass::Load, dataBase));
    }
    EXPECT_EQ(storeForwards(std::move(script)), double{pairs});
}

/** LSQ rings whose head and tail wrap many times. */
class StoreForwardWrapTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(StoreForwardWrapTest, ExactCountAcrossWraps)
{
    // Each group: a store, a same-bucket store to another word, a load
    // of the first word (forwards) and a load of a third word in the
    // bucket that no store ever writes (does not). Four memory ops per
    // group against a 7-entry ring put matches on both sides of the
    // wrap point; 200 groups keep every word distinct. Independent
    // integer ops pad each group past the RUU size, so the LSQ never
    // fills: a full 7-entry LSQ could commit a store in the same cycle
    // its load first finds a free slot, and then the load (correctly)
    // would not forward.
    constexpr int groups = 200;
    constexpr int repeats = 3;
    constexpr int padding = 132;
    static_assert(padding + 4 > 128, "pad past the default RUU");
    std::vector<MicroOp> script;
    for (int r = 0; r < repeats; ++r) {
        const Addr base = dataBase + static_cast<Addr>(r) * 0x10000;
        for (int i = 0; i < groups; ++i) {
            const Addr word = base + 8 * static_cast<Addr>(i);
            script.push_back(op(OpClass::Store, word));
            script.push_back(op(OpClass::Store, word + sameBucket));
            script.push_back(op(OpClass::Load, word));
            script.push_back(op(OpClass::Load, word + 2 * sameBucket));
            script.insert(script.end(), padding, op(OpClass::IntAlu));
        }
    }
    EXPECT_EQ(storeForwards(std::move(script), GetParam()),
              double{groups * repeats});
}

INSTANTIATE_TEST_SUITE_P(LsqSizes, StoreForwardWrapTest,
                         ::testing::Values(7u, 64u));

} // namespace
} // namespace vsv
