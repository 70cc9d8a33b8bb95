/**
 * @file
 * Tests of the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/random.hh"
#include "workload/workload.hh"

namespace vsv
{
namespace
{

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t v = rng.nextBounded(13);
        EXPECT_LT(v, 13u);
    }
}

TEST(RngTest, NextBoundedCoversRange)
{
    Rng rng(11);
    std::vector<int> counts(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++counts[rng.nextBounded(8)];
    for (int c : counts)
        EXPECT_GT(c, 800);  // uniform would be 1000 each
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(3);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
        sum += d;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ChanceExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RngTest, ChanceMatchesProbability)
{
    Rng rng(9);
    int hits = 0;
    for (int i = 0; i < 100000; ++i) {
        if (rng.chance(0.3))
            ++hits;
    }
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(RngTest, GeometricMeanMatches)
{
    Rng rng(13);
    // Mean of geometric (failures before success) with p is (1-p)/p.
    const double p = 0.25;
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(p));
    EXPECT_NEAR(sum / n, (1.0 - p) / p, 0.1);
}

TEST(RngTest, GeometricWithPOneIsZero)
{
    // p == 1 answers 0 without consuming the stream, through either
    // entry point, so callers that hoist the parameter keep their
    // draw count.
    Rng rng(17), untouched(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(rng.nextGeometric(1.0), 0u);
        EXPECT_EQ(rng.nextGeometric(GeometricParam(1.0)), 0u);
    }
    EXPECT_EQ(rng.next(), untouched.next());
}

TEST(RngTest, StreamIsPinned)
{
    // The first draws of every primitive the workload generator uses,
    // pinned exactly: a refactor that moves one bit of the stream fails
    // here, next to its cause, rather than in the golden-stats gate.
    const std::array<std::uint64_t, 8> raw = {
        0x0e48715a13d7772eULL, 0xc837f3ee8a7a1065ULL,
        0x1272314b15ee5001ULL, 0x28e323a6abe2a46bULL,
        0xc60df3b261660aa7ULL, 0x3eaff0863ccf54f5ULL,
        0x64f330b569ae67a8ULL, 0x41cb3a533c517b6cULL};
    const std::array<double, 8> unit = {
        0x1.c90e2b427aeep-5,  0x1.906fe7dd14f42p-1,
        0x1.272314b15ee5p-4,  0x1.47191d355f15p-3,
        0x1.8c1be764c2cc1p-1, 0x1.f57f8431e67a8p-3,
        0x1.93ccc2d5a6b98p-2, 0x1.072ce94cf145ep-2};
    const std::array<bool, 8> coin = {true,  false, true,  true,
                                      false, true,  false, true};
    const std::array<std::uint64_t, 8> geometric = {0, 6, 0, 0,
                                                    6, 1, 2, 1};

    Rng a(2024), b(2024), c(2024), d(2024), e(2024);
    const GeometricParam param(0.2);
    for (std::size_t i = 0; i < 8; ++i) {
        EXPECT_EQ(a.next(), raw[i]) << "draw " << i;
        EXPECT_EQ(b.nextDouble(), unit[i]) << "draw " << i;
        EXPECT_EQ(c.chance(0.3), coin[i]) << "draw " << i;
        EXPECT_EQ(d.nextGeometric(0.2), geometric[i]) << "draw " << i;
        EXPECT_EQ(e.nextGeometric(param), geometric[i]) << "draw " << i;
    }
}

TEST(RngTest, PowerOfTwoBoundMasksTheRawDraw)
{
    // For a power-of-two bound the rejection loop never rejects, so
    // the draw is the raw value reduced mod the bound.
    for (const std::uint64_t bound :
         {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{8},
          std::uint64_t{32} * 1024, std::uint64_t{1} << 24,
          std::uint64_t{1} << 63}) {
        Rng rng(31), raw(31);
        for (int i = 0; i < 1000; ++i)
            EXPECT_EQ(rng.nextBounded(bound), raw.next() % bound)
                << "bound " << bound;
    }
}

TEST(RngTest, ZeroBoundIsFatal)
{
    Rng rng(1);
    EXPECT_DEATH(rng.nextBounded(0), "zero bound");
}

/** The geometric draw for mantissa m, by the formula, in the test. */
std::uint64_t
formulaDraw(std::uint64_t m, double p)
{
    const double u = static_cast<double>(m) * 0x1.0p-53;
    return static_cast<std::uint64_t>(std::log1p(-u) / std::log1p(-p));
}

TEST(GeometricParamTest, TableDrawEqualsTheFormula)
{
    // Every producer-distance parameter a stock profile uses, plus a
    // spread of others. The formula's floor changes only where its
    // value crosses an integer; log1p's rounding can blur a crossing
    // by a few mantissa steps at most, far inside the +/-1024 checked
    // around each threshold.
    std::set<double> ps = {0.2, 0.5, 0.999, 1e-3};
    for (const std::string &name : spec2kBenchmarks())
        ps.insert(1.0 / std::max(1.0, spec2kProfile(name).meanDepDist));
    constexpr std::uint64_t limit = std::uint64_t{1} << 53;
    Rng pick(99);
    std::uint64_t checked = 0;
    for (const double p : ps) {
        if (p >= 1.0)
            continue;
        SCOPED_TRACE("p = " + std::to_string(p));
        const GeometricParam param(p);
        const auto &thr = param.thresholds();
        for (std::size_t k = 0; k < thr.size(); ++k) {
            if (thr[k] == limit) {
                // Nothing draws k + 1: the largest m stays below it.
                EXPECT_LT(formulaDraw(limit - 1, p), k + 1);
                break;
            }
            // thr[k] is the formula's first m at or past k + 1.
            EXPECT_GE(formulaDraw(thr[k], p), k + 1);
            if (thr[k] > 0) {
                EXPECT_LT(formulaDraw(thr[k] - 1, p), k + 1);
            }
            const std::uint64_t lo = thr[k] < 1024 ? 0 : thr[k] - 1024;
            const std::uint64_t hi = std::min(thr[k] + 1024, limit - 1);
            for (std::uint64_t m = lo; m <= hi; ++m, ++checked) {
                ASSERT_EQ(param.draw(m), formulaDraw(m, p))
                    << "m = " << m << " near threshold " << k;
            }
        }
        for (int i = 0; i < 100000; ++i, ++checked) {
            const std::uint64_t m = pick.next() >> 11;
            ASSERT_EQ(param.draw(m), formulaDraw(m, p)) << "m = " << m;
        }
        // The two Rng entry points consume the stream alike.
        Rng table(7), formula(7);
        for (int i = 0; i < 10000; ++i)
            ASSERT_EQ(table.nextGeometric(param), formula.nextGeometric(p));
    }
    EXPECT_GT(checked, std::uint64_t{1000000});
}

TEST(GeometricParamTest, DirectLookupEqualsTheFormulaAtEveryBucketEdge)
{
    // The one-lookup table answers a whole bucket of mantissas with
    // the draw at its first m, so the first and last m of every bucket
    // (and the m on either side of each edge) must draw what the
    // threshold scan and the formula draw.
    std::set<double> ps = {0.2, 0.5, 0.999, 1e-3};
    for (const std::string &name : spec2kBenchmarks())
        ps.insert(1.0 / std::max(1.0, spec2kProfile(name).meanDepDist));
    constexpr unsigned bucket_bits = 12;
    constexpr std::uint64_t bucket = std::uint64_t{1} << (53 - bucket_bits);
    for (const double p : ps) {
        SCOPED_TRACE("p = " + std::to_string(p));
        const GeometricParam param(p);
        for (std::uint64_t b = 0; b < (std::uint64_t{1} << bucket_bits);
             ++b) {
            for (const std::uint64_t m : {b * bucket, b * bucket + 1,
                                          (b + 1) * bucket - 2,
                                          (b + 1) * bucket - 1}) {
                ASSERT_EQ(param.draw(m), param.scan(m)) << "m = " << m;
                if (p < 1.0) {
                    ASSERT_EQ(param.draw(m), formulaDraw(m, p))
                        << "m = " << m;
                }
            }
        }
    }
}

TEST(GeometricParamTest, DirectLookupEqualsTheFormulaOnSeededDraws)
{
    // A million seeded draws per stock producer-distance parameter,
    // through the Rng entry points a generator uses: the prepared
    // parameter and the formula consume the stream alike and agree.
    std::set<double> ps;
    for (const std::string &name : spec2kBenchmarks())
        ps.insert(1.0 / std::max(1.0, spec2kProfile(name).meanDepDist));
    for (const double p : ps) {
        SCOPED_TRACE("p = " + std::to_string(p));
        const GeometricParam param(p);
        Rng table(11), formula(11);
        for (int i = 0; i < 1000000; ++i)
            ASSERT_EQ(table.nextGeometric(param), formula.nextGeometric(p));
    }
}

TEST(MantissaCutTest, IntegerTestEqualsTheDoubleTest)
{
    // m < mantissaCut(p) must hold exactly when nextDouble() < p would
    // for the draw with mantissa m: at the cut, on either side of it,
    // at the ends of the range, and for thresholds outside (0, 1).
    constexpr std::uint64_t limit = std::uint64_t{1} << 53;
    const auto asDouble = [](std::uint64_t m) {
        return static_cast<double>(m) * 0x1.0p-53;
    };
    std::vector<double> ps = {0.5,  0.3,   0.1,    0.02,  0.999,
                              1e-9, 1e-300, 4.9e-324, 0.0, -0.25,
                              1.0,  1.5,   std::nan("")};
    Rng pick(11);
    for (int i = 0; i < 2000; ++i)
        ps.push_back(pick.nextDouble());
    for (const double p : ps) {
        const std::uint64_t cut = mantissaCut(p);
        ASSERT_LE(cut, limit) << p;
        for (const std::uint64_t m :
             {std::uint64_t{0}, std::uint64_t{1}, cut - 1, cut, cut + 1,
              limit - 1}) {
            if (m >= limit)
                continue;
            EXPECT_EQ(m < cut, asDouble(m) < p) << "p = " << p << ", m = "
                                                << m;
        }
    }
}

} // namespace
} // namespace vsv
