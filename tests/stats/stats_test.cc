/**
 * @file
 * Tests of the statistics package.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

#include "stats/stats.hh"

namespace vsv
{
namespace
{

TEST(ScalarTest, AccumulatesAndResets)
{
    Scalar s;
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    ++s;
    s += 2.5;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(CounterTest, ReadsAsTheScalarOfTheSameIncrements)
{
    Counter c;
    Scalar s;
    EXPECT_EQ(c.value(), 0.0);
    for (int i = 0; i < 1000; ++i) {
        ++c;
        ++s;
        c += 3;
        s += 3.0;
    }
    EXPECT_EQ(c.count(), 4000u);
    EXPECT_EQ(c.value(), s.value());
    c.reset();
    EXPECT_EQ(c.value(), 0.0);
}

TEST(CounterTest, ConvertsExactlyNear2To53)
{
    // Every whole number up to 2^53 is a double, so a counter there
    // reads exactly, and as a Scalar fed the same increments: the
    // Scalar's partial sums are whole numbers below 2^53 too.
    constexpr std::uint64_t top = std::uint64_t{1} << 53;
    for (const std::uint64_t start :
         {top - 1000, top - 3, top - 2, top - 1}) {
        Counter c(start);
        Scalar s;
        s += static_cast<double>(start);
        while (c.count() < top) {
            EXPECT_EQ(c.value(), s.value());
            EXPECT_EQ(static_cast<std::uint64_t>(c.value()), c.count());
            ++c;
            ++s;
        }
        EXPECT_EQ(c.value(), 0x1p53);
        EXPECT_EQ(c.value(), s.value());
    }
    // Bulk adds that land on 2^53 - 1 and on 2^53 read exactly.
    Counter bulk;
    bulk += top / 2;
    bulk += top / 2 - 1;
    EXPECT_EQ(bulk.value(), 0x1p53 - 1.0);
    bulk += 1;
    EXPECT_EQ(bulk.value(), 0x1p53);
}

TEST(DistributionTest, TalliesFoldToPerSampleTotals)
{
    // Values past the bucket range included (an issue width of 16
    // over buckets 0..8), single samples and runs of samples (a
    // fast-forwarded idle span), and a tally limit inside the range, so
    // one object both tallies and buckets.
    Distribution sampled(0, 8, 1);
    Distribution tallied(0, 8, 1, 17);
    Distribution mixed(0, 8, 1, 5);
    Distribution offset(2, 12, 3, 17);
    Distribution offset_sampled(2, 12, 3);
    std::uint64_t state = 12345;
    for (int i = 0; i < 100000; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const std::uint64_t value = (state >> 33) % 17;
        const std::uint64_t count = (state >> 20) % 64 == 0
                                        ? 1 + (state >> 40) % 5000
                                        : 1;
        for (Distribution *d :
             {&sampled, &tallied, &mixed, &offset, &offset_sampled})
            d->sample(value, count);
    }
    for (const auto &[got, want] :
         {std::pair<const Distribution *, const Distribution *>{
              &tallied, &sampled},
          {&mixed, &sampled},
          {&offset, &offset_sampled}}) {
        EXPECT_EQ(got->samples(), want->samples());
        EXPECT_EQ(got->underflow(), want->underflow());
        EXPECT_EQ(got->overflow(), want->overflow());
        EXPECT_EQ(got->buckets(), want->buckets());
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got->mean()),
                  std::bit_cast<std::uint64_t>(want->mean()));
    }
    EXPECT_GT(offset.underflow(), 0u);
    EXPECT_GT(sampled.overflow(), 0u);
    tallied.reset();
    EXPECT_EQ(tallied.samples(), 0u);
    EXPECT_EQ(tallied.mean(), 0.0);
}

TEST(DistributionTest, BucketsAndMean)
{
    Distribution d(0, 9, 2);  // buckets 0-1, 2-3, ..., 8-9
    d.sample(0);
    d.sample(1);
    d.sample(4);
    d.sample(9, 2);

    EXPECT_EQ(d.samples(), 5u);
    EXPECT_DOUBLE_EQ(d.mean(), (0.0 + 1.0 + 4.0 + 9.0 + 9.0) / 5.0);
    EXPECT_EQ(d.buckets()[0], 2u);
    EXPECT_EQ(d.buckets()[2], 1u);
    EXPECT_EQ(d.buckets()[4], 2u);
}

TEST(DistributionTest, UnderAndOverflow)
{
    Distribution d(10, 20, 5);
    d.sample(5);
    d.sample(25);
    d.sample(15);
    EXPECT_EQ(d.underflow(), 1u);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_EQ(d.samples(), 3u);
}

TEST(DistributionTest, ResetClearsEverything)
{
    Distribution d(0, 10, 1);
    d.sample(3, 7);
    d.reset();
    EXPECT_EQ(d.samples(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    for (const auto b : d.buckets())
        EXPECT_EQ(b, 0u);
}

TEST(StatRegistryTest, LookupAndDump)
{
    StatRegistry registry;
    Scalar a, b;
    a += 10;
    b += 20;
    registry.registerScalar("mod.a", &a, "stat a");
    registry.registerScalar("mod.b", &b, "stat b");

    EXPECT_TRUE(registry.hasScalar("mod.a"));
    EXPECT_FALSE(registry.hasScalar("mod.c"));
    EXPECT_DOUBLE_EQ(registry.scalarValue("mod.a"), 10.0);
    EXPECT_DOUBLE_EQ(registry.scalarValue("mod.b"), 20.0);

    std::ostringstream os;
    registry.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("mod.a"), std::string::npos);
    EXPECT_NE(text.find("stat b"), std::string::npos);
}

TEST(StatRegistryTest, CountersReadAsScalars)
{
    Counter c;
    Scalar s;
    c += 7;
    s += 7.0;
    StatRegistry counters;
    StatRegistry scalars;
    counters.registerScalar("mod.n", &c, "a count");
    scalars.registerScalar("mod.n", &s, "a count");
    EXPECT_EQ(counters.scalarValue("mod.n"), 7.0);
    EXPECT_TRUE(counters.hasScalar("mod.n"));
    EXPECT_EQ(counters.scalarMap(), scalars.scalarMap());
    std::ostringstream text_c, text_s, json_c, json_s;
    counters.dump(text_c);
    scalars.dump(text_s);
    counters.dumpJson(json_c);
    scalars.dumpJson(json_s);
    EXPECT_EQ(text_c.str(), text_s.str());
    EXPECT_EQ(json_c.str(), json_s.str());
    EXPECT_DEATH(counters.registerScalar("mod.n", &s, "again"),
                 "duplicate");
}

TEST(StatRegistryTest, DuplicateRegistrationDies)
{
    StatRegistry registry;
    Scalar s;
    registry.registerScalar("x", &s, "");
    EXPECT_DEATH(registry.registerScalar("x", &s, ""), "duplicate");
}

TEST(StatRegistryTest, UnknownLookupDies)
{
    StatRegistry registry;
    EXPECT_DEATH(registry.scalarValue("nope"), "unknown");
}

TEST(StatRegistryTest, DistributionDumpShowsBuckets)
{
    StatRegistry registry;
    Distribution d(0, 8, 1);
    d.sample(2, 5);
    registry.registerDistribution("mod.dist", &d, "a distribution");

    std::ostringstream os;
    registry.dump(os);
    EXPECT_NE(os.str().find("mod.dist::2 5"), std::string::npos);
}

TEST(JsonNumberTest, NonFiniteValuesBecomeNull)
{
    // A nan or inf scalar (e.g. a ratio over an empty window) must
    // not leak into the sweep JSON as the literal "nan"/"inf", which
    // strict parsers reject.
    EXPECT_EQ(jsonNumber(std::nan("")), "null");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(jsonNumber(-std::numeric_limits<double>::infinity()),
              "null");
}

TEST(JsonNumberTest, FiniteValuesRoundTripExactly)
{
    for (const double value :
         {0.0, -0.0, 1.0, -2.5, 0.1, 1e300, 5e-324,
          123456789.123456789}) {
        const std::string text = jsonNumber(value);
        EXPECT_NE(text, "null");
        EXPECT_EQ(std::strtod(text.c_str(), nullptr), value) << text;
    }
}

} // namespace
} // namespace vsv
