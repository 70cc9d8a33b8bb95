/**
 * @file
 * Unit tests for the public minijson API (common/minijson.hh): the
 * strict RFC 8259 parse() contract and its nesting limit, the write()
 * serializer, the round-trip guarantees the sweep manifest and the
 * result store depend on, the non-finite-number -> null rule, and
 * mutated real sweep manifests: every truncation and a seeded sample
 * of single-bit flips either parse or are rejected with an offset.
 */

#include <cmath>
#include <limits>
#include <random>
#include <sstream>

#include <gtest/gtest.h>

#include "common/minijson.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"

using namespace vsv;

namespace
{

std::string
rewrite(const minijson::Value &v)
{
    std::ostringstream os;
    minijson::write(os, v);
    return os.str();
}

/** The error message parse() throws for `text`, or "" if it parses. */
std::string
parseError(const std::string &text)
{
    try {
        minijson::parse(text);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

std::string
repeat(const std::string &unit, std::size_t n)
{
    std::string out;
    out.reserve(unit.size() * n);
    for (std::size_t i = 0; i < n; ++i)
        out += unit;
    return out;
}

/** A real one-run sweep document, as the bench binaries write it,
 *  with the host-dependent timings zeroed so its bytes are stable. */
std::string
smallManifest()
{
    SweepOutcome outcome =
        SweepRunner::runOne({"mcf/base", makeOptions("mcf", false, 2000,
                                                     1000)});
    outcome.result.wallSeconds = 0.0;
    outcome.result.kinstPerSec = 0.0;
    SweepManifest manifest;
    manifest.tool = "minijson_test";
    manifest.config = {{"instructions", "2000"}};
    std::ostringstream os;
    writeSweepJson(os, manifest, {outcome});
    return os.str();
}

/**
 * parse(text) must either yield a whole value, whose canonical form
 * is then a fixed point of write(parse()), or throw minijson's error
 * naming a byte offset inside the input. Returns whether it parsed.
 */
bool
parsesOrRejects(const std::string &text, const std::string &what)
{
    std::string error;
    try {
        const std::string once = rewrite(minijson::parse(text));
        EXPECT_EQ(rewrite(minijson::parse(once)), once) << what;
        return true;
    } catch (const std::runtime_error &e) {
        error = e.what();
    }
    const std::string marker = " at byte ";
    const std::size_t at = error.rfind(marker);
    EXPECT_EQ(error.rfind("minijson: ", 0), 0u) << what << ": " << error;
    EXPECT_NE(at, std::string::npos) << what << ": " << error;
    if (at != std::string::npos) {
        EXPECT_LE(std::stoull(error.substr(at + marker.size())),
                  text.size())
            << what << ": " << error;
    }
    return false;
}

} // namespace

TEST(MinijsonParse, Scalars)
{
    EXPECT_TRUE(std::holds_alternative<std::nullptr_t>(
        minijson::parse("null").v));
    EXPECT_EQ(std::get<bool>(minijson::parse("true").v), true);
    EXPECT_EQ(std::get<bool>(minijson::parse("false").v), false);
    EXPECT_DOUBLE_EQ(minijson::parse("-12.5e2").num(), -1250.0);
    EXPECT_EQ(minijson::parse("\"a\\nb\\u0041\"").str(), "a\nbA");
}

TEST(MinijsonParse, NestedDocument)
{
    const minijson::Value doc = minijson::parse(
        R"({"runs":[{"id":"mcf/base","ok":true},{"id":"mcf/fsm"}],)"
        R"("seed":7})");
    ASSERT_TRUE(doc.isObject());
    ASSERT_TRUE(doc.has("runs"));
    ASSERT_TRUE(doc.at("runs").isArray());
    EXPECT_EQ(doc.at("runs").array().size(), 2u);
    EXPECT_EQ(doc.at("runs").array()[0].at("id").str(), "mcf/base");
    EXPECT_DOUBLE_EQ(doc.at("seed").num(), 7.0);
    EXPECT_FALSE(doc.has("absent"));
    EXPECT_THROW(doc.at("absent"), std::runtime_error);
}

TEST(MinijsonParse, RejectsNonRfc8259)
{
    // Each deviation must throw, not be half-accepted.
    EXPECT_THROW(minijson::parse(""), std::runtime_error);
    EXPECT_THROW(minijson::parse("{\"a\":1,}"), std::runtime_error);
    EXPECT_THROW(minijson::parse("{a:1}"), std::runtime_error);
    EXPECT_THROW(minijson::parse("[1,2,]"), std::runtime_error);
    EXPECT_THROW(minijson::parse("01"), std::runtime_error);
    EXPECT_THROW(minijson::parse("+1"), std::runtime_error);
    EXPECT_THROW(minijson::parse("1."), std::runtime_error);
    EXPECT_THROW(minijson::parse("NaN"), std::runtime_error);
    EXPECT_THROW(minijson::parse("Infinity"), std::runtime_error);
    EXPECT_THROW(minijson::parse("1e999"), std::runtime_error);
    EXPECT_THROW(minijson::parse("[0,-1e400]"), std::runtime_error);
    EXPECT_THROW(minijson::parse("\"unterminated"), std::runtime_error);
    EXPECT_THROW(minijson::parse("\"bad \\x escape\""),
                 std::runtime_error);
    EXPECT_THROW(minijson::parse("\"\\u00ff\""), std::runtime_error);
    EXPECT_THROW(minijson::parse("{} trailing"), std::runtime_error);
    EXPECT_THROW(minijson::parse("\"raw\ncontrol\""),
                 std::runtime_error);
}

TEST(MinijsonParse, ErrorsNameTheByteOffset)
{
    try {
        minijson::parse("{\"a\": zz}");
        FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("at byte"),
                  std::string::npos);
    }
}

TEST(MinijsonParse, DepthBombsAreRejectedWithTheByteOffset)
{
    constexpr std::size_t limit = minijson::Parser::maxDepth;
    static_assert(limit == 512);

    // A run of '[' is rejected at the first bracket past the limit,
    // long before the end of input, instead of overflowing the stack.
    EXPECT_EQ(parseError(std::string(2'000'000, '[')),
              "minijson: nesting deeper than 512 at byte 512");

    // The same for objects: each level is the 5 bytes {"a":.
    EXPECT_EQ(parseError(repeat("{\"a\":", 2'000'000)),
              "minijson: nesting deeper than 512 at byte " +
                  std::to_string(5 * limit));

    // One level past the limit, even when otherwise well formed.
    EXPECT_EQ(parseError(std::string(limit + 1, '[') +
                         std::string(limit + 1, ']')),
              "minijson: nesting deeper than 512 at byte 512");
}

TEST(MinijsonParse, NestingExactlyAtTheLimitParses)
{
    constexpr std::size_t limit = minijson::Parser::maxDepth;

    const std::string arrays =
        std::string(limit, '[') + std::string(limit, ']');
    const minijson::Value v = minijson::parse(arrays);
    std::size_t depth = 1;
    for (const minijson::Value *p = &v; !p->array().empty();
         p = &p->array()[0]) {
        ++depth;
    }
    EXPECT_EQ(depth, limit);
    EXPECT_EQ(rewrite(v), arrays);

    const std::string objects = repeat("{\"a\":", limit - 1) + "{}" +
                                std::string(limit - 1, '}');
    EXPECT_EQ(rewrite(minijson::parse(objects)), objects);

    // The limit is on nesting, not on the number of containers.
    const std::string siblings = "[" + repeat("[[]],", 4 * limit) + "[]]";
    EXPECT_EQ(minijson::parse(siblings).array().size(), 4 * limit + 1);
}

TEST(MinijsonWrite, CanonicalForm)
{
    // Stable key order (std::map), no whitespace, minimal escapes.
    const minijson::Value doc =
        minijson::parse("{ \"b\" : [1, true, null], \"a\": \"x\\ty\" }");
    EXPECT_EQ(rewrite(doc), "{\"a\":\"x\\ty\",\"b\":[1,true,null]}");
}

TEST(MinijsonWrite, ControlCharacterEscapes)
{
    minijson::Value v;
    v.v = std::string("bell\x07tab\tnl\n");
    EXPECT_EQ(rewrite(v), "\"bell\\u0007tab\\tnl\\n\"");
}

TEST(MinijsonWrite, DoublesRoundTripExactly)
{
    // %.17g must reproduce the exact bits after a parse cycle - the
    // sweep manifest's byte-compatibility (and therefore store
    // replays) depends on it.
    const double values[] = {0.0, 1.0 / 3.0, 6.0221407599999999e23,
                             -2.2250738585072014e-308, 12345.6789,
                             std::numeric_limits<double>::epsilon()};
    for (const double d : values) {
        minijson::Value v;
        v.v = d;
        const std::string text = rewrite(v);
        EXPECT_EQ(minijson::parse(text).num(), d) << text;
    }
}

TEST(MinijsonWrite, NonFiniteNumbersBecomeNull)
{
    // JSON has no NaN/Inf spelling; the writer's documented rule is
    // null, which parses back as 0.0 via the manifest readers.
    for (const double d :
         {std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()}) {
        minijson::Value v;
        v.v = d;
        EXPECT_EQ(rewrite(v), "null");
    }
}

TEST(MinijsonRoundTrip, WriteParseWriteIsStable)
{
    const std::string text =
        R"({"manifest":{"seed":0,"tool":"vsvsim"},"runs":[)"
        R"({"id":"mcf/base","scalars":{"ipc":0.33333333333333331}}]})";
    const std::string once = rewrite(minijson::parse(text));
    const std::string twice = rewrite(minijson::parse(once));
    EXPECT_EQ(once, twice);
}

TEST(MinijsonMutation, TruncatedManifestsAreRejectedAtEveryLength)
{
    const std::string doc = smallManifest();
    const std::string canonical = rewrite(minijson::parse(doc));

    // A prefix that cuts into the document never decodes to part of
    // it; one that only drops trailing whitespace is the whole value.
    const std::size_t end = doc.find_last_not_of(" \t\r\n") + 1;
    for (std::size_t len = 0; len < doc.size(); ++len) {
        const std::string prefix = doc.substr(0, len);
        const std::string what = "truncated to " + std::to_string(len);
        EXPECT_EQ(parsesOrRejects(prefix, what), len >= end) << what;
        if (len >= end) {
            EXPECT_EQ(rewrite(minijson::parse(prefix)), canonical);
        }
    }
}

TEST(MinijsonMutation, BitFlippedManifestsParseOrRejectWithAnOffset)
{
    const std::string doc = smallManifest();
    std::mt19937_64 rng(20031203);
    std::size_t rejected = 0;
    constexpr std::size_t flips = 1000;
    for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t bit = rng() % (doc.size() * 8);
        std::string mutated = doc;
        mutated[bit / 8] =
            static_cast<char>(mutated[bit / 8] ^ (1u << (bit % 8)));
        if (!parsesOrRejects(mutated, "bit " + std::to_string(bit)))
            ++rejected;
    }
    // Flips inside string bodies and digits still parse; most others
    // break the syntax.
    EXPECT_GT(rejected, flips / 4);
    EXPECT_LT(rejected, flips);
}
