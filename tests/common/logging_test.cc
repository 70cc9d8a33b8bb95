/**
 * @file
 * Tests of the error-reporting helpers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"

namespace vsv
{
namespace
{

TEST(LoggingTest, PanicAborts)
{
    EXPECT_DEATH(panic("broken invariant"), "broken invariant");
}

TEST(LoggingTest, FatalExitsWithOne)
{
    EXPECT_EXIT(fatal("bad config"), ::testing::ExitedWithCode(1),
                "bad config");
}

TEST(LoggingTest, AssertMacroPassesAndFails)
{
    VSV_ASSERT(1 + 1 == 2, "arithmetic works");  // must not fire
    EXPECT_DEATH(VSV_ASSERT(false, "assertion text"), "assertion text");
}

TEST(LoggingTest, AssertMessageIncludesLocation)
{
    EXPECT_DEATH(VSV_ASSERT(false, "located"), "logging_test.cc");
}

TEST(LoggingTest, WarnAndInformDoNotTerminate)
{
    warn("just a warning");
    inform("just information");
    SUCCEED();
}

TEST(LoggingTest, ConcurrentWarningsComeOutAsWholeLines)
{
    // Sweep workers warn from several threads at once; each line must
    // reach stderr in one piece.
    constexpr int threads = 8;
    constexpr int linesPerThread = 200;
    const auto message = [](int t, int i) {
        return "thread " + std::to_string(t) + " line " +
               std::to_string(i) + " " + std::string(100, 'a' + t);
    };
    testing::internal::CaptureStderr();
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < linesPerThread; ++i)
                warn(message(t, i));
        });
    }
    go = true;
    for (std::thread &worker : workers)
        worker.join();
    const std::string captured = testing::internal::GetCapturedStderr();

    std::set<std::string> expected;
    for (int t = 0; t < threads; ++t)
        for (int i = 0; i < linesPerThread; ++i)
            expected.insert("warn: " + message(t, i));
    std::istringstream lines(captured);
    std::size_t count = 0;
    for (std::string line; std::getline(lines, line); ++count)
        EXPECT_EQ(expected.erase(line), 1u) << "torn line: " << line;
    EXPECT_EQ(count, std::size_t{threads * linesPerThread});
    EXPECT_TRUE(expected.empty());
}

TEST(LoggingTest, ScopedThrowingFatalTurnsFatalIntoException)
{
    ScopedThrowingFatal guard;
    EXPECT_THROW(fatal("bad config, but recoverable"), FatalError);
    try {
        fatal("message preserved");
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "message preserved");
    }
}

TEST(LoggingTest, ThrowingFatalScopesNest)
{
    EXPECT_FALSE(fatalThrows());
    {
        ScopedThrowingFatal outer;
        EXPECT_TRUE(fatalThrows());
        {
            ScopedThrowingFatal inner;
            EXPECT_TRUE(fatalThrows());
        }
        // Still inside the outer scope.
        EXPECT_TRUE(fatalThrows());
    }
    EXPECT_FALSE(fatalThrows());
}

TEST(LoggingTest, FatalStillExitsOutsideThrowingScope)
{
    {
        ScopedThrowingFatal guard;
    }
    EXPECT_EXIT(fatal("back to exiting"), ::testing::ExitedWithCode(1),
                "back to exiting");
}

TEST(LoggingTest, PanicAbortsEvenInsideThrowingScope)
{
    // Invariant violations must never be swallowed by fault isolation.
    ScopedThrowingFatal guard;
    EXPECT_DEATH(panic("invariant, not config"), "invariant");
}

} // namespace
} // namespace vsv
