#include "logging.hh"

#include <iostream>
#include <string>

namespace vsv
{

void
logMessage(std::string_view tag, const std::string &msg)
{
    // One insertion is one write to stderr, so lines from concurrent
    // sweep workers never interleave.
    std::string line;
    line.reserve(tag.size() + 2 + msg.size() + 1);
    line.append(tag).append(": ").append(msg).push_back('\n');
    std::cerr << line;
}

void
panic(const std::string &msg)
{
    logMessage("panic", msg);
    std::abort();
}

namespace
{

// Depth, not a flag, so nested harness scopes unwind correctly.
thread_local int throwing_fatal_depth = 0;

} // namespace

ScopedThrowingFatal::ScopedThrowingFatal()
{
    ++throwing_fatal_depth;
}

ScopedThrowingFatal::~ScopedThrowingFatal()
{
    --throwing_fatal_depth;
}

bool
fatalThrows()
{
    return throwing_fatal_depth > 0;
}

void
fatal(const std::string &msg)
{
    if (fatalThrows())
        throw FatalError(msg);
    logMessage("fatal", msg);
    std::exit(1);
}

void
warn(const std::string &msg)
{
    logMessage("warn", msg);
}

void
inform(const std::string &msg)
{
    logMessage("info", msg);
}

} // namespace vsv
