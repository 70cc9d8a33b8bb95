#include "random.hh"

#include <cmath>
#include <cstddef>

#include "logging.hh"

namespace vsv
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state)
        word = splitmix64(s);
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    VSV_ASSERT(bound != 0, "nextBounded() with zero bound");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::array<std::uint64_t, 4>
Rng::stateWords() const
{
    return {state[0], state[1], state[2], state[3]};
}

void
Rng::setStateWords(const std::array<std::uint64_t, 4> &words)
{
    for (std::size_t i = 0; i < words.size(); ++i)
        state[i] = words[i];
}

GeometricParam::GeometricParam(double p)
    : certain(p >= 1.0),
      logFailure(std::log1p(-p))
{
    VSV_ASSERT(p > 0.0 && p <= 1.0, "geometric parameter out of range");
}

} // namespace vsv
