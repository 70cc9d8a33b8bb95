#include "random.hh"

#include <algorithm>
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
Rng::nextBoundedRejecting(std::uint64_t bound)
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

std::uint64_t
Rng::nextGeometric(double p)
{
    VSV_ASSERT(p > 0.0 && p <= 1.0, "geometric parameter out of range");
    if (p >= 1.0)
        return 0;
    const double u = nextDouble();
    return static_cast<std::uint64_t>(std::log1p(-u) / std::log1p(-p));
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

namespace
{

/** One past the largest 53-bit mantissa: "no such m". */
constexpr std::uint64_t mantissaLimit = std::uint64_t{1} << 53;

} // namespace

GeometricParam::GeometricParam(double p)
    : certain(p >= 1.0),
      logFailure(std::log1p(-p))
{
    VSV_ASSERT(p > 0.0 && p <= 1.0, "geometric parameter out of range");
    thr.fill(mantissaLimit);
    if (certain)
        return;
    // Every m below thr[k - 1] draws below k, so the search for
    // thr[k] starts there.
    std::uint64_t lo = 0;
    for (std::size_t k = 0; k < tableDraws; ++k) {
        thr[k] = threshold(static_cast<double>(k + 1), lo);
        if (thr[k] == mantissaLimit)
            break;
        lo = thr[k];
    }
    std::size_t k = 0;
    for (std::size_t b = 0; b < start.size(); ++b) {
        const std::uint64_t m = std::uint64_t{b} << bucketShift;
        while (k < tableDraws && thr[k] <= m)
            ++k;
        start[b] = static_cast<std::uint16_t>(k);
    }
    // A bucket's draws are all k, the draw at its first m, exactly
    // when the next threshold lies past its last m.
    k = 0;
    for (std::size_t b = 0; b < direct.size(); ++b) {
        const std::uint64_t first = std::uint64_t{b} << directShift;
        const std::uint64_t last =
            first + (std::uint64_t{1} << directShift) - 1;
        while (k < tableDraws && thr[k] <= first)
            ++k;
        direct[b] = k < straddled && thr[k] > last
                        ? static_cast<std::uint8_t>(k)
                        : straddled;
    }
}

std::uint64_t
GeometricParam::threshold(double target, std::uint64_t lo) const
{
    std::uint64_t hi = mantissaLimit - 1;
    if (drawValue(hi) < target)
        return mantissaLimit;
    // Invariant: every m < lo draws below target; hi draws at or
    // above it. The exact distribution crosses target at
    // u = 1 - (1-p)^target, so the rounded formula crosses within a
    // few hundred mantissa steps of there: bracket that point with a
    // doubling window, then bisect.
    const double guess = std::clamp(-std::expm1(target * logFailure) *
                                        0x1.0p53,
                                    0.0, static_cast<double>(hi));
    const std::uint64_t g =
        std::clamp(static_cast<std::uint64_t>(guess), lo, hi);
    if (drawValue(g) >= target) {
        hi = g;
        for (std::uint64_t step = 64; step < hi - lo; step *= 2) {
            if (drawValue(hi - step) < target) {
                lo = hi - step + 1;
                break;
            }
            hi -= step;
        }
    } else {
        lo = g + 1;
        for (std::uint64_t step = 64; step < hi - lo; step *= 2) {
            if (drawValue(lo + step) >= target) {
                hi = lo + step;
                break;
            }
            lo += step + 1;
        }
    }
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (drawValue(mid) >= target)
            hi = mid;
        else
            lo = mid + 1;
    }
    return hi;
}

} // namespace vsv
