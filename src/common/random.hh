/**
 * @file
 * Deterministic pseudo-random number generator for workload synthesis.
 *
 * A fixed, seedable generator (xoshiro256**) keeps every simulation
 * bit-reproducible across platforms and standard-library versions;
 * std::mt19937 distributions are not portable across libstdc++/libc++,
 * so all distribution shaping is done here by hand.
 */

#ifndef VSV_COMMON_RANDOM_HH
#define VSV_COMMON_RANDOM_HH

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace vsv
{

/**
 * A geometric distribution's success probability with log1p(-p)
 * precomputed, for callers that draw from one p many times
 * (Rng::nextGeometric).
 */
class GeometricParam
{
  public:
    /** @param p success probability, in (0, 1] */
    explicit GeometricParam(double p);

  private:
    friend class Rng;
    bool certain;      ///< p == 1: every draw is 0 and consumes nothing
    double logFailure; ///< log1p(-p), the draw's denominator
};

/** Portable deterministic RNG (xoshiro256**). */
class Rng
{
  public:
    /** Seed via splitmix64 so nearby seeds give uncorrelated streams. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = std::rotl(state[1] * 5, 7) * 9;
        const std::uint64_t t = state[1] << 17;

        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = std::rotl(state[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). bound must be nonzero. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability p. */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /**
     * Geometric draw: number of failures before the first success with
     * success probability p (p in (0,1]); returns values >= 0.
     */
    std::uint64_t
    nextGeometric(double p)
    {
        return nextGeometric(GeometricParam(p));
    }

    /** nextGeometric() with the parameter's logarithm precomputed. */
    std::uint64_t
    nextGeometric(const GeometricParam &param)
    {
        if (param.certain)
            return 0;
        const double u = nextDouble();
        const double v = std::log1p(-u) / param.logFailure;
        return static_cast<std::uint64_t>(v);
    }

    /** Raw generator state, for snapshot/restore. */
    std::array<std::uint64_t, 4> stateWords() const;

    /** Overwrite the generator state with previously saved words. */
    void setStateWords(const std::array<std::uint64_t, 4> &words);

  private:
    std::uint64_t state[4];
};

} // namespace vsv

#endif // VSV_COMMON_RANDOM_HH
