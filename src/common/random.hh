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
#include <cstddef>
#include <cstdint>

namespace vsv
{

/**
 * A geometric distribution's success probability, prepared for callers
 * that draw from one p many times (Rng::nextGeometric).
 *
 * A draw maps the 53-bit mantissa m of one raw value to
 * (uint64)(log1p(-m * 2^-53) / log1p(-p)), a non-decreasing function
 * of m. The parameter stores, for each k below tableDraws, the
 * smallest m whose draw is at least k + 1, each found by evaluating
 * that exact expression. A draw below tableDraws is then the number
 * of thresholds at or below m: the formula's answer, bit for bit, with
 * no logarithm. Larger draws evaluate the formula.
 *
 * Most draws take one lookup: a table over the top directBits bits of
 * m holds, for each bucket no threshold splits, the draw every m in it
 * shares. Only the buckets a threshold falls inside (a few dozen of
 * 4096 at the workloads' dependence distances) scan the thresholds.
 */
class GeometricParam
{
  public:
    /** Draws the threshold table answers without a logarithm. */
    static constexpr std::size_t tableDraws = 256;

    /** @param p success probability, in (0, 1] */
    explicit GeometricParam(double p);

    /** The draw for the 53-bit mantissa m of one raw value. */
    std::uint64_t
    draw(std::uint64_t m) const
    {
        const std::uint8_t k = direct[m >> directShift];
        if (k != straddled)
            return k;
        return scan(m);
    }

    /** draw() by the threshold scan alone, for every bucket. */
    std::uint64_t
    scan(std::uint64_t m) const
    {
        std::size_t k = start[m >> bucketShift];
        while (k < tableDraws && thr[k] <= m)
            ++k;
        if (k < tableDraws)
            return k;
        return static_cast<std::uint64_t>(drawValue(m));
    }

    /** thresholds()[k]: the smallest m whose draw is >= k + 1, or
     *  2^53 when no 53-bit m draws that much. */
    const std::array<std::uint64_t, tableDraws> &
    thresholds() const
    {
        return thr;
    }

  private:
    friend class Rng;

    /** Start-index buckets over the top bits of m. */
    static constexpr unsigned bucketBits = 10;
    static constexpr unsigned bucketShift = 53 - bucketBits;
    /** One-lookup buckets over the top bits of m. */
    static constexpr unsigned directBits = 12;
    static constexpr unsigned directShift = 53 - directBits;
    /** A direct entry for a bucket that needs the scan. */
    static constexpr std::uint8_t straddled = 0xff;

    /** The unfloored draw for mantissa m: the formula itself. */
    double
    drawValue(std::uint64_t m) const
    {
        const double u = static_cast<double>(m) * 0x1.0p-53;
        return std::log1p(-u) / logFailure;
    }

    /** Smallest m in [lo, 2^53) whose draw reaches `target`, or 2^53. */
    std::uint64_t threshold(double target, std::uint64_t lo) const;

    bool certain;      ///< p == 1: every draw is 0 and consumes nothing
    double logFailure; ///< log1p(-p), the draw's denominator
    std::array<std::uint64_t, tableDraws> thr{}; ///< see thresholds()
    /** start[b]: the draw at m = b << bucketShift, where scans begin. */
    std::array<std::uint16_t, std::size_t{1} << bucketBits> start{};
    /** direct[b]: the draw of every m in bucket b when no threshold
     *  lies inside it and that draw is below `straddled`; else
     *  `straddled`. */
    std::array<std::uint8_t, std::size_t{1} << directBits> direct{};
};

/**
 * The integer form of the test nextDouble() < p. A draw's 53-bit
 * mantissa m = next() >> 11 scales to exactly m * 2^-53, and scaling
 * p by 2^53 is exact too, so m * 2^-53 < p holds exactly when
 * m < ceil(p * 2^53). The result is clamped to [0, 2^53]: 0 when no
 * draw passes (p <= 0, or NaN), 2^53 when every draw does (p >= 1).
 */
constexpr std::uint64_t
mantissaCut(double p)
{
    constexpr std::uint64_t all = std::uint64_t{1} << 53;
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return all;
    const double scaled = p * 0x1.0p53;
    const auto whole = static_cast<std::uint64_t>(scaled);
    return static_cast<double>(whole) == scaled ? whole : whole + 1;
}

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
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        // A power of two has rejection threshold 0: masking returns
        // exactly what the rejection loop would. (The test is spelled
        // out: std::has_single_bit is a library call on targets
        // without a popcount instruction.)
        if (bound != 0 && (bound & (bound - 1)) == 0)
            return next() & (bound - 1);
        return nextBoundedRejecting(bound);
    }

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
     * success probability p (p in (0,1]); returns values >= 0. Builds
     * no table: this evaluates the formula GeometricParam tabulates.
     */
    std::uint64_t nextGeometric(double p);

    /** nextGeometric() through the parameter's threshold table. */
    std::uint64_t
    nextGeometric(const GeometricParam &param)
    {
        if (param.certain)
            return 0;
        return param.draw(next() >> 11);
    }

    /** Raw generator state, for snapshot/restore. */
    std::array<std::uint64_t, 4> stateWords() const;

    /** Overwrite the generator state with previously saved words. */
    void setStateWords(const std::array<std::uint64_t, 4> &words);

  private:
    /** nextBounded() for a bound that is not a power of two. */
    std::uint64_t nextBoundedRejecting(std::uint64_t bound);

    std::uint64_t state[4];
};

} // namespace vsv

#endif // VSV_COMMON_RANDOM_HH
