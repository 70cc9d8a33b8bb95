/**
 * @file
 * Lightweight statistics package.
 *
 * Components own Scalar / Formula / Distribution objects and register
 * them (by hierarchical dotted name) with a StatRegistry. The harness
 * dumps the registry after a run. Stats are plain accumulators
 * because every experiment in the paper reports whole-run aggregates;
 * time-resolved views are layered on top by src/trace's
 * IntervalStatsSampler, which reads registered scalars periodically
 * and bins the deltas into epochs without touching this package.
 */

#ifndef VSV_STATS_STATS_HH
#define VSV_STATS_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"

namespace vsv
{

/**
 * Minimal JSON emission helpers shared by the stats dump and the
 * sweep-runner manifest (no external JSON dependency).
 */
std::string jsonEscape(std::string_view s);
/** Finite doubles in full round-trip precision; non-finite -> null. */
std::string jsonNumber(double value);

/** A monotonically accumulated counter / sum. */
class Scalar
{
  public:
    Scalar() = default;

    Scalar &operator++() { value_ += 1.0; return *this; }
    Scalar &operator+=(double v) { value_ += v; return *this; }

    void reset() { value_ = 0.0; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * A whole-number counter: integer increments, read as the double a
 * Scalar fed the same increments holds. Every partial sum of whole
 * numbers below 2^53 is exact as a double, so up to 2^53 the
 * conversion at read gives that double to the bit, and an increment
 * costs no floating-point read-modify-write.
 */
class Counter
{
  public:
    explicit Counter(std::uint64_t count = 0) : count_(count) {}

    Counter &operator++() { ++count_; return *this; }
    Counter &operator+=(std::uint64_t n) { count_ += n; return *this; }

    void reset() { count_ = 0; }
    std::uint64_t count() const { return count_; }
    double value() const { return static_cast<double>(count_); }

  private:
    std::uint64_t count_ = 0;
};

/**
 * Histogram over a fixed linear bucket range, with under/overflow.
 *
 * Values below an optional tally limit are only added to a per-value
 * integer count, and the getters fold those counts in as they read.
 * Sample values and counts are whole numbers, so the sum is one too,
 * and while it stays below 2^53 every grouping of it is exact: a
 * folded read returns exactly what bucketing each value as it came
 * would have accumulated.
 */
class Distribution
{
  public:
    /**
     * @param min lowest bucketed value
     * @param max highest bucketed value (inclusive)
     * @param bucket_size width of each bucket
     * @param tally_limit values below it are tallied per value
     */
    Distribution(std::uint64_t min, std::uint64_t max,
                 std::uint64_t bucket_size, std::uint64_t tally_limit = 0);

    /** Record `count` samples of `value`. Inline: the core samples
     *  its issue rate every pipeline cycle, a tallied value. */
    void
    sample(std::uint64_t value, std::uint64_t count = 1)
    {
        if (value < tallies.size()) {
            tallies[value] += count;
            return;
        }
        samples_ += count;
        sum += static_cast<double>(value) * static_cast<double>(count);
        if (value < min) {
            underflow_ += count;
        } else if (value > max) {
            overflow_ += count;
        } else {
            buckets_[(value - min) / bucketSize] += count;
        }
    }

    void reset();

    std::uint64_t samples() const;
    double mean() const;
    std::uint64_t underflow() const;
    std::uint64_t overflow() const;
    std::vector<std::uint64_t> buckets() const;
    std::uint64_t bucketLow(std::size_t i) const
    {
        return min + i * bucketSize;
    }

  private:
    std::uint64_t min;
    std::uint64_t max;
    std::uint64_t bucketSize;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t samples_ = 0;
    double sum = 0.0;
    /** tallies[v]: samples of value v, for v below the tally limit. */
    std::vector<std::uint64_t> tallies;
};

/**
 * Registry of named stats; owns nothing, components keep ownership of
 * their accumulators and must outlive the registry dump.
 */
class StatRegistry
{
  public:
    void registerScalar(const std::string &name, const Scalar *stat,
                        const std::string &desc);
    /** A Counter registers as a scalar: it reads as a double. */
    void registerScalar(const std::string &name, const Counter *stat,
                        const std::string &desc);
    void registerDistribution(const std::string &name,
                              const Distribution *stat,
                              const std::string &desc);

    /** Look up a registered scalar's current value; panics if absent. */
    double scalarValue(const std::string &name) const;

    /** True if a scalar with this name exists. */
    bool hasScalar(const std::string &name) const;

    /** Dump all stats, sorted by name. */
    void dump(std::ostream &os) const;

    /**
     * Dump all stats as one JSON object,
     * `{"scalars": {...}, "distributions": {...}}`, for the sweep
     * runner's machine-readable results (see DESIGN.md for the
     * schema). Every registered scalar appears, sorted by name.
     */
    void dumpJson(std::ostream &os) const;

    /** Snapshot of every registered scalar's current value. */
    std::map<std::string, double> scalarMap() const;

  private:
    /** One of `scalar` and `counter` is set. */
    struct ScalarEntry
    {
        const Scalar *scalar;
        const Counter *counter;
        std::string desc;

        double
        value() const
        {
            return scalar ? scalar->value() : counter->value();
        }
    };
    struct DistEntry
    {
        const Distribution *stat;
        std::string desc;
    };

    std::map<std::string, ScalarEntry> scalars;
    std::map<std::string, DistEntry> dists;
};

} // namespace vsv

#endif // VSV_STATS_STATS_HH
