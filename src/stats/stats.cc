#include "stats.hh"

#include <cmath>
#include <cstdio>
#include <iomanip>

namespace vsv
{

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    // %.17g round-trips every double; trim to the shortest exact form
    // is not worth the code here.
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

Distribution::Distribution(std::uint64_t min, std::uint64_t max,
                           std::uint64_t bucket_size,
                           std::uint64_t tally_limit)
    : min(min), max(max), bucketSize(bucket_size), tallies(tally_limit, 0)
{
    VSV_ASSERT(max >= min, "distribution max below min");
    VSV_ASSERT(bucket_size > 0, "distribution bucket size zero");
    buckets_.resize((max - min) / bucket_size + 1, 0);
}

void
Distribution::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    std::fill(tallies.begin(), tallies.end(), 0);
    underflow_ = overflow_ = samples_ = 0;
    sum = 0.0;
}

std::uint64_t
Distribution::samples() const
{
    std::uint64_t total = samples_;
    for (const std::uint64_t count : tallies)
        total += count;
    return total;
}

double
Distribution::mean() const
{
    double total = sum;
    for (std::size_t v = 0; v < tallies.size(); ++v) {
        total += static_cast<double>(v) *
                 static_cast<double>(tallies[v]);
    }
    const std::uint64_t n = samples();
    return n == 0 ? 0.0 : total / static_cast<double>(n);
}

std::uint64_t
Distribution::underflow() const
{
    std::uint64_t total = underflow_;
    for (std::size_t v = 0; v < tallies.size() && v < min; ++v)
        total += tallies[v];
    return total;
}

std::uint64_t
Distribution::overflow() const
{
    std::uint64_t total = overflow_;
    for (std::size_t v = max + 1; v < tallies.size(); ++v)
        total += tallies[v];
    return total;
}

std::vector<std::uint64_t>
Distribution::buckets() const
{
    std::vector<std::uint64_t> folded = buckets_;
    for (std::size_t v = min; v < tallies.size() && v <= max; ++v)
        folded[(v - min) / bucketSize] += tallies[v];
    return folded;
}

void
StatRegistry::registerScalar(const std::string &name, const Scalar *stat,
                             const std::string &desc)
{
    VSV_ASSERT(stat != nullptr, "null scalar registered: " + name);
    VSV_ASSERT(!scalars.count(name), "duplicate scalar stat: " + name);
    scalars.emplace(name, ScalarEntry{stat, nullptr, desc});
}

void
StatRegistry::registerScalar(const std::string &name, const Counter *stat,
                             const std::string &desc)
{
    VSV_ASSERT(stat != nullptr, "null scalar registered: " + name);
    VSV_ASSERT(!scalars.count(name), "duplicate scalar stat: " + name);
    scalars.emplace(name, ScalarEntry{nullptr, stat, desc});
}

void
StatRegistry::registerDistribution(const std::string &name,
                                   const Distribution *stat,
                                   const std::string &desc)
{
    VSV_ASSERT(stat != nullptr, "null distribution registered: " + name);
    VSV_ASSERT(!dists.count(name), "duplicate distribution stat: " + name);
    dists.emplace(name, DistEntry{stat, desc});
}

double
StatRegistry::scalarValue(const std::string &name) const
{
    auto it = scalars.find(name);
    if (it == scalars.end())
        panic("unknown scalar stat: " + name);
    return it->second.value();
}

bool
StatRegistry::hasScalar(const std::string &name) const
{
    return scalars.count(name) != 0;
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const auto &[name, entry] : scalars) {
        os << std::left << std::setw(44) << name << std::right
           << std::setw(18) << std::setprecision(6) << std::fixed
           << entry.value() << "  # " << entry.desc << '\n';
    }
    for (const auto &[name, entry] : dists) {
        os << name << "  # " << entry.desc << " (samples="
           << entry.stat->samples() << ", mean=" << entry.stat->mean()
           << ")\n";
        const auto &buckets = entry.stat->buckets();
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            if (buckets[i] == 0)
                continue;
            os << "  " << name << "::" << entry.stat->bucketLow(i)
               << ' ' << buckets[i] << '\n';
        }
        if (entry.stat->underflow())
            os << "  " << name << "::underflow "
               << entry.stat->underflow() << '\n';
        if (entry.stat->overflow())
            os << "  " << name << "::overflow "
               << entry.stat->overflow() << '\n';
    }
}

void
StatRegistry::dumpJson(std::ostream &os) const
{
    os << "{\"scalars\":{";
    bool first = true;
    for (const auto &[name, entry] : scalars) {
        os << (first ? "" : ",") << '"' << jsonEscape(name)
           << "\":" << jsonNumber(entry.value());
        first = false;
    }
    os << "},\"distributions\":{";
    first = true;
    for (const auto &[name, entry] : dists) {
        os << (first ? "" : ",") << '"' << jsonEscape(name) << "\":{"
           << "\"samples\":" << entry.stat->samples()
           << ",\"mean\":" << jsonNumber(entry.stat->mean())
           << ",\"underflow\":" << entry.stat->underflow()
           << ",\"overflow\":" << entry.stat->overflow()
           << ",\"buckets\":{";
        const auto &buckets = entry.stat->buckets();
        bool first_bucket = true;
        for (std::size_t i = 0; i < buckets.size(); ++i) {
            if (buckets[i] == 0)
                continue;
            os << (first_bucket ? "" : ",") << '"'
               << entry.stat->bucketLow(i) << "\":" << buckets[i];
            first_bucket = false;
        }
        os << "}}";
        first = false;
    }
    os << "}}";
}

std::map<std::string, double>
StatRegistry::scalarMap() const
{
    std::map<std::string, double> values;
    for (const auto &[name, entry] : scalars)
        values.emplace(name, entry.value());
    return values;
}

} // namespace vsv
