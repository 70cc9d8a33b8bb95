#include "cache.hh"

#include "common/intmath.hh"
#include "common/logging.hh"
#include "snapshot/snapshot.hh"

namespace vsv
{

Cache::Cache(const CacheConfig &config)
    : config_(config)
{
    // An invalid line's tag is invalidAddr, which a tag (an address
    // shifted right by at least one bit) can never equal.
    VSV_ASSERT(config.blockBytes > 1 && isPowerOf2(config.blockBytes),
               config.name + ": block size must be a power of two above 1");
    VSV_ASSERT(config.assoc > 0, config.name + ": zero associativity");
    VSV_ASSERT(config.sizeBytes % (config.blockBytes * config.assoc) == 0,
               config.name + ": size not divisible by assoc*block");
    numSets_ = static_cast<std::uint32_t>(
        config.sizeBytes / (config.blockBytes * config.assoc));
    VSV_ASSERT(isPowerOf2(numSets_),
               config.name + ": set count must be a power of two");
    blockMask = config.blockBytes - 1;
    blockShift = floorLog2(config.blockBytes);
    setMask = numSets_ - 1;
    const std::size_t lines =
        static_cast<std::size_t>(numSets_) * config.assoc;
    tags.assign(lines, invalidAddr);
    stamps.assign(lines, 0);
    dirty.assign(lines, 0);
}

bool
Cache::probe(Addr addr) const
{
    return findLine(addr) != noLine;
}

CacheVictim
Cache::fill(Addr addr, bool is_dirty)
{
    // Refill of a resident block (e.g. racing fills) just refreshes it.
    if (const std::size_t line = findLine(addr); line != noLine) {
        stamps[line] = ++stamp;
        dirty[line] = dirty[line] || is_dirty;
        return {};
    }

    // Branch-free victim scan: invalid lines carry stamp 0, below any
    // valid line's, so one strict-< min pass selects the first invalid
    // way when there is one and the true-LRU way otherwise.
    const std::size_t base =
        static_cast<std::size_t>(setIndex(addr)) * config_.assoc;
    std::size_t victim = base;
    for (std::size_t line = base + 1; line < base + config_.assoc; ++line) {
        if (stamps[line] < stamps[victim])
            victim = line;
    }

    CacheVictim evicted;
    if (tags[victim] != invalidAddr) {
        evicted.valid = true;
        evicted.blockAddr = tags[victim] << blockShift;
        evicted.dirty = dirty[victim] != 0;
        ++evictions;
        if (evicted.dirty)
            ++dirtyEvictions;
    }

    tags[victim] = addr >> blockShift;
    dirty[victim] = is_dirty;
    stamps[victim] = ++stamp;
    return evicted;
}

void
Cache::invalidate(Addr addr)
{
    if (const std::size_t line = findLine(addr); line != noLine) {
        tags[line] = invalidAddr;
        dirty[line] = false;
        stamps[line] = 0;  // invalid lines must lose the victim scan
    }
}

void
Cache::regStats(StatRegistry &registry, const std::string &prefix) const
{
    registry.registerScalar(prefix + ".hits", &hits_,
                            "lookups that hit");
    registry.registerScalar(prefix + ".misses", &misses_,
                            "lookups that missed");
    registry.registerScalar(prefix + ".evictions", &evictions,
                            "blocks evicted by fills");
    registry.registerScalar(prefix + ".dirtyEvictions", &dirtyEvictions,
                            "dirty blocks evicted (writebacks)");
    registry.registerScalar(prefix + ".writebackSets", &writebackSets,
                            "write hits that newly dirtied a block");
}

void
Cache::snapshot(SnapshotWriter &writer) const
{
    writer.begin("cache:" + config_.name);
    writer.u32(numSets_);
    writer.u32(config_.assoc);
    writer.u32(config_.blockBytes);
    writer.u64(stamp);
    for (std::size_t line = 0; line < tags.size(); ++line) {
        writer.u64(tags[line]);
        writer.b(tags[line] != invalidAddr);
        writer.b(dirty[line] != 0);
        writer.u64(stamps[line]);
    }
    writer.scalar(hits_);
    writer.scalar(misses_);
    writer.scalar(evictions);
    writer.scalar(dirtyEvictions);
    writer.scalar(writebackSets);
    writer.end();
}

void
Cache::restore(SnapshotReader &reader)
{
    reader.begin("cache:" + config_.name);
    reader.expectU32(numSets_, "set count");
    reader.expectU32(config_.assoc, "associativity");
    reader.expectU32(config_.blockBytes, "block size");
    stamp = reader.u64();
    // Every line must be one that fill() and invalidate() can leave
    // behind; anything else would break the lookup (a tag in the wrong
    // set, or twice in one) or the victim scan (stamps out of range).
    const auto bad = [this](std::size_t line, const char *what) {
        throw SnapshotError("snapshot: " + config_.name + " line " +
                            std::to_string(line) + " " + what);
    };
    const Addr max_tag = invalidAddr >> blockShift;
    for (std::size_t line = 0; line < tags.size(); ++line) {
        const Addr tag = reader.u64();
        const bool valid = reader.b();
        const bool is_dirty = reader.b();
        const std::uint64_t line_stamp = reader.u64();
        if (valid != (tag != invalidAddr))
            bad(line, "has a valid flag that disagrees with its tag");
        if (!valid) {
            if (is_dirty || line_stamp != 0)
                bad(line, "is invalid but dirty or stamped");
        } else {
            if (line_stamp == 0 || line_stamp > stamp)
                bad(line, "has an LRU stamp outside [1, cache stamp]");
            const std::size_t set = line / config_.assoc;
            if (tag > max_tag || (tag & setMask) != set)
                bad(line, "holds a tag of another set");
            for (std::size_t other = set * config_.assoc; other < line;
                 ++other) {
                if (tags[other] == tag)
                    bad(line, "repeats a tag of its set");
            }
        }
        tags[line] = tag;
        dirty[line] = is_dirty;
        stamps[line] = line_stamp;
    }
    reader.scalar(hits_);
    reader.scalar(misses_);
    reader.scalar(evictions);
    reader.scalar(dirtyEvictions);
    reader.scalar(writebackSets);
    reader.end();
}

} // namespace vsv
