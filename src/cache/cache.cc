#include "cache.hh"

#include "common/intmath.hh"
#include "common/logging.hh"
#include "snapshot/snapshot.hh"

namespace vsv
{

Cache::Cache(const CacheConfig &config)
    : config_(config)
{
    VSV_ASSERT(config.blockBytes > 0 && isPowerOf2(config.blockBytes),
               config.name + ": block size must be a power of two");
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
    lines.resize(static_cast<std::size_t>(numSets_) * config.assoc);
}

bool
Cache::probe(Addr addr) const
{
    return findLine(addr) != nullptr;
}

CacheVictim
Cache::fill(Addr addr, bool dirty)
{
    const Addr tag = addr >> blockShift;
    Line *base = &lines[static_cast<std::size_t>(setIndex(addr)) *
                        config_.assoc];

    // Refill of a resident block (e.g. racing fills) just refreshes it.
    if (Line *line = findLine(addr)) {
        line->lruStamp = ++stamp;
        line->dirty = line->dirty || dirty;
        return {};
    }

    // Branch-free victim scan: invalid lines carry stamp 0, below any
    // valid line's, so one strict-< min pass selects the first invalid
    // way when there is one and the true-LRU way otherwise.
    Line *victim = &base[0];
    for (std::uint32_t way = 1; way < config_.assoc; ++way) {
        if (base[way].lruStamp < victim->lruStamp)
            victim = &base[way];
    }

    CacheVictim evicted;
    if (victim->valid) {
        evicted.valid = true;
        evicted.blockAddr = victim->tag << blockShift;
        evicted.dirty = victim->dirty;
        ++evictions;
        if (victim->dirty)
            ++dirtyEvictions;
    }

    victim->valid = true;
    victim->tag = tag;
    victim->dirty = dirty;
    victim->lruStamp = ++stamp;
    return evicted;
}

void
Cache::invalidate(Addr addr)
{
    if (Line *line = findLine(addr)) {
        line->valid = false;
        line->dirty = false;
        line->tag = invalidAddr;
        line->lruStamp = 0;  // invalid lines must lose the victim scan
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
    for (const Line &line : lines) {
        writer.u64(line.tag);
        writer.b(line.valid);
        writer.b(line.dirty);
        writer.u64(line.lruStamp);
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
    for (Line &line : lines) {
        line.tag = reader.u64();
        line.valid = reader.b();
        line.dirty = reader.b();
        line.lruStamp = reader.u64();
    }
    reader.scalar(hits_);
    reader.scalar(misses_);
    reader.scalar(evictions);
    reader.scalar(dirtyEvictions);
    reader.scalar(writebackSets);
    reader.end();
}

} // namespace vsv
