#include "mshr.hh"

#include "common/logging.hh"
#include "snapshot/snapshot.hh"

namespace vsv
{

MshrFile::MshrFile(std::string name, std::uint32_t entries)
    : name(std::move(name)),
      capacity(entries),
      blockAddrs(entries, invalidAddr),
      entries(entries)
{
    VSV_ASSERT(entries > 0, this->name + ": zero MSHR entries");
}

MshrEntry *
MshrFile::allocate(Addr block_addr, Tick now)
{
    VSV_ASSERT(block_addr != invalidAddr,
               name + ": allocation for the invalid address");
    VSV_ASSERT(find(block_addr) == nullptr,
               name + ": duplicate MSHR allocation");
    VSV_ASSERT(draining == 0,
               name + ": allocation while a released entry is draining");
    if (full())
        return nullptr;
    for (std::uint32_t i = 0; i < capacity; ++i) {
        if (blockAddrs[i] != invalidAddr)
            continue;
        blockAddrs[i] = block_addr;
        if (i >= highWater)
            highWater = i + 1;
        MshrEntry &entry = entries[i];
        entry.isWrite = false;
        entry.demand = false;
        entry.allocated = now;
        entry.targets.clear();
        ++used;
        ++allocations;
        return &entry;
    }
    panic(name + ": inconsistent MSHR occupancy accounting");
}

MshrFile::Released
MshrFile::release(Addr block_addr)
{
    MshrEntry *entry = find(block_addr);
    VSV_ASSERT(entry != nullptr, name + ": release of untracked block");
    blockAddrs[static_cast<std::size_t>(entry - entries.data())] =
        invalidAddr;
    while (highWater > 0 && blockAddrs[highWater - 1] == invalidAddr)
        --highWater;
    --used;
    return Released(*this, *entry);
}

std::uint32_t
MshrFile::demandOutstanding() const
{
    std::uint32_t n = 0;
    for (std::uint32_t i = 0; i < highWater; ++i) {
        if (blockAddrs[i] != invalidAddr && entries[i].demand)
            ++n;
    }
    return n;
}

void
MshrFile::snapshot(SnapshotWriter &writer) const
{
    VSV_ASSERT(used == 0,
               name + ": snapshot of a non-drained MSHR file");
    writer.begin("mshr:" + name);
    writer.u32(capacity);
    writer.u32(used);
    writer.scalar(allocations);
    writer.scalar(merges);
    writer.scalar(fullStalls);
    writer.end();
}

void
MshrFile::restore(SnapshotReader &reader)
{
    VSV_ASSERT(used == 0,
               name + ": restore into a non-drained MSHR file");
    reader.begin("mshr:" + name);
    reader.expectU32(capacity, "MSHR capacity");
    reader.expectU32(0, "in-flight MSHR count");
    reader.scalar(allocations);
    reader.scalar(merges);
    reader.scalar(fullStalls);
    reader.end();
}

void
MshrFile::regStats(StatRegistry &registry, const std::string &prefix) const
{
    registry.registerScalar(prefix + ".allocations", &allocations,
                            "MSHR entries allocated");
    registry.registerScalar(prefix + ".merges", &merges,
                            "misses merged into an existing entry");
    registry.registerScalar(prefix + ".fullStalls", &fullStalls,
                            "allocation attempts rejected (file full)");
}

} // namespace vsv
