#include "bus.hh"

#include "common/intmath.hh"
#include "common/logging.hh"
#include "snapshot/snapshot.hh"

namespace vsv
{

MemoryBus::MemoryBus(const BusConfig &config)
    : config(config)
{
    VSV_ASSERT(config.widthBytes > 0, "bus width must be nonzero");
    VSV_ASSERT(config.occupancy > 0, "bus occupancy must be nonzero");
}

Tick
MemoryBus::reserve(Tick earliest, std::uint32_t bytes)
{
    const std::uint32_t slots =
        bytes == 0 ? 1
                   : static_cast<std::uint32_t>(
                         divCeil(bytes, config.widthBytes));
    const Tick duration =
        static_cast<Tick>(slots) * config.occupancy;

    const Tick start = std::max(earliest, busyUntil);
    queueTicks += static_cast<double>(start - earliest);
    busyUntil = start + duration;

    ++transactions;
    busyTicks += static_cast<double>(duration);
    return busyUntil;
}

void
MemoryBus::snapshot(SnapshotWriter &writer) const
{
    writer.begin("bus");
    writer.u64(busyUntil);
    writer.scalar(transactions);
    writer.scalar(busyTicks);
    writer.scalar(queueTicks);
    // Format 3 keeps the retired per-requestor table's length word.
    writer.u32(0);
    writer.end();
}

void
MemoryBus::restore(SnapshotReader &reader)
{
    reader.begin("bus");
    busyUntil = reader.u64();
    reader.scalar(transactions);
    reader.scalar(busyTicks);
    reader.scalar(queueTicks);
    // Format 3 keeps the retired per-requestor table's length word.
    reader.expectU32(0, "bus requestor count");
    reader.end();
}

void
MemoryBus::regStats(StatRegistry &registry, const std::string &prefix) const
{
    registry.registerScalar(prefix + ".transactions", &transactions,
                            "bus transactions");
    registry.registerScalar(prefix + ".busyTicks", &busyTicks,
                            "ticks the bus was occupied");
    registry.registerScalar(prefix + ".queueTicks", &queueTicks,
                            "ticks transactions waited for the bus");
}

} // namespace vsv
