/**
 * @file
 * Split-transaction, pipelined memory bus between the L2 cache and
 * DRAM. Per Table 1 it is 32 bytes wide with a 4-cycle occupancy per
 * transfer; a transaction of N bytes therefore occupies the bus for
 * ceil(N/32) * 4 ticks. Requests and responses arbitrate for the same
 * wires in arrival order (no priorities), which matches the
 * sim-outorder bus model the paper's infrastructure used.
 */

#ifndef VSV_CACHE_BUS_HH
#define VSV_CACHE_BUS_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "stats/stats.hh"

namespace vsv
{

class SnapshotReader;
class SnapshotWriter;

/** Bus timing parameters. */
struct BusConfig
{
    std::uint32_t widthBytes = 32;   ///< bytes moved per occupancy slot
    std::uint32_t occupancy = 4;     ///< ticks a slot occupies the bus
};

/** The L2<->memory bus. */
class MemoryBus
{
  public:
    explicit MemoryBus(const BusConfig &config = {});

    /**
     * Reserve the bus for a transaction of `bytes` payload bytes (0 for
     * an address-only request packet, which still takes one slot).
     *
     * @param earliest first tick the requester could drive the bus
     * @return the tick at which the transaction *completes* (i.e. the
     *         payload has fully transferred)
     */
    Tick reserve(Tick earliest, std::uint32_t bytes);

    /** Tick at which the bus next becomes free. */
    Tick freeAt() const { return busyUntil; }

    void regStats(StatRegistry &registry, const std::string &prefix) const;

    /** Serialize occupancy horizon and stats. */
    void snapshot(SnapshotWriter &writer) const;

    /** Restore state saved by snapshot(). */
    void restore(SnapshotReader &reader);

  private:
    BusConfig config;
    Tick busyUntil = 0;

    Scalar transactions;
    Scalar busyTicks;
    Scalar queueTicks;  ///< ticks transactions spent waiting for the bus
};

} // namespace vsv

#endif // VSV_CACHE_BUS_HH
