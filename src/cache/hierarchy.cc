#include "hierarchy.hh"

#include "common/logging.hh"
#include "snapshot/snapshot.hh"

namespace vsv
{

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig &config,
                                 PowerModel &power)
    : config_(config),
      power(power),
      l1i(config.l1i),
      l1d(config.l1d),
      l2(config.l2),
      l1iMshrs("l1i.mshr", config.l1iMshrs),
      l1dMshrs("l1d.mshr", config.l1dMshrs),
      l2Mshrs("l2.mshr", config.l2Mshrs),
      bus(config.bus),
      dram(config.dram)
{
    VSV_ASSERT(config.l2.blockBytes >= config.l1d.blockBytes,
               "L2 block must be at least the L1D block size");
    VSV_ASSERT(config.l2.blockBytes >= config.l1i.blockBytes,
               "L2 block must be at least the L1I block size");
}

void
MemoryHierarchy::setPrefetcher(Prefetcher *engine)
{
    prefetcher = engine;
    if (prefetcher)
        prefetcher->setIssuer(this);
}

MemAccessOutcome
MemoryHierarchy::dataAccess(Addr addr, bool is_write, bool is_prefetch,
                            Tick now, MissTarget on_complete)
{
    power.recordAccess(PowerStructure::L1DCache);
    power.recordAccess(PowerStructure::LevelConverters);

    const bool hit = l1d.access(addr, is_write).hit;
    if (prefetcher && !is_prefetch)
        prefetcher->notifyL1DAccess(addr, hit, now);

    if (hit)
        return {true, true, config_.l1d.hitLatency};

    return l1MissPath(Side::Data, addr, is_write, is_prefetch, now,
                      std::move(on_complete));
}

MemAccessOutcome
MemoryHierarchy::instFetch(Addr pc, Tick now, MissTarget on_complete)
{
    power.recordAccess(PowerStructure::L1ICache);
    power.recordAccess(PowerStructure::LevelConverters);

    if (l1i.access(pc, false).hit)
        return {true, true, config_.l1i.hitLatency};

    return l1MissPath(Side::Inst, pc, false, false, now,
                      std::move(on_complete));
}

MemAccessOutcome
MemoryHierarchy::l1MissPath(Side side, Addr addr, bool is_write,
                            bool is_prefetch, Tick now,
                            MissTarget on_complete)
{
    Cache &l1 = side == Side::Inst ? l1i : l1d;
    MshrFile &mshrs = side == Side::Inst ? l1iMshrs : l1dMshrs;
    const Addr l1_block = l1.blockAlign(addr);

    // The Time-Keeping prefetch buffer sits beside the L1D and is
    // probed on L1D misses; a hit supplies the block at the buffer's
    // (2-cycle) latency and promotes it into the L1D.
    if (side == Side::Data && prefetcher) {
        power.recordAccess(PowerStructure::PrefetchBuffer);
        if (prefetcher->probeBuffer(addr, now)) {
            ++bufferHits;
            fillL1(Side::Data, l1_block, is_write, now);
            return {true, true, config_.prefetchBufferLatency};
        }
    }

    if (MshrEntry *entry = mshrs.find(l1_block)) {
        entry->isWrite = entry->isWrite || is_write;
        entry->demand = entry->demand || !is_prefetch;
        if (on_complete)
            entry->targets.push_back(std::move(on_complete));
        mshrs.noteMerge();
        return {true, false, 0};
    }

    if (mshrs.full()) {
        mshrs.noteFullStall();
        return {false, false, 0};
    }

    MshrEntry *entry = mshrs.allocate(l1_block, now);
    entry->isWrite = is_write;
    entry->demand = !is_prefetch;
    if (on_complete)
        entry->targets.push_back(std::move(on_complete));

    // The miss is determined after the L1 lookup; request the
    // enclosing L2 block then.
    const Tick l2_req_time = now + l1.config().hitLatency;
    requestFromL2(l2.blockAlign(addr), !is_prefetch, is_write,
                  l2_req_time,
                  [this, side, l1_block](Tick when) {
                      MshrFile &file =
                          side == Side::Inst ? l1iMshrs : l1dMshrs;
                      const auto done = file.release(l1_block);
                      fillL1(side, l1_block, done->isWrite, when);
                      for (const MissTarget &target : done->targets)
                          target(when);
                  });

    return {true, false, 0};
}

void
MemoryHierarchy::fillL1(Side side, Addr l1_block, bool dirty, Tick now)
{
    Cache &l1 = side == Side::Inst ? l1i : l1d;

    power.recordAccess(side == Side::Inst ? PowerStructure::L1ICache
                                          : PowerStructure::L1DCache);
    const CacheVictim victim = l1.fill(l1_block, dirty);

    if (side == Side::Data && prefetcher) {
        prefetcher->notifyL1DFill(
            l1_block, victim.valid ? victim.blockAddr : invalidAddr, now);
    }

    if (victim.valid && victim.dirty) {
        // Write the victim back into the L2. If the L2 no longer holds
        // the block (possible with our non-enforced inclusion), install
        // it dirty directly; this sidesteps a full write-allocate trip
        // that would add no insight at negligible frequency.
        ++writebacksToL2;
        power.recordAccess(PowerStructure::L2Cache);
        const Addr l2_block = l2.blockAlign(victim.blockAddr);
        if (!l2.access(l2_block, true).hit) {
            const CacheVictim l2_victim = l2.fill(l2_block, true);
            if (l2_victim.valid && l2_victim.dirty) {
                bus.reserve(now, config_.l2.blockBytes);
                ++writebacksToMemory;
            }
        }
    }
}

void
MemoryHierarchy::requestFromL2(Addr l2_block, bool demand, bool is_write,
                               Tick now, MissTarget on_filled)
{
    // In-flight request for the same block: merge. A demand access
    // merging into a prefetch-initiated entry escalates it, so its
    // eventual return is reported to the VSV controller (the data
    // genuinely unblocks demand work); the *detection* event is not
    // retroactively generated - the L2 access that missed was the
    // prefetch (Section 4.2).
    if (MshrEntry *entry = l2Mshrs.find(l2_block)) {
        entry->demand = entry->demand || demand;
        entry->isWrite = entry->isWrite || is_write;
        if (on_filled)
            entry->targets.push_back(std::move(on_filled));
        l2Mshrs.noteMerge();
        return;
    }

    power.recordAccess(PowerStructure::L2Cache);
    if (l2.access(l2_block, false).hit) {
        if (on_filled) {
            events.schedule(now + config_.l2.hitLatency,
                            std::move(on_filled));
        }
        return;
    }

    // L2 miss. It becomes known to the processor only after the hit
    // latency has elapsed (the paper's conservative detection model).
    if (l2Mshrs.full()) {
        // Back-pressure: retry the whole request shortly. Rare with 64
        // entries; the retry re-probes the tags so a block filled in
        // the meantime is found.
        l2Mshrs.noteFullStall();
        events.schedule(now + 4,
                        [this, l2_block, demand, is_write,
                         target = std::move(on_filled)](Tick when) mutable {
                            requestFromL2(l2_block, demand, is_write, when,
                                          std::move(target));
                        });
        return;
    }

    MshrEntry *entry = l2Mshrs.allocate(l2_block, now);
    entry->demand = demand;
    entry->isWrite = is_write;
    if (on_filled)
        entry->targets.push_back(std::move(on_filled));
    if (trace) {
        trace->record(TraceCategory::Mshr, TraceEventKind::MshrLevel,
                      now, l2Mshrs.inUse());
    }

    if (demand)
        ++demandL2Misses;
    else
        ++prefetchL2Misses;

    // The memory trip begins once the tags have answered (hit
    // latency); the *report* to the VSV controller may be earlier if
    // an early miss-detection circuit is configured.
    const Tick tags_done = now + config_.l2.hitLatency;
    const Tick detect_tick =
        now + (config_.l2MissDetectTicks != 0
                   ? std::min(config_.l2MissDetectTicks,
                              config_.l2.hitLatency)
                   : config_.l2.hitLatency);
    if (demand &&
        (listener_ || (trace && trace->wants(TraceCategory::L2Miss)))) {
        events.schedule(detect_tick, [this](Tick when) {
            // Report the authoritative in-flight count at detection
            // time, not allocation time: by the time the hit latency
            // has elapsed, further misses may have been allocated or
            // returned.
            const std::uint32_t outstanding = l2Mshrs.demandOutstanding();
            if (trace) {
                trace->record(TraceCategory::L2Miss,
                              TraceEventKind::MissDetect, when,
                              outstanding);
            }
            if (listener_)
                listener_->demandL2MissDetected(when, outstanding);
        });
    }
    events.schedule(tags_done, [this, l2_block](Tick when) {
        startMemoryTrip(l2_block, when);
    });
}

void
MemoryHierarchy::startMemoryTrip(Addr l2_block, Tick when)
{
    // Request packet: address-only, one bus slot.
    const Tick req_done = bus.reserve(when, 0);
    events.schedule(req_done, [this, l2_block](Tick arrived) {
        const Tick dram_ready = dram.access(arrived);
        events.schedule(dram_ready, [this, l2_block](Tick ready) {
            const Tick resp_done = bus.reserve(ready, config_.l2.blockBytes);
            events.schedule(resp_done, [this, l2_block](Tick done) {
                const auto entry = l2Mshrs.release(l2_block);
                const bool demand = entry->demand;
                if (trace) {
                    trace->record(TraceCategory::Mshr,
                                  TraceEventKind::MshrLevel, done,
                                  l2Mshrs.inUse());
                }

                power.recordAccess(PowerStructure::L2Cache);
                const CacheVictim victim = l2.fill(l2_block, false);
                if (victim.valid && victim.dirty) {
                    bus.reserve(done, config_.l2.blockBytes);
                    ++writebacksToMemory;
                }

                for (const MissTarget &target : entry->targets)
                    target(done);

                // Only a return that unblocks demand work reaches the
                // VSV controller (Section 4.2).
                if (!demand)
                    return;
                const std::uint32_t outstanding =
                    l2Mshrs.demandOutstanding();
                if (trace) {
                    trace->record(TraceCategory::L2Miss,
                                  TraceEventKind::MissReturn, done,
                                  outstanding);
                }
                if (listener_)
                    listener_->demandL2MissReturned(done, outstanding);
            });
        });
    });
}

void
MemoryHierarchy::issueHardwarePrefetch(Addr addr, Tick now)
{
    const Addr l2_block = l2.blockAlign(addr);
    const Addr l1_block = l1d.blockAlign(addr);

    // Nothing to do if the L2 already holds the block; the prefetch
    // buffer's value is avoiding the *memory* trip, not the L2 trip.
    if (l2.probe(l2_block))
        return;

    if (warmupMode_) {
        // Functional completion: fill the L2 and the buffer directly.
        l2.access(l2_block, false);
        l2.fill(l2_block, false);
        ++prefetchL2Misses;
        if (prefetcher)
            prefetcher->fillBuffer(l1_block, now);
        return;
    }

    requestFromL2(l2_block, false, false, now,
                  [this, l1_block](Tick when) {
                      if (prefetcher)
                          prefetcher->fillBuffer(l1_block, when);
                  });
}

void
MemoryHierarchy::warmupInstMiss(Addr pc, Tick now)
{
    (void)now;
    const Addr l2_block = l2.blockAlign(pc);
    if (!l2.access(l2_block, false).hit)
        l2.fill(l2_block, false);
    l1i.fill(l1i.blockAlign(pc), false);
}

void
MemoryHierarchy::warmupDataMiss(Addr addr, bool is_write, Tick now)
{
    const Addr l1_block = l1d.blockAlign(addr);
    if (prefetcher && prefetcher->probeBuffer(addr, now)) {
        fillL1(Side::Data, l1_block, is_write, now);
        return;
    }

    const Addr l2_block = l2.blockAlign(addr);
    if (!l2.access(l2_block, false).hit) {
        ++demandL2Misses;
        l2.fill(l2_block, false);
    }
    fillL1(Side::Data, l1_block, is_write, now);
}

bool
MemoryHierarchy::quiescent() const
{
    return events.empty() && l1iMshrs.inUse() == 0 &&
           l1dMshrs.inUse() == 0 && l2Mshrs.inUse() == 0;
}

void
MemoryHierarchy::snapshot(SnapshotWriter &writer) const
{
    VSV_ASSERT(quiescent(),
               "hierarchy snapshot with misses or events in flight");
    l1i.snapshot(writer);
    l1d.snapshot(writer);
    l2.snapshot(writer);
    l1iMshrs.snapshot(writer);
    l1dMshrs.snapshot(writer);
    l2Mshrs.snapshot(writer);
    bus.snapshot(writer);
    dram.snapshot(writer);

    writer.begin("hierarchy");
    // Format 3 keeps the retired core-count word; it is always 1.
    writer.u32(1);
    writer.scalar(demandL2Misses);
    writer.scalar(prefetchL2Misses);
    writer.scalar(bufferHits);
    writer.scalar(writebacksToL2);
    writer.scalar(writebacksToMemory);
    writer.end();
}

void
MemoryHierarchy::restore(SnapshotReader &reader)
{
    VSV_ASSERT(quiescent(),
               "hierarchy restore with misses or events in flight");
    l1i.restore(reader);
    l1d.restore(reader);
    l2.restore(reader);
    l1iMshrs.restore(reader);
    l1dMshrs.restore(reader);
    l2Mshrs.restore(reader);
    bus.restore(reader);
    dram.restore(reader);

    reader.begin("hierarchy");
    // Format 3 keeps the retired core-count word; it is always 1.
    reader.expectU32(1, "hierarchy core count");
    reader.scalar(demandL2Misses);
    reader.scalar(prefetchL2Misses);
    reader.scalar(bufferHits);
    reader.scalar(writebacksToL2);
    reader.scalar(writebacksToMemory);
    reader.end();
}

void
MemoryHierarchy::regStats(StatRegistry &registry,
                          const std::string &prefix) const
{
    l1i.regStats(registry, prefix + ".l1i");
    l1d.regStats(registry, prefix + ".l1d");
    l1iMshrs.regStats(registry, prefix + ".l1i.mshr");
    l1dMshrs.regStats(registry, prefix + ".l1d.mshr");
    l2.regStats(registry, prefix + ".l2");
    l2Mshrs.regStats(registry, prefix + ".l2.mshr");
    bus.regStats(registry, prefix + ".bus");
    dram.regStats(registry, prefix + ".dram");

    registry.registerScalar(prefix + ".demandL2Misses", &demandL2Misses,
                            "demand (non-prefetch) L2 misses");
    registry.registerScalar(prefix + ".prefetchL2Misses", &prefetchL2Misses,
                            "prefetch-initiated L2 misses");
    registry.registerScalar(prefix + ".bufferHits", &bufferHits,
                            "L1D misses satisfied by the prefetch buffer");
    registry.registerScalar(prefix + ".writebacksToL2", &writebacksToL2,
                            "dirty L1 victims written to the L2");
    registry.registerScalar(prefix + ".writebacksToMemory",
                            &writebacksToMemory,
                            "dirty L2 victims written to memory");
}

} // namespace vsv
