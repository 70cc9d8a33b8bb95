#include "core.hh"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/logging.hh"

namespace vsv
{

namespace
{

/** Map an op class onto the power structure of its execution unit. */
PowerStructure
unitPowerStructure(OpClass cls)
{
    switch (cls) {
      case OpClass::IntMult:
      case OpClass::IntDiv:
        return PowerStructure::IntMulDiv;
      case OpClass::FpAlu:
        return PowerStructure::FpAlu;
      case OpClass::FpMult:
      case OpClass::FpDiv:
        return PowerStructure::FpMulDiv;
      default:
        // Integer ops, branches and memory address generation all use
        // the integer ALUs.
        return PowerStructure::IntAlu;
    }
}

/**
 * Wheel slots for a core over `memory`: a power of two above the
 * longest latency an op can be scheduled with at issue, which is the
 * slowest functional unit plus the slowest immediate memory hit (an
 * L1D or prefetch-buffer hit; loads add it to their agen latency).
 */
std::uint32_t
completionWheelSize(const HierarchyConfig &memory)
{
    std::uint32_t op_latency = 0;
    for (std::size_t cls = 0;
         cls < static_cast<std::size_t>(OpClass::NumOpClasses); ++cls) {
        op_latency = std::max(
            op_latency, opTiming(static_cast<OpClass>(cls)).latency);
    }
    const std::uint32_t hit_latency =
        std::max(memory.l1d.hitLatency, memory.prefetchBufferLatency);
    return std::bit_ceil(op_latency + hit_latency + 1);
}

} // namespace

Core::Core(const CoreConfig &config, TraceSource &workload,
           MemoryHierarchy &memory, BranchPredictor &predictor,
           PowerModel &power)
    : config(config),
      workload(workload),
      memory(memory),
      predictor(predictor),
      power(power),
      fetchRing(config.fetchQueueSize),
      ruu(config.ruuSize),
      readyBits((config.ruuSize + 63) / 64, 0),
      lsq(config.lsqSize)
{
    VSV_ASSERT(config.ruuSize > 0 && config.lsqSize > 0,
               "window sizes must be nonzero");
    VSV_ASSERT(config.lsqSize <= std::numeric_limits<std::uint16_t>::max(),
               "LSQ too large for the store filter's counters");
    headSlot = tailSlot = static_cast<std::uint32_t>(headSeq % config.ruuSize);
    const std::uint32_t wheel_size = completionWheelSize(memory.config());
    wheelMask = wheel_size - 1;
    wheelHead.assign(wheel_size, noLink);
    wheelBits.assign((wheel_size + 63) / 64, 0);
    dueScratch.reserve(config.ruuSize);
    unitFreeAt.resize(numFuPools);
    for (std::size_t pool = 0; pool < numFuPools; ++pool) {
        unitFreeAt[pool].assign(
            config.fuPools.count[pool], 0);
    }
}

std::uint32_t
Core::slotIndex(InstSeqNum seq) const
{
    // The in-flight entries fill the ring from headSlot in sequence
    // order, and fewer than ruuSize of them are in flight.
    const auto idx = headSlot + static_cast<std::uint32_t>(seq - headSeq);
    return idx >= config.ruuSize ? idx - config.ruuSize : idx;
}

void
Core::linkProducer(std::uint32_t idx, unsigned operand,
                   InstSeqNum producer)
{
    if (producer == invalidSeqNum || producer < headSeq)
        return;  // no producer, or already committed
    RuuEntry &source = slot(producer);
    VSV_ASSERT(source.seq == producer, "producer slot mismatch");
    if (source.status == EntryStatus::Completed)
        return;
    RuuEntry &consumer = ruu[idx];
    consumer.nextConsumer[operand] = source.consumers;
    source.consumers = idx * 2 + operand;
    ++consumer.pendingSrcs;
}

void
Core::wakeConsumers(RuuEntry &producer)
{
    std::uint32_t link = producer.consumers;
    producer.consumers = noLink;
    while (link != noLink) {
        const std::uint32_t idx = link >> 1;
        RuuEntry &consumer = ruu[idx];
        link = consumer.nextConsumer[link & 1];
        VSV_ASSERT(consumer.status == EntryStatus::Dispatched &&
                       consumer.pendingSrcs > 0,
                   "wakeup of a consumer that is not waiting");
        if (--consumer.pendingSrcs == 0)
            markReady(idx);
    }
}

void
Core::markReady(std::uint32_t idx)
{
    readyBits[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    ++readyCount;
}

void
Core::clearReady(std::uint32_t idx)
{
    readyBits[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    --readyCount;
}

void
Core::scheduleCompletion(std::uint32_t idx, Cycle when)
{
    VSV_ASSERT(when > cycleNum && when - cycleNum <= wheelMask,
               "completion cycle beyond the completion wheel");
    const auto s = static_cast<std::uint32_t>(when) & wheelMask;
    ruu[idx].nextDue = wheelHead[s];
    wheelHead[s] = idx;
    wheelBits[s >> 6] |= std::uint64_t{1} << (s & 63);
}

Cycle
Core::earliestCompletion() const
{
    // Scheduled cycles lie in (cycleNum, cycleNum + wheelMask], so
    // the first non-empty slot met walking circularly from the slot of
    // cycleNum + 1 holds the earliest. The start word is visited
    // twice: first its bits from the start slot up, last those below.
    const auto start = static_cast<std::uint32_t>(cycleNum + 1) & wheelMask;
    const auto words = static_cast<std::uint32_t>(wheelBits.size());
    std::uint32_t word = start >> 6;
    std::uint64_t bits = wheelBits[word] & (~std::uint64_t{0} << (start & 63));
    for (std::uint32_t n = 0; n <= words; ++n) {
        if (bits != 0) {
            const auto s = (word << 6) +
                           static_cast<std::uint32_t>(std::countr_zero(bits));
            return cycleNum + 1 + ((s - start) & wheelMask);
        }
        word = word + 1 == words ? 0 : word + 1;
        bits = wheelBits[word];
    }
    return maxTick;
}

std::uint32_t
Core::nextReady(std::uint32_t from, std::uint32_t end) const
{
    while (from < end) {
        const std::uint64_t bits = readyBits[from >> 6] >> (from & 63);
        if (bits != 0)
            return std::min(from + std::countr_zero(bits), end);
        from = (from | 63) + 1;
    }
    return end;
}

bool
Core::storeForwards(const RuuEntry &entry) const
{
    const LsqEntry &self = lsq[entry.lsqSlot];
    if (readyStores[storeFilterBucket(self.wordAddr)] == 0)
        return false;  // no address-ready store to this word's bucket
    std::uint32_t idx = entry.lsqSlot;
    while (idx != lsqHead) {
        idx = (idx == 0 ? config.lsqSize : idx) - 1;
        const LsqEntry &other = lsq[idx];
        if (other.seq == invalidSeqNum || other.seq >= entry.seq)
            continue;
        if (other.isStore && other.addrReady &&
            other.wordAddr == self.wordAddr) {
            return true;
        }
        // Stores with unresolved addresses are optimistically assumed
        // not to alias (perfect disambiguation).
    }
    return false;
}

bool
Core::acquireUnit(OpClass cls)
{
    const OpTiming timing = opTiming(cls);
    auto &units = unitFreeAt[static_cast<std::size_t>(timing.pool)];
    for (Cycle &free_at : units) {
        if (free_at <= cycleNum) {
            free_at = cycleNum + (timing.pipelined ? 1 : timing.latency);
            return true;
        }
    }
    return false;
}

bool
Core::startMemoryAccess(RuuEntry &entry, Tick now)
{
    const bool is_store = entry.op.cls == OpClass::Store;
    const bool is_prefetch = entry.op.cls == OpClass::Prefetch;
    const OpTiming timing = opTiming(entry.op.cls);

    if (is_store) {
        // Store issue = address generation; the write happens at
        // commit through the write buffer.
        LsqEntry &mem = lsq[entry.lsqSlot];
        mem.addrReady = true;
        ++readyStores[storeFilterBucket(mem.wordAddr)];
        entry.completeCycle = cycleNum + timing.latency;
        return true;
    }

    power.recordAccess(PowerStructure::LsqCam);
    if (!is_prefetch && storeForwards(entry)) {
        ++storeForwardCount;
        entry.completeCycle = cycleNum + timing.latency;
        return true;
    }

    if (dcachePortsUsed >= config.dcachePorts)
        return false;
    ++dcachePortsUsed;

    if (is_prefetch) {
        // Non-binding: complete regardless of the memory outcome; a
        // rejected prefetch is simply dropped.
        memory.dataAccess(entry.op.addr, false, true, now, {});
        entry.completeCycle = cycleNum + timing.latency;
        ++swPrefetchesExecuted;
        return true;
    }

    const InstSeqNum seq = entry.seq;
    const MemAccessOutcome outcome = memory.dataAccess(
        entry.op.addr, false, false, now, [this, seq](Tick) {
            RuuEntry &load = slot(seq);
            VSV_ASSERT(load.seq == seq && load.memPending,
                       "memory response for a stale load");
            load.memPending = false;
            load.status = EntryStatus::Completed;
            power.recordAccess(PowerStructure::ResultBus);
            power.recordAccess(PowerStructure::RuuCam);
            power.recordAccess(PowerStructure::RegFile);
            wakeConsumers(load);
        });

    if (!outcome.accepted) {
        ++memRetries;
        if (trace) {
            trace->record(TraceCategory::Core, TraceEventKind::MemRetry,
                          now, seq);
        }
        return false;
    }
    ++loadsExecuted;
    if (outcome.immediate) {
        entry.completeCycle = cycleNum + timing.latency +
                              outcome.latencyCycles;
    } else {
        entry.memPending = true;
        entry.completeCycle = 0;
    }
    return true;
}

void
Core::commitStage(Tick now)
{
    for (std::uint32_t n = 0; n < config.commitWidth; ++n) {
        if (headSeq >= tailSeq)
            return;
        RuuEntry &entry = ruu[headSlot];
        VSV_ASSERT(entry.seq == headSeq, "RUU head slot mismatch");
        if (entry.status != EntryStatus::Completed)
            return;

        if (entry.op.cls == OpClass::Store) {
            if (dcachePortsUsed >= config.dcachePorts)
                return;
            const MemAccessOutcome outcome = memory.dataAccess(
                entry.op.addr, true, false, now, {});
            if (!outcome.accepted) {
                ++memRetries;
                if (trace) {
                    trace->record(TraceCategory::Core,
                                  TraceEventKind::MemRetry, now,
                                  entry.seq);
                }
                return;  // write buffer full; retry next cycle
            }
            ++dcachePortsUsed;
            ++storesExecuted;
        }

        if (isMemOp(entry.op.cls)) {
            LsqEntry &mem = lsq[lsqHead];
            VSV_ASSERT(mem.seq == entry.seq,
                       "LSQ head out of order with RUU head");
            if (mem.isStore) {
                // A Completed store has done its agen.
                VSV_ASSERT(mem.addrReady, "committing a store before agen");
                --readyStores[storeFilterBucket(mem.wordAddr)];
            }
            mem.seq = invalidSeqNum;
            if (++lsqHead == config.lsqSize)
                lsqHead = 0;
            --lsqOccupancy;
        }

        power.recordAccess(PowerStructure::RuuRam);
        power.recordAccess(PowerStructure::PipelineLatches);
        VSV_ASSERT(entry.consumers == noLink,
                   "committing an entry with waiting consumers");
        entry.status = EntryStatus::Empty;
        ++committed;
        ++headSeq;
        if (++headSlot == config.ruuSize)
            headSlot = 0;
        --ruuOccupancy;
    }
}

void
Core::completeStage(Tick now)
{
    const auto s = static_cast<std::uint32_t>(cycleNum) & wheelMask;
    std::uint32_t idx = wheelHead[s];
    if (idx == noLink)
        return;
    wheelHead[s] = noLink;
    wheelBits[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
    dueScratch.clear();
    for (; idx != noLink; idx = ruu[idx].nextDue)
        dueScratch.push_back(ruu[idx].seq);
    // Power charges and predictor training happen in program order.
    std::sort(dueScratch.begin(), dueScratch.end());

    for (const InstSeqNum seq : dueScratch) {
        RuuEntry &entry = slot(seq);
        VSV_ASSERT(entry.seq == seq && entry.status == EntryStatus::Issued &&
                       !entry.memPending &&
                       entry.completeCycle == cycleNum,
                   "completion wheel entry is not an op due now");
        entry.status = EntryStatus::Completed;
        power.recordAccess(PowerStructure::ResultBus);
        power.recordAccess(PowerStructure::RuuCam);  // wakeup broadcast
        power.recordAccess(PowerStructure::RegFile); // result write
        power.recordAccess(PowerStructure::LevelConverters);
        wakeConsumers(entry);

        if (entry.op.cls == OpClass::Branch) {
            power.recordAccess(PowerStructure::BranchPred);
            const bool mispredicted =
                predictor.resolve(entry.op, entry.pred);
            ++branchesResolved;
            if (entry.seq == blockingBranch) {
                VSV_ASSERT(mispredicted == entry.fetchMispredicted,
                           "fetch/resolve misprediction disagreement");
                fetchResumeCycle = cycleNum + config.mispredictPenalty;
                blockingBranch = invalidSeqNum;
                ++mispredictRecoveries;
                if (trace) {
                    trace->record(TraceCategory::Core,
                                  TraceEventKind::Mispredict, now,
                                  entry.seq);
                }
            }
        }
    }
}

std::uint32_t
Core::issueStage(Tick now)
{
    std::uint32_t issued = 0;
    // Oldest first: the in-flight entries fill the ring from the head
    // slot onward and wrap at most once, so [head, size) then
    // [0, head) is sequence order. A ready entry that cannot issue
    // (no free unit, no D-cache port, MSHRs full) stays in the set.
    for (unsigned pass = 0; pass < 2; ++pass) {
        const std::uint32_t begin = pass == 0 ? headSlot : 0;
        const std::uint32_t end = pass == 0 ? config.ruuSize : headSlot;
        for (std::uint32_t idx = nextReady(begin, end);
             idx < end && issued < config.issueWidth;
             idx = nextReady(idx + 1, end)) {
            RuuEntry &entry = ruu[idx];
            if (!acquireUnit(entry.op.cls))
                continue;

            if (isMemOp(entry.op.cls)) {
                if (!startMemoryAccess(entry, now))
                    continue;  // ports exhausted or MSHR full: retry
            } else {
                entry.completeCycle =
                    cycleNum + opTiming(entry.op.cls).latency;
            }

            clearReady(idx);
            entry.status = EntryStatus::Issued;
            ++issued;
            if (!entry.memPending)
                scheduleCompletion(idx, entry.completeCycle);

            power.recordAccess(unitPowerStructure(entry.op.cls));
            power.recordAccess(PowerStructure::RuuCam);  // select/payload
            power.recordAccess(PowerStructure::RegFile, 2);  // operands
            power.recordAccess(PowerStructure::LevelConverters, 2);
            power.recordAccess(PowerStructure::PipelineLatches);
        }
    }

    issuedTotal += static_cast<double>(issued);
    issueRateDist.sample(issued);
    if (issued == 0)
        ++zeroIssueCycles;
    return issued;
}

void
Core::dispatchStage()
{
    for (std::uint32_t n = 0; n < config.dispatchWidth; ++n) {
        if (fetchCount == 0)
            return;
        if (ruuOccupancy >= config.ruuSize) {
            ++ruuFullStalls;
            return;
        }
        const FetchedOp &fo = fetchRing[fetchHead];
        if (isMemOp(fo.op.cls) && lsqOccupancy >= config.lsqSize) {
            ++lsqFullStalls;
            return;
        }

        RuuEntry &entry = ruu[tailSlot];
        VSV_ASSERT(entry.status == EntryStatus::Empty,
                   "dispatch into an occupied RUU slot");
        entry.op = fo.op;
        entry.seq = tailSeq;
        entry.status = EntryStatus::Dispatched;
        entry.memPending = false;
        entry.pred = fo.pred;
        entry.fetchMispredicted = fo.fetchMispredicted;
        entry.pendingSrcs = 0;
        linkProducer(tailSlot, 0,
                     fo.op.depDist1 != 0 && tailSeq > fo.op.depDist1
                         ? tailSeq - fo.op.depDist1
                         : invalidSeqNum);
        linkProducer(tailSlot, 1,
                     fo.op.depDist2 != 0 && tailSeq > fo.op.depDist2
                         ? tailSeq - fo.op.depDist2
                         : invalidSeqNum);
        if (entry.pendingSrcs == 0)
            markReady(tailSlot);

        if (isMemOp(fo.op.cls)) {
            LsqEntry &mem = lsq[lsqTail];
            mem.seq = tailSeq;
            mem.wordAddr = fo.op.addr & ~Addr{7};
            mem.isStore = fo.op.cls == OpClass::Store;
            mem.addrReady = false;
            entry.lsqSlot = lsqTail;
            if (++lsqTail == config.lsqSize)
                lsqTail = 0;
            ++lsqOccupancy;
        }

        power.recordAccess(PowerStructure::RenameLogic);
        power.recordAccess(PowerStructure::RuuRam);
        power.recordAccess(PowerStructure::PipelineLatches);

        if (++fetchHead == config.fetchQueueSize)
            fetchHead = 0;
        --fetchCount;
        ++tailSeq;
        if (++tailSlot == config.ruuSize)
            tailSlot = 0;
        ++ruuOccupancy;
    }
}

void
Core::fetchStage(Tick now)
{
    if (icacheStall)
        return;
    if (blockingBranch != invalidSeqNum || cycleNum < fetchResumeCycle)
        return;
    if (fetchCount >= config.fetchQueueSize)
        return;

    bool accessed_icache = false;
    for (std::uint32_t n = 0; n < config.fetchWidth; ++n) {
        if (fetchCount >= config.fetchQueueSize)
            break;

        std::uint32_t tail = fetchHead + fetchCount;
        if (tail >= config.fetchQueueSize)
            tail -= config.fetchQueueSize;
        FetchedOp &fo = fetchRing[tail];
        fo.op = workload.next();
        fo.seq = nextFetchSeq++;
        fo.pred = {};
        fo.fetchMispredicted = false;

        if (!accessed_icache) {
            accessed_icache = true;
            const MemAccessOutcome outcome = memory.instFetch(
                fo.op.pc, now, [this](Tick) { icacheStall = false; });
            if (!outcome.accepted) {
                // L1I MSHRs full; retry the whole fetch next cycle.
                // The op is already drawn from the trace, so keep it.
            } else if (!outcome.immediate) {
                icacheStall = true;
            }
        }

        power.recordAccess(PowerStructure::FetchLogic);
        power.recordAccess(PowerStructure::PipelineLatches);

        bool stop_fetch = icacheStall;
        if (fo.op.cls == OpClass::Branch) {
            power.recordAccess(PowerStructure::BranchPred);
            fo.pred = predictor.predict(fo.op);
            fo.fetchMispredicted =
                BranchPredictor::wouldMispredict(fo.op, fo.pred);
            if (fo.fetchMispredicted) {
                // The trace holds only correct-path ops; model
                // wrong-path fetch as a stall until this branch
                // resolves plus the recovery penalty.
                blockingBranch = fo.seq;
                fetchResumeCycle = maxTick;
                stop_fetch = true;
            } else if (fo.op.taken) {
                // Fetch does not continue past a taken branch within
                // the same cycle.
                stop_fetch = true;
            }
        }

        ++fetchCount;
        ++fetched;
        if (stop_fetch)
            break;
    }
}

Cycle
Core::cyclesUntilProgress() const
{
    // Commit: a Completed head retires (or re-attempts a store write,
    // touching the write buffer) on the very next cycle.
    if (headSeq < tailSeq &&
        ruu[headSlot].status == EntryStatus::Completed) {
        return 0;
    }

    Cycle limit = maxTick;

    // Fetch: an unblocked fetch draws from the trace next cycle. The
    // icache stall clears only via a memory event (caller's bound);
    // a blocking branch resolves only via completion (bounded below);
    // a full fetch queue drains only via dispatch (checked below).
    const bool fetch_blocked_indefinitely =
        icacheStall || blockingBranch != invalidSeqNum ||
        fetchCount >= config.fetchQueueSize;
    if (!fetch_blocked_indefinitely) {
        if (fetchResumeCycle <= cycleNum + 1)
            return 0;
        limit = std::min(limit, fetchResumeCycle - 1 - cycleNum);
    }

    // Dispatch: only a full RUU (or a full LSQ for a memory op at the
    // queue head) stalls it; either stall bumps a per-cycle counter
    // that skipIdleCycles() replays.
    if (fetchCount != 0) {
        const bool ruu_full = ruuOccupancy >= config.ruuSize;
        const bool lsq_full = isMemOp(fetchRing[fetchHead].op.cls) &&
                              lsqOccupancy >= config.lsqSize;
        if (!ruu_full && !lsq_full)
            return 0;
    }

    // Window: a ready entry would issue (or charge the LSQ CAM /
    // consume a unit while failing to); the wheel's earliest entry
    // completes on a known cycle. Entries waiting on in-flight
    // producers stay blocked until one of those completions (or a
    // memory event) lands.
    if (readyCount != 0)
        return 0;
    const Cycle next = earliestCompletion();
    if (next != maxTick) {
        if (next <= cycleNum + 1)
            return 0;
        limit = std::min(limit, next - 1 - cycleNum);
    }
    return limit;
}

void
Core::skipIdleCycles(Cycle edges)
{
    cycleNum += edges;
    issueRateDist.sample(0, edges);
    zeroIssueCycles += static_cast<double>(edges);
    // issuedTotal += 0 per cycle is a bit-exact no-op.
    if (fetchCount != 0) {
        if (ruuOccupancy >= config.ruuSize)
            ruuFullStalls += static_cast<double>(edges);
        else if (isMemOp(fetchRing[fetchHead].op.cls) &&
                 lsqOccupancy >= config.lsqSize)
            lsqFullStalls += static_cast<double>(edges);
    }
}

std::uint32_t
Core::cycle(Tick now)
{
    ++cycleNum;
    dcachePortsUsed = 0;

    commitStage(now);
    completeStage(now);
    const std::uint32_t issued = issueStage(now);
    dispatchStage();
    fetchStage(now);
    return issued;
}

void
Core::regStats(StatRegistry &registry, const std::string &prefix) const
{
    registry.registerScalar(prefix + ".committed", &committed,
                            "instructions committed");
    registry.registerScalar(prefix + ".issued", &issuedTotal,
                            "instructions issued");
    registry.registerScalar(prefix + ".fetched", &fetched,
                            "instructions fetched");
    registry.registerScalar(prefix + ".loads", &loadsExecuted,
                            "loads sent to the memory system");
    registry.registerScalar(prefix + ".stores", &storesExecuted,
                            "stores written at commit");
    registry.registerScalar(prefix + ".swPrefetches",
                            &swPrefetchesExecuted,
                            "software prefetches executed");
    registry.registerScalar(prefix + ".storeForwards", &storeForwardCount,
                            "loads satisfied by store forwarding");
    registry.registerScalar(prefix + ".branches", &branchesResolved,
                            "branches resolved");
    registry.registerScalar(prefix + ".mispredictRecoveries",
                            &mispredictRecoveries,
                            "fetch stalls released after mispredictions");
    registry.registerScalar(prefix + ".zeroIssueCycles", &zeroIssueCycles,
                            "pipeline cycles issuing nothing");
    registry.registerScalar(prefix + ".ruuFullStalls", &ruuFullStalls,
                            "dispatch stalls on a full RUU");
    registry.registerScalar(prefix + ".lsqFullStalls", &lsqFullStalls,
                            "dispatch stalls on a full LSQ");
    registry.registerScalar(prefix + ".memRetries", &memRetries,
                            "memory accesses rejected and retried");
    registry.registerDistribution(prefix + ".issueRate", &issueRateDist,
                                  "instructions issued per cycle");
}

} // namespace vsv
