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
constexpr PowerStructure
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
      lsq(config.lsqSize),
      units(config.fuPools),
      issueRateDist(0, 8, 1, std::uint64_t{config.issueWidth} + 1)
{
    VSV_ASSERT(config.ruuSize > 0 && config.lsqSize > 0,
               "window sizes must be nonzero");
    VSV_ASSERT(config.lsqSize <= std::numeric_limits<std::uint16_t>::max(),
               "LSQ too large for the store filter's counters");
    const std::uint32_t ring_size =
        std::bit_ceil(config.ruuSize + config.fetchQueueSize);
    ringMask = ring_size - 1;
    ops.resize(ring_size);
    ruu.resize(ring_size);
    dueBranches.resize(ring_size);
    readyBits.assign((ring_size + 63) / 64, 0);
    const std::uint32_t wheel_size = completionWheelSize(memory.config());
    wheelMask = wheel_size - 1;
    wheelHead.assign(wheel_size, noLink);
    wheelBits.assign((wheel_size + 63) / 64, 0);
}

inline void
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

inline void
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

inline void
Core::markReady(std::uint32_t idx)
{
    readyBits[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    ++readyCount;
}

inline void
Core::clearReady(std::uint32_t idx)
{
    readyBits[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    --readyCount;
}

inline void
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
Core::startMemoryAccess(std::uint32_t idx, Tick now)
{
    RuuEntry &entry = ruu[idx];
    const Addr addr = ops[idx].op.addr;
    const Cycle agen_done = cycleNum + entry.decode.latency;

    if (entry.decode.store) {
        // Store issue = address generation; the write happens at
        // commit through the write buffer.
        LsqEntry &mem = lsq[entry.lsqSlot];
        mem.addrReady = true;
        ++readyStores[storeFilterBucket(mem.wordAddr)];
        entry.completeCycle = agen_done;
        return true;
    }

    power.recordAccess(PowerStructure::LsqCam);
    if (!entry.decode.prefetch && storeForwards(entry)) {
        ++storeForwardCount;
        entry.completeCycle = agen_done;
        return true;
    }

    if (dcachePortsUsed >= config.dcachePorts)
        return false;
    ++dcachePortsUsed;

    if (entry.decode.prefetch) {
        // Non-binding: complete regardless of the memory outcome; a
        // rejected prefetch is simply dropped.
        memory.dataAccess(addr, false, true, now, {});
        entry.completeCycle = agen_done;
        ++swPrefetchesExecuted;
        return true;
    }

    const InstSeqNum seq = entry.seq;
    const MemAccessOutcome outcome = memory.dataAccess(
        addr, false, false, now, [this, seq](Tick) {
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
        entry.completeCycle = agen_done + outcome.latencyCycles;
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
        const std::uint32_t idx = slotIndex(headSeq);
        RuuEntry &entry = ruu[idx];
        VSV_ASSERT(entry.seq == headSeq, "RUU head slot mismatch");
        if (entry.status != EntryStatus::Completed)
            return;

        if (entry.decode.store) {
            if (dcachePortsUsed >= config.dcachePorts)
                return;
            const MemAccessOutcome outcome = memory.dataAccess(
                ops[idx].op.addr, true, false, now, {});
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

        if (entry.decode.mem) {
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
    // The ops complete in list order: every charge one makes here adds
    // the same per-access energy as another's to the same structure in
    // this tick, and a wakeup only counts operands down, so the order
    // changes no result. Branch training must follow program order,
    // so the due branches are collected and resolved oldest first.
    std::size_t branches = 0;
    for (; idx != noLink; idx = ruu[idx].nextDue) {
        RuuEntry &entry = ruu[idx];
        VSV_ASSERT(entry.status == EntryStatus::Issued &&
                       !entry.memPending &&
                       entry.completeCycle == cycleNum,
                   "completion wheel entry is not an op due now");
        entry.status = EntryStatus::Completed;
        power.recordAccess(PowerStructure::ResultBus);
        power.recordAccess(PowerStructure::RuuCam);  // wakeup broadcast
        power.recordAccess(PowerStructure::RegFile); // result write
        power.recordAccess(PowerStructure::LevelConverters);
        wakeConsumers(entry);
        // Appended without a branch; only a branch keeps its place.
        dueBranches[branches] = entry.seq;
        branches += entry.decode.branch;
    }

    // Each issue pushes onto the head of its slot's list, so the list
    // runs mostly youngest first: sort the branches oldest first.
    for (std::size_t i = 1; i < branches; ++i) {
        const InstSeqNum seq = dueBranches[i];
        std::size_t at = i;
        for (; at > 0 && dueBranches[at - 1] > seq; --at)
            dueBranches[at] = dueBranches[at - 1];
        dueBranches[at] = seq;
    }

    for (std::size_t i = 0; i < branches; ++i) {
        const InstSeqNum seq = dueBranches[i];
        const OpSlot &op_slot = ops[slotIndex(seq)];
        power.recordAccess(PowerStructure::BranchPred);
        const bool mispredicted = predictor.resolve(op_slot.op, op_slot.pred);
        ++branchesResolved;
        if (seq == blockingBranch) {
            VSV_ASSERT(mispredicted == op_slot.fetchMispredicted,
                       "fetch/resolve misprediction disagreement");
            fetchResumeCycle = cycleNum + config.mispredictPenalty;
            blockingBranch = invalidSeqNum;
            ++mispredictRecoveries;
            if (trace) {
                trace->record(TraceCategory::Core,
                              TraceEventKind::Mispredict, now, seq);
            }
        }
    }
}

std::uint32_t
Core::issueStage(Tick now)
{
    std::uint32_t issued = 0;
    if (readyCount != 0)
        issued = issueReady(now);
    issuedTotal += issued;
    issueRateDist.sample(issued);
    if (issued == 0)
        ++zeroIssueCycles;
    return issued;
}

std::uint32_t
Core::issueReady(Tick now)
{
    std::uint32_t issued = 0;
    units.beginCycle(cycleNum);
    // Oldest first: the in-flight entries fill the ring from the head
    // slot onward and wrap at most once, so the ready words read from
    // the head's word around to it again (its bits at or above the
    // head first, those below it last) give sequence order. Issue
    // never sets a ready bit (memory responses arrive as events), so
    // each word is read once. A ready entry that cannot issue (no free
    // unit, no D-cache port, MSHRs full) stays in the set.
    const std::uint32_t head = slotIndex(headSeq);
    const auto words = static_cast<std::uint32_t>(readyBits.size());
    const std::uint64_t from_head = ~std::uint64_t{0} << (head & 63);
    for (std::uint32_t n = 0; n <= words; ++n) {
        const std::uint32_t word = ((head >> 6) + n) & (words - 1);
        std::uint64_t bits = readyBits[word];
        if (n == 0)
            bits &= from_head;
        else if (n == words)
            bits &= ~from_head;
        for (; bits != 0; bits &= bits - 1) {
            const std::uint32_t idx =
                (word << 6) + static_cast<std::uint32_t>(std::countr_zero(bits));
            if (issued == config.issueWidth)
                return issued;
            RuuEntry &entry = ruu[idx];
            const OpDecode decode = entry.decode;
            if (!units.acquire(decode.pool, decode.busyCycles))
                continue;

            if (decode.mem) {
                if (!startMemoryAccess(idx, now))
                    continue;  // ports exhausted or MSHR full: retry
            } else {
                entry.completeCycle = cycleNum + decode.latency;
            }

            clearReady(idx);
            entry.status = EntryStatus::Issued;
            if (!entry.memPending)
                scheduleCompletion(idx, entry.completeCycle);

            power.recordAccess(decode.unit);
            power.recordAccess(PowerStructure::RuuCam);  // select/payload
            power.recordAccess(PowerStructure::RegFile, 2);  // operands
            power.recordAccess(PowerStructure::LevelConverters, 2);
            power.recordAccess(PowerStructure::PipelineLatches);
            ++issued;
        }
    }
    return issued;
}

void
Core::dispatchStage()
{
    for (std::uint32_t n = 0; n < config.dispatchWidth; ++n) {
        if (tailSeq == nextFetchSeq)
            return;  // fetch queue empty
        if (ruuOccupancy() >= config.ruuSize) {
            ++ruuFullStalls;
            return;
        }
        const std::uint32_t idx = slotIndex(tailSeq);
        RuuEntry &entry = ruu[idx];
        if (entry.decode.mem & (lsqOccupancy >= config.lsqSize)) {
            ++lsqFullStalls;
            return;
        }

        VSV_ASSERT(entry.status == EntryStatus::Empty,
                   "dispatch into an occupied RUU slot");
        entry.seq = tailSeq;
        entry.status = EntryStatus::Dispatched;
        entry.memPending = false;
        entry.pendingSrcs = 0;
        const MicroOp &op = ops[idx].op;
        linkProducer(idx, 0,
                     op.depDist1 != 0 && tailSeq > op.depDist1
                         ? tailSeq - op.depDist1
                         : invalidSeqNum);
        linkProducer(idx, 1,
                     op.depDist2 != 0 && tailSeq > op.depDist2
                         ? tailSeq - op.depDist2
                         : invalidSeqNum);
        if (entry.pendingSrcs == 0)
            markReady(idx);

        // Every op writes an LSQ entry, without a branch on its kind:
        // a memory op its slot at the tail, any other op a scratch
        // entry, and only a memory op advances the tail.
        const bool is_mem = entry.decode.mem;
        LsqEntry &mem = is_mem ? lsq[lsqTail] : lsqScratch;
        mem.seq = tailSeq;
        mem.wordAddr = op.addr & ~Addr{7};
        mem.isStore = entry.decode.store;
        mem.addrReady = false;
        entry.lsqSlot = lsqTail;
        const std::uint32_t next_tail =
            lsqTail + 1 == config.lsqSize ? 0 : lsqTail + 1;
        lsqTail = is_mem ? next_tail : lsqTail;
        lsqOccupancy += is_mem;

        power.recordAccess(PowerStructure::RenameLogic);
        power.recordAccess(PowerStructure::RuuRam);
        power.recordAccess(PowerStructure::PipelineLatches);

        ++tailSeq;
    }
}

void
Core::fetchStage(Tick now)
{
    if (icacheStall)
        return;
    if (blockingBranch != invalidSeqNum || cycleNum < fetchResumeCycle)
        return;
    if (fetchCount() >= config.fetchQueueSize)
        return;

    static constexpr auto decodeTable = [] {
        std::array<OpDecode, static_cast<std::size_t>(
                                 OpClass::NumOpClasses)> table{};
        for (std::size_t i = 0; i < table.size(); ++i) {
            const auto cls = static_cast<OpClass>(i);
            const OpTiming timing = isa_detail::opTimingTable[i];
            table[i] = {static_cast<std::uint8_t>(timing.pool),
                        static_cast<std::uint8_t>(timing.latency),
                        static_cast<std::uint8_t>(timing.busyCycles()),
                        unitPowerStructure(cls),
                        isMemOp(cls),
                        cls == OpClass::Store,
                        cls == OpClass::Prefetch,
                        cls == OpClass::Branch};
        }
        return table;
    }();

    bool accessed_icache = false;
    for (std::uint32_t n = 0; n < config.fetchWidth; ++n) {
        if (fetchCount() >= config.fetchQueueSize)
            break;

        const InstSeqNum seq = nextFetchSeq++;
        const std::uint32_t idx = slotIndex(seq);
        OpSlot &op_slot = ops[idx];
        if (traceOps.empty())
            traceOps = workload.nextBatch(~std::uint64_t{0});
        op_slot.op = traceOps.front();
        traceOps = traceOps.subspan(1);
        const auto cls = static_cast<std::size_t>(op_slot.op.cls);
        VSV_ASSERT(cls < decodeTable.size(), "fetch: bad op class");
        ruu[idx].decode = decodeTable[cls];

        if (!accessed_icache) {
            accessed_icache = true;
            const MemAccessOutcome outcome = memory.instFetch(
                op_slot.op.pc, now, [this](Tick) { icacheStall = false; });
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
        if (ruu[idx].decode.branch) {
            // Only branches read their prediction fields.
            power.recordAccess(PowerStructure::BranchPred);
            op_slot.pred = predictor.predict(op_slot.op);
            op_slot.fetchMispredicted =
                BranchPredictor::wouldMispredict(op_slot.op, op_slot.pred);
            if (op_slot.fetchMispredicted) {
                // The trace holds only correct-path ops; model
                // wrong-path fetch as a stall until this branch
                // resolves plus the recovery penalty.
                blockingBranch = seq;
                fetchResumeCycle = maxTick;
                stop_fetch = true;
            } else if (op_slot.op.taken) {
                // Fetch does not continue past a taken branch within
                // the same cycle.
                stop_fetch = true;
            }
        }

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
        ruu[slotIndex(headSeq)].status == EntryStatus::Completed) {
        return 0;
    }

    Cycle limit = maxTick;

    // Fetch: an unblocked fetch draws from the trace next cycle. The
    // icache stall clears only via a memory event (caller's bound);
    // a blocking branch resolves only via completion (bounded below);
    // a full fetch queue drains only via dispatch (checked below).
    const bool fetch_blocked_indefinitely =
        icacheStall || blockingBranch != invalidSeqNum ||
        fetchCount() >= config.fetchQueueSize;
    if (!fetch_blocked_indefinitely) {
        if (fetchResumeCycle <= cycleNum + 1)
            return 0;
        limit = std::min(limit, fetchResumeCycle - 1 - cycleNum);
    }

    // Dispatch: only a full RUU (or a full LSQ for a memory op at the
    // queue head) stalls it; either stall bumps a per-cycle counter
    // that skipIdleCycles() replays.
    if (fetchCount() != 0) {
        const bool ruu_full = ruuOccupancy() >= config.ruuSize;
        const bool lsq_full = ruu[slotIndex(tailSeq)].decode.mem &&
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
    zeroIssueCycles += edges;
    // issuedTotal += 0 per cycle is a no-op.
    if (fetchCount() != 0) {
        if (ruuOccupancy() >= config.ruuSize)
            ruuFullStalls += edges;
        else if (ruu[slotIndex(tailSeq)].decode.mem &&
                 lsqOccupancy >= config.lsqSize)
            lsqFullStalls += edges;
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
