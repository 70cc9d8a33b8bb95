#include "timekeeping.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "snapshot/snapshot.hh"

namespace vsv
{

TimekeepingPrefetcher::TimekeepingPrefetcher(const TimekeepingConfig &config,
                                             const CacheConfig &l1d_config,
                                             PowerModel &power)
    : config(config),
      l1dConfig(l1d_config),
      power(power)
{
    VSV_ASSERT(config.bufferEntries > 0, "prefetch buffer size zero");
    VSV_ASSERT(isPowerOf2(config.predictorEntries),
               "predictor entries must be a power of two");
    VSV_ASSERT(config.decayResolution > 0, "decay resolution zero");
    VSV_ASSERT(config.sweepSlices > 0, "sweep slices zero");
    VSV_ASSERT(config.deadMultiplier > 0.0, "dead multiplier <= 0");

    numSets = static_cast<std::uint32_t>(
        l1d_config.sizeBytes / (l1d_config.blockBytes * l1d_config.assoc));
    assoc = l1d_config.assoc;
    VSV_ASSERT(isPowerOf2(numSets), "L1D set count must be a power of two");
    frames.resize(static_cast<std::size_t>(numSets) * assoc);
    setWake.assign(numSets, 0);
    screenWake.assign((numSets + screenSets - 1) / screenSets, 0);
    predictor.resize(config.predictorEntries);
}

void
TimekeepingPrefetcher::setIssuer(PrefetchIssuer *new_issuer)
{
    issuer = new_issuer;
}

std::uint32_t
TimekeepingPrefetcher::setOf(Addr block_addr) const
{
    return static_cast<std::uint32_t>(
        (block_addr / l1dConfig.blockBytes) & (numSets - 1));
}

std::uint32_t
TimekeepingPrefetcher::signature(Addr block_addr) const
{
    const std::uint32_t set = setOf(block_addr);
    const Addr tag = block_addr / l1dConfig.blockBytes / numSets;

    const std::uint32_t tag_part =
        static_cast<std::uint32_t>(tag) & ((1u << config.tagSigBits) - 1);
    const std::uint32_t index_part =
        set & ((1u << config.indexSigBits) - 1);
    const std::uint32_t sig = (tag_part << config.indexSigBits) | index_part;
    return sig & (config.predictorEntries - 1);
}

TimekeepingPrefetcher::Frame *
TimekeepingPrefetcher::findFrame(Addr block_addr)
{
    // Selects, not branches, as in Cache::findLine; the first match
    // wins.
    Frame *base = &frames[static_cast<std::size_t>(setOf(block_addr)) *
                          assoc];
    Frame *found = nullptr;
    for (std::uint32_t way = assoc; way-- > 0;)
        found = base[way].blockAddr == block_addr ? &base[way] : found;
    return found;
}

void
TimekeepingPrefetcher::notifyL1DAccess(Addr addr, bool hit, Tick now)
{
    if (!hit)
        return;
    const Addr block = addr & ~static_cast<Addr>(l1dConfig.blockBytes - 1);
    if (Frame *frame = findFrame(block)) {
        const bool revived = frame->deadHandled;
        frame->lastAccess = now;
        frame->deadHandled = false;
        // A hit on a live frame only moves its deadline later, so the
        // set's wake bound stays valid; a handled frame rejoins it.
        if (revived)
            noteDeadline(setOf(block), *frame);
    }
}

void
TimekeepingPrefetcher::notifyL1DFill(Addr block_addr, Addr victim_block,
                                     Tick now)
{
    const std::uint32_t set = setOf(block_addr);
    Frame *base = &frames[static_cast<std::size_t>(set) * assoc];

    // Train the predictor with the exact frame-successor pair: the
    // victim this fill displaced is followed, in its frame, by this
    // block. Pairs whose tag delta does not fit the predictor entry's
    // field width (cross-region churn, e.g. a random warm-set block
    // displacing a streaming block) are not trained, so regular
    // streams learn a stable delta even under heavy interleaving.
    if (victim_block != invalidAddr && victim_block != block_addr) {
        power.recordAccess(PowerStructure::TkTables);
        const Addr set_stride =
            static_cast<Addr>(numSets) * l1dConfig.blockBytes;
        // Same set => the difference is a whole number of set strides.
        const std::int64_t delta =
            (static_cast<std::int64_t>(block_addr) -
             static_cast<std::int64_t>(victim_block)) /
            static_cast<std::int64_t>(set_stride);
        if (delta != 0 && delta <= config.maxDeltaTags &&
            delta >= -config.maxDeltaTags) {
            PredictorEntry &entry = predictor[signature(victim_block)];
            if (entry.confidence > 0 &&
                entry.deltaTags == static_cast<std::int32_t>(delta)) {
                if (entry.confidence < 3)
                    ++entry.confidence;
            } else if (entry.confidence > 0) {
                --entry.confidence;
            } else {
                entry.deltaTags = static_cast<std::int32_t>(delta);
                entry.confidence = 1;
            }
            ++trainedPairs;
        }
    }

    // Claim a shadow frame: reuse the one holding this block (refill),
    // else an empty one, else the stalest (LRU-ish) frame.
    Frame *target = nullptr;
    for (std::uint32_t way = 0; way < assoc; ++way) {
        if (base[way].blockAddr == block_addr) {
            target = &base[way];
            break;
        }
        if (base[way].blockAddr == invalidAddr && !target)
            target = &base[way];
    }
    if (!target) {
        target = &base[0];
        for (std::uint32_t way = 1; way < assoc; ++way) {
            if (base[way].lastAccess < target->lastAccess)
                target = &base[way];
        }
    }

    target->blockAddr = block_addr;
    target->fillTime = now;
    target->lastAccess = now;
    target->deadHandled = false;
    noteDeadline(set, *target);
}

bool
TimekeepingPrefetcher::probeBuffer(Addr addr, Tick now)
{
    (void)now;
    const Addr block = addr & ~static_cast<Addr>(l1dConfig.blockBytes - 1);
    auto it = bufferSet.find(block);
    if (it == bufferSet.end())
        return false;

    // The hit consumes the entry: the block is promoted into the L1D
    // by the hierarchy. Leave the stale FIFO slot; it is skipped when
    // it reaches the head.
    bufferSet.erase(it);
    ++bufferHits;
    return true;
}

void
TimekeepingPrefetcher::fillBuffer(Addr block_addr, Tick now)
{
    (void)now;
    if (bufferSet.count(block_addr))
        return;

    power.recordAccess(PowerStructure::PrefetchBuffer);
    while (bufferSet.size() >= config.bufferEntries) {
        // FIFO replacement; skip slots already consumed by hits.
        VSV_ASSERT(!bufferFifo.empty(), "prefetch buffer FIFO underflow");
        const Addr head = bufferFifo.front();
        bufferFifo.pop_front();
        if (bufferSet.erase(head))
            ++bufferReplacements;
    }
    bufferFifo.push_back(block_addr);
    bufferSet.insert(block_addr);
    ++bufferInsertions;

    // Keep the FIFO bookkeeping bounded when many slots went stale.
    while (bufferFifo.size() > 4 * config.bufferEntries &&
           !bufferSet.count(bufferFifo.front())) {
        bufferFifo.pop_front();
    }
}

Tick
TimekeepingPrefetcher::deadAt(const Frame &frame) const
{
    // The sweep's test is idle > deadMultiplier * live in double; the
    // smallest integer idle that passes is floor(product) + 1.
    const Tick live = std::max<Tick>(frame.lastAccess - frame.fillTime,
                                     config.minLiveTime);
    const double product =
        config.deadMultiplier * static_cast<double>(live);
    if (!(product < 0x1p62))
        return std::numeric_limits<Tick>::max();
    return frame.lastAccess + static_cast<Tick>(std::floor(product)) + 1;
}

void
TimekeepingPrefetcher::noteDeadline(std::uint32_t set, const Frame &frame)
{
    const Tick dead_at = deadAt(frame);
    setWake[set] = std::min(setWake[set], dead_at);
    Tick &screen = screenWake[set / screenSets];
    screen = std::min(screen, dead_at);
}

void
TimekeepingPrefetcher::sweepSlice(Tick now)
{
    const std::uint32_t sets_per_slice =
        std::max<std::uint32_t>(1, numSets / config.sweepSlices);
    const std::uint32_t set_mask = numSets - 1;

    power.recordAccess(PowerStructure::TkTables);
    // Most sets sleep past `now`. Each block of 64 sets is screened
    // into a bit mask first, without a branch per set; visiting only
    // the due sets, in order, then does what a visit of every set
    // does, since no visit changes another set's wake tick. A block
    // of at most 64 consecutive sets (modulo the power-of-two set
    // count) touches at most two aligned screens, the ones holding its
    // first and last set; when both screens' bounds lie past `now`, no
    // set in the block is due and it is skipped unscreened.
    //
    // The screen is the bare due mask, read in place when the block is
    // one whole aligned screen. Only such a block found with no set
    // due then sets its screen's bound, to its sets' minimum wake,
    // taken in four independent minima; that skips it until then. A
    // block with due sets leaves its screens' bounds alone: a visit
    // only moves a due set's wake from at most `now` to past it, so
    // they stay lower bounds, and a later screen that finds the group
    // quiet sets one.
    for (std::uint32_t block = 0; block < sets_per_slice; block += 64) {
        const std::uint32_t span =
            std::min<std::uint32_t>(64, sets_per_slice - block);
        const std::uint32_t start = (sweepCursor + block) & set_mask;
        const std::uint32_t first_screen = start / screenSets;
        const std::uint32_t last_screen =
            ((start + span - 1) & set_mask) / screenSets;
        if (now < screenWake[first_screen] && now < screenWake[last_screen])
            continue;
        std::uint64_t due = 0;
        if (span == screenSets && start % screenSets == 0) {
            const Tick *wakes = setWake.data() + start;
            for (std::uint32_t i = 0; i < screenSets; ++i)
                due |= std::uint64_t{now >= wakes[i]} << i;
            if (due == 0) {
                std::array<Tick, 4> lane = {wakes[0], wakes[1], wakes[2],
                                            wakes[3]};
                for (std::uint32_t i = 4; i < screenSets; i += 4) {
                    for (std::uint32_t j = 0; j < 4; ++j)
                        lane[j] = std::min(lane[j], wakes[i + j]);
                }
                screenWake[first_screen] =
                    std::min(std::min(lane[0], lane[1]),
                             std::min(lane[2], lane[3]));
                continue;
            }
        } else {
            for (std::uint32_t i = 0; i < span; ++i) {
                due |= std::uint64_t{now >= setWake[(start + i) & set_mask]}
                       << i;
            }
        }
        for (; due != 0; due &= due - 1) {
            const std::uint32_t set =
                (start + static_cast<std::uint32_t>(std::countr_zero(due))) &
                set_mask;
            sweepSet(set, now);
        }
    }
    sweepCursor = (sweepCursor + sets_per_slice) & set_mask;
}

void
TimekeepingPrefetcher::sweepSet(std::uint32_t set, Tick now)
{
    Tick wake = std::numeric_limits<Tick>::max();
    Frame *base = &frames[static_cast<std::size_t>(set) * assoc];
    for (std::uint32_t way = 0; way < assoc; ++way) {
        Frame &frame = base[way];
        if (frame.blockAddr == invalidAddr || frame.deadHandled)
            continue;

        const Tick live = std::max<Tick>(
            frame.lastAccess - frame.fillTime, config.minLiveTime);
        const Tick idle = now - frame.lastAccess;
        if (static_cast<double>(idle) <=
            config.deadMultiplier * static_cast<double>(live)) {
            wake = std::min(wake, deadAt(frame));
            continue;
        }

        // The block is predicted dead: prefetch its historical
        // successor if the predictor holds a confident delta.
        frame.deadHandled = true;
        ++deadPredictions;
        const PredictorEntry &entry = predictor[signature(
            frame.blockAddr)];
        if (entry.confidence < config.confidenceThreshold) {
            ++predictorMisses;
            continue;
        }
        const Addr set_stride =
            static_cast<Addr>(numSets) * l1dConfig.blockBytes;
        const std::int64_t target =
            static_cast<std::int64_t>(frame.blockAddr) +
            static_cast<std::int64_t>(entry.deltaTags) *
                static_cast<std::int64_t>(set_stride);
        if (target < 0)
            continue;
        const Addr next_block = static_cast<Addr>(target);
        if (issuer && !bufferSet.count(next_block)) {
            issuer->issueHardwarePrefetch(next_block, now);
            ++issued;
        }
    }
    setWake[set] = wake;
}

std::vector<std::pair<std::int32_t, std::uint8_t>>
TimekeepingPrefetcher::dumpPredictor() const
{
    std::vector<std::pair<std::int32_t, std::uint8_t>> result;
    result.reserve(predictor.size());
    for (const PredictorEntry &entry : predictor)
        result.emplace_back(entry.deltaTags, entry.confidence);
    return result;
}

void
TimekeepingPrefetcher::snapshot(SnapshotWriter &writer) const
{
    writer.begin("tk");
    writer.u32(static_cast<std::uint32_t>(frames.size()));
    writer.u32(static_cast<std::uint32_t>(predictor.size()));
    for (const Frame &frame : frames) {
        writer.u64(frame.blockAddr);
        writer.u64(frame.fillTime);
        writer.u64(frame.lastAccess);
        writer.b(frame.deadHandled);
    }
    for (const PredictorEntry &entry : predictor) {
        writer.i32(entry.deltaTags);
        writer.u8(entry.confidence);
    }
    // The FIFO may hold stale slots already consumed from the set, so
    // both containers are serialized; the set goes out sorted to keep
    // the byte stream independent of hash-table iteration order.
    writer.u64(bufferFifo.size());
    for (const Addr a : bufferFifo)
        writer.u64(a);
    std::vector<Addr> resident(bufferSet.begin(), bufferSet.end());
    std::sort(resident.begin(), resident.end());
    writer.u64(resident.size());
    for (const Addr a : resident)
        writer.u64(a);
    writer.u64(nextSweepTick);
    writer.u32(sweepCursor);
    writer.scalar(issued);
    writer.scalar(deadPredictions);
    writer.scalar(trainedPairs);
    writer.scalar(bufferHits);
    writer.scalar(bufferInsertions);
    writer.scalar(bufferReplacements);
    writer.scalar(predictorMisses);
    writer.end();
}

void
TimekeepingPrefetcher::restore(SnapshotReader &reader)
{
    reader.begin("tk");
    reader.expectU32(static_cast<std::uint32_t>(frames.size()),
                     "frame count");
    reader.expectU32(static_cast<std::uint32_t>(predictor.size()),
                     "predictor size");
    for (Frame &frame : frames) {
        frame.blockAddr = reader.u64();
        frame.fillTime = reader.u64();
        frame.lastAccess = reader.u64();
        frame.deadHandled = reader.b();
    }
    for (PredictorEntry &entry : predictor) {
        entry.deltaTags = reader.i32();
        entry.confidence = reader.u8();
    }
    const std::uint64_t fifo_size = reader.u64();
    bufferFifo.clear();
    for (std::uint64_t i = 0; i < fifo_size; ++i)
        bufferFifo.push_back(reader.u64());
    const std::uint64_t resident_size = reader.u64();
    bufferSet.clear();
    for (std::uint64_t i = 0; i < resident_size; ++i)
        bufferSet.insert(reader.u64());
    nextSweepTick = reader.u64();
    sweepCursor = reader.u32();
    // The wake bounds are not serialized: start from "unknown".
    setWake.assign(numSets, 0);
    screenWake.assign(screenWake.size(), 0);
    reader.scalar(issued);
    reader.scalar(deadPredictions);
    reader.scalar(trainedPairs);
    reader.scalar(bufferHits);
    reader.scalar(bufferInsertions);
    reader.scalar(bufferReplacements);
    reader.scalar(predictorMisses);
    reader.end();
}

void
TimekeepingPrefetcher::regStats(StatRegistry &registry,
                                const std::string &prefix) const
{
    registry.registerScalar(prefix + ".issued", &issued,
                            "hardware prefetches issued");
    registry.registerScalar(prefix + ".deadPredictions", &deadPredictions,
                            "blocks predicted dead");
    registry.registerScalar(prefix + ".trainedPairs", &trainedPairs,
                            "eviction->successor pairs trained");
    registry.registerScalar(prefix + ".bufferHits", &bufferHits,
                            "prefetch buffer hits");
    registry.registerScalar(prefix + ".bufferInsertions", &bufferInsertions,
                            "prefetch buffer insertions");
    registry.registerScalar(prefix + ".bufferReplacements",
                            &bufferReplacements,
                            "prefetch buffer FIFO replacements");
    registry.registerScalar(prefix + ".predictorMisses", &predictorMisses,
                            "dead predictions with no learned successor");
}

} // namespace vsv
