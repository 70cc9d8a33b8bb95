#include "workload.hh"

#include <algorithm>

#include "common/intmath.hh"
#include "common/logging.hh"
#include "snapshot/snapshot.hh"

namespace vsv
{

namespace
{

/** Deterministic per-pc hash for branch-site properties. */
std::uint64_t
pcHash(Addr pc)
{
    std::uint64_t x = pc;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

template <typename T>
void
WorkloadGenerator::Ring<T>::reset(std::size_t capacity)
{
    slots.assign(capacity, T{});
    head = count = 0;
}

template <typename T>
void
WorkloadGenerator::Ring<T>::push(const T &value)
{
    VSV_ASSERT(count < slots.size(), "workload queue overflow");
    std::size_t tail = head + count;
    if (tail >= slots.size())
        tail -= slots.size();
    slots[tail] = value;
    ++count;
}

template <typename T>
T
WorkloadGenerator::Ring<T>::pop()
{
    const T value = slots[head];
    if (++head == slots.size())
        head = 0;
    --count;
    return value;
}

template <typename T>
const T &
WorkloadGenerator::Ring<T>::operator[](std::size_t i) const
{
    std::size_t at = head + i;
    if (at >= slots.size())
        at -= slots.size();
    return slots[at];
}

WorkloadGenerator::Odds
WorkloadGenerator::makeOdds(double p)
{
    // Rng::chance: no draw for p <= 0 (false) or p >= 1 (true); a NaN
    // draws and fails, as mantissaCut(NaN) = 0 makes it.
    Odds odds;
    odds.certain = p >= 1.0;
    odds.draws = !(p <= 0.0) && !odds.certain;
    odds.cut = mantissaCut(p);
    return odds;
}

inline bool
WorkloadGenerator::chance(Rng &stream, const Odds &odds)
{
    if (!odds.draws)
        return odds.certain;
    return (stream.next() >> 11) < odds.cut;
}

WorkloadGenerator::WorkloadGenerator(const WorkloadProfile &profile,
                                     std::uint32_t batch)
    : profile_(profile),
      rng(profile.seed * 0x2545f4914f6cdd1dULL + 1),
      addrRng(profile.seed * 0x9e3779b97f4a7c15ULL + 7),
      producerParam(1.0 / std::max(1.0, profile.meanDepDist)),
      batch_(batch)
{
    VSV_ASSERT(batch >= 1, profile.name + ": zero op batch");
    VSV_ASSERT(profile.loadFrac + profile.storeFrac + profile.branchFrac
                   <= 1.0,
               profile.name + ": instruction mix exceeds 1.0");
    VSV_ASSERT(profile.coldFrac + profile.warmFrac <= 1.0,
               profile.name + ": load region mix exceeds 1.0");
    VSV_ASSERT(profile.chainCount >= 1, profile.name + ": chainCount 0");
    VSV_ASSERT(profile.codeFootprint >= 4,
               profile.name + ": codeFootprint " +
                   std::to_string(profile.codeFootprint) +
                   " holds no instruction");

    loopInsts = profile.codeFootprint / 4;
    // Each slot pc's hash decides once whether it is a branch site
    // (see generate()), and if so the site's target, kind and bias:
    // all are functions of the pc alone, derived here rather than per
    // executed branch.
    const auto call_cut =
        static_cast<std::uint64_t>(profile.callFrac * 1000.0);
    slotSite.assign(loopInsts, 0);
    for (std::uint64_t s = 0; s < loopInsts && profile.branchFrac > 0.0;
         ++s) {
        const std::uint64_t hash = pcHash(codeBase + s * 4);
        if (!(static_cast<double>(hash % 100000) <
              profile.branchFrac * 100000.0)) {
            continue;
        }
        BranchSite site;
        site.target = codeBase + (hash % loopInsts) * 4;
        site.bias =
            0.93 + 0.069 * (static_cast<double>(hash & 0xffff) / 65536.0);
        // A fixed fraction of branch *sites* are calls, and an equal
        // fraction returns, selected by the site hash so the static
        // code shape repeats every loop iteration.
        const std::uint64_t kind_draw = (hash >> 17) % 1000;
        site.kind = kind_draw < call_cut         ? BranchKind::Call
                    : kind_draw < 2 * call_cut ? BranchKind::Return
                                               : BranchKind::Cond;
        branchSites.push_back(site);
        slotSite[s] = static_cast<std::uint32_t>(branchSites.size());
    }

    const double rescale = 1.0 / (1.0 - profile.branchFrac);
    loadCut = mantissaCut(profile.loadFrac * rescale);
    storeCut = mantissaCut((profile.loadFrac + profile.storeFrac) * rescale);
    coldLoadCut = mantissaCut(profile.coldFrac / profile.coldBurst);
    warmLoadCut = mantissaCut(profile.coldFrac / profile.coldBurst +
                              profile.warmFrac);
    coldStoreCut = mantissaCut(profile.coldFrac * profile.storeColdScale);
    warmStoreCut = mantissaCut((profile.coldFrac + profile.warmFrac) *
                               profile.storeColdScale);
    fpDivCut = mantissaCut(profile.fpDivFrac);
    fpMultCut = mantissaCut(profile.fpDivFrac + profile.fpMulFrac);
    intDivCut = mantissaCut(profile.intDivFrac);
    intMultCut = mantissaCut(profile.intDivFrac + profile.intMulFrac);
    fpOdds = makeOdds(profile.fpFrac);
    coldConsumerOdds = makeOdds(profile.coldConsumerProb);
    loadConsumerOdds = makeOdds(profile.loadConsumerProb);
    secondSrcOdds = makeOdds(profile.secondSrcProb);
    branchNoiseOdds = makeOdds(profile.branchNoise);
    coldRegularOdds = makeOdds(profile.coldRegularFrac);
    scanJitterOdds = makeOdds(profile.scanJitterProb);
    chainMutateOdds = makeOdds(profile.chainMutateProb);
    swPrefetchOdds = makeOdds(profile.swPrefetchCoverage);

    // Every take refills the window to lookahead + 1 refs, and a take
    // runs only when no prefetch is pending, so neither queue can
    // outgrow that.
    const std::size_t queue_bound =
        static_cast<std::size_t>(profile.swPrefetchLookahead) + 1;
    coldWindow.reset(queue_bound);
    pendingPrefetches.reset(queue_bound);

    VSV_ASSERT(profile.scanStreams >= 1, profile.name + ": scanStreams 0");
    scanCursors.assign(profile.scanStreams, 0);

    if (profile.coldPattern == ColdPattern::SeqChain) {
        chainCursor.resize(1);
        lastChainLoadPos.assign(1, 0);
    }

    // Pointer-chase patterns need a permutation over the cold blocks.
    if (profile.coldPattern == ColdPattern::Chain ||
        profile.coldPattern == ColdPattern::MutatingChain) {
        const std::uint64_t blocks = profile.coldFootprint / 64;
        VSV_ASSERT(blocks >= 2, profile.name + ": cold footprint tiny");
        VSV_ASSERT(blocks <= (1ULL << 31),
                   profile.name + ": cold footprint too large for chain");
        chainNext.resize(blocks);
        for (std::uint64_t i = 0; i < blocks; ++i)
            chainNext[i] = static_cast<std::uint32_t>(i);
        // Fisher-Yates with the dedicated address stream: a single
        // cycle is not guaranteed, but long cycles dominate and the
        // traversal re-randomizes on wrap anyway.
        for (std::uint64_t i = blocks - 1; i > 0; --i) {
            const std::uint64_t j = addrRng.nextBounded(i + 1);
            std::swap(chainNext[i], chainNext[j]);
        }
        chainCursor.resize(profile.chainCount);
        lastChainLoadPos.assign(profile.chainCount, 0);
        for (std::uint32_t c = 0; c < profile.chainCount; ++c) {
            chainCursor[c] = static_cast<std::uint32_t>(
                addrRng.nextBounded(blocks));
        }
    }
}

inline std::uint32_t
WorkloadGenerator::producerDistance(Rng &mix)
{
    const std::uint64_t draw = mix.nextGeometric(producerParam) + 1;
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(draw, 256));
}

inline Addr
WorkloadGenerator::regionAddr(Addr base, std::uint64_t footprint)
{
    return base + roundDown(addrRng.nextBounded(footprint), 8);
}

WorkloadGenerator::ColdRef
WorkloadGenerator::generateColdRef()
{
    // The regular side stream: a plain sequential sweep in its own
    // slice of the address space (above the primary footprint).
    if (chance(addrRng, coldRegularOdds)) {
        const Addr addr = coldBase + profile_.coldFootprint +
            (regularCursor % profile_.regularFootprint);
        regularCursor += profile_.coldStride;
        return {addr, -1};
    }

    switch (profile_.coldPattern) {
      case ColdPattern::Scan: {
        const std::uint32_t stream = nextScanStream;
        nextScanStream = (nextScanStream + 1) % profile_.scanStreams;
        std::uint64_t &cursor = scanCursors[stream];
        // Each stream sweeps its own slice of the footprint.
        const std::uint64_t slice =
            profile_.coldFootprint / profile_.scanStreams;
        const Addr addr = coldBase +
            stream * slice + (cursor % slice);
        cursor += profile_.coldStride;
        if (chance(addrRng, scanJitterOdds)) {
            // Skip a block or two: the skipped sets see a successor
            // delta of +2 instead of +1, eroding Time-Keeping's
            // confidence in proportion to the jitter probability.
            cursor += profile_.coldStride *
                      (1 + addrRng.nextBounded(2));
        }
        return {addr, -1};
      }
      case ColdPattern::SeqChain: {
        std::uint64_t &cursor = scanCursors[0];
        const Addr addr = coldBase + (cursor % profile_.coldFootprint);
        cursor += profile_.coldStride;
        return {addr, 0};
      }
      case ColdPattern::Random:
        return {regionAddr(coldBase, profile_.coldFootprint), -1};
      case ColdPattern::Chain:
      case ColdPattern::MutatingChain: {
        const std::uint32_t chain = nextChain;
        nextChain = (nextChain + 1) % profile_.chainCount;
        std::uint32_t &cursor = chainCursor[chain];
        const Addr addr = coldBase + static_cast<Addr>(cursor) * 64;
        std::uint32_t next = chainNext[cursor];
        if (profile_.coldPattern == ColdPattern::MutatingChain &&
            chance(addrRng, chainMutateOdds)) {
            next = static_cast<std::uint32_t>(
                addrRng.nextBounded(chainNext.size()));
            chainNext[cursor] = next;
        }
        cursor = next;
        return {addr, static_cast<std::int32_t>(chain)};
      }
    }
    panic("unreachable cold pattern");
}

void
WorkloadGenerator::extendColdWindow(std::size_t target_len)
{
    while (coldWindow.size() < target_len) {
        const ColdRef ref = generateColdRef();
        // Software prefetching: a covered cold access gets a timely
        // Prefetch op emitted while it is still `lookahead` cold
        // accesses away. Pointer chases are inherently uncoverable by
        // a compiler, which the per-profile coverage knob reflects.
        if (chance(rng, swPrefetchOdds))
            pendingPrefetches.push(ref.addr);
        coldWindow.push(ref);
    }
}

WorkloadGenerator::ColdRef
WorkloadGenerator::takeColdRef()
{
    extendColdWindow(coldWindow.capacity());
    return coldWindow.pop();
}

void
WorkloadGenerator::makeColdLoad(MicroOp &op)
{
    const ColdRef ref = takeColdRef();
    op.addr = ref.addr;
    sinceLastColdLoad = 0;
    if (ref.chainId >= 0) {
        // Pointer chase: the address comes from the previous load of
        // the same chain.
        const std::uint64_t last = lastChainLoadPos[ref.chainId];
        if (last > 0 && position > last) {
            op.depDist1 = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(position - last, 1u << 20));
        }
        lastChainLoadPos[ref.chainId] = position;
    } else {
        op.depDist1 = producerDistance(rng);
    }
}

inline void
WorkloadGenerator::makeLoad(MicroOp &op, Rng &mix)
{
    op.cls = OpClass::Load;

    // Inside a burst every load is cold and consumes no region draw.
    if (coldBurstRemaining > 0) {
        --coldBurstRemaining;
    } else {
        const std::uint64_t m = mix.next() >> 11;
        if (m >= coldLoadCut) {
            // Warm and hot loads draw alike; only the region differs.
            const bool warm = m < warmLoadCut;
            op.addr = regionAddr(warm ? warmBase : hotBase,
                                 warm ? profile_.warmFootprint
                                      : profile_.hotFootprint);
            op.depDist1 = producerDistance(mix);
            return;
        }
        coldBurstRemaining = profile_.coldBurst - 1;
    }
    // The rare cold path runs out of line on the member stream.
    rng = mix;
    makeColdLoad(op);
    mix = rng;
}

inline void
WorkloadGenerator::makeStore(MicroOp &op, Rng &mix)
{
    op.cls = OpClass::Store;

    // Every region draws alike: one offset, then two sources.
    const std::uint64_t m = mix.next() >> 11;
    const bool cold = m < coldStoreCut;
    const bool warm = m < warmStoreCut;
    op.addr = regionAddr(cold ? coldBase : warm ? warmBase : hotBase,
                         cold ? profile_.coldFootprint
                         : warm ? profile_.warmFootprint
                                : profile_.hotFootprint);
    // Address source plus data source.
    op.depDist1 = producerDistance(mix);
    op.depDist2 = producerDistance(mix);
}

inline void
WorkloadGenerator::makeBranch(MicroOp &op, const BranchSite &site, Rng &mix)
{
    op.cls = OpClass::Branch;
    op.depDist1 = producerDistance(mix);
    op.taken = true;

    if (site.kind == BranchKind::Call) {
        op.brKind = BranchKind::Call;
        op.target = site.target;
        if (callStack.size() < 64)
            callStack.push_back(op.pc + 4);
        return;
    }
    if (site.kind == BranchKind::Return && !callStack.empty()) {
        op.brKind = BranchKind::Return;
        // Matches what the RAS pushed at the call site.
        op.target = callStack.back();
        callStack.pop_back();
        return;
    }

    op.brKind = BranchKind::Cond;
    // Per-site bias: most branches are strongly biased (loop
    // back-edges); the noise term injects data-dependent outcomes the
    // predictor cannot learn, setting the floor misprediction rate.
    // A noisy outcome is a fair coin, a biased one a `bias` coin:
    // either way exactly one more draw, so one compare decides.
    const bool noisy = chance(mix, branchNoiseOdds);
    op.taken = mix.nextDouble() < (noisy ? 0.5 : site.bias);
    op.target = site.target;
}

inline void
WorkloadGenerator::assignComputeDeps(MicroOp &op, Rng &mix)
{
    if (sinceLastColdLoad > 0 && chance(mix, coldConsumerOdds)) {
        op.depDist1 = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(sinceLastColdLoad, 1u << 20));
    } else if (sinceLastLoad > 0 && chance(mix, loadConsumerOdds)) {
        op.depDist1 = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(sinceLastLoad, 1u << 20));
    } else {
        op.depDist1 = producerDistance(mix);
    }
    if (chance(mix, secondSrcOdds))
        op.depDist2 = producerDistance(mix);
}

inline void
WorkloadGenerator::makeCompute(MicroOp &op, Rng &mix)
{
    // One draw picks the divide / multiply / ALU class of either
    // kind: OpClass lists IntAlu, IntMult, IntDiv, FpAlu, FpMult,
    // FpDiv in that order.
    const bool fp = chance(mix, fpOdds);
    const std::uint64_t m = mix.next() >> 11;
    const std::uint64_t div_cut = fp ? fpDivCut : intDivCut;
    const std::uint64_t mult_cut = fp ? fpMultCut : intMultCut;
    const unsigned step = m < div_cut ? 2 : m < mult_cut ? 1 : 0;
    op.cls = static_cast<OpClass>(
        (fp ? static_cast<unsigned>(OpClass::FpAlu)
            : static_cast<unsigned>(OpClass::IntAlu)) +
        step);
    assignComputeDeps(op, mix);
}

void
WorkloadGenerator::refill()
{
    // Generate straight into the buffer's slots; generate() writes
    // every field, so no slot is reset first. The op-mix stream is
    // drawn through a local copy, which the compiler can keep in
    // registers across the whole batch: no pointer can reach it, so
    // no store to an op forces its state back to memory. Code that
    // uses the member (the cold-load path) is handed the state and
    // gives it back.
    opBuffer.resize(batch_);
    opBufferPos = 0;
    Rng mix = rng;
    for (MicroOp &op : opBuffer)
        generate(op, mix);
    rng = mix;
}

inline void
WorkloadGenerator::generate(MicroOp &op, Rng &mix)
{
    ++position;
    if (++loopSlot == loopInsts)
        loopSlot = 0;

    ++sinceLastLoad;  // distance from the latest load to this op
    ++sinceLastColdLoad;

    // The fields no op class sets stay at MicroOp's defaults.
    op.pc = currentPc();
    op.depDist1 = 0;
    op.depDist2 = 0;
    op.addr = 0;
    op.target = 0;
    op.taken = false;
    op.brKind = BranchKind::NotBranch;

    // Pending software prefetches take priority so they stay timely.
    if (!pendingPrefetches.empty()) {
        op.cls = OpClass::Prefetch;
        op.addr = pendingPrefetches.pop();
        op.depDist1 = producerDistance(mix);
        return;
    }

    // Branches live at *fixed slots* of the code loop (slotSite)
    // so every loop iteration exercises the same static branch sites -
    // without this, per-site predictor training would be
    // unrealistically sparse. The remaining slots draw their class
    // randomly, rescaled so the overall mix matches the profile.
    if (const std::uint32_t site = slotSite[loopSlot]) {
        makeBranch(op, branchSites[site - 1], mix);
        return;
    }

    const std::uint64_t m = mix.next() >> 11;
    if (m < loadCut) {
        makeLoad(op, mix);
        sinceLastLoad = 0;
    } else if (m < storeCut) {
        makeStore(op, mix);
    } else {
        makeCompute(op, mix);
    }
}

namespace
{

void
writeOp(SnapshotWriter &writer, const MicroOp &op)
{
    writer.u8(static_cast<std::uint8_t>(op.cls));
    writer.u8(static_cast<std::uint8_t>(op.brKind));
    writer.b(op.taken);
    writer.u32(op.depDist1);
    writer.u32(op.depDist2);
    writer.u64(op.pc);
    writer.u64(op.addr);
    writer.u64(op.target);
}

MicroOp
readOp(SnapshotReader &reader)
{
    MicroOp op;
    const std::uint8_t cls = reader.u8();
    if (cls >= static_cast<std::uint8_t>(OpClass::NumOpClasses))
        throw SnapshotError("snapshot: buffered op with bad class");
    op.cls = static_cast<OpClass>(cls);
    const std::uint8_t kind = reader.u8();
    if (kind > static_cast<std::uint8_t>(BranchKind::Return))
        throw SnapshotError("snapshot: buffered op with bad branch kind");
    op.brKind = static_cast<BranchKind>(kind);
    op.taken = reader.b();
    op.depDist1 = reader.u32();
    op.depDist2 = reader.u32();
    op.pc = reader.u64();
    op.addr = reader.u64();
    op.target = reader.u64();
    return op;
}

void
writeRng(SnapshotWriter &writer, const Rng &rng)
{
    for (const std::uint64_t word : rng.stateWords())
        writer.u64(word);
}

void
readRng(SnapshotReader &reader, Rng &rng)
{
    std::array<std::uint64_t, 4> words;
    for (std::uint64_t &word : words)
        word = reader.u64();
    rng.setStateWords(words);
}

} // namespace

void
WorkloadGenerator::snapshot(SnapshotWriter &writer) const
{
    writer.begin("workload");
    writer.str(profile_.name);
    writer.u64(profile_.seed);
    writeRng(writer, rng);
    writeRng(writer, addrRng);
    writer.u64(position);
    writer.u64(delivered);
    writer.u64(sinceLastLoad);
    writer.u64(sinceLastColdLoad);

    // Both queues are written front to back, whatever their rings'
    // head positions.
    writer.u64(coldWindow.size());
    for (std::size_t i = 0; i < coldWindow.size(); ++i) {
        writer.u64(coldWindow[i].addr);
        writer.i32(coldWindow[i].chainId);
    }
    writer.u32(coldBurstRemaining);
    writer.u64(pendingPrefetches.size());
    for (std::size_t i = 0; i < pendingPrefetches.size(); ++i)
        writer.u64(pendingPrefetches[i]);
    writer.u64(scanCursors.size());
    for (const std::uint64_t cursor : scanCursors)
        writer.u64(cursor);
    writer.u32(nextScanStream);
    writer.u64(regularCursor);
    writer.u64(chainNext.size());
    for (const std::uint32_t link : chainNext)
        writer.u32(link);
    writer.u64(chainCursor.size());
    for (const std::uint32_t cursor : chainCursor)
        writer.u32(cursor);
    writer.u64(lastChainLoadPos.size());
    for (const std::uint64_t pos : lastChainLoadPos)
        writer.u64(pos);
    writer.u32(nextChain);
    writer.u64(callStack.size());
    for (const Addr a : callStack)
        writer.u64(a);

    // Only the undelivered tail of the batch buffer is state.
    writer.u64(opBuffer.size() - opBufferPos);
    for (std::size_t i = opBufferPos; i < opBuffer.size(); ++i)
        writeOp(writer, opBuffer[i]);
    writer.end();
}

void
WorkloadGenerator::restore(SnapshotReader &reader)
{
    reader.begin("workload");
    const std::string name = reader.str();
    if (name != profile_.name) {
        throw SnapshotError("snapshot: workload profile mismatch ('" +
                            name + "' vs '" + profile_.name + "')");
    }
    reader.expectU64(profile_.seed, "workload seed");
    readRng(reader, rng);
    readRng(reader, addrRng);
    position = reader.u64();
    loopSlot = position % loopInsts;
    delivered = reader.u64();
    sinceLastLoad = reader.u64();
    sinceLastColdLoad = reader.u64();

    // Every stream index below is later used to subscript a vector,
    // so one out of range is rejected here rather than trusted.
    const auto checkIndex = [](std::uint64_t index, std::uint64_t size,
                               const char *what) {
        if (index >= size) {
            throw SnapshotError(std::string("snapshot: workload ") + what +
                                " " + std::to_string(index) +
                                " out of range (" + std::to_string(size) +
                                ")");
        }
    };

    // Neither queue can outgrow its ring (see the constructor).
    const auto checkQueue = [](std::uint64_t size, std::size_t bound,
                               const char *what) {
        if (size > bound) {
            throw SnapshotError(std::string("snapshot: workload ") + what +
                                " holds " + std::to_string(size) +
                                " entries (at most " +
                                std::to_string(bound) + ")");
        }
    };

    const std::uint64_t window_size = reader.u64();
    checkQueue(window_size, coldWindow.capacity(), "cold window");
    coldWindow.clear();
    for (std::uint64_t i = 0; i < window_size; ++i) {
        const Addr addr = reader.u64();
        const std::int32_t chain_id = reader.i32();
        // -1 marks a non-chain reference; a chain id subscripts the
        // per-chain load positions (one slot for SeqChain).
        if (chain_id != -1) {
            checkIndex(static_cast<std::uint32_t>(chain_id),
                       lastChainLoadPos.size(), "cold-window chain id");
        }
        coldWindow.push({addr, chain_id});
    }
    coldBurstRemaining = reader.u32();
    const std::uint64_t prefetch_count = reader.u64();
    checkQueue(prefetch_count, pendingPrefetches.capacity(),
               "prefetch queue");
    pendingPrefetches.clear();
    for (std::uint64_t i = 0; i < prefetch_count; ++i)
        pendingPrefetches.push(reader.u64());
    reader.expectU64(scanCursors.size(), "scan stream count");
    for (std::uint64_t &cursor : scanCursors)
        cursor = reader.u64();
    nextScanStream = reader.u32();
    checkIndex(nextScanStream, scanCursors.size(), "scan stream");
    regularCursor = reader.u64();
    reader.expectU64(chainNext.size(), "chain link count");
    for (std::uint32_t &link : chainNext) {
        link = reader.u32();
        checkIndex(link, chainNext.size(), "chain link");
    }
    reader.expectU64(chainCursor.size(), "chain count");
    for (std::uint32_t &cursor : chainCursor) {
        cursor = reader.u32();
        // SeqChain keeps one unused cursor and no links.
        if (!chainNext.empty())
            checkIndex(cursor, chainNext.size(), "chain cursor");
    }
    reader.expectU64(lastChainLoadPos.size(), "chain position count");
    for (std::uint64_t &pos : lastChainLoadPos)
        pos = reader.u64();
    nextChain = reader.u32();
    checkIndex(nextChain, profile_.chainCount, "next chain");
    const std::uint64_t stack_size = reader.u64();
    callStack.clear();
    for (std::uint64_t i = 0; i < stack_size; ++i)
        callStack.push_back(reader.u64());

    const std::uint64_t buffered = reader.u64();
    opBuffer.clear();
    opBufferPos = 0;
    for (std::uint64_t i = 0; i < buffered; ++i)
        opBuffer.push_back(readOp(reader));
    reader.end();
}

} // namespace vsv
