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
    // (see generate()).
    branchSlots.assign((loopInsts + 63) / 64, 0);
    if (profile.branchFrac > 0.0) {
        for (std::uint64_t s = 0; s < loopInsts; ++s) {
            const std::uint64_t slot_hash = pcHash(codeBase + s * 4);
            if (static_cast<double>(slot_hash % 100000) <
                profile.branchFrac * 100000.0) {
                branchSlots[s / 64] |= std::uint64_t{1} << (s % 64);
            }
        }
    }
    const double rescale = 1.0 / (1.0 - profile.branchFrac);
    loadCut = profile.loadFrac * rescale;
    storeCut = (profile.loadFrac + profile.storeFrac) * rescale;
    coldLoadCut = profile.coldFrac / profile.coldBurst;
    warmLoadCut = profile.coldFrac / profile.coldBurst + profile.warmFrac;
    coldStoreCut = profile.coldFrac * profile.storeColdScale;
    warmStoreCut =
        (profile.coldFrac + profile.warmFrac) * profile.storeColdScale;

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

std::uint32_t
WorkloadGenerator::producerDistance()
{
    const std::uint64_t draw = rng.nextGeometric(producerParam) + 1;
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(draw, 256));
}

Addr
WorkloadGenerator::hotAddr()
{
    return hotBase +
           roundDown(addrRng.nextBounded(profile_.hotFootprint), 8);
}

Addr
WorkloadGenerator::warmAddr()
{
    return warmBase +
           roundDown(addrRng.nextBounded(profile_.warmFootprint), 8);
}

WorkloadGenerator::ColdRef
WorkloadGenerator::generateColdRef()
{
    // The regular side stream: a plain sequential sweep in its own
    // slice of the address space (above the primary footprint).
    if (profile_.coldRegularFrac > 0.0 &&
        addrRng.chance(profile_.coldRegularFrac)) {
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
        if (profile_.scanJitterProb > 0.0 &&
            addrRng.chance(profile_.scanJitterProb)) {
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
      case ColdPattern::Random: {
        return {coldBase +
                    roundDown(addrRng.nextBounded(profile_.coldFootprint),
                              8),
                -1};
      }
      case ColdPattern::Chain:
      case ColdPattern::MutatingChain: {
        const std::uint32_t chain = nextChain;
        nextChain = (nextChain + 1) % profile_.chainCount;
        std::uint32_t &cursor = chainCursor[chain];
        const Addr addr = coldBase + static_cast<Addr>(cursor) * 64;
        std::uint32_t next = chainNext[cursor];
        if (profile_.coldPattern == ColdPattern::MutatingChain &&
            addrRng.chance(profile_.chainMutateProb)) {
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
        ColdRef ref = generateColdRef();
        // Software prefetching: a covered cold access gets a timely
        // Prefetch op emitted while it is still `lookahead` cold
        // accesses away. Pointer chases are inherently uncoverable by
        // a compiler, which the per-profile coverage knob reflects.
        if (profile_.swPrefetchCoverage > 0.0 &&
            rng.chance(profile_.swPrefetchCoverage)) {
            pendingPrefetches.push_back(ref.addr);
        }
        coldWindow.push_back(ref);
    }
}

WorkloadGenerator::ColdRef
WorkloadGenerator::takeColdRef()
{
    extendColdWindow(profile_.swPrefetchLookahead + 1);
    const ColdRef ref = coldWindow.front();
    coldWindow.pop_front();
    return ref;
}

void
WorkloadGenerator::makeLoad(MicroOp &op)
{
    op.cls = OpClass::Load;
    op.pc = currentPc();

    bool is_cold = false;
    if (coldBurstRemaining > 0) {
        is_cold = true;
        --coldBurstRemaining;
    }
    const double r = is_cold ? 1.0 : rng.nextDouble();
    if (is_cold || r < coldLoadCut) {
        if (!is_cold)
            coldBurstRemaining = profile_.coldBurst - 1;
        const ColdRef ref = takeColdRef();
        op.addr = ref.addr;
        sinceLastColdLoad = 0;
        if (ref.chainId >= 0) {
            // Pointer chase: the address comes from the previous load
            // of the same chain.
            const std::uint64_t last = lastChainLoadPos[ref.chainId];
            if (last > 0 && position > last) {
                op.depDist1 = static_cast<std::uint32_t>(
                    std::min<std::uint64_t>(position - last, 1u << 20));
            }
            lastChainLoadPos[ref.chainId] = position;
        } else {
            op.depDist1 = producerDistance();
        }
    } else if (r < warmLoadCut) {
        op.addr = warmAddr();
        op.depDist1 = producerDistance();
    } else {
        op.addr = hotAddr();
        op.depDist1 = producerDistance();
    }
}

void
WorkloadGenerator::makeStore(MicroOp &op)
{
    op.cls = OpClass::Store;
    op.pc = currentPc();

    const double r = rng.nextDouble();
    if (r < coldStoreCut) {
        op.addr = coldBase +
            roundDown(addrRng.nextBounded(profile_.coldFootprint), 8);
    } else if (r < warmStoreCut) {
        op.addr = warmAddr();
    } else {
        op.addr = hotAddr();
    }
    // Address source plus data source.
    op.depDist1 = producerDistance();
    op.depDist2 = producerDistance();
}

void
WorkloadGenerator::makeBranch(MicroOp &op)
{
    op.cls = OpClass::Branch;
    op.pc = currentPc();
    op.depDist1 = producerDistance();

    const std::uint64_t hash = pcHash(op.pc);
    const Addr site_target =
        codeBase + (hash % (profile_.codeFootprint / 4)) * 4;

    // A fixed fraction of branch *sites* are calls, and an equal
    // fraction returns, selected by the site hash so the static code
    // shape repeats every loop iteration.
    const std::uint64_t kind_draw = (hash >> 17) % 1000;
    const std::uint64_t call_cut =
        static_cast<std::uint64_t>(profile_.callFrac * 1000.0);

    if (kind_draw < call_cut) {
        op.brKind = BranchKind::Call;
        op.taken = true;
        op.target = site_target;
        if (callStack.size() < 64)
            callStack.push_back(op.pc + 4);
        return;
    }
    if (kind_draw < 2 * call_cut && !callStack.empty()) {
        op.brKind = BranchKind::Return;
        op.taken = true;
        // Matches what the RAS pushed at the call site.
        op.target = callStack.back();
        callStack.pop_back();
        return;
    }

    op.brKind = BranchKind::Cond;
    // Per-site bias: most branches are strongly biased (loop
    // back-edges); the noise term injects data-dependent outcomes the
    // predictor cannot learn, setting the floor misprediction rate.
    const double bias =
        0.93 + 0.069 * (static_cast<double>(hash & 0xffff) / 65536.0);
    if (rng.chance(profile_.branchNoise))
        op.taken = rng.chance(0.5);
    else
        op.taken = rng.chance(bias);
    op.target = site_target;
}

void
WorkloadGenerator::assignComputeDeps(MicroOp &op)
{
    if (profile_.coldConsumerProb > 0.0 && sinceLastColdLoad > 0 &&
        rng.chance(profile_.coldConsumerProb)) {
        op.depDist1 = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(sinceLastColdLoad, 1u << 20));
        if (rng.chance(profile_.secondSrcProb))
            op.depDist2 = producerDistance();
        return;
    }
    if (profile_.loadConsumerProb > 0.0 && sinceLastLoad > 0 &&
        rng.chance(profile_.loadConsumerProb)) {
        op.depDist1 = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(sinceLastLoad, 1u << 20));
    } else {
        op.depDist1 = producerDistance();
    }
    if (rng.chance(profile_.secondSrcProb))
        op.depDist2 = producerDistance();
}

void
WorkloadGenerator::makeCompute(MicroOp &op)
{
    op.pc = currentPc();

    if (rng.chance(profile_.fpFrac)) {
        const double r = rng.nextDouble();
        if (r < profile_.fpDivFrac)
            op.cls = OpClass::FpDiv;
        else if (r < profile_.fpDivFrac + profile_.fpMulFrac)
            op.cls = OpClass::FpMult;
        else
            op.cls = OpClass::FpAlu;
    } else {
        const double r = rng.nextDouble();
        if (r < profile_.intDivFrac)
            op.cls = OpClass::IntDiv;
        else if (r < profile_.intDivFrac + profile_.intMulFrac)
            op.cls = OpClass::IntMult;
        else
            op.cls = OpClass::IntAlu;
    }
    assignComputeDeps(op);
}

MicroOp
WorkloadGenerator::next()
{
    if (opBufferPos == opBuffer.size()) {
        // Generate straight into the buffer's slots: no per-op
        // temporary to copy in.
        opBuffer.resize(batch_);
        opBufferPos = 0;
        for (MicroOp &op : opBuffer) {
            op = MicroOp{};
            generate(op);
        }
    }
    ++delivered;
    return opBuffer[opBufferPos++];
}

void
WorkloadGenerator::generate(MicroOp &op)
{
    ++position;
    if (++loopSlot == loopInsts)
        loopSlot = 0;

    ++sinceLastLoad;  // distance from the latest load to this op
    ++sinceLastColdLoad;

    // Pending software prefetches take priority so they stay timely.
    if (!pendingPrefetches.empty()) {
        op.cls = OpClass::Prefetch;
        op.pc = currentPc();
        op.addr = pendingPrefetches.front();
        pendingPrefetches.pop_front();
        op.depDist1 = producerDistance();
        return;
    }

    // Branches live at *fixed slots* of the code loop (branchSlots)
    // so every loop iteration exercises the same static branch sites -
    // without this, per-site predictor training would be
    // unrealistically sparse. The remaining slots draw their class
    // randomly, rescaled so the overall mix matches the profile.
    if ((branchSlots[loopSlot / 64] >> (loopSlot % 64)) & 1) {
        makeBranch(op);
        return;
    }

    const double r = rng.nextDouble();
    if (r < loadCut) {
        makeLoad(op);
        sinceLastLoad = 0;
    } else if (r < storeCut) {
        makeStore(op);
    } else {
        makeCompute(op);
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

    writer.u64(coldWindow.size());
    for (const ColdRef &ref : coldWindow) {
        writer.u64(ref.addr);
        writer.i32(ref.chainId);
    }
    writer.u32(coldBurstRemaining);
    writer.u64(pendingPrefetches.size());
    for (const Addr a : pendingPrefetches)
        writer.u64(a);
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

    const std::uint64_t window_size = reader.u64();
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
        coldWindow.push_back({addr, chain_id});
    }
    coldBurstRemaining = reader.u32();
    const std::uint64_t prefetch_count = reader.u64();
    pendingPrefetches.clear();
    for (std::uint64_t i = 0; i < prefetch_count; ++i)
        pendingPrefetches.push_back(reader.u64());
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
