/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot components
 * (simulation throughput, not modeled performance).
 */

#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "branch/predictor.hh"
#include "cache/cache.hh"
#include "cache/mshr.hh"
#include "common/eventq.hh"
#include "common/random.hh"
#include "cpu/core.hh"
#include "harness/simulator.hh"
#include "power/model.hh"
#include "prefetch/timekeeping.hh"
#include "workload/workload.hh"

// Bench-local global-allocation tally so benchmarks can report heap
// allocations per iteration: the event slab pool and the lockstep
// rail arrays are supposed to amortize to zero (respectively
// setup-only) heap traffic, and a counter makes a regression visible
// in the bench output instead of only in a profiler.
//
// GCC's -Wmismatched-new-delete misfires on replaced global
// allocators (it pairs the inlined malloc in our operator new with
// the free in our operator delete and flags the perfectly matched
// pair), so silence it for this file.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace
{
std::atomic<std::uint64_t> g_benchAllocs{0};

std::uint64_t
benchAllocCount()
{
    return g_benchAllocs.load(std::memory_order_relaxed);
}
} // namespace

void *
operator new(std::size_t n)
{
    g_benchAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace vsv
{
namespace
{

/** allocations/iteration over the timed loop, averaged by gbench. */
benchmark::Counter
allocsPerIter(std::uint64_t since)
{
    return benchmark::Counter(
        static_cast<double>(benchAllocCount() - since),
        benchmark::Counter::kAvgIterations);
}

void
BM_RngNext(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_RngNext);

void
BM_GeometricDraw(benchmark::State &state)
{
    // One producer-distance draw at p = 0.2 (meanDepDist 5). range(0)
    // 0 evaluates the log1p formula with log1p(-p) hoisted, 1 looks
    // the same draw up in GeometricParam's threshold table.
    constexpr double p = 0.2;
    Rng rng(1);
    if (state.range(0) == 0) {
        const double log_failure = std::log1p(-p);
        for (auto _ : state) {
            benchmark::DoNotOptimize(static_cast<std::uint64_t>(
                std::log1p(-rng.nextDouble()) / log_failure));
        }
    } else {
        const GeometricParam param(p);
        for (auto _ : state)
            benchmark::DoNotOptimize(rng.nextGeometric(param));
    }
}
BENCHMARK(BM_GeometricDraw)->Arg(0)->Arg(1);

void
BM_CacheAccessHit(benchmark::State &state)
{
    Cache cache(CacheConfig{"l1", 64 * 1024, 2, 32, 2});
    cache.fill(0x1000, false);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(0x1000, false).hit);
}
BENCHMARK(BM_CacheAccessHit);

void
BM_CacheAccessHitL2(benchmark::State &state)
{
    // The L2 geometry: every way of one 8-way set holds a block, and
    // the lookups rotate through them.
    const CacheConfig config{"l2", 2 * 1024 * 1024, 8, 64, 12};
    Cache cache(config);
    const Addr set_stride = Addr{cache.numSets()} * config.blockBytes;
    for (Addr way = 0; way < config.assoc; ++way)
        cache.fill(0x1000 + way * set_stride, false);
    Addr way = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(0x1000 + way * set_stride, false).hit);
        way = (way + 1) & (config.assoc - 1);
    }
}
BENCHMARK(BM_CacheAccessHitL2);

void
BM_MshrFind(benchmark::State &state)
{
    // A full file of state.range(0) entries; the lookups rotate
    // through their blocks.
    const auto entries = static_cast<std::uint32_t>(state.range(0));
    MshrFile mshrs("l2.mshr", entries);
    for (Addr i = 0; i < entries; ++i)
        mshrs.allocate(0x40000000 + i * 64, 0);
    Addr i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mshrs.find(0x40000000 + i * 64));
        i = i + 1 == entries ? 0 : i + 1;
    }
}
BENCHMARK(BM_MshrFind)->Arg(64);

void
BM_CacheFillEvictChurn(benchmark::State &state)
{
    Cache cache(CacheConfig{"l2", 2 * 1024 * 1024, 8, 64, 12});
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.fill(addr, false));
        addr += 64;
    }
}
BENCHMARK(BM_CacheFillEvictChurn);

void
BM_BranchPredictorRoundTrip(benchmark::State &state)
{
    BranchPredictor bp;
    MicroOp op;
    op.cls = OpClass::Branch;
    op.brKind = BranchKind::Cond;
    op.pc = 0x1000;
    op.taken = true;
    op.target = 0x2000;
    for (auto _ : state) {
        const BranchPrediction pred = bp.predict(op);
        benchmark::DoNotOptimize(bp.resolve(op, pred));
    }
}
BENCHMARK(BM_BranchPredictorRoundTrip);

void
BM_EventQueueScheduleService(benchmark::State &state)
{
    EventQueue q;
    Tick now = 0;
    for (auto _ : state) {
        q.schedule(now + 10, [](Tick) {});
        q.serviceUntil(now);
        ++now;
    }
    q.serviceUntil(maxTick - 1);
}
BENCHMARK(BM_EventQueueScheduleService);

void
BM_EventPoolBurstChurn(benchmark::State &state)
{
    // Slab-pool reuse under bursts that span both wheel levels and
    // the overflow heap: the steady-state cost of schedule+fire when
    // every node comes from the free list. allocs/iter must sit at
    // ~0 - a nonzero reading means pool nodes leak back to the heap.
    EventQueue q;
    Tick now = 0;
    std::uint64_t sink = 0;
    const std::uint64_t allocs0 = benchAllocCount();
    for (auto _ : state) {
        for (int i = 0; i < 16; ++i)
            q.schedule(now + 1 + (i * 37) % 500,
                       [&sink](Tick) { ++sink; });
        q.schedule(now + 70000, [&sink](Tick) { ++sink; });
        now += 100;
        q.serviceUntil(now);
    }
    state.counters["allocs/iter"] = allocsPerIter(allocs0);
    q.serviceUntil(now + 80000);
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventPoolBurstChurn);

void
BM_WorkloadGeneration(benchmark::State &state)
{
    // range(0) is the generator's batch size: 1 reproduces the
    // pre-batching per-call cost, defaultBatchOps is what the
    // simulator uses. The delivered stream is identical either way
    // (the generator is open-loop); only the throughput differs.
    WorkloadGenerator gen(spec2kProfile("mcf"),
                          static_cast<std::uint32_t>(state.range(0)));
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next().addr);
}
BENCHMARK(BM_WorkloadGeneration)
    ->Arg(1)
    ->Arg(WorkloadGenerator::defaultBatchOps);

void
BM_FunctionalWarmup(benchmark::State &state)
{
    // One functional warmup of mcf at the default geometry, range(0)
    // toggling Time-Keeping: the region pre-touch plus the streamed
    // instructions through the caches, the branch predictor and (when
    // on) the prefetcher. Building and destroying the simulator are
    // left out of the timing; time/inst is the time per warmup
    // instruction.
    constexpr std::uint64_t instructions = 200000;
    SimulationOptions options;
    options.profile = spec2kProfile("mcf");
    options.warmupInstructions = instructions;
    options.timekeeping = state.range(0) != 0;
    std::unique_ptr<Simulator> sim;
    for (auto _ : state) {
        state.PauseTiming();
        sim = std::make_unique<Simulator>(options);
        state.ResumeTiming();
        sim->warmup();
        state.PauseTiming();
        sim.reset();
        state.ResumeTiming();
    }
    const auto warmed = static_cast<double>(state.iterations() *
                                            instructions);
    state.counters["time/inst"] = benchmark::Counter(
        warmed, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    state.SetItemsProcessed(static_cast<std::int64_t>(warmed));
}
BENCHMARK(BM_FunctionalWarmup)->Arg(0)->Arg(1)->Unit(
    benchmark::kMillisecond);

/** A warmed mcf simulator at the default geometry: its snapshot is
 *  about 1.3 MB, L2 tags and mcf's chain links dominating. */
SimulationOptions
snapshotBenchOptions()
{
    SimulationOptions options;
    options.profile = spec2kProfile("mcf");
    options.warmupInstructions = 20000;
    return options;
}

void
BM_SnapshotEncode(benchmark::State &state)
{
    // One encode as the warmup cache makes it: a fresh buffer each
    // time, so its page faults are part of the cost.
    Simulator warmed(snapshotBenchOptions());
    warmed.warmup();
    std::size_t bytes = 0;
    for (auto _ : state) {
        const SnapshotBytes snapshot = warmed.snapshot("fp");
        benchmark::DoNotOptimize(snapshot.data());
        benchmark::ClobberMemory();
        bytes = snapshot.size();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() *
                                                      bytes));
}
BENCHMARK(BM_SnapshotEncode)->Unit(benchmark::kMillisecond);

void
BM_SnapshotRestore(benchmark::State &state)
{
    // One restore from shared bytes into a freshly built simulator;
    // building and destroying the simulator are left out of the
    // timing.
    const SimulationOptions options = snapshotBenchOptions();
    Simulator warmed(options);
    warmed.warmup();
    const SnapshotBytes snapshot = warmed.snapshot("fp");
    std::unique_ptr<Simulator> fresh;
    for (auto _ : state) {
        state.PauseTiming();
        fresh = std::make_unique<Simulator>(options);
        state.ResumeTiming();
        fresh->restoreFrom(snapshot.view(), "fp");
        benchmark::DoNotOptimize(fresh->warmedUp());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() *
                                                      snapshot.size()));
}
BENCHMARK(BM_SnapshotRestore)->Unit(benchmark::kMillisecond);

void
BM_PowerRecordAccess(benchmark::State &state)
{
    // The per-access Wattch charge at a mid-ramp VDD: one
    // instruction's typical access mix (about sixteen charges, as the
    // core makes them), then the tick that closes it. range(0)
    // lockstep replica rails beside the leader's each take the same
    // accesses at their own VDD. Items are charges times rails, so
    // the per-item time is the cost of pricing one access on one
    // rail.
    using enum PowerStructure;
    static constexpr PowerStructure mix[] = {
        FetchLogic,      PipelineLatches, RenameLogic,     RuuRam,
        PipelineLatches, IntAlu,          RuuCam,          RegFile,
        LevelConverters, PipelineLatches, ResultBus,       RuuCam,
        RegFile,         LevelConverters, RuuRam,          PipelineLatches};
    const auto n = static_cast<std::size_t>(state.range(0));
    const std::vector<PowerModelConfig> rails(n + 1);
    PowerModel power(rails);
    // As in the measured loop, which never snapshots the ledger.
    power.stopCountingAccesses();
    power.setPipelineVdd(1.53);
    for (std::size_t r = 1; r <= n; ++r)
        power.setPipelineVdd(1.2 + 0.03 * static_cast<double>(r - 1), r);
    for (auto _ : state) {
        for (const PowerStructure s : mix)
            power.recordAccess(s);
        power.tick(true);
        benchmark::ClobberMemory();
    }
    benchmark::DoNotOptimize(power.totalEnergyPj());
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * std::size(mix) * (n + 1)));
}
BENCHMARK(BM_PowerRecordAccess)->Arg(0)->Arg(7);

/**
 * A store-heavy stream over an L1-resident set of words: every group
 * of eight ops holds three stores and three loads, two of which read
 * a word just stored, so the LSQ always holds address-ready stores
 * and most loads walk it.
 */
class StoreHeavyTrace : public TraceSource
{
  public:
    static constexpr Addr dataBase = WorkloadRegions::hot;
    static constexpr Addr dataBytes = 16 * 1024;
    static constexpr Addr codeBytes = 256;

    MicroOp
    next() override
    {
        MicroOp op;
        const Addr word = dataBase + (group * 24) % dataBytes;
        switch (n % 8) {
          case 0: op.cls = OpClass::Store; op.addr = word; break;
          case 1: op.cls = OpClass::Store; op.addr = word + 8; break;
          case 2: op.cls = OpClass::Load; op.addr = word; break;
          case 3: op.cls = OpClass::IntAlu; op.depDist1 = 1; break;
          case 4: op.cls = OpClass::Store; op.addr = word + 16; break;
          case 5: op.cls = OpClass::Load; op.addr = word + 2048; break;
          case 6: op.cls = OpClass::Load; op.addr = word + 16; break;
          default: op.cls = OpClass::IntAlu; op.depDist1 = 2; break;
        }
        op.pc = WorkloadRegions::code + (4 * n) % codeBytes;
        if (++n % 8 == 0)
            ++group;
        return op;
    }

  private:
    std::uint64_t n = 0;
    std::uint64_t group = 0;
};

/**
 * A mixed window for the issue stage: every group of sixteen ops
 * holds integer and FP ALU ops, multiplies, an integer and an FP
 * divide (both unpipelined), two loads and a store over an
 * L1-resident set, with short dependences, so the ready set is wide
 * and pools run out of units within a cycle.
 */
class IssueMixTrace : public TraceSource
{
  public:
    static constexpr Addr dataBase = WorkloadRegions::hot;
    static constexpr Addr dataBytes = 16 * 1024;
    static constexpr Addr codeBytes = 256;

    MicroOp
    next() override
    {
        struct Slot
        {
            OpClass cls;
            std::uint32_t dep;
        };
        static constexpr Slot group[16] = {
            {OpClass::IntAlu, 0},  {OpClass::IntAlu, 1},
            {OpClass::FpAlu, 0},   {OpClass::FpMult, 1},
            {OpClass::Load, 0},    {OpClass::IntMult, 0},
            {OpClass::IntAlu, 2},  {OpClass::FpAlu, 4},
            {OpClass::IntDiv, 8},  {OpClass::Load, 0},
            {OpClass::FpMult, 0},  {OpClass::Store, 2},
            {OpClass::IntAlu, 0},  {OpClass::FpDiv, 3},
            {OpClass::IntAlu, 1},  {OpClass::FpAlu, 0}};
        const Slot &slot = group[n % 16];
        MicroOp op;
        op.cls = slot.cls;
        op.depDist1 = slot.dep;
        if (isMemOp(op.cls))
            op.addr = dataBase + (n * 72) % dataBytes;
        op.pc = WorkloadRegions::code + (4 * n) % codeBytes;
        ++n;
        return op;
    }

  private:
    std::uint64_t n = 0;
};

void
BM_CoreIssueMix(benchmark::State &state)
{
    // One pipeline cycle of a core issuing a mixed int/FP/mul/div/
    // memory window from L1-resident data: the cost line for the
    // issue stage's select loop and unit acquisition. Items are
    // committed instructions.
    PowerModel power;
    power.stopCountingAccesses();
    MemoryHierarchy mem(HierarchyConfig{}, power);
    BranchPredictor predictor;
    IssueMixTrace trace;
    Core core(CoreConfig{}, trace, mem, predictor, power);
    mem.setWarmupMode(true);
    Tick now = 0;
    for (Addr off = 0; off < IssueMixTrace::codeBytes; off += 32)
        mem.warmupInstAccess(WorkloadRegions::code + off, now++);
    for (Addr off = 0; off < IssueMixTrace::dataBytes; off += 32)
        mem.warmupDataAccess(IssueMixTrace::dataBase + off, false, now++);
    mem.setWarmupMode(false);

    const std::uint64_t committed0 = core.committedInstructions();
    for (auto _ : state) {
        mem.service(now);
        benchmark::DoNotOptimize(core.cycle(now));
        power.tick(true);
        ++now;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        core.committedInstructions() - committed0));
}
BENCHMARK(BM_CoreIssueMix);

void
BM_CoreStoreHeavyCycle(benchmark::State &state)
{
    // One pipeline cycle of a core whose window is full of stores and
    // loads that forward from them: the cost line for the LSQ's
    // store-forward search. Items are committed instructions.
    PowerModel power;
    power.stopCountingAccesses();  // as in the measured loop
    MemoryHierarchy mem(HierarchyConfig{}, power);
    BranchPredictor predictor;
    StoreHeavyTrace trace;
    Core core(CoreConfig{}, trace, mem, predictor, power);
    mem.setWarmupMode(true);
    Tick now = 0;
    for (Addr off = 0; off < StoreHeavyTrace::codeBytes; off += 32)
        mem.warmupInstAccess(WorkloadRegions::code + off, now++);
    for (Addr off = 0; off < StoreHeavyTrace::dataBytes + 4096; off += 32)
        mem.warmupDataAccess(StoreHeavyTrace::dataBase + off, false, now++);
    mem.setWarmupMode(false);

    const std::uint64_t committed0 = core.committedInstructions();
    for (auto _ : state) {
        mem.service(now);
        benchmark::DoNotOptimize(core.cycle(now));
        power.tick(true);
        ++now;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        core.committedInstructions() - committed0));
}
BENCHMARK(BM_CoreStoreHeavyCycle);

void
BM_CorePipelineCycle(benchmark::State &state)
{
    // One pipeline cycle of the measured loop's core on mcf: a Core
    // over a real MemoryHierarchy and PowerModel, fed by the
    // generator after a functional warmup of its regions, with the
    // memory events and power tick around each cycle. No controller
    // and no fast-forward, so every cycle runs every stage. time/inst
    // is the time per committed instruction (printed in ns).
    PowerModel power;
    power.stopCountingAccesses();  // as in the measured loop
    MemoryHierarchy mem(HierarchyConfig{}, power);
    BranchPredictor predictor;
    WorkloadGenerator workload(spec2kProfile("mcf"));
    Core core(CoreConfig{}, workload, mem, predictor, power);
    const WorkloadProfile &profile = workload.profile();
    mem.setWarmupMode(true);
    Tick now = 0;
    for (Addr off = 0; off < profile.codeFootprint; off += 32)
        mem.warmupInstAccess(WorkloadRegions::code + off, now++);
    for (Addr off = 0; off < profile.hotFootprint; off += 32)
        mem.warmupDataAccess(WorkloadRegions::hot + off, false, now++);
    for (Addr off = 0; off < profile.warmFootprint; off += 32)
        mem.warmupDataAccess(WorkloadRegions::warm + off, false, now++);
    mem.setWarmupMode(false);

    const std::uint64_t committed0 = core.committedInstructions();
    for (auto _ : state) {
        mem.service(now);
        benchmark::DoNotOptimize(core.cycle(now));
        power.tick(true);
        ++now;
    }
    const auto committed = static_cast<double>(
        core.committedInstructions() - committed0);
    state.counters["time/inst"] = benchmark::Counter(
        committed,
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
    state.SetItemsProcessed(static_cast<std::int64_t>(committed));
}
BENCHMARK(BM_CorePipelineCycle);

void
BM_SimulatorThroughput(benchmark::State &state)
{
    // Whole-stack simulation speed in instructions/second.
    for (auto _ : state) {
        SimulationOptions options;
        options.profile = spec2kProfile("gzip");
        options.warmupInstructions = 5000;
        options.measureInstructions =
            static_cast<std::uint64_t>(state.range(0));
        Simulator sim(options);
        benchmark::DoNotOptimize(sim.run().ticks);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorThroughput)->Arg(20000)->Unit(
    benchmark::kMillisecond);

void
BM_VsvSimulatorThroughput(benchmark::State &state)
{
    for (auto _ : state) {
        SimulationOptions options;
        options.profile = spec2kProfile("mcf");
        options.warmupInstructions = 5000;
        options.measureInstructions =
            static_cast<std::uint64_t>(state.range(0));
        options.vsv.enabled = true;
        Simulator sim(options);
        benchmark::DoNotOptimize(sim.run().ticks);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VsvSimulatorThroughput)->Arg(20000)->Unit(
    benchmark::kMillisecond);

void
BM_LockstepReplicaStep(benchmark::State &state)
{
    // Lockstep batch throughput: one front-end stepping range(0)
    // replica rails alongside the leader. Items processed counts
    // every config's instructions, so the per-item rate shows how
    // cheap an extra rail is next to a full re-simulation. The rail
    // arrays are sized once, at construction; allocs/iter is the
    // whole build+warmup+run cost and must grow only O(replicas) per
    // iteration, never O(replicas x ticks).
    const auto replicas = static_cast<std::size_t>(state.range(0));
    constexpr std::uint64_t instructions = 20000;
    const std::uint64_t allocs0 = benchAllocCount();
    for (auto _ : state) {
        SimulationOptions options;
        options.profile = spec2kProfile("mcf");
        options.warmupInstructions = 5000;
        options.measureInstructions = instructions;
        options.vsv.enabled = true;
        const std::vector<SimulationOptions> rails(replicas + 1, options);
        Simulator sim(rails);
        benchmark::DoNotOptimize(sim.run().ticks);
    }
    state.counters["allocs/iter"] = allocsPerIter(allocs0);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations() * instructions *
                                  (replicas + 1)));
}
BENCHMARK(BM_LockstepReplicaStep)->Arg(0)->Arg(7)->Arg(15)->Unit(
    benchmark::kMillisecond);

void
BM_StalledCoreFastForward(benchmark::State &state)
{
    // mcf is miss-dominated, so most ticks are pure stall. range(1)
    // toggles the idle-tick fast-forward; the two entries report the
    // kernel's before/after throughput on the same workload.
    for (auto _ : state) {
        SimulationOptions options;
        options.profile = spec2kProfile("mcf");
        options.warmupInstructions = 5000;
        options.measureInstructions =
            static_cast<std::uint64_t>(state.range(0));
        options.fastForward = state.range(1) != 0;
        Simulator sim(options);
        benchmark::DoNotOptimize(sim.run().ticks);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_StalledCoreFastForward)
    ->Args({20000, 0})
    ->Args({20000, 1})
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace vsv

BENCHMARK_MAIN();
