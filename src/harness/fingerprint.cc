#include "fingerprint.hh"

#include <charconv>
#include <cstddef>
#include <string_view>
#include <type_traits>

#include "common/hash.hh"

namespace vsv
{

namespace
{

/** The keys a row enters, as a bit mask. */
enum Key : unsigned { Config = 1, Warmup = 2, Structural = 4 };
constexpr unsigned CWS = Config | Warmup | Structural;
constexpr unsigned CW = Config | Warmup;
constexpr unsigned CS = Config | Structural;

// Constant words of retired layers: binary-trace replay's trace path
// and loop flag, and the multi-core topology's core count and rail
// policy. They keep every stored result, snapshot file name and
// reference fingerprint valid until one format bump drops them.
constexpr std::string_view retiredTracePath = "";
constexpr int retiredLoopFlag = 1;
constexpr int retiredCoreCount = 1;
constexpr int retiredRailPolicy = 0;

/** One key's text: the values of the rows that enter it, each ending
 *  in '|'. */
struct KeyText
{
    Key key;
    std::string text{};

    bool takes(unsigned keys) const { return keys & key; }

    /** A row: each of `values` enters the keys in `keys`. */
    template <class... T>
    void
    row(unsigned keys, const T &...values)
    {
        if (takes(keys))
            (put(values), ...);
    }

    template <class T>
    void
    put(const T &value)
    {
        char buf[32];
        char *end = buf;
        if constexpr (std::is_same_v<T, FuPoolSizes>) {
            for (const std::uint32_t n : value.count)
                put(n);
            return;
        } else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>) {
            return put(static_cast<int>(value));
        } else if constexpr (std::is_integral_v<T>) {
            end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
        } else if constexpr (std::is_same_v<T, double>) {
            // 17 significant digits in warmup keys and profile knobs;
            // elsewhere the stream default, 6, where that reads back
            // exactly (every value a shipped binary sets), else 17: no
            // two values share a text, and every older key holds.
            const auto print = [&](int digits) {
                return std::to_chars(buf, buf + sizeof(buf), value,
                                     std::chars_format::general, digits)
                    .ptr;
            };
            end = print(key == Warmup ? 17 : 6);
            double back = 0.0;
            std::from_chars(buf, end, back);
            if (back != value)
                end = print(17);
        } else {
            text += value;
        }
        text.append(buf, end);
        text += '|';
    }
};

// The field table: every options field that can change a result, in
// key order, with the keys it enters. Warmup takes the rows that shape
// post-warmup state, structural those that shape timing.

/** Name and seed enter every key. The generation knobs enter config
 *  and structural keys only for a modified profile (optionRows); the
 *  Table 2 targets only report. */
void
profileRows(KeyText &t, const WorkloadProfile &p)
{
    t.row(CWS, p.name, p.seed);
    t.row(Warmup, p.loadFrac, p.storeFrac, p.branchFrac, p.fpFrac,
          p.intMulFrac, p.intDivFrac, p.fpMulFrac, p.fpDivFrac);
    t.row(Warmup, p.meanDepDist, p.secondSrcProb, p.loadConsumerProb,
          p.coldConsumerProb);
    t.row(Warmup, p.coldFrac, p.coldBurst, p.warmFrac, p.hotFootprint,
          p.warmFootprint, p.coldFootprint, p.coldPattern, p.coldStride,
          p.scanStreams, p.scanJitterProb, p.chainCount,
          p.chainMutateProb, p.coldRegularFrac, p.regularFootprint,
          p.storeColdScale);
    t.row(Warmup, p.branchNoise, p.codeFootprint, p.callFrac);
    t.row(Warmup, p.swPrefetchCoverage, p.swPrefetchLookahead,
          p.tkWarmupInstructions);
}

/** Every profile row at 17 digits, as a warmup key holds it, less
 *  the last '|'. */
std::string
profileText(const WorkloadProfile &p)
{
    KeyText t{Warmup};
    profileRows(t, p);
    t.text.pop_back();
    return t.text;
}

/** A stock profile is a pure function of its name, so name and seed
 *  pin it. A modified one (baseline_techniques' swPF-off runs, test
 *  profiles) adds every knob, never sharing its stock twin's key. */
bool
isStock(const WorkloadProfile &p)
{
    if (!isSpec2kBenchmark(p.name))
        return false;
    WorkloadProfile stock = spec2kProfile(p.name);
    stock.seed = p.seed;
    return profileText(p) == profileText(stock);
}

void
optionRows(KeyText &t, const SimulationOptions &o)
{
    t.row(Warmup, "warmup-v2");  // the key prefixes; config has none
    t.row(Structural, "structural-v1");
    profileRows(t, o.profile);
    if (t.takes(CS) && !isStock(o.profile))
        t.row(CS, "profile", profileText(o.profile));
    t.row(CWS, retiredTracePath, retiredLoopFlag, o.warmupInstructions);
    t.row(CS, o.measureInstructions);
    t.row(CWS, o.timekeeping, o.stridePrefetch);

    const VsvConfig &vsv = o.vsv;
    t.row(CS, vsv.enabled, vsv.down.threshold, vsv.down.period,
          vsv.upPolicy, vsv.up.threshold, vsv.up.period,
          vsv.ctrlDistTicks, vsv.clockTreeTicks, vsv.clockDivider);
    // The rail voltages and slew only account energy, except for the
    // ramp length they round to (VoltageRail::swingTicks), which paces
    // RampDown/RampUp.
    t.row(Config, vsv.vddHigh, vsv.vddLow, vsv.slewVoltsPerTick);
    t.row(Structural,
          static_cast<std::uint32_t>(
              (vsv.vddHigh - vsv.vddLow) / vsv.slewVoltsPerTick + 0.5));

    const PowerModelConfig &pw = o.power;
    t.row(CW, pw.gating, pw.vddHigh, pw.vddLow, pw.gatingEfficiency,
          pw.idleFraction, pw.rampEnergyPj, pw.leakageFraction,
          pw.converterHighModeFactor);

    const HierarchyConfig &h = o.hierarchy;
    for (const CacheConfig *c : {&h.l1i, &h.l1d, &h.l2})
        t.row(CWS, c->sizeBytes, c->assoc, c->blockBytes, c->hitLatency);
    t.row(CWS, h.l1iMshrs, h.l1dMshrs, h.l2Mshrs);
    t.row(CS, h.prefetchBufferLatency, h.l2MissDetectTicks);
    t.row(CWS, h.bus.widthBytes, h.bus.occupancy);
    t.row(CS, h.dram.latency);

    const CoreConfig &core = o.core;
    t.row(CS, core.fetchWidth, core.dispatchWidth, core.issueWidth,
          core.commitWidth, core.ruuSize, core.lsqSize,
          core.fetchQueueSize, core.mispredictPenalty, core.dcachePorts);

    const BranchPredictorConfig &b = o.branch;
    t.row(CWS, b.bimodalEntries, b.gshareEntries, b.chooserEntries,
          b.historyBits, b.btbEntries, b.btbAssoc, b.rasEntries);

    const TimekeepingConfig &tk = o.tk;
    t.row(CWS, tk.bufferEntries, tk.decayResolution, tk.deadMultiplier,
          tk.predictorEntries, o.stride.streams, o.stride.degree,
          o.stride.maxStrideBytes);

    t.row(CWS, retiredCoreCount);
    t.row(CS, retiredRailPolicy);

    // Keyed after the rows above shipped, so each enters only away
    // from its default, after its label, the way a modified profile
    // adds its knobs: every key written before them still holds.
    const TimekeepingConfig stock;
    if (core.fuPools != CoreConfig{}.fuPools)
        t.row(CS, "core.fuPools", core.fuPools);
    if (tk.tagSigBits != stock.tagSigBits)
        t.row(CWS, "tk.tagSigBits", tk.tagSigBits);
    if (tk.indexSigBits != stock.indexSigBits)
        t.row(CWS, "tk.indexSigBits", tk.indexSigBits);
    if (tk.sweepSlices != stock.sweepSlices)
        t.row(CWS, "tk.sweepSlices", tk.sweepSlices);
    if (tk.minLiveTime != stock.minLiveTime)
        t.row(CWS, "tk.minLiveTime", tk.minLiveTime);
    if (tk.confidenceThreshold != stock.confidenceThreshold)
        t.row(CWS, "tk.confidenceThreshold", tk.confidenceThreshold);
    if (tk.maxDeltaTags != stock.maxDeltaTags)
        t.row(CWS, "tk.maxDeltaTags", tk.maxDeltaTags);
}

/** How many fields aggregate T has; an array counts each element. */
struct AnyField
{
    template <class T> operator T() const;
};

template <class T, class... Fields>
constexpr std::size_t
fieldCount()
{
    if constexpr (requires { T{Fields{}..., AnyField{}}; })
        return fieldCount<T, Fields..., AnyField>();
    else
        return sizeof...(Fields);
}

// A field added to an option struct fails the build here until the
// table has a row for it or the count below names it as excluded.
static_assert(fieldCount<SimulationOptions>() == 12 + 3,
              "excluded: fastForward, trace, abortHook");
static_assert(fieldCount<WorkloadProfile>() == 35 + 3, "excluded: target*");
static_assert(fieldCount<CacheConfig>() == 4 + 1, "excluded: name");
static_assert(fieldCount<VsvConfig>() == 10);
static_assert(fieldCount<IssueMonitorConfig>() == 2);
static_assert(fieldCount<PowerModelConfig>() == 8);
static_assert(fieldCount<HierarchyConfig>() == 10);
static_assert(fieldCount<BusConfig>() == 2);
static_assert(fieldCount<DramConfig>() == 1);
static_assert(fieldCount<CoreConfig>() == 10);
static_assert(fieldCount<FuPoolSizes>() == numFuPools);
static_assert(fieldCount<BranchPredictorConfig>() == 7);
static_assert(fieldCount<TimekeepingConfig>() == 10);
static_assert(fieldCount<StridePrefetcherConfig>() == 3);

std::string
fingerprint(Key key, const SimulationOptions &o)
{
    KeyText t{key};
    optionRows(t, o);
    return fnv1a64Hex(t.text);
}

} // namespace

std::string
configFingerprint(const SimulationOptions &options)
{
    return fingerprint(Config, options);
}

std::string
warmupFingerprint(const SimulationOptions &options)
{
    return fingerprint(Warmup, options);
}

std::string
structuralFingerprint(const SimulationOptions &options)
{
    if (options.vsv.enabled)
        return fingerprint(Structural, options);
    // With VSV off the controller never leaves High: it never ramps,
    // never divides the clock and never consults an FSM, and the
    // miss-detect event only refreshes its mirrored miss count. So the
    // VSV knobs and the detect latency key as their defaults. Each
    // batch member still builds its own controller from its own knobs.
    SimulationOptions timing = options;
    timing.vsv = VsvConfig{};
    timing.vsv.enabled = false;
    timing.hierarchy.l2MissDetectTicks =
        HierarchyConfig{}.l2MissDetectTicks;
    return fingerprint(Structural, timing);
}

} // namespace vsv
