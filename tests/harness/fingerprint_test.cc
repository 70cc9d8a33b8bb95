/**
 * @file
 * The three run keys (configFingerprint, warmupFingerprint,
 * structuralFingerprint) over every option field: each double knob
 * perturbed past its sixth significant digit splits every key it
 * enters, each integer knob that changes results splits its keys, and
 * the keys of every non-default configuration the shipped ablation
 * binaries run are pinned, so the result store, the warmup snapshot
 * directories and the benchmark's reference fingerprints stay valid.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/lockstep.hh"

namespace vsv
{
namespace
{

/** Which keys a knob enters. */
enum KeyMask : unsigned
{
    InConfig = 1,
    InWarmup = 2,
    InStructural = 4,
};

struct Keys
{
    std::string config;
    std::string warmup;
    std::string structural;
};

Keys
keysOf(const SimulationOptions &o)
{
    return {configFingerprint(o), warmupFingerprint(o),
            structuralFingerprint(o)};
}

/** Expect `o`'s keys to differ from `base`'s exactly where `mask`
 *  says the changed knob enters. */
void
expectSplits(const Keys &base, const SimulationOptions &o, unsigned mask,
             const std::string &knob)
{
    const Keys k = keysOf(o);
    EXPECT_EQ(k.config != base.config, (mask & InConfig) != 0)
        << knob << ": configFingerprint";
    EXPECT_EQ(k.warmup != base.warmup, (mask & InWarmup) != 0)
        << knob << ": warmupFingerprint";
    EXPECT_EQ(k.structural != base.structural,
              (mask & InStructural) != 0)
        << knob << ": structuralFingerprint";
}

/** An mcf VSV run with a TK warmup, so every knob is live. */
SimulationOptions
vsvOptions()
{
    SimulationOptions o = makeOptions("mcf", true, 20000, 5000);
    o.vsv = fsmVsvConfig();
    return o;
}

struct DoubleKnob
{
    const char *name;
    std::function<double &(SimulationOptions &)> field;
    unsigned mask;
};

#define VSV_KNOB(path, mask)                                             \
    DoubleKnob                                                           \
    {                                                                    \
        #path, [](SimulationOptions &o) -> double & { return o.path; },  \
            mask                                                         \
    }

constexpr unsigned everyKey = InConfig | InWarmup | InStructural;

/** Every double in SimulationOptions that can change a result. The
 *  VSV voltages and slew enter the structural key only through the
 *  ramp length they round to, which a 1e-7 nudge keeps. */
const std::vector<DoubleKnob> &
doubleKnobs()
{
    static const std::vector<DoubleKnob> knobs = {
        VSV_KNOB(profile.loadFrac, everyKey),
        VSV_KNOB(profile.storeFrac, everyKey),
        VSV_KNOB(profile.branchFrac, everyKey),
        VSV_KNOB(profile.fpFrac, everyKey),
        VSV_KNOB(profile.intMulFrac, everyKey),
        VSV_KNOB(profile.intDivFrac, everyKey),
        VSV_KNOB(profile.fpMulFrac, everyKey),
        VSV_KNOB(profile.fpDivFrac, everyKey),
        VSV_KNOB(profile.meanDepDist, everyKey),
        VSV_KNOB(profile.secondSrcProb, everyKey),
        VSV_KNOB(profile.loadConsumerProb, everyKey),
        VSV_KNOB(profile.coldConsumerProb, everyKey),
        VSV_KNOB(profile.coldFrac, everyKey),
        VSV_KNOB(profile.warmFrac, everyKey),
        VSV_KNOB(profile.scanJitterProb, everyKey),
        VSV_KNOB(profile.chainMutateProb, everyKey),
        VSV_KNOB(profile.coldRegularFrac, everyKey),
        VSV_KNOB(profile.storeColdScale, everyKey),
        VSV_KNOB(profile.branchNoise, everyKey),
        VSV_KNOB(profile.callFrac, everyKey),
        VSV_KNOB(profile.swPrefetchCoverage, everyKey),
        VSV_KNOB(vsv.vddHigh, InConfig),
        VSV_KNOB(vsv.vddLow, InConfig),
        VSV_KNOB(vsv.slewVoltsPerTick, InConfig),
        VSV_KNOB(power.vddHigh, InConfig | InWarmup),
        VSV_KNOB(power.vddLow, InConfig | InWarmup),
        VSV_KNOB(power.gatingEfficiency, InConfig | InWarmup),
        VSV_KNOB(power.idleFraction, InConfig | InWarmup),
        VSV_KNOB(power.rampEnergyPj, InConfig | InWarmup),
        VSV_KNOB(power.leakageFraction, InConfig | InWarmup),
        VSV_KNOB(power.converterHighModeFactor, InConfig | InWarmup),
        VSV_KNOB(tk.deadMultiplier, everyKey),
        // Calibration targets are reporting-only: in no key.
        VSV_KNOB(profile.targetIpc, 0),
        VSV_KNOB(profile.targetMrBase, 0),
        VSV_KNOB(profile.targetMrTk, 0),
    };
    return knobs;
}

#undef VSV_KNOB

TEST(FingerprintTest, EveryDoubleKnobSplitsPastTheSixthDigit)
{
    for (const DoubleKnob &knob : doubleKnobs()) {
        // A knob at zero cannot be scaled; give it a value first.
        SimulationOptions base = vsvOptions();
        if (knob.field(base) == 0.0)
            knob.field(base) = 0.03;
        const Keys keys = keysOf(base);

        SimulationOptions nudged = base;
        knob.field(nudged) *= 1.0 + 1e-7;
        ASSERT_NE(knob.field(nudged), knob.field(base)) << knob.name;
        expectSplits(keys, nudged, knob.mask, knob.name);
    }
}

TEST(FingerprintTest, EveryResultChangingIntegerKnobSplitsItsKeys)
{
    struct IntKnob
    {
        const char *name;
        std::function<void(SimulationOptions &)> change;
        unsigned mask;
    };
    const unsigned cs = InConfig | InStructural;
    const std::vector<IntKnob> knobs = {
        {"warmupInstructions",
         [](SimulationOptions &o) { o.warmupInstructions += 1; },
         everyKey},
        {"measureInstructions",
         [](SimulationOptions &o) { o.measureInstructions += 1; }, cs},
        {"stridePrefetch",
         [](SimulationOptions &o) { o.stridePrefetch = true; },
         everyKey},
        {"vsv.upPolicy",
         [](SimulationOptions &o) { o.vsv.upPolicy = UpPolicy::LastR; },
         cs},
        {"vsv.ctrlDistTicks",
         [](SimulationOptions &o) { o.vsv.ctrlDistTicks += 1; }, cs},
        {"power.gating",
         [](SimulationOptions &o) { o.power.gating = GatingStyle::Ideal; },
         InConfig | InWarmup},
        {"hierarchy.l1d.assoc",
         [](SimulationOptions &o) { o.hierarchy.l1d.assoc *= 2; },
         everyKey},
        {"hierarchy.prefetchBufferLatency",
         [](SimulationOptions &o) { o.hierarchy.prefetchBufferLatency += 1; },
         cs},
        {"hierarchy.l2MissDetectTicks",
         [](SimulationOptions &o) { o.hierarchy.l2MissDetectTicks = 4; },
         cs},
        {"hierarchy.bus.occupancy",
         [](SimulationOptions &o) { o.hierarchy.bus.occupancy += 1; },
         everyKey},
        {"hierarchy.dram.latency",
         [](SimulationOptions &o) { o.hierarchy.dram.latency += 1; }, cs},
        {"core.dcachePorts",
         [](SimulationOptions &o) { o.core.dcachePorts -= 1; }, cs},
        {"branch.rasEntries",
         [](SimulationOptions &o) { o.branch.rasEntries /= 2; },
         everyKey},
        {"stride.maxStrideBytes",
         [](SimulationOptions &o) { o.stride.maxStrideBytes /= 2; },
         everyKey},
        // The fields that entered no key before the field table: the
        // functional-unit pools pace issue, and the Time-Keeping
        // signature and training knobs shape the trained predictor.
        {"core.fuPools",
         [](SimulationOptions &o) { o.core.fuPools.count[1] += 1; }, cs},
        {"tk.tagSigBits",
         [](SimulationOptions &o) { o.tk.tagSigBits += 1; }, everyKey},
        {"tk.indexSigBits",
         [](SimulationOptions &o) { o.tk.indexSigBits += 1; }, everyKey},
        {"tk.sweepSlices",
         [](SimulationOptions &o) { o.tk.sweepSlices *= 2; }, everyKey},
        {"tk.minLiveTime",
         [](SimulationOptions &o) { o.tk.minLiveTime *= 2; }, everyKey},
        {"tk.confidenceThreshold",
         [](SimulationOptions &o) { o.tk.confidenceThreshold += 1; },
         everyKey},
        {"tk.maxDeltaTags",
         [](SimulationOptions &o) { o.tk.maxDeltaTags /= 2; }, everyKey},
        // Observability knobs never change a result: in no key.
        {"fastForward",
         [](SimulationOptions &o) { o.fastForward = false; }, 0},
        {"hierarchy.l2.name",
         [](SimulationOptions &o) { o.hierarchy.l2.name = "llc"; }, 0},
    };

    const SimulationOptions base = vsvOptions();
    const Keys keys = keysOf(base);
    for (const IntKnob &knob : knobs) {
        SimulationOptions o = base;
        knob.change(o);
        expectSplits(keys, o, knob.mask, knob.name);
    }
}

/** One run of a shipped binary and its keys at the parent format. */
struct PinnedRun
{
    const char *id;
    const char *config;
    const char *structural;
    /** Empty where the run shares the stock mcf warmup key. */
    const char *warmup;
};

/** The shipped binaries' default windows (200k measured, 300k
 *  warmup). */
SimulationOptions
shippedBase(const std::string &bench = "mcf")
{
    return makeOptions(bench, false, 200000, 300000);
}

/** A pinned run's keys must match, and its warmup key must equal its
 *  benchmark's stock key exactly where none is pinned. */
void
expectPinned(const PinnedRun &pin, const SimulationOptions &o)
{
    const std::string stockWarmup =
        warmupFingerprint(shippedBase(o.profile.name));
    EXPECT_EQ(configFingerprint(o), pin.config) << pin.id;
    EXPECT_EQ(structuralFingerprint(o), pin.structural) << pin.id;
    const std::string warmup = warmupFingerprint(o);
    EXPECT_EQ(warmup == stockWarmup ? std::string() : warmup,
              pin.warmup)
        << pin.id;
}

TEST(FingerprintPinTest, AblationVsvKeysAreUnchanged)
{
    // bench/ablation_vsv's ten variants, each as its matching
    // baseline and FSM run. Every baseline keys v0's structural key:
    // no VSV knob, and not the miss-detect latency, acts with VSV off.
    const std::vector<std::function<void(SimulationOptions &)>> variants =
        {
            [](SimulationOptions &) {},
            [](SimulationOptions &o) { o.vsv.slewVoltsPerTick = 0.10; },
            [](SimulationOptions &o) { o.vsv.slewVoltsPerTick = 0.025; },
            [](SimulationOptions &o) { o.power.rampEnergyPj = 0.0; },
            [](SimulationOptions &o) { o.power.rampEnergyPj = 660000.0; },
            [](SimulationOptions &o) {
                o.vsv.vddLow = 1.5;
                o.power.vddLow = 1.5;
            },
            [](SimulationOptions &o) {
                o.vsv.down.period = 5;
                o.vsv.up.period = 5;
            },
            [](SimulationOptions &o) {
                o.vsv.down.period = 20;
                o.vsv.up.period = 20;
            },
            [](SimulationOptions &o) {
                o.hierarchy.l2MissDetectTicks = 4;
            },
            [](SimulationOptions &o) {
                o.power.gating = GatingStyle::Simple;
            },
        };
    const PinnedRun pins[] = {
        {"mcf/v0/base", "f0c5451e3a117e81",
         "65c6d1c1b3fcb143", ""},
        {"mcf/v0/vsv", "093a0d512f2f44fc",
         "2420af2cbc1d12ec", ""},
        {"mcf/v1/base", "dd5171a561c69ef7",
         "65c6d1c1b3fcb143", ""},
        {"mcf/v1/vsv", "67f006b402fbca7c",
         "b40612f6181aa0c9", ""},
        {"mcf/v2/base", "051d4d7a7588c219",
         "65c6d1c1b3fcb143", ""},
        {"mcf/v2/vsv", "49e5a4e5cfdef202",
         "d9f368f473683dd3", ""},
        {"mcf/v3/base", "ecc38092ceca45c5",
         "65c6d1c1b3fcb143", "b7414b68ab7d1a84"},
        {"mcf/v3/vsv", "83c574215355395c",
         "2420af2cbc1d12ec", "b7414b68ab7d1a84"},
        {"mcf/v4/base", "19abd4e87f950531",
         "65c6d1c1b3fcb143", "b46fd0521310e02c"},
        {"mcf/v4/vsv", "f39b25f352e448ae",
         "2420af2cbc1d12ec", "b46fd0521310e02c"},
        {"mcf/v5/base", "4761b68030da2c97",
         "65c6d1c1b3fcb143", "68e1dcee2bd1cc0b"},
        {"mcf/v5/vsv", "0b5b5d0796b0ee72",
         "b40612f6181aa0c9", "68e1dcee2bd1cc0b"},
        {"mcf/v6/base", "3ac1106fd5d2fb01",
         "65c6d1c1b3fcb143", ""},
        {"mcf/v6/vsv", "5349636e0bd87910",
         "c3538b485821cd5c", ""},
        {"mcf/v7/base", "da2634fd58ae015b",
         "65c6d1c1b3fcb143", ""},
        {"mcf/v7/vsv", "7b0a9491d7646606",
         "afcc02ad4f34293e", ""},
        {"mcf/v8/base", "539b530ec32f21f5",
         "65c6d1c1b3fcb143", ""},
        {"mcf/v8/vsv", "4d47a56075e96e60",
         "e3144a8179271750", ""},
        {"mcf/v9/base", "c0c3939f81e23d90",
         "65c6d1c1b3fcb143", "050aa660fe899f2f"},
        {"mcf/v9/vsv", "fda90e38455f6c1d",
         "2420af2cbc1d12ec", "050aa660fe899f2f"},
    };
    ASSERT_EQ(std::size(pins), 2 * variants.size());
    for (std::size_t v = 0; v < variants.size(); ++v) {
        SimulationOptions base = shippedBase();
        variants[v](base);
        base.vsv.enabled = false;
        expectPinned(pins[2 * v], base);

        SimulationOptions vsv = base;
        const VsvConfig fsm = fsmVsvConfig();
        vsv.vsv.enabled = true;
        vsv.vsv.down = fsm.down;
        vsv.vsv.up = fsm.up;
        vsv.vsv.upPolicy = fsm.upPolicy;
        variants[v](vsv);
        vsv.vsv.enabled = true;
        expectPinned(pins[2 * v + 1], vsv);
    }
}

TEST(FingerprintPinTest, AblationLeakageKeysAreUnchanged)
{
    const double fractions[] = {0.0, 0.03, 0.08, 0.15};
    const PinnedRun pins[] = {
        {"mcf/frac0.00/base", "f0c5451e3a117e81",
         "65c6d1c1b3fcb143", ""},
        {"mcf/frac0.00/vsv", "093a0d512f2f44fc",
         "2420af2cbc1d12ec", ""},
        {"mcf/frac0.03/base", "16599b9bb1e86508",
         "65c6d1c1b3fcb143", "707c8c82f2f26a70"},
        {"mcf/frac0.03/vsv", "a270d6455022dbdf",
         "2420af2cbc1d12ec", "707c8c82f2f26a70"},
        {"mcf/frac0.08/base", "0d2641d215fdcea7",
         "65c6d1c1b3fcb143", "07a665178a38d138"},
        {"mcf/frac0.08/vsv", "dec4bf0b8f5d5a10",
         "2420af2cbc1d12ec", "07a665178a38d138"},
        {"mcf/frac0.15/base", "2d42d2df2cf49945",
         "65c6d1c1b3fcb143", "3d4b100138e339d8"},
        {"mcf/frac0.15/vsv", "1a5cdbca1f461c02",
         "2420af2cbc1d12ec", "3d4b100138e339d8"},
    };
    ASSERT_EQ(std::size(pins), 2 * std::size(fractions));
    for (std::size_t f = 0; f < std::size(fractions); ++f) {
        SimulationOptions base = shippedBase();
        base.power.leakageFraction = fractions[f];
        expectPinned(pins[2 * f], base);
        SimulationOptions vsv = base;
        vsv.vsv = fsmVsvConfig();
        expectPinned(pins[2 * f + 1], vsv);
    }
}

TEST(FingerprintPinTest, BaselineTechniquesKeysAreUnchanged)
{
    // bench/baseline_techniques' variants that leave the stock
    // configuration: swPF off, simple gating, and both. applu, since
    // mcf and ammp compile no software prefetches.
    struct Variant
    {
        bool dcg;
        bool swPrefetch;
    };
    const Variant variants[] = {{true, false}, {false, true},
                                {false, false}};
    const PinnedRun pins[] = {
        {"applu/dcg/base", "77004133bfe8103b",
         "16d6faf4335a56f3", "57178b57fd1910f0"},
        {"applu/dcg/vsv", "5de153d6d0283696",
         "381c0a72603c259c", "57178b57fd1910f0"},
        {"applu/swpf/base", "f259ccdef5d03442",
         "fbda38d14ff67dd1", "b64877efddba05ac"},
        {"applu/swpf/vsv", "b5b24177074285e7",
         "a0111bfea9608fa2", "b64877efddba05ac"},
        {"applu/neither/base", "b2c51f6683380236",
         "16d6faf4335a56f3", "66842d257caa7a77"},
        {"applu/neither/vsv", "8d16a2ef757d5f9b",
         "381c0a72603c259c", "66842d257caa7a77"},
    };
    ASSERT_EQ(std::size(pins), 2 * std::size(variants));
    for (std::size_t v = 0; v < std::size(variants); ++v) {
        SimulationOptions base = shippedBase("applu");
        base.power.gating =
            variants[v].dcg ? GatingStyle::Dcg : GatingStyle::Simple;
        if (!variants[v].swPrefetch)
            base.profile.swPrefetchCoverage = 0.0;
        expectPinned(pins[2 * v], base);
        SimulationOptions vsv = base;
        vsv.vsv = fsmVsvConfig();
        expectPinned(pins[2 * v + 1], vsv);
    }
}

} // namespace
} // namespace vsv
