#include "grids.hh"

#include <functional>
#include <stdexcept>

namespace vsvbench
{

using namespace vsv;

namespace
{

const std::vector<std::string> &
paperTools()
{
    static const std::vector<std::string> tools = {
        "table2_baseline", "fig4_fsm_effect", "fig5_down_thresholds",
        "fig6_up_thresholds", "fig7_timekeeping"};
    return tools;
}

// baseline_techniques is left out: its variants differ only in the
// profile's software-prefetch coverage, which configFingerprint and
// structuralFingerprint do not cover, so lockstep batches them together
// and the swPF-off runs report their swPF-on twins' results (the
// reference check fails).
const std::vector<std::string> &
ablationTools()
{
    static const std::vector<std::string> tools = {"ablation_leakage",
                                                    "ablation_vsv"};
    return tools;
}

bool
isAblation(const std::string &tool)
{
    for (const std::string &t : ablationTools()) {
        if (t == tool)
            return true;
    }
    return false;
}

bool
takesTkWarmup(const std::string &tool)
{
    return tool == "table2_baseline" || tool == "fig7_timekeeping";
}

/** Defaults each binary passes to parseExperimentArgs. */
struct Defaults
{
    std::uint64_t instructions;
    std::uint64_t warmup;
    std::vector<std::string> benchmarks;
};

Defaults
defaultsFor(const std::string &tool)
{
    if (tool == "table2_baseline" || tool == "fig4_fsm_effect" ||
        tool == "fig7_timekeeping")
        return {400000, 300000, spec2kBenchmarks()};
    if (tool == "fig5_down_thresholds" || tool == "fig6_up_thresholds")
        return {400000, 300000, highMrBenchmarks()};
    if (tool == "ablation_leakage")
        return {200000, 300000, {"mcf", "ammp", "lucas"}};
    if (tool == "ablation_vsv")
        return {200000, 300000, {"mcf", "ammp", "applu"}};
    throw std::invalid_argument("no grid for tool: " + tool);
}

// ---- one grid function per binary; each mirrors bench/<tool>.cc ----

std::vector<SweepJob>
table2Grid(const ExperimentArgs &args)
{
    const std::uint64_t tk_warmup = args.config.getUInt("tk-warmup", 0);
    std::vector<SweepJob> jobs;
    for (const auto &name : args.benchmarks) {
        SimulationOptions base = makeOptions(args, name);
        applyRunSeed(base, args.seed);
        jobs.push_back({name + "/base", base});

        SimulationOptions tk =
            makeOptions(name, true, args.instructions, tk_warmup);
        tk.fastForward = args.fastForward;
        applyRunSeed(tk, args.seed);
        jobs.push_back({name + "/tk", tk});
    }
    return jobs;
}

std::vector<SweepJob>
fig4Grid(const ExperimentArgs &args)
{
    std::vector<SweepJob> jobs;
    for (const auto &name : args.benchmarks) {
        SimulationOptions base = makeOptions(args, name);
        applyRunSeed(base, args.seed);
        jobs.push_back({name + "/base", base});

        SimulationOptions no_fsm = base;
        no_fsm.vsv = noFsmVsvConfig();
        jobs.push_back({name + "/no-fsm", no_fsm});

        SimulationOptions with_fsm = base;
        with_fsm.vsv = fsmVsvConfig();
        jobs.push_back({name + "/fsm", with_fsm});
    }
    return jobs;
}

std::vector<SweepJob>
fig5Grid(const ExperimentArgs &args)
{
    const std::uint32_t thresholds[] = {0, 1, 3, 5};
    std::vector<SweepJob> jobs;
    for (const auto &name : args.benchmarks) {
        SimulationOptions base = makeOptions(args, name);
        applyRunSeed(base, args.seed);
        jobs.push_back({name + "/base", base});
        for (const std::uint32_t threshold : thresholds) {
            SimulationOptions opts = base;
            opts.vsv = fsmVsvConfig();
            opts.vsv.down = {threshold, 10};
            jobs.push_back(
                {name + "/down-" + std::to_string(threshold), opts});
        }
    }
    return jobs;
}

std::vector<SweepJob>
fig6Grid(const ExperimentArgs &args)
{
    struct Variant
    {
        const char *label;
        UpPolicy policy;
        std::uint32_t threshold;
    };
    const Variant variants[] = {
        {"first-r", UpPolicy::FirstR, 0},
        {"up-1", UpPolicy::Fsm, 1},
        {"up-3", UpPolicy::Fsm, 3},
        {"up-5", UpPolicy::Fsm, 5},
        {"last-r", UpPolicy::LastR, 0},
    };
    std::vector<SweepJob> jobs;
    for (const auto &name : args.benchmarks) {
        SimulationOptions base = makeOptions(args, name);
        applyRunSeed(base, args.seed);
        jobs.push_back({name + "/base", base});
        for (const Variant &variant : variants) {
            SimulationOptions opts = base;
            opts.vsv = fsmVsvConfig();
            opts.vsv.upPolicy = variant.policy;
            if (variant.policy == UpPolicy::Fsm)
                opts.vsv.up = {variant.threshold, 10};
            jobs.push_back({name + "/" + variant.label, opts});
        }
    }
    return jobs;
}

std::vector<SweepJob>
fig7Grid(const ExperimentArgs &args)
{
    const std::uint64_t tk_warmup = args.config.getUInt("tk-warmup", 0);
    std::vector<SweepJob> jobs;
    for (const auto &name : args.benchmarks) {
        SimulationOptions base = makeOptions(args, name);
        applyRunSeed(base, args.seed);
        jobs.push_back({name + "/base", base});

        SimulationOptions vsv = base;
        vsv.vsv = fsmVsvConfig();
        jobs.push_back({name + "/fsm", vsv});

        SimulationOptions tk_base =
            makeOptions(name, true, args.instructions, tk_warmup);
        tk_base.fastForward = args.fastForward;
        applyRunSeed(tk_base, args.seed);
        jobs.push_back({name + "/tk-base", tk_base});

        SimulationOptions tk_vsv = tk_base;
        tk_vsv.vsv = fsmVsvConfig();
        jobs.push_back({name + "/tk-fsm", tk_vsv});
    }
    return jobs;
}

std::vector<SweepJob>
leakageGrid(const ExperimentArgs &args)
{
    const double fractions[] = {0.0, 0.03, 0.08, 0.15};
    std::vector<SweepJob> jobs;
    for (const auto &bench : args.benchmarks) {
        for (const double fraction : fractions) {
            SimulationOptions base = makeOptions(args, bench);
            applyRunSeed(base, args.seed);
            base.power.leakageFraction = fraction;
            const std::string stem =
                bench + "/frac" + TextTable::num(fraction, 2);
            jobs.push_back({stem + "/base", base});

            SimulationOptions vsv = base;
            vsv.vsv = fsmVsvConfig();
            jobs.push_back({stem + "/vsv", vsv});
        }
    }
    return jobs;
}

std::vector<SweepJob>
ablationVsvGrid(const ExperimentArgs &args)
{
    using Apply = std::function<void(SimulationOptions &)>;
    const std::vector<Apply> variants = {
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
        [](SimulationOptions &o) { o.hierarchy.l2MissDetectTicks = 4; },
        [](SimulationOptions &o) { o.power.gating = GatingStyle::Simple; },
    };
    std::vector<SweepJob> jobs;
    for (std::size_t v = 0; v < variants.size(); ++v) {
        for (const auto &bench : args.benchmarks) {
            SimulationOptions base = makeOptions(args, bench);
            applyRunSeed(base, args.seed);
            variants[v](base);
            base.vsv.enabled = false;
            const std::string stem = bench + "/v" + std::to_string(v);
            jobs.push_back({stem + "/base", base});

            SimulationOptions vsv = base;
            const VsvConfig fsm = fsmVsvConfig();
            vsv.vsv.enabled = true;
            vsv.vsv.down = fsm.down;
            vsv.vsv.up = fsm.up;
            vsv.vsv.upPolicy = fsm.upPolicy;
            variants[v](vsv);
            vsv.vsv.enabled = true;
            jobs.push_back({stem + "/vsv", vsv});
        }
    }
    return jobs;
}

} // namespace

const std::vector<std::string> &
gridTools(const std::string &grid)
{
    if (grid == "paper")
        return paperTools();
    if (grid == "ablations")
        return ablationTools();
    throw std::invalid_argument("unknown grid: " + grid);
}

std::vector<std::string>
scaleFlags(const std::string &tool, const std::string &scale)
{
    std::vector<std::string> flags;
    if (scale == "standard") {
        flags = {"--instructions=50000",
                 isAblation(tool) ? "--warmup=75000" : "--warmup=37500"};
        if (takesTkWarmup(tool))
            flags.push_back("--tk-warmup=500000");
    } else if (scale == "smoke") {
        flags = {"--instructions=3000", "--warmup=1000"};
        if (takesTkWarmup(tool))
            flags.push_back("--tk-warmup=1000");
    } else if (scale != "full") {
        throw std::invalid_argument("unknown scale: " + scale +
                                    " (standard, smoke or full)");
    }
    if (isAblation(tool))
        flags.push_back("--benchmarks=mcf,ammp,art,lucas,applu,swim,facerec");
    return flags;
}

std::vector<SweepJob>
rebuildGrid(const std::string &tool, const std::vector<std::string> &flags,
            ExperimentArgs &args)
{
    const Defaults defaults = defaultsFor(tool);
    std::vector<std::string> words = {tool};
    words.insert(words.end(), flags.begin(), flags.end());
    std::vector<char *> argv;
    for (std::string &word : words)
        argv.push_back(word.data());
    args = parseExperimentArgs(static_cast<int>(argv.size()), argv.data(),
                               defaults.instructions, defaults.warmup,
                               defaults.benchmarks);

    using GridFn = std::vector<SweepJob> (*)(const ExperimentArgs &);
    const std::pair<const char *, GridFn> grids[] = {
        {"table2_baseline", table2Grid},
        {"fig4_fsm_effect", fig4Grid},
        {"fig5_down_thresholds", fig5Grid},
        {"fig6_up_thresholds", fig6Grid},
        {"fig7_timekeeping", fig7Grid},
        {"ablation_leakage", leakageGrid},
        {"ablation_vsv", ablationVsvGrid},
    };
    for (const auto &[name, build] : grids) {
        if (tool == name)
            return build(args);
    }
    throw std::invalid_argument("no grid for tool: " + tool);
}

} // namespace vsvbench
