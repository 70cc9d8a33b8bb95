/**
 * @file
 * Time-resolved event tracing for the simulator.
 *
 * A TraceSink is a slab-buffered, append-only log of small typed
 * events (mode transitions, FSM activity, L2-miss detect/return, MSHR
 * occupancy, voltage changes, interval statistics, ...). Components
 * hold a `TraceSink *` that is null when tracing is off, so every
 * emit site compiles down to one pointer test; with a sink attached,
 * record() is an inlined category-mask test plus a bump-pointer store
 * into a fixed-size slab - no per-event allocation, no formatting,
 * no branches beyond the mask test on the hot path.
 *
 * After a run the sink exports Chrome trace-event JSON (the
 * "JSON Array Format" both Perfetto and chrome://tracing load).
 * Timestamps are emitted as raw ticks: one trace microsecond equals
 * one simulated nanosecond (= one full-speed cycle at 1 GHz), so a
 * 12-tick VDD ramp reads as a 12 "us" slice in the viewer. The
 * schema (tracks, slice names, counter names, args) is documented in
 * OBSERVABILITY.md.
 *
 * Recording never mutates simulation state and no instrumented
 * component reads the sink back, so a traced run's statistics are
 * bit-identical to an untraced run's.
 */

#ifndef VSV_TRACE_SINK_HH
#define VSV_TRACE_SINK_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace vsv
{

/**
 * Event categories, selectable at run time (--trace-categories).
 * One bit each so the enabled-set test is a single mask-and.
 */
enum class TraceCategory : std::uint32_t
{
    Mode = 1u << 0,      ///< VSV operating-state residency slices
    Fsm = 1u << 1,       ///< down-/up-FSM arm/observe/fire/expire
    L2Miss = 1u << 2,    ///< demand L2 miss detect/return
    Mshr = 1u << 3,      ///< L2 MSHR occupancy counter
    Power = 1u << 4,     ///< pipeline VDD + ramp-energy counters
    Clock = 1u << 5,     ///< effective clock-divider counter
    Core = 1u << 6,      ///< mispredict recoveries, memory retries
    Interval = 1u << 7,  ///< interval-stats counter tracks
    FastForward = 1u << 8, ///< synthesized idle-span slices
};

/** Every category bit set. */
inline constexpr std::uint32_t allTraceCategories = (1u << 9) - 1;

/** Typed event kinds. Payload meaning is per kind (see record sites). */
enum class TraceEventKind : std::uint8_t
{
    ModeEnter,     ///< a = interned index of the entered state's name
    FsmArm,        ///< a = 0 down-FSM / 1 up-FSM
    FsmObserve,    ///< a = which FSM, b = (issued << 8) | MonitorOutcome
    FsmDisarm,     ///< a = which FSM (disarmed without settling)
    MissDetect,    ///< a = outstanding demand misses incl. this one
    MissReturn,    ///< a = outstanding demand misses afterwards
    MshrLevel,     ///< a = L2 MSHR entries in use
    VddChange,     ///< a = bit pattern of the new pipeline VDD (double)
    RampEnergy,    ///< a = bit pattern of cumulative ramp energy (pJ)
    ClockDivider,  ///< a = effective pipeline-clock divider
    Mispredict,    ///< a = recovering branch's sequence number
    MemRetry,      ///< a = retrying access's sequence number (0: store)
    IdleSpan,      ///< a = ticks fast-forwarded, b = pipeline edges
    IntervalValue, ///< a = interned series-name index, b = double bits
};

/** Identifies which monitoring FSM an Fsm-category event refers to. */
inline constexpr std::uint64_t traceFsmDown = 0;
inline constexpr std::uint64_t traceFsmUp = 1;

/** Pack an FsmObserve payload: issue count + settling outcome. */
inline constexpr std::uint64_t
packFsmObserve(std::uint32_t issued, std::uint8_t outcome)
{
    return (static_cast<std::uint64_t>(issued) << 8) | outcome;
}

/** One recorded event: 32 bytes, trivially copyable. */
struct TraceEvent
{
    Tick ts;
    std::uint64_t a;
    std::uint64_t b;
    std::uint16_t kind; ///< TraceEventKind
    std::uint16_t cat;  ///< bit index of the TraceCategory
};

/**
 * Per-run trace configuration, carried inside SimulationOptions.
 * An empty path means tracing is off (no sink is constructed).
 */
struct TraceConfig
{
    /** Output file for the Chrome trace-event JSON. */
    std::string path;
    /** Enabled-category mask (default: everything). */
    std::uint32_t categories = allTraceCategories;
    /** Interval-stats epoch length in ticks; 0 disables sampling. */
    std::uint64_t intervalTicks = 0;
    /**
     * Extra StatRegistry scalars to sample per epoch (as per-tick
     * deltas) on top of the built-in issue-rate and power tracks.
     */
    std::vector<std::string> intervalScalars;
};

/** The slab-buffered event log. */
class TraceSink
{
  public:
    explicit TraceSink(std::uint32_t category_mask = allTraceCategories);

    /** Inlined enabled-category test (the fast-path guard). */
    bool
    wants(TraceCategory c) const
    {
        return (mask_ & static_cast<std::uint32_t>(c)) != 0;
    }

    /** Append one event; no-op when the category is masked off. */
    void
    record(TraceCategory c, TraceEventKind k, Tick ts,
           std::uint64_t a = 0, std::uint64_t b = 0)
    {
        if (!wants(c))
            return;
        if (cursor_ == slabEnd_)
            addSlab();
        *cursor_++ = TraceEvent{ts, a, b,
                                static_cast<std::uint16_t>(k),
                                categoryIndex(c)};
    }

    /**
     * Intern a counter-series name (for IntervalValue events) and
     * return its stable index. Repeated interning of the same string
     * returns the same index.
     */
    std::uint32_t internString(std::string_view s);
    const std::string &internedString(std::uint32_t index) const;

    std::size_t eventCount() const;

    /** Visit every event in recording order. */
    void visit(const std::function<void(const TraceEvent &)> &fn) const;

    /**
     * Export the Chrome trace-event JSON document. Event timestamps
     * are emitted relative to `origin` (every recorded ts must be
     * >= origin); open mode/FSM slices are closed at `end_tick`.
     */
    void writeChromeJson(std::ostream &os, Tick origin,
                         Tick end_tick) const;

    /**
     * Parse a comma-separated category list ("mode,fsm,power").
     * Empty or "all" selects every category; unknown names are fatal.
     */
    static std::uint32_t parseCategories(const std::string &spec);

    static std::string_view categoryName(TraceCategory c);

    /** Bit index of a category's mask bit (log2). */
    static std::uint16_t categoryIndex(TraceCategory c);

  private:
    void addSlab();

    static constexpr std::size_t slabEvents = 1u << 16;

    std::uint32_t mask_;
    std::vector<std::unique_ptr<TraceEvent[]>> slabs_;
    TraceEvent *cursor_ = nullptr;
    TraceEvent *slabEnd_ = nullptr;
    std::vector<std::string> strings_;
};

} // namespace vsv

#endif // VSV_TRACE_SINK_HH
