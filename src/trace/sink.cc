#include "sink.hh"

#include <array>
#include <bit>
#include <optional>
#include <ostream>
#include <sstream>

#include "common/logging.hh"
#include "stats/stats.hh"

namespace vsv
{

namespace
{

constexpr struct
{
    TraceCategory cat;
    std::string_view name;
} categoryTable[] = {
    {TraceCategory::Mode, "mode"},
    {TraceCategory::Fsm, "fsm"},
    {TraceCategory::L2Miss, "l2miss"},
    {TraceCategory::Mshr, "mshr"},
    {TraceCategory::Power, "power"},
    {TraceCategory::Clock, "clock"},
    {TraceCategory::Core, "core"},
    {TraceCategory::Interval, "interval"},
    {TraceCategory::FastForward, "ff"},
};

/**
 * Mirrors MonitorOutcome (vsv/fsm.hh); the trace layer deliberately
 * does not include VSV headers, so the numeric protocol is fixed
 * here and asserted against the enum in controller.cc.
 */
constexpr std::string_view outcomeNames[] = {"idle", "watching",
                                             "fired", "expired"};

constexpr std::string_view fsmTrackNames[] = {"down-fsm", "up-fsm"};

} // namespace

TraceSink::TraceSink(std::uint32_t category_mask)
    : mask_(category_mask)
{
}

void
TraceSink::addSlab()
{
    slabs_.push_back(std::make_unique<TraceEvent[]>(slabEvents));
    cursor_ = slabs_.back().get();
    slabEnd_ = cursor_ + slabEvents;
}

std::uint32_t
TraceSink::internString(std::string_view s)
{
    for (std::uint32_t i = 0; i < strings_.size(); ++i) {
        if (strings_[i] == s)
            return i;
    }
    strings_.emplace_back(s);
    return static_cast<std::uint32_t>(strings_.size() - 1);
}

const std::string &
TraceSink::internedString(std::uint32_t index) const
{
    VSV_ASSERT(index < strings_.size(), "bad interned-string index");
    return strings_[index];
}

std::size_t
TraceSink::eventCount() const
{
    if (slabs_.empty())
        return 0;
    return (slabs_.size() - 1) * slabEvents +
           static_cast<std::size_t>(cursor_ -
                                    (slabEnd_ - slabEvents));
}

void
TraceSink::visit(const std::function<void(const TraceEvent &)> &fn) const
{
    for (std::size_t s = 0; s < slabs_.size(); ++s) {
        const TraceEvent *begin = slabs_[s].get();
        const TraceEvent *end =
            s + 1 == slabs_.size() ? cursor_ : begin + slabEvents;
        for (const TraceEvent *ev = begin; ev != end; ++ev)
            fn(*ev);
    }
}

std::uint16_t
TraceSink::categoryIndex(TraceCategory c)
{
    const auto bits = static_cast<std::uint32_t>(c);
    std::uint16_t index = 0;
    for (std::uint32_t v = bits; v > 1; v >>= 1)
        ++index;
    return index;
}

std::string_view
TraceSink::categoryName(TraceCategory c)
{
    for (const auto &entry : categoryTable) {
        if (entry.cat == c)
            return entry.name;
    }
    panic("bad trace category");
}

std::uint32_t
TraceSink::parseCategories(const std::string &spec)
{
    if (spec.empty() || spec == "all")
        return allTraceCategories;
    std::uint32_t mask = 0;
    std::stringstream ss(spec);
    std::string item;
    while (std::getline(ss, item, ',')) {
        bool found = false;
        for (const auto &entry : categoryTable) {
            if (item == entry.name) {
                mask |= static_cast<std::uint32_t>(entry.cat);
                found = true;
                break;
            }
        }
        if (!found) {
            fatal("unknown trace category '" + item +
                  "' (see --trace-categories in OBSERVABILITY.md)");
        }
    }
    return mask;
}

namespace
{

/** Incremental writer for one JSON array of event objects. */
class EventWriter
{
  public:
    explicit EventWriter(std::ostream &os) : os(os) {}

    std::ostream &
    next()
    {
        if (!first)
            os << ",\n";
        first = false;
        return os;
    }

  private:
    std::ostream &os;
    bool first = true;
};

/** jsonEscape produces the escaped contents; wrap in quotes. */
std::string
quoted(std::string_view s)
{
    return "\"" + jsonEscape(s) + "\"";
}

std::string
commonFields(std::string_view name, char ph, Tick ts,
             std::string_view cat)
{
    std::string out = "{\"name\":";
    out += quoted(name);
    out += ",\"ph\":\"";
    out += ph;
    out += "\",\"pid\":1,\"ts\":";
    out += std::to_string(ts);
    out += ",\"cat\":";
    out += quoted(cat);
    return out;
}

void
emitCounter(EventWriter &w, std::string_view name, Tick ts,
            std::string_view cat, double value)
{
    w.next() << commonFields(name, 'C', ts, cat)
             << ",\"args\":{\"value\":" << jsonNumber(value) << "}}";
}

void
emitInstant(EventWriter &w, std::string_view name, Tick ts,
            std::string_view cat, int tid, std::string_view args)
{
    w.next() << commonFields(name, 'i', ts, cat) << ",\"tid\":" << tid
             << ",\"s\":\"t\",\"args\":{" << args << "}}";
}

void
emitSlice(EventWriter &w, std::string_view name, Tick ts, Tick dur,
          std::string_view cat, int tid, std::string_view args)
{
    w.next() << commonFields(name, 'X', ts, cat) << ",\"tid\":" << tid
             << ",\"dur\":" << dur << ",\"args\":{" << args << "}}";
}

void
emitThreadName(EventWriter &w, int tid, std::string_view name)
{
    w.next() << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
             << "\"tid\":" << tid << ",\"args\":{\"name\":"
             << quoted(name) << "}}";
}

// Track (tid) layout; counters carry no tid (Perfetto keys them by
// name) and metadata names the slice/instant tracks.
constexpr int tidMode = 1;
constexpr int tidFsm = 2;
constexpr int tidL2Miss = 3;
constexpr int tidCore = 4;
constexpr int tidFastForward = 5;

} // namespace

void
TraceSink::writeChromeJson(std::ostream &os, Tick origin,
                           Tick end_tick) const
{
    VSV_ASSERT(end_tick >= origin, "trace end before origin");

    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    EventWriter w(os);

    w.next() << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
             << "\"args\":{\"name\":\"vsv-sim\"}}";
    emitThreadName(w, tidMode, "vsv mode");
    emitThreadName(w, tidFsm, "issue-rate FSMs");
    emitThreadName(w, tidL2Miss, "l2 miss");
    emitThreadName(w, tidCore, "core");
    emitThreadName(w, tidFastForward, "fast-forward");

    // Slice state threaded through the event scan.
    struct OpenMode
    {
        Tick ts;
        std::uint32_t nameIndex;
    };
    std::optional<OpenMode> openMode;
    struct OpenFsm
    {
        Tick ts;
        std::uint64_t observations = 0;
    };
    std::array<std::optional<OpenFsm>, 2> openFsm;

    const Tick end = end_tick - origin;

    auto closeFsm = [&](std::uint64_t which, Tick ts,
                        std::string_view outcome) {
        const OpenFsm &open = *openFsm[which];
        std::string args = "\"observations\":" +
                           std::to_string(open.observations) +
                           ",\"outcome\":" + quoted(outcome);
        emitSlice(w, std::string(fsmTrackNames[which]) + " armed",
                  open.ts, ts - open.ts, "fsm", tidFsm, args);
        openFsm[which].reset();
    };

    visit([&](const TraceEvent &ev) {
        VSV_ASSERT(ev.ts >= origin, "trace event before origin");
        const Tick ts = ev.ts - origin;
        const std::string_view cat =
            categoryName(static_cast<TraceCategory>(1u << ev.cat));
        switch (static_cast<TraceEventKind>(ev.kind)) {
          case TraceEventKind::ModeEnter:
            if (openMode) {
                emitSlice(w, internedString(openMode->nameIndex),
                          openMode->ts, ts - openMode->ts, cat, tidMode,
                          "");
            }
            openMode = OpenMode{ts, static_cast<std::uint32_t>(ev.a)};
            break;

          case TraceEventKind::FsmArm:
            if (openFsm[ev.a])
                closeFsm(ev.a, ts, "rearmed");
            openFsm[ev.a] = OpenFsm{ts, 0};
            break;

          case TraceEventKind::FsmObserve: {
            if (!openFsm[ev.a])
                openFsm[ev.a] = OpenFsm{ts, 0};
            ++openFsm[ev.a]->observations;
            const std::uint8_t outcome = ev.b & 0xff;
            if (outcome >= 2 && outcome <= 3) {
                const std::string_view name = outcomeNames[outcome];
                closeFsm(ev.a, ts, name);
                emitInstant(w,
                            std::string(fsmTrackNames[ev.a]) + " " +
                                std::string(name),
                            ts, cat, tidFsm,
                            "\"issued\":" +
                                std::to_string(ev.b >> 8));
            }
            break;
          }

          case TraceEventKind::FsmDisarm:
            if (openFsm[ev.a])
                closeFsm(ev.a, ts, "disarmed");
            break;

          case TraceEventKind::MissDetect:
            emitInstant(w, "missDetect", ts, cat, tidL2Miss,
                        "\"outstanding\":" + std::to_string(ev.a));
            emitCounter(w, "demandOutstanding", ts, cat,
                        static_cast<double>(ev.a));
            break;

          case TraceEventKind::MissReturn:
            emitInstant(w, "missReturn", ts, cat, tidL2Miss,
                        "\"outstanding\":" + std::to_string(ev.a));
            emitCounter(w, "demandOutstanding", ts, cat,
                        static_cast<double>(ev.a));
            break;

          case TraceEventKind::MshrLevel:
            emitCounter(w, "l2MshrInUse", ts, cat,
                        static_cast<double>(ev.a));
            break;

          case TraceEventKind::VddChange:
            emitCounter(w, "pipelineVdd", ts, cat,
                        std::bit_cast<double>(ev.a));
            break;

          case TraceEventKind::RampEnergy:
            emitCounter(w, "rampEnergyPj", ts, cat,
                        std::bit_cast<double>(ev.a));
            break;

          case TraceEventKind::ClockDivider:
            emitCounter(w, "clockDivider", ts, cat,
                        static_cast<double>(ev.a));
            break;

          case TraceEventKind::Mispredict:
            emitInstant(w, "mispredictRecovery", ts, cat, tidCore,
                        "\"seq\":" + std::to_string(ev.a));
            break;

          case TraceEventKind::MemRetry:
            emitInstant(w, "memRetry", ts, cat, tidCore,
                        "\"seq\":" + std::to_string(ev.a));
            break;

          case TraceEventKind::IdleSpan:
            emitSlice(w, "idle", ts, ev.a, cat, tidFastForward,
                      "\"ticks\":" + std::to_string(ev.a) +
                          ",\"edges\":" + std::to_string(ev.b));
            break;

          case TraceEventKind::IntervalValue:
            emitCounter(w,
                        internedString(
                            static_cast<std::uint32_t>(ev.a)),
                        ts, cat, std::bit_cast<double>(ev.b));
            break;

          default:
            panic("bad trace event kind");
        }
    });

    // Close anything still open at the end of the run.
    if (openMode) {
        emitSlice(w, internedString(openMode->nameIndex), openMode->ts,
                  end - openMode->ts, "mode", tidMode, "");
    }
    for (std::uint64_t which = 0; which < 2; ++which) {
        if (openFsm[which])
            closeFsm(which, end, "open");
    }

    os << "\n]}\n";
}

} // namespace vsv
