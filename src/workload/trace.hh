/**
 * @file
 * Trace recording and replay.
 *
 * The core consumes micro-ops through the TraceSource interface; the
 * synthetic generators are one implementation, and TraceReader is
 * another, replaying a binary trace file. TraceWriter produces such
 * files from any source - letting users capture a synthetic stream
 * once and share it, or bring their own traces (converted from pin /
 * gem5 / champsim captures) to drive the VSV experiments.
 *
 * File format (little-endian, fixed-size records):
 *   header: magic "VSVT" (4B), version u32, record count u64
 *   record: cls u8, brKind u8, taken u8, pad u8,
 *           depDist1 u32, depDist2 u32, pad u32 (8-byte alignment),
 *           pc u64, addr u64, target u64
 * (40 bytes per record; dense enough for multi-million-op traces,
 * trivially parseable from any language.)
 */

#ifndef VSV_WORKLOAD_TRACE_HH
#define VSV_WORKLOAD_TRACE_HH

#include <cstdio>
#include <memory>
#include <string>

#include "isa/microop.hh"
#include "stats/stats.hh"

namespace vsv
{

class SnapshotReader;
class SnapshotWriter;

/** Anything that yields a dynamic micro-op stream. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next dynamic micro-op. */
    virtual MicroOp next() = 0;
};

/** On-disk record layout (see file comment). */
struct TraceRecord
{
    std::uint8_t cls;
    std::uint8_t brKind;
    std::uint8_t taken;
    std::uint8_t pad0 = 0;
    std::uint32_t depDist1;
    std::uint32_t depDist2;
    std::uint32_t pad1 = 0;
    std::uint64_t pc;
    std::uint64_t addr;
    std::uint64_t target;
};
static_assert(sizeof(TraceRecord) == 40, "trace record layout drifted");

/** Streams micro-ops into a trace file. */
class TraceWriter
{
  public:
    /** Opens `path` for writing; fatal on failure. */
    explicit TraceWriter(const std::string &path);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append one op. */
    void append(const MicroOp &op);

    /** Finalize the header; called automatically by the destructor. */
    void close();

    std::uint64_t written() const { return count; }

  private:
    std::FILE *file = nullptr;
    std::uint64_t count = 0;
};

/**
 * Replays a trace file as a TraceSource. A file whose size disagrees
 * with its header's record count, or a record with an out-of-range
 * op class, branch kind or taken flag, is a fatal() naming the file
 * (and the record index): throwable inside a sweep worker, never a
 * crash or a silent mis-decode.
 */
class TraceReader : public TraceSource
{
  public:
    /**
     * @param path trace file to replay
     * @param loop wrap to the beginning when the trace is exhausted
     *        (needed when the simulated window exceeds the capture);
     *        false makes exhaustion fatal
     */
    explicit TraceReader(const std::string &path, bool loop = true);

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    MicroOp next() override;

    std::uint64_t records() const { return total; }
    std::uint64_t replayed() const { return consumed; }

    /** Times the replay wrapped back to the first record. */
    std::uint64_t wraps() const
    {
        return static_cast<std::uint64_t>(wraps_.value());
    }

    /** Expose the wrap count so silent re-plays show up in results. */
    void regStats(StatRegistry &registry, const std::string &prefix) const;

    /** Serialize the replay cursor and wrap count. */
    void snapshot(SnapshotWriter &writer) const;

    /** Restore the cursor saved by snapshot(); same trace required. */
    void restore(SnapshotReader &reader);

  private:
    void rewindToFirstRecord();

    /** Closes the file, also when the constructor rejects it. */
    struct FileCloser
    {
        void operator()(std::FILE *f) const { std::fclose(f); }
    };

    std::string path;
    std::unique_ptr<std::FILE, FileCloser> file;
    std::uint64_t total = 0;
    std::uint64_t remaining = 0;
    std::uint64_t consumed = 0;
    bool loop;
    Scalar wraps_;
};

} // namespace vsv

#endif // VSV_WORKLOAD_TRACE_HH
