#include "trace.hh"

#include <cstring>

#include "common/logging.hh"
#include "snapshot/snapshot.hh"

namespace vsv
{

namespace
{

constexpr char traceMagic[4] = {'V', 'S', 'V', 'T'};
constexpr std::uint32_t traceVersion = 1;

struct TraceHeader
{
    char magic[4];
    std::uint32_t version;
    std::uint64_t count;
};
static_assert(sizeof(TraceHeader) == 16, "trace header layout drifted");

TraceRecord
encode(const MicroOp &op)
{
    TraceRecord rec{};
    rec.cls = static_cast<std::uint8_t>(op.cls);
    rec.brKind = static_cast<std::uint8_t>(op.brKind);
    rec.taken = op.taken ? 1 : 0;
    rec.depDist1 = op.depDist1;
    rec.depDist2 = op.depDist2;
    rec.pc = op.pc;
    rec.addr = op.addr;
    rec.target = op.target;
    return rec;
}

/**
 * Decode one record; a field outside its enum's range means a corrupt
 * or foreign file, reported against `path` and the record's index.
 */
MicroOp
decode(const TraceRecord &rec, const std::string &path,
       std::uint64_t index)
{
    const char *bad = nullptr;
    if (rec.cls >= static_cast<std::uint8_t>(OpClass::NumOpClasses))
        bad = "op class";
    else if (rec.brKind > static_cast<std::uint8_t>(BranchKind::Return))
        bad = "branch kind";
    else if (rec.taken > 1)
        bad = "taken flag";
    if (bad) {
        fatal("corrupt trace record " + std::to_string(index) + " (bad " +
              bad + "): " + path);
    }
    MicroOp op;
    op.cls = static_cast<OpClass>(rec.cls);
    op.brKind = static_cast<BranchKind>(rec.brKind);
    op.taken = rec.taken != 0;
    op.depDist1 = rec.depDist1;
    op.depDist2 = rec.depDist2;
    op.pc = rec.pc;
    op.addr = rec.addr;
    op.target = rec.target;
    return op;
}

} // namespace

TraceWriter::TraceWriter(const std::string &path)
{
    file = std::fopen(path.c_str(), "wb");
    if (!file)
        fatal("cannot open trace file for writing: " + path);
    // Placeholder header; the count is patched in close().
    TraceHeader header{};
    std::memcpy(header.magic, traceMagic, 4);
    header.version = traceVersion;
    header.count = 0;
    if (std::fwrite(&header, sizeof(header), 1, file) != 1)
        fatal("cannot write trace header: " + path);
}

TraceWriter::~TraceWriter()
{
    close();
}

void
TraceWriter::append(const MicroOp &op)
{
    VSV_ASSERT(file != nullptr, "append to a closed trace");
    const TraceRecord rec = encode(op);
    if (std::fwrite(&rec, sizeof(rec), 1, file) != 1)
        fatal("trace write failed (disk full?)");
    ++count;
}

void
TraceWriter::close()
{
    if (!file)
        return;
    TraceHeader header{};
    std::memcpy(header.magic, traceMagic, 4);
    header.version = traceVersion;
    header.count = count;
    std::fseek(file, 0, SEEK_SET);
    if (std::fwrite(&header, sizeof(header), 1, file) != 1)
        fatal("trace header rewrite failed");
    std::fclose(file);
    file = nullptr;
}

TraceReader::TraceReader(const std::string &path, bool loop)
    : path(path), loop(loop)
{
    file.reset(std::fopen(path.c_str(), "rb"));
    if (!file)
        fatal("cannot open trace file: " + path);

    TraceHeader header{};
    if (std::fread(&header, sizeof(header), 1, file.get()) != 1)
        fatal("trace file too short: " + path);
    if (std::memcmp(header.magic, traceMagic, 4) != 0)
        fatal("not a VSV trace file: " + path);
    if (header.version != traceVersion) {
        fatal("unsupported trace version " +
              std::to_string(header.version) + ": " + path);
    }
    if (header.count == 0)
        fatal("empty trace file: " + path);
    // The file must hold exactly the records its header counts: a
    // short file would fail mid-run, a long one would be read in part.
    std::fseek(file.get(), 0, SEEK_END);
    const long size = std::ftell(file.get());
    const std::uint64_t body =
        size >= static_cast<long>(sizeof(TraceHeader))
            ? static_cast<std::uint64_t>(size) - sizeof(TraceHeader)
            : 0;
    if (body % sizeof(TraceRecord) != 0 ||
        body / sizeof(TraceRecord) != header.count) {
        fatal("trace file size " + std::to_string(size) +
              " does not match its header's " +
              std::to_string(header.count) + " records: " + path);
    }
    std::fseek(file.get(), sizeof(TraceHeader), SEEK_SET);
    total = header.count;
    remaining = total;
}

void
TraceReader::rewindToFirstRecord()
{
    std::fseek(file.get(), sizeof(TraceHeader), SEEK_SET);
    remaining = total;
}

MicroOp
TraceReader::next()
{
    if (remaining == 0) {
        if (!loop) {
            fatal("trace exhausted after " + std::to_string(consumed) +
                  " ops: " + path);
        }
        rewindToFirstRecord();
        ++wraps_;
    }
    TraceRecord rec{};
    if (std::fread(&rec, sizeof(rec), 1, file.get()) != 1)
        fatal("trace read failed (truncated file?): " + path);
    const std::uint64_t index = total - remaining;
    --remaining;
    ++consumed;
    return decode(rec, path, index);
}

void
TraceReader::snapshot(SnapshotWriter &writer) const
{
    writer.begin("trace");
    writer.u64(total);
    writer.b(loop);
    writer.u64(remaining);
    writer.u64(consumed);
    writer.scalar(wraps_);
    writer.end();
}

void
TraceReader::restore(SnapshotReader &reader)
{
    reader.begin("trace");
    reader.expectU64(total, "trace record count");
    const bool snapshot_loop = reader.b();
    if (snapshot_loop != loop)
        throw SnapshotError("snapshot: trace loop mode mismatch");
    remaining = reader.u64();
    if (remaining > total)
        throw SnapshotError("snapshot: trace cursor out of range");
    consumed = reader.u64();
    reader.scalar(wraps_);
    reader.end();

    // Re-seat the file position on the record the cursor names.
    std::fseek(file.get(),
               static_cast<long>(sizeof(TraceHeader) +
                                 (total - remaining) *
                                     sizeof(TraceRecord)),
               SEEK_SET);
}

void
TraceReader::regStats(StatRegistry &registry,
                      const std::string &prefix) const
{
    registry.registerScalar(prefix + ".wraps", &wraps_,
                            "times the trace replay wrapped around");
}

} // namespace vsv
