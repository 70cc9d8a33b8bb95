/**
 * @file
 * Versioned, self-describing binary snapshots of post-warmup state.
 *
 * A snapshot is the serialized mutable state of every component the
 * functional warmup touches (caches, predictor, prefetchers, workload
 * generator, power accumulators - see DESIGN.md §5f). Saving it right
 * after Simulator warmup and restoring it into a freshly constructed
 * Simulator skips the warmup entirely while staying bit-identical:
 * doubles travel as raw IEEE-754 bytes, so every registered scalar
 * round-trips exactly.
 *
 * File layout (little-endian, mirroring the trace-file idiom):
 *   header:  magic "VSVS" (4B), version u32,
 *            warmup-fingerprint string (u32 length + bytes)
 *   section: tag string (u32 length + bytes), payload size u64,
 *            payload bytes, snapshotChecksum of the payload u64
 *   trailer: the section tag "end" with an empty payload
 *
 * Sections are written and read strictly in order; the tag + size +
 * checksum framing means any corruption, truncation or version skew
 * surfaces as a SnapshotError with a message naming the failure, never
 * as silently wrong state. The writer appends straight into one
 * SnapshotBytes and back-patches each section's size; the reader
 * works on a view of the bytes and copies nothing.
 */

#ifndef VSV_SNAPSHOT_SNAPSHOT_HH
#define VSV_SNAPSHOT_SNAPSHOT_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/logging.hh"
#include "snapshot/bytes.hh"
#include "stats/stats.hh"

namespace vsv
{

/** Bump when the snapshot layout changes; readers reject other
 *  versions outright (a snapshot is a cache entry, not an archive).
 *  v2: the "sim" and "hierarchy" sections carry a core count and the
 *  bus a per-requestor table length, from a since-retired multi-core
 *  layout; they are written and checked as 1, 1 and 0.
 *  v3: sections are checksummed with snapshotChecksum, a word-wise
 *  pass, instead of byte-serial FNV-1a 64. */
constexpr std::uint32_t snapshotFormatVersion = 3;

/**
 * The section checksum: an FNV-style xor-multiply-rotate pass over
 * the payload's little-endian 8-byte words, alternating between two
 * independent lanes so the multiplies overlap, then the 0-7 tail
 * bytes, then a fold of both lanes and the length. Every step is a
 * bijection of the lane it updates, for a fixed input and for a fixed
 * lane, so changing any one word or tail byte always changes the
 * result. It reads eight bytes per step where FNV-1a reads one.
 */
std::uint64_t snapshotChecksum(std::string_view bytes);

/**
 * Any structural problem with a snapshot stream: bad magic, version
 * skew, truncation, checksum mismatch, unexpected section tag, or
 * state that disagrees with the restoring simulator's geometry.
 * Simulator::restoreFrom converts it into a fatal(); the sweep
 * runner's cache treats it as a miss and falls back to a fresh warmup.
 */
class SnapshotError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Serializes sections into one SnapshotBytes, in place. */
class SnapshotWriter
{
  public:
    /** Writes the header immediately; `fingerprint` is the warmup
     *  fingerprint of the options that produced this state. */
    explicit SnapshotWriter(std::string_view fingerprint);

    /** Open a section; every value lands in it until end(). */
    void begin(std::string_view tag);
    /** Close the open section: patches its size, appends checksum. */
    void end();
    /** Write the trailer and hand over the bytes; the writer is
     *  unusable afterwards. */
    SnapshotBytes finish();

    // The per-value writers are inline: a snapshot is ~10^5 values.
    void u8(std::uint8_t v) { put(&v, sizeof(v)); }
    void u32(std::uint32_t v) { put(&v, sizeof(v)); }
    void u64(std::uint64_t v) { put(&v, sizeof(v)); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    /** Raw IEEE-754 bytes: restored doubles are bit-identical. */
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    void str(std::string_view s);
    /** A stat accumulator's current value (raw double). */
    void scalar(const Scalar &s) { f64(s.value()); }

  private:
    void
    put(const void *data, std::size_t n)
    {
        VSV_ASSERT(inSection, "snapshot value outside a section");
        bytes.append(data, n);
    }

    /** Append the frame of a section: tag, then a size to patch. */
    void openFrame(std::string_view tag);
    /** Patch the open frame's size and append its checksum. */
    void closeFrame();

    SnapshotBytes bytes;
    std::size_t payloadAt = 0;  ///< where the open section's bytes start
    bool inSection = false;
    bool finished = false;
};

/**
 * Reads sections back from a view, validating framing as it goes.
 * The viewed bytes must outlive the reader; sections are sub-views of
 * them, so nothing is copied.
 */
class SnapshotReader
{
  public:
    /** Parses and validates the header; throws SnapshotError on bad
     *  magic, unsupported version, or truncated bytes. */
    explicit SnapshotReader(std::string_view bytes);

    /** The warmup fingerprint recorded at write time. */
    const std::string &fingerprint() const { return fingerprint_; }

    /** Open the next section; throws unless its tag matches. */
    void begin(std::string_view tag);
    /** Close the section; throws if any payload bytes are left. */
    void end();
    /** The trailer must be next; throws otherwise. */
    void expectEnd();

    std::uint8_t u8() { return get<std::uint8_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64() { return std::bit_cast<double>(u64()); }

    bool
    b()
    {
        const std::uint8_t v = u8();
        if (v > 1) [[unlikely]]
            badBool();
        return v != 0;
    }

    std::string str();
    /** Restore a stat accumulator to exactly the written value. */
    void scalar(Scalar &s);

    /**
     * Read a u32 and throw unless it equals `expected`; `what` names
     * the quantity in the error message. Components use this to guard
     * against geometry drift between writer and reader.
     */
    void expectU32(std::uint32_t expected, std::string_view what);
    /** Same for u64 values (footprints, table sizes). */
    void expectU64(std::uint64_t expected, std::string_view what);

  private:
    /** Pull `n` payload bytes; throws on exhaustion. */
    const char *
    take(std::size_t n)
    {
        if (!inSection || payload.size() - cursor < n) [[unlikely]]
            takeFailed(n);
        const char *p = payload.data() + cursor;
        cursor += n;
        return p;
    }

    template <typename T>
    T
    get()
    {
        T v;
        std::memcpy(&v, take(sizeof(v)), sizeof(v));
        return v;
    }

    /** Read a framing field; false when the bytes end first. */
    template <typename T>
    bool readField(T &v);
    /**
     * Read the next frame's tag, size and checksum, every one checked
     * against the bytes that remain before it is used, and make its
     * payload current; throws on any mismatch. `expected` names the
     * section wanted, for the error messages.
     */
    void nextFrame(std::string_view expected);

    /** take()'s failure: asserts outside a section, else throws. */
    [[noreturn]] void takeFailed(std::size_t n) const;
    [[noreturn]] void badBool() const;

    std::string_view bytes;  ///< the whole snapshot
    std::size_t at = 0;      ///< next framing byte
    std::string fingerprint_;
    std::string_view payload;  ///< current section's bytes
    std::size_t cursor = 0;
    std::string_view tag;      ///< current section's tag
    bool inSection = false;
};

} // namespace vsv

#endif // VSV_SNAPSHOT_SNAPSHOT_HH
