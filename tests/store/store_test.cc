/**
 * @file
 * ResultStore contracts (STORE.md): the checksummed envelope
 * round-trips and rejects every truncation and single-byte flip;
 * insert/lookup replay the exact bytes that went in; a corrupt, torn
 * or stale-version entry is quarantined as `.bad` and degrades to a
 * miss; duplicate inserts of one fingerprint - also from concurrent
 * threads - write once; concurrent multi-process inserts into one
 * directory never produce a torn entry; and the SweepRunner
 * integration serves hits without simulating, byte-identically to the
 * cold run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "snapshot/bytes.hh"
#include "store/atomic_file.hh"
#include "store/store.hh"

namespace vsv
{
namespace store
{
namespace
{

/** A scratch directory unique to this test, created empty. */
std::string
freshDir(const std::string &leaf)
{
    const std::string dir = testing::TempDir() + leaf;
    std::filesystem::remove_all(dir);
    return dir;
}

StoreEntry
sampleEntry(const std::string &fingerprint)
{
    StoreEntry entry;
    entry.fingerprint = fingerprint;
    entry.attempts = 2;
    entry.resultJson = "{\"benchmark\":\"mcf\",\"ipc\":1.25}";
    entry.statsJson = "{\"scalars\":{\"sim.ticks\":42}}";
    entry.statsText = "sim.ticks 42\n";
    return entry;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return buffer.str();
}

TEST(AtomicFileTest, ReadFileReturnsTheExactBytesOrNothing)
{
    const std::string dir = freshDir("vsv_atomic_file_read");
    std::filesystem::create_directories(dir);
    // Past SnapshotBytes' map threshold, with NULs and high bytes.
    std::string bytes(200003, '\0');
    for (std::size_t i = 0; i < bytes.size(); ++i)
        bytes[i] = static_cast<char>(i * 131 + (i >> 9));
    const std::string path = dir + "/file";
    ASSERT_TRUE(writeFileAtomically(path, bytes));

    const std::optional<std::string> text = store::readFile(path);
    ASSERT_TRUE(text.has_value());
    EXPECT_EQ(*text, bytes);
    const std::optional<SnapshotBytes> mapped =
        store::readFile<SnapshotBytes>(path);
    ASSERT_TRUE(mapped.has_value());
    EXPECT_EQ(mapped->view(), bytes);

    ASSERT_TRUE(writeFileAtomically(dir + "/empty", ""));
    const std::optional<std::string> empty = store::readFile(dir + "/empty");
    ASSERT_TRUE(empty.has_value());
    EXPECT_TRUE(empty->empty());
    EXPECT_FALSE(store::readFile(dir + "/missing").has_value());
    EXPECT_FALSE(store::readFile(dir).has_value());

    std::filesystem::remove_all(dir);
}

TEST(EnvelopeTest, RoundTripsAndRejectsCorruption)
{
    const std::string payload =
        detail::encodeEntryPayload(sampleEntry("0123456789abcdef"));
    const std::string envelope = detail::encodeEnvelope(payload);
    EXPECT_EQ(detail::decodeEnvelope(envelope), payload);

    // Truncation (a torn write) at every length fails loudly.
    for (std::size_t keep = 0; keep < envelope.size(); ++keep) {
        EXPECT_THROW(detail::decodeEnvelope(envelope.substr(0, keep)),
                     std::runtime_error)
            << "prefix of " << keep << " bytes decoded";
    }

    // Any single-byte change is caught: header bytes by the magic,
    // version, padding, size and checksum checks, payload bytes by
    // FNV-1a (which detects every single-byte change).
    for (std::size_t at = 0; at < envelope.size(); ++at) {
        for (const unsigned mask : {0x01u, 0x80u, 0xffu}) {
            std::string bad = envelope;
            bad[at] = static_cast<char>(bad[at] ^ mask);
            EXPECT_THROW(detail::decodeEnvelope(bad), std::runtime_error)
                << "byte " << at << " ^ " << mask << " decoded";
        }
    }

    // Trailing bytes past the recorded size are rejected too.
    EXPECT_THROW(detail::decodeEnvelope(envelope + "x"),
                 std::runtime_error);
}

TEST(EnvelopeTest, PayloadDecoderChecksFingerprintAndShape)
{
    const StoreEntry entry = sampleEntry("0123456789abcdef");
    const std::string payload = detail::encodeEntryPayload(entry);

    const StoreEntry back =
        detail::decodeEntryPayload(payload, entry.fingerprint);
    EXPECT_EQ(back.fingerprint, entry.fingerprint);
    EXPECT_EQ(back.attempts, entry.attempts);
    EXPECT_EQ(back.resultJson, entry.resultJson);
    EXPECT_EQ(back.statsJson, entry.statsJson);
    EXPECT_EQ(back.statsText, entry.statsText);

    // Filed under the wrong fingerprint: a misplaced entry must not
    // masquerade as the queried run.
    EXPECT_THROW(
        detail::decodeEntryPayload(payload, "ffffffffffffffff"),
        std::runtime_error);
    EXPECT_THROW(detail::decodeEntryPayload("not json", "x"),
                 std::runtime_error);
}

TEST(ResultStoreTest, InsertThenLookupReplaysTheExactBytes)
{
    const std::string dir = freshDir("vsv_store_roundtrip");
    ResultStore store(dir);
    const StoreEntry entry = sampleEntry("00aabbccddeeff11");

    EXPECT_FALSE(store.lookup(entry.fingerprint).has_value());
    store.insert(entry);
    EXPECT_TRUE(std::filesystem::exists(
        store.entryPath(entry.fingerprint)));

    const std::optional<StoreEntry> back =
        store.lookup(entry.fingerprint);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->attempts, entry.attempts);
    EXPECT_EQ(back->resultJson, entry.resultJson);
    EXPECT_EQ(back->statsJson, entry.statsJson);
    EXPECT_EQ(back->statsText, entry.statsText);

    const ResultStoreStats stats = store.stats();
    EXPECT_TRUE(stats.enabled);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.inserts, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.corrupt, 0u);
    EXPECT_EQ(stats.writeFailures, 0u);
    std::filesystem::remove_all(dir);
}

TEST(ResultStoreTest, MalformedFingerprintsAreRejected)
{
    EXPECT_TRUE(ResultStore::validFingerprint("0123456789abcdef"));
    EXPECT_FALSE(ResultStore::validFingerprint(""));
    EXPECT_FALSE(ResultStore::validFingerprint("0123456789abcde"));
    EXPECT_FALSE(ResultStore::validFingerprint("0123456789ABCDEF"));
    EXPECT_FALSE(
        ResultStore::validFingerprint("../../../etc/passwd"));

    const std::string dir = freshDir("vsv_store_badfp");
    ResultStore store(dir);
    EXPECT_FALSE(store.lookup("../escape").has_value());
    StoreEntry bad = sampleEntry("not-a-fingerprint");
    store.insert(bad);
    EXPECT_EQ(store.stats().writeFailures, 1u);
    EXPECT_EQ(store.stats().inserts, 0u);
    std::filesystem::remove_all(dir);
}

TEST(ResultStoreTest, DuplicateInsertWritesOnce)
{
    const std::string dir = freshDir("vsv_store_dup");
    ResultStore store(dir);
    const StoreEntry entry = sampleEntry("1122334455667788");
    // Eight threads insert one fingerprint at once, then again.
    // Content-addressed: same fingerprint means same bytes, so exactly
    // one insert touches the disk.
    std::vector<std::thread> threads;
    for (int i = 0; i < 8; ++i) {
        threads.emplace_back([&store, &entry] {
            store.insert(entry);
            store.insert(entry);
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(store.stats().inserts, 1u);
    EXPECT_EQ(store.stats().writeFailures, 0u);

    // One entry file, and no temp file left behind.
    std::vector<std::string> files;
    for (const auto &f :
         std::filesystem::recursive_directory_iterator(dir)) {
        if (f.is_regular_file())
            files.push_back(f.path().string());
    }
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(files[0], store.entryPath(entry.fingerprint));
    std::filesystem::remove_all(dir);
}

TEST(ResultStoreTest, CorruptEntryIsQuarantinedAndMissed)
{
    const std::string dir = freshDir("vsv_store_corrupt");
    const StoreEntry entry = sampleEntry("99aabbccddeeff00");
    std::string path;
    {
        ResultStore store(dir);
        store.insert(entry);
        path = store.entryPath(entry.fingerprint);
    }
    // Flip one payload byte on disk.
    std::string bytes = readFile(path);
    bytes[bytes.size() - 1] =
        static_cast<char>(bytes[bytes.size() - 1] ^ 0x01);
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << bytes;
    }

    ResultStore store(dir);
    EXPECT_FALSE(store.lookup(entry.fingerprint).has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_EQ(store.stats().misses, 1u);
    // Quarantined, not deleted: the bad bytes are kept for a
    // post-mortem and are never re-read as an entry.
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(path + ".bad"));

    // The fingerprint is insertable again after quarantine.
    store.insert(entry);
    EXPECT_EQ(store.stats().inserts, 1u);
    EXPECT_TRUE(store.lookup(entry.fingerprint).has_value());

    // A stale format-1 entry (version 1, codec byte 1 = LZSS, two
    // pad bytes, payload size, checksum, stored size) is a miss too,
    // and is quarantined: otherwise insert()'s existence probe would
    // keep it as a permanent miss.
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".bad");
    std::string stale = "VSVR";
    stale += '\1';
    stale += '\1';
    stale.append(2, '\0');
    const std::string v1Payload = "{\"format\":1}";
    for (const std::uint64_t field :
         {std::uint64_t{v1Payload.size()}, fnv1a64(v1Payload),
          std::uint64_t{v1Payload.size()}}) {
        for (int i = 0; i < 8; ++i)
            stale.push_back(static_cast<char>((field >> (8 * i)) & 0xff));
    }
    stale += v1Payload;
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << stale;
    }
    EXPECT_FALSE(store.lookup(entry.fingerprint).has_value());
    EXPECT_EQ(store.stats().corrupt, 2u);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(path + ".bad"));
    store.insert(entry);
    EXPECT_EQ(store.stats().inserts, 2u);
    EXPECT_TRUE(store.lookup(entry.fingerprint).has_value());
    std::filesystem::remove_all(dir);
}

TEST(ResultStoreTest, TornWriteIsQuarantinedAndMissed)
{
    const std::string dir = freshDir("vsv_store_torn");
    const StoreEntry entry = sampleEntry("5566778899aabbcc");
    std::string path;
    {
        ResultStore store(dir);
        store.insert(entry);
        path = store.entryPath(entry.fingerprint);
    }
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full / 2);

    ResultStore store(dir);
    EXPECT_FALSE(store.lookup(entry.fingerprint).has_value());
    EXPECT_EQ(store.stats().corrupt, 1u);
    EXPECT_TRUE(std::filesystem::exists(path + ".bad"));
    std::filesystem::remove_all(dir);
}

TEST(ResultStoreTest, ConcurrentProcessesShareOneDirectorySafely)
{
    const std::string dir = freshDir("vsv_store_multiproc");
    // Four forked writers insert the same 8 fingerprints (plus one
    // private each) into one directory concurrently. The rename
    // discipline must leave every entry whole and decodable.
    std::vector<std::string> shared;
    for (int i = 0; i < 8; ++i) {
        std::ostringstream fp;
        fp << std::hex << 0x1000000000000000ULL + i;
        shared.push_back(fp.str());
    }
    std::vector<pid_t> children;
    for (int child = 0; child < 4; ++child) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            {
                ResultStore store(dir);
                for (const std::string &fp : shared)
                    store.insert(sampleEntry(fp));
                std::ostringstream own;
                own << std::hex << 0x2000000000000000ULL + child;
                store.insert(sampleEntry(own.str()));
            }
            ::_exit(0);
        }
        children.push_back(pid);
    }
    for (const pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    ResultStore store(dir);
    for (const std::string &fp : shared) {
        const std::optional<StoreEntry> back = store.lookup(fp);
        ASSERT_TRUE(back.has_value()) << fp;
        EXPECT_EQ(back->resultJson, sampleEntry(fp).resultJson);
    }
    EXPECT_EQ(store.stats().corrupt, 0u);
    std::filesystem::remove_all(dir);
}

TEST(StoreSweepTest, SecondSweepServesEveryRunFromTheStore)
{
    const std::string dir = freshDir("vsv_store_sweep");
    std::vector<SweepJob> jobs;
    SimulationOptions base = makeOptions("mcf", false, 5000, 3000);
    jobs.push_back({"mcf/base", base});
    SimulationOptions fsm = base;
    fsm.vsv = fsmVsvConfig();
    jobs.push_back({"mcf/fsm", fsm});

    std::vector<SweepOutcome> cold;
    {
        ResultStore store(dir);
        SweepRunner runner(2);
        runner.enableResultStore(store);
        cold = runner.run(jobs);
        EXPECT_EQ(store.stats().hits, 0u);
        EXPECT_EQ(store.stats().misses, 2u);
        EXPECT_EQ(store.stats().inserts, 2u);
    }

    ResultStore store(dir);
    SweepRunner runner(2);
    runner.enableResultStore(store);
    const std::vector<SweepOutcome> warm = runner.run(jobs);
    EXPECT_EQ(store.stats().hits, 2u);
    EXPECT_EQ(store.stats().misses, 0u);
    EXPECT_EQ(store.stats().inserts, 0u);

    ASSERT_EQ(warm.size(), cold.size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
        EXPECT_EQ(warm[i].status, SweepStatus::Ok);
        EXPECT_EQ(warm[i].id, cold[i].id);
        EXPECT_EQ(warm[i].fingerprint, cold[i].fingerprint);
        EXPECT_EQ(warm[i].attempts, cold[i].attempts);
        EXPECT_EQ(warm[i].scalars, cold[i].scalars);
        EXPECT_EQ(warm[i].statsJson, cold[i].statsJson);
        EXPECT_EQ(warm[i].statsText, cold[i].statsText);
        // The replayed result re-serializes to the recorded bytes -
        // including the original run's host-dependent throughput.
        std::ostringstream a, b;
        writeSimulationResultJson(a, warm[i].result);
        writeSimulationResultJson(b, cold[i].result);
        EXPECT_EQ(a.str(), b.str());
    }
    std::filesystem::remove_all(dir);
}

TEST(StoreSweepTest, KnobPastTheSixthDigitMissesTheStore)
{
    // Two configurations that differ only past the sixth significant
    // digit of one knob are two runs: the second must simulate, never
    // replay the first one's result.
    const std::string dir = freshDir("vsv_store_precision");
    SimulationOptions options = makeOptions("mcf", false, 5000, 3000);
    options.vsv = fsmVsvConfig();
    options.power.gatingEfficiency = 0.92;
    {
        ResultStore store(dir);
        SweepRunner runner(1);
        runner.enableResultStore(store);
        runner.run({{"mcf/dcg", options}});
        EXPECT_EQ(store.stats().inserts, 1u);
    }

    options.power.gatingEfficiency = 0.92 * (1.0 + 1e-7);
    ResultStore store(dir);
    SweepRunner runner(1);
    runner.enableResultStore(store);
    const std::vector<SweepOutcome> outcomes =
        runner.run({{"mcf/dcg-nudged", options}});
    EXPECT_EQ(store.stats().hits, 0u);
    EXPECT_EQ(store.stats().misses, 1u);
    EXPECT_EQ(store.stats().inserts, 1u);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].fingerprint, configFingerprint(options));
    std::filesystem::remove_all(dir);
}

TEST(StoreSweepTest, AdaptersRoundTripAnOutcome)
{
    const SweepOutcome outcome = SweepRunner::runOne(
        {"mcf", makeOptions("mcf", false, 5000, 3000)});
    ASSERT_EQ(outcome.status, SweepStatus::Ok);

    const StoreEntry entry = storeEntryFromOutcome(outcome);
    EXPECT_EQ(entry.fingerprint, outcome.fingerprint);
    EXPECT_EQ(entry.attempts, 1u);

    const SweepOutcome back = outcomeFromStoreEntry("mcf", entry);
    EXPECT_EQ(back.status, SweepStatus::Ok);
    EXPECT_EQ(back.id, "mcf");
    EXPECT_EQ(back.scalars, outcome.scalars);
    EXPECT_EQ(back.statsJson, outcome.statsJson);
    std::ostringstream a, b;
    writeSimulationResultJson(a, back.result);
    writeSimulationResultJson(b, outcome.result);
    EXPECT_EQ(a.str(), b.str());

    // A garbage entry throws instead of replaying nonsense.
    StoreEntry bad = entry;
    bad.resultJson = "not json";
    EXPECT_THROW(outcomeFromStoreEntry("mcf", bad), std::exception);

    // Non-finite numbers are stored as null (jsonNumber's rule) and
    // replay as 0.0 (parseSimulationResultJson).
    SweepOutcome nonFinite = outcome;
    nonFinite.result.ipc = std::numeric_limits<double>::quiet_NaN();
    nonFinite.result.avgPowerW = std::numeric_limits<double>::infinity();
    const StoreEntry nulls = storeEntryFromOutcome(nonFinite);
    EXPECT_EQ(nulls.resultJson.find("nan"), std::string::npos);
    EXPECT_EQ(nulls.resultJson.find("inf"), std::string::npos);
    const SweepOutcome zeroed = outcomeFromStoreEntry("mcf", nulls);
    EXPECT_EQ(zeroed.result.ipc, 0.0);
    EXPECT_EQ(zeroed.result.avgPowerW, 0.0);
    EXPECT_EQ(zeroed.result.energyPj, outcome.result.energyPj);
}

/** Where a BadDocument edits the recorded document. */
enum class Edit : std::uint8_t
{
    Whole,        ///< the whole document becomes `text`
    Value,        ///< `key`'s value becomes `text`
    FirstMember,  ///< the first member value of `key`'s object does
    Key,          ///< `key` itself becomes `text`
    Drop          ///< `key`'s member goes, with its leading comma
};

/** One stored document that passes the envelope check but does not
 *  decode exactly. */
struct BadDocument
{
    const char *name;
    Edit edit;
    const char *key;   ///< its first occurrence is edited (not Whole)
    const char *text;  ///< the replacement
};

void
PrintTo(const BadDocument &bad, std::ostream *os)
{
    *os << bad.name;
}

/**
 * One past the end of the JSON value starting at `at`: a string; an
 * object or array, matched by depth (no string in the recorded
 * documents holds a bracket); or a bare number or literal, which runs
 * to the next ',', '}' or ']'.
 */
std::size_t
valueEnd(const std::string &doc, std::size_t at)
{
    if (doc[at] == '"')
        return doc.find('"', at + 1) + 1;
    if (doc[at] != '{' && doc[at] != '[')
        return doc.find_first_of(",}]", at);
    int depth = 0;
    for (std::size_t i = at; i < doc.size(); ++i) {
        if (doc[i] == '{' || doc[i] == '[')
            ++depth;
        else if ((doc[i] == '}' || doc[i] == ']') && --depth == 0)
            return i + 1;
    }
    return doc.size();
}

/** `recorded` with `bad`'s edit applied; must differ. */
std::string
mutated(const std::string &recorded, const BadDocument &bad)
{
    std::string out = recorded;
    if (bad.edit == Edit::Whole) {
        out = bad.text;
    } else {
        const std::string member = std::string("\"") + bad.key + "\":";
        const std::size_t key_at = recorded.find(member);
        if (key_at == std::string::npos) {
            ADD_FAILURE() << "no member " << member << " in " << recorded;
            return out;
        }
        std::size_t value_at = key_at + member.size();
        if (bad.edit == Edit::FirstMember) {
            // Past the object's '{', its first key and the colon.
            value_at = valueEnd(recorded, value_at + 1) + 1;
        }
        const std::size_t value_end = valueEnd(recorded, value_at);
        switch (bad.edit) {
          case Edit::Value:
          case Edit::FirstMember:
            out.replace(value_at, value_end - value_at, bad.text);
            break;
          case Edit::Key:
            out.replace(key_at, member.size(),
                        std::string("\"") + bad.text + "\":");
            break;
          case Edit::Drop:
            out.erase(key_at - 1, value_end - (key_at - 1));
            break;
          case Edit::Whole:
            break;
        }
    }
    EXPECT_NE(out, recorded);
    return out;
}

/**
 * Store `entry` (a mutation of `fresh`'s) under its fingerprint in a
 * fresh directory, then sweep `job` twice: the first sweep must
 * quarantine the entry and insert the re-simulated result in its
 * place, the second must replay that result as a real hit.
 */
void
expectQuarantinedAndReplaced(const std::string &name, const SweepJob &job,
                             const SweepOutcome &fresh,
                             const StoreEntry &entry)
{
    const std::string dir = freshDir("vsv_store_bad_" + name);
    const std::vector<SweepJob> jobs = {job};
    std::string path;
    {
        ResultStore store(dir);
        path = store.entryPath(entry.fingerprint);
    }
    std::filesystem::create_directories(
        std::filesystem::path(path).parent_path());
    {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os << detail::encodeEnvelope(detail::encodeEntryPayload(entry));
    }

    // The first sweep quarantines the entry, counts it corrupt and a
    // miss, simulates, and inserts the fresh result in its place.
    {
        ResultStore store(dir);
        SweepRunner runner(1);
        runner.enableResultStore(store);
        const std::vector<SweepOutcome> first = runner.run(jobs);
        EXPECT_EQ(store.stats().hits, 0u);
        EXPECT_EQ(store.stats().misses, 1u);
        EXPECT_EQ(store.stats().corrupt, 1u);
        EXPECT_EQ(store.stats().inserts, 1u);
        EXPECT_TRUE(std::filesystem::exists(path + ".bad"));
        EXPECT_EQ(first[0].result.ticks, fresh.result.ticks);
        EXPECT_EQ(first[0].statsJson, fresh.statsJson);
    }

    // The second sweep replays the re-inserted entry as a real hit.
    ResultStore store(dir);
    SweepRunner runner(1);
    runner.enableResultStore(store);
    const std::vector<SweepOutcome> second = runner.run(jobs);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(store.stats().misses, 0u);
    EXPECT_EQ(store.stats().corrupt, 0u);
    EXPECT_EQ(second[0].result.ticks, fresh.result.ticks);
    EXPECT_EQ(second[0].statsJson, fresh.statsJson);
    std::filesystem::remove_all(dir);
}

/** A bad stored resultJson. */
class BadResultTest : public testing::TestWithParam<BadDocument>
{
};

TEST_P(BadResultTest, IsQuarantinedAndReplacedByTheRerun)
{
    const BadDocument &bad = GetParam();
    const SweepJob job{"mcf/base", makeOptions("mcf", false, 5000, 3000)};
    const SweepOutcome fresh = SweepRunner::runOne(job);
    StoreEntry entry = storeEntryFromOutcome(fresh);
    entry.resultJson = mutated(entry.resultJson, bad);
    expectQuarantinedAndReplaced(bad.name, job, fresh, entry);
}

INSTANTIATE_TEST_SUITE_P(
    StoreSweepTest, BadResultTest,
    testing::Values(
        BadDocument{"not_an_object", Edit::Whole, "", "[1]"},
        BadDocument{"string_ticks", Edit::Value, "ticks", "\"oops\""},
        BadDocument{"negative_ticks", Edit::Value, "ticks", "-5"},
        BadDocument{"fractional_ticks", Edit::Value, "ticks", "1.5"},
        BadDocument{"two_to_the_64_ticks", Edit::Value, "ticks",
                    "18446744073709551616"},
        BadDocument{"huge_instructions", Edit::Value, "instructions",
                    "1e300"},
        BadDocument{"missing_ticks", Edit::Drop, "ticks", ""},
        BadDocument{"string_ipc", Edit::Value, "ipc", "\"1\""}),
    [](const testing::TestParamInfo<BadDocument> &info) {
        return std::string(info.param.name);
    });

/** A bad stored statsJson: replay rebuilds the scalar map from it. */
class BadStatsTest : public testing::TestWithParam<BadDocument>
{
};

TEST_P(BadStatsTest, IsQuarantinedAndReplacedByTheRerun)
{
    const BadDocument &bad = GetParam();
    const SweepJob job{"mcf/base", makeOptions("mcf", false, 5000, 3000)};
    const SweepOutcome fresh = SweepRunner::runOne(job);
    StoreEntry entry = storeEntryFromOutcome(fresh);
    entry.statsJson = mutated(entry.statsJson, bad);
    expectQuarantinedAndReplaced(std::string("stats_") + bad.name, job,
                                 fresh, entry);
}

INSTANTIATE_TEST_SUITE_P(
    StoreSweepTest, BadStatsTest,
    testing::Values(
        BadDocument{"empty_document", Edit::Whole, "", ""},
        BadDocument{"missing_scalars", Edit::Key, "scalars", "scalarz"},
        BadDocument{"scalars_array", Edit::Value, "scalars", "[1]"},
        BadDocument{"string_scalar", Edit::FirstMember, "scalars",
                    "\"oops\""},
        BadDocument{"bool_scalar", Edit::FirstMember, "scalars", "true"}),
    [](const testing::TestParamInfo<BadDocument> &info) {
        return std::string(info.param.name);
    });

TEST(StoreSweepTest, NullScalarReplaysAsZero)
{
    // jsonNumber writes a non-finite stat as null; replay reads it as
    // 0.0 and keeps the stored document byte for byte.
    const SweepOutcome outcome = SweepRunner::runOne(
        {"mcf", makeOptions("mcf", false, 5000, 3000)});
    ASSERT_EQ(outcome.status, SweepStatus::Ok);
    StoreEntry entry = storeEntryFromOutcome(outcome);
    const std::string name = outcome.scalars.begin()->first;
    entry.statsJson = mutated(
        entry.statsJson,
        BadDocument{"null_scalar", Edit::FirstMember, "scalars", "null"});
    const SweepOutcome back = outcomeFromStoreEntry("mcf", entry);
    EXPECT_EQ(back.scalars.at(name), 0.0);
    EXPECT_EQ(back.scalars.size(), outcome.scalars.size());
    EXPECT_EQ(back.statsJson, entry.statsJson);
}

TEST(StoreSweepTest, ManifestRecordsStoreCountersOnlyWhenEnabled)
{
    SweepManifest manifest;
    manifest.tool = "store_test";
    std::ostringstream off;
    writeSweepJson(off, manifest, {});
    EXPECT_EQ(off.str().find("\"store\""), std::string::npos);

    manifest.store.enabled = true;
    manifest.store.hits = 3;
    manifest.store.misses = 1;
    manifest.store.inserts = 1;
    std::ostringstream on;
    writeSweepJson(on, manifest, {});
    EXPECT_NE(on.str().find("\"store\":{\"enabled\":true,\"hits\":3,"
                            "\"misses\":1,\"inserts\":1,\"corrupt\":0,"
                            "\"writeFailures\":0}"),
              std::string::npos)
        << on.str().substr(0, 500);
}

} // namespace
} // namespace store
} // namespace vsv
