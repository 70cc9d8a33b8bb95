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
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "harness/experiment.hh"
#include "harness/sweep.hh"
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

/** One stored result document that passes the envelope check but
 *  does not decode exactly. */
struct BadResult
{
    const char *name;
    const char *pattern;      ///< regex over the recorded resultJson
    const char *replacement;  ///< applied to its first match
};

void
PrintTo(const BadResult &bad, std::ostream *os)
{
    *os << bad.name;
}

class BadResultTest : public testing::TestWithParam<BadResult>
{
};

TEST_P(BadResultTest, IsQuarantinedAndReplacedByTheRerun)
{
    const BadResult &bad = GetParam();
    const std::string dir =
        freshDir(std::string("vsv_store_bad_") + bad.name);
    const std::vector<SweepJob> jobs = {
        {"mcf/base", makeOptions("mcf", false, 5000, 3000)}};
    const SweepOutcome fresh = SweepRunner::runOne(jobs[0]);

    StoreEntry entry = storeEntryFromOutcome(fresh);
    const std::string recorded = entry.resultJson;
    entry.resultJson =
        std::regex_replace(recorded, std::regex(bad.pattern),
                           bad.replacement,
                           std::regex_constants::format_first_only);
    ASSERT_NE(entry.resultJson, recorded);
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

INSTANTIATE_TEST_SUITE_P(
    StoreSweepTest, BadResultTest,
    testing::Values(
        BadResult{"not_an_object", "^.*$", "[1]"},
        BadResult{"string_ticks", "\"ticks\":\\d+", "\"ticks\":\"oops\""},
        BadResult{"negative_ticks", "\"ticks\":\\d+", "\"ticks\":-5"},
        BadResult{"fractional_ticks", "\"ticks\":\\d+", "\"ticks\":1.5"},
        BadResult{"two_to_the_64_ticks", "\"ticks\":\\d+",
                  "\"ticks\":18446744073709551616"},
        BadResult{"huge_instructions", "\"instructions\":\\d+",
                  "\"instructions\":1e300"},
        BadResult{"missing_ticks", ",\"ticks\":\\d+", ""},
        BadResult{"string_ipc", "\"ipc\":[^,]+", "\"ipc\":\"1\""}),
    [](const testing::TestParamInfo<BadResult> &info) {
        return std::string(info.param.name);
    });

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
