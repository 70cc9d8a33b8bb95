/**
 * @file
 * End-to-end campaign tests (CAMPAIGNS.md): a 2-worker local campaign
 * must write a merged manifest whose runs are byte-identical to a
 * single-process sweep of the same grid (modulo the excluded
 * throughput block) - including when one worker is SIGKILLed
 * mid-campaign - and a TCP worker must interoperate with the same
 * coordinator loop.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "campaign/campaign.hh"
#include "campaign/coordinator.hh"
#include "campaign/net.hh"
#include "campaign/worker.hh"
#include "common/logging.hh"
#include "common/minijson.hh"
#include "harness/experiment.hh"

using namespace vsv;

namespace
{

/** The Figure 4 shape in miniature: three configs per benchmark. */
std::vector<SweepJob>
tinyGrid(const std::vector<std::string> &benchmarks)
{
    std::vector<SweepJob> jobs;
    for (const std::string &name : benchmarks) {
        SimulationOptions base = makeOptions(name, false, 8000, 3000);
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

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/**
 * The per-run section of a sweep document with every (host-dependent)
 * throughput block removed - the unit the byte-identity contract is
 * stated over. The manifest block legitimately differs (wallSeconds,
 * threads, campaign counters), the runs must not.
 */
std::string
comparableRuns(const std::string &path)
{
    std::string text = slurp(path);
    const std::size_t runs = text.find("\"runs\":");
    EXPECT_NE(runs, std::string::npos) << path;
    text = text.substr(runs);
    // The throughput block is flat ({...} with no nested braces), so
    // a find/erase pair removes it exactly.
    std::size_t at;
    while ((at = text.find(",\"throughput\":{")) != std::string::npos) {
        const std::size_t end = text.find('}', at);
        EXPECT_NE(end, std::string::npos);
        text.erase(at, end - at + 1);
    }
    return text;
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

} // namespace

TEST(CampaignEquivalence, LocalWorkersMatchSerialAfterSigkill)
{
    const std::vector<SweepJob> jobs = tinyGrid({"mcf", "gzip"});

    // Reference: plain single-process sweep.
    ExperimentArgs serial;
    serial.jobs = 1;
    serial.jsonPath = tempPath("campaign_serial.json");
    const std::vector<SweepOutcome> serialOutcomes =
        runSweep(serial, "campaign_test", jobs);
    ASSERT_EQ(serialOutcomes.size(), jobs.size());

    // Distributed: two forked workers, small leases so both get work,
    // and one worker SIGKILLed as soon as the first outcome lands.
    // --retries=1 grants every run one re-queue after a worker death.
    ExperimentArgs camp;
    camp.jobs = 1;
    camp.retries = 1;
    camp.campaignWorkers = 2;
    camp.campaignChunk = 2;
    camp.jsonPath = tempPath("campaign_merged.json");

    std::atomic<bool> killed{false};
    const auto arm = [&killed](campaign::Coordinator &coordinator) {
        ASSERT_EQ(coordinator.localWorkerPids().size(), 2u);
        const pid_t victim = coordinator.localWorkerPids()[0];
        coordinator.setOutcomeHook(
            [victim, &killed](std::uint64_t, const SweepOutcome &) {
                if (!killed.exchange(true))
                    ::kill(victim, SIGKILL);
            });
    };
    const std::vector<SweepOutcome> campOutcomes =
        campaign::runCampaignSweep(camp, "campaign_test", jobs, arm);
    ASSERT_EQ(campOutcomes.size(), jobs.size());
    EXPECT_TRUE(killed.load());

    // Every run completed despite the death...
    for (const SweepOutcome &outcome : campOutcomes)
        EXPECT_TRUE(outcome.ok()) << outcome.id << ": " << outcome.error;

    // ...the merged runs are byte-identical to the serial export...
    EXPECT_EQ(comparableRuns(serial.jsonPath),
              comparableRuns(camp.jsonPath));

    // ...and the manifest's campaign block accounts for the death.
    const minijson::Value doc = minijson::parse(slurp(camp.jsonPath));
    const minijson::Value &stats = doc.at("manifest").at("campaign");
    EXPECT_TRUE(std::get<bool>(stats.at("enabled").v));
    EXPECT_EQ(stats.at("localWorkers").num(), 2.0);
    EXPECT_GE(stats.at("workersJoined").num(), 2.0);
    EXPECT_GE(stats.at("deaths").num(), 1.0);
    EXPECT_GE(stats.at("requeuedRuns").num(), 1.0);
    EXPECT_EQ(stats.at("abandonedRuns").num(), 0.0);

    // The serial manifest must NOT have grown a campaign block:
    // pre-campaign consumers see unchanged bytes.
    const minijson::Value serialDoc =
        minijson::parse(slurp(serial.jsonPath));
    EXPECT_FALSE(serialDoc.at("manifest").has("campaign"));

    std::remove(serial.jsonPath.c_str());
    std::remove(camp.jsonPath.c_str());
}

TEST(CampaignEquivalence, TcpWorkerMatchesSerial)
{
    const std::vector<SweepJob> jobs = tinyGrid({"mcf"});

    ExperimentArgs serial;
    serial.jobs = 1;
    serial.jsonPath = tempPath("campaign_tcp_serial.json");
    runSweep(serial, "campaign_test", jobs);

    // Coordinator listens on an ephemeral loopback port; the "remote"
    // worker runs serveCoordinator over a real TCP connection from a
    // thread of this process.
    ExperimentArgs camp;
    camp.jobs = 1;
    camp.campaignListen = "127.0.0.1:0";
    camp.campaignChunk = 1;
    camp.jsonPath = tempPath("campaign_tcp_merged.json");

    std::thread workerThread;
    const auto attach = [&](campaign::Coordinator &coordinator) {
        const std::uint16_t port = coordinator.listenPort();
        ASSERT_NE(port, 0);
        workerThread = std::thread([port, &camp, &jobs] {
            const int fd = campaign::net::connectTo(
                {"127.0.0.1", std::to_string(port)});
            campaign::serveCoordinator(fd, camp, "campaign_test",
                                       prepareSweepJobs(camp, jobs));
        });
    };
    const std::vector<SweepOutcome> outcomes =
        campaign::runCampaignSweep(camp, "campaign_test", jobs, attach);
    workerThread.join();

    ASSERT_EQ(outcomes.size(), jobs.size());
    for (const SweepOutcome &outcome : outcomes)
        EXPECT_TRUE(outcome.ok()) << outcome.id << ": " << outcome.error;
    EXPECT_EQ(comparableRuns(serial.jsonPath),
              comparableRuns(camp.jsonPath));

    std::remove(serial.jsonPath.c_str());
    std::remove(camp.jsonPath.c_str());
}

TEST(CampaignEquivalence, ChunkedLowWaterLeasesMatchSerial)
{
    // Regression pin for the refill() low-water fix: with chunk=4 a
    // worker's lease is topped back up after its in-flight set drops
    // below 2 (instead of only after it drains to zero). Leasing
    // order changes; the merged manifest must not.
    const std::vector<SweepJob> jobs = tinyGrid({"mcf", "gzip"});

    ExperimentArgs serial;
    serial.jobs = 1;
    serial.jsonPath = tempPath("campaign_lowwater_serial.json");
    const std::vector<SweepOutcome> serialOutcomes =
        runSweep(serial, "campaign_test", jobs);
    ASSERT_EQ(serialOutcomes.size(), jobs.size());

    ExperimentArgs camp;
    camp.jobs = 1;
    camp.campaignWorkers = 1;
    camp.campaignChunk = 4;
    camp.jsonPath = tempPath("campaign_lowwater_merged.json");
    const std::vector<SweepOutcome> campOutcomes =
        campaign::runCampaignSweep(camp, "campaign_test", jobs);

    ASSERT_EQ(campOutcomes.size(), jobs.size());
    for (const SweepOutcome &outcome : campOutcomes)
        EXPECT_TRUE(outcome.ok()) << outcome.id << ": " << outcome.error;
    EXPECT_EQ(comparableRuns(serial.jsonPath),
              comparableRuns(camp.jsonPath));

    std::remove(serial.jsonPath.c_str());
    std::remove(camp.jsonPath.c_str());
}

TEST(CampaignEquivalence, RefillTopsUpBeforeTheLeaseDrains)
{
    // The protocol-level proof of the low-water refill: a worker
    // holding chunk=4 runs that has reported only 3 outcomes (one
    // still in flight) must already receive its next ASSIGN. The old
    // refill() waited for the in-flight set to empty, so no frame
    // would arrive here until the 4th outcome crossed the wire.
    const std::vector<SweepJob> jobs = tinyGrid({"mcf", "gzip"});

    ExperimentArgs camp;
    camp.jobs = 1;
    camp.campaignListen = "127.0.0.1:0";
    camp.campaignChunk = 4;

    std::atomic<std::size_t> topUpRuns{0};
    std::atomic<std::size_t> inFlightAtTopUp{0};
    std::thread workerThread;
    const auto attach = [&](campaign::Coordinator &coordinator) {
        const std::uint16_t port = coordinator.listenPort();
        ASSERT_NE(port, 0);
        workerThread = std::thread([port, &camp, &jobs, &topUpRuns,
                                    &inFlightAtTopUp] {
            const std::vector<SweepJob> prepared =
                prepareSweepJobs(camp, jobs);
            const int fd = campaign::net::connectTo(
                {"127.0.0.1", std::to_string(port)});
            ASSERT_GE(fd, 0);

            campaign::HelloMessage hello;
            hello.role = "worker";
            hello.tool = "campaign_test";
            hello.grid = sweepGridFingerprint(prepared);
            hello.runs = prepared.size();
            ASSERT_TRUE(campaign::writeFrame(fd, encode(hello)));
            auto payload = campaign::readFrame(fd);
            ASSERT_TRUE(payload.has_value());
            ASSERT_TRUE(std::holds_alternative<campaign::HelloMessage>(
                campaign::decodeMessage(*payload)));

            payload = campaign::readFrame(fd);
            ASSERT_TRUE(payload.has_value());
            const auto first = std::get<campaign::AssignMessage>(
                campaign::decodeMessage(*payload));
            ASSERT_EQ(first.runs.size(), 4u);

            // The coordinator cross-checks indices, not results, so
            // the regression pin fabricates instant Ok outcomes.
            const auto report =
                [fd](const campaign::AssignedRun &run) {
                    campaign::OutcomeMessage om;
                    om.index = run.index;
                    om.outcome.id = run.id;
                    om.outcome.fingerprint = run.fingerprint;
                    om.outcome.status = SweepStatus::Ok;
                    om.outcome.attempts = 1;
                    ASSERT_TRUE(campaign::writeFrame(fd, encode(om)));
                };
            for (std::size_t i = 0; i < 3; ++i)
                report(first.runs[i]);

            // One run still in flight - the top-up must arrive now.
            payload = campaign::readFrame(fd);
            ASSERT_TRUE(payload.has_value());
            const auto topUp = std::get<campaign::AssignMessage>(
                campaign::decodeMessage(*payload));
            topUpRuns = topUp.runs.size();
            inFlightAtTopUp = 1;

            report(first.runs[3]);
            for (const campaign::AssignedRun &run : topUp.runs)
                report(run);

            payload = campaign::readFrame(fd);
            ASSERT_TRUE(payload.has_value());
            ASSERT_TRUE(std::holds_alternative<campaign::ByeMessage>(
                campaign::decodeMessage(*payload)));
            campaign::writeFrame(
                fd, encode(campaign::ByeMessage{"complete"}));
            ::close(fd);
        });
    };
    const std::vector<SweepOutcome> outcomes =
        campaign::runCampaignSweep(camp, "campaign_test", jobs, attach);
    workerThread.join();

    ASSERT_EQ(outcomes.size(), jobs.size());
    // 6 runs, 4 leased up front: the top-up leased the remaining 2
    // while 1 of the first chunk was still in flight.
    EXPECT_EQ(topUpRuns.load(), 2u);
    EXPECT_EQ(inFlightAtTopUp.load(), 1u);
}

TEST(CampaignEquivalence, AllWorkersGoneIsAStructuredError)
{
    // Regression pin for the stall fix: a coordinator whose only
    // worker was refused (drifted grid) with every run still queued
    // used to block in poll() forever waiting for a replacement; it
    // must now fail structurally.
    const std::vector<SweepJob> jobs = tinyGrid({"mcf"});

    ExperimentArgs camp;
    camp.jobs = 1;
    camp.campaignListen = "127.0.0.1:0";
    const std::vector<SweepJob> prepared = prepareSweepJobs(camp, jobs);
    campaign::Coordinator coordinator(camp, "campaign_test", prepared);
    ASSERT_NE(coordinator.listenPort(), 0);

    std::thread drifted([&coordinator] {
        const int fd = campaign::net::connectTo(
            {"127.0.0.1", std::to_string(coordinator.listenPort())});
        ASSERT_GE(fd, 0);
        campaign::HelloMessage hello;
        hello.role = "worker";
        hello.tool = "campaign_test";
        hello.grid = "0000000000000000"; // drifted command line
        ASSERT_TRUE(campaign::writeFrame(fd, encode(hello)));
        try {
            campaign::readFrame(fd); // the refusal BYE (or EOF)
        } catch (const campaign::ProtocolError &) {
        }
        ::close(fd);
    });

    try {
        ScopedThrowingFatal guard;
        coordinator.execute();
        FAIL() << "coordinator did not detect the stall";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("campaign stalled"),
                  std::string::npos)
            << e.what();
    }
    drifted.join();
    EXPECT_GE(coordinator.stats().protocolErrors, 1u);
}

TEST(CampaignEquivalence, DriftedWorkerIsRefused)
{
    const std::vector<SweepJob> jobs = tinyGrid({"mcf"});
    // A worker built over a *different* grid (drifted command line)
    // must be refused by the HELLO fingerprint check and the campaign
    // must still finish off the back of the healthy worker.
    const std::vector<SweepJob> drifted = tinyGrid({"gzip"});

    ExperimentArgs camp;
    camp.jobs = 1;
    camp.campaignListen = "127.0.0.1:0";
    camp.jsonPath = tempPath("campaign_drift.json");

    // The campaign cannot complete before the healthy worker serves
    // every run, and the drifted worker's handshake (pure message
    // exchange) resolves long before that - so the refusal is always
    // observed in the merged manifest. Both connections are made
    // before the coordinator's event loop starts, healthy first, so
    // the healthy worker is accepted no later than the drifted one:
    // the refusal can never leave the coordinator with no open worker
    // (which its stall detection would rightly treat as fatal).
    std::thread driftedThread, healthyThread;
    const auto attach = [&](campaign::Coordinator &coordinator) {
        const std::string port = std::to_string(coordinator.listenPort());
        const int healthyFd =
            campaign::net::connectTo({"127.0.0.1", port});
        const int driftedFd =
            campaign::net::connectTo({"127.0.0.1", port});
        driftedThread = std::thread([driftedFd, &camp, &drifted] {
            // Returns nonzero: refused before any assignment.
            EXPECT_NE(campaign::serveCoordinator(
                          driftedFd, camp, "campaign_test",
                          prepareSweepJobs(camp, drifted)),
                      0);
        });
        healthyThread = std::thread([healthyFd, &camp, &jobs] {
            campaign::serveCoordinator(healthyFd, camp, "campaign_test",
                                       prepareSweepJobs(camp, jobs));
        });
    };
    const std::vector<SweepOutcome> outcomes =
        campaign::runCampaignSweep(camp, "campaign_test", jobs, attach);
    driftedThread.join();
    healthyThread.join();

    ASSERT_EQ(outcomes.size(), jobs.size());
    for (const SweepOutcome &outcome : outcomes)
        EXPECT_TRUE(outcome.ok());

    const minijson::Value doc = minijson::parse(slurp(camp.jsonPath));
    EXPECT_GE(doc.at("manifest").at("campaign").at("protocolErrors")
                  .num(),
              1.0);
    std::remove(camp.jsonPath.c_str());
}
