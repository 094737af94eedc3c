/**
 * @file
 * Post-mortem bundle tests.  The committed fault corpus case
 * (repro-fault-mixed-schedule.case) is driven through a hardened
 * job with a bundle directory attached; the bundle's canonical
 * event log must byte-match the golden fixture in tests/golden/,
 * and the fault_plan.txt it emits must parse back into the exact
 * plan that produced the incident -- the replay path an on-call
 * engineer uses.  Re-generate the fixture with
 * IRACC_UPDATE_GOLDEN=1 after an intentional event-schema change.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/postmortem.hh"
#include "core/realign_job.hh"
#include "fault/fault.hh"
#include "obs/flight_recorder.hh"
#include "obs/obs.hh"
#include "sim/perf_monitor.hh"
#include "testing/corpus.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace iracc {
namespace {

const char *kCase = IRACC_CORPUS_DIR
    "/repro-fault-mixed-schedule.case";
const char *kGolden = IRACC_GOLDEN_DIR "/postmortem-events.log";

std::string
slurp(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

JsonValue
parseJson(const std::string &text)
{
    std::string err;
    JsonValue v = JsonValue::parse(text, &err);
    EXPECT_EQ(v.kind(), JsonValue::Kind::Object) << err;
    return v;
}

/** One exported distribution: @p count samples, and quantiles
 *  ordered up to the max. */
void
expectDistribution(const JsonValue &d, double count,
                   const std::string &what)
{
    ASSERT_EQ(d.kind(), JsonValue::Kind::Object) << what;
    EXPECT_EQ(d.at("count").asNumber(), count) << what;
    const double chain[] = {
        d.at("p50").asNumber(), d.at("p90").asNumber(),
        d.at("p99").asNumber(), d.at("p999").asNumber(),
        d.at("max").asNumber()};
    for (size_t i = 1; i < 5; ++i)
        EXPECT_LE(chain[i - 1], chain[i]) << what << " step " << i;
}

/** Run the corpus case through a hardened job with a bundle
 *  directory attached; returns the job result. */
RealignJobResult
runCaseWithBundle(const difftest::ReproCase &repro,
                  const std::string &bundle_dir)
{
    obs::FlightRecorder::instance().clear();

    RealignJobConfig cfg;
    cfg.postmortemDir = bundle_dir;
    cfg.postmortemAlways = true;
    RealignSession session(
        makeHardenedBackend("postmortem-golden",
                            "postmortem golden-log subject",
                            AccelConfig::paperOptimized(),
                            FaultPlan::parse(repro.faultPlan)),
        cfg);
    std::vector<Read> reads = repro.reads;
    return session.run(repro.reference, reads);
}

TEST(Postmortem, BundleEventLogMatchesGoldenFixture)
{
    setQuiet(true);
    difftest::ReproCase repro = difftest::loadReproCase(kCase);
    ASSERT_EQ(repro.kind, "fault");
    ASSERT_FALSE(repro.faultPlan.empty());

    std::string dir = ::testing::TempDir() +
                      "iracc-postmortem-golden";
    std::filesystem::remove_all(dir);
    RealignJobResult job = runCaseWithBundle(repro, dir);

    // A mixed corrupt-write/unit-hang/dma-drop schedule must be
    // absorbed (Degraded, never Failed) and must produce a bundle.
    EXPECT_EQ(job.status, RunStatus::Degraded);
    EXPECT_GT(job.recovery.faultsInjected, 0u);
    ASSERT_EQ(job.postmortemPath, dir);
    for (const char *f : {"events.log", "events.json",
                          "metrics.json", "summary.json",
                          "fault_plan.txt"})
        EXPECT_TRUE(std::filesystem::exists(
            std::filesystem::path(dir) / f))
            << f;

    std::string got = slurp(dir + "/events.log");
    ASSERT_FALSE(got.empty());

    if (std::getenv("IRACC_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(kGolden, std::ios::binary);
        ASSERT_TRUE(out.good()) << kGolden;
        out << got;
        GTEST_SKIP() << "golden fixture updated: " << kGolden;
    }

    // Byte-for-byte: the canonical log is a pure function of
    // (workload, seed, fault plan, cards, stealing), so any drift
    // is a real behaviour or schema change, never noise.
    std::string want = slurp(kGolden);
    ASSERT_FALSE(want.empty())
        << "missing fixture " << kGolden
        << " (regenerate with IRACC_UPDATE_GOLDEN=1)";
    EXPECT_EQ(got, want);

    // Running the same case again yields the same bundle -- the
    // recorder was cleared, so nothing from the first run leaks.
    std::string dir2 = ::testing::TempDir() +
                       "iracc-postmortem-golden-2";
    std::filesystem::remove_all(dir2);
    RealignJobResult job2 = runCaseWithBundle(repro, dir2);
    EXPECT_EQ(job2.status, job.status);
    EXPECT_EQ(slurp(dir2 + "/events.log"), got);
}

TEST(Postmortem, EveryDistributionExportRoundTripsThroughJson)
{
    // The three exports of a distribution -- the registry dump
    // (the bundle's metrics.json), the bundle summary, and the
    // perf-counter JSON -- share one renderer and one shape.
    setQuiet(true);
    difftest::ReproCase repro = difftest::loadReproCase(kCase);
    std::string dir = ::testing::TempDir() + "iracc-postmortem-dists";
    std::filesystem::remove_all(dir);

    obs::MetricsRegistry reg;
    obs::Observability ob;
    ob.metrics = &reg;
    RealignJobConfig cfg;
    cfg.obs = &ob;
    cfg.postmortemDir = dir;
    cfg.postmortemAlways = true;
    std::vector<Read> reads = repro.reads;
    RealignJobResult job = makeSession("iracc", cfg, true)
                               .run(repro.reference, reads);
    const double targets =
        static_cast<double>(job.targetLatencyCycles.count());
    ASSERT_GT(targets, 0.0);

    JsonValue metrics = parseJson(slurp(dir + "/metrics.json"));
    const JsonValue &hists = metrics.at("histograms");
    expectDistribution(hists.at("realign.target.latency_cycles"),
                       targets, "metrics latency_cycles");
    expectDistribution(hists.at("realign.stage.execute.seconds"),
                       static_cast<double>(job.contigs.size()),
                       "metrics execute.seconds");

    JsonValue summary = parseJson(slurp(dir + "/summary.json"));
    expectDistribution(summary.at("latency").at("cycles"), targets,
                       "summary cycles");
    expectDistribution(summary.at("latency").at("ns"), targets,
                       "summary ns");

    std::ostringstream perf;
    writePerfJson(perf, job.perf);
    JsonValue counters = parseJson(perf.str());
    for (const char *key :
         {"targetCompute", "cmdQueueWait", "targetLatency"})
        expectDistribution(counters.at(key), targets, key);
    expectDistribution(
        counters.at("unitIdleGap"),
        static_cast<double>(job.perf.unitIdleGap.count()),
        "unitIdleGap");
}

TEST(Postmortem, FaultPlanFileReplaysTheIncident)
{
    setQuiet(true);
    difftest::ReproCase repro = difftest::loadReproCase(kCase);

    std::string dir = ::testing::TempDir() +
                      "iracc-postmortem-replay";
    std::filesystem::remove_all(dir);
    runCaseWithBundle(repro, dir);

    // fault_plan.txt carries one "card <k> <plan>" line per card;
    // the text form must parse back into the plan that produced
    // the incident.
    std::ifstream plans(dir + "/fault_plan.txt");
    ASSERT_TRUE(plans.good());
    std::string line;
    std::vector<std::string> cardPlans;
    while (std::getline(plans, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string word;
        uint32_t card = 0;
        ls >> word >> card;
        ASSERT_EQ(word, "card");
        std::string rest;
        std::getline(ls, rest);
        if (!rest.empty() && rest[0] == ' ')
            rest.erase(0, 1);
        cardPlans.push_back(rest);
    }
    ASSERT_EQ(cardPlans.size(), 1u);
    EXPECT_EQ(FaultPlan::parse(cardPlans[0]).describe(),
              FaultPlan::parse(repro.faultPlan).describe());

    // And the corpus machinery replays the recovered plan end to
    // end: hardened output must stay bit-identical to the
    // fault-free oracle under this schedule.
    difftest::ReproCase replay = repro;
    replay.faultPlan = cardPlans[0];
    difftest::DiffResult res = difftest::replayReproCase(replay);
    EXPECT_TRUE(res.ok) << "[" << res.variant << "] "
                        << res.detail;
}

} // namespace
} // namespace iracc
