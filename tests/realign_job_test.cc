/**
 * @file
 * Tests for the genome-level RealignJob engine: a multi-contig
 * read set through the staged pipeline must produce bit-identical
 * read updates and statistics for every backend, for any job
 * thread count, and for contig-by-contig runContig calls -- the
 * refactor's central guarantee.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/realign_job.hh"
#include "core/workload.hh"
#include "obs/obs.hh"
#include "util/logging.hh"

namespace iracc {
namespace {

WorkloadParams
multiContigWorkload()
{
    WorkloadParams params;
    params.chromosomes = {20, 21, 22};
    params.scaleDivisor = 10000;
    params.minContigLength = 25000;
    params.coverage = 15.0;
    params.variants.insRate = 4e-4;
    params.variants.delRate = 4e-4;
    return params;
}

std::vector<Read>
allReads(const GenomeWorkload &wl)
{
    std::vector<Read> out;
    for (const auto &chr : wl.chromosomes)
        out.insert(out.end(), chr.reads.begin(), chr.reads.end());
    return out;
}

/** Alignment fingerprint of one read set (pos + CIGAR per read). */
std::vector<std::string>
fingerprint(const std::vector<Read> &reads)
{
    std::vector<std::string> out;
    out.reserve(reads.size());
    for (const Read &r : reads) {
        out.push_back(std::to_string(r.contig) + ":" +
                      std::to_string(r.pos) + ":" +
                      r.cigar.toString());
    }
    return out;
}

/**
 * Decision-level statistics must agree across *backends* (the
 * bit-equality guarantee); kernel-work counters (comparisons,
 * pruned offsets) legitimately differ between pruning and
 * non-pruning backends, so they are only compared within one
 * backend (expectWhdEqual).
 */
void
expectStatsEqual(const RealignStats &a, const RealignStats &b,
                 const std::string &what)
{
    EXPECT_EQ(a.targets, b.targets) << what;
    EXPECT_EQ(a.readsConsidered, b.readsConsidered) << what;
    EXPECT_EQ(a.readsRealigned, b.readsRealigned) << what;
    EXPECT_EQ(a.consensusesEvaluated, b.consensusesEvaluated)
        << what;
}

void
expectWhdEqual(const WhdStats &a, const WhdStats &b,
               const std::string &what)
{
    EXPECT_EQ(a.comparisons, b.comparisons) << what;
    EXPECT_EQ(a.offsetsEvaluated, b.offsetsEvaluated) << what;
    EXPECT_EQ(a.offsetsPruned, b.offsetsPruned) << what;
}

TEST(RealignJob, GenomeWideBitEqualityAcrossBackendsAndThreads)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(multiContigWorkload());
    std::vector<Read> base = allReads(wl);

    // Reference result: the single-threaded software baseline,
    // serial contig loop.
    std::vector<Read> want = base;
    RealignJobResult ref_job =
        makeSession("gatk3-1t").run(wl.reference, want);
    ASSERT_GT(ref_job.stats.targets, 0u);
    ASSERT_EQ(ref_job.contigs.size(), 3u);
    std::vector<std::string> want_fp = fingerprint(want);

    for (const char *name : {"gatk3", "native", "iracc"}) {
        RealignStats serial_stats;
        for (uint32_t threads : {1u, 4u}) {
            RealignJobConfig cfg;
            cfg.threads = threads;
            std::vector<Read> reads = base;
            RealignJobResult job =
                makeSession(name, cfg).run(wl.reference, reads);

            std::string what = std::string(name) + " threads=" +
                               std::to_string(threads);
            EXPECT_EQ(fingerprint(reads), want_fp) << what;
            expectStatsEqual(job.stats, ref_job.stats, what);
            EXPECT_EQ(job.contigs.size(), 3u) << what;
            EXPECT_GT(job.seconds, 0.0) << what;
            EXPECT_GT(job.wallSeconds, 0.0) << what;
            EXPECT_GT(job.criticalPathSeconds, 0.0) << what;
            EXPECT_LE(job.criticalPathSeconds, job.seconds) << what;

            // Within one backend, the full statistics -- kernel
            // work counters included -- must be identical for any
            // worker count.
            if (threads == 1)
                serial_stats = job.stats;
            else
                expectWhdEqual(job.stats.whd, serial_stats.whd,
                               what + " vs threads=1");
        }
    }
}

TEST(RealignJob, FleetBitEqualityAcrossCardsThreadsStealing)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(multiContigWorkload());
    std::vector<Read> base = allReads(wl);

    // Reference: the single-card serial accelerated run.  Every
    // fleet shape must reproduce it bit for bit -- card placement
    // only moves work between private virtual timelines, never
    // into the datapath.
    std::vector<Read> want = base;
    RealignJobResult ref_job =
        RealignSession(makeBackend("iracc")).run(wl.reference, want);
    ASSERT_GT(ref_job.stats.targets, 0u);
    std::vector<std::string> want_fp = fingerprint(want);

    for (uint32_t cards : {1u, 2u, 4u}) {
        for (uint32_t threads : {1u, 4u}) {
            for (bool stealing : {true, false}) {
                RealignJobConfig cfg;
                cfg.threads = threads;
                std::vector<Read> reads = base;
                RealignJobResult job =
                    RealignSession(makeBackend("iracc", false,
                                               false, cards,
                                               stealing),
                                   cfg)
                        .run(wl.reference, reads);

                std::string what =
                    "cards=" + std::to_string(cards) +
                    " threads=" + std::to_string(threads) +
                    (stealing ? " steal=on" : " steal=off");
                EXPECT_EQ(fingerprint(reads), want_fp) << what;
                expectStatsEqual(job.stats, ref_job.stats, what);
                expectWhdEqual(job.stats.whd, ref_job.stats.whd,
                               what);

                // Dispatch accounting: one row per card, every
                // target placed exactly once, and no steals when
                // stealing is off.
                ASSERT_TRUE(job.fleet.enabled()) << what;
                EXPECT_EQ(job.fleet.cards.size(), cards) << what;
                uint64_t placed = 0;
                for (const auto &row : job.fleet.cards)
                    placed += row.targets;
                EXPECT_EQ(placed, job.stats.targets) << what;
                if (!stealing)
                    EXPECT_EQ(job.fleet.steals(), 0u) << what;
            }
        }
    }
}

TEST(RealignJob, FleetQueueDepthRecordsRawShardCounts)
{
    setQuiet(true);
    WorkloadParams params = multiContigWorkload();
    params.chromosomes = {21};
    GenomeWorkload wl = buildWorkload(params);

    obs::MetricsRegistry reg;
    obs::Observability ob;
    ob.metrics = &reg;
    RealignJobConfig cfg;
    cfg.obs = &ob;
    std::vector<Read> reads = allReads(wl);
    RealignJobResult job =
        RealignSession(makeBackend("iracc", true, false, 2, true), cfg)
            .run(wl.reference, reads);

    // One contig on two cards: one sample per card, holding that
    // card's shard count as given.
    ASSERT_EQ(job.fleet.cards.size(), 2u);
    const uint64_t s0 = job.fleet.cards[0].shards;
    const uint64_t s1 = job.fleet.cards[1].shards;
    obs::LatencyHistogram depth =
        reg.latencySnapshot("fleet.queue_depth");
    EXPECT_EQ(depth.count(), 2u);
    EXPECT_EQ(depth.max(), std::max(s0, s1));
    EXPECT_EQ(depth.min(), std::min(s0, s1));
    EXPECT_DOUBLE_EQ(reg.histogramSum("fleet.queue_depth"),
                     static_cast<double>(s0 + s1));

    // The counter report's per-target latency is the scheduler's
    // histogram, merged up to the job.
    ASSERT_TRUE(job.perf.enabled);
    EXPECT_TRUE(job.perf.targetLatency == job.targetLatencyCycles);
}

TEST(RealignJob, MatchesContigByContigRuns)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(multiContigWorkload());

    // One-contig jobs, one contig at a time.
    std::vector<Read> serial_reads = allReads(wl);
    RealignSession serial = makeSession("native");
    RealignStats serial_stats;
    for (const auto &chr : wl.chromosomes) {
        RealignJobResult one =
            serial.runContig(wl.reference, chr.contig, serial_reads);
        serial_stats.merge(one.stats);
    }

    // One parallel genome-wide job.
    RealignJobConfig cfg;
    cfg.threads = 4;
    std::vector<Read> job_reads = allReads(wl);
    RealignJobResult job =
        makeSession("native", cfg).run(wl.reference, job_reads);

    EXPECT_EQ(fingerprint(job_reads), fingerprint(serial_reads));
    expectStatsEqual(job.stats, serial_stats, "job vs contig runs");
    expectWhdEqual(job.stats.whd, serial_stats.whd,
                   "job vs contig runs");
}

TEST(RealignJob, ModeledSecondsInvariantUnderThreads)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(multiContigWorkload());

    // The accelerated backend's per-contig seconds are simulated
    // FPGA cycles plus host time; the cycle part must be exactly
    // reproducible, so compare fpgaSeconds across thread counts.
    double fpga[2] = {0.0, 0.0};
    int idx = 0;
    for (uint32_t threads : {1u, 4u}) {
        RealignJobConfig cfg;
        cfg.threads = threads;
        std::vector<Read> reads = allReads(wl);
        RealignJobResult job =
            makeSession("iracc", cfg).run(wl.reference, reads);
        EXPECT_TRUE(job.simulated);
        fpga[idx++] = job.fpgaSeconds;
    }
    EXPECT_DOUBLE_EQ(fpga[0], fpga[1]);
}

TEST(RealignJob, MergesPerfCountersAcrossContigs)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(multiContigWorkload());

    RealignJobConfig cfg;
    cfg.threads = 4;
    RealignSession session =
        makeSession("iracc", cfg, /*perf_counters=*/true,
                    /*perf_trace=*/true);
    std::vector<Read> reads = allReads(wl);
    RealignJobResult job = session.run(wl.reference, reads);

    ASSERT_TRUE(job.perf.enabled);
    uint64_t unit_targets = 0;
    for (const auto &u : job.perf.units)
        unit_targets += u.targets;
    EXPECT_EQ(unit_targets, job.stats.targets);

    // Trace events carry the contig id as their pid, one process
    // per contig in the merged Chrome trace.
    ASSERT_FALSE(job.perf.trace.empty());
    std::vector<bool> seen(wl.chromosomes.size(), false);
    for (const auto &ev : job.perf.trace) {
        ASSERT_LT(ev.pid, seen.size());
        seen[ev.pid] = true;
    }
    for (size_t c = 0; c < seen.size(); ++c)
        EXPECT_TRUE(seen[c]) << "no trace events for contig " << c;
}

TEST(RealignJob, EmptyAndSingleContigEdgeCases)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(multiContigWorkload());

    // No reads: an empty job result, no crash.
    std::vector<Read> empty;
    RealignJobResult none =
        makeSession("native").run(wl.reference, empty);
    EXPECT_TRUE(none.contigs.empty());
    EXPECT_EQ(none.stats.targets, 0u);

    // runContig equals a one-contig run().
    const ChromosomeWorkload &chr = wl.chromosome(22);
    std::vector<Read> a = chr.reads;
    std::vector<Read> b = chr.reads;
    RealignSession session = makeSession("native");
    RealignJobResult ja =
        session.runContig(wl.reference, chr.contig, a);
    RealignJobResult jb = session.run(
        wl.reference, std::vector<int32_t>{chr.contig}, b);
    EXPECT_EQ(fingerprint(a), fingerprint(b));
    expectStatsEqual(ja.stats, jb.stats, "runContig vs run");
    expectWhdEqual(ja.stats.whd, jb.stats.whd, "runContig vs run");
}

} // namespace
} // namespace iracc
