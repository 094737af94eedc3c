/**
 * @file
 * Integration tests: the simulated FPGA system must produce
 * bit-identical read updates to the software realigner on whole
 * synthetic chromosomes, under every accelerator configuration and
 * scheduling policy.  Also covers the cost model.
 */

#include <gtest/gtest.h>

#include "core/realigner_api.hh"
#include "core/workload.hh"
#include "host/machine_config.hh"
#include "util/logging.hh"

namespace iracc {
namespace {

WorkloadParams
smallWorkload()
{
    WorkloadParams params;
    params.chromosomes = {21};
    params.scaleDivisor = 8000;
    params.minContigLength = 30000; // floor wins: ~30 kbp contig
    params.coverage = 25.0;
    // Denser indels than the genome-wide default so the small
    // contig still yields a meaningful number of IR targets.
    params.variants.insRate = 5e-4;
    params.variants.delRate = 5e-4;
    return params;
}

/** Compact fingerprint of a read set's alignments. */
std::vector<std::string>
alignmentFingerprint(const std::vector<Read> &reads)
{
    std::vector<std::string> fp;
    fp.reserve(reads.size());
    for (const Read &r : reads) {
        fp.push_back(r.name + "@" + std::to_string(r.pos) + ":" +
                     r.cigar.toString());
    }
    return fp;
}

struct AccelCase
{
    const char *label;
    AccelConfig config;
    SchedulePolicy policy;
};

TEST(FpgaEquivalence, MatchesSoftwareOnWholeChromosome)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(smallWorkload());
    const ChromosomeWorkload &chr = wl.chromosome(21);

    // Software reference result.
    std::vector<Read> sw_reads = chr.reads;
    SoftwareRealignerConfig sw_cfg;
    sw_cfg.prune = false;
    RealignStats sw_stats = makeSoftwareBackend("sw", "", sw_cfg)
                                ->realignContig(wl.reference,
                                                chr.contig, sw_reads)
                                .stats;
    ASSERT_GT(sw_stats.targets, 10u);
    ASSERT_GT(sw_stats.readsRealigned, 0u);

    const std::vector<AccelCase> cases = {
        {"iracc", AccelConfig::paperOptimized(),
         SchedulePolicy::AsynchronousParallel},
        {"taskp-sync", AccelConfig::taskParallelOnly(),
         SchedulePolicy::SynchronousParallel},
        {"hls", AccelConfig::hlsSdaccel(),
         SchedulePolicy::AsynchronousParallel},
    };

    auto want = alignmentFingerprint(sw_reads);
    for (const AccelCase &c : cases) {
        std::vector<Read> hw_reads = chr.reads;
        BackendRunResult run =
            makeAcceleratedBackend(c.label, "equivalence subject",
                                   c.config, c.policy)
                ->realignContig(wl.reference, chr.contig, hw_reads);
        EXPECT_EQ(run.stats.targets, sw_stats.targets) << c.label;
        EXPECT_EQ(run.stats.readsRealigned,
                  sw_stats.readsRealigned) << c.label;
        EXPECT_EQ(alignmentFingerprint(hw_reads), want) << c.label;
        // One card: its busy cycles are the makespan.
        EXPECT_GT(run.fleet.busyCycles(), 0u) << c.label;
        EXPECT_GT(run.fpgaSeconds, 0.0) << c.label;
    }
}

TEST(FpgaSystemBehavior, DmaIsTinyFractionOfRuntime)
{
    // Paper Section IV: PCIe DMA accounts for ~0.01 % of runtime.
    // Our simulated system must keep DMA far below 5 % even on a
    // small chromosome.
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(smallWorkload());
    const ChromosomeWorkload &chr = wl.chromosome(21);
    std::vector<Read> reads = chr.reads;
    BackendRunResult run =
        makeAcceleratedBackend("iracc", "dma-share subject",
                               AccelConfig::paperOptimized(),
                               SchedulePolicy::AsynchronousParallel)
            ->realignContig(wl.reference, chr.contig, reads);
    // dmaFraction = DMA busy cycles / makespan.
    ASSERT_GT(run.fleet.busyCycles(), 0u);
    EXPECT_LT(run.dmaFraction, 0.05);
}

TEST(FpgaSystemBehavior, MoreUnitsIsFaster)
{
    setQuiet(true);
    // Isolated (non-clustered) indels give uniform target sizes so
    // the scaling claim is not confounded by one straggler.
    WorkloadParams params = smallWorkload();
    params.variants.clusterProb = 0.0;
    GenomeWorkload wl = buildWorkload(params);
    const ChromosomeWorkload &chr = wl.chromosome(21);

    AccelConfig one = AccelConfig::paperOptimized();
    one.numUnits = 1;
    AccelConfig many = AccelConfig::paperOptimized();

    // One card: its busy cycles are the makespan.
    auto makespan = [&](const AccelConfig &cfg) {
        std::vector<Read> reads = chr.reads;
        return makeAcceleratedBackend(
                   "scaling", "unit-scaling subject", cfg,
                   SchedulePolicy::AsynchronousParallel)
            ->realignContig(wl.reference, chr.contig, reads)
            .fleet.busyCycles();
    };
    const Cycle makespan_a = makespan(one);
    const Cycle makespan_b = makespan(many);

    EXPECT_LT(makespan_b, makespan_a);
    // Task parallelism must help substantially; the heavy-tailed
    // target-size distribution (one straggler can dominate a small
    // contig) keeps this below linear scaling.
    EXPECT_GT(static_cast<double>(makespan_a) /
                  static_cast<double>(makespan_b),
              3.0);
}

TEST(CostModel, PaperPricing)
{
    EXPECT_DOUBLE_EQ(f1_2xlarge().hourlyUsd, 1.65);
    EXPECT_DOUBLE_EQ(r3_2xlarge().hourlyUsd, 0.665);
    EXPECT_DOUBLE_EQ(p3_2xlarge().hourlyUsd, 3.06);

    // 42 hours of GATK3 on R3 is the paper's ~$28.
    EXPECT_NEAR(runCostUsd(42.0 * 3600.0, r3_2xlarge()), 27.9, 0.1);
    // ~31 minutes on F1 is the paper's <$1.
    EXPECT_LT(runCostUsd(31.5 * 60.0, f1_2xlarge()), 1.0);
}

TEST(CostModel, TableIIConfigurations)
{
    const InstanceType &f1 = f1_2xlarge();
    EXPECT_EQ(f1.cores, 4u);
    EXPECT_EQ(f1.threads, 8u);
    EXPECT_TRUE(f1.hasFpga);
    EXPECT_DOUBLE_EQ(f1.fpgaMemoryGiB, 64.0);
    EXPECT_DOUBLE_EQ(f1.memoryGiB, 122.0);

    const InstanceType &r3 = r3_2xlarge();
    EXPECT_EQ(r3.cores, 4u);
    EXPECT_FALSE(r3.hasFpga);
    EXPECT_DOUBLE_EQ(r3.memoryGiB, 61.0);
    EXPECT_DOUBLE_EQ(r3.cpuGhz, 2.5);
}

} // namespace
} // namespace iracc
