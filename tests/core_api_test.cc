/**
 * @file
 * Tests for the public facade: workload determinism and the backend
 * registry (every backend must realign identically).
 */

#include <gtest/gtest.h>

#include "core/realigner_api.hh"
#include "core/workload.hh"
#include "util/logging.hh"

namespace iracc {
namespace {

WorkloadParams
tinyWorkload()
{
    WorkloadParams params;
    params.chromosomes = {21, 22};
    params.scaleDivisor = 10000;
    params.minContigLength = 25000;
    params.coverage = 15.0;
    params.variants.insRate = 4e-4;
    params.variants.delRate = 4e-4;
    return params;
}

TEST(Workload, DeterministicForSameParams)
{
    GenomeWorkload a = buildWorkload(tinyWorkload());
    GenomeWorkload b = buildWorkload(tinyWorkload());
    ASSERT_EQ(a.chromosomes.size(), b.chromosomes.size());
    ASSERT_EQ(a.totalReads(), b.totalReads());
    for (size_t c = 0; c < a.chromosomes.size(); ++c) {
        ASSERT_EQ(a.chromosomes[c].truth.size(),
                  b.chromosomes[c].truth.size());
        for (size_t i = 0; i < a.chromosomes[c].reads.size(); ++i) {
            ASSERT_EQ(a.chromosomes[c].reads[i].bases,
                      b.chromosomes[c].reads[i].bases);
        }
    }
}

TEST(Workload, ChromosomeSubsetsAreConsistent)
{
    // Chromosome 22 must be identical whether built alone or with
    // 21 (per-chromosome RNG forking).
    WorkloadParams both = tinyWorkload();
    WorkloadParams only22 = tinyWorkload();
    only22.chromosomes = {22};
    GenomeWorkload a = buildWorkload(both);
    GenomeWorkload b = buildWorkload(only22);
    const auto &ca = a.chromosome(22);
    const auto &cb = b.chromosome(22);
    ASSERT_EQ(ca.reads.size(), cb.reads.size());
    for (size_t i = 0; i < ca.reads.size(); ++i)
        ASSERT_EQ(ca.reads[i].bases, cb.reads[i].bases);
}

TEST(Workload, LookupByNumber)
{
    GenomeWorkload wl = buildWorkload(tinyWorkload());
    EXPECT_EQ(wl.chromosome(21).number, 21);
    EXPECT_EQ(wl.chromosome(22).number, 22);
    EXPECT_DEATH(wl.chromosome(5), "not in workload");
}

TEST(Backends, RegistryRoundTrip)
{
    for (const std::string &name : backendNames()) {
        auto backend = makeBackend(name);
        ASSERT_NE(backend, nullptr);
        EXPECT_EQ(backend->name(), name);
        EXPECT_FALSE(backend->description().empty());
    }
}

TEST(Backends, JvmBaselinesPinScalarKernel)
{
    // kJvmWorkAmplification is calibrated against the scalar WHD
    // kernel, so the JVM baselines must model Java's scalar inner
    // loop; only the native backend runs the fastest kernel.
    const std::pair<const char *, WhdKernel> want[] = {
        {"gatk3", WhdKernel::Scalar},
        {"gatk3-1t", WhdKernel::Scalar},
        {"adam", WhdKernel::Scalar},
        {"native", activeWhdKernel()}};
    for (const auto &[name, kernel] : want) {
        auto stage = makeBackend(name)->makeExecuteStage();
        auto *sw = dynamic_cast<SoftwareExecuteStage *>(stage.get());
        ASSERT_NE(sw, nullptr) << name;
        EXPECT_EQ(sw->config().kernel, kernel) << name;
    }
}

TEST(Backends, UnknownNameIsFatal)
{
    EXPECT_DEATH(makeBackend("gatk5"), "unknown realigner backend");
}

TEST(Backends, AllBackendsAgreeOnRealignment)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(tinyWorkload());
    const ChromosomeWorkload &chr = wl.chromosome(22);

    // Reference result from the plain software backend.
    std::vector<Read> want = chr.reads;
    auto ref_backend = makeBackend("gatk3-1t");
    BackendRunResult ref_run = ref_backend->realignContig(
        wl.reference, chr.contig, want);
    ASSERT_GT(ref_run.stats.targets, 0u);

    for (const std::string &name : backendNames()) {
        if (name == "gatk3-1t")
            continue;
        std::vector<Read> reads = chr.reads;
        auto backend = makeBackend(name);
        BackendRunResult run = backend->realignContig(
            wl.reference, chr.contig, reads);
        EXPECT_EQ(run.stats.readsRealigned,
                  ref_run.stats.readsRealigned) << name;
        for (size_t i = 0; i < reads.size(); ++i) {
            ASSERT_EQ(reads[i].pos, want[i].pos)
                << name << " read " << i;
            ASSERT_EQ(reads[i].cigar.toString(),
                      want[i].cigar.toString())
                << name << " read " << i;
        }
        EXPECT_GT(run.seconds, 0.0) << name;
        if (name.rfind("iracc", 0) == 0 || name == "hls")
            EXPECT_TRUE(run.simulated) << name;
        else
            EXPECT_FALSE(run.simulated) << name;
    }
}

TEST(Backends, AcceleratedReportsFpgaMetrics)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(tinyWorkload());
    const ChromosomeWorkload &chr = wl.chromosome(21);
    std::vector<Read> reads = chr.reads;
    auto backend = makeBackend("iracc");
    BackendRunResult run = backend->realignContig(wl.reference,
                                                  chr.contig, reads);
    EXPECT_GT(run.fpgaSeconds, 0.0);
    EXPECT_GE(run.unitUtilization, 0.0);
    EXPECT_LE(run.unitUtilization, 1.0);
    EXPECT_LT(run.dmaFraction, 0.2);
}

} // namespace
} // namespace iracc
