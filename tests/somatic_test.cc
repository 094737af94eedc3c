/**
 * @file
 * Tests for tumor/normal somatic calling: somatic variants pass
 * the normal filter, germline variants are rejected, and the
 * end-to-end workload produces a usable matched normal.
 */

#include <gtest/gtest.h>

#include "core/realigner_api.hh"
#include "core/workload.hh"
#include "util/logging.hh"
#include "variant/somatic.hh"

namespace iracc {
namespace {

Read
readAt(int64_t pos, BaseSeq bases, const std::string &cigar,
       uint8_t qual = 30)
{
    Read r;
    static int counter = 0;
    r.name = "s" + std::to_string(counter++);
    r.cigar = Cigar::fromString(cigar);
    r.bases = std::move(bases);
    r.quals.assign(r.bases.size(), qual);
    r.pos = pos;
    return r;
}

struct Toy
{
    ReferenceGenome ref;
    std::vector<Read> tumor;
    std::vector<Read> normal;

    Toy()
    {
        ref.addContig("c", BaseSeq(200, 'A'));
        // Clean normal coverage everywhere.
        for (int i = 0; i < 20; ++i)
            normal.push_back(readAt(90, BaseSeq(20, 'A'), "20M"));
    }
};

TEST(SomaticCaller, AcceptsTumorOnlyVariant)
{
    Toy toy;
    for (int i = 0; i < 20; ++i) {
        Read r = readAt(90, BaseSeq(20, 'A'), "20M");
        if (i < 8)
            r.bases[10] = 'G'; // somatic SNV at 100, AF 0.4
        toy.tumor.push_back(r);
    }
    auto calls = callSomaticVariants(toy.ref, toy.tumor, toy.normal,
                                     0, 0, 200);
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0].variant.pos, 100);
    EXPECT_EQ(calls[0].variant.altBase, 'G');
    EXPECT_GT(calls[0].normalLod, 2.3);
    EXPECT_EQ(calls[0].normalAltFraction, 0.0);
}

TEST(SomaticCaller, RejectsGermlineVariant)
{
    Toy toy;
    // Heterozygous germline SNV: in both samples at ~50 %.
    for (int i = 0; i < 20; ++i) {
        Read t = readAt(90, BaseSeq(20, 'A'), "20M");
        if (i % 2)
            t.bases[10] = 'G';
        toy.tumor.push_back(t);
    }
    for (int i = 0; i < 20; ++i) {
        if (i % 2)
            toy.normal[static_cast<size_t>(i)].bases[10] = 'G';
    }
    auto calls = callSomaticVariants(toy.ref, toy.tumor, toy.normal,
                                     0, 0, 200);
    EXPECT_TRUE(calls.empty());
}

TEST(SomaticCaller, RejectsWhenNormalHasNoCoverage)
{
    Toy toy;
    toy.normal.clear(); // no normal evidence at all
    for (int i = 0; i < 20; ++i) {
        Read r = readAt(90, BaseSeq(20, 'A'), "20M");
        if (i < 10)
            r.bases[10] = 'G';
        toy.tumor.push_back(r);
    }
    auto calls = callSomaticVariants(toy.ref, toy.tumor, toy.normal,
                                     0, 0, 200);
    // Somatic status cannot be established without normal depth.
    EXPECT_TRUE(calls.empty());
}

TEST(SomaticCaller, SomaticIndelPassesGermlineIndelFiltered)
{
    Toy toy;
    // Somatic deletion: tumor-only.
    for (int i = 0; i < 20; ++i) {
        if (i < 10)
            toy.tumor.push_back(
                readAt(90, BaseSeq(18, 'A'), "10M2D8M"));
        else
            toy.tumor.push_back(readAt(90, BaseSeq(20, 'A'), "20M"));
    }
    auto somatic = callSomaticVariants(toy.ref, toy.tumor,
                                       toy.normal, 0, 0, 200);
    bool found = false;
    for (const auto &c : somatic)
        found |= c.variant.type == VariantType::Deletion;
    EXPECT_TRUE(found);

    // Same indel also present in the normal: filtered.
    for (int i = 0; i < 10; ++i)
        toy.normal.push_back(readAt(90, BaseSeq(18, 'A'),
                                    "10M2D8M"));
    auto filtered = callSomaticVariants(toy.ref, toy.tumor,
                                        toy.normal, 0, 0, 200);
    bool still = false;
    for (const auto &c : filtered)
        still |= c.variant.type == VariantType::Deletion;
    EXPECT_FALSE(still);
}

TEST(SomaticWorkload, MatchedNormalLacksSomaticEvents)
{
    setQuiet(true);
    WorkloadParams params;
    params.chromosomes = {22};
    params.scaleDivisor = 10000;
    params.minContigLength = 30000;
    params.coverage = 20.0;
    params.normalCoverage = 20.0;
    params.variants.somaticFraction = 0.5;
    GenomeWorkload wl = buildWorkload(params);
    const ChromosomeWorkload &chr = wl.chromosome(22);
    ASSERT_FALSE(chr.normalReads.empty());

    int64_t somatic_truth = 0;
    for (const auto &v : chr.truth)
        somatic_truth += v.isSomatic ? 1 : 0;
    ASSERT_GT(somatic_truth, 0);

    // Normal reads never carry a somatic indel: every indel in a
    // normal read's CIGAR must match a germline truth event.
    for (const Read &r : chr.normalReads) {
        if (!r.cigar.hasIndel())
            continue;
        // Find a germline indel within shift distance.
        int64_t ref_pos = r.pos;
        bool ok = false;
        for (const auto &v : chr.truth) {
            if (!v.isIndel() || v.isSomatic)
                continue;
            if (v.pos >= ref_pos - 16 &&
                v.pos <= r.endPos() + 16) {
                ok = true;
                break;
            }
        }
        EXPECT_TRUE(ok) << "normal read " << r.name
                        << " carries a non-germline indel";
    }
}

TEST(SomaticEndToEnd, RealignmentImprovesSomaticIndelRecall)
{
    setQuiet(true);
    WorkloadParams params;
    params.chromosomes = {19};
    params.scaleDivisor = 2000;
    params.minContigLength = 30000;
    params.coverage = 35.0;
    params.normalCoverage = 25.0;
    params.variants.somaticFraction = 0.5;
    GenomeWorkload wl = buildWorkload(params);
    const ChromosomeWorkload &chr = wl.chromosome(19);
    int64_t len = wl.reference.contig(chr.contig).length();

    SomaticCallerParams sp;
    sp.tumor.minIndelFraction = 0.2;

    auto before = callSomaticVariants(wl.reference, chr.reads,
                                      chr.normalReads, chr.contig,
                                      0, len, sp);
    CallAccuracy acc_before = scoreSomaticCalls(before, chr.truth,
                                                true);

    // Realign both samples (as the refinement pipeline would).
    std::vector<Read> tumor = chr.reads;
    std::vector<Read> normal = chr.normalReads;
    SoftwareRealignerConfig cfg;
    cfg.prune = true;
    makeSoftwareBackend("sw", "", cfg)
        ->realignContig(wl.reference, chr.contig, tumor);
    makeSoftwareBackend("sw", "", cfg)
        ->realignContig(wl.reference, chr.contig, normal);
    auto after = callSomaticVariants(wl.reference, tumor, normal,
                                     chr.contig, 0, len, sp);
    CallAccuracy acc_after = scoreSomaticCalls(after, chr.truth,
                                               true);

    EXPECT_GE(acc_after.recall(), acc_before.recall());
    EXPECT_GT(acc_after.truePositives, 0u);
}

} // namespace
} // namespace iracc
