/**
 * @file
 * Tests for the software realigner end-to-end: offset-to-alignment
 * mapping, decision application, thread-count invariance, and the
 * headline behavioral property -- realignment moves misaligned
 * indel reads back to a consistent representation.
 */

#include <gtest/gtest.h>

#include "core/realigner_api.hh"
#include "core/workload.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

/** Input with one insertion consensus (3 bases after anchor). */
IrTargetInput
insertionInput()
{
    IrTargetInput input;
    input.windowStart = 1000;
    input.windowEnd = 1040;
    BaseSeq ref = "AAAACCCCGGGGTTTTAAAACCCCGGGGTTTTAAAACCCC";
    input.consensuses.push_back(ref);
    IndelEvent ev;
    ev.anchor = 1015; // window-relative 15
    ev.isInsertion = true;
    ev.insertedBases = "CAT";
    input.events.push_back(IndelEvent{});
    BaseSeq cons = ref.substr(0, 16) + "CAT" + ref.substr(16);
    input.consensuses.push_back(cons);
    input.events.push_back(ev);
    return input;
}

TEST(MapOffset, ReferenceConsensusIsPureMatch)
{
    IrTargetInput input = insertionInput();
    int64_t pos;
    Cigar cigar;
    mapOffsetToAlignment(input, 0, 7, 10, pos, cigar);
    EXPECT_EQ(pos, 1007);
    EXPECT_EQ(cigar.toString(), "10M");
}

TEST(MapOffset, InsertionBefore)
{
    IrTargetInput input = insertionInput();
    int64_t pos;
    Cigar cigar;
    // Read [2, 12) on the consensus ends at the anchor (15).
    mapOffsetToAlignment(input, 1, 2, 10, pos, cigar);
    EXPECT_EQ(pos, 1002);
    EXPECT_EQ(cigar.toString(), "10M");
}

TEST(MapOffset, InsertionAfter)
{
    IrTargetInput input = insertionInput();
    int64_t pos;
    Cigar cigar;
    // Consensus offset 25 is past the 3-base insertion at 16-18.
    mapOffsetToAlignment(input, 1, 25, 10, pos, cigar);
    EXPECT_EQ(pos, 1022); // 25 - 3 inserted bases
    EXPECT_EQ(cigar.toString(), "10M");
}

TEST(MapOffset, InsertionSpanning)
{
    IrTargetInput input = insertionInput();
    int64_t pos;
    Cigar cigar;
    // Read [10, 22) spans anchor 15 and all 3 inserted bases.
    mapOffsetToAlignment(input, 1, 10, 12, pos, cigar);
    EXPECT_EQ(pos, 1010);
    EXPECT_EQ(cigar.toString(), "6M3I3M");
}

TEST(MapOffset, InsertionStartsInside)
{
    IrTargetInput input = insertionInput();
    int64_t pos;
    Cigar cigar;
    // Read starts at consensus 17, the middle of the insertion.
    mapOffsetToAlignment(input, 1, 17, 10, pos, cigar);
    EXPECT_EQ(pos, 1016);
    EXPECT_EQ(cigar.toString(), "2S8M");
}

/** Input with one deletion consensus (4 bases after anchor). */
IrTargetInput
deletionInput()
{
    IrTargetInput input;
    input.windowStart = 1000;
    input.windowEnd = 1040;
    BaseSeq ref = "AAAACCCCGGGGTTTTAAAACCCCGGGGTTTTAAAACCCC";
    input.consensuses.push_back(ref);
    IndelEvent ev;
    ev.anchor = 1015;
    ev.isInsertion = false;
    ev.delLength = 4;
    input.events.push_back(IndelEvent{});
    BaseSeq cons = ref.substr(0, 16) + ref.substr(20);
    input.consensuses.push_back(cons);
    input.events.push_back(ev);
    return input;
}

TEST(MapOffset, DeletionSpanning)
{
    IrTargetInput input = deletionInput();
    int64_t pos;
    Cigar cigar;
    // Read [12, 22) on consensus spans the deletion point 15.
    mapOffsetToAlignment(input, 1, 12, 10, pos, cigar);
    EXPECT_EQ(pos, 1012);
    EXPECT_EQ(cigar.toString(), "4M4D6M");
}

TEST(MapOffset, DeletionAfter)
{
    IrTargetInput input = deletionInput();
    int64_t pos;
    Cigar cigar;
    mapOffsetToAlignment(input, 1, 20, 10, pos, cigar);
    EXPECT_EQ(pos, 1024); // shifted right by the 4 deleted bases
    EXPECT_EQ(cigar.toString(), "10M");
}

WorkloadParams
testWorkload()
{
    WorkloadParams params;
    params.chromosomes = {22};
    params.scaleDivisor = 8000;
    params.minContigLength = 40000;
    params.coverage = 25.0;
    params.variants.insRate = 4e-4;
    params.variants.delRate = 4e-4;
    return params;
}

TEST(SoftwareRealigner, MovesMisalignedReadsToTruth)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(testWorkload());
    const ChromosomeWorkload &chr = wl.chromosomes[0];
    std::vector<Read> reads = chr.reads;

    // Count indel-spanning reads whose position is wrong before.
    auto wrong_count = [](const std::vector<Read> &rs) {
        int64_t wrong = 0;
        for (const Read &r : rs)
            wrong += (r.truePos >= 0 && r.pos != r.truePos) ? 1 : 0;
        return wrong;
    };
    (void)wrong_count;

    SoftwareRealignerConfig cfg;
    cfg.prune = true;
    RealignStats stats = makeSoftwareBackend("sw", "", cfg)
                             ->realignContig(wl.reference,
                                             chr.contig, reads)
                             .stats;

    ASSERT_GT(stats.targets, 5u);
    EXPECT_GT(stats.readsRealigned, 0u);
    EXPECT_GT(stats.readsConsidered, stats.readsRealigned);

    // Among realigned reads, positions must now be consistent with
    // the sampled truth far more often than not: realignment picks
    // the consensus representation, which matches truePos for
    // correctly-modelled indels.
    int64_t realigned_correct = 0, realigned_total = 0;
    for (size_t i = 0; i < reads.size(); ++i) {
        const Read &before = chr.reads[i];
        const Read &after = reads[i];
        if (before.pos == after.pos &&
            before.cigar == after.cigar) {
            continue; // untouched
        }
        ++realigned_total;
        if (after.pos == after.truePos)
            ++realigned_correct;
    }
    ASSERT_GT(realigned_total, 0);
    EXPECT_GT(static_cast<double>(realigned_correct) /
                  static_cast<double>(realigned_total),
              0.6);
}

TEST(SoftwareRealigner, ThreadCountInvariant)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(testWorkload());
    const ChromosomeWorkload &chr = wl.chromosomes[0];

    std::vector<Read> serial = chr.reads;
    std::vector<Read> parallel = chr.reads;

    SoftwareRealignerConfig cfg1;
    cfg1.threads = 1;
    SoftwareRealignerConfig cfg8;
    cfg8.threads = 8;

    RealignStats s1 = makeSoftwareBackend("sw1", "", cfg1)
                          ->realignContig(wl.reference, chr.contig,
                                          serial)
                          .stats;
    RealignStats s8 = makeSoftwareBackend("sw8", "", cfg8)
                          ->realignContig(wl.reference, chr.contig,
                                          parallel)
                          .stats;

    EXPECT_EQ(s1.targets, s8.targets);
    EXPECT_EQ(s1.readsRealigned, s8.readsRealigned);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_EQ(serial[i].pos, parallel[i].pos);
        ASSERT_EQ(serial[i].cigar.toString(),
                  parallel[i].cigar.toString());
    }
}

TEST(SoftwareRealigner, PruningDoesNotChangeResults)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(testWorkload());
    const ChromosomeWorkload &chr = wl.chromosomes[0];

    std::vector<Read> no_prune = chr.reads;
    std::vector<Read> pruned = chr.reads;

    SoftwareRealignerConfig a;
    a.prune = false;
    SoftwareRealignerConfig b;
    b.prune = true;

    RealignStats sa = makeSoftwareBackend("a", "", a)
                          ->realignContig(wl.reference, chr.contig,
                                          no_prune)
                          .stats;
    RealignStats sb = makeSoftwareBackend("b", "", b)
                          ->realignContig(wl.reference, chr.contig,
                                          pruned)
                          .stats;

    EXPECT_EQ(sa.readsRealigned, sb.readsRealigned);
    for (size_t i = 0; i < no_prune.size(); ++i)
        ASSERT_EQ(no_prune[i].pos, pruned[i].pos);
    // Pruning saves work (paper: >50 % on their input).
    EXPECT_LT(sb.whd.comparisons, sa.whd.comparisons);
    EXPECT_GT(sb.whd.prunedFraction(), 0.3);
}

TEST(SoftwareRealigner, PlanClaimsEachReadOnce)
{
    setQuiet(true);
    GenomeWorkload wl = buildWorkload(testWorkload());
    const ChromosomeWorkload &chr = wl.chromosomes[0];
    ContigPlan plan = planStage(wl.reference, chr.contig, chr.reads);
    std::vector<int> claims(chr.reads.size(), 0);
    for (const auto &list : plan.readsPerTarget)
        for (uint32_t i : list)
            ++claims[i];
    for (int c : claims)
        ASSERT_LE(c, 1);
}

} // namespace
} // namespace iracc
