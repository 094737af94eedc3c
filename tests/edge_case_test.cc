/**
 * @file
 * Edge-case tests across modules: boundary sizes, degenerate
 * inputs, ambiguous bases, and limit conditions the main suites
 * don't reach.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "accel/ir_compute.hh"
#include "core/realigner_api.hh"
#include "genomics/io.hh"
#include "realign/limits.hh"
#include "realign/realigner.hh"
#include "realign/whd.hh"
#include "util/rng.hh"
#include "variant/pileup.hh"

namespace iracc {
namespace {

// ----- WHD kernel boundaries ---------------------------------------

TEST(WhdEdge, ReadEqualsConsensusLength)
{
    IrTargetInput input;
    input.windowStart = 0;
    input.windowEnd = 4;
    input.consensuses = {"ACGT"};
    input.events.resize(1);
    input.readBases = {"ACGA"};
    input.readQuals = {{10, 10, 10, 7}};
    input.readIndices = {0};
    MinWhdGrid grid = minWhd(input, true);
    EXPECT_EQ(grid.whd(0, 0), 7u); // single offset, one mismatch
    EXPECT_EQ(grid.idx(0, 0), 0u);
}

TEST(WhdEdge, SingleBaseRead)
{
    IrTargetInput input;
    input.windowStart = 0;
    input.windowEnd = 5;
    input.consensuses = {"AAAAC"};
    input.events.resize(1);
    input.readBases = {"C"};
    input.readQuals = {{42}};
    input.readIndices = {0};
    MinWhdGrid grid = minWhd(input, false);
    EXPECT_EQ(grid.whd(0, 0), 0u);
    EXPECT_EQ(grid.idx(0, 0), 4u); // only the last offset matches
}

TEST(WhdEdge, AllQualityZeroMeansAllOffsetsTie)
{
    IrTargetInput input;
    input.windowStart = 0;
    input.windowEnd = 8;
    input.consensuses = {"ACGTACGT"};
    input.events.resize(1);
    input.readBases = {"TTTT"};
    input.readQuals = {{0, 0, 0, 0}};
    input.readIndices = {0};
    MinWhdGrid grid = minWhd(input, true);
    // Zero weights: every offset scores 0; first one wins.
    EXPECT_EQ(grid.whd(0, 0), 0u);
    EXPECT_EQ(grid.idx(0, 0), 0u);
}

TEST(WhdEdge, NBasesAlwaysMismatchConcrete)
{
    // 'N' differs from every concrete base byte-wise, so it adds
    // its quality wherever it lands -- the hardware's byte
    // comparator semantics.
    BaseSeq cons = "AAAA";
    EXPECT_EQ(calcWhd(cons, "NA", {9, 9}, 0), 9u);
    EXPECT_EQ(calcWhd(cons, "NN", {9, 9}, 0), 18u);
}

// ----- Marshalling boundaries --------------------------------------

TEST(MarshalEdge, SingleReadSingleConsensus)
{
    IrTargetInput input;
    input.windowStart = 77;
    input.windowEnd = 77 + 10;
    input.consensuses = {"ACGTACGTAC"};
    input.events.resize(1);
    input.readBases = {"GTAC"};
    input.readQuals = {{1, 2, 3, 4}};
    input.readIndices = {0};
    MarshalledTarget m = marshalTarget(input);
    EXPECT_EQ(m.numConsensuses, 1u);
    EXPECT_EQ(m.numReads, 1u);
    EXPECT_EQ(m.readAt(0), "GTAC");
    EXPECT_EQ(m.qualsAt(0), (QualSeq{1, 2, 3, 4}));

    IrComputeResult res = irCompute(m, 32, true);
    EXPECT_EQ(res.bestConsensus, 0u);
    EXPECT_EQ(res.output.realignFlags, (std::vector<uint8_t>{0}));
}

TEST(MarshalEdge, MaxLengthReadFillsSlotExactly)
{
    Rng rng(3);
    IrTargetInput input;
    input.windowStart = 0;
    input.windowEnd = kMaxConsensusLen;
    BaseSeq cons;
    for (uint32_t i = 0; i < kMaxConsensusLen; ++i)
        cons.push_back(kConcreteBases[rng.below(4)]);
    input.consensuses = {cons};
    input.events.resize(1);
    input.readBases = {cons.substr(100, kMaxReadLen)};
    input.readQuals = {QualSeq(kMaxReadLen, 30)};
    input.readIndices = {0};
    MarshalledTarget m = marshalTarget(input);
    EXPECT_EQ(m.readAt(0).size(), kMaxReadLen);

    IrComputeResult res = irCompute(m, 32, true);
    MinWhdGrid grid = minWhd(input, false);
    EXPECT_EQ(grid.whd(0, 0), 0u);
    EXPECT_EQ(grid.idx(0, 0), 100u);
    (void)res;
}

// ----- Degenerate targets ------------------------------------------
//
// Zero reads, zero consensuses, or every read longer than every
// consensus: each must be an identical no-op in the software kernel
// and in the accelerator datapath model at every width and pruning
// setting, or be rejected at the clean marshalling boundary.

/** Run one input through scoreAndSelect and every datapath config,
 *  asserting every backend agrees on (bestConsensus, realign set). */
void
expectAllBackendsAgree(const IrTargetInput &input,
                       uint32_t want_best, uint32_t want_realigned)
{
    MinWhdGrid grid = minWhd(input, false);
    ConsensusDecision sw = scoreAndSelect(grid);
    EXPECT_EQ(sw.bestConsensus, want_best);
    EXPECT_EQ(sw.numRealigned(), want_realigned);

    ASSERT_TRUE(input.limitViolation().empty());
    MarshalledTarget m = marshalTarget(input);
    for (uint32_t width : {1u, 32u}) {
        for (bool prune : {false, true}) {
            IrComputeResult hw = irCompute(m, width, prune);
            EXPECT_EQ(hw.bestConsensus, sw.bestConsensus)
                << "width " << width << " prune " << prune;
            ASSERT_EQ(hw.output.realignFlags.size(),
                      input.numReads());
            for (size_t j = 0; j < input.numReads(); ++j) {
                EXPECT_EQ(hw.output.realignFlags[j] != 0,
                          sw.realign[j] != 0)
                    << "read " << j;
            }
        }
    }
}

TEST(DegenerateTarget, ZeroReadsIsANoOpInEveryBackend)
{
    Rng rng(21);
    IrTargetInput input;
    input.windowStart = 500;
    input.windowEnd = 580;
    for (int i = 0; i < 3; ++i) {
        BaseSeq s;
        for (int b = 0; b < 80; ++b)
            s.push_back(kConcreteBases[rng.below(4)]);
        input.consensuses.push_back(s);
    }
    input.events.resize(3);
    expectAllBackendsAgree(input, 0, 0);
}

TEST(DegenerateTarget, AllReadsLongerThanEveryConsensusIsANoOp)
{
    Rng rng(22);
    IrTargetInput input;
    input.windowStart = 0;
    input.windowEnd = 40;
    for (size_t len : {size_t{40}, size_t{32}}) {
        BaseSeq s;
        for (size_t b = 0; b < len; ++b)
            s.push_back(kConcreteBases[rng.below(4)]);
        input.consensuses.push_back(s);
    }
    input.events.resize(2);
    for (int j = 0; j < 4; ++j) {
        size_t len = 41 + rng.below(40);
        BaseSeq s;
        for (size_t b = 0; b < len; ++b)
            s.push_back(kConcreteBases[rng.below(4)]);
        input.readBases.push_back(s);
        input.readQuals.push_back(QualSeq(len, 30));
        input.readIndices.push_back(static_cast<uint32_t>(j));
    }
    // No feasible placement exists anywhere: picking consensus 1
    // (whose score is vacuously 0) used to realign nothing yet
    // report an alternative; the decision must be bestConsensus 0.
    expectAllBackendsAgree(input, 0, 0);
}

TEST(DegenerateTarget, InfeasibleConsensusCannotWin)
{
    Rng rng(23);
    BaseSeq ref;
    for (int b = 0; b < 100; ++b)
        ref.push_back(kConcreteBases[rng.below(4)]);
    BaseSeq alt = ref;
    alt[50] = alt[50] == 'A' ? 'C' : 'A';

    IrTargetInput input;
    input.windowStart = 0;
    input.windowEnd = 100;
    input.consensuses = {ref, ref.substr(0, 20), alt};
    input.events.resize(3);
    // Reads sampled from the genuine alternative, spanning the SNP;
    // all longer than the 20-base degenerate consensus 1.
    for (int j = 0; j < 5; ++j) {
        size_t off = 30 + rng.below(15);
        size_t len = 30 + rng.below(10);
        input.readBases.push_back(alt.substr(off, len));
        input.readQuals.push_back(QualSeq(len, 40));
        input.readIndices.push_back(static_cast<uint32_t>(j));
    }
    // Consensus 1 has no feasible placement; its vacuous zero score
    // must not beat consensus 2, which genuinely fits the reads.
    expectAllBackendsAgree(input, 2, 5);
}

TEST(DegenerateTarget, ZeroConsensusesRejectedCleanly)
{
    IrTargetInput input;
    input.windowStart = 0;
    input.windowEnd = 0;
    input.readBases = {"ACGT"};
    input.readQuals = {{30, 30, 30, 30}};
    input.readIndices = {0};
    EXPECT_NE(input.limitViolation().find("no consensuses"),
              std::string::npos);
    EXPECT_DEATH(marshalTarget(input), "no consensuses");
}

// ----- Target assembly degeneracies --------------------------------

TEST(TargetEdge, TargetAtContigStartAndEnd)
{
    Rng rng(5);
    ReferenceGenome ref;
    ref.addContig("c", ReferenceGenome::randomSequence(3000, rng));
    std::vector<Read> reads;
    // Indel evidence near position 0 and near the end.
    for (int64_t pos : {int64_t{2}, int64_t{2870}}) {
        Read r;
        r.name = "e" + std::to_string(pos);
        r.pos = pos;
        r.cigar = Cigar::fromString("20M2D30M");
        r.bases = BaseSeq(50, 'A');
        r.quals.assign(50, 30);
        reads.push_back(r);
    }
    auto targets = createTargets(reads, 0, 3000, {});
    ASSERT_EQ(targets.size(), 2u);
    EXPECT_GE(targets.front().start, 0);
    EXPECT_LE(targets.back().end, 3000);

    for (const auto &t : targets) {
        auto idx = assignReads(reads, t);
        if (idx.empty())
            continue;
        IrTargetInput input = buildTargetInput(ref, reads, t, idx);
        input.assertWithinLimits();
        EXPECT_GE(input.windowStart, 0);
        EXPECT_LE(input.windowEnd, 3000);
    }
}

TEST(TargetEdge, EmptyAssignmentYieldsNoWork)
{
    std::vector<Read> reads;
    IrTarget t{0, 100, 200};
    EXPECT_TRUE(assignReads(reads, t).empty());
}

// ----- Pileup / IO degeneracies ------------------------------------

TEST(PileupEdge, EmptyIntervalAndEmptyReads)
{
    auto cols = buildPileup({}, 0, 50, 50);
    EXPECT_TRUE(cols.empty());
    auto cols2 = buildPileup({}, 0, 0, 10);
    EXPECT_EQ(cols2.size(), 10u);
    for (const auto &c : cols2)
        EXPECT_EQ(c.depth, 0u);
}

TEST(PileupEdge, NBasesAreSkipped)
{
    Read r;
    r.name = "n";
    r.bases = "ANA";
    r.quals = {30, 30, 30};
    r.pos = 10;
    r.cigar = Cigar::simpleMatch(3);
    auto cols = buildPileup({r}, 0, 10, 13);
    EXPECT_EQ(cols[0].depth, 1u);
    EXPECT_EQ(cols[1].depth, 0u); // N excluded
    EXPECT_EQ(cols[2].depth, 1u);
}

TEST(IoEdge, FastaSkipsBlankLinesAndCRLFisRejectedGracefully)
{
    std::stringstream ss(">a\n\nACGT\n\n>b\nTT\n");
    ReferenceGenome ref = readFasta(ss);
    ASSERT_EQ(ref.numContigs(), 2u);
    EXPECT_EQ(ref.contig(0).seq, "ACGT");
    EXPECT_EQ(ref.contig(1).seq, "TT");
}

TEST(IoEdge, SamLiteSkipsComments)
{
    ReferenceGenome ref;
    ref.addContig("c", BaseSeq(100, 'A'));
    std::stringstream ss("# header comment\n"
                         "r1\tc\t11\t60\t4M\t0\tACGT\tIIII\n");
    auto reads = readSamLite(ss, ref);
    ASSERT_EQ(reads.size(), 1u);
    EXPECT_EQ(reads[0].pos, 10);
}

// ----- Realigner degeneracies --------------------------------------

TEST(RealignerEdge, ContigWithoutIndelsIsANoOp)
{
    Rng rng(9);
    ReferenceGenome ref;
    ref.addContig("c", ReferenceGenome::randomSequence(5000, rng));
    std::vector<Read> reads;
    for (int i = 0; i < 50; ++i) {
        Read r;
        r.name = "r" + std::to_string(i);
        int64_t pos = static_cast<int64_t>(rng.below(4900));
        r.pos = pos;
        r.bases = ref.slice(0, pos, pos + 60);
        r.quals.assign(r.bases.size(), 30);
        r.cigar = Cigar::simpleMatch(
            static_cast<uint32_t>(r.bases.size()));
        reads.push_back(r);
    }
    auto before = reads;
    RealignStats stats =
        makeSoftwareBackend("sw", "", SoftwareRealignerConfig{})
            ->realignContig(ref, 0, reads)
            .stats;
    EXPECT_EQ(stats.targets, 0u);
    EXPECT_EQ(stats.readsRealigned, 0u);
    for (size_t i = 0; i < reads.size(); ++i)
        EXPECT_EQ(reads[i].pos, before[i].pos);
}

} // namespace
} // namespace iracc
