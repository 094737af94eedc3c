/**
 * @file
 * Tests for the weighted-Hamming-distance kernel (Algorithm 1),
 * including the paper's Figure 4 worked example as a golden test
 * and brute-force / pruning equivalence properties.
 */

#include <gtest/gtest.h>

#include "accel/ir_compute.hh"
#include "realign/marshal.hh"
#include "realign/whd.hh"
#include "realign/whd_simd.hh"
#include "util/rng.hh"

namespace iracc {
namespace {

/** Build a bare IrTargetInput from raw consensus/read strings. */
IrTargetInput
makeInput(std::vector<BaseSeq> consensuses,
          std::vector<BaseSeq> read_bases,
          std::vector<QualSeq> read_quals)
{
    IrTargetInput input;
    input.windowStart = 0;
    input.windowEnd = static_cast<int64_t>(consensuses[0].size());
    input.consensuses = std::move(consensuses);
    input.events.resize(input.consensuses.size());
    input.readBases = std::move(read_bases);
    input.readQuals = std::move(read_quals);
    for (uint32_t j = 0; j < input.readBases.size(); ++j)
        input.readIndices.push_back(j);
    return input;
}

/**
 * The paper's Figure 4 example: reference CCTTAGA plus consensuses
 * ACCTGAA and TCTGCCT, reads TGAA (quals 10,20,45,10) and CCTC
 * (quals 10,60,30,20).
 */
IrTargetInput
figure4Input()
{
    return makeInput(
        {"CCTTAGA", "ACCTGAA", "TCTGCCT"},
        {"TGAA", "CCTC"},
        {{10, 20, 45, 10}, {10, 60, 30, 20}});
}

TEST(CalcWhd, Figure4ReferenceRead0)
{
    const BaseSeq cons = "CCTTAGA";
    const BaseSeq read = "TGAA";
    const QualSeq quals = {10, 20, 45, 10};
    // Worked values from Figure 4 (left column).
    EXPECT_EQ(calcWhd(cons, read, quals, 0), 85u);
    EXPECT_EQ(calcWhd(cons, read, quals, 1), 75u);
    EXPECT_EQ(calcWhd(cons, read, quals, 2), 30u);
    EXPECT_EQ(calcWhd(cons, read, quals, 3), 65u);
}

TEST(CalcWhd, Figure4ReferenceRead1)
{
    const BaseSeq cons = "CCTTAGA";
    const BaseSeq read = "CCTC";
    const QualSeq quals = {10, 60, 30, 20};
    // Worked values from Figure 4 (right column).
    EXPECT_EQ(calcWhd(cons, read, quals, 0), 20u);
    EXPECT_EQ(calcWhd(cons, read, quals, 1), 80u);
    EXPECT_EQ(calcWhd(cons, read, quals, 2), 120u);
    EXPECT_EQ(calcWhd(cons, read, quals, 3), 120u);
}

TEST(MinWhd, Figure4Grid)
{
    IrTargetInput input = figure4Input();
    MinWhdGrid grid = minWhd(input, false);

    // Figure 4 step 3: the populated min_whd grid.
    EXPECT_EQ(grid.whd(0, 0), 30u); // REF vs read 0
    EXPECT_EQ(grid.whd(0, 1), 20u); // REF vs read 1
    EXPECT_EQ(grid.whd(1, 0), 0u);  // cons1 vs read 0
    EXPECT_EQ(grid.whd(1, 1), 20u); // cons1 vs read 1
    EXPECT_EQ(grid.whd(2, 0), 55u); // cons2 vs read 0
    EXPECT_EQ(grid.whd(2, 1), 30u); // cons2 vs read 1

    // Read 0 fits consensus 1 perfectly at offset 3 (TGAA).
    EXPECT_EQ(grid.idx(1, 0), 3u);
}

TEST(MinWhd, PruningIsResultIdentical)
{
    Rng rng(42);
    for (int trial = 0; trial < 50; ++trial) {
        // Random target: 1-6 consensuses, 1-12 reads.
        size_t num_cons = 1 + rng.below(6);
        size_t num_reads = 1 + rng.below(12);
        size_t cons_len = 30 + rng.below(100);
        size_t read_len = 5 + rng.below(20);

        std::vector<BaseSeq> cons;
        for (size_t i = 0; i < num_cons; ++i) {
            BaseSeq s;
            for (size_t b = 0; b < cons_len; ++b)
                s.push_back(kConcreteBases[rng.below(4)]);
            cons.push_back(s);
        }
        std::vector<BaseSeq> reads;
        std::vector<QualSeq> quals;
        for (size_t j = 0; j < num_reads; ++j) {
            BaseSeq s;
            QualSeq q;
            for (size_t b = 0; b < read_len; ++b) {
                s.push_back(kConcreteBases[rng.below(4)]);
                q.push_back(static_cast<uint8_t>(rng.range(2, 60)));
            }
            reads.push_back(s);
            quals.push_back(q);
        }

        IrTargetInput input = makeInput(cons, reads, quals);
        WhdStats pruned_stats, full_stats;
        MinWhdGrid pruned = minWhd(input, true, &pruned_stats);
        MinWhdGrid full = minWhd(input, false, &full_stats);
        ASSERT_TRUE(pruned == full) << "trial " << trial;

        // Pruning must never do more comparisons.
        EXPECT_LE(pruned_stats.comparisons, full_stats.comparisons);
        EXPECT_EQ(pruned_stats.comparisonsUnpruned,
                  full_stats.comparisons);
    }
}

TEST(MinWhd, PruningEliminatesMajorityOnRealisticInput)
{
    // Paper Section III-A: pruning removes >50 % of comparisons on
    // realistic inputs (a read matching well at one offset prunes
    // most other offsets quickly).
    Rng rng(7);
    BaseSeq cons;
    for (int b = 0; b < 800; ++b)
        cons.push_back(kConcreteBases[rng.below(4)]);

    std::vector<BaseSeq> reads;
    std::vector<QualSeq> quals;
    for (int j = 0; j < 24; ++j) {
        size_t off = rng.below(800 - 100);
        BaseSeq r = cons.substr(off, 100);
        QualSeq q(100, 30);
        // Sprinkle a couple of errors.
        for (int e = 0; e < 2; ++e)
            r[rng.below(100)] = kConcreteBases[rng.below(4)];
        reads.push_back(r);
        quals.push_back(q);
    }
    IrTargetInput input = makeInput({cons}, reads, quals);
    WhdStats stats;
    minWhd(input, true, &stats);
    EXPECT_GT(stats.prunedFraction(), 0.5);
}

TEST(MinWhd, ReadLongerThanConsensusIsInfeasible)
{
    IrTargetInput input = makeInput(
        {"ACGTACGT", "ACG"}, {"ACGTA"}, {{10, 10, 10, 10, 10}});
    MinWhdGrid grid = minWhd(input, false);
    EXPECT_EQ(grid.whd(0, 0), 0u);
    EXPECT_EQ(grid.whd(1, 0), kWhdInfinity);
}

TEST(MinWhd, FirstMinimalOffsetWins)
{
    // Two zero-distance placements; the smaller k must be recorded.
    IrTargetInput input = makeInput({"ACACAC"}, {"ACAC"},
                                    {{10, 10, 10, 10}});
    MinWhdGrid grid = minWhd(input, true);
    EXPECT_EQ(grid.whd(0, 0), 0u);
    EXPECT_EQ(grid.idx(0, 0), 0u);
}

TEST(CalcWhd, SaturatesAtWhdMaxInsteadOfAliasingInfinity)
{
    // 16,843,009 mismatches at quality 255 sum to exactly
    // 4,294,967,295 == kWhdInfinity: before saturation was added,
    // this legitimately placed read aliased the "never placed"
    // sentinel and silently lost its placement.  The accumulator
    // must stop one short, at kWhdMax.
    const size_t aliasing_len = 16'843'009;
    BaseSeq cons(aliasing_len, 'A');
    BaseSeq read(aliasing_len, 'C');
    QualSeq quals(aliasing_len, 255);
    EXPECT_EQ(calcWhd(cons, read, quals, 0), kWhdMax);

    // One more base would overflow past the sentinel; still kWhdMax.
    cons.push_back('A');
    read.push_back('C');
    quals.push_back(255);
    EXPECT_EQ(calcWhd(cons, read, quals, 0), kWhdMax);
}

TEST(MinWhd, SaturatedPlacementStaysPlaceable)
{
    const size_t aliasing_len = 16'843'009;
    IrTargetInput input = makeInput({BaseSeq(aliasing_len, 'A')},
                                    {BaseSeq(aliasing_len, 'C')},
                                    {QualSeq(aliasing_len, 255)});
    for (bool prune : {false, true}) {
        MinWhdGrid grid = minWhd(input, prune);
        // The read fits (single offset): it was placed, so the grid
        // must record the saturated distance, not the sentinel.
        EXPECT_EQ(grid.whd(0, 0), kWhdMax) << "prune " << prune;
        EXPECT_EQ(grid.idx(0, 0), 0u);
    }
}

TEST(MinWhd, PruneChecksEveryComparisonLikeHardware)
{
    // All-match read on a homopolymer: once offset 0 establishes a
    // perfect minimum, every later offset must abort on its first
    // comparison (whd 0 >= best 0), exactly like the hardware's
    // per-cycle check of the running-minimum register.  The kernel
    // used to test the bound only after a mismatch, so this input
    // never pruned at all.
    IrTargetInput input =
        makeInput({"AAAAAAA"}, {"AAA"}, {{5, 5, 5}});
    WhdStats stats;
    MinWhdGrid grid = minWhd(input, true, &stats);
    EXPECT_EQ(grid.whd(0, 0), 0u);
    EXPECT_EQ(grid.idx(0, 0), 0u);
    // Offset 0: 3 comparisons; offsets 1-4: one comparison each.
    EXPECT_EQ(stats.comparisons, 7u);
    EXPECT_EQ(stats.comparisonsUnpruned, 15u);
    EXPECT_EQ(stats.offsetsEvaluated, 5u);
    EXPECT_EQ(stats.offsetsPruned, 4u);
    EXPECT_LE(stats.comparisons, stats.comparisonsUnpruned);
}

TEST(MinWhd, CountersMatchScalarDatapathBitForBit)
{
    Rng rng(1234);
    for (int trial = 0; trial < 20; ++trial) {
        size_t num_cons = 1 + rng.below(4);
        size_t num_reads = 1 + rng.below(8);
        size_t cons_len = 40 + rng.below(80);

        std::vector<BaseSeq> cons;
        for (size_t i = 0; i < num_cons; ++i) {
            BaseSeq s;
            for (size_t b = 0; b < cons_len; ++b)
                s.push_back(kConcreteBases[rng.below(4)]);
            cons.push_back(s);
        }
        std::vector<BaseSeq> reads;
        std::vector<QualSeq> quals;
        for (size_t j = 0; j < num_reads; ++j) {
            // Mix perfect placements (prune-heavy) with noise.
            size_t len = 8 + rng.below(24);
            size_t off = rng.below(cons_len - len + 1);
            BaseSeq s = cons[rng.below(num_cons)].substr(off, len);
            if (rng.chance(0.3))
                s[rng.below(len)] = kConcreteBases[rng.below(4)];
            QualSeq q;
            for (size_t b = 0; b < len; ++b)
                q.push_back(static_cast<uint8_t>(rng.range(0, 60)));
            reads.push_back(s);
            quals.push_back(q);
        }
        IrTargetInput input = makeInput(cons, reads, quals);
        MarshalledTarget m = marshalTarget(input);

        for (bool prune : {false, true}) {
            WhdStats sw;
            minWhd(input, prune, &sw);
            IrComputeResult hw = irCompute(m, 1, prune);
            EXPECT_EQ(sw.comparisons, hw.whd.comparisons)
                << "trial " << trial << " prune " << prune;
            EXPECT_EQ(sw.comparisonsUnpruned,
                      hw.whd.comparisonsUnpruned);
            EXPECT_EQ(sw.offsetsEvaluated, hw.whd.offsetsEvaluated);
            EXPECT_EQ(sw.offsetsPruned, hw.whd.offsetsPruned);
            EXPECT_LE(sw.comparisons, sw.comparisonsUnpruned);
        }
    }
}

/** Scalar-vs-everything equality of one raw sweep configuration. */
void
expectSweepBitEqual(const uint8_t *cons, size_t m,
                    const uint8_t *read, const uint8_t *qual,
                    size_t n, bool prune, uint32_t chunk,
                    const std::string &where)
{
    const WhdSweepResult want = whdSweep(cons, m, read, qual, n,
                                         prune, chunk,
                                         WhdKernel::Scalar);
    for (WhdKernel kernel : supportedWhdKernels()) {
        const WhdSweepResult got =
            whdSweep(cons, m, read, qual, n, prune, chunk, kernel);
        const std::string ctx =
            where + " kernel=" + whdKernelName(kernel) +
            " prune=" + (prune ? "on" : "off") +
            " chunk=" + std::to_string(chunk);
        EXPECT_EQ(got.best, want.best) << ctx;
        EXPECT_EQ(got.bestK, want.bestK) << ctx;
        EXPECT_EQ(got.comparisons, want.comparisons) << ctx;
        EXPECT_EQ(got.offsetsPruned, want.offsetsPruned) << ctx;
        EXPECT_EQ(got.chunks, want.chunks) << ctx;
    }
}

TEST(DispatchSweep, BitEqualOnLaneBoundaryShapes)
{
    // Offset counts straddle the 16-lane blocks of the AVX2 sweeps
    // (full blocks, scalar tails, tail-only); read lengths straddle
    // the 32-base AVX2 pruned block and the datapath chunk widths
    // (8 and 32).
    const size_t offset_counts[] = {1, 2, 15, 16, 17, 32, 33, 40};
    const size_t read_lens[] = {1, 7, 8, 9, 16, 31, 32, 33, 100};
    Rng rng(0xD15B);
    for (size_t offsets : offset_counts) {
        for (size_t n : read_lens) {
            const size_t m = n + offsets - 1;
            BaseSeq cons;
            for (size_t b = 0; b < m; ++b)
                cons.push_back(kConcreteBases[rng.below(4)]);
            // A read that nearly matches somewhere keeps pruning
            // hot; zero qualities exercise equality crossings.
            BaseSeq read = cons.substr(rng.below(offsets), n);
            if (n > 1 && rng.chance(0.5))
                read[rng.below(n)] = kConcreteBases[rng.below(4)];
            QualSeq qual;
            for (size_t b = 0; b < n; ++b)
                qual.push_back(static_cast<uint8_t>(
                    rng.chance(0.15) ? 0 : rng.range(0, 60)));

            const uint8_t *cp =
                reinterpret_cast<const uint8_t *>(cons.data());
            const uint8_t *rp =
                reinterpret_cast<const uint8_t *>(read.data());
            const std::string where = "offsets=" +
                                      std::to_string(offsets) +
                                      " n=" + std::to_string(n);
            for (bool prune : {false, true})
                for (uint32_t chunk : {1u, 8u, 32u})
                    expectSweepBitEqual(cp, m, rp, qual.data(), n,
                                        prune, chunk, where);
        }
    }
}

/**
 * expectSweepBitEqual() on copies of cons/read/qual in exact-size
 * heap buffers: the AVX2 kernel's 16-byte lane loads and
 * overlapping 32-byte tail windows end exactly at the last byte, so
 * under ASan any read past it fails the test.
 */
void
expectExactBuffersBitEqual(const BaseSeq &cons, const BaseSeq &read,
                           const QualSeq &qual, bool prune,
                           uint32_t chunk, const std::string &where)
{
    const std::vector<uint8_t> c(cons.begin(), cons.end());
    const std::vector<uint8_t> r(read.begin(), read.end());
    const std::vector<uint8_t> q(qual.begin(), qual.end());
    expectSweepBitEqual(c.data(), c.size(), r.data(), q.data(),
                        r.size(), prune, chunk, where);
}

/** A random read that matches @p cons at a random offset, give or
 *  take one base; 15% zero qualities exercise equality crossings. */
void
nearMatchRead(const BaseSeq &cons, size_t n, Rng &rng, BaseSeq &read,
              QualSeq &qual)
{
    read = cons.substr(rng.below(cons.size() - n + 1), n);
    if (rng.chance(0.5))
        read[rng.below(n)] = kConcreteBases[rng.below(4)];
    qual.clear();
    for (size_t b = 0; b < n; ++b)
        qual.push_back(static_cast<uint8_t>(
            rng.chance(0.15) ? 0 : rng.range(0, 60)));
}

BaseSeq
randomBases(size_t len, Rng &rng)
{
    BaseSeq s;
    for (size_t b = 0; b < len; ++b)
        s.push_back(kConcreteBases[rng.below(4)]);
    return s;
}

TEST(DispatchSweep, OffsetLaneEdgesBitEqual)
{
    // Offset counts around the 16-lane block of the pruned sweeps
    // (one short, exact, one over, two blocks plus one) and read
    // lengths around the 32-byte window and the u16 lane limit
    // (n = 257 exceeds kMaxReadLen and takes the per-offset path).
    const size_t offset_counts[] = {15, 16, 17, 33};
    const size_t read_lens[] = {1, 31, 32, 33, 150, 256, 257};
    Rng rng(0x0FF5E7);
    for (size_t offsets : offset_counts) {
        for (size_t n : read_lens) {
            for (int trial = 0; trial < 4; ++trial) {
                const BaseSeq cons = randomBases(n + offsets - 1, rng);
                BaseSeq read;
                QualSeq qual;
                nearMatchRead(cons, n, rng, read, qual);
                const std::string where =
                    "offsets=" + std::to_string(offsets) +
                    " n=" + std::to_string(n) +
                    " trial=" + std::to_string(trial);
                for (bool prune : {false, true})
                    for (uint32_t chunk : {1u, 32u})
                        expectExactBuffersBitEqual(cons, read, qual,
                                                   prune, chunk,
                                                   where);
            }
        }
    }
}

TEST(DispatchSweep, MinimumDropsMidBlockBitEqual)
{
    // An all-'A' read with uniform quality against a consensus with
    // mismatches ('C') at 0, 3 and 15 and a run of them in the
    // middle, 'A' in the mirror positions n..n+15: the WHD drops by
    // one mismatch at offsets 1, 4 and 16 and holds level in
    // between.  Offset 0 runs alone (no minimum yet); the next
    // lane block starts at offset 1, so the running minimum falls
    // at its lanes 0, 3 and 15, every survivor restarts the block
    // mid-way, and the level offsets prune on an exact tie.  From
    // offset 17 on the middle run slides out and the minimum keeps
    // falling.
    const size_t n = 40;
    const size_t offsets = 33;
    BaseSeq cons(n + offsets - 1, 'A');
    for (size_t i : {0, 3, 15})
        cons[i] = 'C';
    for (size_t i = 16; i < 30; ++i)
        cons[i] = 'C';
    const BaseSeq read(n, 'A');
    const QualSeq qual(n, 20);

    auto whdAt = [&](size_t k) {
        return calcWhd(cons, read, qual, k);
    };
    uint32_t best = whdAt(0);
    std::vector<size_t> drops;
    for (size_t k = 1; k <= 16; ++k) {
        if (whdAt(k) < best) {
            best = whdAt(k);
            drops.push_back(k);
        }
    }
    ASSERT_EQ(drops, (std::vector<size_t>{1, 4, 16}));

    for (uint32_t q : {20u, 0u, 7u}) {
        QualSeq quals = qual;
        if (q != 20) // a zero-quality base ties inside a lane too
            quals[n / 2] = static_cast<uint8_t>(q);
        for (uint32_t chunk : {1u, 32u})
            expectExactBuffersBitEqual(cons, read, quals, true, chunk,
                                       "mid-block drops q=" +
                                           std::to_string(q));
    }
}

TEST(DispatchSweep, ZeroMinimumBitEqual)
{
    // Once best == 0 every later offset prunes on its first
    // comparison.  The exact match sits at offset 0 (set by the
    // per-offset path), inside a lane block (a survivor restarts the
    // block with best == 0), and in the last short block.
    Rng rng(0x2E80);
    for (size_t n : {1, 32, 150}) {
        for (size_t match : {0, 3, 20}) {
            BaseSeq cons = randomBases(n + 24, rng);
            const BaseSeq read = cons.substr(match, n);
            QualSeq qual;
            for (size_t b = 0; b < n; ++b)
                qual.push_back(static_cast<uint8_t>(rng.range(1, 60)));
            const std::string where = "n=" + std::to_string(n) +
                                      " match=" +
                                      std::to_string(match);
            const std::vector<uint8_t> c(cons.begin(), cons.end());
            const WhdSweepResult ref = whdSweep(
                c.data(), c.size(),
                reinterpret_cast<const uint8_t *>(read.data()),
                qual.data(), n, true, 1, WhdKernel::Scalar);
            EXPECT_EQ(ref.best, 0u) << where;
            for (uint32_t chunk : {1u, 32u})
                expectExactBuffersBitEqual(cons, read, qual, true,
                                           chunk, where);
        }
    }
}

TEST(DispatchSweep, ChunkWidthTailWindowBitEqual)
{
    // Width-32 datapath chunks: a read shorter than one chunk (no
    // tail window), whole chunks only, and a 22-base last chunk
    // (150 bp) that the vector kernels sum through one overlapping
    // window; width 8 puts short chunks before and after base 32.
    Rng rng(0x7A11);
    for (size_t n : {20, 64, 150}) {
        for (size_t offsets : {1, 16, 40}) {
            for (int trial = 0; trial < 4; ++trial) {
                const BaseSeq cons = randomBases(n + offsets - 1, rng);
                BaseSeq read;
                QualSeq qual;
                nearMatchRead(cons, n, rng, read, qual);
                const std::string where =
                    "n=" + std::to_string(n) +
                    " offsets=" + std::to_string(offsets);
                for (bool prune : {false, true})
                    for (uint32_t chunk : {8u, 32u})
                        expectExactBuffersBitEqual(cons, read, qual,
                                                   prune, chunk,
                                                   where);
            }
        }
    }
}

TEST(DispatchSweep, SaturationNearWhdMaxBitEqual)
{
    // Long enough that max-quality mismatches cross kWhdMax on the
    // final comparison: the saturating fold, the 16-bit/32-bit
    // accumulator spills of the vectorized paths, and the pruned
    // paths' plain-sum crossing detection all get stressed at once.
    // 255 * 16'843'009 = 2^32 - 1 > kWhdMax, one step earlier is
    // still below.
    const size_t n = 16'843'009;
    const size_t offsets = 17; // one full lane block + scalar tail
    const BaseSeq cons(n + offsets - 1, 'A');
    const BaseSeq read(n, 'C');
    const QualSeq qual(n, 255);
    const uint8_t *cp =
        reinterpret_cast<const uint8_t *>(cons.data());
    const uint8_t *rp =
        reinterpret_cast<const uint8_t *>(read.data());

    const WhdSweepResult ref = whdSweep(cp, cons.size(), rp,
                                        qual.data(), n, false, 1,
                                        WhdKernel::Scalar);
    EXPECT_EQ(ref.best, kWhdMax);
    EXPECT_EQ(ref.bestK, 0u);
    for (bool prune : {false, true})
        expectSweepBitEqual(cp, cons.size(), rp, qual.data(), n,
                            prune, 1, "saturation");
}

TEST(DispatchSweep, MinWhdGridAndStatsMatchScalarKernel)
{
    Rng rng(0xFACE);
    for (int trial = 0; trial < 10; ++trial) {
        const size_t num_cons = 1 + rng.below(3);
        const size_t num_reads = 1 + rng.below(6);
        const size_t cons_len = 30 + rng.below(90);
        std::vector<BaseSeq> cons;
        for (size_t i = 0; i < num_cons; ++i) {
            BaseSeq s;
            for (size_t b = 0; b < cons_len; ++b)
                s.push_back(kConcreteBases[rng.below(4)]);
            cons.push_back(s);
        }
        std::vector<BaseSeq> reads;
        std::vector<QualSeq> quals;
        for (size_t j = 0; j < num_reads; ++j) {
            const size_t len = 4 + rng.below(30);
            const size_t off = rng.below(cons_len - len + 1);
            BaseSeq s = cons[rng.below(num_cons)].substr(off, len);
            if (rng.chance(0.4))
                s[rng.below(len)] = kConcreteBases[rng.below(4)];
            QualSeq q;
            for (size_t b = 0; b < len; ++b)
                q.push_back(static_cast<uint8_t>(rng.range(0, 60)));
            reads.push_back(s);
            quals.push_back(q);
        }
        IrTargetInput input = makeInput(cons, reads, quals);
        MarshalledTarget marshalled = marshalTarget(input);

        for (bool prune : {false, true}) {
            WhdStats want_stats;
            const MinWhdGrid want = minWhd(input, prune, &want_stats,
                                           WhdKernel::Scalar);
            std::vector<IrComputeResult> want_hw;
            for (uint32_t width : {1u, 8u, 32u})
                want_hw.push_back(irCompute(marshalled, width, prune,
                                            WhdKernel::Scalar));

            for (WhdKernel kernel : supportedWhdKernels()) {
                WhdStats got_stats;
                const MinWhdGrid got =
                    minWhd(input, prune, &got_stats, kernel);
                EXPECT_TRUE(got == want)
                    << "trial " << trial << " kernel "
                    << whdKernelName(kernel) << " prune " << prune;
                EXPECT_EQ(got_stats.comparisons,
                          want_stats.comparisons);
                EXPECT_EQ(got_stats.comparisonsUnpruned,
                          want_stats.comparisonsUnpruned);
                EXPECT_EQ(got_stats.offsetsEvaluated,
                          want_stats.offsetsEvaluated);
                EXPECT_EQ(got_stats.offsetsPruned,
                          want_stats.offsetsPruned);

                size_t w = 0;
                for (uint32_t width : {1u, 8u, 32u}) {
                    const IrComputeResult hw =
                        irCompute(marshalled, width, prune, kernel);
                    const IrComputeResult &ref = want_hw[w++];
                    EXPECT_EQ(hw.whd.comparisons,
                              ref.whd.comparisons)
                        << "width " << width << " kernel "
                        << whdKernelName(kernel);
                    EXPECT_EQ(hw.whd.offsetsPruned,
                              ref.whd.offsetsPruned);
                    EXPECT_EQ(hw.hdcCycles, ref.hdcCycles);
                    EXPECT_EQ(hw.selectorCycles,
                              ref.selectorCycles);
                    EXPECT_EQ(hw.bestConsensus, ref.bestConsensus);
                    EXPECT_EQ(hw.output.realignFlags,
                              ref.output.realignFlags);
                    EXPECT_EQ(hw.output.newPositions,
                              ref.output.newPositions);
                }
            }
        }
    }
}

TEST(WorstCase, ComplexityFormula)
{
    // Section II-C: C=32, R=256, m=2048, n=250 gives the paper's
    // "astonishing" 3,684,352,000 comparisons for one target.
    uint64_t c = 32, r = 256, m = 2048, n = 250;
    uint64_t comparisons = c * r * (m - n + 1) * n;
    EXPECT_EQ(comparisons, 3'684'352'000ull);
}

} // namespace
} // namespace iracc
