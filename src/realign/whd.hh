/**
 * @file
 * Weighted-Hamming-distance kernel -- paper Algorithm 1.
 *
 * For every (consensus i, read j) pair, the read slides along the
 * consensus over offsets k in [0, m - n] (m = consensus length,
 * n = read length).  At each offset the weighted Hamming distance is
 * the sum of the read's quality scores at mismatching bases.  The
 * minimum over all offsets, and the offset at which it first
 * occurred, are recorded in an (i, j) grid.
 *
 * Computation pruning (paper Section III-A) optionally abandons an
 * offset as soon as its running sum reaches the current minimum;
 * this is results-identical (verified by property tests) and
 * eliminates >50 % of base comparisons on realistic inputs.
 *
 * The per-pair offset sweep itself runs through the runtime-dispatch
 * layer in realign/whd_simd.hh (scalar reference, portable generic
 * lanes, AVX2) -- every implementation produces bit-identical grids
 * and WhdStats.
 */

#ifndef IRACC_REALIGN_WHD_HH
#define IRACC_REALIGN_WHD_HH

#include <cstdint>
#include <limits>
#include <vector>

#include "realign/consensus.hh"
#include "realign/whd_simd.hh"

namespace iracc {

/** Sentinel for an uncomputed / infeasible grid entry. */
constexpr uint32_t kWhdInfinity =
    std::numeric_limits<uint32_t>::max();

/**
 * Largest representable weighted distance of a *placed* read.
 * Quality accumulation saturates here so that a legitimately
 * placeable read with an extreme weighted distance can never alias
 * the kWhdInfinity "never placed" sentinel and silently lose its
 * placement (both the software kernel and the accelerator's
 * datapath model saturate identically).
 */
constexpr uint32_t kWhdMax = kWhdInfinity - 1;

/** Saturating quality accumulation (see kWhdMax). */
inline uint32_t
whdAccumulate(uint32_t whd, uint8_t qual)
{
    uint64_t sum = static_cast<uint64_t>(whd) + qual;
    return sum > kWhdMax ? kWhdMax : static_cast<uint32_t>(sum);
}

/**
 * Work counters for the kernel (drive the ablation benches).
 *
 * Counter semantics are shared bit-for-bit between the software
 * kernel and the accelerator datapath model at scalar width: a
 * comparison counts when it executes, including the base (or
 * block-RAM row) whose running sum triggers a pruning abort, and
 * never beyond -- `comparisons <= comparisonsUnpruned` is an
 * invariant (asserted by whd_test and perf_monitor_test).
 */
struct WhdStats
{
    /** Base comparisons actually executed. */
    uint64_t comparisons = 0;

    /** Base comparisons a non-pruning implementation would do. */
    uint64_t comparisonsUnpruned = 0;

    /** (i, j, k) offset evaluations started. */
    uint64_t offsetsEvaluated = 0;

    /** Offsets abandoned early by pruning. */
    uint64_t offsetsPruned = 0;

    void
    merge(const WhdStats &o)
    {
        comparisons += o.comparisons;
        comparisonsUnpruned += o.comparisonsUnpruned;
        offsetsEvaluated += o.offsetsEvaluated;
        offsetsPruned += o.offsetsPruned;
    }

    /** Fraction of comparisons eliminated by pruning. */
    double
    prunedFraction() const
    {
        if (comparisonsUnpruned == 0)
            return 0.0;
        return 1.0 - static_cast<double>(comparisons) /
                     static_cast<double>(comparisonsUnpruned);
    }
};

/**
 * The (consensus x read) minimum-WHD grid produced by Algorithm 1
 * and consumed by Algorithm 2.
 */
class MinWhdGrid
{
  public:
    MinWhdGrid(size_t num_cons, size_t num_reads);

    /**
     * Re-shape and re-initialize (all entries back to kWhdInfinity)
     * without giving up the backing allocation -- lets hot loops
     * (work-amplification reruns, per-target scratch) reuse one
     * grid.
     */
    void reset(size_t num_cons, size_t num_reads);

    uint32_t whd(size_t i, size_t j) const { return vals[at(i, j)]; }
    uint32_t idx(size_t i, size_t j) const { return idxs[at(i, j)]; }

    void
    set(size_t i, size_t j, uint32_t whd, uint32_t k)
    {
        vals[at(i, j)] = whd;
        idxs[at(i, j)] = k;
    }

    size_t numConsensuses() const { return cons; }
    size_t numReads() const { return reads; }

    bool operator==(const MinWhdGrid &o) const;

  private:
    size_t
    at(size_t i, size_t j) const
    {
        return i * reads + j;
    }

    size_t cons;
    size_t reads;
    std::vector<uint32_t> vals;
    std::vector<uint32_t> idxs;
};

/**
 * Algorithm 1 part 1.1: weighted Hamming distance of @p read
 * against @p cons starting at offset @p k.  The read must fit:
 * k + read.size() <= cons.size().
 */
uint32_t calcWhd(const BaseSeq &cons, const BaseSeq &read,
                 const QualSeq &quals, size_t k);

/**
 * Algorithm 1: fill the min-WHD grid for a target.
 *
 * @param input   assembled target input
 * @param prune   enable computation pruning
 * @param stats   optional work counters (may be null)
 * @param kernel  sweep implementation (realign/whd_simd.hh); the
 *                grid and counters are identical for every kernel
 */
MinWhdGrid minWhd(const IrTargetInput &input, bool prune,
                  WhdStats *stats = nullptr,
                  WhdKernel kernel = activeWhdKernel());

/**
 * Allocation-free variant of minWhd(): fills @p grid (reset to the
 * target's shape) instead of returning a fresh one.
 */
void minWhdInto(const IrTargetInput &input, bool prune,
                WhdStats *stats, MinWhdGrid &grid,
                WhdKernel kernel = activeWhdKernel());

} // namespace iracc

#endif // IRACC_REALIGN_WHD_HH
