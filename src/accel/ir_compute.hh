/**
 * @file
 * Cycle-accurate functional model of one IR unit's datapath: the
 * Hamming Distance Calculator stage (paper Figure 5, and Figure 8
 * for the data-parallel variant) followed by the Consensus
 * Selector stage.
 *
 * The model operates on the marshalled byte image of a target --
 * exactly the bytes the MemReaders stream into the unit's block-RAM
 * input buffers -- and produces both the architectural outputs
 * (realign flags + new positions, plus the picked consensus in the
 * RoCC response) and the cycle cost of the computation.
 *
 * Timing model:
 *  - The calculator compares `width` base bytes and accumulates
 *    `width` quality bytes per cycle (width = 1 scalar, 32 in the
 *    deployed design: one 32-byte block-RAM row per cycle, with the
 *    two-row consensus pipeline hiding unaligned offsets).
 *  - With pruning enabled, an offset is abandoned at the end of the
 *    first chunk whose running sum reaches the current minimum --
 *    prune granularity is therefore `width` bases, matching the
 *    hardware's per-cycle compare of the running minimum register.
 *  - Each offset costs one extra setup cycle (read pointer reset);
 *    each (consensus, read) pair costs two cycles to hand the
 *    minimum to the selector.
 *  - The selector's buffers have a single read/write port, so
 *    scoring costs one cycle per read per non-reference consensus,
 *    plus a final one-cycle-per-read realignment pass.
 *
 * Functional results are bit-identical to the software kernel for
 * every width and pruning setting (asserted by property tests).
 */

#ifndef IRACC_ACCEL_IR_COMPUTE_HH
#define IRACC_ACCEL_IR_COMPUTE_HH

#include <cstdint>

#include "realign/marshal.hh"
#include "realign/whd.hh"
#include "sim/event_queue.hh"

namespace iracc {

/** Result of running one target through an IR unit's datapath. */
struct IrComputeResult
{
    /** Output buffers #1/#2 content. */
    AccelTargetOutput output;

    /** Picked consensus (returned in the RoCC response). */
    uint32_t bestConsensus = 0;

    /** Hamming-distance-calculator stage cycles. */
    Cycle hdcCycles = 0;

    /** Consensus-selector stage cycles. */
    Cycle selectorCycles = 0;

    /** Work counters (for ablation benches). */
    WhdStats whd;

    Cycle
    totalCycles() const
    {
        return hdcCycles + selectorCycles;
    }
};

/**
 * Run one marshalled target through the two-stage datapath.
 *
 * @param target marshalled target (input buffer images)
 * @param width  data-parallel width in bases/cycle (>= 1)
 * @param prune  enable computation pruning
 * @param kernel host sweep implementation (realign/whd_simd.hh);
 *               outputs, counters and cycles are identical for
 *               every kernel
 */
IrComputeResult irCompute(const MarshalledTarget &target,
                          uint32_t width, bool prune,
                          WhdKernel kernel = activeWhdKernel());

} // namespace iracc

#endif // IRACC_ACCEL_IR_COMPUTE_HH
