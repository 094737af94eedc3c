/**
 * @file
 * Software INDEL realigner -- the GATK3 / ADAM baseline analog.
 *
 * Holds the configuration of the software Execute stage
 * (realign/stages.hh executeStageSoftware, driven per contig by
 * core/stage_pipeline.hh) and the decision-application code that
 * maps consensus placements back to reference alignments.  A
 * configuration flag selects the paper's two software baselines:
 *
 *  - prune = false : faithful GATK3-style full evaluation
 *  - prune = true  : the "most optimized software" comparator
 *                    (plays the role of ADAM in the paper)
 *
 * The decision-application code is shared with the FPGA-system
 * host driver so software and accelerated paths produce bit-equal
 * read updates (asserted by integration tests).
 */

#ifndef IRACC_REALIGN_REALIGNER_HH
#define IRACC_REALIGN_REALIGNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "genomics/read.hh"
#include "realign/consensus.hh"
#include "realign/score.hh"
#include "realign/target.hh"
#include "realign/whd.hh"

namespace iracc {

/**
 * Work-model multiplier applied to the JVM-based baselines
 * (GATK3, ADAM) to account for interpreted-framework overhead
 * relative to this repository's native kernel.  The single source
 * of truth for the model: backends feed it into
 * SoftwareRealignerConfig::workAmplification (documented in
 * DESIGN.md as part of the software-baseline substitution).
 * Calibrated against the scalar WHD kernel, which is why the JVM
 * baselines also pin SoftwareRealignerConfig::kernel to scalar.
 */
constexpr double kJvmWorkAmplification = 1.5;

/**
 * Map a window-relative consensus offset back to a reference
 * position and CIGAR for one read, accounting for the indel the
 * consensus carries.
 *
 * @param input     the target input the decision was computed on
 * @param cons_idx  the picked consensus
 * @param offset    the read's placement offset k on that consensus
 * @param read_len  the read length
 * @param new_pos   out: 0-based reference start position
 * @param new_cigar out: alignment CIGAR
 */
void mapOffsetToAlignment(const IrTargetInput &input, uint32_t cons_idx,
                          uint32_t offset, uint32_t read_len,
                          int64_t &new_pos, Cigar &new_cigar);

/**
 * Apply a consensus decision to the caller's read set: every read
 * flagged realign gets its position and CIGAR rewritten.
 *
 * @return number of reads updated
 */
uint32_t applyDecision(const IrTargetInput &input,
                       const ConsensusDecision &decision,
                       std::vector<Read> &reads);

/** Configuration of the software realigner. */
struct SoftwareRealignerConfig
{
    /** Enable computation pruning in the WHD kernel. */
    bool prune = false;

    /** Worker threads (1 = fully serial). */
    uint32_t threads = 1;

    /** Target creation knobs. */
    TargetCreationParams targetParams;

    /**
     * Artificial work multiplier used only to model the
     * interpreted-framework overhead of the Java/Spark baselines
     * relative to tuned native code; 1.0 = none (the JVM baselines
     * pass kJvmWorkAmplification).  Fractional values re-run the
     * kernel on a deterministic fraction of targets picked by
     * per-target RNG streams keyed on (contig, target), so the
     * choice -- and every statistic -- is independent of thread
     * count and contig execution order.
     */
    double workAmplification = 1.0;

    /**
     * WHD sweep implementation.  Output-invisible (every kernel is
     * bit-equal), but it sets the host cost: the JVM baselines pin
     * WhdKernel::Scalar to model Java's scalar inner loop, the
     * native backend runs the fastest kernel the CPU supports.
     */
    WhdKernel kernel = activeWhdKernel();
};

} // namespace iracc

#endif // IRACC_REALIGN_REALIGNER_HH
