/**
 * @file
 * Vectorized implementations of the WHD offset sweep behind a
 * runtime-dispatch layer.
 *
 * The weighted-Hamming-distance inner loop (paper Algorithm 1) is
 * the dominant cost of both the software oracle and the
 * accelerator's datapath model, so it exists in two interchangeable
 * implementations:
 *
 *   scalar   the reference loop: one base comparison at a time,
 *            running-minimum check per comparison (software) or per
 *            chunk (hardware model); the default without AVX2.
 *   avx2     AVX2 intrinsics (function target attributes, selected
 *            at runtime only when CPUID reports AVX2).  The unpruned
 *            and per-comparison pruned (pruneChunk == 1) sweeps run
 *            16 offsets per vector, one u16 lane each: for base p
 *            the lanes' consensus bytes are contiguous.  The
 *            per-chunk pruned sweep (pruneChunk == datapath width)
 *            runs one offset in 32-byte sad_epu8 windows.
 *
 * The AVX2 sweeps are bit-equal to scalar: identical min-WHD
 * grids and offsets, identical WhdStats work counters, identical
 * datapath chunk counts.  The unpruned sweep derives its counters
 * in closed form.  The per-comparison pruned sweep keeps an exact
 * abort point per offset lane: quality accumulation is monotone, so
 * a lane dies at the first comparison whose running sum reaches the
 * current minimum, and a lane that survives every base is the next
 * new minimum -- the block then restarts just past it against the
 * lower bound.  The first offset (no minimum yet), reads longer than
 * kMaxReadLen (u16 lane sums would overflow) and the last offsets
 * that do not fill a lane block run one offset at a time in blocks,
 * with a rescan of the block that crossed the minimum.  The
 * per-chunk sweep sums a partial last chunk that ends at base
 * b >= 32 through one overlapping window [b - 32, b) with the
 * already-summed lanes masked out.  The differential harness
 * (src/testing) and tests/whd_test.cc referee the equality.
 *
 * Dispatch: the kernel is a value every caller passes in
 * (minWhd, irCompute, SoftwareRealignerConfig::kernel) and defaults
 * to activeWhdKernel(), the fastest implementation this CPU runs.
 * The JVM software baselines pin scalar; tests and benches sweep
 * supportedWhdKernels().
 */

#ifndef IRACC_REALIGN_WHD_SIMD_HH
#define IRACC_REALIGN_WHD_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <vector>

/**
 * The AVX2 kernel needs x86-64 plus a GNU-compatible compiler (the
 * implementation uses function target attributes so the rest of the
 * binary keeps its baseline ISA).  Elsewhere whd_avx2.cc compiles to
 * fatal() stubs and dispatch never selects it.
 */
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define IRACC_WHD_HAVE_AVX2 1
#else
#define IRACC_WHD_HAVE_AVX2 0
#endif

namespace iracc {

/** One WHD kernel implementation (runtime-dispatch design point). */
enum class WhdKernel : uint8_t
{
    Scalar = 0,
    Avx2 = 1,
};

/** Registry name of a kernel ("scalar" / "avx2"). */
const char *whdKernelName(WhdKernel kernel);

/** @return true when @p kernel is compiled in AND this CPU runs it. */
bool whdKernelSupported(WhdKernel kernel);

/** Every supported kernel, scalar first (test/bench sweep order). */
std::vector<WhdKernel> supportedWhdKernels();

/**
 * The default kernel: avx2 when this CPU supports it, else scalar.
 * A pure function of the host -- there is no process-wide override.
 */
WhdKernel activeWhdKernel();

/**
 * Result of sweeping every offset of one (consensus, read) pair.
 *
 * `comparisons` and `offsetsPruned` follow the scalar counter
 * semantics exactly (see realign/whd.hh): a comparison counts when
 * the scalar loop would have executed it, including the one whose
 * running sum triggers a pruning abort.  `chunks` counts the
 * pruneChunk-base blocks the hardware datapath would execute (one
 * block-RAM row compare each); it equals `comparisons` when
 * pruneChunk == 1.
 */
struct WhdSweepResult
{
    uint32_t best = 0xFFFFFFFFu; // kWhdInfinity
    uint32_t bestK = 0;
    uint64_t comparisons = 0;
    uint64_t offsetsPruned = 0;
    uint64_t chunks = 0;
};

/**
 * Sweep all offsets k in [0, m - n] of one (consensus, read) pair
 * with the requested kernel implementation.
 *
 * @param cons       consensus bytes (ASCII bases), length @p m
 * @param m          consensus length; requires n <= m
 * @param read       read bytes, length @p n
 * @param qual       quality bytes, parallel to @p read
 * @param n          read length
 * @param prune      enable computation pruning
 * @param pruneChunk granularity of the running-minimum check:
 *                   1 = per comparison (the software kernel),
 *                   w = per w-base chunk (the hardware datapath at
 *                   data-parallel width w)
 * @param kernel     implementation to run
 *
 * Results (best/bestK and all counters) are bit-equal across every
 * kernel for any (prune, pruneChunk).  An Avx2 request on a CPU
 * without AVX2 runs scalar.
 */
WhdSweepResult whdSweep(const uint8_t *cons, size_t m,
                        const uint8_t *read, const uint8_t *qual,
                        size_t n, bool prune, uint32_t pruneChunk,
                        WhdKernel kernel);

/**
 * AVX2 entry points (defined in whd_avx2.cc, compiled with the avx2
 * function target; call only when whdKernelSupported(Avx2)).
 * Internal to the dispatch layer -- use whdSweep().
 */
WhdSweepResult whdSweepUnprunedAvx2(const uint8_t *cons, size_t m,
                                    const uint8_t *read,
                                    const uint8_t *qual, size_t n);
WhdSweepResult whdSweepPrunedAvx2(const uint8_t *cons, size_t m,
                                  const uint8_t *read,
                                  const uint8_t *qual, size_t n,
                                  uint32_t pruneChunk);

} // namespace iracc

#endif // IRACC_REALIGN_WHD_SIMD_HH
