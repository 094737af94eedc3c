#include "realign/whd_simd.hh"

#include <algorithm>

#include "realign/whd.hh"
#include "util/logging.hh"

namespace iracc {

namespace {

/**
 * Correctness notes shared by every vectorized path (the scalar
 * sweep below is the literal reference loop; the AVX2 sweeps in
 * whd_avx2.cc are proven equal to it by tests/whd_test.cc and the
 * differential harness):
 *
 * 1. Saturating accumulation folds: whdAccumulate is
 *    min(whd + q, kWhdMax), so folding it over any sequence of
 *    qualities equals min(plain 64-bit sum, kWhdMax).  Vectorized
 *    paths therefore accumulate plain sums in wide integers and
 *    clamp once at the end.
 * 2. Prune-point reconstruction: within one offset the running sum
 *    is monotone non-decreasing, so the scalar kernel's abort
 *    point -- the first executed comparison whose running
 *    (saturated) sum reaches the current minimum -- is the first
 *    prefix crossing.  A block whose end-of-block sum crosses the
 *    bound contains that comparison; a scalar rescan of just that
 *    block recovers its exact index, which is all the counters
 *    need.
 * 3. Plain-vs-saturated compares: for best <= kWhdMax,
 *    min(sum, kWhdMax) >= best iff sum >= best; for
 *    best == kWhdInfinity the saturated value (<= kWhdMax) never
 *    reaches it.  Vectorized prune checks therefore use plain
 *    64-bit sums guarded by best != kWhdInfinity.
 * 4. Offset lanes of the pruned sweep: u16 lane sums are exact for
 *    n <= kMaxReadLen (256 * 255 < 2^16), and a finite best then
 *    also fits in 16 bits.  A lane whose sum reaches best has
 *    aborted (note 2); a lane that never does ends below best, so
 *    the first such lane is the next new minimum.
 */

bool
cpuHasAvx2()
{
#if IRACC_WHD_HAVE_AVX2
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

/**
 * The reference sweep: the software kernel's per-comparison loop
 * (pruneChunk == 1) and the hardware datapath's per-chunk loop
 * (pruneChunk == width) are the same code shape -- one running
 * minimum check per pruneChunk-base chunk, counters ticking as the
 * chunk executes.
 */
WhdSweepResult
sweepScalar(const uint8_t *cons, size_t m, const uint8_t *read,
            const uint8_t *qual, size_t n, bool prune,
            uint32_t pruneChunk)
{
    WhdSweepResult r;
    for (size_t k = 0; k + n <= m; ++k) {
        uint32_t whd = 0;
        bool pruned = false;
        for (size_t chunk = 0; chunk < n; chunk += pruneChunk) {
            const size_t lanes =
                std::min<size_t>(pruneChunk, n - chunk);
            ++r.chunks;
            r.comparisons += lanes;
            for (size_t lane = 0; lane < lanes; ++lane) {
                const size_t p = chunk + lane;
                if (cons[k + p] != read[p])
                    whd = whdAccumulate(whd, qual[p]);
            }
            // The running-minimum register is checked once per
            // chunk (once per comparison at pruneChunk == 1):
            // computation pruning.
            if (prune && whd >= r.best) {
                pruned = true;
                break;
            }
        }
        if (pruned) {
            ++r.offsetsPruned;
            continue;
        }
        if (whd < r.best) {
            r.best = whd;
            r.bestK = static_cast<uint32_t>(k);
        }
    }
    return r;
}

/** Unpruned counters are a pure function of the sweep shape. */
void
fillUnprunedCounters(WhdSweepResult &r, size_t m, size_t n,
                     uint32_t pruneChunk)
{
    const uint64_t offsets = m - n + 1;
    r.comparisons = offsets * n;
    r.offsetsPruned = 0;
    r.chunks = n == 0 ? 0
                      : offsets * ((n + pruneChunk - 1) / pruneChunk);
}

} // anonymous namespace

const char *
whdKernelName(WhdKernel kernel)
{
    switch (kernel) {
      case WhdKernel::Scalar:
        return "scalar";
      case WhdKernel::Avx2:
        return "avx2";
    }
    return "unknown";
}

bool
whdKernelSupported(WhdKernel kernel)
{
    return kernel != WhdKernel::Avx2 || cpuHasAvx2();
}

std::vector<WhdKernel>
supportedWhdKernels()
{
    std::vector<WhdKernel> out;
    for (WhdKernel k : {WhdKernel::Scalar, WhdKernel::Avx2}) {
        if (whdKernelSupported(k))
            out.push_back(k);
    }
    return out;
}

WhdKernel
activeWhdKernel()
{
    static const WhdKernel best = cpuHasAvx2() ? WhdKernel::Avx2
                                               : WhdKernel::Scalar;
    return best;
}

WhdSweepResult
whdSweep(const uint8_t *cons, size_t m, const uint8_t *read,
         const uint8_t *qual, size_t n, bool prune,
         uint32_t pruneChunk, WhdKernel kernel)
{
    panic_if(n > m, "whdSweep: read length %zu overruns consensus "
             "length %zu", n, m);
    panic_if(pruneChunk == 0, "whdSweep: pruneChunk must be >= 1");

    if (kernel == WhdKernel::Avx2 && !cpuHasAvx2())
        kernel = WhdKernel::Scalar;

    switch (kernel) {
      case WhdKernel::Scalar:
        return sweepScalar(cons, m, read, qual, n, prune,
                           pruneChunk);

      case WhdKernel::Avx2: {
        if (!prune) {
            WhdSweepResult r =
                whdSweepUnprunedAvx2(cons, m, read, qual, n);
            fillUnprunedCounters(r, m, n, pruneChunk);
            return r;
        }
        return whdSweepPrunedAvx2(cons, m, read, qual, n,
                                  pruneChunk);
      }
    }
    fatal("whdSweep: unknown kernel %d", static_cast<int>(kernel));
}

#if !IRACC_WHD_HAVE_AVX2
// Stubs keep the link closed on non-x86 / non-GNU toolchains; the
// dispatch layer never routes here (whdKernelSupported is false).
WhdSweepResult
whdSweepUnprunedAvx2(const uint8_t *, size_t, const uint8_t *,
                     const uint8_t *, size_t)
{
    fatal("AVX2 WHD kernel is not compiled into this binary");
}

WhdSweepResult
whdSweepPrunedAvx2(const uint8_t *, size_t, const uint8_t *,
                   const uint8_t *, size_t, uint32_t)
{
    fatal("AVX2 WHD kernel is not compiled into this binary");
}
#endif

} // namespace iracc
