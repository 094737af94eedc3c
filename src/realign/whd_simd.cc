#include "realign/whd_simd.hh"

#include "realign/limits.hh"
#include "realign/whd.hh"
#include "util/logging.hh"

namespace iracc {

namespace {

/**
 * Correctness notes shared by every vectorized path (the scalar
 * sweep below is the literal reference loop; generic and AVX2 are
 * proven equal to it by tests/whd_test.cc and the differential
 * harness):
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

/** Exact WHD of a single offset: plain 64-bit sum, clamped once. */
uint32_t
offsetWhd(const uint8_t *cons_k, const uint8_t *read,
          const uint8_t *qual, size_t n)
{
    uint64_t sum = 0;
    for (size_t p = 0; p < n; ++p)
        sum += (cons_k[p] != read[p]) ? qual[p] : 0;
    return sum > kWhdMax ? kWhdMax : static_cast<uint32_t>(sum);
}

/**
 * Branchless mismatch-quality sum over one block (<= a few KiB so
 * the 32-bit partial cannot overflow).
 */
uint32_t
blockSum(const uint8_t *cons_p, const uint8_t *read_p,
         const uint8_t *qual_p, size_t len)
{
    uint32_t sum = 0;
    for (size_t i = 0; i < len; ++i)
        sum += qual_p[i] * (cons_p[i] != read_p[i]);
    return sum;
}

/**
 * Unpruned generic sweep: kWhdGenericLanes offsets advance
 * together.  For base p the consensus bytes the lanes need --
 * cons[k0+l+p] for l in [0, L) -- are contiguous, so the inner loop
 * is a straight-line compare/mask/add over adjacent bytes that any
 * vectorizer handles.  Lanes accumulate 32-bit partials inside
 * superchunks short enough not to overflow, spilling to 64-bit.
 */
void
unprunedLanesGeneric(const uint8_t *cons_k0, const uint8_t *read,
                     const uint8_t *qual, size_t n,
                     uint64_t acc[kWhdGenericLanes])
{
    constexpr size_t kSuper = 65535; // 65535 * 255 < 2^32
    for (size_t l = 0; l < kWhdGenericLanes; ++l)
        acc[l] = 0;
    for (size_t start = 0; start < n; start += kSuper) {
        const size_t end = std::min(n, start + kSuper);
        uint32_t part[kWhdGenericLanes] = {};
        for (size_t p = start; p < end; ++p) {
            const uint8_t rb = read[p];
            const uint8_t q = qual[p];
            const uint8_t *c = cons_k0 + p;
            for (size_t l = 0; l < kWhdGenericLanes; ++l)
                part[l] += (c[l] != rb) ? q : 0;
        }
        for (size_t l = 0; l < kWhdGenericLanes; ++l)
            acc[l] += part[l];
    }
}

/** Fold one lane block's results into the running minimum. */
void
mergeLanes(const uint64_t acc[], size_t lanes, size_t k0,
           WhdSweepResult &r)
{
    for (size_t l = 0; l < lanes; ++l) {
        const uint32_t v = acc[l] > kWhdMax
                               ? kWhdMax
                               : static_cast<uint32_t>(acc[l]);
        // Strict <: the first minimal offset wins, and blocks are
        // visited in ascending k.
        if (v < r.best) {
            r.best = v;
            r.bestK = static_cast<uint32_t>(k0 + l);
        }
    }
}

WhdSweepResult
sweepUnprunedGeneric(const uint8_t *cons, size_t m,
                     const uint8_t *read, const uint8_t *qual,
                     size_t n)
{
    WhdSweepResult r;
    const size_t offsets = m - n + 1;
    size_t k0 = 0;
    uint64_t acc[kWhdGenericLanes];
    for (; k0 + kWhdGenericLanes <= offsets; k0 += kWhdGenericLanes) {
        unprunedLanesGeneric(cons + k0, read, qual, n, acc);
        mergeLanes(acc, kWhdGenericLanes, k0, r);
    }
    // Scalar tail: fewer than kWhdGenericLanes offsets remain (a
    // full lane block would read past the consensus).
    for (; k0 < offsets; ++k0) {
        const uint32_t v = offsetWhd(cons + k0, read, qual, n);
        if (v < r.best) {
            r.best = v;
            r.bestK = static_cast<uint32_t>(k0);
        }
    }
    return r;
}

/**
 * Mismatch-quality sum of the 32-base window at @p c with its first
 * @p skip lanes masked out: a fixed-length loop with a 16-bit sum
 * (32 * 255 < 2^16), which the vectorizer unrolls.
 */
uint32_t
windowSum32(const uint8_t *c, const uint8_t *r, const uint8_t *q,
            size_t skip)
{
    // Multiplies instead of a conditional load, and a byte-wide
    // lane index, keep the loop free of control flow and 64-bit
    // lanes.
    const uint8_t first = static_cast<uint8_t>(skip);
    uint16_t sum = 0;
    for (uint8_t i = 0; i < 32; ++i)
        sum += q[i] * (c[i] != r[i] && i >= first);
    return sum;
}

/**
 * Mismatch-quality sum of bases [a, b) of one offset (@p c points
 * at the offset's first consensus byte), in 32-base windows.  A
 * partial last block ending at b >= 32 is one overlapping window
 * [b - 32, b) with the lanes in front of a masked out; only ranges
 * ending before base 32 take the variable-length loop.
 */
uint32_t
rangeSum(const uint8_t *c, const uint8_t *r, const uint8_t *q,
         size_t a, size_t b)
{
    uint32_t sum = 0;
    for (; a + 32 <= b; a += 32)
        sum += windowSum32(c + a, r + a, q + a, 0);
    if (a == b)
        return sum;
    if (b < 32)
        return sum + blockSum(c + a, r + a, q + a, b - a);
    return sum + windowSum32(c + b - 32, r + b - 32, q + b - 32,
                             32 - (b - a));
}

/**
 * One offset of the per-comparison pruned sweep: branchless blocks;
 * when a block's end-of-block sum crosses the running minimum, a
 * scalar rescan of that block recovers the exact abort comparison
 * for the counters (notes 2/3 above).
 */
void
prunedOffset(const uint8_t *cons_k, const uint8_t *read,
             const uint8_t *qual, size_t n, size_t k,
             WhdSweepResult &r)
{
    uint64_t whd = 0;
    for (size_t chunk = 0; chunk < n;
         chunk += kWhdGenericPruneBlock) {
        const size_t lanes =
            std::min(kWhdGenericPruneBlock, n - chunk);
        const uint32_t bs = blockSum(cons_k + chunk, read + chunk,
                                     qual + chunk, lanes);
        if (r.best != kWhdInfinity && whd + bs >= r.best) {
            // The abort comparison is inside this block.
            size_t p = chunk;
            for (;; ++p) {
                if (cons_k[p] != read[p])
                    whd += qual[p];
                if (whd >= r.best)
                    break;
            }
            r.comparisons += p + 1;
            ++r.offsetsPruned;
            return;
        }
        whd += bs;
    }
    r.comparisons += n;
    const uint32_t v =
        whd > kWhdMax ? kWhdMax : static_cast<uint32_t>(whd);
    if (v < r.best) {
        r.best = v;
        r.bestK = static_cast<uint32_t>(k);
    }
}

/**
 * kWhdGenericLanes offsets of the per-comparison pruned sweep, one
 * u16 lane each, against a fixed running minimum @p best (finite,
 * n <= kMaxReadLen; note 4).  The lanes advance
 * kWhdGenericPruneBlock bases at a time in the unpruned sweep's loop
 * shape (no exit inside, so it vectorizes); a lane whose sum reaches
 * best in a block gets that block rescanned from its start-of-block
 * sum to find the scalar abort comparison p, and counts p + 1
 * (note 2).  Stops after the block in which the last lane died.
 *
 * @return the first lane that survived all n bases (its sum is then
 *         below best), or kWhdGenericLanes if none did; @p count /
 *         @p sum hold every lane's comparisons and WHD.
 */
size_t
prunedLanesGeneric(const uint8_t *cons_k0, const uint8_t *read,
                   const uint8_t *qual, size_t n, uint32_t best,
                   uint16_t count[kWhdGenericLanes],
                   uint16_t sum[kWhdGenericLanes])
{
    constexpr size_t L = kWhdGenericLanes;
    uint16_t acc[L] = {};
    bool alive[L];
    for (size_t l = 0; l < L; ++l) {
        alive[l] = true;
        count[l] = static_cast<uint16_t>(n);
    }
    size_t left = L;
    for (size_t p0 = 0; p0 < n && left > 0;
         p0 += kWhdGenericPruneBlock) {
        const size_t end = std::min(n, p0 + kWhdGenericPruneBlock);
        uint16_t start[L];
        for (size_t l = 0; l < L; ++l)
            start[l] = acc[l];
        for (size_t p = p0; p < end; ++p) {
            const uint8_t rb = read[p];
            const uint16_t q = qual[p];
            const uint8_t *c = cons_k0 + p;
            for (size_t l = 0; l < L; ++l)
                acc[l] += q * (c[l] != rb);
        }
        for (size_t l = 0; l < L; ++l) {
            if (!alive[l] || acc[l] < best)
                continue;
            uint32_t whd = start[l];
            size_t p = p0;
            for (;; ++p) {
                if (cons_k0[l + p] != read[p])
                    whd += qual[p];
                if (whd >= best)
                    break;
            }
            count[l] = static_cast<uint16_t>(p + 1);
            alive[l] = false;
            --left;
        }
    }
    for (size_t l = 0; l < L; ++l)
        sum[l] = acc[l];
    for (size_t l = 0; l < L; ++l)
        if (alive[l])
            return l;
    return L;
}

/**
 * Pruned sweep with per-comparison (software) semantics:
 * kWhdGenericLanes offsets at a time in prunedLanesGeneric.  A
 * surviving lane is the new minimum: the lanes before it are
 * committed, best/bestK move to it, and the block restarts just
 * past it so later lanes are judged against the lower bound.  The
 * first offset (no minimum yet), reads longer than the u16 lanes
 * hold, and the last offsets that do not fill a block go through
 * prunedOffset.
 */
WhdSweepResult
sweepPrunedPerComparison(const uint8_t *cons, size_t m,
                         const uint8_t *read, const uint8_t *qual,
                         size_t n)
{
    static_assert(kMaxReadLen * 255 <= 0xFFFF,
                  "u16 lane sums must be exact for every read");
    WhdSweepResult r;
    const size_t offsets = m - n + 1;
    size_t k = 0;
    while (k < offsets) {
        if (r.best == kWhdInfinity || n == 0 || n > kMaxReadLen ||
            offsets - k < kWhdGenericLanes) {
            prunedOffset(cons + k, read, qual, n, k, r);
            ++k;
            continue;
        }
        uint16_t count[kWhdGenericLanes];
        uint16_t sum[kWhdGenericLanes];
        const size_t pruned = prunedLanesGeneric(
            cons + k, read, qual, n, r.best, count, sum);
        for (size_t l = 0; l < pruned; ++l)
            r.comparisons += count[l];
        r.offsetsPruned += pruned;
        if (pruned == kWhdGenericLanes) {
            k += kWhdGenericLanes;
            continue;
        }
        r.comparisons += n;
        r.best = sum[pruned];
        r.bestK = static_cast<uint32_t>(k + pruned);
        k += pruned + 1;
    }
    r.chunks = r.comparisons; // chunk == comparison here
    return r;
}

/**
 * Pruned sweep with per-chunk (hardware datapath) semantics: the
 * running minimum is checked at pruneChunk-base granularity, and a
 * pruned offset charges the whole chunk that crossed -- the block
 * sum IS the datapath's per-cycle work, no rescan needed.
 */
WhdSweepResult
sweepPrunedPerChunk(const uint8_t *cons, size_t m,
                    const uint8_t *read, const uint8_t *qual,
                    size_t n, uint32_t pruneChunk)
{
    // Counters live in locals: stores through the result would have
    // to be redone every chunk, since the byte loads may alias them.
    uint32_t best = kWhdInfinity;
    uint32_t bestK = 0;
    uint64_t comparisons = 0, offsetsPruned = 0, chunks = 0;
    for (size_t k = 0; k + n <= m; ++k) {
        uint64_t whd = 0;
        bool pruned = false;
        for (size_t chunk = 0; chunk < n; chunk += pruneChunk) {
            const size_t end = std::min<size_t>(n, chunk + pruneChunk);
            ++chunks;
            comparisons += end - chunk;
            whd += rangeSum(cons + k, read, qual, chunk, end);
            if (best != kWhdInfinity && whd >= best) {
                pruned = true;
                break;
            }
        }
        if (pruned) {
            ++offsetsPruned;
            continue;
        }
        const uint32_t v =
            whd > kWhdMax ? kWhdMax : static_cast<uint32_t>(whd);
        if (v < best) {
            best = v;
            bestK = static_cast<uint32_t>(k);
        }
    }
    return {best, bestK, comparisons, offsetsPruned, chunks};
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
      case WhdKernel::Generic:
        return "generic";
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
    for (WhdKernel k : {WhdKernel::Scalar, WhdKernel::Generic,
                        WhdKernel::Avx2}) {
        if (whdKernelSupported(k))
            out.push_back(k);
    }
    return out;
}

WhdKernel
activeWhdKernel()
{
    static const WhdKernel best = cpuHasAvx2() ? WhdKernel::Avx2
                                               : WhdKernel::Generic;
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
        kernel = WhdKernel::Generic;

    switch (kernel) {
      case WhdKernel::Scalar:
        return sweepScalar(cons, m, read, qual, n, prune,
                           pruneChunk);

      case WhdKernel::Generic:
        if (!prune) {
            WhdSweepResult r =
                sweepUnprunedGeneric(cons, m, read, qual, n);
            fillUnprunedCounters(r, m, n, pruneChunk);
            return r;
        }
        if (pruneChunk == 1)
            return sweepPrunedPerComparison(cons, m, read, qual, n);
        return sweepPrunedPerChunk(cons, m, read, qual, n,
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
